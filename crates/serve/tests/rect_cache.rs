//! Cached rectangle bitmaps, verified live against a daemon on a
//! loopback socket.
//!
//! `/cover/verify` and `/discrepancy` build a family's bitmaps once, on
//! the deterministic parallel map, for the first request that folds over
//! them; every later request runs a serial fold. For each family the
//! `certify` workload serves, plus small Example 8 families, the miss
//! and the hit must answer the same bytes apart from the cache tag, and
//! the hit must make no `par` call at all.
//!
//! The obs registry is process-global, so this file holds one `#[test]`.

use std::time::Duration;
use ucfg_serve::{Client, Json, ServeConfig, Server};
use ucfg_support::obs;

fn par_calls() -> u64 {
    obs::counter("par.calls").value()
}

/// POST `body` to `path` and return the 200 reply's body.
fn post(c: &mut Client, path: &str, body: &str) -> String {
    let r = c.request("POST", path, Some(body)).expect("request");
    assert_eq!(r.status, 200, "{path} {body}: {}", r.body);
    r.body
}

#[test]
fn rect_hits_fold_cached_bitmaps_without_par_calls() {
    obs::set_enabled(true);
    let server = Server::bind(ServeConfig {
        port: 0,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let join = std::thread::spawn(move || server.run().expect("run"));
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");

    // The four certificate requests, then Example 8 at n = 4 and n = 5.
    for (path, family, n) in [
        ("/cover/verify", "example8", 10),
        ("/discrepancy", "example8", 12),
        ("/cover/verify", "extraction", 5),
        ("/discrepancy", "extraction", 4),
        ("/cover/verify", "example8", 4),
        ("/cover/verify", "example8", 5),
    ] {
        let body = format!(r#"{{"family":"{family}","n":{n}}}"#);
        let before = par_calls();
        let miss = post(&mut c, path, &body);
        assert!(miss.contains(r#""cache":"miss""#), "{path} {body}: {miss}");
        assert!(
            par_calls() > before,
            "{path} {body}: the miss builds the bitmaps on the parallel map"
        );
        for _ in 0..2 {
            let calls = par_calls();
            let hit = post(&mut c, path, &body);
            assert_eq!(
                hit,
                miss.replace(r#""cache":"miss""#, r#""cache":"hit""#),
                "{path} {body}: the hit answers the miss's bytes"
            );
            assert_eq!(par_calls(), calls, "{path} {body}: a hit makes no par call");
        }
    }

    // Both endpoints share the family's cache entry but fold different
    // bitmaps: the first `/discrepancy` on a family cached by
    // `/cover/verify` is a cache hit that builds the family-rank form
    // once, and its repeats fold without a par call.
    let body = r#"{"family":"example8","n":4}"#;
    let before = par_calls();
    let first = post(&mut c, "/discrepancy", body);
    assert!(first.contains(r#""cache":"hit""#), "{first}");
    assert!(par_calls() > before, "the family-rank form is built once");
    let calls = par_calls();
    assert_eq!(post(&mut c, "/discrepancy", body), first);
    assert!(post(&mut c, "/cover/verify", body).contains(r#""cache":"hit""#));
    assert_eq!(par_calls(), calls, "both forms cached: no par call");

    // Spot-check the certified facts the folds report.
    let v = Json::parse(post(&mut c, "/cover/verify", r#"{"n":10}"#).trim_end()).unwrap();
    assert_eq!(v.get("covers_exactly"), Some(&Json::Bool(true)));
    assert_eq!(v.get("max_overlap"), Some(&Json::Int(10)));
    let v =
        Json::parse(post(&mut c, "/discrepancy", r#"{"family":"extraction","n":4}"#).trim_end())
            .unwrap();
    assert_eq!(v.get("sums_to_gap"), Some(&Json::Bool(true)));

    let bye = c.request("POST", "/shutdown", None).expect("shutdown");
    assert_eq!(bye.status, 200);
    drop(c);
    join.join().expect("clean join");
}
