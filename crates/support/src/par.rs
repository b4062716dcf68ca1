//! A scoped, deterministic parallel-map layer for the exhaustive kernels.
//!
//! Every quantitative kernel in the workspace (the `2^{2n}` cover scans,
//! the discrepancy maxima over `𝓛`, the `2^n × 2^n` rank matrices, the
//! separation sweep) is an embarrassingly parallel loop whose output must
//! stay **bit-identical** regardless of how many threads run it. This
//! module provides that guarantee by construction:
//!
//! - work is split into chunks whose boundaries depend only on the input
//!   length — never on the thread count — so per-chunk results are fixed,
//! - chunk results are always combined in chunk order, so callers see the
//!   serial order even though chunks complete out of order,
//! - `threads <= 1` (or a single chunk) takes a plain serial loop with no
//!   thread machinery at all.
//!
//! The worker count defaults to [`thread_count`]: the `UCFG_THREADS`
//! environment variable when set (`UCFG_THREADS=1` forces the serial path
//! everywhere), otherwise [`std::thread::available_parallelism`].
//!
//! ```
//! use ucfg_support::par;
//!
//! let squares = par::par_map_threads(&[1u64, 2, 3, 4], 8, |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // ordered, regardless of threads
//! ```

use crate::obs;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count
/// (`UCFG_THREADS=1` forces every kernel onto its serial path).
pub const THREADS_ENV: &str = "UCFG_THREADS";

/// Upper bound on the number of chunks any input is split into. The bound
/// is a balance knob only: chunk *boundaries* are derived from the input
/// length alone, so results never depend on it reaching saturation.
const MAX_CHUNKS: usize = 64;

/// Parse a thread-count override (`ucfg --threads` or [`THREADS_ENV`]);
/// `Err` carries the reason.
pub fn parse_threads(spec: &str) -> Result<usize, String> {
    spec.trim()
        .parse::<usize>()
        .ok()
        .filter(|&t| t >= 1)
        .ok_or_else(|| format!("invalid thread count '{spec}' (want an integer ≥ 1)"))
}

/// The worker-thread count: `UCFG_THREADS` when set to a positive integer,
/// else the machine's available parallelism (at least 1).
pub fn thread_count() -> usize {
    match std::env::var(THREADS_ENV).map(|spec| parse_threads(&spec)) {
        Ok(Ok(threads)) => threads,
        _ => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Override the worker-thread count for this process by setting
/// [`THREADS_ENV`] — the funnel behind `ucfg --threads`, so a
/// per-invocation override reaches every kernel that defaults to
/// [`thread_count`]. Kernel results are bit-identical across counts, so
/// this only changes how fast they run.
pub fn set_thread_count(threads: usize) {
    assert!(threads >= 1, "thread count must be ≥ 1");
    std::env::set_var(THREADS_ENV, threads.to_string());
}

/// The fixed chunk size for an input of `len` items: at most
/// [`MAX_CHUNKS`] chunks, depending only on `len`.
fn chunk_len(len: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(1)
}

/// Evaluate `work(0..num_chunks)` on up to `threads` workers and return
/// the results **in chunk order**. The scheduling (an atomic work queue)
/// affects only which thread computes which chunk, never the result.
pub fn run_chunks<A: Send>(
    num_chunks: usize,
    threads: usize,
    work: impl Fn(usize) -> A + Sync,
) -> Vec<A> {
    obs::count!("par.calls");
    obs::count!("par.chunks", num_chunks as u64);
    if threads <= 1 || num_chunks <= 1 {
        // Which calls take the serial path depends on the worker count,
        // so this counter lives in the volatile stratum.
        obs::vcount!("par.serial_hits");
        return (0..num_chunks).map(work).collect();
    }
    let workers = threads.min(num_chunks);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<A>> = Vec::with_capacity(num_chunks);
    slots.resize_with(num_chunks, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let work = &work;
                scope.spawn(move || {
                    let mut done: Vec<(usize, A)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= num_chunks {
                            // Per-worker load: how evenly the atomic
                            // queue spread the chunks (volatile).
                            obs::record!("par.worker.chunks", done.len() as u64);
                            return done;
                        }
                        done.push((idx, work(idx)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (idx, a) in h.join().expect("par worker panicked") {
                slots[idx] = Some(a);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every chunk computed"))
        .collect()
}

/// Ordered parallel map over a slice, using [`thread_count`] workers.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    par_map_threads(items, thread_count(), f)
}

/// Ordered parallel map over a slice with an explicit worker count.
/// Output is element-for-element identical to `items.iter().map(f)` for
/// every `threads >= 1`.
pub fn par_map_threads<T: Sync, U: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    obs::count!("par.items", len as u64);
    let chunk = chunk_len(len);
    let per_chunk = run_chunks(len.div_ceil(chunk), threads, |ci| {
        let lo = ci * chunk;
        items[lo..(lo + chunk).min(len)]
            .iter()
            .map(&f)
            .collect::<Vec<U>>()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Split a `u64` range into fixed sub-ranges (boundaries depend only on
/// the range), evaluate `work` on each in parallel, and return the results
/// in range order. This is the word-scan primitive: `work` typically folds
/// a sub-range of packed words into a partial aggregate which the caller
/// merges left-to-right.
pub fn map_ranges<A: Send>(range: Range<u64>, work: impl Fn(Range<u64>) -> A + Sync) -> Vec<A> {
    map_ranges_threads(range, thread_count(), work)
}

/// [`map_ranges`] with an explicit worker count.
pub fn map_ranges_threads<A: Send>(
    range: Range<u64>,
    threads: usize,
    work: impl Fn(Range<u64>) -> A + Sync,
) -> Vec<A> {
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return Vec::new();
    }
    obs::count!("par.items", len);
    let chunk = len.div_ceil(MAX_CHUNKS as u64).max(1);
    let num_chunks = len.div_ceil(chunk) as usize;
    run_chunks(num_chunks, threads, |ci| {
        let lo = range.start + ci as u64 * chunk;
        work(lo..(lo + chunk).min(range.end))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_spec_parsing() {
        for bad in ["", "0", "banana", "-1"] {
            assert!(parse_threads(bad).is_err(), "spec {bad:?}");
        }
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8));
    }

    #[test]
    fn chunking_depends_only_on_length() {
        assert_eq!(chunk_len(0), 1);
        assert_eq!(chunk_len(1), 1);
        assert_eq!(chunk_len(MAX_CHUNKS), 1);
        assert_eq!(chunk_len(MAX_CHUNKS + 1), 2);
        assert_eq!(chunk_len(1 << 20), (1usize << 20).div_ceil(MAX_CHUNKS));
    }

    #[test]
    fn par_map_is_ordered_and_thread_invariant() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = par_map_threads(&items, 1, |&x| x.wrapping_mul(0x9e37_79b9));
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                serial,
                par_map_threads(&items, threads, |&x| x.wrapping_mul(0x9e37_79b9)),
                "threads = {threads}"
            );
        }
        assert_eq!(serial.len(), 1000);
        assert_eq!(serial[3], 3u64.wrapping_mul(0x9e37_79b9));
    }

    #[test]
    fn par_map_edge_cases() {
        assert_eq!(par_map_threads(&[] as &[u8], 8, |&x| x), Vec::<u8>::new());
        assert_eq!(par_map_threads(&[7u8], 8, |&x| x + 1), vec![8]);
        // More threads than items.
        assert_eq!(par_map_threads(&[1u8, 2], 64, |&x| x), vec![1, 2]);
    }

    #[test]
    fn map_ranges_covers_exactly_once() {
        for threads in [1usize, 2, 8] {
            let pieces = map_ranges_threads(10..1_000_010, threads, |r| r);
            assert_eq!(pieces.first().map(|r| r.start), Some(10));
            assert_eq!(pieces.last().map(|r| r.end), Some(1_000_010));
            for w in pieces.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous, in order");
            }
        }
        // Piece boundaries are identical across thread counts.
        let a = map_ranges_threads(0..12345, 2, |r| (r.start, r.end));
        let b = map_ranges_threads(0..12345, 8, |r| (r.start, r.end));
        assert_eq!(a, b);
        assert!(map_ranges_threads(5..5, 4, |r| r).is_empty());
    }

    #[test]
    fn range_fold_matches_serial_sum() {
        let serial: u64 = (0..100_000u64).sum();
        for threads in [1usize, 2, 8] {
            let total: u64 = map_ranges_threads(0..100_000, threads, |r| r.sum::<u64>())
                .into_iter()
                .sum();
            assert_eq!(total, serial, "threads = {threads}");
        }
    }

    #[test]
    fn run_chunks_ordered_under_contention() {
        let out = run_chunks(257, 8, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }
}
