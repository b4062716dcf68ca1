//! The Theorem 1 separation sweep as a library: a deterministic,
//! thread-parallel `n`-sweep rendered to the CSV consumed by the plotting
//! scripts. `ucfg sweep` is a thin wrapper around [`sweep_csv`] and
//! [`kernel_sweep_csv`].
//!
//! Rows are computed on the [`ucfg_support::par`] layer, so worker counts
//! (including the `UCFG_THREADS` override) never change the bytes of the
//! output.

use ucfg_core::separation::{separation_row, SeparationRow};
use ucfg_support::{obs, par};

/// The CSV header line (without trailing newline).
///
/// Fields that are only computed below a size threshold (`nfa_exact`,
/// `ucfg_dawg`, `ucfg_lower_bound_log2`) render as the explicit sentinel
/// [`CSV_NA`] when absent, so every row always has the full column count
/// and naive CSV consumers never see trailing/empty cells.
pub const CSV_HEADER: &str =
    "n,ln_size_log2,cfg_size,nfa_pattern,nfa_exact,ucfg_dawg,ucfg_example4_log2,ucfg_lower_bound_log2";

/// The sentinel emitted for fields that were not computed at this `n`.
pub const CSV_NA: &str = "NA";

/// The `n` values visited by a sweep up to `max_n`: dense for small `n`,
/// then strides, then powers of two — and always ending **exactly at**
/// `max_n` (deduplicated when `max_n` already lands on a stride), so the
/// requested endpoint is never silently skipped.
pub fn sweep_schedule(max_n: usize) -> Vec<usize> {
    let mut ns = Vec::new();
    let mut n = 2usize;
    while n <= max_n {
        ns.push(n);
        n = if n < 16 {
            n + 2
        } else if n < 64 {
            n + 8
        } else {
            n * 2
        };
    }
    if max_n >= 2 && ns.last() != Some(&max_n) {
        ns.push(max_n);
    }
    ns
}

/// Cheap end-to-end cross-check attached to every small-`n` sweep row
/// (`n ≤ SELF_CHECK_MAX_N`): CYK-parse the full length-`2n` word domain
/// against the CNF of the Appendix A grammar (one reused rule index) and
/// compare the accept count with the cached `L_n` bitmap and the
/// closed-form `|L_n|`. The closed-form sweep columns never touch the
/// parsing or word-set kernels, so this keeps the sweep an end-to-end
/// witness for them too — and, under `UCFG_TRACE=1`, feeds the metrics
/// export nonzero `cyk.*` and `wordset.cache.*` counters. It asserts and
/// returns nothing, so the CSV bytes are untouched.
fn self_check_row(n: usize) {
    const SELF_CHECK_MAX_N: usize = 5;
    if n > SELF_CHECK_MAX_N {
        return;
    }
    use ucfg_core::{ln_grammars::appendix_a_grammar, words, wordset};
    use ucfg_grammar::cyk::{CykChart, CykRuleIndex};
    use ucfg_grammar::normal_form::CnfGrammar;

    let cnf = CnfGrammar::from_grammar(&appendix_a_grammar(n));
    let index = CykRuleIndex::new(&cnf);
    let accepted = (0..1u64 << (2 * n))
        .filter(|&w| {
            let word = cnf
                .encode(&words::to_string(n, w))
                .expect("appendix A grammar covers {a, b}");
            CykChart::build_with_index(&cnf, &index, &word).accepted()
        })
        .count() as u64;
    let ln = wordset::ln_bitmap(n);
    assert_eq!(accepted, ln.count(), "CYK vs L_n bitmap at n = {n}");
    assert_eq!(
        Some(accepted),
        words::ln_size(n).to_u64(),
        "CYK vs closed-form |L_n| at n = {n}"
    );
    // A second bitmap request must come from the process-wide cache.
    assert!(std::sync::Arc::ptr_eq(&ln, &wordset::ln_bitmap(n)));
}

fn csv_row(n: usize, row: &SeparationRow) -> String {
    format!(
        "{},{:.3},{},{},{},{},{:.3},{}",
        n,
        row.language_size.log2_approx(),
        row.cfg_size,
        row.nfa_pattern_transitions,
        row.nfa_exact_transitions
            .map_or(CSV_NA.to_string(), |v| v.to_string()),
        row.ucfg_dawg_size
            .map_or(CSV_NA.to_string(), |v| v.to_string()),
        row.ucfg_example4_size.log2_approx(),
        row.ucfg_lower_bound_log2
            .map_or(CSV_NA.to_string(), |v| format!("{v:.3}")),
    )
}

/// Render the full sweep CSV (header + one row per scheduled `n`).
///
/// Rows are computed on up to `threads` workers of the deterministic
/// parallel map but always emitted in schedule order, and
/// `separation_row` itself is deterministic, so the output is
/// byte-identical for every `threads >= 1`.
pub fn sweep_csv(max_n: usize, threads: usize) -> String {
    let schedule = sweep_schedule(max_n);
    let rows = par::par_map_threads(&schedule, threads.max(1), |&n| {
        obs::count!("sweep.rows");
        let _t = obs::span!("sweep.row");
        self_check_row(n);
        csv_row(n, &separation_row(n, 24, 9))
    });
    let mut csv = String::with_capacity(64 * (rows.len() + 1));
    csv.push_str(CSV_HEADER);
    csv.push('\n');
    for row in rows {
        csv.push_str(&row);
        csv.push('\n');
    }
    csv
}

/// Header of the bitmap-kernel sweep CSV (without trailing newline).
///
/// Unlike [`CSV_HEADER`]'s closed-form columns, every cell here is the
/// output of an exhaustive popcount kernel on [`ucfg_core::wordset`]
/// bitmaps, so the CSV doubles as an end-to-end determinism witness: the
/// CI job byte-compares it across `UCFG_THREADS` settings. Fields above a
/// kernel's size threshold render as [`CSV_NA`].
pub const KERNEL_CSV_HEADER: &str =
    "n,cover_rects,covers_exactly,max_overlap,histogram_buckets,full_family_discrepancy,exact_max_discrepancy,rank_gf2";

/// The `n` values visited by a kernel sweep up to `max_n`: the family `𝓛`
/// needs `n ≡ 0 (mod 4)`, so the schedule is exactly the multiples of 4.
pub fn kernel_sweep_schedule(max_n: usize) -> Vec<usize> {
    (1..).map(|k| 4 * k).take_while(|&n| n <= max_n).collect()
}

fn kernel_csv_row(n: usize) -> String {
    use ucfg_core::cover::{overlap_histogram_threads, verify_cover_threads};
    use ucfg_core::discrepancy::{
        discrepancy_threads, exact_max_discrepancy_threads, family_side_patterns,
    };
    use ucfg_core::partition::OrderedPartition;
    use ucfg_core::rank::rank_gf2_threads;
    use ucfg_core::rectangle::SetRectangle;

    let na = || CSV_NA.to_string();
    // The 2^{2n}-domain kernels (cover verification, histogram) and the
    // 2^n × 2^n rank matrix are exhaustive: keep them to n ≤ 10. The
    // discrepancy kernels live in the 2^n family-rank domain and scale to
    // every scheduled n. Inner kernels run serially — the rows themselves
    // are the parallel unit ([`kernel_sweep_csv`]).
    let (cover_rects, covers_exactly, max_overlap, histogram_buckets) = if n <= 10 {
        let rects = ucfg_core::cover::example8_cover(n);
        let report = verify_cover_threads(n, &rects, 1);
        let hist = overlap_histogram_threads(n, &rects, 1);
        (
            report.size.to_string(),
            report.covers_exactly.to_string(),
            report.max_overlap.to_string(),
            hist.len().to_string(),
        )
    } else {
        (na(), na(), na(), na())
    };
    let part = OrderedPartition::new(n, 1, n);
    let full_family_discrepancy = if n <= 20 {
        let (s_all, t_all) = family_side_patterns(n, part);
        let full = SetRectangle::new(
            part,
            s_all.into_iter().collect(),
            t_all.into_iter().collect(),
        );
        discrepancy_threads(n, &full, 1).to_string()
    } else {
        na()
    };
    // Above n = 8 the [1, n] cut has 2^{n/2} > 26 T-patterns, so the exact
    // scan is infeasible (`None`); don't even enumerate the side patterns.
    let exact_max = if n <= 12 {
        exact_max_discrepancy_threads(n, part, 1).map_or_else(na, |v| v.to_string())
    } else {
        na()
    };
    let rank = if n <= 10 {
        rank_gf2_threads(n, 1).to_string()
    } else {
        na()
    };
    format!(
        "{n},{cover_rects},{covers_exactly},{max_overlap},{histogram_buckets},{full_family_discrepancy},{exact_max},{rank}"
    )
}

/// Render the bitmap-kernel sweep CSV (header + one row per scheduled
/// `n`). Rows are computed on up to `threads` workers but emitted in
/// schedule order, and every kernel is bit-identical across worker
/// counts, so the output is byte-identical for every `threads >= 1` —
/// the property the CI determinism job asserts.
pub fn kernel_sweep_csv(max_n: usize, threads: usize) -> String {
    let schedule = kernel_sweep_schedule(max_n);
    let rows = par::par_map_threads(&schedule, threads.max(1), |&n| {
        obs::count!("sweep.kernel_rows");
        let _t = obs::span!("sweep.kernel_row");
        kernel_csv_row(n)
    });
    let mut csv = String::with_capacity(64 * (rows.len() + 1));
    csv.push_str(KERNEL_CSV_HEADER);
    csv.push('\n');
    for row in rows {
        csv.push_str(&row);
        csv.push('\n');
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_dense_then_strided() {
        assert_eq!(sweep_schedule(16), vec![2, 4, 6, 8, 10, 12, 14, 16]);
        assert_eq!(sweep_schedule(1), Vec::<usize>::new());
        let s = sweep_schedule(256);
        assert_eq!(s.last(), Some(&256));
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn schedule_always_ends_at_the_requested_endpoint() {
        // The regression: strides used to skip the endpoint entirely
        // (sweep_schedule(100) ended at 64, sweep_schedule(20) at 16).
        assert_eq!(
            sweep_schedule(100),
            vec![2, 4, 6, 8, 10, 12, 14, 16, 24, 32, 40, 48, 56, 64, 100]
        );
        assert_eq!(sweep_schedule(20), vec![2, 4, 6, 8, 10, 12, 14, 16, 20]);
        assert_eq!(sweep_schedule(2), vec![2]);
        assert_eq!(sweep_schedule(3), vec![2, 3]);
        for max_n in 2..=300usize {
            let s = sweep_schedule(max_n);
            assert_eq!(s.last(), Some(&max_n), "endpoint for max_n={max_n}");
            assert!(
                s.windows(2).all(|w| w[0] < w[1]),
                "strictly increasing, no duplicate endpoint (max_n={max_n})"
            );
        }
    }

    #[test]
    fn csv_is_byte_identical_across_thread_counts() {
        // max_n = 13 is off-stride, so this schedule exercises the
        // appended endpoint: 2, 4, 6, 8, 10, 12, 13.
        let single = sweep_csv(13, 1);
        for threads in [2, 3, 8] {
            assert_eq!(single, sweep_csv(13, threads), "threads = {threads}");
        }
        assert_eq!(single.lines().next(), Some(CSV_HEADER));
        assert_eq!(single.lines().count(), 1 + sweep_schedule(13).len());
        let last = single.lines().last().unwrap();
        assert!(last.starts_with("13,"), "endpoint row present: {last}");
    }

    #[test]
    fn kernel_schedule_is_the_multiples_of_four() {
        assert_eq!(kernel_sweep_schedule(3), Vec::<usize>::new());
        assert_eq!(kernel_sweep_schedule(4), vec![4]);
        assert_eq!(kernel_sweep_schedule(17), vec![4, 8, 12, 16]);
    }

    #[test]
    fn kernel_csv_is_byte_identical_across_thread_counts() {
        let single = kernel_sweep_csv(12, 1);
        for threads in [2, 3, 8] {
            assert_eq!(single, kernel_sweep_csv(12, threads), "threads = {threads}");
        }
        assert_eq!(single.lines().next(), Some(KERNEL_CSV_HEADER));
        assert_eq!(single.lines().count(), 1 + kernel_sweep_schedule(12).len());
    }

    #[test]
    fn kernel_csv_rows_match_the_kernels() {
        let csv = kernel_sweep_csv(8, 2);
        let columns = KERNEL_CSV_HEADER.split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), columns, "row {line:?}");
        }
        // n = 4: Example 8's 4 rectangles cover exactly, |A| − |B| over 𝓛
        // is −2^{3m} = −8, and the [1, 4] cut is exactly scannable.
        let row4: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row4[0], "4");
        assert_eq!(row4[1], "4");
        assert_eq!(row4[2], "true");
        assert_eq!(row4[5], "-8");
        let part = ucfg_core::partition::OrderedPartition::new(4, 1, 4);
        let exact = ucfg_core::discrepancy::exact_max_discrepancy_threads(4, part, 1).unwrap();
        assert_eq!(row4[6], exact.to_string());
        assert_eq!(row4[7], ucfg_core::rank::rank_gf2_threads(4, 1).to_string());
        // n = 8 keeps every column concrete too (all kernels feasible).
        let row8 = csv.lines().nth(2).unwrap();
        assert!(!row8.contains(CSV_NA), "no NA at n = 8: {row8:?}");
    }

    #[test]
    fn absent_fields_render_as_na_with_full_column_count() {
        let csv = sweep_csv(13, 1);
        let columns = CSV_HEADER.split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), columns, "row {line:?}");
            assert!(
                line.split(',').all(|cell| !cell.is_empty()),
                "no empty cells: {line:?}"
            );
        }
        // n = 13 is above the DAWG threshold (9) and not ≡ 0 mod 4, so its
        // row carries NA cells.
        let last = csv.lines().last().unwrap();
        assert!(last.contains(",NA"), "NA sentinel in {last:?}");
    }
}
