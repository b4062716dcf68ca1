//! Scalar-vs-bitmap kernel benches for the popcount word-set layer. Each
//! group times the retained `*_scalar` reference (per-word membership
//! probes over `2^{2n}` words or per-member rescans of `𝓛`) against the
//! same kernel on [`ucfg_core::wordset`] bitmaps, so the emitted
//! `out/BENCH_wordset_kernels.json` records the speedup side by side —
//! the source of the table in EXPERIMENTS.md.
//!
//! The `gray_scan` group is the acceptance scan: a full `2^26`-subset
//! Gray-code walk (the raised `EXACT_MAX_T_PATTERNS` cap) over a synthetic
//! score matrix, which no real partition at a benchable `n` reaches.

use std::hint::black_box;
use ucfg_core::cover::{
    cover_bitmaps_threads, discrepancy_accounting_fold, discrepancy_accounting_scalar,
    discrepancy_accounting_threads, discrepancy_bitmaps_threads, example8_cover,
    overlap_histogram_scalar, overlap_histogram_threads, verify_cover_fold,
    verify_cover_scalar_threads, verify_cover_threads,
};
use ucfg_core::discrepancy::{
    discrepancy_scalar, discrepancy_threads, exact_max_discrepancy_scalar_threads,
    exact_max_discrepancy_threads, gray_subset_max_threads, random_family_rectangle,
    EXACT_MAX_T_PATTERNS,
};
use ucfg_core::partition::OrderedPartition;
use ucfg_core::rank::{rank_gf2_scalar_threads, rank_gf2_threads};
use ucfg_support::bench::{Options, Suite};
use ucfg_support::par;
use ucfg_support::rng::{SeedableRng, StdRng};

/// Worker count for the parallel Gray-scan id: at least 2 so the chunked
/// path is exercised even where `thread_count()` is 1.
fn par_threads() -> usize {
    par::thread_count().max(2)
}

fn bench_verify_cover(suite: &mut Suite) {
    let mut g = suite.group("verify_cover");
    for n in [8usize, 10] {
        let rects = example8_cover(n);
        g.bench(&format!("scalar/{n}"), || {
            verify_cover_scalar_threads(black_box(n), &rects, 1).covers_exactly
        });
        g.bench(&format!("bitmap/{n}"), || {
            verify_cover_threads(black_box(n), &rects, 1).covers_exactly
        });
    }
    // The fold alone over prebuilt bitmaps: what a daemon request costs
    // once the family's bitmaps are cached.
    let n = 10usize;
    let rects = example8_cover(n);
    let bitmaps = cover_bitmaps_threads(n, &rects, 1);
    g.bench(&format!("fold/{n}"), || {
        verify_cover_fold(black_box(n), &rects, &bitmaps).covers_exactly
    });
}

fn bench_discrepancy(suite: &mut Suite) {
    use ucfg_core::discrepancy::family_side_patterns;
    use ucfg_core::rectangle::SetRectangle;
    let mut g = suite.group("discrepancy");
    // 𝓛 needs n ≡ 0 (mod 4); 12 and 16 bracket the issue's n = 10 target.
    for n in [12usize, 16] {
        let part = OrderedPartition::new(n, 1, n);
        // Headline: a sparse rectangle (every 4th side pattern), the shape
        // extracted covers actually produce. The scalar kernel rescans all
        // 2^n of 𝓛 regardless; the bitmap build is output-sensitive in
        // |S|·|T|, which is where the win comes from.
        let (s_all, t_all) = family_side_patterns(n, part);
        let sparse = SetRectangle::new(
            part,
            s_all.iter().copied().step_by(4).collect(),
            t_all.iter().copied().step_by(4).collect(),
        );
        g.bench(&format!("scalar/{n}"), || {
            discrepancy_scalar(black_box(n), &sparse)
        });
        g.bench(&format!("bitmap/{n}"), || {
            discrepancy_threads(black_box(n), &sparse, 1)
        });
        // Worst case for the bitmap path: a dense random rectangle whose
        // |S|·|T| is the same order as |𝓛| itself.
        let mut rng = StdRng::seed_from_u64(1);
        let dense = random_family_rectangle(n, part, &mut rng);
        g.bench(&format!("scalar_dense/{n}"), || {
            discrepancy_scalar(black_box(n), &dense)
        });
        g.bench(&format!("bitmap_dense/{n}"), || {
            discrepancy_threads(black_box(n), &dense, 1)
        });
    }
}

fn bench_histogram_and_accounting(suite: &mut Suite) {
    let n = 8usize;
    let mut rng = StdRng::seed_from_u64(2);
    let mut rects = example8_cover(n);
    let part = OrderedPartition::new(n, 1, n);
    rects.push(random_family_rectangle(n, part, &mut rng));
    let mut g = suite.group("overlap_histogram");
    g.bench(&format!("scalar/{n}"), || {
        overlap_histogram_scalar(black_box(n), &rects).len()
    });
    g.bench(&format!("bitmap/{n}"), || {
        overlap_histogram_threads(black_box(n), &rects, 1).len()
    });
    drop(g);
    // Accounting at n = 12: with only 2^8 family members the per-rectangle
    // bitmap setup dominates at n = 8, so bench where the scan is hot.
    let n = 12usize;
    let mut rects = example8_cover(n);
    let part = OrderedPartition::new(n, 1, n);
    rects.push(random_family_rectangle(n, part, &mut rng));
    let mut g = suite.group("discrepancy_accounting");
    g.bench(&format!("scalar/{n}"), || {
        discrepancy_accounting_scalar(black_box(n), &rects).0.len()
    });
    g.bench(&format!("bitmap/{n}"), || {
        discrepancy_accounting_threads(black_box(n), &rects, 1)
            .0
            .len()
    });
    let bitmaps = discrepancy_bitmaps_threads(n, &rects, 1);
    g.bench(&format!("fold/{n}"), || {
        discrepancy_accounting_fold(black_box(n), &bitmaps).0.len()
    });
}

fn bench_exact_max(suite: &mut Suite) {
    let mut g = suite.group("exact_max_discrepancy");
    // n = 4 is every-partition territory; n = 8's [1, n] cut has 16
    // T-patterns, a 2^16-subset scan where the O(rows)-per-step Gray walk
    // pulls away from the O(rows·|T|) rescan.
    for n in [4usize, 8] {
        let part = OrderedPartition::new(n, 1, n);
        g.bench(&format!("scalar_rescan/{n}"), || {
            exact_max_discrepancy_scalar_threads(black_box(n), part, 1)
        });
        g.bench(&format!("gray/{n}"), || {
            exact_max_discrepancy_threads(black_box(n), part, 1)
        });
    }
}

fn bench_gray_scan_full_cap(suite: &mut Suite) {
    // The acceptance scan: all 2^26 T-subsets at the raised cap, over a
    // synthetic 8-row score matrix (real partitions only reach pattern
    // counts that are products of {2,3,4}, so 26 never occurs in nature).
    let t = par_threads();
    let (rows, cols) = (8usize, EXACT_MAX_T_PATTERNS);
    let f: Vec<i64> = (0..rows * cols)
        .map(|k| ((k * 2654435761) % 7) as i64 - 3)
        .collect();
    let mut g = suite.group("gray_scan_2pow26");
    g.bench(&format!("serial/{rows}x{cols}"), || {
        gray_subset_max_threads(black_box(&f), rows, cols, 1)
    });
    g.bench(&format!("par{t}/{rows}x{cols}"), || {
        gray_subset_max_threads(black_box(&f), rows, cols, t)
    });
}

fn bench_chunked(suite: &mut Suite) {
    use ucfg_core::cover::cover_scan_threads;
    use ucfg_core::wordset::chunked::{cover_scan_chunked_threads, logical_word_domain, ChunkPlan};
    // The streamed path against the in-memory pass on the same input, at
    // an n where both run: the delta is the price of chunking (extra
    // `L_n` rebuild per chunk, no cached bitmap), paid to go past the cap.
    let t = par_threads();
    let mut g = suite.group("chunked");
    for n in [10usize, 12] {
        let rects = example8_cover(n);
        g.bench(&format!("in_memory/{n}"), || {
            cover_scan_threads(black_box(n), &rects, 1).union_count
        });
        for chunk_log2 in [16u32, 20] {
            let plan = ChunkPlan::with_chunk_bits(logical_word_domain(n), 1 << chunk_log2);
            g.bench(&format!("chunk_2pow{chunk_log2}/{n}"), || {
                cover_scan_chunked_threads(black_box(n), &rects, 1, &plan).union_count
            });
            g.bench(&format!("chunk_2pow{chunk_log2}_par{t}/{n}"), || {
                cover_scan_chunked_threads(black_box(n), &rects, t, &plan).union_count
            });
        }
    }
}

fn bench_rank(suite: &mut Suite) {
    let mut g = suite.group("rank_gf2");
    let n = 10usize;
    g.bench(&format!("scalar/{n}"), || {
        rank_gf2_scalar_threads(black_box(n), 1)
    });
    g.bench(&format!("subset_enum/{n}"), || {
        rank_gf2_threads(black_box(n), 1)
    });
}

/// Build and execute the suite; the caller decides what to do with the
/// finished records (write them via [`Suite::finish`], or read them).
pub(super) fn build(opts: Options) -> Suite {
    let mut suite = Suite::with_options("wordset_kernels", opts);
    bench_verify_cover(&mut suite);
    bench_discrepancy(&mut suite);
    bench_histogram_and_accounting(&mut suite);
    bench_exact_max(&mut suite);
    bench_gray_scan_full_cap(&mut suite);
    bench_chunked(&mut suite);
    bench_rank(&mut suite);
    suite
}
