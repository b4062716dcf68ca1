//! Rectangle covers of `L_n`: verification and end-to-end certification.
//!
//! Ties the pieces together: Example 8's ambiguous cover of size `n`, the
//! Proposition 7 extraction from real grammars, and the Proposition 16
//! accounting `gap = Σ_i (|A∩R_i| − |B∩R_i|) ≤ ℓ · max-discrepancy` that
//! yields the lower bound.

use crate::discrepancy;
use crate::extract::ExtractionResult;
use crate::rectangle::{example8_rectangle, SetRectangle};
use crate::words::{enumerate_ln, ln_contains, Word};
use crate::wordset::chunked::{self, CoverScan, WordSetSource};
use crate::wordset::{self, OverlapCounter, WordSet};
use ucfg_support::{obs, par};

/// Outcome of verifying a family of rectangles against `L_n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverReport {
    /// Number of rectangles.
    pub size: usize,
    /// Every member of every rectangle is in `L_n` and every word of `L_n`
    /// is in some rectangle.
    pub covers_exactly: bool,
    /// No word lies in two rectangles.
    pub disjoint: bool,
    /// All rectangles balanced (Definition 13/5).
    pub all_balanced: bool,
    /// Maximum number of rectangles containing a single word.
    pub max_overlap: usize,
}

/// Verify a family of set rectangles against `L_n`.
///
/// Bitmap kernel, in two halves: [`cover_bitmaps_threads`] builds each
/// rectangle's bitmap in `O(|S|·|T|)` ([`SetRectangle::to_wordset`]), and
/// [`verify_cover_fold`] counts them bit-sliced, tile by tile, which
/// yields coverage (union equals the cached `L_n` bitmap), disjointness
/// and the maximum overlap in one pass of word-level popcount algebra —
/// no per-word `BTreeSet` probes. A caller that verifies the same family
/// repeatedly (the daemon) keeps the bitmaps and runs only the fold. The
/// old scan survives as [`verify_cover_scalar`], the differential
/// reference of the property tests.
pub fn verify_cover(n: usize, rects: &[SetRectangle]) -> CoverReport {
    verify_cover_threads(n, rects, par::thread_count())
}

/// [`verify_cover`] with an explicit worker count (`threads = 1` is the
/// serial reference path), routed through [`WordSetSource`] like
/// [`cover_scan_threads`]. In memory the rectangle bitmaps are built on
/// the deterministic parallel map and folded in rectangle order, so the
/// report is bit-identical for every thread count.
pub fn verify_cover_threads(n: usize, rects: &[SetRectangle], threads: usize) -> CoverReport {
    match WordSetSource::for_word_domain(n) {
        WordSetSource::Chunked(plan) => cover_scan_chunked(n, rects, threads, &plan).into_report(),
        WordSetSource::InMemory { .. } => {
            verify_cover_fold(n, rects, &cover_bitmaps_threads(n, rects, threads))
        }
    }
}

/// The build half of [`verify_cover`]: every rectangle's word-domain
/// bitmap, in rectangle order, built on the deterministic parallel map
/// (bit-identical for every `threads ≥ 1`). Always materialised: the
/// caller keeps `n` within the [`wordset::MAX_DOMAIN_BITS`] cap.
pub fn cover_bitmaps_threads(n: usize, rects: &[SetRectangle], threads: usize) -> Vec<WordSet> {
    let _t = obs::span!("cover.bitmaps");
    par::par_map_threads(rects, threads, |r| r.to_wordset(n))
}

/// The fold half of [`verify_cover`]: a serial pass over the bitmaps of
/// [`cover_bitmaps_threads`] that computes the [`CoverReport`] facts and
/// nothing else — the maximum overlap and whether the union is `L_n`,
/// from one tiled bit-sliced count with no domain-sized temporary.
pub fn verify_cover_fold(n: usize, rects: &[SetRectangle], bitmaps: &[WordSet]) -> CoverReport {
    assert_eq!(rects.len(), bitmaps.len(), "one bitmap per rectangle");
    obs::count!("cover.verify.calls");
    obs::count!("cover.verify.rects", rects.len() as u64);
    let _t = obs::span!("cover.verify");
    let (max_overlap, covers_exactly) = wordset::overlap_fold(bitmaps, &wordset::ln_bitmap(n));
    CoverReport {
        size: rects.len(),
        covers_exactly,
        disjoint: max_overlap <= 1,
        all_balanced: rects.iter().all(SetRectangle::is_balanced),
        max_overlap,
    }
}

impl CoverScan {
    /// Collapse the scan aggregates into the classic [`CoverReport`].
    pub fn into_report(self) -> CoverReport {
        CoverReport {
            size: self.size,
            covers_exactly: self.covers_exactly,
            disjoint: self.max_overlap <= 1,
            all_balanced: self.all_balanced,
            max_overlap: self.max_overlap,
        }
    }
}

/// The full cover-verification scan — the [`CoverReport`] facts plus the
/// union / `L_n` counts and order-invariant digests the differential
/// suite and the CI chunked-determinism job byte-compare.
pub fn cover_scan(n: usize, rects: &[SetRectangle]) -> CoverScan {
    cover_scan_threads(n, rects, par::thread_count())
}

/// [`cover_scan`] with an explicit worker count, routed through
/// [`WordSetSource`]: in-memory below the materialisation cap (the
/// build + fold of [`verify_cover`], plus the union for the digests),
/// chunked above it or when `UCFG_WORDSET_CHUNK` forces the streamed
/// path. Both paths fold the same per-word facts with order-free merges,
/// so the scan is bit-identical across thread counts, chunk sizes, and
/// the two routes.
pub fn cover_scan_threads(n: usize, rects: &[SetRectangle], threads: usize) -> CoverScan {
    match WordSetSource::for_word_domain(n) {
        WordSetSource::Chunked(plan) => cover_scan_chunked(n, rects, threads, &plan),
        WordSetSource::InMemory { .. } => {
            let bitmaps = cover_bitmaps_threads(n, rects, threads);
            let report = verify_cover_fold(n, rects, &bitmaps);
            let mut union = WordSet::empty_words(n);
            for bm in &bitmaps {
                union.union_with(bm);
            }
            let ln = wordset::ln_bitmap(n);
            CoverScan {
                size: report.size,
                covers_exactly: report.covers_exactly,
                all_balanced: report.all_balanced,
                max_overlap: report.max_overlap,
                union_count: union.count(),
                union_digest: chunked::set_digest(&union),
                ln_count: ln.count(),
                ln_digest: chunked::set_digest(&ln),
            }
        }
    }
}

/// The streamed route of [`verify_cover_threads`] and
/// [`cover_scan_threads`], counted like the in-memory fold.
fn cover_scan_chunked(
    n: usize,
    rects: &[SetRectangle],
    threads: usize,
    plan: &chunked::ChunkPlan,
) -> CoverScan {
    obs::count!("cover.verify.calls");
    obs::count!("cover.verify.rects", rects.len() as u64);
    let _t = obs::span!("cover.verify");
    chunked::cover_scan_chunked_threads(n, rects, threads, plan)
}

/// The scalar reference for [`verify_cover`]: per-word membership probes
/// over the whole `2^{2n}` domain.
pub fn verify_cover_scalar(n: usize, rects: &[SetRectangle]) -> CoverReport {
    verify_cover_scalar_threads(n, rects, par::thread_count())
}

/// [`verify_cover_scalar`] with an explicit worker count; per-chunk
/// partials (an all-AND and a max) merge in fixed chunk order, so the
/// report is bit-identical to the serial scan for every thread count.
pub fn verify_cover_scalar_threads(
    n: usize,
    rects: &[SetRectangle],
    threads: usize,
) -> CoverReport {
    assert!(2 * n <= 26, "exhaustive verification is 2^{{2n}}");
    let partials = par::map_ranges_threads(0..(1u64 << (2 * n)), threads, |range| {
        let mut covers_exactly = true;
        let mut max_overlap = 0usize;
        for w in range {
            let hits = rects.iter().filter(|r| r.contains(w as Word)).count();
            if (hits > 0) != ln_contains(n, w) {
                covers_exactly = false;
            }
            max_overlap = max_overlap.max(hits);
        }
        (covers_exactly, max_overlap)
    });
    let covers_exactly = partials.iter().all(|&(ok, _)| ok);
    let max_overlap = partials.iter().map(|&(_, m)| m).max().unwrap_or(0);
    CoverReport {
        size: rects.len(),
        covers_exactly,
        disjoint: max_overlap <= 1,
        all_balanced: rects.iter().all(SetRectangle::is_balanced),
        max_overlap,
    }
}

/// Example 8: the non-disjoint cover of `L_n` by `n` balanced rectangles.
pub fn example8_cover(n: usize) -> Vec<SetRectangle> {
    (0..n)
        .map(|k| example8_rectangle(n, k).to_set_rectangle(n))
        .collect()
}

/// Convert an extraction result over `{a,b}^{2n}` into set rectangles.
pub fn extraction_to_set_rectangles(n: usize, res: &ExtractionResult) -> Vec<SetRectangle> {
    res.rectangles
        .iter()
        .map(|r| r.rectangle.to_set_rectangle(n))
        .collect()
}

/// The Proposition 16 accounting for a *disjoint* cover: the per-rectangle
/// signed discrepancies must sum to the global gap
/// `|A ∩ L_n| − |B ∩ L_n| = 12^m − 8^m`. Returns the vector of signed
/// discrepancies and whether the identity holds.
pub fn discrepancy_accounting(n: usize, rects: &[SetRectangle]) -> (Vec<i64>, bool) {
    discrepancy_accounting_threads(n, rects, par::thread_count())
}

/// [`discrepancy_accounting`] with an explicit worker count, in two
/// halves like [`verify_cover_threads`]: [`discrepancy_bitmaps_threads`]
/// builds the rectangles' family-rank bitmaps on the deterministic
/// parallel map and [`discrepancy_accounting_fold`] takes two popcounts
/// per rectangle against the cached `A`. Results stay in rectangle
/// order, so the vector is bit-identical for every thread count. Past
/// the cap (or under `UCFG_WORDSET_CHUNK`) each rectangle's discrepancy
/// is streamed instead ([`discrepancy::discrepancy_threads`]).
pub fn discrepancy_accounting_threads(
    n: usize,
    rects: &[SetRectangle],
    threads: usize,
) -> (Vec<i64>, bool) {
    assert!(discrepancy::supports_blocks(n));
    if WordSetSource::for_family_domain(n).is_chunked() {
        let discs: Vec<i64> = par::par_map_threads(rects, threads, |r| {
            discrepancy::discrepancy_threads(n, r, 1)
        });
        let sums = sums_to_gap(n, &discs);
        return (discs, sums);
    }
    discrepancy_accounting_fold(n, &discrepancy_bitmaps_threads(n, rects, threads))
}

/// The build half of [`discrepancy_accounting`]: every rectangle's
/// family-rank bitmap ([`wordset::family_rectangle_bitmap_threads`], one
/// worker each), in rectangle order, built on the deterministic parallel
/// map. Always materialised: the caller keeps `n` within the
/// [`wordset::MAX_DOMAIN_BITS`] cap.
pub fn discrepancy_bitmaps_threads(
    n: usize,
    rects: &[SetRectangle],
    threads: usize,
) -> Vec<WordSet> {
    assert!(discrepancy::supports_blocks(n));
    let _t = obs::span!("discrepancy.bitmaps");
    par::par_map_threads(rects, threads, |r| {
        wordset::family_rectangle_bitmap_threads(n, r, 1)
    })
}

/// The fold half of [`discrepancy_accounting`]: the signed discrepancy
/// `|R ∩ A| − |R ∩ B|` of each bitmap of [`discrepancy_bitmaps_threads`]
/// (two popcounts against the cached `A`), and whether they sum to the
/// gap.
pub fn discrepancy_accounting_fold(n: usize, bitmaps: &[WordSet]) -> (Vec<i64>, bool) {
    assert!(discrepancy::supports_blocks(n));
    obs::count!("discrepancy.calls", bitmaps.len() as u64);
    let _t = obs::span!("discrepancy.accounting");
    let a = wordset::family_a_bitmap(n);
    let discs: Vec<i64> = bitmaps
        .iter()
        .map(|rect| discrepancy::signed_count(rect, &a))
        .collect();
    let sums = sums_to_gap(n, &discs);
    (discs, sums)
}

/// Do the per-rectangle discrepancies sum to `|A ∩ L_n| − |B ∩ L_n| =
/// 12^m − 8^m`?
fn sums_to_gap(n: usize, discs: &[i64]) -> bool {
    let m = (n / 4) as u64;
    let expect = discrepancy::gap(m).to_u64().expect("small n") as i64;
    discs.iter().sum::<i64>() == expect
}

/// The scalar reference for [`discrepancy_accounting`]: per-rectangle
/// exhaustive `2^n` family scans ([`discrepancy::discrepancy_scalar`]).
pub fn discrepancy_accounting_scalar(n: usize, rects: &[SetRectangle]) -> (Vec<i64>, bool) {
    assert!(discrepancy::supports_blocks(n));
    let discs: Vec<i64> = rects
        .iter()
        .map(|r| discrepancy::discrepancy_scalar_threads(n, r, 1))
        .collect();
    let sums = sums_to_gap(n, &discs);
    (discs, sums)
}

/// The lower bound implied by the accounting: a disjoint cover needs at
/// least `gap / max_i |disc_i|` rectangles — with the Lemma 23 bound
/// substituted this is Proposition 16's `2^{Ω(n)}`. Returns
/// `ceil(gap / max|disc|)` for the given cover (a consistency check: the
/// actual cover size must be ≥ this).
pub fn implied_size_bound(n: usize, rects: &[SetRectangle]) -> usize {
    let (discs, _) = discrepancy_accounting(n, rects);
    let max_abs = discs
        .iter()
        .map(|d| d.unsigned_abs())
        .max()
        .unwrap_or(1)
        .max(1);
    let m = (n / 4) as u64;
    let g = discrepancy::gap(m).to_u64().expect("small n");
    g.div_ceil(max_abs) as usize
}

/// Count the words of `L_n` covered exactly once / more than once — the
/// quantitative "how non-disjoint is Example 8" figure. `hist[k]` is the
/// number of `L_n` members hit by exactly `k` rectangles; the length is
/// the maximum hit count attained on `L_n` plus one.
pub fn overlap_histogram(n: usize, rects: &[SetRectangle]) -> Vec<usize> {
    overlap_histogram_threads(n, rects, par::thread_count())
}

/// [`overlap_histogram`] with an explicit worker count.
///
/// Bitmap kernel: the rectangle bitmaps (built on the deterministic
/// parallel map) feed a bit-sliced [`OverlapCounter`]; `hist[k]` is then
/// the popcount of the exact-`k` slice intersected with the cached `L_n`
/// bitmap. Bit-identical to [`overlap_histogram_scalar`] for every
/// thread count.
pub fn overlap_histogram_threads(n: usize, rects: &[SetRectangle], threads: usize) -> Vec<usize> {
    obs::count!("cover.histogram.calls");
    let _t = obs::span!("cover.histogram");
    if let WordSetSource::Chunked(plan) = WordSetSource::for_word_domain(n) {
        return chunked::overlap_histogram_chunked_threads(n, rects, threads, &plan);
    }
    let ln = wordset::ln_bitmap(n);
    let mut counter = OverlapCounter::new(wordset::word_domain(n));
    for bm in &cover_bitmaps_threads(n, rects, threads) {
        counter.add(bm);
    }
    // The counter's maximum ranges over all words; the histogram is
    // indexed by hits over L_n members only, so trailing zero buckets
    // (attained only outside L_n) are trimmed to match the scalar shape.
    let mut hist: Vec<usize> = (0..=counter.max_count())
        .map(|k| counter.exactly_and_count(k, &ln) as usize)
        .collect();
    while hist.len() > 1 && hist.last() == Some(&0) {
        hist.pop();
    }
    hist
}

/// The scalar reference for [`overlap_histogram`]: per-member rectangle
/// probes over the enumerated `L_n`.
pub fn overlap_histogram_scalar(n: usize, rects: &[SetRectangle]) -> Vec<usize> {
    let mut hist = Vec::new();
    for w in enumerate_ln(n) {
        let hits = rects.iter().filter(|r| r.contains(w)).count();
        if hist.len() <= hits {
            hist.resize(hits + 1, 0);
        }
        hist[hits] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_cover;
    use crate::ln_grammars::example4_ucfg;
    use ucfg_grammar::normal_form::CnfGrammar;

    #[test]
    fn example8_cover_report() {
        for n in [3usize, 4, 5] {
            let rects = example8_cover(n);
            let rep = verify_cover(n, &rects);
            assert_eq!(rep.size, n);
            assert!(rep.covers_exactly, "n={n}");
            assert!(rep.all_balanced, "n={n}");
            assert!(!rep.disjoint, "Example 8 is non-disjoint (n={n})");
            assert_eq!(rep.max_overlap, n, "the all-a word hits all rectangles");
        }
    }

    #[test]
    fn ucfg_extraction_gives_disjoint_cover() {
        let n = 4; // n divisible by 4 → discrepancy accounting applies
        let g = example4_ucfg(n);
        let cnf = CnfGrammar::from_grammar(&g);
        let res = extract_cover(&cnf, 2 * n).unwrap();
        let rects = extraction_to_set_rectangles(n, &res);
        let rep = verify_cover(n, &rects);
        assert!(rep.covers_exactly);
        assert!(rep.disjoint);
        assert!(rep.all_balanced);

        // Proposition 16 accounting: discrepancies sum to the gap.
        let (_discs, ok) = discrepancy_accounting(n, &rects);
        assert!(ok, "Σ disc_i must equal 12^m − 8^m for a disjoint cover");

        // And the implied bound is honoured by the actual size.
        let bound = implied_size_bound(n, &rects);
        assert!(
            rep.size >= bound,
            "cover of size {} below implied bound {bound}",
            rep.size
        );
    }

    #[test]
    fn overlap_histogram_example8() {
        let n = 4;
        let hist = overlap_histogram(n, &example8_cover(n));
        // hist[0] must be 0 (we only scan L_n members), and some words are
        // covered more than once.
        assert_eq!(hist.first().copied().unwrap_or(0), 0);
        assert!(hist.len() > 2, "some words covered ≥ 2 times: {hist:?}");
        let total: usize = hist.iter().sum();
        assert_eq!(total as u64, crate::words::ln_size(n).to_u64().unwrap());
    }

    #[test]
    fn accounting_fails_for_non_disjoint_cover() {
        // For a non-disjoint cover the sum counts each word once per
        // rectangle: Σ_i disc(R_i) = Σ_{w ∈ 𝓛} hits(w)·sign(w), which
        // differs from the gap as soon as some member has ≥ 2 witnesses.
        // (At n = 4, i.e. m = 1, every 𝓛-member has ≤ 1 witness and the
        // two sums coincide — use n = 8.)
        let n = 8;
        let rects = example8_cover(n);
        let (discs, ok) = discrepancy_accounting(n, &rects);
        assert_eq!(discs.len(), n);
        assert!(!ok, "over-counting expected for overlapping rectangles");

        // The m = 1 coincidence, for the record.
        let (_d4, ok4) = discrepancy_accounting(4, &example8_cover(4));
        assert!(ok4);
    }

    #[test]
    fn parallel_verify_cover_is_bit_identical() {
        for n in [4usize, 8] {
            let rects = example8_cover(n);
            let serial = verify_cover_threads(n, &rects, 1);
            for threads in [2usize, 8] {
                assert_eq!(
                    serial,
                    verify_cover_threads(n, &rects, threads),
                    "n={n} threads={threads}"
                );
            }
            assert_eq!(serial, verify_cover(n, &rects), "n={n} default threads");
        }
    }

    #[test]
    fn verify_cover_detects_missing_words() {
        let n = 3;
        let mut rects = example8_cover(n);
        rects.pop(); // drop one slice → words with only the last witness are lost
        let rep = verify_cover(n, &rects);
        assert!(!rep.covers_exactly);
        assert_eq!(rep, verify_cover_scalar(n, &rects));
    }

    #[test]
    fn bitmap_cover_kernels_match_scalar_references() {
        for n in [3usize, 4, 5] {
            let mut rects = example8_cover(n);
            assert_eq!(
                verify_cover(n, &rects),
                verify_cover_scalar(n, &rects),
                "full cover, n={n}"
            );
            assert_eq!(
                overlap_histogram(n, &rects),
                overlap_histogram_scalar(n, &rects),
                "full cover histogram, n={n}"
            );
            rects.pop();
            assert_eq!(
                verify_cover(n, &rects),
                verify_cover_scalar(n, &rects),
                "partial cover, n={n}"
            );
            assert_eq!(
                overlap_histogram(n, &rects),
                overlap_histogram_scalar(n, &rects),
                "partial cover histogram, n={n}"
            );
        }
        // The empty family: nothing covered, histogram collapses to the
        // single zero-hits bucket.
        let rep = verify_cover(3, &[]);
        assert_eq!(rep, verify_cover_scalar(3, &[]));
        assert!(!rep.covers_exactly);
        assert_eq!(rep.max_overlap, 0);
        let hist = overlap_histogram(3, &[]);
        assert_eq!(hist, overlap_histogram_scalar(3, &[]));
        assert_eq!(
            hist,
            vec![crate::words::ln_size(3).to_u64().unwrap() as usize]
        );
    }

    #[test]
    fn parallel_histogram_and_accounting_are_bit_identical() {
        let n = 4;
        let rects = example8_cover(n);
        let hist1 = overlap_histogram_threads(n, &rects, 1);
        let (discs1, ok1) = discrepancy_accounting_threads(n, &rects, 1);
        for threads in [2usize, 8] {
            assert_eq!(
                hist1,
                overlap_histogram_threads(n, &rects, threads),
                "hist threads={threads}"
            );
            let (discs, ok) = discrepancy_accounting_threads(n, &rects, threads);
            assert_eq!((&discs1, ok1), (&discs, ok), "accounting threads={threads}");
        }
        assert_eq!(hist1, overlap_histogram(n, &rects), "hist default");
        let (discs_scalar, ok_scalar) = discrepancy_accounting_scalar(n, &rects);
        assert_eq!(
            (&discs1, ok1),
            (&discs_scalar, ok_scalar),
            "scalar accounting"
        );
    }
}
