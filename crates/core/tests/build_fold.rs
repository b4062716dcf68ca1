//! Differential tests for the split kernels: the parallel build
//! ([`cover_bitmaps_threads`], [`discrepancy_bitmaps_threads`]) followed
//! by the serial fold ([`verify_cover_fold`],
//! [`discrepancy_accounting_fold`]) must equal the scalar references
//! exactly, and the built bitmaps must be bit-identical at 1, 2 and 8
//! workers.
//!
//! Every family mixes random rectangles over random partitions with
//! three built to take each family-rank bitmap route: a block-aligned
//! cut (the aligned route), a straddling cut with every side pattern
//! (`|S|·|T| > 2^n`, the scan route) and a straddling cut with a few
//! patterns (`|S|·|T| ≤ 2^n`, the product route).

use ucfg_core::cover::{
    cover_bitmaps_threads, discrepancy_accounting_fold, discrepancy_accounting_scalar,
    discrepancy_bitmaps_threads, example8_cover, verify_cover_fold, verify_cover_scalar_threads,
    verify_cover_threads,
};
use ucfg_core::discrepancy::{family_side_patterns, random_family_rectangle, supports_blocks};
use ucfg_core::partition::OrderedPartition;
use ucfg_core::rectangle::SetRectangle;
use ucfg_support::prop::Gen;
use ucfg_support::rng::{Rng, SeedableRng, StdRng};
use ucfg_support::{prop_assert, prop_assert_eq, property};

/// Worker counts the build is pinned across.
const THREADS: [usize; 3] = [1, 2, 8];

fn random_partition(n: usize, rng: &mut StdRng) -> OrderedPartition {
    let i = rng.random_range(1..=n);
    let j = rng.random_range(i..=2 * n - 1);
    OrderedPartition::new(n, i, j)
}

/// A rectangle of random masks on each side of a random partition: any
/// `n`, not confined to the family.
fn random_word_rectangle(n: usize, rng: &mut StdRng) -> SetRectangle {
    let part = random_partition(n, rng);
    let side = |mask: u64, rng: &mut StdRng| {
        (0..rng.random_range(0..6usize))
            .map(|_| rng.random::<u64>() & mask)
            .collect()
    };
    let s = side(part.inside(), rng);
    let t = side(part.outside(), rng);
    SetRectangle::new(part, s, t)
}

/// A rectangle over a cut that straddles the 4-blocks, keeping `keep`
/// of the side patterns of `𝓛` on each side (all of them for `None`).
fn straddling_rectangle(n: usize, keep: Option<usize>, rng: &mut StdRng) -> SetRectangle {
    let part = OrderedPartition::new(n, 2, n + 1);
    let (mut s, mut t) = family_side_patterns(n, part);
    if let Some(k) = keep {
        rng.shuffle(&mut s);
        rng.shuffle(&mut t);
        s.truncate(k);
        t.truncate(k);
    }
    SetRectangle::new(part, s.into_iter().collect(), t.into_iter().collect())
}

/// A random family over the word domain of `n`; for `n ≡ 0 mod 4` it
/// holds one rectangle per family-rank bitmap route.
fn random_family(n: usize, rng: &mut StdRng) -> Vec<SetRectangle> {
    let mut rects = Vec::new();
    if rng.random_bool(0.5) {
        rects.extend(example8_cover(n));
    }
    for _ in 0..rng.random_range(0..3usize) {
        rects.push(random_word_rectangle(n, rng));
    }
    if supports_blocks(n) {
        for _ in 0..rng.random_range(0..3usize) {
            let part = random_partition(n, rng);
            rects.push(random_family_rectangle(n, part, rng));
        }
        rects.push(random_family_rectangle(
            n,
            OrderedPartition::new(n, 1, n),
            rng,
        ));
        rects.push(straddling_rectangle(n, None, rng));
        rects.push(straddling_rectangle(n, Some(2), rng));
    }
    rng.shuffle(&mut rects);
    rects
}

property! {
    cases = 32;
    fn cover_fold_of_build_matches_scalar(
        n in |g: &mut Gen| g.int_in(1usize..=8),
        seed in |g: &mut Gen| g.int_in(0u64..1 << 48),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rects = random_family(n, &mut rng);
        let reference = verify_cover_scalar_threads(n, &rects, 1);
        let serial = cover_bitmaps_threads(n, &rects, 1);
        for t in THREADS {
            let bitmaps = cover_bitmaps_threads(n, &rects, t);
            prop_assert_eq!(&serial, &bitmaps);
            prop_assert_eq!(reference.clone(), verify_cover_fold(n, &rects, &bitmaps));
            prop_assert_eq!(reference.clone(), verify_cover_threads(n, &rects, t));
        }
    }

    cases = 32;
    fn discrepancy_fold_of_build_matches_scalar(
        k in |g: &mut Gen| g.int_in(1usize..=2),
        seed in |g: &mut Gen| g.int_in(0u64..1 << 48),
    ) {
        let n = 4 * k;
        let mut rng = StdRng::seed_from_u64(seed);
        let rects = random_family(n, &mut rng);
        // The straddling rectangles really sit on either side of the
        // scan/product threshold.
        let dense = straddling_rectangle(n, None, &mut rng);
        prop_assert!(dense.s.len() * dense.t.len() > 1 << n);
        let sparse = straddling_rectangle(n, Some(2), &mut rng);
        prop_assert!(sparse.s.len() * sparse.t.len() <= 1 << n);
        let reference = discrepancy_accounting_scalar(n, &rects);
        let serial = discrepancy_bitmaps_threads(n, &rects, 1);
        for t in THREADS {
            let bitmaps = discrepancy_bitmaps_threads(n, &rects, t);
            prop_assert_eq!(&serial, &bitmaps);
            prop_assert_eq!(reference.clone(), discrepancy_accounting_fold(n, &bitmaps));
        }
    }
}

/// The folds of an empty family: nothing covered, an empty ledger.
#[test]
fn folds_of_the_empty_family() {
    for n in [4usize, 8] {
        let report = verify_cover_fold(n, &[], &[]);
        assert_eq!(report, verify_cover_scalar_threads(n, &[], 1));
        assert!(!report.covers_exactly);
        assert_eq!(report.max_overlap, 0);
        assert_eq!(
            discrepancy_accounting_fold(n, &[]),
            discrepancy_accounting_scalar(n, &[])
        );
    }
}

/// Every Example 8 rectangle contains the all-`a` word, the last word of
/// the domain; at `n = 8` it lies in the fold's second tile. Dropping
/// any one rectangle loses the words only it covers and lowers the
/// maximum overlap to `n − 1`, so every bitmap must count in every tile.
#[test]
fn every_bitmap_counts_in_every_tile() {
    let n = 8;
    let rects = example8_cover(n);
    let bitmaps = cover_bitmaps_threads(n, &rects, 1);
    let full = verify_cover_fold(n, &rects, &bitmaps);
    assert!(full.covers_exactly);
    assert_eq!(full.max_overlap, n);
    for k in 0..n {
        let (mut rs, mut bs) = (rects.clone(), bitmaps.clone());
        rs.remove(k);
        bs.remove(k);
        let report = verify_cover_fold(n, &rs, &bs);
        assert!(!report.covers_exactly, "without rectangle {k}");
        assert_eq!(report.max_overlap, n - 1, "without rectangle {k}");
    }
}
