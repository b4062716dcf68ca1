//! The discrepancy argument of Section 4.2.
//!
//! For `n = 4m`, `Z` is split into `2m` blocks of four; the family `𝓛`
//! consists of the sets picking exactly one element per block, `A ⊆ 𝓛` are
//! the members with an odd number of witnessing pairs, `B = 𝓛 \ A`.
//!
//! Quantities reproduced exactly (Lemma 18): `|𝓛| = 2^{4m}`,
//! `|B ∖ L_n| = 12^m`, `|B| − |A| = 2^{3m}`, and the gap
//! `|A ∩ L_n| − |B ∩ L_n| = 12^m − 8^m` (which exceeds `2^{7m/2}` for
//! `m ≥ 4`). Per-rectangle discrepancy `||R∩A| − |R∩B||` is computed
//! exhaustively and checked against the Lemma 19 bound `2^{3m}` (for
//! `[1, n]`-rectangles) and the Lemma 23 bound `2^{10m/3}` (for neat
//! balanced rectangles); the implied cover lower bound of
//! Proposition 16 / Theorem 17 follows.
//!
//! ```
//! use ucfg_core::discrepancy;
//!
//! // Lemma 18's identities, exactly, at any scale:
//! let m = 16;
//! assert_eq!(discrepancy::family_size(m), ucfg_grammar::BigUint::pow2(4 * m));
//! assert!(discrepancy::lemma18_inequality_holds(m)); // gap > 2^{7m/2} for m ≥ 4
//! // The Proposition 16 lower bound grows linearly in m (≈ 0.25 bits per m):
//! assert!(discrepancy::cover_lower_bound_log2(m) > 3.0);
//! ```

use crate::partition::OrderedPartition;
use crate::rectangle::SetRectangle;
use crate::words::{witness_count, Word};
use std::collections::BTreeSet;
use ucfg_grammar::bignum::{BigInt, BigUint};
use ucfg_support::obs;
use ucfg_support::rng::Rng;

/// Does `n` support the block structure (`n ≡ 0 mod 4`, `n ≥ 4`)?
pub fn supports_blocks(n: usize) -> bool {
    n >= 4 && n.is_multiple_of(4) && 2 * n <= 64
}

/// Repeating `0b0001` nibbles — the SWAR lane mask of the 4-blocks.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// Is `w` in the family `𝓛` (exactly one element per 4-block)?
///
/// Branchless SWAR: two masked adds leave each 4-bit lane holding its
/// popcount, and membership is one comparison against the all-ones lane
/// pattern — the rectangle-bitmap product route probes this once per
/// `(u, v)` pair, where the old per-block loop dominated the build.
pub fn in_family(n: usize, w: Word) -> bool {
    debug_assert!(supports_blocks(n));
    let w = w & crate::words::low_mask(2 * n);
    let pairs = (w & 0x5555_5555_5555_5555) + ((w >> 1) & 0x5555_5555_5555_5555);
    let nib = (pairs & 0x3333_3333_3333_3333) + ((pairs >> 2) & 0x3333_3333_3333_3333);
    nib == NIBBLE_ONES & crate::words::low_mask(2 * n)
}

/// Is `w ∈ A` (member of `𝓛` with an odd number of witnessing pairs)?
pub fn in_a(n: usize, w: Word) -> bool {
    in_family(n, w) && witness_count(n, w) % 2 == 1
}

/// Is `w ∈ B = 𝓛 ∖ A`?
pub fn in_b(n: usize, w: Word) -> bool {
    in_family(n, w) && witness_count(n, w).is_multiple_of(2)
}

/// Perfect rank of a family member into `[0, 2^n)`: each of the `n/2`
/// blocks holds exactly one element, and its index within the block
/// (`0..4`) contributes two bits of the rank. This bijection is what lets
/// the bitmap kernels index `𝓛` with `2^n` bits instead of the `2^{2n}`
/// word domain (see [`crate::wordset`]).
pub fn family_rank(n: usize, w: Word) -> u64 {
    debug_assert!(in_family(n, w), "rank is defined on 𝓛 only");
    rank_fold(w & crate::words::low_mask(2 * n))
}

/// The SWAR body of [`family_rank`]: branchless `trailing_zeros` per
/// one-hot nibble — for index bits `b1 b0` of each block, `b0` is set by
/// nibble values {2, 8} and `b1` by {4, 8} — then the per-nibble 2-bit
/// indices fold down to a packed rank by halving the stride. Zero nibbles
/// contribute zero bits, so the fold is also the per-*side* rank
/// contribution of an aligned partition (see [`side_rank_contrib`]).
#[inline]
fn rank_fold(w: u64) -> u64 {
    let b0 = (w >> 1 | w >> 3) & NIBBLE_ONES;
    let b1 = (w >> 2 | w >> 3) & NIBBLE_ONES;
    let y = b0 | (b1 << 1);
    let y = (y | (y >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    let y = (y | (y >> 4)) & 0x00FF_00FF_00FF_00FF;
    let y = (y | (y >> 8)) & 0x0000_FFFF_0000_FFFF;
    (y | (y >> 16)) & 0x0000_0000_FFFF_FFFF
}

/// Is `mask` a union of whole 4-blocks (no straddled nibble)? For such a
/// partition side the family membership test and the rank split cleanly
/// across the sides, which is what the aligned rectangle-bitmap route
/// exploits.
pub(crate) fn nibble_aligned(mask: u64) -> bool {
    mask == (mask & NIBBLE_ONES).wrapping_mul(0xF)
}

/// One-sided family check + rank contribution for a mask confined to the
/// nibble-aligned side `side_mask`: `Some(contrib)` iff every side nibble
/// of `u` is one-hot (members of `𝓛` project to exactly that), where
/// `family_rank(n, u | v) = contrib(u) | contrib(v)` for the two sides of
/// an aligned partition. `None` means no `u | v` pair can lie in `𝓛`.
pub(crate) fn side_rank_contrib(side_mask: u64, u: u64) -> Option<u64> {
    debug_assert!(nibble_aligned(side_mask) && u & !side_mask == 0);
    let pairs = (u & 0x5555_5555_5555_5555) + ((u >> 1) & 0x5555_5555_5555_5555);
    let nib = (pairs & 0x3333_3333_3333_3333) + ((pairs >> 2) & 0x3333_3333_3333_3333);
    (nib == side_mask & NIBBLE_ONES).then(|| rank_fold(u))
}

/// Inverse of [`family_rank`]: the member of `𝓛` with rank `i`.
pub fn family_unrank(n: usize, i: u64) -> Word {
    debug_assert!(supports_blocks(n));
    debug_assert!(i < 1u64 << n, "rank domain is [0, 2^n)");
    let mut w = 0u64;
    for t in 0..n / 2 {
        let idx = i >> (2 * t) & 0b11;
        w |= 1u64 << (4 * t + idx as usize);
    }
    w
}

/// Enumerate `𝓛` (size `2^n`; experiment-scale `n`).
pub fn enumerate_family(n: usize) -> Vec<Word> {
    assert!(supports_blocks(n) && n <= 24, "family enumeration is 2^n");
    let blocks = n / 2;
    let mut out = Vec::with_capacity(1 << n);
    let mut stack: Vec<(usize, Word)> = vec![(0, 0)];
    while let Some((t, acc)) = stack.pop() {
        if t == blocks {
            out.push(acc);
            continue;
        }
        for bit in 0..4 {
            stack.push((t + 1, acc | 1u64 << (4 * t + bit)));
        }
    }
    out
}

/// `|𝓛| = 2^{4m}`.
pub fn family_size(m: u64) -> BigUint {
    BigUint::pow2(4 * m)
}

/// `|A| = (16^m − 8^m) / 2`.
pub fn a_size(m: u64) -> BigUint {
    let (q, r) = BigUint::pow2(4 * m)
        .checked_sub(&BigUint::pow2(3 * m))
        .expect("16^m > 8^m")
        .div_rem_small(2);
    debug_assert_eq!(r, 0);
    q
}

/// `|B| = (16^m + 8^m) / 2`.
pub fn b_size(m: u64) -> BigUint {
    let (q, r) = (&BigUint::pow2(4 * m) + &BigUint::pow2(3 * m)).div_rem_small(2);
    debug_assert_eq!(r, 0);
    q
}

/// `|B ∖ L_n| = 12^m` (Lemma 18).
pub fn b_outside_ln(m: u64) -> BigUint {
    BigUint::small_pow(12, m)
}

/// The gap `|A ∩ L_n| − |B ∩ L_n| = 12^m − 8^m` (Lemma 18's inequality is
/// `gap > 2^{7m/2}`, which holds for all `m ≥ 4`).
pub fn gap(m: u64) -> BigUint {
    BigUint::small_pow(12, m)
        .checked_sub(&BigUint::pow2(3 * m))
        .expect("12^m ≥ 8^m")
}

/// Does Lemma 18's inequality `gap > 2^{7m/2}` hold for this `m`?
/// (Checked exactly: `gap² > 2^{7m}`.)
pub fn lemma18_inequality_holds(m: u64) -> bool {
    let g = gap(m);
    &g * &g > BigUint::pow2(7 * m)
}

/// Signed discrepancy `|R ∩ A| − |R ∩ B|` of a rectangle.
///
/// Bitmap kernel: the rectangle's family-rank bitmap is built in
/// `O(|S|·|T|)` ([`crate::wordset::family_rectangle_bitmap`]) and the two
/// intersection sizes are popcounts against the cached `A`/`B` bitmaps —
/// no `2^n` family scan. The scalar scan survives as
/// [`discrepancy_scalar`], the differential reference of the property
/// tests.
pub fn discrepancy(n: usize, r: &SetRectangle) -> i64 {
    discrepancy_threads(n, r, ucfg_support::par::thread_count())
}

/// [`discrepancy`] with an explicit worker count (`threads = 1` is the
/// serial reference path). The bitmap build OR-merges per-chunk partials
/// and the popcounts are order-free, so the result is bit-identical for
/// every thread count.
pub fn discrepancy_threads(n: usize, r: &SetRectangle, threads: usize) -> i64 {
    obs::count!("discrepancy.calls");
    let _t = obs::span!("discrepancy.bitmap");
    use crate::wordset::chunked::{self, WordSetSource};
    if let WordSetSource::Chunked(plan) = WordSetSource::for_family_domain(n) {
        return chunked::discrepancy_chunked_threads(n, r, threads, &plan);
    }
    let rect = crate::wordset::family_rectangle_bitmap_threads(n, r, threads);
    signed_count(&rect, &crate::wordset::family_a_bitmap(n))
}

/// `|R ∩ A| − |R ∩ B|` for a family-rank bitmap `rect` and the `A`
/// bitmap `a`. `B = 𝓛 ∖ A` on the family-rank domain, so `|R ∩ B|` is
/// the fused `R ∖ A` popcount — one pass over `rect`/`A`, no `B` bitmap
/// at all.
pub(crate) fn signed_count(rect: &crate::wordset::WordSet, a: &crate::wordset::WordSet) -> i64 {
    rect.and_count(a) as i64 - rect.andnot_count(a) as i64
}

/// The scalar reference for [`discrepancy`]: exhaustive `2^n` family scan
/// with per-member [`SetRectangle::contains`] probes.
pub fn discrepancy_scalar(n: usize, r: &SetRectangle) -> i64 {
    discrepancy_scalar_threads(n, r, ucfg_support::par::thread_count())
}

/// [`discrepancy_scalar`] with an explicit worker count; partial integer
/// sums merge in fixed chunk order, so the result is bit-identical to the
/// serial scan for every thread count.
pub fn discrepancy_scalar_threads(n: usize, r: &SetRectangle, threads: usize) -> i64 {
    let fam = enumerate_family(n);
    ucfg_support::par::map_ranges_threads(0..fam.len() as u64, threads, |range| {
        fam[range.start as usize..range.end as usize]
            .iter()
            .filter(|&&w| r.contains(w))
            .map(|&w| {
                if witness_count(n, w) % 2 == 1 {
                    1i64
                } else {
                    -1
                }
            })
            .sum::<i64>()
    })
    .into_iter()
    .sum()
}

/// The Lemma 19 bound for `[1, n]`-rectangles: `2^{3m}`.
pub fn lemma19_bound(m: u64) -> BigUint {
    BigUint::pow2(3 * m)
}

/// The complete Lemma 18/19 ledger for the family at `n = 4m`, every
/// quantity in exact closed form over [`BigUint`]/[`BigInt`] — valid at
/// any `m`, in particular `n ≥ 32` where enumeration is impossible and
/// the signed quantities (`gap`, the full-family discrepancy `−2^{3m}`)
/// overflow machine integers. Cross-checked against exhaustive
/// enumeration at every `m` where both are feasible (see the tests and
/// `crates/core/tests/chunked_differential.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyAccounting {
    /// The block parameter `m` (so `n = 4m`).
    pub m: u64,
    /// `|𝓛| = 16^m`.
    pub family_size: BigUint,
    /// `|A| = (16^m − 8^m) / 2`.
    pub a_size: BigUint,
    /// `|B| = (16^m + 8^m) / 2`.
    pub b_size: BigUint,
    /// `|B ∖ L_n| = 12^m` (Lemma 18).
    pub b_outside_ln: BigUint,
    /// `|A ∩ L_n| = |A|` — `A ⊆ L_n` since an odd witness count is ≥ 1.
    pub a_in_ln: BigUint,
    /// `|B ∩ L_n| = |B| − 12^m`.
    pub b_in_ln: BigUint,
    /// The signed gap `|A ∩ L_n| − |B ∩ L_n| = 12^m − 8^m`.
    pub gap: BigInt,
    /// The signed discrepancy of the full-family rectangle `𝓛` itself:
    /// `|A| − |B| = −2^{3m}` — Lemma 19's bound met with equality, on the
    /// negative side.
    pub full_family_discrepancy: BigInt,
    /// The Lemma 19 bound `2^{3m}` for `[1, n]`-rectangles.
    pub lemma19_bound: BigUint,
    /// Does Lemma 18's inequality `gap > 2^{7m/2}` hold (exact check)?
    pub lemma18_holds: bool,
}

/// The exact [`FamilyAccounting`] at block parameter `m`.
pub fn family_accounting(m: u64) -> FamilyAccounting {
    let a = a_size(m);
    let b = b_size(m);
    let outside = b_outside_ln(m);
    let b_in_ln = b.checked_sub(&outside).expect("|B| ≥ 12^m");
    FamilyAccounting {
        m,
        family_size: family_size(m),
        a_size: a.clone(),
        b_size: b.clone(),
        b_outside_ln: outside,
        a_in_ln: a.clone(),
        gap: BigInt::sub_unsigned(&a, &b_in_ln),
        b_in_ln,
        full_family_discrepancy: BigInt::sub_unsigned(&a, &b),
        lemma19_bound: lemma19_bound(m),
        lemma18_holds: lemma18_inequality_holds(m),
    }
}

/// Exact check of the Lemma 23 bound `|d| ≤ 2^{10m/3}` as `|d|³ ≤ 2^{10m}`.
pub fn within_lemma23_bound(m: u64, d: i64) -> bool {
    let a = BigUint::from_u64(d.unsigned_abs());
    &(&a * &a) * &a <= BigUint::pow2(10 * m)
}

/// The Proposition 16 cover lower bound in log₂:
/// `log₂ ℓ ≥ log₂(12^m − 8^m) − 10m/3`.
pub fn cover_lower_bound_log2(m: u64) -> f64 {
    gap(m).log2_approx() - 10.0 * m as f64 / 3.0
}

/// The Theorem 17 (fixed `[1,n]`-partition) cover lower bound in log₂:
/// `log₂ ℓ ≥ log₂(12^m − 8^m) − 3m`.
pub fn fixed_partition_lower_bound_log2(m: u64) -> f64 {
    gap(m).log2_approx() - 3.0 * m as f64
}

/// Sample a random rectangle over `partition` whose sides are subsets of
/// the projections of `𝓛` (other patterns never meet `𝓛` and contribute
/// nothing to discrepancy).
pub fn random_family_rectangle<R: Rng + ?Sized>(
    n: usize,
    partition: OrderedPartition,
    rng: &mut R,
) -> SetRectangle {
    let fam = enumerate_family(n);
    let ins = partition.inside();
    let outs = partition.outside();
    let s_all: BTreeSet<u64> = fam.iter().map(|&w| w & ins).collect();
    let t_all: BTreeSet<u64> = fam.iter().map(|&w| w & outs).collect();
    let s = s_all.into_iter().filter(|_| rng.random_bool(0.5)).collect();
    let t = t_all.into_iter().filter(|_| rng.random_bool(0.5)).collect();
    SetRectangle::new(partition, s, t)
}

/// Adversarial discrepancy search by alternating maximisation: for a fixed
/// `T` the best `S` is `{u : Σ_{v∈T} f(u∪v) > 0}` (and symmetrically), so
/// alternate until a fixpoint. Returns the best rectangle found and its
/// signed discrepancy. This gives strong *lower* estimates of the maximal
/// discrepancy, to be compared against the Lemma 19/23 upper bounds.
pub fn adversarial_rectangle<R: Rng + ?Sized>(
    n: usize,
    partition: OrderedPartition,
    rounds: usize,
    rng: &mut R,
) -> (SetRectangle, i64) {
    let fam = enumerate_family(n);
    let ins = partition.inside();
    let outs = partition.outside();
    let sign = |w: Word| {
        if witness_count(n, w) % 2 == 1 {
            1i64
        } else {
            -1i64
        }
    };
    // Group family members by their side patterns.
    let s_all: Vec<u64> = fam
        .iter()
        .map(|&w| w & ins)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let t_all: Vec<u64> = fam
        .iter()
        .map(|&w| w & outs)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    // f(u, v) summed lazily; members of 𝓛 are exactly the u|v combinations
    // that lie in 𝓛.
    let mut best: Option<(BTreeSet<u64>, BTreeSet<u64>, i64)> = None;
    for _ in 0..rounds.max(1) {
        let mut t_cur: BTreeSet<u64> = t_all
            .iter()
            .copied()
            .filter(|_| rng.random_bool(0.5))
            .collect();
        let mut s_cur: BTreeSet<u64> = BTreeSet::new();
        let mut last_d = i64::MIN;
        for _iter in 0..16 {
            // Best S for current T.
            s_cur = s_all
                .iter()
                .copied()
                .filter(|&u| {
                    let score: i64 = t_cur
                        .iter()
                        .filter(|&&v| in_family(n, u | v))
                        .map(|&v| sign(u | v))
                        .sum();
                    score > 0
                })
                .collect();
            // Best T for current S.
            t_cur = t_all
                .iter()
                .copied()
                .filter(|&v| {
                    let score: i64 = s_cur
                        .iter()
                        .filter(|&&u| in_family(n, u | v))
                        .map(|&u| sign(u | v))
                        .sum();
                    score > 0
                })
                .collect();
            let d: i64 = s_cur
                .iter()
                .flat_map(|&u| t_cur.iter().map(move |&v| (u, v)))
                .filter(|&(u, v)| in_family(n, u | v))
                .map(|(u, v)| sign(u | v))
                .sum();
            if d == last_d {
                break;
            }
            last_d = d;
        }
        let d = last_d;
        if best.as_ref().is_none_or(|b| d > b.2) {
            best = Some((s_cur, t_cur, d));
        }
    }
    let (s, t, d) = best.expect("at least one round");
    (SetRectangle::new(partition, s, t), d)
}

/// The T-pattern cap for [`exact_max_discrepancy`]: above this many
/// T-side patterns the `2^{|T-patterns|}` subset scan is declined
/// (`None`). The Gray-code walk costs `O(|S|)` per subset, so 26 patterns
/// (a 2^26 ≈ 6.7·10⁷-step scan) completes in seconds; the old full-rescan
/// implementation capped out at 20.
pub const EXACT_MAX_T_PATTERNS: usize = 26;

/// The distinct side patterns of `𝓛` under a partition: the projections
/// of the family onto `Π₀` (the `S` candidates) and `Π₁` (the `T`
/// candidates), each in ascending mask order. Rectangles built from any
/// other patterns never meet `𝓛`.
pub fn family_side_patterns(n: usize, partition: OrderedPartition) -> (Vec<u64>, Vec<u64>) {
    let fam = enumerate_family(n);
    let ins = partition.inside();
    let outs = partition.outside();
    let s_all: Vec<u64> = fam
        .iter()
        .map(|&w| w & ins)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let t_all: Vec<u64> = fam
        .iter()
        .map(|&w| w & outs)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    (s_all, t_all)
}

/// The full-family rectangle `R = 𝓛` at the block-aligned `[1, n]` cut,
/// built directly — one one-hot nibble per 4-block and side, `|S| = |T|
/// = 2^{n/2}` — so it exists at every `n` the family supports.
/// [`family_side_patterns`] computes the same sides but enumerates all
/// `2^n` members first, which stops at `n = 24`; this constructor is
/// what lets the streamed discrepancy kernel run at `n = 32`.
pub fn full_family_rectangle(n: usize) -> SetRectangle {
    assert!(supports_blocks(n));
    let part = OrderedPartition::new(n, 1, n);
    let half = n / 4;
    let side = |base: usize| -> BTreeSet<u64> {
        (0..1u64 << (2 * half))
            .map(|i| {
                (0..half).fold(0u64, |w, t| {
                    let idx = (i >> (2 * t)) & 0b11;
                    w | 1u64 << (4 * (base + t) + idx as usize)
                })
            })
            .collect()
    };
    SetRectangle::new(part, side(0), side(half))
}

/// The `{−1, 0, +1}` score matrix of a partition in **column-major**
/// layout (`f[j·rows + i]` is the sign of `s_all[i] ∪ t_all[j]`), the
/// input format of [`gray_subset_max_threads`].
fn family_score_matrix(n: usize, s_all: &[u64], t_all: &[u64]) -> Vec<i64> {
    let rows = s_all.len();
    let mut f = vec![0i64; rows * t_all.len()];
    for (j, &v) in t_all.iter().enumerate() {
        for (i, &u) in s_all.iter().enumerate() {
            let w = u | v;
            if in_family(n, w) {
                f[j * rows + i] = if witness_count(n, w) % 2 == 1 { 1 } else { -1 };
            }
        }
    }
    f
}

/// *Exact* maximum `||R∩A| − |R∩B||` over **all** rectangles of a
/// partition, by enumerating every `T ⊆` (T-side patterns) and pairing it
/// with its optimal `S` (for the maximising rectangle, `S` is always the
/// set of rows with positive — resp. negative — total, so scanning all `T`
/// with optimal `S` finds the true optimum).
///
/// Feasible only when the T-side has few patterns (`2^{|T-patterns|}`
/// subsets); returns `None` above [`EXACT_MAX_T_PATTERNS`]. For `n = 4`
/// this covers every partition; for `n = 8` the neat ones.
///
/// The scan is a Gray-code walk ([`gray_subset_max_threads`]): each step
/// flips a single T-pattern in or out and updates the per-row scores and
/// the pos/neg totals incrementally, `O(|S|)` per subset instead of the
/// `O(|S|·|T|)` rescan kept as [`exact_max_discrepancy_scalar`].
pub fn exact_max_discrepancy(n: usize, partition: OrderedPartition) -> Option<u64> {
    exact_max_discrepancy_threads(n, partition, ucfg_support::par::thread_count())
}

/// [`exact_max_discrepancy`] with an explicit worker count (`threads = 1`
/// is the serial reference path).
pub fn exact_max_discrepancy_threads(
    n: usize,
    partition: OrderedPartition,
    threads: usize,
) -> Option<u64> {
    let (s_all, t_all) = family_side_patterns(n, partition);
    if t_all.len() > EXACT_MAX_T_PATTERNS {
        return None;
    }
    obs::count!("discrepancy.exact_max.calls");
    let _t = obs::span!("discrepancy.exact_max");
    let f = family_score_matrix(n, &s_all, &t_all);
    Some(gray_subset_max_threads(
        &f,
        s_all.len(),
        t_all.len(),
        threads,
    ))
}

/// The scalar reference for [`exact_max_discrepancy`]: a full
/// `O(|S|·|T|)` score rescan per subset. Kept for the differential
/// property tests; use the Gray-code path for real scans.
pub fn exact_max_discrepancy_scalar(n: usize, partition: OrderedPartition) -> Option<u64> {
    exact_max_discrepancy_scalar_threads(n, partition, ucfg_support::par::thread_count())
}

/// [`exact_max_discrepancy_scalar`] with an explicit worker count;
/// per-chunk maxima merge in fixed chunk order, so the result is
/// bit-identical to the serial scan for every thread count.
pub fn exact_max_discrepancy_scalar_threads(
    n: usize,
    partition: OrderedPartition,
    threads: usize,
) -> Option<u64> {
    let (s_all, t_all) = family_side_patterns(n, partition);
    if t_all.len() > EXACT_MAX_T_PATTERNS {
        return None;
    }
    let rows = s_all.len();
    let f = family_score_matrix(n, &s_all, &t_all);
    let best = ucfg_support::par::map_ranges_threads(0..(1u64 << t_all.len()), threads, |range| {
        let mut chunk_best: u64 = 0;
        for t_mask in range {
            let mut pos: i64 = 0;
            let mut neg: i64 = 0;
            for i in 0..rows {
                let mut score: i64 = 0;
                // A u64 mask throughout: the pre-Gray implementation
                // narrowed this to u32, silently dropping columns ≥ 32 had
                // the cap ever been raised past 32 patterns.
                let mut m: u64 = t_mask;
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    score += f[j * rows + i];
                    m &= m - 1;
                }
                if score > 0 {
                    pos += score;
                } else {
                    neg += score;
                }
            }
            chunk_best = chunk_best.max(pos as u64).max(neg.unsigned_abs());
        }
        chunk_best
    })
    .into_iter()
    .max()
    .unwrap_or(0);
    Some(best)
}

/// The Gray-code subset-maximum kernel behind [`exact_max_discrepancy`],
/// public so the bench suite can drive it on synthetic matrices.
///
/// For a column-major score matrix `f` (`f[j·rows + i]`, `rows × cols`),
/// every column subset `T` induces per-row scores
/// `score_i(T) = Σ_{j ∈ T} f[j·rows + i]`; the kernel returns the maximum
/// over all `2^cols` subsets of
/// `max(Σ_{score_i > 0} score_i, −Σ_{score_i ≤ 0} score_i)` — i.e. the
/// best rectangle discrepancy once the row set is chosen optimally for
/// the subset.
///
/// Subsets are visited in Gray-code order (`g(i) = i ⊕ (i >> 1)`): step
/// `i` flips exactly column `trailing_zeros(i)`, so the per-row scores
/// and the pos/neg totals update in `O(rows)` per subset. The range is
/// chunked on [`ucfg_support::par`]; each chunk initialises its scores at
/// its first Gray code (`O(rows·cols)` once) and walks from there, and
/// per-chunk maxima merge by `max`, so the result is bit-identical for
/// every `threads ≥ 1`.
pub fn gray_subset_max_threads(f: &[i64], rows: usize, cols: usize, threads: usize) -> u64 {
    assert!(
        cols <= EXACT_MAX_T_PATTERNS,
        "2^{cols}-subset scan exceeds the documented cap"
    );
    assert_eq!(f.len(), rows * cols, "column-major rows×cols matrix");
    if rows == 0 || cols == 0 {
        return 0;
    }
    obs::count!("discrepancy.gray.subsets", 1u64 << cols);
    let _t = obs::span!("discrepancy.gray");
    let gray = |i: u64| i ^ (i >> 1);
    ucfg_support::par::map_ranges_threads(0..(1u64 << cols), threads, |range| {
        // Scores of the chunk's first subset, from scratch.
        let mut scores = vec![0i64; rows];
        let mut m = gray(range.start);
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            for (s, &c) in scores.iter_mut().zip(&f[j * rows..(j + 1) * rows]) {
                *s += c;
            }
            m &= m - 1;
        }
        let mut pos: i64 = 0;
        let mut neg: i64 = 0;
        for &s in &scores {
            if s > 0 {
                pos += s;
            } else {
                neg += s;
            }
        }
        let mut best = (pos as u64).max(neg.unsigned_abs());
        // Walk the rest of the chunk: step i flips column trailing_zeros(i)
        // to the value it has in gray(i).
        for i in range.start + 1..range.end {
            let j = i.trailing_zeros() as usize;
            let added = gray(i) >> j & 1 == 1;
            for (s, &c) in scores.iter_mut().zip(&f[j * rows..(j + 1) * rows]) {
                let old = *s;
                let new = if added { old + c } else { old - c };
                *s = new;
                if old > 0 {
                    pos -= old;
                } else {
                    neg -= old;
                }
                if new > 0 {
                    pos += new;
                } else {
                    neg += new;
                }
            }
            best = best.max(pos as u64).max(neg.unsigned_abs());
        }
        best
    })
    .into_iter()
    .max()
    .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::{ln_contains, low_mask};
    use ucfg_support::rng::{SeedableRng, StdRng};

    #[test]
    fn family_membership_and_size() {
        for n in [4usize, 8] {
            let fam = enumerate_family(n);
            assert_eq!(fam.len() as u64, 1 << n, "n={n}");
            let m = (n / 4) as u64;
            assert_eq!(family_size(m).to_u64(), Some(1 << n));
            for &w in &fam {
                assert!(in_family(n, w));
                assert!(in_a(n, w) ^ in_b(n, w));
            }
            // Non-members: empty set, everything.
            assert!(!in_family(n, 0));
            assert!(!in_family(n, low_mask(2 * n)));
        }
    }

    #[test]
    fn family_rank_is_a_bijection() {
        for n in [4usize, 8] {
            let mut seen = vec![false; 1 << n];
            for &w in &enumerate_family(n) {
                let i = family_rank(n, w);
                assert!(!seen[i as usize], "n={n}: rank {i} hit twice");
                seen[i as usize] = true;
                assert_eq!(family_unrank(n, i), w, "n={n} w={w:b}");
            }
            assert!(seen.iter().all(|&s| s), "n={n}: rank is onto [0, 2^n)");
        }
    }

    #[test]
    fn lemma18_counts_exhaustive() {
        for n in [4usize, 8, 12] {
            let m = (n / 4) as u64;
            let fam = enumerate_family(n);
            let a_count = fam.iter().filter(|&&w| in_a(n, w)).count() as u64;
            let b_count = fam.iter().filter(|&&w| in_b(n, w)).count() as u64;
            assert_eq!(a_size(m).to_u64(), Some(a_count), "n={n}");
            assert_eq!(b_size(m).to_u64(), Some(b_count), "n={n}");
            assert_eq!(b_count - a_count, 1 << (3 * m), "|B|−|A| = 2^{{3m}}");
            let b_out = fam
                .iter()
                .filter(|&&w| in_b(n, w) && !ln_contains(n, w))
                .count() as u64;
            assert_eq!(b_outside_ln(m).to_u64(), Some(b_out), "|B∖L_n| = 12^m");
            // A ⊆ L_n (odd intersections ⇒ at least one).
            assert!(fam
                .iter()
                .filter(|&&w| in_a(n, w))
                .all(|&w| ln_contains(n, w)));
            // The gap.
            let gap_count = {
                let a_in = fam
                    .iter()
                    .filter(|&&w| in_a(n, w) && ln_contains(n, w))
                    .count() as i64;
                let b_in = fam
                    .iter()
                    .filter(|&&w| in_b(n, w) && ln_contains(n, w))
                    .count() as i64;
                a_in - b_in
            };
            assert_eq!(gap(m).to_u64(), Some(gap_count as u64), "gap = 12^m − 8^m");
        }
    }

    #[test]
    fn family_accounting_matches_enumeration() {
        // Every closed-form field of the ledger against exhaustive counts
        // at the m where enumeration is feasible.
        for n in [4usize, 8, 12] {
            let m = (n / 4) as u64;
            let acc = family_accounting(m);
            let fam = enumerate_family(n);
            let count = |p: &dyn Fn(Word) -> bool| fam.iter().filter(|&&w| p(w)).count() as u64;
            assert_eq!(acc.family_size.to_u64(), Some(fam.len() as u64), "n={n}");
            assert_eq!(acc.a_size.to_u64(), Some(count(&|w| in_a(n, w))), "n={n}");
            assert_eq!(acc.b_size.to_u64(), Some(count(&|w| in_b(n, w))), "n={n}");
            assert_eq!(
                acc.b_outside_ln.to_u64(),
                Some(count(&|w| in_b(n, w) && !ln_contains(n, w))),
                "n={n}"
            );
            assert_eq!(
                acc.a_in_ln.to_u64(),
                Some(count(&|w| in_a(n, w) && ln_contains(n, w))),
                "n={n}: A ⊆ L_n"
            );
            assert_eq!(
                acc.b_in_ln.to_u64(),
                Some(count(&|w| in_b(n, w) && ln_contains(n, w))),
                "n={n}"
            );
            assert_eq!(
                acc.gap.to_i128(),
                Some(
                    count(&|w| in_a(n, w)) as i128
                        - count(&|w| in_b(n, w) && ln_contains(n, w)) as i128
                ),
                "n={n}"
            );
            // The full-family rectangle's signed discrepancy is the
            // enumerated |A| − |B| = −2^{3m}, and the chunked/bitmap
            // kernels agree on it where they can run.
            assert_eq!(
                acc.full_family_discrepancy.to_i128(),
                Some(count(&|w| in_a(n, w)) as i128 - count(&|w| in_b(n, w)) as i128),
                "n={n}"
            );
            assert!(acc.full_family_discrepancy.is_negative());
            assert_eq!(
                acc.full_family_discrepancy.magnitude(),
                &acc.lemma19_bound,
                "Lemma 19 met with equality by 𝓛 itself"
            );
            assert_eq!(acc.lemma18_holds, lemma18_inequality_holds(m));
        }
        // The ledger stays internally consistent far beyond enumeration.
        for m in [8u64, 16, 32, 64] {
            let acc = family_accounting(m);
            assert_eq!(
                &(&acc.a_in_ln + &acc.b_in_ln) + &acc.b_outside_ln,
                acc.family_size,
                "m={m}: 𝓛 splits into A ⊎ (B∩L_n) ⊎ (B∖L_n)"
            );
            assert_eq!(
                acc.gap,
                BigInt::sub_unsigned(&b_outside_ln(m), &BigUint::pow2(3 * m)),
                "m={m}: gap = 12^m − 8^m"
            );
            assert!(acc.lemma18_holds, "m={m}");
            assert!(!acc.gap.is_negative());
        }
    }

    #[test]
    fn full_family_rectangle_matches_the_enumerated_sides() {
        // The direct per-block constructor equals the enumeration route
        // at every n where the latter runs, and its product is 𝓛 itself.
        for n in [4usize, 8, 12] {
            let r = full_family_rectangle(n);
            let (s_all, t_all) = family_side_patterns(n, OrderedPartition::new(n, 1, n));
            assert_eq!(r.s.iter().copied().collect::<Vec<_>>(), s_all, "n={n}");
            assert_eq!(r.t.iter().copied().collect::<Vec<_>>(), t_all, "n={n}");
            assert_eq!(r.s.len() as u64, 1u64 << (n / 2), "n={n}");
            for &w in &enumerate_family(n) {
                assert!(r.contains(w), "n={n} w={w:b}");
            }
        }
        // Existence past the enumeration ceiling: 2^16 patterns per side
        // at n = 32, every member a one-nibble-per-block pattern.
        let r = full_family_rectangle(32);
        assert_eq!(r.s.len(), 1 << 16);
        assert_eq!(r.t.len(), 1 << 16);
        assert!(r
            .s
            .iter()
            .all(|&u| (0..8).all(|t| (u >> (4 * t) & 0xf).count_ones() == 1)));
    }

    #[test]
    fn lemma18_inequality_threshold() {
        // 12^m − 8^m > 2^{7m/2} holds exactly from m = 4 on.
        assert!(!lemma18_inequality_holds(1));
        assert!(!lemma18_inequality_holds(2));
        assert!(!lemma18_inequality_holds(3));
        for m in 4..=64 {
            assert!(lemma18_inequality_holds(m), "m={m}");
        }
    }

    #[test]
    fn lemma19_bound_on_random_middle_cut_rectangles() {
        let n = 8;
        let m = 2u64;
        let part = OrderedPartition::new(n, 1, n);
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..30 {
            let r = random_family_rectangle(n, part, &mut rng);
            let d = discrepancy(n, &r).unsigned_abs();
            assert!(
                BigUint::from_u64(d) <= lemma19_bound(m),
                "|d| = {d} exceeds 2^{{3m}}"
            );
        }
    }

    #[test]
    fn lemma23_bound_on_random_balanced_rectangles() {
        let n = 8;
        let m = 2u64;
        let mut rng = StdRng::seed_from_u64(7);
        for part in OrderedPartition::all_balanced(n) {
            for _ in 0..5 {
                let r = random_family_rectangle(n, part, &mut rng);
                let d = discrepancy(n, &r);
                assert!(within_lemma23_bound(m, d), "{part:?}: d={d}");
            }
        }
    }

    #[test]
    fn adversarial_search_respects_bounds() {
        let n = 8;
        let m = 2u64;
        let mut rng = StdRng::seed_from_u64(99);
        let part = OrderedPartition::new(n, 1, n);
        let (r, d) = adversarial_rectangle(n, part, 3, &mut rng);
        assert_eq!(discrepancy(n, &r), d);
        assert!(BigUint::from_u64(d.unsigned_abs()) <= lemma19_bound(m));
        // The search should find a substantially positive discrepancy.
        assert!(d > 0, "adversarial search found nothing: {d}");
    }

    #[test]
    fn exact_max_discrepancy_within_bounds() {
        // n = 4, m = 1: the exact maximum over ALL [1,4]-rectangles obeys
        // Lemma 19's 2^{3m} = 8.
        let n = 4;
        let part = OrderedPartition::new(n, 1, n);
        let exact = exact_max_discrepancy(n, part).unwrap();
        assert!(exact <= 8, "Lemma 19 exact check: {exact}");
        assert!(exact >= 1);
        // Every partition of n = 4 is feasible and obeys Lemma 23
        // (|d|³ ≤ 2^{10}).
        for p in OrderedPartition::all_balanced(n) {
            let d = exact_max_discrepancy(n, p).unwrap();
            assert!(within_lemma23_bound(1, d as i64), "{p:?}: {d}");
        }
        // The adversarial search cannot beat the exact optimum.
        let mut rng = StdRng::seed_from_u64(5);
        let (_, adv) = adversarial_rectangle(n, part, 5, &mut rng);
        assert!(adv.unsigned_abs() <= exact);
    }

    #[test]
    fn parallel_discrepancy_is_bit_identical() {
        let n = 8;
        let mut rng = StdRng::seed_from_u64(31);
        let part = OrderedPartition::new(n, 1, n);
        for _ in 0..5 {
            let r = random_family_rectangle(n, part, &mut rng);
            let serial = discrepancy_threads(n, &r, 1);
            for threads in [2usize, 8] {
                assert_eq!(serial, discrepancy_threads(n, &r, threads), "{threads}");
            }
            assert_eq!(serial, discrepancy(n, &r), "default threads");
        }
    }

    #[test]
    fn parallel_exact_max_discrepancy_is_bit_identical() {
        let n = 4;
        for part in OrderedPartition::all_balanced(n) {
            let serial = exact_max_discrepancy_threads(n, part, 1);
            for threads in [2usize, 8] {
                assert_eq!(
                    serial,
                    exact_max_discrepancy_threads(n, part, threads),
                    "{part:?} threads={threads}"
                );
            }
            assert_eq!(serial, exact_max_discrepancy(n, part), "{part:?} default");
        }
    }

    #[test]
    fn gray_walk_matches_scalar_rescan() {
        let n = 4;
        for part in OrderedPartition::all_balanced(n) {
            assert_eq!(
                exact_max_discrepancy(n, part),
                exact_max_discrepancy_scalar(n, part),
                "{part:?}"
            );
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    exact_max_discrepancy_threads(n, part, threads),
                    exact_max_discrepancy_scalar_threads(n, part, threads),
                    "{part:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn bitmap_discrepancy_matches_scalar() {
        let n = 8;
        let mut rng = StdRng::seed_from_u64(12);
        for part in OrderedPartition::all_balanced(n) {
            let r = random_family_rectangle(n, part, &mut rng);
            assert_eq!(discrepancy(n, &r), discrepancy_scalar(n, &r), "{part:?}");
        }
        // Empty rectangle: both zero.
        let part = OrderedPartition::new(n, 1, n);
        let empty = SetRectangle::new(part, BTreeSet::new(), BTreeSet::new());
        assert_eq!(discrepancy(n, &empty), 0);
        assert_eq!(discrepancy_scalar(n, &empty), 0);
        // The full-family rectangle: discrepancy = |A| − |B| = −2^{3m}.
        let (s_all, t_all) = family_side_patterns(n, part);
        let full = SetRectangle::new(
            part,
            s_all.into_iter().collect(),
            t_all.into_iter().collect(),
        );
        let m = (n / 4) as u64;
        assert_eq!(discrepancy(n, &full), -(1i64 << (3 * m)));
        assert_eq!(discrepancy_scalar(n, &full), discrepancy(n, &full));
    }

    #[test]
    fn gray_kernel_on_synthetic_matrices() {
        // Exhaustive cross-check on a dense synthetic matrix: the kernel
        // must agree with a brute-force subset scan.
        let (rows, cols) = (5usize, 7usize);
        let f: Vec<i64> = (0..rows * cols)
            .map(|k| ((k * 37 + 11) % 5) as i64 - 2)
            .collect();
        let brute = {
            let mut best = 0u64;
            for mask in 0u64..(1 << cols) {
                let (mut pos, mut neg) = (0i64, 0i64);
                for i in 0..rows {
                    let score: i64 = (0..cols)
                        .filter(|&j| mask >> j & 1 == 1)
                        .map(|j| f[j * rows + i])
                        .sum();
                    if score > 0 {
                        pos += score;
                    } else {
                        neg += score;
                    }
                }
                best = best.max(pos as u64).max(neg.unsigned_abs());
            }
            best
        };
        for threads in [1usize, 2, 8] {
            assert_eq!(
                gray_subset_max_threads(&f, rows, cols, threads),
                brute,
                "threads={threads}"
            );
        }
        // Degenerate shapes.
        assert_eq!(gray_subset_max_threads(&[], 0, 0, 4), 0);
        assert_eq!(gray_subset_max_threads(&[], 0, 3, 4), 0);
        assert_eq!(gray_subset_max_threads(&[1, -1], 2, 1, 4), 1);
    }

    #[test]
    fn lower_bound_grows_linearly() {
        // log₂ bound ≈ m·(log₂ 12 − 10/3) ≈ 0.25 m.
        let lb4 = cover_lower_bound_log2(4);
        let lb16 = cover_lower_bound_log2(16);
        let lb64 = cover_lower_bound_log2(64);
        assert!(lb16 > lb4);
        assert!(lb64 > 3.0 * lb16 / 2.0);
        // Slope sanity: for large m the bound per m tends to
        // log2(12) − 10/3 ≈ 0.2516.
        let slope = (cover_lower_bound_log2(200) - cover_lower_bound_log2(100)) / 100.0;
        assert!(
            (slope - (12f64.log2() - 10.0 / 3.0)).abs() < 1e-3,
            "slope {slope}"
        );
        // Theorem 17's fixed-partition bound is stronger:
        assert!(fixed_partition_lower_bound_log2(16) > cover_lower_bound_log2(16));
    }
}
