//! Popcount word-set bitmaps: one bit per element of a `u64`-keyed
//! domain, `Vec<u64>` backed.
//!
//! The exhaustive kernels of this crate all reduce to set algebra over two
//! kinds of domain:
//!
//! * the **word domain** `{a,b}^{2n}` — bit `w` stands for the packed word
//!   `w` of [`crate::words`] (`2^{2n}` bits);
//! * the **family domain** — bit `i` stands for the `i`-th member of the
//!   Section 4.2 family `𝓛` under the perfect rank of
//!   [`crate::discrepancy::family_rank`] (`2^n` bits).
//!
//! A [`WordSet`] is agnostic to the interpretation: it is a plain bitset
//! over `0..domain` with popcount set algebra (`and` / `or` / `andnot` /
//! [`count`](WordSet::count) / [`and_count`](WordSet::and_count) /
//! [`iter`](WordSet::iter)), so one `u64` of machine work covers 64
//! scalar membership probes. Addressing is full `u64` (conceptually up to
//! `2n = 64`), but *materialisation* is capped at [`MAX_DOMAIN_BITS`] bits
//! so a stray call can never allocate beyond experiment scale.
//!
//! The canonical sets of the reproduction — `L_n`, the family `𝓛`, and
//! its `A`/`B` split — are built once per `n` and cached process-wide
//! ([`ln_bitmap`], [`family_bitmap`], [`family_a_bitmap`],
//! [`family_b_bitmap`]); rectangle bitmaps are built in `O(|S|·|T|)` by
//! [`crate::rectangle::SetRectangle::to_wordset`] instead of scanning the
//! full domain.
//!
//! ```
//! use ucfg_core::wordset::{self, WordSet};
//!
//! let n = 3;
//! let ln = wordset::ln_bitmap(n);
//! assert_eq!(ln.count(), 37); // 4³ − 3³
//! let all = WordSet::full(1u64 << (2 * n));
//! assert_eq!(all.andnot(&ln).count(), 27); // 3³ non-members
//! ```

use crate::discrepancy::{family_rank, in_a, supports_blocks};
use crate::words::{ln_contains, Word};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use ucfg_support::{arena, obs, par, simd};

pub mod chunked;

/// Materialisation cap: a [`WordSet`] never allocates more than this many
/// bits (`2^30` bits = 128 MiB). Word-domain sets therefore stop at
/// `2n ≤ 30`, comfortably above the `2n ≤ 26` exhaustive-scan ceiling of
/// the kernels; family-domain sets stop at `n ≤ 30`.
pub const MAX_DOMAIN_BITS: u64 = 1 << 30;

// Block indices are computed as `(k / 64) as usize`. The cap bounds the
// block count at `2^24`, which must fit a `usize` for that cast to be
// lossless — true on every 32/64-bit target, checked here so a future cap
// raise (or an exotic target) fails at compile time instead of silently
// truncating indices.
const _: () = assert!(MAX_DOMAIN_BITS / 64 <= usize::MAX as u64);
#[cfg(target_pointer_width = "16")]
compile_error!("WordSet block indexing requires usize to hold MAX_DOMAIN_BITS / 64 block indices");

/// The backing-word index for element `k`, checked against `usize` in
/// debug builds (the compile-time assert above proves it for every `k`
/// below the cap; this catches out-of-contract callers early).
#[inline]
fn block_index(k: u64) -> usize {
    debug_assert!(
        k / 64 <= usize::MAX as u64,
        "block index {} truncates on this target",
        k / 64
    );
    (k / 64) as usize
}

/// A bitset over the domain `0..domain` with popcount set algebra.
///
/// Bulk algebra dispatches through [`ucfg_support::simd`] (AVX2 when the
/// CPU has it, the scalar reference otherwise — see `UCFG_NO_SIMD`), and
/// backing slabs are pooled through [`ucfg_support::arena`]: dropping a
/// `WordSet` recycles its words for the next one of similar size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordSet {
    /// Number of addressable bits (bit `k` ⇔ element `k`).
    domain: u64,
    /// The backing words; bit `k` lives at `bits[k / 64] >> (k % 64)`.
    bits: Vec<u64>,
}

impl Drop for WordSet {
    fn drop(&mut self) {
        arena::recycle(std::mem::take(&mut self.bits));
    }
}

fn blocks_for(domain: u64) -> usize {
    assert!(
        domain <= MAX_DOMAIN_BITS,
        "WordSet domain {domain} exceeds the materialisation cap {MAX_DOMAIN_BITS}"
    );
    domain.div_ceil(64) as usize
}

/// The word-domain size `2^{2n}`, guarded **before** the shift: for
/// `n ≥ 32` the raw `1u64 << (2 * n)` would overflow the shift (a
/// confusing panic in debug, a silently wrapped — and wrong — domain in
/// release), so the cap is checked on `2n` itself first. Every
/// word-domain materialisation in this module routes through here; use
/// [`chunked::logical_word_domain`] for the unguarded logical size.
pub fn word_domain(n: usize) -> u64 {
    let cap_log2 = MAX_DOMAIN_BITS.trailing_zeros() as usize;
    assert!(
        2 * n <= cap_log2,
        "word domain 2^{} for n = {n} exceeds the materialisation cap {MAX_DOMAIN_BITS} (2n ≤ {cap_log2})",
        2 * n
    );
    1u64 << (2 * n)
}

/// The family-rank domain size `2^n`, guarded like [`word_domain`]: the
/// cap is checked on `n` before the shift so `n ≥ 64` can never wrap the
/// domain in release builds, and every family-domain materialisation gets
/// the same cap message.
pub fn family_domain(n: usize) -> u64 {
    let cap_log2 = MAX_DOMAIN_BITS.trailing_zeros() as usize;
    assert!(
        n <= cap_log2,
        "family domain 2^{n} for n = {n} exceeds the materialisation cap {MAX_DOMAIN_BITS} (n ≤ {cap_log2})"
    );
    1u64 << n
}

impl WordSet {
    /// The empty set over `0..domain`.
    pub fn empty(domain: u64) -> WordSet {
        WordSet {
            domain,
            bits: arena::take_zeroed(blocks_for(domain)),
        }
    }

    /// The full set `0..domain`.
    pub fn full(domain: u64) -> WordSet {
        let mut bits = arena::take_zeroed(blocks_for(domain));
        bits.fill(u64::MAX);
        if let Some(last) = bits.last_mut() {
            let tail = domain % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        WordSet { domain, bits }
    }

    /// The empty word-domain set for words of length `2n`.
    pub fn empty_words(n: usize) -> WordSet {
        Self::empty(word_domain(n))
    }

    /// Build from a membership predicate by scanning the whole domain on
    /// [`par::thread_count`] workers. The output is a pure function of the
    /// predicate, so it is bit-identical for every worker count.
    pub fn from_pred(domain: u64, pred: impl Fn(u64) -> bool + Sync) -> WordSet {
        Self::from_pred_threads(domain, par::thread_count(), pred)
    }

    /// [`WordSet::from_pred`] with an explicit worker count.
    pub fn from_pred_threads(
        domain: u64,
        threads: usize,
        pred: impl Fn(u64) -> bool + Sync,
    ) -> WordSet {
        let blocks = blocks_for(domain);
        // Chunk on 64-bit block boundaries so every worker owns whole
        // backing words and the slabs concatenate without masking.
        let chunk = blocks.div_ceil(64).max(1);
        let num_chunks = blocks.div_ceil(chunk).max(1);
        let slabs = par::run_chunks(num_chunks, threads, |ci| {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(blocks);
            let mut slab = arena::take_zeroed(hi - lo);
            for (slot, bi) in slab.iter_mut().zip(lo..hi) {
                let base = bi as u64 * 64;
                let top = 64.min(domain - base);
                let mut word = 0u64;
                for b in 0..top {
                    if pred(base + b) {
                        word |= 1u64 << b;
                    }
                }
                *slot = word;
            }
            slab
        });
        let mut bits = arena::take_zeroed(blocks);
        let mut at = 0usize;
        for slab in slabs {
            bits[at..at + slab.len()].copy_from_slice(&slab);
            at += slab.len();
            arena::recycle(slab);
        }
        WordSet { domain, bits }
    }

    /// The addressable domain size.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Insert element `k`.
    ///
    /// # Panics
    ///
    /// On `k >= domain`, in **every** profile. A `debug_assert!` here
    /// would let a release-mode out-of-domain insert with
    /// `k < blocks·64` silently set a bit past `domain` in the last
    /// block — inflating [`count`](WordSet::count) and every popcount
    /// kernel built on it — so the bound is a hard check.
    #[inline]
    pub fn insert(&mut self, k: u64) {
        assert!(
            k < self.domain,
            "element {k} outside domain {}",
            self.domain
        );
        self.bits[block_index(k)] |= 1u64 << (k % 64);
    }

    /// Remove element `k`.
    ///
    /// # Panics
    ///
    /// On `k >= domain`, in every profile (see [`insert`](WordSet::insert)).
    #[inline]
    pub fn remove(&mut self, k: u64) {
        assert!(
            k < self.domain,
            "element {k} outside domain {}",
            self.domain
        );
        self.bits[block_index(k)] &= !(1u64 << (k % 64));
    }

    /// Membership probe.
    #[inline]
    pub fn contains(&self, k: u64) -> bool {
        k < self.domain && self.bits[block_index(k)] >> (k % 64) & 1 == 1
    }

    /// `|self|` by popcount.
    pub fn count(&self) -> u64 {
        simd::count(&self.bits)
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&b| b == 0)
    }

    /// `|self ∩ other|` without materialising the intersection — the
    /// workhorse of the discrepancy and cover kernels.
    pub fn and_count(&self, other: &WordSet) -> u64 {
        self.check_domain(other);
        simd::and_count(&self.bits, &other.bits)
    }

    /// `|self ∪ other|` without materialising the union.
    pub fn or_count(&self, other: &WordSet) -> u64 {
        self.check_domain(other);
        simd::or_count(&self.bits, &other.bits)
    }

    /// `|self ∖ other|` without materialising the difference — with
    /// [`and_count`](WordSet::and_count) this splits a rectangle across
    /// an `A`/`B` partition in one pass over each operand instead of
    /// materialising the complement side.
    pub fn andnot_count(&self, other: &WordSet) -> u64 {
        self.check_domain(other);
        simd::andnot_count(&self.bits, &other.bits)
    }

    /// Are the two sets disjoint?
    pub fn is_disjoint(&self, other: &WordSet) -> bool {
        self.check_domain(other);
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & b == 0)
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &WordSet) -> bool {
        self.check_domain(other);
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// `self ∩ other` as a new set.
    pub fn and(&self, other: &WordSet) -> WordSet {
        let mut out = self.combine_buf(other);
        simd::and_into(&mut out.bits, &self.bits, &other.bits);
        out
    }

    /// `self ∪ other` as a new set.
    pub fn or(&self, other: &WordSet) -> WordSet {
        let mut out = self.combine_buf(other);
        simd::or_into(&mut out.bits, &self.bits, &other.bits);
        out
    }

    /// `self ∖ other` as a new set.
    pub fn andnot(&self, other: &WordSet) -> WordSet {
        let mut out = self.combine_buf(other);
        simd::andnot_into(&mut out.bits, &self.bits, &other.bits);
        out
    }

    /// In-place `self ∪= other`.
    pub fn union_with(&mut self, other: &WordSet) {
        self.check_domain(other);
        simd::or_assign(&mut self.bits, &other.bits);
    }

    /// In-place `self ∩= other`.
    pub fn intersect_with(&mut self, other: &WordSet) {
        self.check_domain(other);
        simd::and_assign(&mut self.bits, &other.bits);
    }

    /// In-place `self ∖= other`.
    pub fn subtract_with(&mut self, other: &WordSet) {
        self.check_domain(other);
        simd::andnot_assign(&mut self.bits, &other.bits);
    }

    /// Iterate the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.bits.iter().enumerate().flat_map(|(bi, &word)| {
            let base = bi as u64 * 64;
            std::iter::successors(if word == 0 { None } else { Some(word) }, |w| {
                let next = w & (w - 1);
                (next != 0).then_some(next)
            })
            .map(move |w| base + u64::from(w.trailing_zeros()))
        })
    }

    /// Direct read access to the backing words (for block-parallel folds).
    pub fn blocks(&self) -> &[u64] {
        &self.bits
    }

    fn check_domain(&self, other: &WordSet) {
        assert_eq!(
            self.domain, other.domain,
            "set algebra across mismatched domains"
        );
    }

    /// An uninitialised-content result set for a binary combine (the
    /// caller overwrites every word), pooled through the arena.
    fn combine_buf(&self, other: &WordSet) -> WordSet {
        self.check_domain(other);
        WordSet {
            domain: self.domain,
            bits: arena::take_zeroed(self.bits.len()),
        }
    }
}

/// A bit-sliced overlap counter: layer `i` holds bit `i` of a per-element
/// hit count, so accumulating `ℓ` sets costs `O(ℓ · domain/64)` words of
/// ripple-carry instead of `O(ℓ · domain)` scalar increments. This is how
/// [`crate::cover::verify_cover`] gets disjointness, coverage and the
/// maximum overlap in one pass.
#[derive(Debug, Clone)]
pub struct OverlapCounter {
    domain: u64,
    layers: Vec<WordSet>,
    /// Reused ripple-carry buffer so [`add`](OverlapCounter::add) never
    /// allocates an intermediate bitmap per accumulated set.
    scratch: Vec<u64>,
}

impl OverlapCounter {
    /// An all-zero counter over `0..domain`.
    pub fn new(domain: u64) -> OverlapCounter {
        OverlapCounter {
            domain,
            layers: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Add one set: per-element saturating-free increment (a fresh layer
    /// is appended whenever a carry ripples off the top).
    pub fn add(&mut self, set: &WordSet) {
        assert_eq!(self.domain, set.domain, "counter/set domain mismatch");
        self.add_words(&set.bits);
    }

    /// [`add`](Self::add) for a set given by its backing words over the
    /// counter's first `words.len()` words; the rest count as empty.
    fn add_words(&mut self, words: &[u64]) {
        self.scratch.clear();
        self.scratch.extend_from_slice(words);
        let carry = &mut self.scratch;
        let len = carry.len();
        for layer in &mut self.layers {
            if !simd::carry_save(&mut layer.bits[..len], carry) {
                return;
            }
        }
        if carry.iter().any(|&c| c != 0) {
            let mut bits = arena::take_zeroed(blocks_for(self.domain));
            bits[..len].copy_from_slice(carry);
            self.layers.push(WordSet {
                domain: self.domain,
                bits,
            });
        }
    }

    /// Reset every count to zero, keeping the layers' buffers.
    fn clear(&mut self) {
        for layer in &mut self.layers {
            layer.bits.fill(0);
        }
    }

    /// The maximum per-element count, without allocating: each backing
    /// word's lanes are walked top-down through the layers, keeping the
    /// lanes that attain every high bit committed so far, and the
    /// per-word maxima reduce to the overall one. Once the maximum has
    /// the top layer's bit, words with no top-layer lane cannot beat it
    /// and are skipped.
    pub fn max_count(&self) -> usize {
        let Some(top) = self.layers.last() else {
            return 0;
        };
        let top_count = 1usize << (self.layers.len() - 1);
        let mut max = 0usize;
        for (w, &top_word) in top.bits.iter().enumerate() {
            if top_word == 0 && max >= top_count {
                continue;
            }
            let mut lanes = u64::MAX;
            let mut word_max = 0usize;
            for (i, layer) in self.layers.iter().enumerate().rev() {
                let hit = layer.bits[w] & lanes;
                if hit != 0 {
                    word_max |= 1 << i;
                    lanes = hit;
                }
            }
            max = max.max(word_max);
        }
        max
    }

    /// The set of elements whose count is **exactly** `k`. Elements never
    /// touched have count 0, so `exactly(0)` is the complement of the
    /// union; a `k` above the attained maximum yields the empty set.
    pub fn exactly(&self, k: usize) -> WordSet {
        if self.layers.len() < usize::BITS as usize && k >> self.layers.len() != 0 {
            return WordSet::empty(self.domain);
        }
        let mut out = WordSet::full(self.domain);
        for (i, layer) in self.layers.iter().enumerate() {
            if k >> i & 1 == 1 {
                out.intersect_with(layer);
            } else {
                out.subtract_with(layer);
            }
        }
        out
    }

    /// `|exactly(k) ∩ other|` without materialising the count-`k` set:
    /// one streaming pass over the layer words, early-skipping words
    /// where `other` is empty. This is what the overlap-histogram kernel
    /// calls per `k`, replacing a full-domain temporary per histogram
    /// bucket with a pure fold.
    pub fn exactly_and_count(&self, k: usize, other: &WordSet) -> u64 {
        assert_eq!(self.domain, other.domain, "counter/set domain mismatch");
        if self.layers.len() < usize::BITS as usize && k >> self.layers.len() != 0 {
            return 0;
        }
        if self.layers.is_empty() {
            // No sets accumulated: every element has count 0.
            return if k == 0 { other.count() } else { 0 };
        }
        let mut total = 0u64;
        for (w, &ow) in other.bits.iter().enumerate() {
            if ow == 0 {
                continue;
            }
            let mut x = ow;
            for (i, layer) in self.layers.iter().enumerate() {
                let l = layer.bits[w];
                x &= if k >> i & 1 == 1 { l } else { !l };
                if x == 0 {
                    break;
                }
            }
            total += u64::from(x.count_ones());
        }
        total
    }

    /// Is the set of elements with count ≥ 1, over the counter's first
    /// `target.len()` words, exactly the set with backing words `target`?
    fn union_equals_words(&self, target: &[u64]) -> bool {
        target.iter().enumerate().all(|(w, &tw)| {
            self.layers
                .iter()
                .fold(0u64, |acc, layer| acc | layer.bits[w])
                == tw
        })
    }

    /// The set of elements with count ≥ 1 (the union of everything added).
    pub fn any(&self) -> WordSet {
        let mut out = WordSet::empty(self.domain);
        for layer in &self.layers {
            out.union_with(layer);
        }
        out
    }
}

/// Backing words per tile of [`overlap_fold`]: the counter's layers for
/// one tile (about four for ten sets) and the carry stay in the L1 cache.
const FOLD_TILE_WORDS: usize = 512;

/// The two facts a cover verification needs from `sets`, all over
/// `target`'s domain: the maximum number of sets sharing an element, and
/// whether their union is exactly `target`.
///
/// One serial pass that reads every set once: the domain is counted tile
/// by tile in one reused [`OverlapCounter`], whose layers stay in the L1
/// cache, so no domain-sized counter or union is ever written. Equal to
/// accumulating the whole sets into one counter and asking
/// [`OverlapCounter::max_count`] and `any() == target`.
pub(crate) fn overlap_fold(sets: &[WordSet], target: &WordSet) -> (usize, bool) {
    for set in sets {
        target.check_domain(set);
    }
    let words = target.bits.len();
    let tile = words.clamp(1, FOLD_TILE_WORDS);
    let mut counter = OverlapCounter::new(tile as u64 * 64);
    let mut max = 0usize;
    let mut union_equals = true;
    for lo in (0..words).step_by(tile) {
        let hi = (lo + tile).min(words);
        counter.clear();
        for set in sets {
            counter.add_words(&set.bits[lo..hi]);
        }
        union_equals &= counter.union_equals_words(&target.bits[lo..hi]);
        max = max.max(counter.max_count());
    }
    (max, union_equals)
}

/// Which canonical bitmap a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Canonical {
    /// `L_n` over the word domain.
    Ln,
    /// The family `𝓛` over the word domain.
    Family,
    /// `A ⊆ 𝓛` (odd witness count) over the family-rank domain.
    FamilyA,
    /// `B = 𝓛 ∖ A` over the family-rank domain.
    FamilyB,
}

/// The process-wide canonical-bitmap cache, keyed by (kind, n). Each key
/// maps to a once-cell slot so a bitmap is built **exactly once** no
/// matter how many threads race for it (latecomers block on the slot).
type CacheSlot = Arc<OnceLock<Arc<WordSet>>>;
type CanonicalCache = Mutex<BTreeMap<(Canonical, usize), CacheSlot>>;

fn cache() -> &'static CanonicalCache {
    static CACHE: OnceLock<CanonicalCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn cached(kind: Canonical, n: usize, build: impl FnOnce() -> WordSet) -> Arc<WordSet> {
    use std::collections::btree_map::Entry;
    let slot = match cache()
        .lock()
        .expect("wordset cache poisoned")
        .entry((kind, n))
    {
        Entry::Occupied(e) => e.get().clone(),
        Entry::Vacant(v) => v.insert(Arc::new(OnceLock::new())).clone(),
    };
    // The map lock is NOT held across `build`: builders may recurse into
    // the cache (e.g. `family_b_bitmap` builds from `family_a_bitmap`,
    // a different key). The per-key once-cell guarantees exactly one
    // build — concurrent callers for the same key block here instead of
    // racing duplicate builds, so `wordset.cache.misses` counts each
    // distinct key exactly once.
    let mut built_here = false;
    let set = slot
        .get_or_init(|| {
            built_here = true;
            Arc::new(build())
        })
        .clone();
    if built_here {
        obs::count!("wordset.cache.misses");
        obs::gauge_add!("wordset.cache.bytes", (set.blocks().len() * 8) as i64);
        obs::gauge_set!("wordset.cache.len", canonical_cache_len() as i64);
    } else {
        obs::count!("wordset.cache.hits");
    }
    set
}

/// Number of canonical bitmaps currently cached (slots whose build has
/// started; with the once-cell discipline that equals the distinct keys
/// requested since the last [`clear_canonical_cache`]).
pub fn canonical_cache_len() -> usize {
    cache().lock().expect("wordset cache poisoned").len()
}

/// Drop every cached canonical bitmap and return how many entries were
/// dropped. Outstanding `Arc` handles keep their data alive; the next
/// request per key rebuilds (a fresh `wordset.cache.misses`). Bumps the
/// `wordset.cache.clears` counter and resets the resident-bytes / length
/// gauges, which track bytes built into the cache since the last clear.
pub fn clear_canonical_cache() -> usize {
    let mut map = cache().lock().expect("wordset cache poisoned");
    let dropped = map.len();
    map.clear();
    obs::count!("wordset.cache.clears");
    obs::gauge_set!("wordset.cache.bytes", 0);
    obs::gauge_set!("wordset.cache.len", 0);
    dropped
}

/// The canonical `L_n` bitmap over the word domain `{a,b}^{2n}` (cached
/// per `n`; built once with the serial scan so the cached bytes never
/// depend on the ambient thread count).
pub fn ln_bitmap(n: usize) -> Arc<WordSet> {
    // Regression (same class PR 4 fixed in `empty_words`): the domain is
    // computed through the guarded helper so `n ≥ 16` dies with the cap
    // message *before* the `1u64 << (2 * n)` shift can wrap in release.
    let domain = word_domain(n);
    cached(Canonical::Ln, n, || {
        WordSet::from_pred_threads(domain, 1, |w| ln_contains(n, w as Word))
    })
}

/// The family `𝓛` as a word-domain bitmap (cached per `n`; needs
/// `n ≡ 0 mod 4`).
pub fn family_bitmap(n: usize) -> Arc<WordSet> {
    assert!(supports_blocks(n));
    let domain = word_domain(n);
    cached(Canonical::Family, n, || {
        WordSet::from_pred_threads(domain, 1, |w| crate::discrepancy::in_family(n, w as Word))
    })
}

/// `A ⊆ 𝓛` (odd witness count) over the **family-rank domain**: bit `i`
/// is set iff the member `family_unrank(n, i)` lies in `A`. Cached per
/// `n`.
pub fn family_a_bitmap(n: usize) -> Arc<WordSet> {
    assert!(supports_blocks(n));
    let domain = family_domain(n);
    cached(Canonical::FamilyA, n, || {
        WordSet::from_pred_threads(domain, 1, |i| {
            in_a(n, crate::discrepancy::family_unrank(n, i))
        })
    })
}

/// `B = 𝓛 ∖ A` over the family-rank domain. Cached per `n`.
pub fn family_b_bitmap(n: usize) -> Arc<WordSet> {
    assert!(supports_blocks(n));
    let domain = family_domain(n);
    cached(Canonical::FamilyB, n, || {
        let a = family_a_bitmap(n);
        WordSet::full(domain).andnot(&a)
    })
}

/// The bitmap `{ a | b : a ∈ s, b ∈ t }` over `domain` — the shared
/// product-construction kernel of [`crate::rectangle::SetRectangle::to_wordset`]
/// and the aligned-partition route of [`family_rectangle_bitmap_threads`].
///
/// Instead of one read-modify-write per pair, the inner side is grouped by
/// high word (`b >> 6`): for a fixed low-6-bit pattern of `a`, each group
/// collapses to a single precomputed 64-bit mask (`⋁ 1 << ((a & 63) | (b
/// & 63))`), so the hot loop does one register OR per `(a, group)` — the
/// per-low-pattern mask columns are built lazily, at most 64 of them, so
/// the setup cost stays below one pass over the pairs. Duplicate members
/// OR harmlessly; the result is the exact member set in every case.
///
/// Panics if any `a | b` lies outside `domain` (the per-pair `insert`
/// builder enforced the same contract).
pub fn pair_or_bitmap(domain: u64, s: &[u64], t: &[u64]) -> WordSet {
    let mut out = WordSet::empty(domain);
    if s.is_empty() || t.is_empty() {
        return out;
    }
    // The grouped (inner) side should be the one with the richer low-bit
    // variety: its groups then hold several members each, and every group
    // OR replaces that many per-pair stores.
    let distinct_lows = |keys: &[u64]| {
        keys.iter()
            .fold(0u64, |m, &k| m | 1u64 << (k & 63))
            .count_ones()
    };
    let (outer, inner) = if distinct_lows(s) >= distinct_lows(t) {
        (t, s)
    } else {
        (s, t)
    };
    // Ascending order groups equal high words contiguously.
    let mut inner_sorted: Vec<u64> = inner.to_vec();
    inner_sorted.sort_unstable();
    let mut group_hi: Vec<usize> = Vec::new();
    let mut group_start: Vec<u32> = Vec::new();
    let mut lows: Vec<u8> = Vec::with_capacity(inner_sorted.len());
    for &b in &inner_sorted {
        let hi = block_index(b);
        if group_hi.last() != Some(&hi) {
            group_hi.push(hi);
            group_start.push(lows.len() as u32);
        }
        lows.push((b & 63) as u8);
    }
    group_start.push(lows.len() as u32);
    let blocks = out.bits.len();
    let tail_allowed = if domain.is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (domain % 64)) - 1
    };
    // cols[al][g]: the group-g mask for outer keys with low bits `al`
    // (empty = not built yet; a built column always has ≥ 1 group).
    let mut cols: Vec<Vec<u64>> = vec![Vec::new(); 64];
    for &a in outer {
        let ah = block_index(a);
        let al = (a & 63) as usize;
        if cols[al].is_empty() {
            cols[al] = group_hi
                .iter()
                .enumerate()
                .map(|(g, _)| {
                    lows[group_start[g] as usize..group_start[g + 1] as usize]
                        .iter()
                        .fold(0u64, |m, &bl| m | 1u64 << (al as u32 | u32::from(bl)))
                })
                .collect();
        }
        let col = &cols[al];
        for (g, &hi) in group_hi.iter().enumerate() {
            let block = ah | hi;
            let mask = col[g];
            assert!(
                block < blocks && (block + 1 < blocks || mask & !tail_allowed == 0),
                "pair_or_bitmap: member out of the {domain}-bit domain"
            );
            out.bits[block] |= mask;
        }
    }
    out
}

/// The family-rank bitmap of `R ∩ 𝓛` for a rectangle `R = S × T`, built
/// in `O(min(|S|·|T|, 2^n))`: sparse rectangles rank each member pair
/// `u ∪ v` directly, while rectangles whose product exceeds the family
/// size (Example 8's cover rectangles, where `|S|·|T| ≫ |𝓛|`) fall back
/// to one membership probe per family rank. Both routes produce the same
/// set, so the choice never changes the bytes.
pub fn family_rectangle_bitmap(n: usize, r: &crate::rectangle::SetRectangle) -> WordSet {
    family_rectangle_bitmap_threads(n, r, par::thread_count())
}

/// [`family_rectangle_bitmap`] with an explicit worker count: the `S` side
/// is chunked over the deterministic parallel layer and the partial
/// bitmaps are OR-merged. The union is the same set for every chunking,
/// so the bytes are bit-identical for every `threads ≥ 1`.
pub fn family_rectangle_bitmap_threads(
    n: usize,
    r: &crate::rectangle::SetRectangle,
    threads: usize,
) -> WordSet {
    assert!(supports_blocks(n));
    let domain = family_domain(n);
    let s: Vec<u64> = r.s.iter().copied().collect();
    let t: Vec<u64> = r.t.iter().copied().collect();
    if s.is_empty() || t.is_empty() {
        return WordSet::empty(domain);
    }
    // Aligned fast route: when the partition cuts on 4-block boundaries
    // (the `[1, n]` cut of the discrepancy experiments always does), the
    // family test and the rank both split across the sides, so each side
    // reduces once to its valid members' rank contributions and the
    // product becomes a pure `contrib(u) | contrib(v)` sweep through the
    // grouped [`pair_or_bitmap`] kernel — no per-pair membership or rank
    // work at all. Both routes build the same set, so the choice never
    // changes the bytes.
    use crate::discrepancy::{nibble_aligned, side_rank_contrib};
    let low = crate::words::low_mask(2 * n);
    let ins = r.partition.inside() & low;
    let outs = r.partition.outside() & low;
    if nibble_aligned(ins) && s.iter().all(|&u| u & !ins == 0) && t.iter().all(|&v| v & !outs == 0)
    {
        obs::count!("wordset.rect.aligned_route");
        let sv: Vec<u64> = s
            .iter()
            .filter_map(|&u| side_rank_contrib(ins, u))
            .collect();
        let mut tv: Vec<u64> = t
            .iter()
            .filter_map(|&v| side_rank_contrib(outs, v))
            .collect();
        tv.sort_unstable();
        if sv.is_empty() || tv.is_empty() {
            return WordSet::empty(domain);
        }
        let chunk = sv.len().div_ceil(threads.max(1)).max(1);
        let partials = par::run_chunks(sv.len().div_ceil(chunk), threads, |ci| {
            let lo = ci * chunk;
            pair_or_bitmap(domain, &sv[lo..(lo + chunk).min(sv.len())], &tv)
        });
        let mut out = WordSet::empty(domain);
        for p in &partials {
            out.union_with(p);
        }
        return out;
    }
    if (s.len() as u128) * (t.len() as u128) > u128::from(domain) {
        // Dense rectangle: scanning the 2^n family ranks beats enumerating
        // the |S|·|T| product.
        obs::count!("wordset.rect.scan_route");
        return WordSet::from_pred_threads(domain, threads, |i| {
            r.contains(crate::discrepancy::family_unrank(n, i))
        });
    }
    obs::count!("wordset.rect.product_route");
    let chunk = s.len().div_ceil(64).max(1);
    let partials = par::run_chunks(s.len().div_ceil(chunk), threads, |ci| {
        let lo = ci * chunk;
        let mut part = WordSet::empty(domain);
        for &u in &s[lo..(lo + chunk).min(s.len())] {
            for &v in &t {
                let w = u | v;
                if crate::discrepancy::in_family(n, w) {
                    part.insert(family_rank(n, w));
                }
            }
        }
        part
    });
    let mut out = WordSet::empty(domain);
    for p in &partials {
        out.union_with(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words;
    use std::collections::BTreeSet;

    #[test]
    fn empty_full_and_membership() {
        for domain in [0u64, 1, 63, 64, 65, 130] {
            let e = WordSet::empty(domain);
            let f = WordSet::full(domain);
            assert_eq!(e.count(), 0, "domain {domain}");
            assert_eq!(f.count(), domain, "domain {domain}");
            assert!(e.is_empty());
            for k in 0..domain {
                assert!(!e.contains(k));
                assert!(f.contains(k));
            }
            assert!(!f.contains(domain), "out-of-domain probe is false");
        }
    }

    #[test]
    fn algebra_matches_btreeset_model() {
        let domain = 200u64;
        let a_model: BTreeSet<u64> = (0..domain).filter(|k| k % 3 == 0).collect();
        let b_model: BTreeSet<u64> = (0..domain).filter(|k| k % 5 == 1).collect();
        let mut a = WordSet::empty(domain);
        let mut b = WordSet::empty(domain);
        a_model.iter().for_each(|&k| a.insert(k));
        b_model.iter().for_each(|&k| b.insert(k));

        assert_eq!(a.count(), a_model.len() as u64);
        assert_eq!(
            a.and(&b).iter().collect::<BTreeSet<_>>(),
            &a_model & &b_model
        );
        assert_eq!(
            a.or(&b).iter().collect::<BTreeSet<_>>(),
            &a_model | &b_model
        );
        assert_eq!(
            a.andnot(&b).iter().collect::<BTreeSet<_>>(),
            &a_model - &b_model
        );
        assert_eq!(a.and_count(&b), (&a_model & &b_model).len() as u64);
        assert_eq!(a.is_disjoint(&b), (&a_model & &b_model).is_empty());
        assert!(a.is_subset(&a.or(&b)));
        assert!(!a.or(&b).is_subset(&a) || b_model.is_subset(&a_model));

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.or(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, a.and(&b));

        a.remove(0);
        assert!(!a.contains(0));
    }

    #[test]
    fn iter_ascending_and_roundtrip() {
        let mut s = WordSet::empty(300);
        for k in [0u64, 1, 63, 64, 127, 128, 255, 299] {
            s.insert(k);
        }
        let got: Vec<u64> = s.iter().collect();
        assert_eq!(got, vec![0, 1, 63, 64, 127, 128, 255, 299]);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn from_pred_is_thread_invariant() {
        let domain = 1u64 << 14;
        let serial = WordSet::from_pred_threads(domain, 1, |k| k.count_ones() % 3 == 0);
        for threads in [2usize, 8] {
            assert_eq!(
                serial,
                WordSet::from_pred_threads(domain, threads, |k| k.count_ones() % 3 == 0),
                "threads {threads}"
            );
        }
        assert_eq!(
            serial,
            WordSet::from_pred(domain, |k| k.count_ones() % 3 == 0)
        );
    }

    /// Tests that rely on cache identity (`Arc::ptr_eq`) or clear the
    /// process-wide cache must not interleave under the parallel runner.
    fn cache_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn ln_bitmap_matches_enumeration() {
        let _g = cache_gate();
        for n in [2usize, 3, 5] {
            let bm = ln_bitmap(n);
            assert_eq!(bm.count(), words::ln_size(n).to_u64().unwrap(), "n={n}");
            assert!(bm.iter().eq(words::ln_iter(n)), "n={n}");
            // Cached: a second call returns the same allocation.
            assert!(Arc::ptr_eq(&bm, &ln_bitmap(n)));
        }
    }

    #[test]
    fn family_bitmaps_match_scalar_membership() {
        for n in [4usize, 8] {
            let fam = family_bitmap(n);
            let a = family_a_bitmap(n);
            let b = family_b_bitmap(n);
            assert_eq!(fam.count(), 1 << n, "|𝓛| = 2^n");
            assert_eq!(a.count() + b.count(), 1 << n, "A ⊎ B = 𝓛");
            assert!(a.is_disjoint(&b));
            for i in 0..(1u64 << n) {
                let w = crate::discrepancy::family_unrank(n, i);
                assert!(fam.contains(w), "unrank lands in 𝓛");
                assert_eq!(a.contains(i), in_a(n, w), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn rectangle_bitmap_routes_agree_on_dense_rectangles() {
        // Example 8's cover rectangles have |S|·|T| ≫ 2^n, so they take
        // the family-rank scan route; the bytes must match the brute
        // per-rank membership probe (the product route's invariant) for
        // every thread count.
        let n = 8usize;
        let mut saw_dense = false;
        for r in crate::cover::example8_cover(n) {
            let expected = WordSet::from_pred_threads(1u64 << n, 1, |i| {
                r.contains(crate::discrepancy::family_unrank(n, i))
            });
            saw_dense |= (r.s.len() as u128) * (r.t.len() as u128) > 1 << n;
            for threads in [1usize, 4] {
                assert_eq!(expected, family_rectangle_bitmap_threads(n, &r, threads));
            }
        }
        assert!(saw_dense, "at least one rectangle exercises the scan route");
    }

    #[test]
    fn pair_or_bitmap_matches_per_pair_inserts() {
        // The grouped product kernel against the naive per-pair insert
        // loop, over ragged and word-aligned domains, with key sets that
        // collide, interleave high words, and sit on the domain boundary.
        let keysets: &[(&[u64], &[u64])] = &[
            (&[0], &[0]),
            (&[0, 3, 5], &[0, 8, 16, 24]),
            (&[1, 2, 4, 64, 129], &[0, 32, 63]),
            (&[0, 63, 64, 127, 128], &[0, 1, 2, 3]),
            (&[6, 70, 134], &[1, 57]),
        ];
        for &(s, t) in keysets {
            let max = s
                .iter()
                .flat_map(|&a| t.iter().map(move |&b| a | b))
                .max()
                .unwrap();
            for domain in [max + 1, (max + 1).next_multiple_of(64), max + 77] {
                let mut expected = WordSet::empty(domain);
                for &a in s {
                    for &b in t {
                        expected.insert(a | b);
                    }
                }
                assert_eq!(expected, pair_or_bitmap(domain, s, t), "domain {domain}");
                // Symmetric in the sides.
                assert_eq!(expected, pair_or_bitmap(domain, t, s), "domain {domain}");
            }
        }
        // Empty sides give the empty set.
        assert!(pair_or_bitmap(100, &[], &[1]).is_empty());
        assert!(pair_or_bitmap(100, &[1], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of the")]
    fn pair_or_bitmap_rejects_out_of_domain_members() {
        let _ = pair_or_bitmap(64, &[1], &[64]);
    }

    #[test]
    fn aligned_rectangle_route_matches_the_per_pair_route() {
        // The block-aligned [1, n] cut takes the rank-contribution fast
        // route; its bytes must equal the brute per-rank membership probe
        // for sparse and dense sides alike, at every thread count.
        use crate::partition::OrderedPartition;
        use std::collections::BTreeSet;
        for n in [4usize, 8] {
            let part = OrderedPartition::new(n, 1, n);
            let (s_all, t_all) = crate::discrepancy::family_side_patterns(n, part);
            let cases: Vec<(BTreeSet<u64>, BTreeSet<u64>)> = vec![
                (
                    s_all.iter().copied().step_by(3).collect(),
                    t_all.iter().copied().step_by(2).collect(),
                ),
                (
                    s_all.iter().copied().collect(),
                    t_all.iter().copied().collect(),
                ),
                // An invalid S member (two bits in one block) contributes
                // nothing on any route.
                (
                    BTreeSet::from([0b11u64, s_all[0]]),
                    t_all.iter().copied().collect(),
                ),
            ];
            for (s, t) in cases {
                let r = crate::rectangle::SetRectangle {
                    partition: part,
                    s,
                    t,
                };
                let expected = WordSet::from_pred_threads(1u64 << n, 1, |i| {
                    r.contains(crate::discrepancy::family_unrank(n, i))
                });
                for threads in [1usize, 2, 8] {
                    assert_eq!(
                        expected,
                        family_rectangle_bitmap_threads(n, &r, threads),
                        "n={n} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_counter_counts_exactly() {
        let domain = 192u64;
        let sets: Vec<WordSet> = (0..5u64)
            .map(|s| WordSet::from_pred_threads(domain, 1, move |k| (k + s).is_multiple_of(s + 2)))
            .collect();
        let mut counter = OverlapCounter::new(domain);
        for s in &sets {
            counter.add(s);
        }
        let scalar_count = |k: u64| -> usize { sets.iter().filter(|s| s.contains(k)).count() };
        let max = (0..domain).map(scalar_count).max().unwrap();
        assert_eq!(counter.max_count(), max);
        for k in 0..=max {
            let exact = counter.exactly(k);
            for e in 0..domain {
                assert_eq!(exact.contains(e), scalar_count(e) == k, "k={k} e={e}");
            }
        }
        assert_eq!(
            counter.any().iter().collect::<Vec<_>>(),
            (0..domain)
                .filter(|&e| scalar_count(e) > 0)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn overlap_fold_matches_a_whole_domain_counter() {
        // Two and a half tiles, so the last tile is partial; the maximum
        // is attained only in the last one.
        let domain = (5 * FOLD_TILE_WORDS as u64 / 2) * 64 + 100;
        let mut sets: Vec<WordSet> = (0..7u64)
            .map(|s| WordSet::from_pred_threads(domain, 1, move |k| (k * 7 + s) % (s + 3) == 0))
            .collect();
        for set in &mut sets {
            set.insert(domain - 1);
        }
        let mut counter = OverlapCounter::new(domain);
        for s in &sets {
            counter.add(s);
        }
        let union = counter.any();
        assert_eq!(counter.max_count(), 7);
        assert_eq!(overlap_fold(&sets, &union), (7, true));
        let mut other = union.clone();
        other.remove(domain - 1);
        assert_eq!(overlap_fold(&sets, &other), (7, false));
        assert!(!overlap_fold(&sets[..2], &union).1);
        // No sets: nothing is covered.
        assert_eq!(overlap_fold(&[], &WordSet::empty(domain)), (0, true));
        assert_eq!(overlap_fold(&[], &union), (0, false));
    }

    #[test]
    fn overlap_counter_empty_and_single() {
        let c = OverlapCounter::new(128);
        assert_eq!(c.max_count(), 0);
        assert_eq!(c.exactly(0), WordSet::full(128));
        assert!(c.any().is_empty());

        let mut c = OverlapCounter::new(128);
        let mut s = WordSet::empty(128);
        s.insert(7);
        for _ in 0..9 {
            c.add(&s); // carries ripple through multiple layers
        }
        assert_eq!(c.max_count(), 9);
        assert!(c.exactly(9).contains(7));
        assert_eq!(c.exactly(9).count(), 1);
        assert_eq!(c.exactly(0).count(), 127);
    }

    #[test]
    #[should_panic(expected = "materialisation cap")]
    fn domain_cap_enforced() {
        let _ = WordSet::empty(MAX_DOMAIN_BITS + 1);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_insert_panics_in_every_profile() {
        // Regression: with `debug_assert!` bounds this silently set bit
        // 100 of the last block in release, corrupting `count()`.
        let mut s = WordSet::empty(100);
        s.insert(100);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_remove_panics_in_every_profile() {
        let mut s = WordSet::empty(100);
        s.remove(127);
    }

    #[test]
    fn out_of_domain_insert_cannot_corrupt_counts() {
        // `insert(domain)` with domain < blocks·64 lands inside the last
        // backing block; prove it can no longer inflate `count()`.
        let mut s = WordSet::empty(100);
        s.insert(99);
        for k in [100u64, 101, 127] {
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.insert(k)));
            assert!(attempt.is_err(), "insert({k}) must panic");
        }
        assert_eq!(s.count(), 1, "tail bits stay clear after rejected inserts");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![99]);
    }

    #[test]
    fn empty_words_at_the_cap_boundary() {
        // 2n = 30 is exactly the materialisation cap.
        assert_eq!(WordSet::empty_words(15).domain(), MAX_DOMAIN_BITS);
    }

    #[test]
    #[should_panic(expected = "materialisation cap")]
    fn empty_words_overflow_gets_the_cap_message() {
        // Regression: n = 32 used to evaluate `1u64 << 64` *before* the
        // cap check — a shift-overflow panic in debug and a silently
        // wrapped (domain = 1!) set in release. Now it dies with the
        // cap message before the shift.
        let _ = WordSet::empty_words(32);
    }

    #[test]
    #[should_panic(expected = "materialisation cap")]
    fn empty_words_just_past_the_cap_gets_the_cap_message() {
        let _ = WordSet::empty_words(16);
    }

    #[test]
    fn guarded_domains_at_the_cap_boundary() {
        // 2n = 30 (n = 15) and n = 30 sit exactly at the cap: the guarded
        // helpers return the cap itself without panicking. Checked on the
        // helpers directly — building a 128 MiB bitmap just to probe the
        // boundary would be the expensive way to say the same thing.
        assert_eq!(word_domain(15), MAX_DOMAIN_BITS);
        assert_eq!(family_domain(30), MAX_DOMAIN_BITS);
    }

    #[test]
    #[should_panic(expected = "materialisation cap")]
    fn ln_bitmap_just_past_the_cap_gets_the_cap_message() {
        let _ = ln_bitmap(16);
    }

    #[test]
    #[should_panic(expected = "materialisation cap")]
    fn ln_bitmap_overflow_gets_the_cap_message() {
        // Regression: n = 32 used to hit `1u64 << 64` before any check —
        // the exact masked-shift class PR 4 fixed in `empty_words`.
        let _ = ln_bitmap(32);
    }

    #[test]
    #[should_panic(expected = "materialisation cap")]
    fn family_bitmap_just_past_the_cap_gets_the_cap_message() {
        let _ = family_bitmap(16);
    }

    #[test]
    #[should_panic(expected = "materialisation cap")]
    fn family_a_bitmap_overflow_gets_the_cap_message() {
        // `supports_blocks(32)` holds (2n = 64), so before the guarded
        // helper this reached `1u64 << 32`-sized allocation paths; the
        // family-domain guard now dies first with the cap message.
        let _ = family_a_bitmap(32);
    }

    #[test]
    #[should_panic(expected = "materialisation cap")]
    fn family_b_bitmap_overflow_gets_the_cap_message() {
        let _ = family_b_bitmap(32);
    }

    #[test]
    #[should_panic(expected = "materialisation cap")]
    fn family_rectangle_bitmap_overflow_gets_the_cap_message() {
        // The guard fires on the domain computation, before S/T are even
        // looked at, so an empty rectangle suffices.
        let r = crate::rectangle::SetRectangle::new(
            crate::partition::OrderedPartition::new(32, 1, 32),
            BTreeSet::new(),
            BTreeSet::new(),
        );
        let _ = family_rectangle_bitmap_threads(32, &r, 1);
    }

    #[test]
    fn cache_clear_and_len_round_trip() {
        let _g = cache_gate();
        let before = canonical_cache_len();
        let bm = ln_bitmap(2);
        assert!(canonical_cache_len() >= 1.max(before));
        let dropped = clear_canonical_cache();
        assert!(dropped >= 1);
        assert_eq!(canonical_cache_len(), 0);
        // Outstanding handles stay valid; the next request rebuilds.
        assert_eq!(bm.count(), ln_bitmap(2).count());
        assert!(!Arc::ptr_eq(&bm, &ln_bitmap(2)));
    }

    #[test]
    #[should_panic(expected = "mismatched domains")]
    fn mismatched_domains_panic() {
        let _ = WordSet::empty(64).and_count(&WordSet::empty(128));
    }
}
