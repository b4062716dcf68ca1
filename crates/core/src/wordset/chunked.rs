//! Chunked / streamed wordset algebra past the materialisation cap.
//!
//! [`super::WordSet`] hard-caps materialisation at [`MAX_DOMAIN_BITS`]
//! (2^30 bits), which stops exhaustive word-domain kernels near `n = 15`.
//! This module lifts that ceiling *without* raising the cap: a logical
//! domain is split into fixed-size chunks (default [`DEFAULT_CHUNK_BITS`]
//! = 2^26 bits, overridable via the [`CHUNK_ENV`] environment variable or
//! an explicit [`ChunkPlan`]), each chunk is materialised as an ordinary
//! `WordSet`, combined, folded into scalar aggregates, and dropped —
//! through the deterministic [`par`] layer, so no worker ever holds more
//! than a few chunk-sized bitmaps and the full domain is never allocated.
//!
//! Chunk boundaries depend only on the plan (never on the thread count)
//! and all per-chunk aggregates merge with order-free operations (sums,
//! maxima, XORs), so every result here is bit-identical across
//! `UCFG_THREADS` *and* across chunk sizes — the invariant the
//! differential suite and the CI chunked-determinism job pin down.
//!
//! Cross-domain comparisons use an order-invariant **digest**
//! ([`set_digest`] / [`digest_words`]): every nonzero 64-bit backing
//! block contributes `FNV1a(global_block_index, block)` and the
//! contributions XOR together. Chunks own whole blocks (chunk sizes are
//! multiples of 64), so the digest of a streamed domain equals the digest
//! of the same domain materialised in one piece — equal sets have equal
//! digests no matter how they were produced.
//!
//! Kernels route here through [`WordSetSource`]: in-memory below the cap,
//! chunked above it (or whenever [`CHUNK_ENV`] forces the chunked path,
//! which is how CI exercises it at small `n`).

use super::{OverlapCounter, WordSet, MAX_DOMAIN_BITS};
use crate::discrepancy::{family_unrank, in_a, supports_blocks};
use crate::rectangle::SetRectangle;
use crate::words::{ln_contains, Word};
use std::ops::Range;
use ucfg_support::fnv::Fnv1a;
use ucfg_support::{obs, par};

/// Environment variable overriding the chunk size in **bits** (a power of
/// two ≥ 64). Setting it also *forces* the chunked path below the cap —
/// the lever the CI determinism job uses to exercise chunked kernels at
/// small `n`.
pub const CHUNK_ENV: &str = "UCFG_WORDSET_CHUNK";

/// Default chunk size: 2^26 bits = 8 MiB per materialised chunk.
pub const DEFAULT_CHUNK_BITS: u64 = 1 << 26;

/// Is `bits` a valid chunk size? Power of two so chunk indexing is a
/// shift, ≥ 64 so chunks own whole backing blocks (which is what makes
/// [`set_digest`] chunk-size-invariant), ≤ the cap so every chunk is
/// materialisable.
fn valid_chunk_bits(bits: u64) -> bool {
    bits.is_power_of_two() && (64..=MAX_DOMAIN_BITS).contains(&bits)
}

/// Parse a chunk-size override (`ucfg --chunk-bits` or [`CHUNK_ENV`]);
/// `Err` carries the reason.
pub fn parse_chunk_bits(spec: &str) -> Result<u64, String> {
    let bits: u64 = spec
        .trim()
        .parse()
        .map_err(|_| format!("invalid chunk size '{spec}' (want an integer number of bits)"))?;
    if !valid_chunk_bits(bits) {
        return Err(format!(
            "invalid chunk size {bits}: want a power of two in [64, {MAX_DOMAIN_BITS}]"
        ));
    }
    Ok(bits)
}

/// The process-wide chunk-size override: [`CHUNK_ENV`] when set.
/// A present-but-malformed value panics — a CI job that typos the
/// variable must fail, not silently fall back to in-memory kernels.
pub fn chunk_override() -> Option<u64> {
    let spec = std::env::var(CHUNK_ENV).ok()?;
    Some(parse_chunk_bits(&spec).unwrap_or_else(|e| panic!("{CHUNK_ENV}: {e}")))
}

/// Set the chunk-size override for this process by setting [`CHUNK_ENV`]
/// — the funnel behind `ucfg --chunk-bits`. Also forces
/// the chunked path below the cap (see [`WordSetSource`]).
pub fn set_chunk_bits(bits: u64) {
    assert!(
        valid_chunk_bits(bits),
        "invalid chunk size {bits}: want a power of two in [64, {MAX_DOMAIN_BITS}]"
    );
    std::env::set_var(CHUNK_ENV, bits.to_string());
}

/// The logical word-domain size `2^{2n}` **without** the materialisation
/// cap — the address space the chunked kernels stream over. Still guarded
/// against shift overflow: `u64` addressing stops at `2n ≤ 63`.
pub fn logical_word_domain(n: usize) -> u64 {
    assert!(
        2 * n <= 63,
        "word domain 2^{} for n = {n} exceeds u64 addressing (2n ≤ 63)",
        2 * n
    );
    1u64 << (2 * n)
}

/// The logical family-rank domain size `2^n` without the cap (guarded at
/// `n ≤ 63` like [`logical_word_domain`]).
pub fn logical_family_domain(n: usize) -> u64 {
    assert!(
        n <= 63,
        "family domain 2^{n} exceeds u64 addressing (n ≤ 63)"
    );
    1u64 << n
}

/// A fixed split of a logical domain into power-of-two chunks. Chunk
/// boundaries are a pure function of `(domain, chunk_bits)`, so every
/// downstream aggregate is reproducible by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    domain: u64,
    chunk_bits: u64,
}

impl ChunkPlan {
    /// A plan over `domain` with the ambient chunk size: the
    /// [`chunk_override`] when set, else [`DEFAULT_CHUNK_BITS`].
    pub fn new(domain: u64) -> ChunkPlan {
        Self::with_chunk_bits(domain, chunk_override().unwrap_or(DEFAULT_CHUNK_BITS))
    }

    /// Builder: a plan with an explicit chunk size (power of two in
    /// `[64, MAX_DOMAIN_BITS]`).
    pub fn with_chunk_bits(domain: u64, chunk_bits: u64) -> ChunkPlan {
        assert!(
            valid_chunk_bits(chunk_bits),
            "invalid chunk size {chunk_bits}: want a power of two in [64, {MAX_DOMAIN_BITS}]"
        );
        ChunkPlan { domain, chunk_bits }
    }

    /// The logical domain this plan streams over.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Bits per chunk (the last chunk may be shorter when the domain is
    /// not a multiple — power-of-two domains always split evenly).
    pub fn chunk_bits(&self) -> u64 {
        self.chunk_bits
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.domain.div_ceil(self.chunk_bits).max(1) as usize
    }

    /// The half-open element range of chunk `ci`.
    pub fn chunk_range(&self, ci: usize) -> Range<u64> {
        let lo = ci as u64 * self.chunk_bits;
        lo..(lo + self.chunk_bits).min(self.domain)
    }
}

/// How a kernel should obtain its domain: materialised in one piece
/// (below the cap) or streamed chunk by chunk (above it, or whenever the
/// [`CHUNK_ENV`] override forces the chunked path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordSetSource {
    /// The whole domain fits under [`MAX_DOMAIN_BITS`]: materialise it.
    InMemory {
        /// The domain size in bits.
        domain: u64,
    },
    /// Stream the domain through the given plan.
    Chunked(ChunkPlan),
}

impl WordSetSource {
    /// The source for an arbitrary logical domain: chunked when the
    /// domain exceeds the cap or [`chunk_override`] is set, in-memory
    /// otherwise.
    pub fn for_domain(domain: u64) -> WordSetSource {
        if domain > MAX_DOMAIN_BITS || chunk_override().is_some() {
            WordSetSource::Chunked(ChunkPlan::new(domain))
        } else {
            WordSetSource::InMemory { domain }
        }
    }

    /// The source for the word domain `{a,b}^{2n}`.
    pub fn for_word_domain(n: usize) -> WordSetSource {
        Self::for_domain(logical_word_domain(n))
    }

    /// The source for the family-rank domain `2^n`.
    pub fn for_family_domain(n: usize) -> WordSetSource {
        Self::for_domain(logical_family_domain(n))
    }

    /// Is this the chunked path?
    pub fn is_chunked(&self) -> bool {
        matches!(self, WordSetSource::Chunked(_))
    }

    /// The logical domain size.
    pub fn domain(&self) -> u64 {
        match *self {
            WordSetSource::InMemory { domain } => domain,
            WordSetSource::Chunked(plan) => plan.domain(),
        }
    }

    /// A one-line human description (for the CLI and experiment logs).
    pub fn describe(&self) -> String {
        match *self {
            WordSetSource::InMemory { domain } => format!("in-memory ({domain} bits)"),
            WordSetSource::Chunked(plan) => format!(
                "chunked ({} bits in {} chunks of {})",
                plan.domain(),
                plan.num_chunks(),
                plan.chunk_bits()
            ),
        }
    }
}

/// Order-invariant digest of a run of backing words starting at bit
/// `base_bit` (a multiple of 64) of some logical domain: every nonzero
/// word at global block index `i` contributes `FNV1a(i, word)`, XORed
/// together. Zero words contribute nothing, so the digest of a set equals
/// the XOR of the digests of any chunking of it.
pub fn digest_words(base_bit: u64, words: &[u64]) -> u64 {
    debug_assert!(base_bit.is_multiple_of(64), "chunks must own whole blocks");
    let base_block = base_bit / 64;
    let mut acc = 0u64;
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            acc ^= Fnv1a::new()
                .write_u64(base_block + i as u64)
                .write_u64(w)
                .finish();
        }
    }
    acc
}

/// [`digest_words`] over a whole materialised set (base bit 0). Equal
/// sets have equal digests; a chunked scan producing the same logical set
/// XORs to the same value.
pub fn set_digest(set: &WordSet) -> u64 {
    digest_words(0, set.blocks())
}

/// Aggregates of one streamed cover-verification pass — everything
/// [`crate::cover::CoverReport`] needs plus the counts and digests the
/// differential suite and the CI determinism job byte-compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverScan {
    /// Number of rectangles.
    pub size: usize,
    /// Union of the rectangles equals `L_n` exactly.
    pub covers_exactly: bool,
    /// All rectangles balanced (a per-rectangle property, domain-free).
    pub all_balanced: bool,
    /// Maximum number of rectangles containing a single word.
    pub max_overlap: usize,
    /// `|⋃ R_i|`.
    pub union_count: u64,
    /// Digest of `⋃ R_i` ([`set_digest`] scheme).
    pub union_digest: u64,
    /// `|L_n|`.
    pub ln_count: u64,
    /// Digest of `L_n`.
    pub ln_digest: u64,
}

/// The chunk of rectangle `r`'s word-domain bitmap restricted to
/// `[base, base + len)`, built by filtering both sides on their high
/// bits: `S` and `T` live on disjoint position masks, so `u ∪ v` lands in
/// the chunk iff `u` matches the chunk base on `Π₀`'s high positions and
/// `v` matches it on `Π₁`'s — `O(|S| + |T|)` filtering plus one insert
/// per member actually in the chunk (summed over all chunks that is
/// exactly the `O(|S|·|T|)` of [`SetRectangle::to_wordset`]).
fn rect_word_chunk(r: &SetRectangle, chunk_bits: u64, base: u64, len: u64) -> WordSet {
    let high = !(chunk_bits - 1);
    let ins = r.partition.inside();
    let outs = r.partition.outside();
    let low = chunk_bits - 1;
    let su: Vec<u64> =
        r.s.iter()
            .copied()
            .filter(|&u| u & high == base & ins & high)
            .collect();
    let mut part = WordSet::empty(len);
    if su.is_empty() {
        return part;
    }
    let tv: Vec<u64> =
        r.t.iter()
            .copied()
            .filter(|&v| v & high == base & outs & high)
            .collect();
    for &u in &su {
        for &v in &tv {
            part.insert((u | v) & low);
        }
    }
    part
}

/// One chunk of the streamed cover pass: the `L_n` slice, the bit-sliced
/// overlap counter over the rectangle slices, and the scalar aggregates.
struct CoverChunk {
    covers_exactly: bool,
    max_overlap: usize,
    union_count: u64,
    union_digest: u64,
    ln_count: u64,
    ln_digest: u64,
}

/// Streamed cover verification over `plan`: chunk results merge with
/// order-free folds (AND / max / sum / XOR) in chunk order, so the scan
/// is bit-identical across thread counts *and* chunk sizes, and equal to
/// the in-memory pass wherever both are feasible.
pub fn cover_scan_chunked_threads(
    n: usize,
    rects: &[SetRectangle],
    threads: usize,
    plan: &ChunkPlan,
) -> CoverScan {
    assert_eq!(
        plan.domain(),
        logical_word_domain(n),
        "plan/domain mismatch"
    );
    obs::count!("wordset.chunked.cover_scans");
    obs::count!("wordset.chunked.chunks", plan.num_chunks() as u64);
    let _t = obs::span!("wordset.chunked.cover");
    let chunks = par::run_chunks(plan.num_chunks(), threads, |ci| {
        let range = plan.chunk_range(ci);
        let (base, len) = (range.start, range.end - range.start);
        let ln = WordSet::from_pred_threads(len, 1, |k| ln_contains(n, (base + k) as Word));
        let mut counter = OverlapCounter::new(len);
        for r in rects {
            counter.add(&rect_word_chunk(r, plan.chunk_bits(), base, len));
        }
        let union = counter.any();
        CoverChunk {
            covers_exactly: union == ln,
            max_overlap: counter.max_count(),
            union_count: union.count(),
            union_digest: digest_words(base, union.blocks()),
            ln_count: ln.count(),
            ln_digest: digest_words(base, ln.blocks()),
        }
    });
    let mut scan = CoverScan {
        size: rects.len(),
        covers_exactly: true,
        all_balanced: rects.iter().all(SetRectangle::is_balanced),
        max_overlap: 0,
        union_count: 0,
        union_digest: 0,
        ln_count: 0,
        ln_digest: 0,
    };
    for c in chunks {
        scan.covers_exactly &= c.covers_exactly;
        scan.max_overlap = scan.max_overlap.max(c.max_overlap);
        scan.union_count += c.union_count;
        scan.union_digest ^= c.union_digest;
        scan.ln_count += c.ln_count;
        scan.ln_digest ^= c.ln_digest;
    }
    scan
}

/// Streamed overlap histogram over `plan`: per-chunk exact-`k` popcounts
/// against the chunk's `L_n` slice, summed bucket-wise across chunks and
/// trimmed like [`crate::cover::overlap_histogram`].
pub fn overlap_histogram_chunked_threads(
    n: usize,
    rects: &[SetRectangle],
    threads: usize,
    plan: &ChunkPlan,
) -> Vec<usize> {
    assert_eq!(
        plan.domain(),
        logical_word_domain(n),
        "plan/domain mismatch"
    );
    obs::count!("wordset.chunked.histograms");
    let _t = obs::span!("wordset.chunked.histogram");
    let partials = par::run_chunks(plan.num_chunks(), threads, |ci| {
        let range = plan.chunk_range(ci);
        let (base, len) = (range.start, range.end - range.start);
        let ln = WordSet::from_pred_threads(len, 1, |k| ln_contains(n, (base + k) as Word));
        let mut counter = OverlapCounter::new(len);
        for r in rects {
            counter.add(&rect_word_chunk(r, plan.chunk_bits(), base, len));
        }
        (0..=counter.max_count())
            .map(|k| counter.exactly_and_count(k, &ln) as usize)
            .collect::<Vec<usize>>()
    });
    let mut hist = Vec::new();
    for p in partials {
        if hist.len() < p.len() {
            hist.resize(p.len(), 0);
        }
        for (h, v) in hist.iter_mut().zip(p) {
            *h += v;
        }
    }
    if hist.is_empty() {
        hist.push(0);
    }
    while hist.len() > 1 && hist.last() == Some(&0) {
        hist.pop();
    }
    hist
}

/// The count and digest of a rectangle's family-rank bitmap, streamed
/// over `plan` by per-rank membership probes (the family rank interleaves
/// `Π₀`/`Π₁` bits, so the side-filtering trick of the word domain does
/// not apply; the scan route is the chunk-local analogue of the dense
/// route in [`super::family_rectangle_bitmap_threads`]).
pub fn family_rectangle_scan_chunked_threads(
    n: usize,
    r: &SetRectangle,
    threads: usize,
    plan: &ChunkPlan,
) -> (u64, u64) {
    assert!(supports_blocks(n));
    assert_eq!(
        plan.domain(),
        logical_family_domain(n),
        "plan/domain mismatch"
    );
    obs::count!("wordset.chunked.rect_scans");
    let chunks = par::run_chunks(plan.num_chunks(), threads, |ci| {
        let range = plan.chunk_range(ci);
        let (base, len) = (range.start, range.end - range.start);
        let chunk = WordSet::from_pred_threads(len, 1, |k| r.contains(family_unrank(n, base + k)));
        (chunk.count(), digest_words(base, chunk.blocks()))
    });
    chunks
        .into_iter()
        .fold((0u64, 0u64), |(c, d), (cc, cd)| (c + cc, d ^ cd))
}

/// Signed discrepancy `|R ∩ A| − |R ∩ B|` streamed over the family-rank
/// domain: per chunk, the rectangle slice is intersected with the `A`
/// slice (both built by per-rank probes) and the two popcounts
/// subtracted; per-chunk signed sums add in chunk order.
pub fn discrepancy_chunked_threads(
    n: usize,
    r: &SetRectangle,
    threads: usize,
    plan: &ChunkPlan,
) -> i64 {
    assert!(supports_blocks(n));
    assert_eq!(
        plan.domain(),
        logical_family_domain(n),
        "plan/domain mismatch"
    );
    obs::count!("wordset.chunked.discrepancies");
    let _t = obs::span!("wordset.chunked.discrepancy");
    let partials = par::run_chunks(plan.num_chunks(), threads, |ci| {
        let range = plan.chunk_range(ci);
        let (base, len) = (range.start, range.end - range.start);
        let rect = WordSet::from_pred_threads(len, 1, |k| r.contains(family_unrank(n, base + k)));
        let a = WordSet::from_pred_threads(len, 1, |k| in_a(n, family_unrank(n, base + k)));
        let in_a_count = rect.and_count(&a) as i64;
        let in_b_count = rect.count() as i64 - in_a_count;
        in_a_count - in_b_count
    });
    partials.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::example8_cover;

    #[test]
    fn chunk_spec_parsing_and_validation() {
        assert!(parse_chunk_bits("64").is_ok());
        assert!(parse_chunk_bits(" 1024 ").is_ok());
        assert_eq!(parse_chunk_bits("65536"), Ok(1 << 16));
        for bad in ["", "banana", "0", "63", "100", "-64"] {
            assert!(parse_chunk_bits(bad).is_err(), "spec {bad:?}");
        }
        // 2^31 exceeds the materialisation cap: a chunk that big could
        // never be built.
        assert!(parse_chunk_bits(&(MAX_DOMAIN_BITS * 2).to_string()).is_err());
        assert!(valid_chunk_bits(MAX_DOMAIN_BITS));
        assert!(!valid_chunk_bits(MAX_DOMAIN_BITS + 1));
    }

    /// Tests that set or read [`CHUNK_ENV`] must not interleave under the
    /// parallel test runner.
    fn env_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Clear [`CHUNK_ENV`] for the test body and restore the ambient
    /// value on drop — the CI chunked-determinism job exports the
    /// variable process-wide, and these tests assert about both states.
    struct EnvRestore(Option<String>);
    impl EnvRestore {
        fn clear() -> EnvRestore {
            let saved = std::env::var(CHUNK_ENV).ok();
            std::env::remove_var(CHUNK_ENV);
            EnvRestore(saved)
        }
    }
    impl Drop for EnvRestore {
        fn drop(&mut self) {
            match &self.0 {
                Some(v) => std::env::set_var(CHUNK_ENV, v),
                None => std::env::remove_var(CHUNK_ENV),
            }
        }
    }

    #[test]
    fn plan_geometry() {
        let plan = ChunkPlan::with_chunk_bits(1 << 12, 1 << 10);
        assert_eq!(plan.num_chunks(), 4);
        assert_eq!(plan.chunk_range(0), 0..1024);
        assert_eq!(plan.chunk_range(3), 3072..4096);
        // Chunk larger than the domain: one short chunk.
        let plan = ChunkPlan::with_chunk_bits(100, 1 << 10);
        assert_eq!(plan.num_chunks(), 1);
        assert_eq!(plan.chunk_range(0), 0..100);
        // The empty domain still plans one (empty) chunk.
        let plan = ChunkPlan::with_chunk_bits(0, 64);
        assert_eq!(plan.num_chunks(), 1);
        assert_eq!(plan.chunk_range(0), 0..0);
    }

    #[test]
    #[should_panic(expected = "invalid chunk size")]
    fn plan_rejects_non_power_of_two() {
        let _ = ChunkPlan::with_chunk_bits(1 << 12, 100);
    }

    #[test]
    fn source_picks_by_cap() {
        let _g = env_gate();
        let _e = EnvRestore::clear();
        assert!(!WordSetSource::for_domain(MAX_DOMAIN_BITS).is_chunked());
        assert!(WordSetSource::for_domain(MAX_DOMAIN_BITS + 1).is_chunked());
        assert!(!WordSetSource::for_word_domain(13).is_chunked());
        assert!(WordSetSource::for_word_domain(16).is_chunked());
        assert_eq!(WordSetSource::for_word_domain(16).domain(), 1u64 << 32);
        assert!(WordSetSource::for_family_domain(32).is_chunked());
        assert!(!WordSetSource::for_family_domain(16).is_chunked());
        assert!(WordSetSource::for_word_domain(13)
            .describe()
            .starts_with("in-memory"));
        assert!(WordSetSource::for_word_domain(16)
            .describe()
            .starts_with("chunked"));
        // The env override forces the chunked path even below the cap —
        // the lever the CI chunked-determinism job relies on.
        std::env::set_var(CHUNK_ENV, "4096");
        assert!(WordSetSource::for_word_domain(4).is_chunked());
        assert_eq!(chunk_override(), Some(4096));
        std::env::remove_var(CHUNK_ENV);
        assert_eq!(chunk_override(), None);
    }

    #[test]
    #[should_panic(expected = "u64 addressing")]
    fn logical_word_domain_guards_the_shift() {
        let _ = logical_word_domain(32);
    }

    #[test]
    fn digest_is_chunking_invariant() {
        let domain = 1u64 << 12;
        let set = WordSet::from_pred_threads(domain, 1, |k| k.is_multiple_of(3) || k > 4000);
        let whole = set_digest(&set);
        for chunk_bits in [64u64, 256, 1024, 4096] {
            let plan = ChunkPlan::with_chunk_bits(domain, chunk_bits);
            let mut acc = 0u64;
            for ci in 0..plan.num_chunks() {
                let r = plan.chunk_range(ci);
                let piece =
                    WordSet::from_pred_threads(r.end - r.start, 1, |k| set.contains(r.start + k));
                acc ^= digest_words(r.start, piece.blocks());
            }
            assert_eq!(acc, whole, "chunk_bits={chunk_bits}");
        }
        // Digests distinguish sets and positions.
        let other = WordSet::from_pred_threads(domain, 1, |k| k.is_multiple_of(3));
        assert_ne!(set_digest(&other), whole);
        assert_ne!(digest_words(0, &[1]), digest_words(64, &[1]));
        assert_eq!(set_digest(&WordSet::empty(domain)), 0);
    }

    #[test]
    fn rect_word_chunks_reassemble_to_wordset() {
        let n = 4usize;
        for r in example8_cover(n) {
            let whole = r.to_wordset(n);
            for chunk_bits in [64u64, 128] {
                let plan = ChunkPlan::with_chunk_bits(whole.domain(), chunk_bits);
                let mut count = 0u64;
                let mut digest = 0u64;
                for ci in 0..plan.num_chunks() {
                    let rg = plan.chunk_range(ci);
                    let piece = rect_word_chunk(&r, chunk_bits, rg.start, rg.end - rg.start);
                    count += piece.count();
                    digest ^= digest_words(rg.start, piece.blocks());
                }
                assert_eq!(count, whole.count(), "chunk_bits={chunk_bits}");
                assert_eq!(digest, set_digest(&whole), "chunk_bits={chunk_bits}");
            }
        }
    }

    #[test]
    fn chunked_scans_are_thread_and_chunk_invariant() {
        let n = 4usize;
        let rects = example8_cover(n);
        let word_plan = ChunkPlan::with_chunk_bits(logical_word_domain(n), 64);
        let base = cover_scan_chunked_threads(n, &rects, 1, &word_plan);
        let base_hist = overlap_histogram_chunked_threads(n, &rects, 1, &word_plan);
        for chunk_bits in [64u64, 256, 1 << 20] {
            let plan = ChunkPlan::with_chunk_bits(logical_word_domain(n), chunk_bits);
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    base,
                    cover_scan_chunked_threads(n, &rects, threads, &plan),
                    "chunk_bits={chunk_bits} threads={threads}"
                );
                assert_eq!(
                    base_hist,
                    overlap_histogram_chunked_threads(n, &rects, threads, &plan),
                    "chunk_bits={chunk_bits} threads={threads}"
                );
            }
        }
        assert!(base.covers_exactly);
        assert_eq!(base.max_overlap, n);
        assert_eq!(base.union_count, base.ln_count);
        assert_eq!(base.union_digest, base.ln_digest);
    }

    #[test]
    fn chunked_discrepancy_matches_scalar() {
        let n = 8usize;
        let plan = ChunkPlan::with_chunk_bits(logical_family_domain(n), 64);
        for r in example8_cover(n) {
            let expect = crate::discrepancy::discrepancy_scalar_threads(n, &r, 1);
            for threads in [1usize, 4] {
                assert_eq!(
                    expect,
                    discrepancy_chunked_threads(n, &r, threads, &plan),
                    "threads={threads}"
                );
            }
            let (count, digest) = family_rectangle_scan_chunked_threads(n, &r, 2, &plan);
            let whole = super::super::family_rectangle_bitmap_threads(n, &r, 1);
            assert_eq!(count, whole.count());
            assert_eq!(digest, set_digest(&whole));
        }
    }
}
