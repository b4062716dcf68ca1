//! The content-addressed artifact cache.
//!
//! Keys are stable FNV-1a digests ([`Grammar::content_hash`] for
//! grammars, [`crate::protocol::RectRequest::cache_key`] for rectangle
//! families); values are the expensive compiled artifacts a one-shot
//! binary rebuilds on every run:
//!
//! - [`GrammarArtifact`] — the parsed [`Grammar`], its CNF conversion,
//!   the flat-slab [`CykRuleIndex`], the Earley nullable table, and
//!   (built on the first long word) the Earley inside pass over the CNF;
//! - [`RectsArtifact`] — a materialised rectangle family and (each
//!   built on the first request that folds over it) its word-domain and
//!   family-rank bitmaps.
//!
//! (The canonical `L_n` bitmaps have their own process-wide cache in
//! `ucfg_core::wordset`; the kernels hit it automatically and its
//! traffic shows up under the `wordset.cache.*` counters.)
//!
//! Eviction is LRU under a fixed entry capacity. Instrumentation:
//! `serve.cache.hits` / `serve.cache.misses` / `serve.cache.evictions`
//! deterministic counters, plus volatile per-shard
//! `serve.shard.<i>.cache.{hits,misses,evictions}` counters when the
//! cache is one shard of a [`crate::shard::ShardSet`] (volatile
//! because shard layout depends on `--shards`, which must not perturb
//! the deterministic metrics stratum).

use crate::protocol::{ApiError, RectFamily, RectRequest};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use ucfg_core::cover::{self, extraction_to_set_rectangles, CoverReport};
use ucfg_core::extract::extract_cover;
use ucfg_core::ln_grammars::example4_ucfg;
use ucfg_core::wordset::WordSet;
use ucfg_core::SetRectangle;
use ucfg_grammar::analysis::nullable;
use ucfg_grammar::cyk::{CykChart, CykRuleIndex};
use ucfg_grammar::earley::{Earley, InsideCounter};
use ucfg_grammar::{BigUint, CnfGrammar, Grammar, Terminal};
use ucfg_support::{obs, par};

/// The threshold between the two counting kernels: a word of `n`
/// letters over a CNF with `|R|` rules is counted by the Earley inside
/// pass iff `n² ≥ INSIDE_PASS_RATIO · |R|`, and by the CYK fill
/// otherwise.
///
/// The pass's work per letter grows with the items the grammar predicts
/// and completes; the bitset CYK fill pays per cell, and there are
/// `n²/2` cells of up to `n` splits. So the pass wins once `n²` is large
/// against `|R|`. The `parsing/parse_count/{cyk,inside}/*` benches
/// (EXPERIMENTS.md, "Counting over flat CNF arrays") put the crossover
/// at `n²/|R|` ≈ 2 on `parse_cold`-shaped random grammars (about 220
/// rules, 20 letters), ≈ 6 on `appendix-a` (12 letters) and ≈ 14 on the
/// Dyck grammar (`|R|` = 8, 11 letters). A word sent to the slower
/// kernel costs tens of microseconds on a large grammar and well under
/// one on a small one, so the constant sits near the large-grammar end:
/// 4 keeps every `parse_cold` word (at most 16 letters over at least
/// 180 rules, `n²/|R|` ≤ 1.5) on CYK with margin.
pub const INSIDE_PASS_RATIO: usize = 4;

/// The kernel that counts a `/parse` word's parse trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountKernel {
    /// A bitset CYK fill ([`CykChart::build_with_index`]) and its count:
    /// fastest on short words.
    Cyk,
    /// The Earley inside pass ([`InsideCounter`]): fastest on words long
    /// against the grammar.
    Inside,
}

impl CountKernel {
    /// The kernel for a word of `len` letters over a CNF with `rules`
    /// rules; see [`INSIDE_PASS_RATIO`].
    pub fn for_word(len: usize, rules: usize) -> CountKernel {
        if len.saturating_mul(len) >= INSIDE_PASS_RATIO.saturating_mul(rules) {
            CountKernel::Inside
        } else {
            CountKernel::Cyk
        }
    }

    /// The kernel that did not serve: the `"check": true` cross-check
    /// recounts with it.
    pub(crate) fn other(self) -> CountKernel {
        match self {
            CountKernel::Cyk => CountKernel::Inside,
            CountKernel::Inside => CountKernel::Cyk,
        }
    }
}

/// Everything `/parse` needs, compiled once per distinct grammar hash.
///
/// Two kernels count a word's parse trees over the CNF, with equal
/// results: the CYK fill for short words and the Earley inside pass for
/// long ones ([`CountKernel::for_word`]). The CYK rule index is built at
/// compile; the inside pass is built on the first word it counts, so a
/// grammar that only ever sees short words never pays for it.
#[derive(Debug)]
pub struct GrammarArtifact {
    /// The grammar's [`Grammar::content_hash`].
    pub hash: u64,
    /// The original grammar (Earley runs on this — it handles non-CNF
    /// bodies directly).
    pub grammar: Grammar,
    /// The Earley table: the nullable fixpoint, precomputed.
    pub nullable: Vec<bool>,
    /// The Chomsky normal form the CYK chart parses with.
    pub cnf: CnfGrammar,
    /// The flat-slab bitset rule index shared by every chart.
    pub index: CykRuleIndex,
    /// The inside pass over the CNF, built on first use.
    inside: OnceLock<InsideCounter>,
}

impl GrammarArtifact {
    /// Compile the full artifact set for `grammar`.
    pub fn compile(grammar: Grammar) -> Arc<GrammarArtifact> {
        let hash = grammar.content_hash();
        Self::compile_hashed(grammar, hash)
    }

    /// [`GrammarArtifact::compile`] for a grammar whose
    /// [`Grammar::content_hash`] is known already: a `/parse` job's key,
    /// computed when the request was read.
    pub(crate) fn compile_hashed(grammar: Grammar, hash: u64) -> Arc<GrammarArtifact> {
        let _t = obs::span!("serve.compile.grammar");
        debug_assert_eq!(
            hash,
            grammar.content_hash(),
            "the key is the grammar's hash"
        );
        let nullable = nullable(&grammar);
        let cnf = {
            let _t = obs::span!("serve.compile.cnf");
            CnfGrammar::from_grammar(&grammar)
        };
        let index = {
            let _t = obs::span!("serve.compile.index");
            CykRuleIndex::new(&cnf)
        };
        Arc::new(GrammarArtifact {
            hash,
            grammar,
            nullable,
            cnf,
            index,
            inside: OnceLock::new(),
        })
    }

    /// An Earley recogniser borrowing this artifact's grammar and
    /// precomputed table.
    pub fn earley(&self) -> Earley<'_> {
        Earley::with_nullable(&self.grammar, self.nullable.clone())
    }

    /// The Earley inside pass over [`GrammarArtifact::cnf`], built on the
    /// first call.
    fn inside(&self) -> &InsideCounter {
        self.inside.get_or_init(|| InsideCounter::new(&self.cnf))
    }

    /// The kernel that counts a word of `len` letters.
    pub(crate) fn kernel(&self, len: usize) -> CountKernel {
        CountKernel::for_word(len, self.cnf.rule_count())
    }

    /// The number of parse trees of `word` (encoded over the CNF's
    /// alphabet), counted by `kernel`. Both kernels give the same number.
    pub(crate) fn count_with(&self, kernel: CountKernel, word: &[Terminal]) -> BigUint {
        match kernel {
            CountKernel::Cyk => {
                CykChart::build_with_index(&self.cnf, &self.index, word).count_trees()
            }
            CountKernel::Inside => self.inside().count(word),
        }
    }
}

/// A materialised rectangle family, with the bitmaps its two kernels
/// fold over.
///
/// `/cover/verify` folds word-domain bitmaps and `/discrepancy` folds
/// family-rank bitmaps. Both depend only on the family, so each form is
/// built on the first request that needs it — on the deterministic
/// parallel map, always in memory (`n ≤ MAX_COVER_N` keeps every domain
/// within the `WordSet` cap) — and every later request runs only the
/// serial fold. The bitmaps come from the `arena` pool and go back to it
/// when the artifact is evicted.
#[derive(Debug)]
pub struct RectsArtifact {
    /// The half-length parameter.
    pub n: usize,
    /// The rectangles.
    pub rects: Vec<SetRectangle>,
    /// Word-domain bitmaps, one per rectangle, built on first use.
    words: OnceLock<Vec<WordSet>>,
    /// Family-rank bitmaps, one per rectangle, built on first use.
    ranks: OnceLock<Vec<WordSet>>,
}

impl RectsArtifact {
    /// Build the family for a bounds-checked [`RectRequest`].
    pub fn build(req: RectRequest) -> Result<Arc<RectsArtifact>, ApiError> {
        let _t = obs::span!("serve.compile.rects");
        let rects = match req.family {
            RectFamily::Example8 => ucfg_core::cover::example8_cover(req.n),
            RectFamily::Extraction => {
                let cnf = CnfGrammar::from_grammar(&example4_ucfg(req.n));
                let res = extract_cover(&cnf, 2 * req.n)
                    .map_err(|e| ApiError::Internal(format!("extraction failed: {e:?}")))?;
                extraction_to_set_rectangles(req.n, &res)
            }
        };
        Ok(Arc::new(RectsArtifact {
            n: req.n,
            rects,
            words: OnceLock::new(),
            ranks: OnceLock::new(),
        }))
    }

    /// The `/cover/verify` report: the serial fold over the word-domain
    /// bitmaps, built on the first call.
    pub(crate) fn verify_cover(&self) -> CoverReport {
        let words = self.words.get_or_init(|| {
            let _t = obs::span!("serve.compile.rect_bitmaps");
            cover::cover_bitmaps_threads(self.n, &self.rects, par::thread_count())
        });
        cover::verify_cover_fold(self.n, &self.rects, words)
    }

    /// The `/discrepancy` ledger: the serial fold over the family-rank
    /// bitmaps, built on the first call. The family needs the block
    /// structure (`n ≡ 0 mod 4`).
    pub(crate) fn discrepancy_accounting(&self) -> (Vec<i64>, bool) {
        let ranks = self.ranks.get_or_init(|| {
            let _t = obs::span!("serve.compile.rect_bitmaps");
            cover::discrepancy_bitmaps_threads(self.n, &self.rects, par::thread_count())
        });
        cover::discrepancy_accounting_fold(self.n, ranks)
    }
}

/// A cached artifact (cheap to clone — contents are behind `Arc`s).
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A compiled grammar.
    Grammar(Arc<GrammarArtifact>),
    /// A rectangle family.
    Rects(Arc<RectsArtifact>),
}

impl Artifact {
    /// The grammar artifact, if that's what this is.
    pub fn as_grammar(&self) -> Option<&Arc<GrammarArtifact>> {
        match self {
            Artifact::Grammar(g) => Some(g),
            _ => None,
        }
    }

    /// The rectangle family, if that's what this is.
    pub fn as_rects(&self) -> Option<&Arc<RectsArtifact>> {
        match self {
            Artifact::Rects(r) => Some(r),
            _ => None,
        }
    }
}

struct Entry {
    value: Artifact,
    last_used: u64,
}

/// An LRU map from content hash to compiled [`Artifact`].
pub struct ArtifactCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, Entry>,
    /// `Some(i)` when this cache is shard `i` of a sharded server —
    /// adds volatile per-shard hit/miss/eviction counters.
    shard: Option<usize>,
}

impl ArtifactCache {
    /// A cache holding at most `capacity` artifacts (min 1).
    pub fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            shard: None,
        }
    }

    /// A cache acting as shard `shard_idx`: identical behaviour, plus
    /// volatile `serve.shard.<i>.cache.*` counters so the shard spread
    /// is observable without touching the deterministic stratum.
    pub fn with_shard(capacity: usize, shard_idx: usize) -> ArtifactCache {
        ArtifactCache {
            shard: Some(shard_idx),
            ..ArtifactCache::new(capacity)
        }
    }

    /// Bump this shard's volatile counter for `event` (hit/miss/…).
    fn shard_count(&self, event: &str) {
        if let Some(i) = self.shard {
            if obs::enabled() {
                obs::vcounter(&format!("serve.shard.{i}.cache.{event}")).add(1);
            }
        }
    }

    /// Current number of cached artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fetch `key`, or build, insert, and (if over capacity) evict the
    /// least-recently-used entry. Returns the artifact and whether it
    /// was a hit. `build` may fail (e.g. extraction bounds); failures
    /// are not cached.
    pub fn get_or_insert_with(
        &mut self,
        key: u64,
        build: impl FnOnce() -> Result<Artifact, ApiError>,
    ) -> Result<(Artifact, bool), ApiError> {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_used = self.tick;
            let value = e.value.clone();
            obs::count!("serve.cache.hits");
            self.shard_count("hits");
            return Ok((value, true));
        }
        obs::count!("serve.cache.misses");
        self.shard_count("misses");
        let value = build()?;
        self.entries.insert(
            key,
            Entry {
                value: value.clone(),
                last_used: self.tick,
            },
        );
        while self.entries.len() > self.capacity {
            if let Some((&lru, _)) = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
            {
                self.entries.remove(&lru);
                obs::count!("serve.cache.evictions");
                self.shard_count("evictions");
            } else {
                break;
            }
        }
        Ok((value, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn grammar_artifact(src: &str) -> Artifact {
        let g = ucfg_grammar::text::parse_grammar(src).unwrap();
        Artifact::Grammar(GrammarArtifact::compile(g))
    }

    #[test]
    fn compile_produces_consistent_pieces() {
        let g = ucfg_grammar::text::parse_grammar("S -> a S b S | ()").unwrap();
        let art = GrammarArtifact::compile(g);
        assert_eq!(art.hash, art.grammar.content_hash());
        // Dyck word: both engines agree through the artifact's parts.
        let e = art.earley();
        assert!(e.recognize_str("aabb"));
        let w = art.cnf.encode("aabb").unwrap();
        let chart = ucfg_grammar::cyk::CykChart::build_with_index(&art.cnf, &art.index, &w);
        assert!(chart.accepted());
    }

    #[test]
    fn kernel_follows_word_length_against_grammar_size() {
        // Dyck: |R| = 8, so a 96-letter word (96² ≥ 4 · 8) goes to the
        // inside pass.
        let dyck = GrammarArtifact::compile(
            ucfg_grammar::text::parse_grammar("S -> a S b S | ()").unwrap(),
        );
        assert_eq!(dyck.kernel(96), CountKernel::Inside);
        // 24 non-terminals × 5 alternatives, the size of a cold-cache
        // grammar: a 12-letter word stays on CYK.
        let mut text = String::new();
        for i in 0..24 {
            let n = |k: usize| format!("N{}", (i + k) % 24);
            text.push_str(&format!(
                "N{i} -> a | b {} | c {} d | {} a {} | d {} b c\n",
                n(1),
                n(2),
                n(3),
                n(5),
                n(7)
            ));
        }
        let wide = GrammarArtifact::compile(ucfg_grammar::text::parse_grammar(&text).unwrap());
        assert!(wide.cnf.rule_count() > 100, "{}", wide.cnf.rule_count());
        assert_eq!(wide.kernel(12), CountKernel::Cyk);
        // So does a 16-letter word, the longest `parse_cold` sends; a
        // 64-letter one goes to the pass.
        assert_eq!(wide.kernel(16), CountKernel::Cyk);
        assert_eq!(wide.kernel(64), CountKernel::Inside);
        // The boundary itself belongs to the inside pass.
        let edge = (1..).find(|n| n * n >= INSIDE_PASS_RATIO).unwrap();
        assert_eq!(CountKernel::for_word(edge, 1), CountKernel::Inside);
        assert_eq!(CountKernel::for_word(edge - 1, 1), CountKernel::Cyk);
    }

    #[test]
    fn inside_pass_is_built_on_first_use() {
        let art =
            GrammarArtifact::compile(ucfg_grammar::text::parse_grammar("S -> S S | a").unwrap());
        assert!(
            art.inside.get().is_none(),
            "compile leaves the pass unbuilt"
        );
        let word = art.cnf.encode("aaaa").unwrap();
        assert_eq!(art.count_with(CountKernel::Cyk, &word).to_u64(), Some(5));
        assert!(art.inside.get().is_none(), "CYK counts without it");
        assert_eq!(art.count_with(CountKernel::Inside, &word).to_u64(), Some(5));
        assert!(art.inside.get().is_some());
    }

    #[test]
    fn hit_then_miss_accounting() {
        let mut c = ArtifactCache::new(4);
        let (a1, hit1) = c
            .get_or_insert_with(1, || Ok(grammar_artifact("S -> a")))
            .unwrap();
        assert!(!hit1);
        let (a2, hit2) = c
            .get_or_insert_with(1, || panic!("must not rebuild"))
            .unwrap();
        assert!(hit2);
        // Same Arc, not a recompile.
        assert!(Arc::ptr_eq(
            a1.as_grammar().unwrap(),
            a2.as_grammar().unwrap()
        ));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = ArtifactCache::new(2);
        c.get_or_insert_with(1, || Ok(grammar_artifact("S -> a")))
            .unwrap();
        c.get_or_insert_with(2, || Ok(grammar_artifact("S -> b")))
            .unwrap();
        // Touch 1 so 2 is the LRU.
        c.get_or_insert_with(1, || panic!("hit expected")).unwrap();
        c.get_or_insert_with(3, || Ok(grammar_artifact("S -> a b")))
            .unwrap();
        assert_eq!(c.len(), 2);
        let (_, hit1) = c.get_or_insert_with(1, || panic!("1 evicted")).unwrap();
        assert!(hit1);
        let (_, hit2) = c
            .get_or_insert_with(2, || Ok(grammar_artifact("S -> b")))
            .unwrap();
        assert!(!hit2, "2 should have been evicted");
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let mut c = ArtifactCache::new(2);
        let r = c.get_or_insert_with(9, || Err(ApiError::BadRequest("no".into())));
        assert!(r.is_err());
        assert_eq!(c.len(), 0);
        // A later successful build under the same key works.
        let (_, hit) = c
            .get_or_insert_with(9, || Ok(grammar_artifact("S -> a")))
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn capacity_one_still_serves() {
        let mut c = ArtifactCache::new(0); // clamped to 1
        c.get_or_insert_with(1, || Ok(grammar_artifact("S -> a")))
            .unwrap();
        c.get_or_insert_with(2, || Ok(grammar_artifact("S -> b")))
            .unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn rects_artifacts_build_for_both_families() {
        let req = |src: &str| RectRequest::from_json(&Json::parse(src).unwrap(), false).unwrap();
        let e8 = RectsArtifact::build(req(r#"{"n":4,"family":"example8"}"#)).unwrap();
        assert_eq!(e8.rects.len(), 4);
        let ex = RectsArtifact::build(req(r#"{"n":3,"family":"extraction"}"#)).unwrap();
        assert!(!ex.rects.is_empty());
        assert_eq!(ex.n, 3);
    }
}
