//! D-CAND: distributed mining with compressed candidate representations
//! (Sec. VI of the paper).
//!
//! For every input sequence `T`, the mapper enumerates the accepting runs of
//! the FST, σ-filters their output sets, and computes the pivot set of each
//! run with the ⊕ merge of Th. 1 ([`merge_pivots`]). For every pivot `p` it
//! builds a trie/NFA representing exactly the candidates of `G^σ_π(T)` with
//! pivot `p`: each run is decomposed by the *first position producing `p`*
//! into product terms (`< p` before, `= p` at, `≤ p` after the first
//! occurrence), which keeps the per-position-set Cartesian semantics intact.
//! The serialized NFA is shipped to partition `P_p`; identical NFAs are
//! aggregated into weighted ones by the engine's combiner (Sec. VI-A
//! "Aggregation"), and suffix-sharing minimization shrinks them further
//! ([`TrieBuilder::minimize`]).
//!
//! Reducers decode the NFAs, expand each one into its (deduplicated)
//! candidate set, and count candidates weighted by the number of source
//! sequences — DESQ-COUNT over compressed inputs. Run enumeration and NFA
//! expansion are bounded by [`DCandConfig::run_budget`], the analog of the
//! paper's executor memory limit: loose constraints (e.g. `T1` at low σ)
//! exhaust it exactly where the paper reports out-of-memory failures.

use desq_core::fst::flat::RunSets;
use desq_core::fst::nfa::{Nfa, TrieBuilder};
use desq_core::fst::{CandidateCounter, FstIndex, RunScratch, RunWalker};
use desq_core::{Dictionary, Error, Fst, ItemId, Result, Sequence};

use desq_bsp::{Combiner, Engine};

use crate::{Exec, MiningResult};

/// Configuration of the D-CAND algorithm.
#[derive(Debug, Clone, Copy)]
pub struct DCandConfig {
    /// Minimum support threshold σ.
    pub sigma: u64,
    /// Merge suffix-equivalent NFA states before serialization
    /// (Fig. 10b "full D-CAND" vs "tries").
    pub minimize: bool,
    /// Aggregate identical serialized NFAs into weighted records via the
    /// engine's combiner (Fig. 10b "tries" vs "tries, no agg").
    pub aggregate: bool,
    /// Work budget per sequence (map side: accepting runs walked and trie
    /// insertions; reduce side: NFA expansion steps). Exceeding it aborts
    /// with [`Error::ResourceExhausted`] — the paper's OOM analog.
    pub run_budget: usize,
}

impl DCandConfig {
    /// Full D-CAND at threshold `sigma` (minimization and aggregation on,
    /// unbounded budget).
    pub fn new(sigma: u64) -> DCandConfig {
        DCandConfig {
            sigma,
            minimize: true,
            aggregate: true,
            run_budget: usize::MAX,
        }
    }

    /// Overrides the work budget.
    pub fn with_run_budget(mut self, budget: usize) -> DCandConfig {
        self.run_budget = budget;
        self
    }
}

/// The ⊕ pivot merge of Th. 1: the pivot set of a run with output sets
/// `sets` — i.e. `{ max(w_1..w_k) : w_i ∈ sets_i }` — equals the distinct
/// elements of the union that are no smaller than the largest per-set
/// minimum. Sets must be non-empty and sorted ascending; the result is
/// sorted ascending. An empty slice yields the empty set.
///
/// Generic over the set representation so callers can pass owned
/// `Vec<ItemId>` sets or slices borrowed from a flat run-table arena.
pub fn merge_pivots<S: AsRef<[ItemId]>>(sets: &[S]) -> Vec<ItemId> {
    merge_pivots_iter(sets.iter().map(AsRef::as_ref))
}

/// [`merge_pivots`] over any re-iterable view of the sets — the flat run
/// walker's [`RunSets`] pass their arena-backed slices straight through
/// without collecting.
fn merge_pivots_iter<'s>(sets: impl Iterator<Item = &'s [ItemId]> + Clone) -> Vec<ItemId> {
    let mut threshold = 0;
    let mut any = false;
    for s in sets.clone() {
        match s.first() {
            Some(&min) => threshold = threshold.max(min),
            None => return Vec::new(),
        }
        any = true;
    }
    if !any {
        return Vec::new();
    }
    let mut out: Vec<ItemId> = Vec::new();
    for s in sets {
        for &w in s {
            if w >= threshold && !out.contains(&w) {
                out.push(w);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Decomposes `path` (σ-filtered, ε-free output sets of one accepting run)
/// into product terms whose union is exactly the pivot-`p` candidates of
/// the run, and inserts them into `trie`. Term `j` fixes the *first*
/// occurrence of `p` at position `j`: items `< p` before, `p` at, `≤ p`
/// after — so terms are disjoint and their union complete.
fn insert_pivot_terms(
    trie: &mut TrieBuilder,
    path: &RunSets<'_>,
    p: ItemId,
    budget: usize,
    work: &mut usize,
) -> Result<()> {
    let mut term: Vec<Vec<ItemId>> = Vec::with_capacity(path.len());
    'first_occurrence: for j in 0..path.len() {
        if !path.set(j).contains(&p) {
            continue;
        }
        term.clear();
        for (i, set) in path.iter().enumerate() {
            let restricted: Vec<ItemId> = if i < j {
                set.iter().copied().filter(|&w| w < p).collect()
            } else if i == j {
                vec![p]
            } else {
                set.iter().copied().filter(|&w| w <= p).collect()
            };
            if restricted.is_empty() {
                continue 'first_occurrence;
            }
            term.push(restricted);
        }
        *work += 1;
        if *work > budget {
            return Err(Error::ResourceExhausted(format!(
                "D-CAND trie construction exceeded budget of {budget}"
            )));
        }
        trie.insert(&term);
    }
    Ok(())
}

/// Builds the per-pivot serialized NFAs for one input sequence by walking
/// the flat run tables: σ-filtered output sets come straight from the
/// walker's per-`(position, label)` arena (no `Grid`, no per-transition
/// output materialization), and each run's pivot set and first-occurrence
/// decomposition are processed as the run is enumerated.
fn representations(
    walker: &RunWalker<'_>,
    seq: &Sequence,
    config: &DCandConfig,
    scratch: &mut RunScratch,
) -> Result<Vec<(ItemId, Vec<u8>)>> {
    let budget = config.run_budget;
    let mut work = 0usize;
    let mut exhausted = false;
    let mut failure: Option<Error> = None;
    let mut tries: std::collections::BTreeMap<ItemId, TrieBuilder> =
        std::collections::BTreeMap::new();
    let completed = walker.for_each_run(seq, scratch, |sets| {
        work += 1;
        if work > budget {
            exhausted = true;
            return false;
        }
        if sets.is_dead() || sets.is_empty() {
            // σ-killed runs count enumeration work but represent nothing;
            // all-ε runs only produce the empty candidate.
            return true;
        }
        for p in merge_pivots_iter(sets.iter()) {
            let trie = tries.entry(p).or_default();
            if let Err(e) = insert_pivot_terms(trie, sets, p, budget, &mut work) {
                failure = Some(e);
                return false;
            }
        }
        true
    });
    if let Some(e) = failure {
        return Err(e);
    }
    if exhausted || !completed {
        return Err(Error::ResourceExhausted(format!(
            "D-CAND run enumeration exceeded budget of {budget}"
        )));
    }
    Ok(tries
        .into_iter()
        .map(|(p, trie)| {
            let nfa = if config.minimize {
                trie.minimize()
            } else {
                trie.into_nfa()
            };
            (p, nfa.serialize())
        })
        .collect())
}

/// The workhorse behind [`d_cand`] and [`crate::algo::DCand`]:
/// single-process execution.
pub(crate) fn d_cand_impl(
    engine: &Engine,
    parts: &[&[Sequence]],
    fst: &Fst,
    dict: &Dictionary,
    config: DCandConfig,
) -> Result<MiningResult> {
    Ok(d_cand_exec(engine, parts, fst, dict, config, Exec::Local)?
        .expect("local execution returns a result"))
}

/// Runs D-CAND over an explicit shuffle transport (see
/// [`crate::dseq::d_seq_via`] for the contract). Only the aggregating
/// variant ships over the wire: the "no agg" ablation uses the engine's
/// owned-value map/reduce shape, which the byte-oriented transport does
/// not carry — [`DCandConfig::aggregate`] must be `true`.
pub fn d_cand_via(
    engine: &Engine,
    transport: &dyn desq_bsp::ShuffleTransport,
    parts: &[&[Sequence]],
    fst: &Fst,
    dict: &Dictionary,
    config: DCandConfig,
) -> Result<MiningResult> {
    Ok(
        d_cand_exec(engine, parts, fst, dict, config, Exec::Via(transport))?
            .expect("driver execution returns a result"),
    )
}

/// Serves a D-CAND job as a worker process connected to the coordinator at
/// `addr`. Requires [`DCandConfig::aggregate`], like [`d_cand_via`].
pub fn d_cand_worker(
    engine: &Engine,
    addr: std::net::SocketAddr,
    net: &desq_bsp::NetConfig,
    parts: &[&[Sequence]],
    fst: &Fst,
    dict: &Dictionary,
    config: DCandConfig,
) -> Result<()> {
    d_cand_exec(engine, parts, fst, dict, config, Exec::Worker(addr, net))?;
    Ok(())
}

fn d_cand_exec(
    engine: &Engine,
    parts: &[&[Sequence]],
    fst: &Fst,
    dict: &Dictionary,
    config: DCandConfig,
    exec: Exec<'_>,
) -> Result<Option<MiningResult>> {
    desq_core::mining::validate_sigma(config.sigma)?;
    if !config.aggregate && !matches!(exec, Exec::Local) {
        return Err(Error::Invalid(
            "D-CAND without aggregation is not supported over a shuffle transport \
             (the no-agg ablation uses the owned-value map/reduce shape)"
                .into(),
        ));
    }
    let t0 = std::time::Instant::now();
    let last_frequent = dict.last_frequent(config.sigma);
    let index = FstIndex::new(fst);

    // Shared reduce body over borrowed NFA byte slices: expand each NFA
    // (its candidate set is deduplicated by construction) and count the
    // candidates into an interned byte-key table, weighted by source
    // multiplicity — DESQ-COUNT over compressed inputs, σ-filtered.
    let expand_and_count = |inputs: &mut dyn Iterator<Item = (&[u8], u64)>,
                            emit: &mut dyn FnMut((Sequence, u64))|
     -> Result<()> {
        let mut counter = CandidateCounter::new();
        for (bytes, weight) in inputs {
            let nfa = Nfa::deserialize(bytes)?;
            counter.begin_sequence(weight);
            for candidate in nfa.expand(config.run_budget)? {
                counter.observe(&candidate);
            }
        }
        for pattern in counter.patterns(config.sigma) {
            emit(pattern);
        }
        Ok(())
    };

    let (patterns, job) = if config.aggregate {
        let map = |part: &[Sequence], out: &mut Combiner<ItemId>| {
            let walker = RunWalker::new(fst, dict, &index, last_frequent);
            let mut scratch = RunScratch::default();
            for seq in part {
                for (p, bytes) in representations(&walker, seq, &config, &mut scratch)? {
                    // The serialized NFA goes through the byte-payload
                    // path: combined by content, interned per bucket chunk.
                    out.emit(&p, &bytes, 1);
                }
            }
            Ok(())
        };
        let reduce =
            |_p: &ItemId, inputs: &[(&[u8], u64)], emit: &mut dyn FnMut((Sequence, u64))| {
                expand_and_count(&mut inputs.iter().copied(), emit)
            };
        let reduce_with =
            |_: &mut (),
             p: &ItemId,
             inputs: &[(&[u8], u64)],
             emit: &mut dyn FnMut((Sequence, u64))| { reduce(p, inputs, emit) };
        match exec {
            Exec::Local => engine.map_combine_reduce(parts, map, reduce)?,
            Exec::Via(transport) => {
                engine.map_combine_reduce_via(transport, parts, map, || (), reduce_with)?
            }
            Exec::Worker(addr, net) => {
                engine.run_worker(addr, net, parts, map, || (), reduce_with)?;
                return Ok(None);
            }
        }
    } else {
        // The guard above pinned this branch to Exec::Local.
        engine.map_reduce(
            parts,
            |part: &[Sequence], emit: &mut dyn FnMut(ItemId, (Vec<u8>, u64))| {
                let walker = RunWalker::new(fst, dict, &index, last_frequent);
                let mut scratch = RunScratch::default();
                for seq in part {
                    for (p, bytes) in representations(&walker, seq, &config, &mut scratch)? {
                        emit(p, (bytes, 1));
                    }
                }
                Ok(())
            },
            |_p: &ItemId, inputs: Vec<(Vec<u8>, u64)>, emit: &mut dyn FnMut((Sequence, u64))| {
                expand_and_count(&mut inputs.iter().map(|(b, w)| (b.as_slice(), *w)), emit)
            },
        )?
    };
    let patterns = desq_miner::sort_patterns(patterns);
    let metrics = crate::metrics_from_job(
        job,
        t0.elapsed().as_nanos() as u64,
        engine.workers(),
        crate::input_len(parts),
    );
    Ok(Some(MiningResult { patterns, metrics }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::{Miner, MiningContext};
    use desq_core::toy;

    #[test]
    fn merge_pivots_matches_theorem_examples() {
        // Paper running example: the run sets of r2 on T5 are {a1}, {A, a1},
        // {b}; achievable pivots are a1 only (A and b are below the largest
        // minimum a1).
        let fx = toy::fixture();
        let sets = vec![vec![fx.a1], vec![fx.big_a, fx.a1], vec![fx.b]];
        assert_eq!(merge_pivots(&sets), vec![fx.a1]);
        // Degenerate cases.
        assert!(merge_pivots::<Vec<ItemId>>(&[]).is_empty());
        assert_eq!(merge_pivots(&[vec![3, 7]]), vec![3, 7]);
        assert_eq!(merge_pivots(&[vec![1, 5], vec![2, 9]]), vec![2, 5, 9]);
    }

    #[test]
    fn toy_matches_reference_across_configs() {
        let fx = toy::fixture();
        let engine = Engine::new(2);
        let parts = fx.db.partition(3);
        for sigma in 1..=4 {
            let reference = desq_miner::algo::DesqCount
                .mine(&MiningContext::sequential(&fx.db, &fx.dict, sigma).with_fst(&fx.fst))
                .unwrap()
                .patterns;
            for minimize in [false, true] {
                for aggregate in [false, true] {
                    let cfg = DCandConfig {
                        sigma,
                        minimize,
                        aggregate,
                        run_budget: usize::MAX,
                    };
                    let res = d_cand_impl(&engine, &parts, &fx.fst, &fx.dict, cfg).unwrap();
                    assert_eq!(
                        res.patterns, reference,
                        "σ={sigma} min={minimize} agg={aggregate}"
                    );
                }
            }
        }
    }

    #[test]
    fn minimization_never_grows_shuffle() {
        let fx = toy::fixture();
        let engine = Engine::new(1);
        let parts = fx.db.partition(1);
        let plain = d_cand_impl(
            &engine,
            &parts,
            &fx.fst,
            &fx.dict,
            DCandConfig {
                minimize: false,
                ..DCandConfig::new(2)
            },
        )
        .unwrap();
        let minimized =
            d_cand_impl(&engine, &parts, &fx.fst, &fx.dict, DCandConfig::new(2)).unwrap();
        assert!(minimized.metrics.shuffle_bytes <= plain.metrics.shuffle_bytes);
    }

    #[test]
    fn zero_budget_exhausts_on_matching_input() {
        let fx = toy::fixture();
        let engine = Engine::new(1);
        let parts = fx.db.partition(1);
        let err = d_cand_impl(
            &engine,
            &parts,
            &fx.fst,
            &fx.dict,
            DCandConfig::new(2).with_run_budget(0),
        )
        .unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
    }

    #[test]
    fn zero_sigma_rejected() {
        let fx = toy::fixture();
        let engine = Engine::new(1);
        let parts = fx.db.partition(1);
        assert!(matches!(
            d_cand_impl(&engine, &parts, &fx.fst, &fx.dict, DCandConfig::new(0)),
            Err(Error::Invalid(_))
        ));
    }
}
