//! DESQ-COUNT: candidate generation plus counting.
//!
//! For every input sequence, enumerate `G^σ_π(T)` and count each candidate
//! once per generating sequence; frequent candidates are those with count
//! ≥ σ. Simple and *correct by definition* — this is the reference
//! implementation that DESQ-DFS, D-SEQ, D-CAND, NAÏVE and SEMI-NAÏVE are
//! all validated against in tests. It is infeasible for constraints with
//! many candidates per sequence (the reason the paper's naïve distributed
//! algorithms fail on loose constraints).
//!
//! Since PR 5 the enumeration runs on the flat counting path
//! ([`desq_core::fst::flat`]): a [`RunWalker`] over the shared CSR
//! [`FstIndex`] (per-position output sets σ-filtered once at table-build
//! time, per-thread scratch, no `Grid` and no per-transition allocation)
//! feeding an interned [`CandidateCounter`] (candidates encoded once,
//! counted as byte keys). Workers return *owned* partial counters that the
//! calling thread merges — no lock is held during the merge. The
//! `candidates::generate` oracle remains the documented reference the flat
//! path is property-tested against.
//!
//! Enumeration runs on the same task executor as DESQ-DFS
//! ([`desq_core::sched`]): the database is cut into small input-sequence
//! blocks that seed the task pool, so a block of expensive sequences no
//! longer pins one statically-assigned worker while the others idle. At
//! one worker the blocks run inline, in order, on the calling thread.

use std::sync::atomic::{AtomicU64, Ordering};

use desq_core::fst::{CandidateCounter, FstIndex, RunScratch, RunWalker};
use desq_core::mining::CancelToken;
use desq_core::sched::{Executor, WorkerStats};
use desq_core::{mining, Dictionary, Error, Fst, Result, Sequence, SequenceDb};

/// Result of one counting run: sorted patterns, total candidate
/// occurrences counted (the work metric), and per-worker scheduler stats.
type CountOutcome = (Vec<(Sequence, u64)>, u64, Vec<WorkerStats>);

/// Sequences per executor task: small enough that stealing balances a
/// skewed database, large enough that the per-task overhead (one deque
/// round trip) stays invisible next to candidate enumeration.
const COUNT_BLOCK: usize = 64;

/// A whole-run cap on candidate occurrences, shared by every worker of one
/// counting run. Each worker charges a sequence's occurrences once it has
/// counted it, so the run fails once its running total passes the cap: the
/// outcome depends on the total, not on the worker count or interleaving.
/// Sequences without candidates, most of a selective constraint's input,
/// skip the shared counter.
struct Allowance {
    limit: u64,
    used: AtomicU64,
}

impl Allowance {
    fn charge(&self, occurrences: u64) -> Result<()> {
        if occurrences == 0 {
            return Ok(());
        }
        // Relaxed: the total publishes no other data, and `fetch_add`
        // alone keeps the sum exact.
        let used = self.used.fetch_add(occurrences, Ordering::Relaxed) + occurrences;
        if used > self.limit {
            return Err(Error::ResourceExhausted(format!(
                "candidate counting exceeded the run's allowance of {} candidate occurrences",
                self.limit
            )));
        }
        Ok(())
    }
}

/// [`desq_count_within`] without a whole-run allowance (the unit tests'
/// shorthand).
#[cfg(test)]
pub(crate) fn desq_count_impl(
    db: &SequenceDb,
    fst: &Fst,
    dict: &Dictionary,
    sigma: u64,
    budget: usize,
    workers: usize,
    cancel: Option<&CancelToken>,
) -> Result<CountOutcome> {
    desq_count_within(db, fst, dict, sigma, budget, None, workers, cancel)
}

/// The workhorse behind [`crate::algo::DesqCount`] and the lean path of
/// [`crate::algo::DesqDfs`]: mines by explicit candidate enumeration and
/// reports the total number of candidate occurrences counted (the
/// algorithm's work metric) plus per-worker [`WorkerStats`]. Candidate
/// enumeration is sharded into input blocks scheduled by work stealing
/// (per-sequence enumeration is independent); workers count into owned
/// [`CandidateCounter`] partials that are merged on the calling thread
/// before the frequency filter.
///
/// Two caps fail the run with [`Error::ResourceExhausted`]: `budget` per
/// sequence (candidate occurrences plus runs walked), and the optional
/// whole-run `allowance` of candidate occurrences summed over all
/// sequences and workers. With an allowance the per-sequence budget is
/// capped at it too, so one huge sequence stops early instead of
/// overshooting. That cap counts runs walked as well as candidates, so a
/// single sequence whose walk alone passes the allowance fails the run
/// even when the total would not.
#[allow(clippy::too_many_arguments)]
pub(crate) fn desq_count_within(
    db: &SequenceDb,
    fst: &Fst,
    dict: &Dictionary,
    sigma: u64,
    budget: usize,
    allowance: Option<u64>,
    workers: usize,
    cancel: Option<&CancelToken>,
) -> Result<CountOutcome> {
    mining::validate_sigma(sigma)?;
    let index = FstIndex::new(fst);
    let max_item = dict.last_frequent(sigma);
    let budget = allowance.map_or(budget, |a| {
        budget.min(usize::try_from(a).unwrap_or(usize::MAX))
    });
    let allowance = allowance.map(|limit| Allowance {
        limit,
        used: AtomicU64::new(0),
    });
    let count_one = |walker: &RunWalker<'_>,
                     seq: &Sequence,
                     scratch: &mut RunScratch,
                     counter: &mut CandidateCounter|
     -> Result<()> {
        let before = counter.observed();
        walker.count_candidates(seq, 1, budget, scratch, counter, |_, _| {})?;
        match &allowance {
            Some(a) => a.charge(counter.observed() - before),
            None => Ok(()),
        }
    };

    // Blocks of sequences seed the executor; each worker counts into its
    // own partial, and the partials merge on the calling thread in worker
    // order — no lock is held while counting or merging.
    let exec = Executor::new(workers.min(db.sequences.len().max(1)), cancel);
    let n = db.sequences.len();
    let block = COUNT_BLOCK.min(n.div_ceil(exec.workers()).max(1));
    let seed: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(block)
        .map(|s| s..(s + block).min(n))
        .collect();
    let (partials, stats) = exec.run(
        seed,
        || {
            let walker = RunWalker::new(fst, dict, &index, max_item);
            (walker, RunScratch::default(), CandidateCounter::new())
        },
        |range, (walker, scratch, counter), _| {
            db.sequences[range]
                .iter()
                .try_for_each(|seq| count_one(walker, seq, scratch, counter))
        },
        |(_, _, counter)| counter,
    )?;
    let mut partials = partials.into_iter();
    let mut counter = partials.next().unwrap_or_else(CandidateCounter::new);
    partials.for_each(|partial| counter.merge(&partial));
    let work = counter.observed();
    let out = counter.patterns(sigma);
    Ok((crate::sort_patterns(out), work, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::toy;
    use desq_core::Error;

    #[test]
    fn toy_frequent_sequences_match_paper() {
        // Paper, Sec. II: for πex and σ = 2 the frequent subsequences are
        // a1 a1 b (2), a1 A b (2), a1 b (3).
        let fx = toy::fixture();
        let (out, _, _) =
            desq_count_impl(&fx.db, &fx.fst, &fx.dict, 2, usize::MAX, 1, None).unwrap();
        let rendered: Vec<(String, u64)> =
            out.iter().map(|(s, f)| (fx.dict.render(s), *f)).collect();
        // Lexicographic fid order: a1 b < a1 A b < a1 a1 b.
        assert_eq!(
            rendered,
            vec![
                ("a1 b".to_string(), 3),
                ("a1 A b".to_string(), 2),
                ("a1 a1 b".to_string(), 2),
            ]
        );
    }

    #[test]
    fn sigma_one_keeps_everything() {
        let fx = toy::fixture();
        let (out, work, _) =
            desq_count_impl(&fx.db, &fx.fst, &fx.dict, 1, usize::MAX, 1, None).unwrap();
        // All candidates of all sequences are frequent at σ = 1:
        // 7 (T1) + 11 (T2) + 0 (T3) + 2 (T4) + 3 (T5), with
        // a1b/a1a1b/a1Ab shared between T2 and T5 and a1b also in T1.
        let distinct: std::collections::HashSet<_> = out.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(distinct.len(), 7 + 11 + 2 + 3 - 4);
        // The work metric counts every candidate occurrence, pre-dedup.
        assert_eq!(work, 7 + 11 + 2 + 3);
        // a1 b appears in T1, T2, T5.
        let a1b = vec![fx.a1, fx.b];
        let f = out.iter().find(|(s, _)| *s == a1b).unwrap().1;
        assert_eq!(f, 3);
    }

    #[test]
    fn sharded_counting_matches_sequential() {
        let fx = toy::fixture();
        for sigma in 1..=4 {
            let (seq, seq_work, _) =
                desq_count_impl(&fx.db, &fx.fst, &fx.dict, sigma, usize::MAX, 1, None).unwrap();
            for workers in 2..=4 {
                let (par, par_work, par_stats) =
                    desq_count_impl(&fx.db, &fx.fst, &fx.dict, sigma, usize::MAX, workers, None)
                        .unwrap();
                assert_eq!(par, seq, "sigma={sigma} workers={workers}");
                assert_eq!(par_work, seq_work, "sigma={sigma} workers={workers}");
                // One stats entry per scheduler worker (the toy db has 5
                // sequences, so the worker count is never clamped here).
                assert_eq!(par_stats.len(), workers);
                assert!(par_stats.iter().map(|s| s.tasks).sum::<u64>() > 0);
            }
        }
    }

    #[test]
    fn high_sigma_yields_nothing() {
        let fx = toy::fixture();
        let (out, _, _) =
            desq_count_impl(&fx.db, &fx.fst, &fx.dict, 10, usize::MAX, 1, None).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn zero_sigma_rejected() {
        let fx = toy::fixture();
        assert!(matches!(
            desq_count_impl(&fx.db, &fx.fst, &fx.dict, 0, usize::MAX, 1, None),
            Err(Error::Invalid(_))
        ));
    }

    /// [`desq_count_within`] on the toy FST and dictionary, no budget.
    fn within(db: &SequenceDb, sigma: u64, allowance: u64, workers: usize) -> Result<CountOutcome> {
        let fx = toy::fixture();
        desq_count_within(
            db,
            &fx.fst,
            &fx.dict,
            sigma,
            usize::MAX,
            Some(allowance),
            workers,
            None,
        )
    }

    #[test]
    fn allowance_trips_exactly_past_the_runs_total() {
        // The toy database repeated, so the run's total dwarfs any one
        // sequence's walk, as the cost model's allowance of 12 occurrences
        // per sequence does on real corpora.
        let fx = toy::fixture();
        let db = SequenceDb::new((0..20).flat_map(|_| fx.db.sequences.clone()).collect());
        for sigma in [1, 2] {
            let (want, total, _) =
                desq_count_impl(&db, &fx.fst, &fx.dict, sigma, usize::MAX, 1, None).unwrap();
            assert!(total > 0);
            for workers in [1, 3] {
                let (got, work, _) = within(&db, sigma, total, workers).unwrap();
                assert_eq!(got, want, "sigma={sigma} workers={workers}");
                assert_eq!(work, total, "sigma={sigma} workers={workers}");
                assert!(
                    matches!(
                        within(&db, sigma, total - 1, workers),
                        Err(Error::ResourceExhausted(_))
                    ),
                    "sigma={sigma} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn one_sequence_walking_past_the_allowance_trips_it() {
        // On the bare toy, T2's walk (runs plus candidates) alone passes
        // the run's total of occurrences: the per-sequence budget, capped
        // at the allowance, stops it there instead of letting it overshoot.
        let fx = toy::fixture();
        let (_, total, _) =
            desq_count_impl(&fx.db, &fx.fst, &fx.dict, 2, usize::MAX, 1, None).unwrap();
        for workers in [1, 3] {
            assert!(matches!(
                within(&fx.db, 2, total, workers),
                Err(Error::ResourceExhausted(_))
            ));
        }
    }

    #[test]
    fn budget_propagates() {
        let fx = toy::fixture();
        let err = desq_count_impl(&fx.db, &fx.fst, &fx.dict, 2, 2, 2, None).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
    }
}
