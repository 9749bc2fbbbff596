//! The `Auto` execution policy of DESQ-DFS on a constraint its sampling
//! probe misjudges. A3 on the AMZN-like corpus has a heavy tail: a few
//! sequences produce very many candidates, and the strided probe misses
//! them. The lean run's whole-run candidate allowance must catch this and
//! end the run on the flat path, with the same patterns as either forced
//! policy, while selective constraints keep their lean route.

use desq::core::toy;
use desq::datagen::{amzn_like, nyt_like, AmznConfig, NytConfig};
use desq::dist::patterns;
use desq::{ExecutionPolicy, MiningResult, MiningSession, MiningSessionBuilder};

fn run(base: &MiningSessionBuilder, workers: usize, exec: ExecutionPolicy) -> MiningResult {
    base.clone()
        .workers(workers)
        .execution_policy(exec)
        .build()
        .unwrap()
        .run()
        .unwrap()
}

/// Lean runs report candidate occurrences as their work; flat runs report
/// their output.
fn ended_flat(r: &MiningResult) -> bool {
    r.metrics.emitted_records == r.metrics.output_records
}

#[test]
fn auto_reroutes_a_heavy_tailed_lean_bet_to_flat() {
    let (dict, db) = amzn_like(&AmznConfig::new(2_000));
    let sequences = db.len() as u64;
    let a3 = MiningSession::builder()
        .dictionary(dict)
        .database(db)
        .pattern_unanchored(patterns::a3().expr)
        .sigma(5);
    for workers in [1, 2] {
        let flat = run(&a3, workers, ExecutionPolicy::Flat);
        let lean = run(&a3, workers, ExecutionPolicy::Lean);
        let auto = run(&a3, workers, ExecutionPolicy::Auto);
        assert!(!flat.patterns.is_empty(), "workers={workers}");
        assert_eq!(lean.patterns, flat.patterns, "workers={workers}");
        assert_eq!(auto.patterns, flat.patterns, "workers={workers}");
        // The forced lean run shows the tail the probe misses: far more
        // candidate occurrences than the probe's 12 per sequence.
        assert!(
            lean.metrics.emitted_records > 12 * sequences,
            "workers={workers}: {} occurrences",
            lean.metrics.emitted_records
        );
        assert!(ended_flat(&auto), "workers={workers}: Auto ended lean");
    }
}

#[test]
fn selective_constraints_keep_their_lean_route() {
    let fx = toy::fixture();
    let toy = MiningSession::builder()
        .dictionary(fx.dict)
        .database(fx.db)
        .pattern(toy::PATTERN)
        .sigma(2);
    let (dict, db) = nyt_like(&NytConfig::new(2_000));
    let n2 = MiningSession::builder()
        .dictionary(dict)
        .database(db)
        .pattern_unanchored(patterns::n2().expr)
        .sigma(5);
    for workers in [1, 2] {
        for (name, base) in [("toy", &toy), ("N2", &n2)] {
            let auto = run(base, workers, ExecutionPolicy::Auto);
            let flat = run(base, workers, ExecutionPolicy::Flat);
            assert!(!auto.patterns.is_empty(), "{name} workers={workers}");
            assert_eq!(auto.patterns, flat.patterns, "{name} workers={workers}");
            assert!(
                !ended_flat(&auto),
                "{name} workers={workers}: Auto ended flat"
            );
        }
    }
}
