//! Fault injection into the local miners' executor tasks.
//!
//! Only built with `--features failpoints`: an injected panic or error in
//! a DESQ-DFS, table-build or DESQ-COUNT task surfaces as the run's typed
//! error, at one worker and at several, and the next run succeeds.
#![cfg(feature = "failpoints")]

use std::sync::Mutex;

use desq_core::fault::{self, FailAction, FailSpec};
use desq_core::mining::{Miner, MiningContext};
use desq_core::{toy, Error};
use desq_miner::algo::DesqCount;
use desq_miner::{LocalMiner, MinerConfig, WeightedInput};

/// The failpoint registry is process-global; tests take this lock so
/// their site configurations never overlap.
static FAULTS: Mutex<()> = Mutex::new(());

fn fault_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = FAULTS.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear_all();
    guard
}

#[test]
fn injected_task_faults_fail_only_their_run() {
    let _guard = fault_guard();
    let fx = toy::fixture();
    let inputs: Vec<WeightedInput<'_>> =
        fx.db.sequences.iter().map(|s| (s.as_slice(), 1)).collect();
    let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(2));
    let want = miner.mine(&inputs).unwrap();

    for workers in [1usize, 2] {
        // The first task of a DESQ-DFS run builds tables; skipping past
        // it lands the panic in a search-tree task.
        for skip in [0, workers as u64] {
            fault::clear_all();
            fault::configure(
                "sched::task_run",
                FailSpec::once_after(skip, FailAction::Panic),
            );
            match miner.mine_with_workers(&inputs, workers, None) {
                Err(Error::WorkerPanicked(msg)) => {
                    assert!(msg.contains("sched::task_run"), "{msg}")
                }
                other => panic!("workers={workers} skip={skip}: got {other:?}"),
            }
            assert_eq!(
                miner.mine_with_workers(&inputs, workers, None).unwrap().0,
                want
            );
        }

        // An injected error in a DESQ-COUNT block is the run's error.
        fault::clear_all();
        fault::configure("sched::task_run", FailSpec::once_after(0, FailAction::Err));
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2)
            .with_fst(&fx.fst)
            .with_parallelism(workers, 1);
        match DesqCount.mine(&ctx) {
            Err(Error::Invalid(msg)) => assert!(msg.contains("sched::task_run"), "{msg}"),
            other => panic!("workers={workers}: got {other:?}"),
        }
        assert_eq!(DesqCount.mine(&ctx).unwrap().patterns, want);
    }
}
