//! Fault injection into the BSP engine's in-process phases.
//!
//! Only built with `--features failpoints`: an injected panic in a map
//! task and an injected reduce-merge error each surface as the job's
//! typed error, and the next job on the same engine succeeds.
#![cfg(feature = "failpoints")]

use std::sync::Mutex;

use desq_bsp::{Combiner, Engine};
use desq_core::fault::{self, FailAction, FailSpec};
use desq_core::Error;

/// The failpoint registry is process-global; tests take this lock so
/// their site configurations never overlap.
static FAULTS: Mutex<()> = Mutex::new(());

fn fault_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = FAULTS.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear_all();
    guard
}

/// Word count over three partitions with a combiner: `(word, count)`.
fn word_count(engine: &Engine) -> desq_core::Result<Vec<(u32, u64)>> {
    let data: Vec<u32> = vec![1, 2, 2, 3, 3, 3];
    let parts: Vec<&[u32]> = data.chunks(2).collect();
    let (mut out, _) = engine.map_combine_reduce(
        &parts,
        |part: &[u32], c: &mut Combiner<u32>| {
            for &w in part {
                c.emit(&w, b"", 1);
            }
            Ok(())
        },
        |&k: &u32, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((u32, u64))| {
            emit((k, vs.iter().map(|&(_, w)| w).sum()));
            Ok(())
        },
    )?;
    out.sort_unstable();
    Ok(out)
}

#[test]
fn injected_map_panic_and_merge_error_fail_only_their_job() {
    let _guard = fault_guard();
    let engine = Engine::new(2).with_reducers(2);
    let want = vec![(1, 1), (2, 2), (3, 3)];

    // The job's first executor task is a map task.
    fault::configure(
        "sched::task_run",
        FailSpec::once_after(0, FailAction::Panic),
    );
    match word_count(&engine) {
        Err(Error::WorkerPanicked(msg)) => assert!(msg.contains("sched::task_run"), "{msg}"),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(fault::hits("sched::task_run") >= 1);
    assert_eq!(word_count(&engine).unwrap(), want);

    fault::clear_all();
    fault::configure(
        "bsp::reduce_merge",
        FailSpec::once_after(0, FailAction::Err),
    );
    match word_count(&engine) {
        Err(Error::Invalid(msg)) => assert!(msg.contains("bsp::reduce_merge"), "{msg}"),
        other => panic!("expected the injected merge error, got {other:?}"),
    }
    assert!(fault::hits("bsp::reduce_merge") >= 1);
    assert_eq!(word_count(&engine).unwrap(), want);
}
