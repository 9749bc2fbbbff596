//! Error fidelity across the BSP boundary: whatever `desq_core::Error` a
//! map or reduce closure fails with is the error the job fails with —
//! same variant, same message — both in-process and after the error has
//! crossed a shuffle link inside a `Frame::TaskErr`.
//!
//! The comparisons use the `Debug` rendering, which spells out the variant
//! and every field, so a re-wrapped error (`Invalid("x")` coming back as
//! `Invalid("invalid input: x")`) or a lost variant (`Parse { pos }`
//! flattened into a string) fails loudly.

use desq_bsp::transport::{read_net_frame, write_net_frame, Frame};
use desq_bsp::{Combiner, Engine};
use desq_core::Error;

/// One error of every variant.
fn every_error() -> Vec<Error> {
    vec![
        Error::Parse {
            msg: "unexpected ')'".into(),
            pos: 17,
        },
        Error::UnknownItem("VRB".into()),
        Error::CyclicHierarchy("a1".into()),
        Error::ResourceExhausted("run budget 10".into()),
        Error::Decode("truncated NFA".into()),
        Error::Invalid("x".into()),
        Error::DeadlineExceeded("250ms".into()),
        Error::Cancelled("drain".into()),
        Error::WorkerPanicked("boom".into()),
        Error::PeerUnreachable("127.0.0.1:9".into()),
        Error::PeerTimedOut("worker 3".into()),
    ]
}

/// The job error when the mapper fails with `e`.
fn fail_in_map(e: &Error) -> String {
    let data = [1u32, 2, 3];
    let parts: Vec<&[u32]> = vec![&data];
    let err = Engine::new(2)
        .with_reducers(2)
        .map_reduce(
            &parts,
            |_part: &[u32], _emit: &mut dyn FnMut(u32, u32)| {
                Err(e.clone())?;
                Ok(())
            },
            |_k: &u32, _vs: Vec<u32>, _emit: &mut dyn FnMut(u32)| Ok(()),
        )
        .unwrap_err();
    format!("{err:?}")
}

/// The job error when the reducer of the combining shuffle fails with `e`.
fn fail_in_reduce(e: &Error) -> String {
    let data = [1u32, 2, 3];
    let parts: Vec<&[u32]> = vec![&data];
    let err = Engine::new(2)
        .with_reducers(2)
        .map_combine_reduce(
            &parts,
            |part: &[u32], out: &mut Combiner<u32>| {
                for x in part {
                    out.emit(x, b"", 1);
                }
                Ok(())
            },
            |_k: &u32, _inputs: &[(&[u8], u64)], _emit: &mut dyn FnMut(u32)| {
                Err(e.clone())?;
                Ok(())
            },
        )
        .unwrap_err();
    format!("{err:?}")
}

/// The error a coordinator decodes from a worker's `TaskErr` frame.
fn cross_the_wire(e: &Error) -> String {
    let sent = Frame::TaskErr {
        epoch: 1,
        task: 0,
        error: e.clone(),
    };
    let mut wire = Vec::new();
    write_net_frame(&mut wire, &sent, 1 << 20).unwrap();
    match read_net_frame(&mut wire.as_slice(), 1 << 20).unwrap() {
        Frame::TaskErr { error, .. } => format!("{error:?}"),
        other => panic!("decoded {other:?}"),
    }
}

#[test]
fn closure_errors_leave_the_engine_variant_exact() {
    for e in every_error() {
        let expect = format!("{e:?}");
        assert_eq!(fail_in_map(&e), expect, "map-side {e}");
        assert_eq!(fail_in_reduce(&e), expect, "reduce-side {e}");
        assert_eq!(cross_the_wire(&e), expect, "TaskErr round trip of {e}");
    }
}
