//! The one in-process task executor.
//!
//! Every parallel phase of the workspace runs here: DESQ-DFS subtrees,
//! DESQ-COUNT input blocks, flat-table build blocks, and the map, merge and
//! reduce tasks of the BSP engine (and of its `InProcess` transport). An
//! [`Executor`] runs tasks on `workers` threads. Every worker owns a LIFO
//! [`crossbeam::deque::Worker`] deque, seeds come from a shared
//! [`Injector`], and an idle worker steals *half* of a victim's queue at a
//! time ([`steal_batch_and_pop`](crossbeam::deque::Stealer::steal_batch_and_pop)).
//! A running task may split work off through its [`TaskCtx`]; termination
//! uses one atomic *pending-task* counter (seeds plus spawns, minus finished
//! tasks), so an idle worker exits once it reads zero.
//!
//! At one worker the executor runs the seed *inline*: on the calling thread,
//! in seed order, spawning no thread, and [`TaskCtx::can_spawn`] refuses
//! every split. A one-worker run therefore keeps the sequential order of its
//! seed (a streaming caller sees the depth-first discovery order).
//!
//! # Failure domains
//!
//! This module is the single home of the execution contract every parallel
//! phase relies on:
//!
//! - **Panics are contained.** A panicking task (or per-worker `init`)
//!   is caught at the worker boundary; it stops the run, marks the run's
//!   [`CancelToken`] panicked so co-operating layers observe the failure,
//!   and the run returns [`Error::WorkerPanicked`] with the first panic
//!   message. The process survives.
//! - **The first error wins.** A task returning `Err` stops every worker
//!   at its next task boundary (queued tasks are abandoned); the run
//!   returns that error.
//! - **Deadlines are cooperative.** The token is polled at every task
//!   boundary. An expired deadline or an external cancel stops the run with
//!   the token's [`stop_reason`](CancelToken::stop_reason), also when the
//!   token trips during the last task.
//! - **Output is deterministic.** Per-worker outputs come back in worker
//!   order, [`Executor::run_indexed`] results in task order, whatever the
//!   steal schedule.
//!
//! The executor is oblivious to what a task *is*. Callers hold their
//! per-worker scratch in the `init` state and fold it into the worker's
//! output in `finish`; [`WorkerStats`] reports what each worker did and
//! feeds `MiningMetrics::{worker_nanos, tasks, steals}` and the BSP job's
//! `max_task_nanos`.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Mutex;
use std::time::Instant;

use crossbeam::deque::{Injector, Stealer, Worker};

use crate::mining::{panic_message, CancelToken};
use crate::{Error, Result};

/// Messages a parallel streaming run buffers between its workers and the
/// caller's sink: memory stays proportional to the consumer's lag, not to
/// the output size.
const STREAM_BOUND: usize = 1024;

/// What one worker did during one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Wall-clock nanoseconds the worker spent in its scheduling loop
    /// (tasks plus stealing plus idling).
    pub nanos: u64,
    /// Tasks the worker executed.
    pub tasks: u64,
    /// Successful steals from *other workers'* deques (grabs from the
    /// shared seed injector are not steals).
    pub steals: u64,
    /// Wall-clock nanoseconds of the worker's slowest single task.
    pub max_task_nanos: u64,
}

/// Runs tasks on a fixed number of worker threads under one optional
/// [`CancelToken`]; see the [module docs](self) for the contract.
#[derive(Debug, Clone, Copy)]
pub struct Executor<'t> {
    workers: usize,
    token: Option<&'t CancelToken>,
}

/// Where [`TaskCtx::emit`] sends a streaming run's messages.
enum Outlet<'a, M> {
    /// Not a streaming run.
    Closed,
    /// Inline run: the caller's sink, called on the calling thread.
    Direct(RefCell<&'a mut dyn FnMut(M) -> bool>),
    /// Parallel run: a bounded channel the calling thread drains.
    Channel(SyncSender<M>),
}

/// Handle a running task uses to split work off and, in a streaming run,
/// to emit messages to the caller's sink.
pub struct TaskCtx<'a, T, M = ()> {
    /// The worker's own deque; `None` in an inline run, which refuses
    /// spawns.
    queue: Option<&'a Worker<T>>,
    pending: &'a AtomicUsize,
    stop: &'a AtomicBool,
    outlet: Outlet<'a, M>,
}

impl<T, M> TaskCtx<'_, T, M> {
    /// Whether a split is accepted and wanted now: the run has several
    /// workers and this worker's own deque holds fewer than `limit`
    /// tasks (a short queue means thieves are draining it).
    pub fn can_spawn(&self, limit: usize) -> bool {
        self.queue.is_some_and(|q| q.len() < limit)
    }

    /// Queues a split-off task on the calling worker's own deque (thieves
    /// take from the cold end). Only valid after
    /// [`can_spawn`](Self::can_spawn) said yes: an inline run panics here.
    pub fn spawn(&self, task: T) {
        let queue = self.queue.expect("an inline run refuses spawns");
        self.pending.fetch_add(1, Ordering::SeqCst);
        queue.push(task);
    }

    /// Hands `msg` to the streaming run's sink. Returns `false` once the
    /// run is stopping (the sink declined a message, or a task failed):
    /// the task should then wind down.
    pub fn emit(&self, msg: M) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return false;
        }
        let kept = match &self.outlet {
            Outlet::Closed => unreachable!("emit outside a streaming run"),
            Outlet::Direct(sink) => (sink.borrow_mut())(msg),
            Outlet::Channel(tx) => tx.send(msg).is_ok(),
        };
        if !kept {
            self.stop.store(true, Ordering::Relaxed);
        }
        kept
    }
}

/// Stop state shared by the workers of one run.
struct Halt<'t> {
    token: Option<&'t CancelToken>,
    stop: AtomicBool,
    failure: Mutex<Option<Error>>,
}

impl<'t> Halt<'t> {
    fn new(token: Option<&'t CancelToken>) -> Halt<'t> {
        Halt {
            token,
            stop: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// Records the run's first error and stops every worker at its next
    /// task boundary.
    fn fail(&self, err: Error) {
        self.failure
            .lock()
            .expect("nothing panics while holding the failure slot")
            .get_or_insert(err);
        self.stop.store(true, Ordering::Relaxed);
    }

    fn panicked(&self, payload: &(dyn std::any::Any + Send)) {
        let msg = panic_message(payload);
        if let Some(token) = self.token {
            token.mark_panicked(&msg);
        }
        self.fail(Error::WorkerPanicked(msg));
    }

    /// The task-boundary poll: `false` once the run must stop.
    fn proceed(&self) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return false;
        }
        match self.token.map_or(Ok(()), CancelToken::checkpoint) {
            Ok(()) => true,
            Err(err) => {
                self.fail(err);
                false
            }
        }
    }

    /// The run's error, if any: the first failure, else a token that
    /// tripped after the last poll.
    fn outcome(self) -> Result<()> {
        match self
            .failure
            .into_inner()
            .expect("nothing panics while holding the failure slot")
        {
            Some(err) => Err(err),
            None => self
                .token
                .and_then(CancelToken::stop_reason)
                .map_or(Ok(()), Err),
        }
    }
}

/// One worker's life: build its state, run the tasks `next` hands out
/// until it has none or the run stops, then fold the state into the
/// worker's output. A panic anywhere in it is contained here; the output
/// is `None` after one.
fn work<T, S, O, M>(
    halt: &Halt<'_>,
    ctx: &TaskCtx<'_, T, M>,
    init: &impl Fn() -> S,
    task: &impl Fn(T, &mut S, &TaskCtx<'_, T, M>) -> Result<()>,
    finish: &impl Fn(S) -> O,
    mut next: impl FnMut(&mut WorkerStats) -> Option<T>,
) -> (Option<O>, WorkerStats) {
    let t0 = Instant::now();
    let mut stats = WorkerStats::default();
    let out = catch_unwind(AssertUnwindSafe(|| {
        let mut state = init();
        while halt.proceed() {
            let Some(t) = next(&mut stats) else { break };
            let started = Instant::now();
            let run = || {
                #[cfg(feature = "failpoints")]
                crate::fault::point("sched::task_run")?;
                task(t, &mut state, ctx)
            };
            let result = run();
            stats.tasks += 1;
            let nanos = started.elapsed().as_nanos() as u64;
            stats.max_task_nanos = stats.max_task_nanos.max(nanos);
            ctx.pending.fetch_sub(1, Ordering::SeqCst);
            if let Err(err) = result {
                halt.fail(err);
                break;
            }
        }
        finish(state)
    }));
    stats.nanos = t0.elapsed().as_nanos() as u64;
    (
        out.map_err(|payload| halt.panicked(payload.as_ref())).ok(),
        stats,
    )
}

impl<'t> Executor<'t> {
    /// An executor with `workers` threads (at least one) whose runs poll
    /// `token`, when given.
    pub fn new(workers: usize, token: Option<&'t CancelToken>) -> Executor<'t> {
        Executor {
            workers: workers.max(1),
            token,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `seed` and every task spawned from it to completion. Each
    /// worker builds its state with `init` and turns it into its output
    /// with `finish`, both on the worker's own thread. Returns the outputs
    /// and [`WorkerStats`] in worker order, one per worker.
    pub fn run<T, S, O>(
        &self,
        seed: Vec<T>,
        init: impl Fn() -> S + Sync,
        task: impl Fn(T, &mut S, &TaskCtx<'_, T>) -> Result<()> + Sync,
        finish: impl Fn(S) -> O + Sync,
    ) -> Result<(Vec<O>, Vec<WorkerStats>)>
    where
        T: Send,
        O: Send,
    {
        let none: Option<&mut dyn FnMut(()) -> bool> = None;
        let (outs, stats, _) = self.execute(seed, true, init, task, finish, none)?;
        Ok((outs, stats))
    }

    /// Like [`run`](Self::run), streaming the messages tasks
    /// [`emit`](TaskCtx::emit) to `sink` on the calling thread. Through a
    /// bounded channel when parallel, directly when inline. A `false` from
    /// the sink stops the run, which is not an error: the result is then
    /// `Ok(false)`; it is `Ok(true)` when the sink took every message.
    pub fn stream<T, S, M>(
        &self,
        seed: Vec<T>,
        init: impl Fn() -> S + Sync,
        task: impl Fn(T, &mut S, &TaskCtx<'_, T, M>) -> Result<()> + Sync,
        sink: &mut dyn FnMut(M) -> bool,
    ) -> Result<bool>
    where
        T: Send,
        M: Send,
    {
        let (_, _, completed) = self.execute(seed, true, init, task, drop, Some(sink))?;
        Ok(completed)
    }

    /// Runs the independent tasks `0..n`, returning their results in task
    /// order. Uses at most `n` workers; each builds its state with `init`.
    pub fn run_indexed<S, O>(
        &self,
        n: usize,
        init: impl Fn() -> S + Sync,
        task: impl Fn(&mut S, usize) -> Result<O> + Sync,
    ) -> Result<(Vec<O>, Vec<WorkerStats>)>
    where
        O: Send,
    {
        let exec = Executor::new(self.workers.min(n), self.token);
        let none: Option<&mut dyn FnMut(()) -> bool> = None;
        let (parts, stats, _) = exec.execute(
            (0..n).collect(),
            false,
            || (init(), Vec::new()),
            |i, (state, done): &mut (S, Vec<(usize, O)>), _: &TaskCtx<'_, usize>| {
                done.push((i, task(state, i)?));
                Ok(())
            },
            |(_, done)| done,
            none,
        )?;
        let mut all: Vec<(usize, O)> = parts.into_iter().flatten().collect();
        all.sort_unstable_by_key(|&(i, _)| i);
        Ok((all.into_iter().map(|(_, o)| o).collect(), stats))
    }

    /// The executor proper. `may_spawn = false` promises that no task
    /// spawns, so a worker that finds no task anywhere may leave at once.
    /// Returns the per-worker outputs and stats plus whether `sink` (if
    /// any) took every message.
    fn execute<T, S, O, M>(
        &self,
        seed: Vec<T>,
        may_spawn: bool,
        init: impl Fn() -> S + Sync,
        task: impl Fn(T, &mut S, &TaskCtx<'_, T, M>) -> Result<()> + Sync,
        finish: impl Fn(S) -> O + Sync,
        sink: Option<&mut dyn FnMut(M) -> bool>,
    ) -> Result<(Vec<O>, Vec<WorkerStats>, bool)>
    where
        T: Send,
        O: Send,
        M: Send,
    {
        let halt = Halt::new(self.token);
        let pending = AtomicUsize::new(seed.len());
        if self.workers == 1 {
            let ctx = TaskCtx {
                queue: None,
                pending: &pending,
                stop: &halt.stop,
                outlet: sink.map_or(Outlet::Closed, |s| Outlet::Direct(RefCell::new(s))),
            };
            let mut seed = seed.into_iter();
            let (out, stats) = work(&halt, &ctx, &init, &task, &finish, |_| seed.next());
            drop(ctx);
            // Only a declining sink stops an inline run without failing it.
            let completed = !halt.stop.load(Ordering::Relaxed);
            halt.outcome()?;
            return Ok((out.into_iter().collect(), vec![stats], completed));
        }

        let workers = self.workers;
        let injector: Injector<T> = Injector::new();
        for t in seed {
            injector.push(t);
        }
        let locals: Vec<Worker<T>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<T>> = locals.iter().map(Worker::stealer).collect();
        let outs: Mutex<Vec<(usize, O, WorkerStats)>> = Mutex::new(Vec::with_capacity(workers));
        let (tx, rx) = match sink {
            Some(_) => {
                let (tx, rx) = sync_channel::<M>(STREAM_BOUND);
                (Some(tx), Some(rx))
            }
            None => (None, None),
        };
        let mut completed = true;
        std::thread::scope(|scope| {
            let (halt, pending, injector, stealers, outs) =
                (&halt, &pending, &injector, &stealers, &outs);
            let (init, task, finish) = (&init, &task, &finish);
            for (wid, local) in locals.into_iter().enumerate() {
                let tx = tx.clone();
                scope.spawn(move || {
                    let ctx = TaskCtx {
                        queue: Some(&local),
                        pending,
                        stop: &halt.stop,
                        outlet: tx.map_or(Outlet::Closed, Outlet::Channel),
                    };
                    // Own deque first, then the seeds, then half of a
                    // victim's deque. Found nothing: wait while a running
                    // task may still spawn one.
                    let next = |stats: &mut WorkerStats| loop {
                        let got = local.pop().or_else(|| {
                            injector.steal_batch_and_pop(&local).success().or_else(|| {
                                (1..workers).find_map(|i| {
                                    let got = stealers[(wid + i) % workers]
                                        .steal_batch_and_pop(&local)
                                        .success();
                                    stats.steals += u64::from(got.is_some());
                                    got
                                })
                            })
                        });
                        if got.is_some()
                            || !may_spawn
                            || pending.load(Ordering::SeqCst) == 0
                            || halt.stop.load(Ordering::Relaxed)
                        {
                            return got;
                        }
                        std::thread::yield_now();
                    };
                    if let (Some(out), stats) = work(halt, &ctx, init, task, finish, next) {
                        let mut outs = outs.lock().expect("nothing panics holding the outputs");
                        outs.push((wid, out, stats));
                    }
                });
            }
            drop(tx);
            if let (Some(rx), Some(sink)) = (rx, sink) {
                // Keep draining after the sink declines, so blocked
                // producers can finish, but forward nothing more.
                while let Ok(msg) = rx.recv() {
                    if completed && !sink(msg) {
                        completed = false;
                        halt.stop.store(true, Ordering::Relaxed);
                    }
                }
            }
        });
        halt.outcome()?;
        let mut outs = outs
            .into_inner()
            .expect("nothing panics holding the outputs");
        outs.sort_by_key(|&(wid, _, _)| wid);
        let (outs, stats) = outs.into_iter().map(|(_, o, s)| (o, s)).unzip();
        Ok((outs, stats, completed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// A plain [`Executor::run`] over `seed` with stateless workers.
    fn run_plain<T: Send>(
        workers: usize,
        token: Option<&CancelToken>,
        seed: Vec<T>,
        task: impl Fn(T, &TaskCtx<'_, T>) -> Result<()> + Sync,
    ) -> Result<Vec<WorkerStats>> {
        let (_, stats) =
            Executor::new(workers, token).run(seed, || (), |t, (), ctx| task(t, ctx), |()| ())?;
        Ok(stats)
    }

    /// Recursive fork-join sum of 0..256: spawning, stealing and
    /// pending-counter termination together. An inline run refuses the
    /// splits, so its one seed sums the whole range itself.
    #[test]
    fn spawned_subtasks_all_run_exactly_once() {
        for workers in [1usize, 2, 4] {
            let total = AtomicU64::new(0);
            let stats = run_plain(workers, None, vec![(0u64, 256u64)], |(lo, hi), ctx| {
                if hi - lo > 8 && ctx.can_spawn(usize::MAX) {
                    let mid = (lo + hi) / 2;
                    ctx.spawn((mid, hi));
                    ctx.spawn((lo, mid));
                } else {
                    total.fetch_add((lo..hi).sum::<u64>(), Ordering::Relaxed);
                }
                Ok(())
            })
            .unwrap();
            assert_eq!(total.into_inner(), 255 * 256 / 2, "workers={workers}");
            assert_eq!(stats.len(), workers);
            let tasks: u64 = stats.iter().map(|s| s.tasks).sum();
            let want = if workers == 1 { 1 } else { 63 };
            assert_eq!(tasks, want, "a binary split of 256 by 8 makes 63 tasks");
        }
    }

    #[test]
    fn indexed_results_come_back_in_task_order() {
        for workers in [1usize, 2, 4] {
            let (out, stats) = Executor::new(workers, None)
                .run_indexed(
                    100,
                    || (),
                    |(), i| {
                        // Uneven task lengths shuffle completion order.
                        if i % 7 == 0 {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Ok(i * i)
                    },
                )
                .unwrap();
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.iter().map(|s| s.tasks).sum::<u64>(), 100);
            assert_eq!(stats.len(), workers);
        }
        // Never more workers than tasks.
        let (out, stats) = Executor::new(4, None)
            .run_indexed(2, || (), |(), i| Ok(i))
            .unwrap();
        assert_eq!((out, stats.len()), (vec![0, 1], 2));
    }

    #[test]
    fn state_is_built_once_per_worker_and_outputs_come_in_worker_order() {
        let inits = AtomicU64::new(0);
        let (outs, stats) = Executor::new(3, None)
            .run(
                (0..64u64).collect(),
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0u64
                },
                |t, sum, _ctx: &TaskCtx<'_, u64>| {
                    *sum += t;
                    Ok(())
                },
                |sum| sum,
            )
            .unwrap();
        assert_eq!(inits.into_inner(), 3);
        assert_eq!(outs.len(), 3);
        assert_eq!(outs.iter().sum::<u64>(), 63 * 64 / 2);
        assert_eq!(stats.len(), 3);
    }

    /// Holds a task until the run is stopping. Task 0 always runs: the
    /// first worker to reach the seeds pops it before anything else.
    fn wait_for_stop<T, M>(ctx: &TaskCtx<'_, T, M>) {
        while !ctx.stop.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn the_first_task_error_wins_and_stops_the_other_workers() {
        for workers in [1usize, 2, 4] {
            let ran = AtomicU64::new(0);
            let err = run_plain(workers, None, (0..256u32).collect(), |t, ctx| {
                ran.fetch_add(1, Ordering::Relaxed);
                if t == 0 {
                    return Err(Error::Invalid("first".into()));
                }
                // Fails only after task 0's error stopped the run.
                wait_for_stop(ctx);
                Err(Error::Invalid("later".into()))
            })
            .unwrap_err();
            assert_eq!(err, Error::Invalid("first".into()), "workers={workers}");
            let ran = ran.into_inner();
            assert!(ran <= workers as u64, "workers={workers}: {ran} tasks ran");
        }
    }

    #[test]
    fn a_panicking_task_gives_worker_panicked_and_marks_the_token() {
        for workers in [1usize, 2] {
            let ran = AtomicU64::new(0);
            let token = CancelToken::new();
            let err = run_plain(workers, Some(&token), (0..64u32).collect(), |t, ctx| {
                ran.fetch_add(1, Ordering::Relaxed);
                if t == 0 {
                    panic!("task {t} exploded");
                }
                wait_for_stop(ctx);
                Ok(())
            })
            .unwrap_err();
            match err {
                Error::WorkerPanicked(msg) => assert!(msg.contains("exploded"), "{msg}"),
                other => panic!("expected WorkerPanicked, got {other}"),
            }
            assert!(matches!(
                token.stop_reason(),
                Some(Error::WorkerPanicked(_))
            ));
            let ran = ran.into_inner();
            assert!(
                ran <= workers as u64,
                "a panic abandons queued tasks: {ran} ran"
            );
        }
    }

    #[test]
    fn panics_are_contained_without_a_token_too() {
        let err = run_plain(2, None, vec![0u32], |_, _| panic!("no token around")).unwrap_err();
        assert!(matches!(err, Error::WorkerPanicked(_)), "{err}");
    }

    #[test]
    fn an_expired_deadline_gives_deadline_exceeded() {
        for workers in [1usize, 2] {
            let ran = AtomicU64::new(0);
            let token = CancelToken::with_deadline(Duration::ZERO);
            let err = run_plain(workers, Some(&token), (0..1024u32).collect(), |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap_err();
            assert!(matches!(err, Error::DeadlineExceeded(_)), "{err}");
            assert_eq!(ran.into_inner(), 0, "the first poll already trips");
        }
    }

    #[test]
    fn a_token_tripped_during_the_last_task_still_fails_the_run() {
        for workers in [1usize, 2] {
            let token = CancelToken::new();
            let err = run_plain(workers, Some(&token), vec![()], |(), _| {
                token.cancel();
                Ok(())
            })
            .unwrap_err();
            assert!(matches!(err, Error::Cancelled(_)), "{err}");
        }
    }

    #[test]
    fn an_externally_cancelled_token_gives_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        for workers in [1usize, 2] {
            let err =
                run_plain(workers, Some(&token), Vec::<u32>::new(), |_, _| Ok(())).unwrap_err();
            assert!(matches!(err, Error::Cancelled(_)), "{err}");
        }
    }

    #[test]
    fn an_inline_run_stays_on_the_calling_thread_in_seed_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let stats = run_plain(1, None, (0..32u32).collect(), |t, ctx| {
            assert_eq!(std::thread::current().id(), caller);
            assert!(!ctx.can_spawn(usize::MAX), "an inline run never splits");
            order.lock().unwrap().push(t);
            Ok(())
        })
        .unwrap();
        assert_eq!(order.into_inner().unwrap(), (0..32).collect::<Vec<_>>());
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].tasks, stats[0].steals), (32, 0));
        // Spawning anyway is a contained programming error.
        let err = run_plain(1, None, vec![0u32], |t, ctx| {
            ctx.spawn(t);
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, Error::WorkerPanicked(_)), "{err}");
    }

    #[test]
    fn empty_seed_terminates_immediately() {
        let stats = run_plain(4, None, Vec::<u32>::new(), |_, _| {
            unreachable!("no tasks exist")
        })
        .unwrap();
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| s.tasks == 0 && s.steals == 0));
    }

    #[test]
    fn a_stream_reaches_the_sink_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for workers in [1usize, 3] {
            let mut got = Vec::new();
            let completed = Executor::new(workers, None)
                .stream(
                    (0..50u32).collect(),
                    || (),
                    |t, (), ctx: &TaskCtx<'_, u32, u32>| {
                        ctx.emit(t);
                        Ok(())
                    },
                    &mut |m| {
                        assert_eq!(std::thread::current().id(), caller);
                        got.push(m);
                        true
                    },
                )
                .unwrap();
            assert!(completed);
            if workers == 1 {
                assert_eq!(got, (0..50).collect::<Vec<_>>(), "seed order inline");
            }
            got.sort_unstable();
            assert_eq!(got, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_declining_sink_stops_the_run_without_an_error() {
        for workers in [1usize, 2] {
            let ran = AtomicU64::new(0);
            let token = CancelToken::new();
            let mut seen = 0;
            let completed = Executor::new(workers, Some(&token))
                .stream(
                    (0..256u32).collect(),
                    || (),
                    |t, (), ctx: &TaskCtx<'_, u32, u32>| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        if t != 0 {
                            wait_for_stop(ctx);
                        }
                        ctx.emit(t);
                        Ok(())
                    },
                    &mut |_| {
                        seen += 1;
                        false
                    },
                )
                .unwrap();
            assert!(!completed);
            assert_eq!(seen, 1, "nothing reaches the sink after it declined");
            // Task 0's worker may start one more task before the calling
            // thread has declined task 0's message.
            let ran = ran.into_inner();
            assert!(
                ran <= workers as u64 + 1,
                "a declined stream abandons queued tasks: {ran} ran"
            );
            assert!(!token.is_stopped(), "a consumer's stop is no failure");
        }
    }
}
