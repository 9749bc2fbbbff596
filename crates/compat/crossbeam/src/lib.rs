//! Offline shim for the `crossbeam::deque` work-stealing primitives this
//! workspace uses (scoped threads come from `std::thread::scope`).
//!
//! [`deque`] mirrors `crossbeam-deque`'s `Worker`/`Stealer`/`Injector`
//! surface over a `Mutex<VecDeque>`. The real crate's lock-free Chase-Lev
//! deque matters at sub-microsecond task granularity; the task executor
//! built on top (`desq_core::sched`) hands out whole tasks (search
//! subtrees, input blocks, BSP partitions), where a mutex per pop is
//! noise.

pub mod deque {
    //! Work-stealing deques: each worker owns a [`Worker`] end (LIFO push and
    //! pop, for cache-friendly depth-first descent) and hands out [`Stealer`]
    //! handles that take from the *opposite* (FIFO) end, stealing up to half
    //! of the queue per attempt — crossbeam's "steal half" batch semantics.

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Outcome of a steal attempt, matching `crossbeam_deque::Steal`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// One task was stolen (the head of a stolen batch).
        Success(T),
        /// A concurrent operation interfered; retry if desired. The mutex
        /// backing never produces this, but callers are written against the
        /// real API and must handle it.
        Retry,
    }

    impl<T> Steal<T> {
        /// Returns the stolen task, if any.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(t) => Some(t),
                _ => None,
            }
        }
    }

    /// The owner's end of a work-stealing deque.
    pub struct Worker<T> {
        shared: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        /// Creates a new LIFO worker queue (the only flavor the mining
        /// executor uses; crossbeam's FIFO flavor is not mirrored).
        pub fn new_lifo() -> Worker<T> {
            Worker {
                shared: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        /// Returns a handle that can steal from this queue.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                shared: Arc::clone(&self.shared),
            }
        }

        /// Pushes a task onto the owner's end.
        pub fn push(&self, task: T) {
            self.shared.lock().unwrap().push_back(task);
        }

        /// Pops a task from the owner's end (LIFO: the most recently pushed).
        pub fn pop(&self) -> Option<T> {
            self.shared.lock().unwrap().pop_back()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.shared.lock().unwrap().is_empty()
        }

        /// Number of queued tasks.
        pub fn len(&self) -> usize {
            self.shared.lock().unwrap().len()
        }
    }

    /// A thief's handle onto some worker's deque.
    pub struct Stealer<T> {
        shared: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Stealer<T> {
            Stealer {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Stealer<T> {
        /// Steals a single task from the cold (FIFO) end.
        pub fn steal(&self) -> Steal<T> {
            match self.shared.lock().unwrap().pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// Steals a batch of up to half the victim's tasks into `dest`, then
        /// pops one of them for immediate execution — the
        /// `steal_batch_and_pop` operation the executor drives. The first
        /// stolen task (oldest, closest to the victim's root) is returned;
        /// the rest land in `dest`.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut batch = {
                let mut victim = self.shared.lock().unwrap();
                let n = victim.len().div_ceil(2).min(victim.len());
                victim.drain(..n).collect::<Vec<T>>()
            };
            if batch.is_empty() {
                return Steal::Empty;
            }
            let first = batch.remove(0);
            let mut dest_q = dest.shared.lock().unwrap();
            for t in batch {
                dest_q.push_back(t);
            }
            Steal::Success(first)
        }

        /// Whether the victim's queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.shared.lock().unwrap().is_empty()
        }
    }

    /// A global FIFO queue all workers can push to and steal from; used to
    /// seed initial tasks before per-worker queues warm up.
    pub struct Injector<T> {
        shared: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Injector<T> {
            Injector::new()
        }
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Injector<T> {
            Injector {
                shared: Mutex::new(VecDeque::new()),
            }
        }

        /// Pushes a task onto the tail.
        pub fn push(&self, task: T) {
            self.shared.lock().unwrap().push_back(task);
        }

        /// Steals a batch of up to half the queued tasks into `dest` and pops
        /// one, like [`Stealer::steal_batch_and_pop`].
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut batch = {
                let mut q = self.shared.lock().unwrap();
                let n = q.len().div_ceil(2).min(q.len());
                q.drain(..n).collect::<Vec<T>>()
            };
            if batch.is_empty() {
                return Steal::Empty;
            }
            let first = batch.remove(0);
            let mut dest_q = dest.shared.lock().unwrap();
            for t in batch {
                dest_q.push_back(t);
            }
            Steal::Success(first)
        }

        /// Whether the injector is currently empty.
        pub fn is_empty(&self) -> bool {
            self.shared.lock().unwrap().is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::{Injector, Steal, Worker};

    #[test]
    fn worker_is_lifo_and_stealer_takes_from_the_cold_end() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        for i in 0..4 {
            w.push(i);
        }
        assert_eq!(w.pop(), Some(3)); // owner: LIFO
        assert_eq!(s.steal().success(), Some(0)); // thief: FIFO
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn steal_batch_takes_half_and_pops_one() {
        let victim = Worker::new_lifo();
        let thief = Worker::new_lifo();
        for i in 0..7 {
            victim.push(i);
        }
        // ceil(7/2) = 4 stolen: task 0 returned, 1..=3 queued on the thief.
        assert_eq!(
            victim.stealer().steal_batch_and_pop(&thief).success(),
            Some(0)
        );
        assert_eq!(thief.len(), 3);
        assert_eq!(victim.len(), 3);
        assert_eq!(thief.pop(), Some(3));
    }

    #[test]
    fn empty_steals_report_empty() {
        let w: Worker<u32> = Worker::new_lifo();
        assert_eq!(w.stealer().steal(), Steal::Empty);
        assert_eq!(
            w.stealer().steal_batch_and_pop(&Worker::new_lifo()),
            Steal::Empty
        );
        let inj: Injector<u32> = Injector::new();
        assert_eq!(inj.steal_batch_and_pop(&Worker::new_lifo()), Steal::Empty);
    }

    #[test]
    fn injector_seeds_workers_fifo() {
        let inj = Injector::new();
        for i in 0..5 {
            inj.push(i);
        }
        let w = Worker::new_lifo();
        assert_eq!(inj.steal_batch_and_pop(&w).success(), Some(0));
        assert_eq!(w.len(), 2); // ceil(5/2)=3 stolen, one popped
        assert!(!inj.is_empty());
    }
}
