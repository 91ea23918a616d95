//! A std-only work-stealing thread pool for index-addressed task sets.
//!
//! The executor runs a *known, finite* set of tasks `0..n` — Monte-Carlo
//! chunks, benchmark profiles, per-ε bound reports. That closed-world
//! assumption keeps the scheduler small: tasks are dealt into one deque
//! per worker up front, each worker drains its own deque from the front
//! and steals from the back of its neighbours' when it runs dry, and the
//! pool is done when every deque is empty (no task ever enqueues another
//! task, so an empty sweep means termination).
//!
//! Determinism: results are addressed by task index, never by completion
//! order, so the output of [`ThreadPool::map_indexed`] is a pure function
//! of the closure — identical for any worker count and any steal
//! interleaving.
//!
//! For *open* task sets — jobs that stream in one at a time, as from a
//! serve session — [`ThreadPool::dispatch_scope`] runs a scoped worker
//! crew over a bounded admission queue with explicit overload reporting
//! ([`Dispatcher::try_submit`]). Ordering of results is the caller's
//! concern there; the crew only guarantees every admitted job runs
//! exactly once.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex};

use crate::error::RunnerError;

/// Hard ceiling on the worker count.
///
/// Far above any sensible hardware concurrency; it exists so an absurd
/// `--jobs 1000000` is rejected as a configuration error instead of
/// exhausting the OS thread limit.
pub const MAX_JOBS: usize = 512;

/// A deterministic parallel executor with a fixed worker budget.
///
/// Workers are scoped to each [`map_indexed`](ThreadPool::map_indexed)
/// call (spawned on entry, joined before return): the pool holds no
/// global state, cannot leak threads and cannot be poisoned by a
/// panicking task — the panic is propagated to the caller instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadPool {
    jobs: NonZeroUsize,
}

impl ThreadPool {
    /// Creates a pool running at most `jobs` tasks concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::BadJobs`] unless `1 <= jobs <= MAX_JOBS`.
    pub fn new(jobs: usize) -> Result<Self, RunnerError> {
        match NonZeroUsize::new(jobs) {
            Some(n) if jobs <= MAX_JOBS => Ok(ThreadPool { jobs: n }),
            _ => Err(RunnerError::BadJobs {
                got: jobs,
                max: MAX_JOBS,
            }),
        }
    }

    /// The single-worker pool — the serial reference engine every
    /// parallel result must be byte-identical to.
    #[must_use]
    pub fn serial() -> Self {
        ThreadPool {
            jobs: NonZeroUsize::MIN,
        }
    }

    /// A pool sized to the host's available parallelism (1 when the OS
    /// cannot report it).
    #[must_use]
    pub fn auto() -> Self {
        let jobs = std::thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(MAX_JOBS);
        ThreadPool::new(jobs).expect("clamped into range")
    }

    /// The configured worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs.get()
    }

    /// Evaluates `f` over every index in `0..n`, returning the results
    /// in index order.
    ///
    /// The schedule (which worker runs which index, steal order) is
    /// nondeterministic; the returned vector is not — element `i` is
    /// always `f(i)`.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_indexed_init(n, || (), |(), i| f(i)).0
    }

    /// Like [`ThreadPool::map_indexed`], but each worker carries a
    /// private state created by `init` — reusable scratch buffers,
    /// running accumulators — threaded through every task that worker
    /// executes.
    ///
    /// Returns the task results in index order plus the final worker
    /// states. **Which tasks fed which state is scheduling-dependent**
    /// (work stealing), so states are only deterministic in aggregate:
    /// fold them with an operation that is associative and commutative
    /// (integer tally merges qualify) or treat them as caches.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `init` or `f`.
    pub fn map_indexed_init<S, T, I, F>(&self, n: usize, init: I, f: F) -> (Vec<T>, Vec<S>)
    where
        S: Send,
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if n == 0 {
            return (Vec::new(), Vec::new());
        }
        let workers = self.jobs.get().min(n);
        if workers <= 1 {
            let mut state = init();
            let results = (0..n).map(|i| f(&mut state, i)).collect();
            return (results, vec![state]);
        }

        // Deal contiguous index runs, one deque per worker: run w gets
        // [w*n/workers, (w+1)*n/workers) — balanced to within one task.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w * n / workers..(w + 1) * n / workers).collect()))
            .collect();

        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut states: Vec<S> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let init = &init;
                    let f = &f;
                    scope.spawn(move || {
                        let mut state = init();
                        let mut local: Vec<(usize, T)> = Vec::new();
                        while let Some(i) = next_task(queues, w) {
                            local.push((i, f(&mut state, i)));
                        }
                        (local, state)
                    })
                })
                .collect();
            for handle in handles {
                // join() returns Err only when the worker panicked;
                // resume the panic on the caller's thread.
                let (local, state) = handle
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e));
                for (i, value) in local {
                    slots[i] = Some(value);
                }
                states.push(state);
            }
        });
        let results = slots
            .into_iter()
            .map(|s| s.expect("every index 0..n was dealt exactly once"))
            .collect();
        (results, states)
    }

    /// Runs `body` with a crew of [`jobs`](ThreadPool::jobs) workers
    /// draining a bounded admission queue of streamed jobs.
    ///
    /// Unlike [`map_indexed`](ThreadPool::map_indexed) the task set is
    /// *open*: `body` submits jobs as they arrive (a serve session
    /// reading requests off a socket) via [`Dispatcher::try_submit`],
    /// and a full queue hands the job back instead of blocking — the
    /// submitter answers overload in-band. When `body` returns, the
    /// queue is closed and drained: every admitted job runs exactly
    /// once before `dispatch_scope` returns. Workers are scoped to the
    /// call, like every other pool entry point — no detached threads.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside a job.
    pub fn dispatch_scope<'env, R>(
        &self,
        capacity: usize,
        body: impl FnOnce(&Dispatcher<'env>) -> R,
    ) -> R {
        let dispatcher = Dispatcher::new(capacity);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.jobs.get())
                .map(|_| {
                    let dispatcher = &dispatcher;
                    scope.spawn(move || dispatcher.work())
                })
                .collect();
            let out = body(&dispatcher);
            dispatcher.close();
            for handle in handles {
                handle
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
            out
        })
    }
}

/// A boxed unit of streamed work; see [`ThreadPool::dispatch_scope`].
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// The bounded admission queue of one [`ThreadPool::dispatch_scope`]
/// crew. Holds at most `capacity` not-yet-started jobs; admission
/// beyond that is refused, never blocked on.
pub struct Dispatcher<'env> {
    state: Mutex<DispatchQueue<'env>>,
    wake: Condvar,
    capacity: usize,
}

struct DispatchQueue<'env> {
    jobs: VecDeque<Job<'env>>,
    closed: bool,
}

impl std::fmt::Debug for Dispatcher<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("capacity", &self.capacity)
            .field("queued", &self.queued())
            .finish_non_exhaustive()
    }
}

impl<'env> Dispatcher<'env> {
    fn new(capacity: usize) -> Self {
        Dispatcher {
            state: Mutex::new(DispatchQueue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Submits one job, or hands it back when the queue is at capacity
    /// so the caller can answer the overload in-band.
    ///
    /// # Errors
    ///
    /// Returns the job itself when the queue is full.
    pub fn try_submit<F>(&self, job: F) -> Result<(), F>
    where
        F: FnOnce() + Send + 'env,
    {
        let mut state = self.state.lock().expect("dispatch queue lock");
        if state.jobs.len() >= self.capacity {
            return Err(job);
        }
        state.jobs.push_back(Box::new(job));
        drop(state);
        self.wake.notify_one();
        Ok(())
    }

    /// The number of admitted jobs not yet picked up by a worker.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.state.lock().expect("dispatch queue lock").jobs.len()
    }

    /// Closes admission; workers drain the remaining queue and exit.
    fn close(&self) {
        self.state.lock().expect("dispatch queue lock").closed = true;
        self.wake.notify_all();
    }

    /// One worker's loop: run jobs until the queue is closed *and* dry.
    fn work(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("dispatch queue lock");
                loop {
                    if let Some(job) = state.jobs.pop_front() {
                        break Some(job);
                    }
                    if state.closed {
                        break None;
                    }
                    state = self.wake.wait(state).expect("dispatch queue lock");
                }
            };
            match job {
                Some(job) => job(),
                None => return,
            }
        }
    }
}

/// Pops the next task for worker `w`: front of its own deque, else a
/// steal from the back of the first non-empty neighbour.
fn next_task(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = queues[w].lock().expect("queue lock").pop_front() {
        return Some(i);
    }
    for off in 1..queues.len() {
        let victim = (w + off) % queues.len();
        if let Some(i) = queues[victim].lock().expect("queue lock").pop_back() {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn rejects_zero_and_absurd_worker_counts() {
        assert!(matches!(
            ThreadPool::new(0),
            Err(RunnerError::BadJobs { got: 0, .. })
        ));
        assert!(ThreadPool::new(MAX_JOBS).is_ok());
        assert!(ThreadPool::new(MAX_JOBS + 1).is_err());
        assert!(ThreadPool::new(usize::MAX).is_err());
    }

    #[test]
    fn results_are_in_index_order_for_every_worker_count() {
        for jobs in [1, 2, 3, 4, 8, 17] {
            let pool = ThreadPool::new(jobs).unwrap();
            let out = pool.map_indexed(100, |i| i * i);
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = ThreadPool::new(4).unwrap();
        let counter = AtomicUsize::new(0);
        let out = pool.map_indexed(1000, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn skewed_task_durations_still_complete() {
        // One pathological long task at index 0 forces the other workers
        // to steal the rest of worker 0's deque.
        let pool = ThreadPool::new(4).unwrap();
        let out = pool.map_indexed(64, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_task_sets() {
        let pool = ThreadPool::new(8).unwrap();
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 7), vec![7]);
        assert_eq!(pool.map_indexed(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let pool = ThreadPool::new(32).unwrap();
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn task_panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(4).unwrap();
        let result = std::panic::catch_unwind(|| {
            pool.map_indexed(16, |i| {
                assert!(i != 9, "task nine exploded");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn per_worker_states_cover_every_task_exactly_once() {
        for jobs in [1usize, 4, 9] {
            let pool = ThreadPool::new(jobs).unwrap();
            let (results, states) = pool.map_indexed_init(
                100,
                || 0usize,
                |tasks_seen, i| {
                    *tasks_seen += 1;
                    i * 3
                },
            );
            assert_eq!(results, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            assert!(states.len() <= jobs, "jobs={jobs}");
            assert_eq!(states.iter().sum::<usize>(), 100, "jobs={jobs}");
        }
        let pool = ThreadPool::new(4).unwrap();
        let (results, states) = pool.map_indexed_init(0, || 1u8, |_, i| i);
        assert!(results.is_empty());
        assert!(states.is_empty());
    }

    #[test]
    fn dispatch_scope_runs_every_admitted_job_exactly_once() {
        for jobs in [1usize, 2, 8] {
            let pool = ThreadPool::new(jobs).unwrap();
            let counter = AtomicUsize::new(0);
            pool.dispatch_scope(16, |crew| {
                for _ in 0..100 {
                    let mut job = Some(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                    // A full queue hands the job back; retry until the
                    // crew drains a slot.
                    while let Err(returned) = crew.try_submit(job.take().unwrap()) {
                        job = Some(returned);
                        std::thread::yield_now();
                    }
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 100, "jobs={jobs}");
        }
    }

    #[test]
    fn full_queue_refuses_instead_of_blocking() {
        use std::sync::mpsc;
        let pool = ThreadPool::new(1).unwrap();
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let ran = AtomicUsize::new(0);
        pool.dispatch_scope(2, |crew| {
            assert!(crew
                .try_submit(move || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
                .is_ok());
            // The single worker now holds the first job; the queue is
            // empty and admits exactly `capacity` more.
            started_rx.recv().unwrap();
            assert!(crew.try_submit(|| {}).is_ok());
            assert!(crew
                .try_submit(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
                .is_ok());
            assert_eq!(crew.queued(), 2);
            assert!(
                crew.try_submit(|| {}).is_err(),
                "the third pending job must be refused, not queued"
            );
            release_tx.send(()).unwrap();
        });
        // Close-then-drain: the admitted jobs all ran.
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dispatch_job_panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(2).unwrap();
        let result = std::panic::catch_unwind(|| {
            pool.dispatch_scope(8, |crew| {
                let _ = crew.try_submit(|| panic!("job exploded"));
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn auto_and_serial_are_valid() {
        assert_eq!(ThreadPool::serial().jobs(), 1);
        let auto = ThreadPool::auto();
        assert!((1..=MAX_JOBS).contains(&auto.jobs()));
    }
}
