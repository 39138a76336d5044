//! A fixed-size thread pool whose jobs can be taken back.
//!
//! The paper's runtime "includes an efficient thread pool implementation
//! (shared with all state dependences) to minimize thread creation
//! overhead". This pool is created once and shared. Submitted jobs wait in
//! one FIFO queue that lives, with the rest of the pool's state, under one
//! mutex: every idle worker takes the oldest job, so group executions stay
//! balanced when their costs are skewed (e.g. groups with different
//! auxiliary windows) — no worker holds work another could run — and jobs
//! start in the order the in-order resolvers consume them. Looking at the
//! queue and deciding to park are one critical section.
//!
//! Speculation only pays when coordinating a group costs less than running
//! it, so the pool wakes nobody it does not need:
//!
//! - [`ThreadPool::submit`] returns a [`Ticket`]. A submitted job is
//!   *claimable*: whichever thread takes it out of its slot first — a
//!   worker that popped it, or the ticket's holder through
//!   [`Ticket::run_if_unclaimed`] — runs it, exactly once. A thread that is
//!   about to block on a job nobody has started runs it instead of waiting
//!   for a worker to wake up.
//! - Submission wakes at most one sleeping worker, and none when every
//!   worker is awake; a finished job wakes nobody (workers waiting out a
//!   shutdown excepted).
//!
//! Waiting for a batch of jobs is written once, in `ThreadPool::ordered`
//! (results in submission order; the consumer runs the job it is about to
//! wait for if nobody has): [`ThreadPool::scope`], [`ThreadPool::map`], the
//! batch engine and — through an open batch it keeps adding groups to —
//! the streaming [`Session`](crate::Session) all consume it.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{thread, Arc, CachePadded, Condvar, Mutex};

/// A submitted closure in the slot it waits in until a thread claims it.
/// Its queue entry and the [`Ticket`] share it; `take()` under the mutex is
/// the claim, so the closure runs exactly once whoever gets there first.
struct Task(Mutex<Option<Box<dyn FnOnce() + Send>>>);

type Job = Arc<Task>;

/// How long a parked worker sleeps before it looks again unprompted. A
/// backstop only: `submit` publishes a job under the lock a worker parks
/// with, so the worker either sees the job or is a registered sleeper by
/// the time `submit` notifies (`pool_submit_never_strands_a_sleeper` in
/// `tests/loom.rs` runs with the timeout disabled).
const PARK_BACKSTOP: Duration = Duration::from_millis(1);

/// Monotonic pool counters, updated by whichever thread runs a job.
///
/// Every field is cache-line padded: these counters are written from all
/// workers on every job, and unpadded they share lines with each other (and
/// with whatever neighbours the allocator picks), so each bump invalidates
/// the line under every other core — false sharing that grows with the
/// worker count. `busy_ns` is padded per *entry* because each worker owns
/// exactly one slot; adjacent slots in one `Vec` are the textbook case.
struct PoolCounters {
    /// Jobs completed, by workers and ticket holders alike.
    jobs: CachePadded<AtomicU64>,
    /// Deepest backlog of unclaimed jobs observed at submission time.
    max_injector_depth: CachePadded<AtomicU64>,
    /// Per-worker nanoseconds spent executing jobs (not idling).
    busy_ns: Vec<CachePadded<AtomicU64>>,
    /// Jobs run by their ticket's holder, and the nanoseconds that took.
    helped_jobs: CachePadded<AtomicU64>,
    helper_busy_ns: CachePadded<AtomicU64>,
}

struct PoolShared {
    /// The queue and everything a worker decides to park or exit on.
    live: Mutex<PoolState>,
    /// Parked workers wait here; its waiter count is the sleeper count.
    wake: Condvar,
    /// Jobs submitted and not yet claimed: raised by `enqueue`, lowered by
    /// the claiming thread. Only the source of `max_injector_depth` — the
    /// queue's length would also count entries whose ticket holder has
    /// already run the job.
    unclaimed: CachePadded<AtomicUsize>,
    counters: PoolCounters,
}

struct PoolState {
    /// Submitted jobs, oldest first.
    queue: VecDeque<Job>,
    /// Jobs submitted but not yet finished.
    pending: usize,
    shutdown: bool,
}

/// Which thread runs a claimed job, for the busy-time accounts.
#[derive(Clone, Copy)]
enum Runner {
    Worker(usize),
    TicketHolder,
}

impl PoolShared {
    fn enqueue(&self, job: Box<dyn FnOnce() + Send>) -> Job {
        let job: Job = Arc::new(Task(Mutex::new(Some(job))));
        let depth = {
            // Published under `live`: a worker looks at the queue and
            // parks under the same lock, so it either sees this job or is
            // already waiting when the notify below looks for sleepers.
            let mut state = self.live.lock();
            assert!(!state.shutdown, "pool is shut down");
            state.pending += 1;
            state.queue.push_back(Arc::clone(&job));
            self.unclaimed.fetch_add(1, Ordering::Relaxed) + 1
        };
        self.counters
            .max_injector_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
        self.wake.notify_one();
        job
    }

    /// Claim `job` and run it on this thread; `false` when another thread
    /// already had.
    fn run(&self, job: &Task, runner: Runner) -> bool {
        let Some(body) = job.0.lock().take() else {
            return false;
        };
        self.unclaimed.fetch_sub(1, Ordering::Relaxed);
        // The accounts settle on drop, so a panicking job (none of the
        // runtime's: they catch their own) still counts as finished and
        // cannot hang the pool's shutdown.
        let _finished = Finished {
            shared: self,
            runner,
            began: Instant::now(),
        };
        body();
        true
    }
}

struct Finished<'a> {
    shared: &'a PoolShared,
    runner: Runner,
    began: Instant,
}

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        let c = &self.shared.counters;
        let ns = self.began.elapsed().as_nanos() as u64;
        match self.runner {
            Runner::Worker(idx) => c.busy_ns[idx].fetch_add(ns, Ordering::Relaxed),
            Runner::TicketHolder => {
                c.helped_jobs.fetch_add(1, Ordering::Relaxed);
                c.helper_busy_ns.fetch_add(ns, Ordering::Relaxed)
            }
        };
        // Release pairs with the Acquire loads in `scope`/`metrics`: once
        // a job is visible in the counter, its busy time is too.
        c.jobs.fetch_add(1, Ordering::Release);
        let mut state = self.shared.live.lock();
        state.pending -= 1;
        let draining = state.shutdown;
        drop(state);
        // Only workers waiting for `pending == 0` to exit care that a job
        // finished; nobody else is woken for it.
        if draining {
            self.shared.wake.notify_all();
        }
    }
}

/// A submitted job, as seen by the thread that may have to wait for it.
///
/// Dropping the ticket leaves the job to the workers (fire and forget).
pub struct Ticket {
    job: Job,
    shared: Arc<PoolShared>,
}

impl Ticket {
    /// Run the job on the calling thread unless some thread has already
    /// started (or finished) it; returns whether this call ran it.
    ///
    /// This is for a thread about to block on the job's result: running a
    /// job no worker has picked up costs the job, waiting for it costs a
    /// wake-up and two context switches on top. The job's queue entry stays
    /// behind and is discarded by the worker that eventually pops it. A
    /// panic in the job unwinds into the caller.
    pub fn run_if_unclaimed(&self) -> bool {
        self.shared.run(&self.job, Runner::TicketHolder)
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

/// A fixed-size pool of worker threads executing submitted closures.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let counter = || CachePadded::new(AtomicU64::new(0));
        let shared = Arc::new(PoolShared {
            live: Mutex::new(PoolState {
                queue: VecDeque::new(),
                pending: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            unclaimed: CachePadded::new(AtomicUsize::new(0)),
            counters: PoolCounters {
                jobs: counter(),
                max_injector_depth: counter(),
                busy_ns: (0..threads).map(|_| counter()).collect(),
                helped_jobs: counter(),
                helper_busy_ns: counter(),
            },
        });

        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("stats-worker-{i}"))
                    .spawn(move || worker_loop(i, &shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submit a fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.enqueue(Box::new(job));
    }

    /// Submit a job behind every queued one, waking one sleeping worker if
    /// there is one. The [`Ticket`] lets the caller run the job itself
    /// should it come to wait for it before a worker has started it.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Ticket {
        Ticket {
            job: self.shared.enqueue(Box::new(job)),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Snapshot the pool's observability counters.
    pub fn metrics(&self) -> PoolMetrics {
        let c = &self.shared.counters;
        let nanos = |ns: &AtomicU64| Duration::from_nanos(ns.load(Ordering::Relaxed));
        PoolMetrics {
            jobs_executed: c.jobs.load(Ordering::Acquire),
            steals: 0,
            max_injector_depth: c.max_injector_depth.load(Ordering::Relaxed),
            busy: c.busy_ns.iter().map(|ns| nanos(ns)).collect(),
            helped_jobs: c.helped_jobs.load(Ordering::Relaxed),
            helper_busy: nanos(&c.helper_busy_ns),
        }
    }

    /// Submit every job in order; the returned iterator hands the results
    /// back strictly in submission order, whatever order they finish in.
    pub(crate) fn ordered<R, F, I>(&self, jobs: I) -> Ordered<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
        I: IntoIterator<Item = F>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut batch = self.open_ordered(|| {});
        batch.submit(jobs);
        batch
    }

    /// An empty [`ordered`](ThreadPool::ordered) batch that stays open:
    /// [`Ordered::submit`] adds jobs behind the ones already in it. Every
    /// stored result also calls `wake`, strictly after the store, for a
    /// consumer that blocks on a condition of its own rather than in `next`.
    pub(crate) fn open_ordered<R>(&self, wake: impl Fn() + Send + Sync + 'static) -> Ordered<R> {
        let results = Results {
            consumed: 0,
            slots: VecDeque::new(),
        };
        Ordered {
            shared: Arc::clone(&self.shared),
            jobs: VecDeque::new(),
            submitted: 0,
            slots: Arc::new(Slots {
                results: Mutex::new(results),
                filled: Condvar::new(),
                wake: Box::new(wake),
            }),
        }
    }

    /// [`ordered`](ThreadPool::ordered) for `tests/loom.rs`, which links the
    /// crate from outside and cannot see crate-private items.
    #[cfg(loom)]
    #[doc(hidden)]
    pub fn ordered_for_model<R: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send>>,
    ) -> impl Iterator<Item = R> {
        self.ordered(jobs)
    }

    /// Run a batch of jobs and wait for all of them to complete.
    ///
    /// Jobs receive their index. The caller works through the batch itself,
    /// in order, running every job no worker has started yet and waiting
    /// for the ones workers did take — so a scope called from inside a pool
    /// job completes even when every worker is busy. Panics in jobs are
    /// contained and surface as a panic here once the scope completes
    /// accounting.
    pub fn scope<F>(&self, jobs: Vec<F>)
    where
        F: FnOnce(usize) + Send + 'static,
    {
        let settled = self.shared.counters.jobs.load(Ordering::Acquire) + jobs.len() as u64;
        let mut batch = self.ordered(jobs.into_iter().enumerate().map(|(i, job)| move || job(i)));
        let panics = std::iter::from_fn(|| batch.next_caught())
            .filter(Result::is_err)
            .count();
        // A job's runner bumps the observability counters just *after* the
        // job has published its result: settle until this batch's increments
        // land, so that metrics() taken right after a scope covers all of it.
        // The Acquire load pairs with the Release increment in
        // `Finished::drop` (docs/concurrency.md; pinned by
        // `pool_scope_settle_publishes_metrics`).
        while self.shared.counters.jobs.load(Ordering::Acquire) < settled {
            thread::yield_now();
        }
        assert!(panics == 0, "{panics} job(s) panicked in ThreadPool::scope");
    }

    /// Apply `f` to every item concurrently, returning results in item order.
    ///
    /// The parallel counterpart of `items.iter().map(f).collect()`: results
    /// land at their item's index regardless of which thread ran them or in
    /// what order they finished. A panic in `f` is re-raised here.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let jobs = items.into_iter().map(|item| {
            let f = Arc::clone(&f);
            move || f(item)
        });
        self.ordered(jobs).collect()
    }
}

/// Where the jobs of one [`ThreadPool::ordered`] batch leave their results
/// (or panic payloads); the consumer waits on `filled` — or on whatever
/// `wake` signals — for the next one.
struct Slots<R> {
    results: Mutex<Results<R>>,
    filled: Condvar,
    wake: Box<dyn Fn() + Send + Sync>,
}

/// The slots of the jobs not consumed yet: job `i`'s is `slots[i - consumed]`,
/// once some job at or past `i` has stored its result.
struct Results<R> {
    consumed: usize,
    slots: VecDeque<Option<std::thread::Result<R>>>,
}

impl<R> Slots<R> {
    /// Store job `i`'s result, then wake its consumer.
    fn fill(&self, i: usize, result: std::thread::Result<R>) {
        let mut results = self.results.lock();
        let at = i - results.consumed;
        if results.slots.len() <= at {
            results.slots.resize_with(at + 1, || None);
        }
        results.slots[at] = Some(result);
        drop(results);
        self.filled.notify_all();
        (self.wake)();
    }
}

/// The results of one [`ThreadPool::ordered`] batch, in submission order.
///
/// - Before blocking on result *i*, the consumer runs job *i* itself if no
///   worker has claimed it ([`claim_next`](Ordered::claim_next)).
/// - A job's captures are released before its result becomes visible: the
///   consumer may return, and its caller drop the last other handle on
///   whatever the job held, the moment the slot fills. (A job holding the
///   last `Arc<ThreadPool>` would otherwise drop the pool on one of its
///   own workers, which then joins itself: EDEADLK.)
/// - A job's panic is contained where it ran and re-raised, with its own
///   payload, by the `next` that reaches it — so the consumer sees the
///   first failure in submission order, whichever job failed first in time.
/// - No job outlives the batch: dropping the iterator early (a consumer
///   that panicked, say) runs or waits out the jobs not yet consumed.
pub(crate) struct Ordered<R> {
    shared: Arc<PoolShared>,
    /// The jobs whose results are not consumed yet, oldest first.
    jobs: VecDeque<Job>,
    /// Jobs submitted so far: the next one's index.
    submitted: usize,
    slots: Arc<Slots<R>>,
}

impl<R: Send + 'static> Ordered<R> {
    /// Submit `jobs` behind the ones already in the batch.
    pub(crate) fn submit<F, I>(&mut self, jobs: I)
    where
        F: FnOnce() -> R + Send + 'static,
        I: IntoIterator<Item = F>,
        I::IntoIter: ExactSizeIterator,
    {
        let jobs = jobs.into_iter();
        self.jobs.reserve(jobs.len());
        for job in jobs {
            let (slots, i) = (Arc::clone(&self.slots), self.submitted);
            self.submitted += 1;
            // The call consumes `job`, so its captures are gone before the
            // result can be seen.
            let body = move || slots.fill(i, std::panic::catch_unwind(AssertUnwindSafe(job)));
            let job = self.shared.enqueue(Box::new(body));
            self.jobs.push_back(job);
        }
    }
}

impl<R> Ordered<R> {
    /// Run the next job on this thread unless some thread has claimed it:
    /// the step before blocking on its result (why:
    /// [`Ticket::run_if_unclaimed`]). Only that job: any other would
    /// compete with the workers for cores on work that is not yet on the
    /// consumer's critical path. Returns whether this call ran it.
    pub(crate) fn claim_next(&self) -> bool {
        self.jobs
            .front()
            .is_some_and(|job| self.shared.run(job, Runner::TicketHolder))
    }

    /// The next result if it is already stored, a panic re-raised as by
    /// `next`.
    pub(crate) fn try_next(&mut self) -> Option<R> {
        self.pop(false).map(reraise)
    }

    /// The next job's result, or the payload of its panic.
    fn next_caught(&mut self) -> Option<std::thread::Result<R>> {
        self.claim_next();
        self.pop(true)
    }

    /// Take the next result, waiting for it to be stored if `wait`.
    fn pop(&mut self, wait: bool) -> Option<std::thread::Result<R>> {
        self.jobs.front()?;
        let mut results = self.slots.results.lock();
        loop {
            if let Some(result) = results.slots.front_mut().and_then(Option::take) {
                results.slots.pop_front();
                results.consumed += 1;
                drop(results);
                self.jobs.pop_front();
                return Some(result);
            }
            if !wait {
                return None;
            }
            self.slots.filled.wait(&mut results);
        }
    }
}

fn reraise<R>(result: std::thread::Result<R>) -> R {
    result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

impl<R> Iterator for Ordered<R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.next_caught().map(reraise)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.jobs.len(), Some(self.jobs.len()))
    }
}

impl<R> ExactSizeIterator for Ordered<R> {}

impl<R> Drop for Ordered<R> {
    fn drop(&mut self) {
        while self.next_caught().is_some() {}
    }
}

/// A point-in-time snapshot of [`ThreadPool`] activity, for utilization
/// reporting (`stats-report`) and pool tuning.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Jobs completed since the pool was created — each submitted job
    /// once, whether a worker or its ticket's holder ran it.
    pub jobs_executed: u64,
    /// Always 0 — one shared queue, nothing to steal. Kept as a field for
    /// the readers that name it.
    pub steals: u64,
    /// Deepest backlog of submitted jobs no thread had claimed yet,
    /// observed at submission time. Read from a counter of unclaimed jobs,
    /// not from the queue's length, which also holds the entries of jobs
    /// their ticket holders ran.
    pub max_injector_depth: u64,
    /// Per-worker time spent executing jobs (index = worker).
    pub busy: Vec<Duration>,
    /// Jobs (out of `jobs_executed`) that their ticket's holder ran through
    /// [`Ticket::run_if_unclaimed`] instead of waiting for a worker.
    pub helped_jobs: u64,
    /// Time ticket holders spent executing those jobs.
    pub helper_busy: Duration,
}

impl PoolMetrics {
    /// Total time spent executing jobs: every worker's plus the ticket
    /// holders'.
    pub fn total_busy(&self) -> Duration {
        self.busy.iter().sum::<Duration>() + self.helper_busy
    }

    /// Fraction of `wall × workers` capacity spent executing jobs (ticket
    /// holders' time included, so the share says how much pool-sized
    /// capacity the submitted work used, not which threads supplied it).
    pub fn utilization(&self, wall: Duration) -> f64 {
        let capacity = wall.as_secs_f64() * self.busy.len().max(1) as f64;
        if capacity > 0.0 {
            (self.total_busy().as_secs_f64() / capacity).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Fraction of the executed jobs that ticket holders ran themselves.
    pub fn helped_share(&self) -> f64 {
        if self.jobs_executed == 0 {
            0.0
        } else {
            self.helped_jobs as f64 / self.jobs_executed as f64
        }
    }
}

fn worker_loop(idx: usize, shared: &PoolShared) {
    let mut state = shared.live.lock();
    loop {
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            // An entry whose ticket holder ran the job is simply dropped.
            shared.run(&job, Runner::Worker(idx));
            drop(job);
            state = shared.live.lock();
            continue;
        }
        if state.shutdown && state.pending == 0 {
            return;
        }
        // Nothing queued: park until new work or shutdown. Also the wait
        // of a shutdown with jobs still in flight elsewhere: their
        // completion notifies `wake` once `shutdown` is set.
        shared.wake.wait_backstop(&mut state, PARK_BACKSTOP);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.live.lock();
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A latch tests wedge a worker on: `wait` blocks until `open`.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        changed: Condvar,
    }

    impl Gate {
        fn wait(&self) {
            let mut open = self.open.lock();
            while !*open {
                self.changed.wait(&mut open);
            }
        }

        fn open(&self) {
            *self.open.lock() = true;
            self.changed.notify_all();
        }
    }

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let c = Arc::clone(&counter);
                move |_i: usize| {
                    c.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        pool.scope(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn job_indices_are_distinct() {
        let pool = ThreadPool::new(3);
        let seen = Arc::new(Mutex::new(vec![false; 50]));
        let jobs: Vec<_> = (0..50)
            .map(|_| {
                let seen = Arc::clone(&seen);
                move |i: usize| {
                    seen.lock()[i] = true;
                }
            })
            .collect();
        pool.scope(jobs);
        assert!(seen.lock().iter().all(|&b| b));
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = ThreadPool::new(2);
        pool.scope(Vec::<fn(usize)>::new());
    }

    #[test]
    fn pool_reusable_across_scopes() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..5 {
            let c = Arc::clone(&counter);
            pool.scope(vec![move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }]);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn at_least_one_thread() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    #[should_panic(expected = "panicked in ThreadPool::scope")]
    fn job_panic_propagates() {
        let pool = ThreadPool::new(2);
        pool.scope(vec![|_i: usize| panic!("boom")]);
    }

    #[test]
    fn skewed_job_costs_balance_across_workers() {
        // One worker is stuck with a long job (it runs until the gate
        // opens). `execute` keeps the caller out, so only the other worker
        // can run the short jobs: all of them must finish while the long
        // one is still running, and each exactly once.
        let pool = ThreadPool::new(2);
        let gate = Arc::new(Gate::default());
        let long_started = Arc::new(Gate::default());
        {
            let (gate, started) = (Arc::clone(&gate), Arc::clone(&long_started));
            pool.execute(move || {
                started.open();
                gate.wait();
            });
        }
        long_started.wait();
        let runs = Arc::new((Mutex::new(vec![0u32; 40]), Condvar::new()));
        for i in 0..40 {
            let runs = Arc::clone(&runs);
            pool.execute(move || {
                runs.0.lock()[i] += 1;
                runs.1.notify_all();
            });
        }
        let mut seen = runs.0.lock();
        let deadline = Instant::now() + Duration::from_secs(30);
        while seen.iter().sum::<u32>() < 40 {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "short jobs stuck behind the long one");
            runs.1.wait_for(&mut seen, left);
        }
        assert_eq!(*seen, vec![1; 40], "job lost or run twice");
        drop(seen);
        gate.open();
    }

    #[test]
    fn map_preserves_item_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map((0..200).collect(), |i: i64| i * i);
        assert_eq!(out, (0..200).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_stress_concurrent_trials() {
        // Repeated fan-outs of uneven jobs through one shared pool — the
        // usage pattern of the parallel experiment driver. Order and
        // completeness must hold on every round.
        let pool = ThreadPool::new(8);
        for round in 0..20 {
            let out = pool.map((0..64).collect(), move |i: u64| {
                let mut acc = i + round;
                for _ in 0..(i % 7) * 1000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                (i, acc)
            });
            assert_eq!(out.len(), 64);
            for (k, (i, _)) in out.iter().enumerate() {
                assert_eq!(*i, k as u64);
            }
        }
    }

    /// A single-worker pool whose worker sits in a job until the returned
    /// gate opens: whatever is submitted meanwhile, only a ticket holder
    /// can run.
    fn wedged_pool() -> (ThreadPool, Arc<Gate>) {
        let pool = ThreadPool::new(1);
        let (gate, started) = (Arc::new(Gate::default()), Arc::new(Gate::default()));
        {
            let (gate, started) = (Arc::clone(&gate), Arc::clone(&started));
            pool.execute(move || {
                started.open();
                gate.wait();
            });
        }
        started.wait();
        (pool, gate)
    }

    #[test]
    fn ordered_yields_in_submission_order_under_skewed_costs() {
        // Job 0 cannot finish before the last job has run (it waits for the
        // latch that job opens), so the jobs finish in an order far from the
        // one they were submitted in — and come back in that one anyway.
        let pool = ThreadPool::new(2);
        let last_ran = Arc::new(Gate::default());
        let n = 24;
        let jobs = (0..n).map(|i| {
            let last_ran = Arc::clone(&last_ran);
            move || {
                match i {
                    0 => last_ran.wait(),
                    _ if i == n - 1 => last_ran.open(),
                    _ => {}
                }
                i
            }
        });
        let out: Vec<usize> = pool.ordered(jobs).collect();
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_consumer_runs_every_unclaimed_job_exactly_once() {
        let (pool, gate) = wedged_pool();
        let runs = Arc::new(Mutex::new(vec![0u32; 16]));
        let helped_before = pool.metrics().helped_jobs;
        let jobs = (0..16).map(|i| {
            let runs = Arc::clone(&runs);
            move || {
                runs.lock()[i] += 1;
                i
            }
        });
        let out: Vec<usize> = pool.ordered(jobs).collect();
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        assert_eq!(*runs.lock(), vec![1; 16], "job lost or run twice");
        assert_eq!(pool.metrics().helped_jobs - helped_before, 16);
        gate.open();
        drop(pool); // the worker discards the sixteen stale queue entries
        assert_eq!(*runs.lock(), vec![1; 16], "a stale entry ran its job again");
    }

    #[test]
    fn ordered_releases_captures_before_the_result_is_handed_out() {
        // The EDEADLK-on-worker-drop invariant: by the time the consumer
        // holds result i, job i's closure — here its sentinel clone — is
        // gone, whichever thread ran it.
        let pool = ThreadPool::new(2);
        let sentinels: Vec<Arc<()>> = (0..64).map(|_| Arc::new(())).collect();
        let jobs: Vec<_> = sentinels
            .iter()
            .enumerate()
            .map(|(i, sentinel)| {
                let held = Arc::clone(sentinel);
                move || {
                    let _held = &held;
                    i
                }
            })
            .collect();
        for (i, got) in pool.ordered(jobs).enumerate() {
            assert_eq!(got, i);
            assert_eq!(Arc::strong_count(&sentinels[i]), 1, "job {i} still held");
        }
    }

    #[test]
    fn ordered_reraises_the_first_failing_jobs_own_payload() {
        let pool = ThreadPool::new(2);
        let started = Arc::new(AtomicU64::new(0));
        let jobs = (0..8).map(|i| {
            let started = Arc::clone(&started);
            move || {
                started.fetch_add(1, Ordering::SeqCst);
                assert!(i % 3 != 2, "job {i} exploded");
                i
            }
        });
        let mut results = pool.ordered(jobs);
        assert_eq!(results.next(), Some(0));
        assert_eq!(results.next(), Some(1));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| results.next()))
            .expect_err("job 2 panicked");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "job 2 exploded");
        // The batch goes on past a failure, and dropping it waits out the rest.
        assert_eq!(results.next(), Some(3));
        drop(results);
        assert_eq!(started.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn metrics_count_jobs_and_busy_time() {
        let pool = ThreadPool::new(3);
        let jobs: Vec<_> = (0..30)
            .map(|_| {
                move |_i: usize| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            })
            .collect();
        let began = std::time::Instant::now();
        pool.scope(jobs);
        let wall = began.elapsed();
        let m = pool.metrics();
        // Each job counts once, whether a worker or the scope's caller
        // (through its tickets) ran it.
        assert_eq!(m.jobs_executed, 30);
        assert_eq!(m.busy.len(), 3);
        assert!(m.helped_jobs <= 30);
        // 30 × 2ms of sleep happened inside jobs, on workers and caller
        // together.
        assert!(
            m.total_busy() >= std::time::Duration::from_millis(55),
            "total busy {:?}",
            m.total_busy()
        );
        assert_eq!(
            m.total_busy(),
            m.busy.iter().sum::<Duration>() + m.helper_busy
        );
        assert_eq!(m.helped_jobs == 0, m.helper_busy.is_zero());
        let u = m.utilization(wall);
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        // 30 jobs pushed through one queue: a backlog was observable.
        assert!(m.max_injector_depth >= 1);
    }

    #[test]
    fn metrics_are_cumulative_across_scopes() {
        let pool = ThreadPool::new(2);
        pool.scope(vec![|_: usize| {}, |_: usize| {}]);
        let first = pool.metrics().jobs_executed;
        pool.scope(vec![|_: usize| {}]);
        assert_eq!(pool.metrics().jobs_executed, first + 1);
    }

    #[test]
    fn jobs_in_a_lane_start_in_submission_order() {
        // One worker, wedged on a gate job while 32 jobs queue up behind
        // it: the queue is FIFO, so they start in the order they were
        // submitted (what the in-order resolvers wait for first, runs
        // first).
        let pool = ThreadPool::new(1);
        let gate = Arc::new(Gate::default());
        {
            let gate = Arc::clone(&gate);
            pool.execute(move || gate.wait());
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..32 {
            let order = Arc::clone(&order);
            pool.execute(move || order.lock().push(i));
        }
        gate.open();
        drop(pool); // drains everything
        assert_eq!(*order.lock(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn drop_completes_outstanding_work() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..20 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Dropping the pool waits for workers to drain.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }
}
