//! The user-facing runtime object: `StateDependence` (paper Figure 9).
//!
//! `StateDependence::run()` runs the §3.1 execution model on the calling
//! thread, which coordinates while groups of invocations run concurrently
//! on a shared [`ThreadPool`]; `start()` does the same on a coordinator
//! thread of its own, in parallel with the invoking thread, and `join()`
//! waits until all inputs are correctly processed and returns the committed
//! outputs. All knobs (pool, sink, seed, config, segmenting) come from one
//! [`RunOptions`] value — the same options type the streaming
//! [`Session`](crate::Session) consumes.
//!
//! Because every invocation's PRVG stream is derived from coordinates (run
//! seed, group, index, attempt), the parallel execution is *reproducible*
//! and byte-identical to the sequential reference
//! [`run_protocol`](crate::run_protocol) — a property the test suite checks.
//! That is also what lets the pooled executor choose, from what the run
//! measures, whether a group is worth dispatching at all ([`Gate`]).

use std::cell::Cell;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{thread, Arc};

use crate::adapt::SegmentControl;
use crate::dag::{run_node_eager, NodeRun};
use crate::options::RunOptions;
use crate::plan::{PlanNodeId, SpecPlan};
use crate::pool::{Ordered, ThreadPool};
use crate::protocol::{
    execute_group, run_batch, Arrived, Executor, GroupBuffers, GroupData, GroupSpec, Groups,
    ProtocolResult, RunCtx, SpecConfig, Window,
};
use crate::sdi::StateTransition;

/// The result of a completed state-dependence execution — the one result
/// type every entry point returns.
pub type SpecOutcome<T> = ProtocolResult<T>;

/// One run's engine context, shared with its pool jobs: a
/// `StateDependence`'s batch, or a `Session`'s stream (whose inputs arrive
/// through its queue, so `inputs` stays empty).
pub(crate) struct Shared<T: StateTransition> {
    pub(crate) inputs: Vec<T::Input>,
    pub(crate) initial: T::State,
    pub(crate) transition: T,
    pub(crate) options: RunOptions,
}

impl<T: StateTransition> Shared<T> {
    pub(crate) fn ctx(&self) -> RunCtx<'_, T> {
        RunCtx::new(&self.transition, &self.options)
    }
}

/// A state dependence made explicit (paper Figures 8/9): the inputs, the
/// initial state, and the `compute_output` transition, plus the STATS
/// execution-model configuration carried by [`RunOptions`].
///
/// ```
/// use stats_core::{
///     ExactState, InvocationCtx, RunOptions, SpecConfig, StateDependence, StateTransition,
/// };
///
/// struct Double;
/// impl StateTransition for Double {
///     type Input = u64;
///     type State = ExactState<u64>;
///     type Output = u64;
///     fn compute_output(
///         &self,
///         input: &u64,
///         state: &mut ExactState<u64>,
///         ctx: &mut InvocationCtx,
///     ) -> u64 {
///         ctx.charge(1.0);
///         state.0 = *input; // short-memory state
///         2 * *input
///     }
/// }
///
/// let mut dep = StateDependence::new((0..32).collect(), ExactState(0), Double)
///     .with_options(RunOptions::default()
///         .config(SpecConfig { group_size: 8, window: 1, ..SpecConfig::default() }));
/// dep.start();
/// let outcome = dep.join();
/// assert_eq!(outcome.outputs[5], 10);
/// assert!(!outcome.report.aborted);
/// ```
pub struct StateDependence<T: StateTransition> {
    shared: Arc<Shared<T>>,
    handle: Option<thread::JoinHandle<ProtocolResult<T>>>,
}

impl<T: StateTransition> StateDependence<T> {
    /// Create a state dependence over `inputs` with the given initial state
    /// and transition, under default [`RunOptions`] (a private pool sized
    /// to the machine's available parallelism is created at `start()`).
    pub fn new(inputs: Vec<T::Input>, initial: T::State, transition: T) -> Self {
        StateDependence {
            shared: Arc::new(Shared {
                inputs,
                initial,
                transition,
                options: RunOptions::default(),
            }),
            handle: None,
        }
    }

    /// Replace every runtime knob at once (builder style): pool, sink,
    /// seed, config, segmenting, and DAG plan all come from `options`.
    pub fn with_options(mut self, options: RunOptions) -> Self {
        Arc::get_mut(&mut self.shared)
            .expect("options must be set before start")
            .options = options;
        self
    }

    /// Run to completion on the calling thread and return the outcome: the
    /// caller coordinates (runs group 0, validates and commits) while the
    /// pool runs the speculative groups worth dispatching. The outcome is
    /// the one `start()` followed by `join()` returns, without a coordinator
    /// thread; a panic in the transition unwinds here with its own payload.
    /// The seed comes from [`RunOptions::seed`].
    ///
    /// # Panics
    ///
    /// Panics if `start()` was called first.
    pub fn run(self) -> SpecOutcome<T> {
        assert!(self.handle.is_none(), "run() after start(): use join()");
        run_pooled(&self.shared)
    }

    /// Begin the execution model on a `stats-coordinator` thread, in
    /// parallel with the invoking thread.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if the thread cannot be spawned.
    pub fn start(&mut self) {
        assert!(self.handle.is_none(), "start() called twice");
        let shared = Arc::clone(&self.shared);
        self.handle = Some(
            thread::Builder::new()
                .name("stats-coordinator".into())
                .spawn(move || run_pooled(&shared))
                .expect("failed to spawn coordinator"),
        );
    }

    /// Wait until all inputs are correctly processed and return the outcome.
    ///
    /// # Panics
    ///
    /// Panics if `start()` was not called first.
    pub fn join(mut self) -> SpecOutcome<T> {
        let handle = self.handle.take().expect("join() requires start()");
        handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }
}

/// The batch engine over `shared`'s inputs on the options' pool, coordinated
/// by the calling thread.
fn run_pooled<T: StateTransition>(shared: &Arc<Shared<T>>) -> ProtocolResult<T> {
    let pool = resolve_pool(&shared.options);
    run_batch(
        shared.ctx(),
        &shared.inputs,
        &shared.initial,
        SegmentControl::new(&shared.options),
        shared.options.plan.as_ref(),
        &Pooled::new(shared, &pool),
    )
}

/// The options' shared pool, or a private one sized to the machine.
pub(crate) fn resolve_pool(options: &RunOptions) -> Arc<ThreadPool> {
    options
        .pool
        .clone()
        .unwrap_or_else(|| Arc::new(ThreadPool::new(thread::available_parallelism())))
}

/// Dropping a started-but-not-joined dependence must not leak a detached
/// `stats-coordinator` thread (it would keep running — and keep pool slots
/// busy — with nobody to observe it) nor swallow its panics: the handle is
/// joined here, and a coordinator panic is re-raised unless the drop is
/// itself part of a panic unwind (re-raising then would abort the process).
impl<T: StateTransition> Drop for StateDependence<T> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            if let Err(payload) = handle.join() {
                if !thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// The pooled executor of `StateDependence` and `Session`: every unit is a
/// job for [`ThreadPool::ordered`], so group *k* is validated and
/// committed while groups *k+1…* still run, and the coordinator runs the
/// unit it is about to wait for itself when no worker has started it —
/// except the speculative groups its [`Gate`] keeps on the coordinator.
///
/// Pool jobs outlive any borrow, so they reach the run through `shared`
/// rather than through the borrowed arguments, which name the same run.
/// `shared.options` may hold the last `Arc<ThreadPool>`; `ordered`
/// releases a job's clone before its result is visible, so that handle is
/// never dropped on a worker.
pub(crate) struct Pooled<'s, T: StateTransition> {
    shared: &'s Arc<Shared<T>>,
    pool: &'s ThreadPool,
    gate: Gate,
}

impl<'s, T: StateTransition> Pooled<'s, T> {
    /// The executor of one run — every segment of it — over `shared` on
    /// `pool`.
    pub(crate) fn new(shared: &'s Arc<Shared<T>>, pool: &'s ThreadPool) -> Self {
        Pooled {
            shared,
            pool,
            gate: Gate::new(pool.threads()),
        }
    }
}

/// Who runs a run's speculative groups once its [`Gate`] has decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// Jobs on the pool, as the groups are submitted.
    Pool,
    /// The coordinator, when the resolver needs each group.
    Coordinator,
}

/// The cost gate of one pooled run: whether its speculative groups are worth
/// dispatching. A group pays for the pool only if a worker starts it sooner
/// than the coordinator would finish it, so the gate compares two times the
/// run measures anyway:
///
/// - running a group on the coordinator: group 0's wall time, which the
///   coordinator always runs itself ([`Groups::group0_ran`]);
/// - dispatching one: the delay between submitting a *probe* — one of the
///   first speculative groups, at most the pool's worker count in flight,
///   which go to the pool undecided — and a worker starting it. A probe the
///   coordinator takes back sooner than group 0's time tells nothing, and
///   its place in the lookahead goes to the next group.
///
/// A worker that starts a probe within group 0's time routes the run to
/// the pool; a probe that waits longer (unstarted, or started late) routes
/// it to the coordinator. Groups past the probes wait for that decision,
/// which then holds for the rest of the run, every segment included. It is
/// timed, so it chooses only who runs a group: groups, seeds, trace, report
/// and events are the same either way.
struct Gate {
    /// Probes that may still be sent before groups wait for the decision.
    lookahead: Cell<usize>,
    /// Group 0's wall time, from the run's first full group 0.
    group0: Cell<Option<Duration>>,
    /// The shortest delay between sending a probe and a worker starting it,
    /// kept as `u64::MAX - ns` so that `fetch_max` keeps the least; 0 while
    /// no worker has started one.
    started: Arc<AtomicU64>,
    /// The longest a probe the coordinator took back had waited unstarted.
    waited: Cell<Duration>,
    route: Cell<Option<Route>>,
}

impl Gate {
    fn new(workers: usize) -> Self {
        Gate {
            lookahead: Cell::new(workers),
            group0: Cell::new(None),
            started: Arc::new(AtomicU64::new(0)),
            waited: Cell::new(Duration::ZERO),
            route: Cell::new(None),
        }
    }

    /// The route, once the measurements decide it. `unclaimed` is when the
    /// oldest probe the coordinator has not taken back was sent, if one is
    /// still outstanding.
    fn route(&self, unclaimed: Option<Instant>) -> Option<Route> {
        if self.route.get().is_none() {
            let group0 = self.group0.get()?;
            let started = match self.started.load(Ordering::Relaxed) {
                0 => None,
                inverted => Some(Duration::from_nanos(u64::MAX - inverted)),
            };
            let waited = unclaimed.map_or(Duration::ZERO, |sent| sent.elapsed());
            let route = if started.is_some_and(|delay| delay <= group0) {
                Route::Pool
            } else if started.is_some() || waited.max(self.waited.get()) >= group0 {
                Route::Coordinator
            } else {
                return None;
            };
            self.route.set(Some(route));
        }
        self.route.get()
    }
}

/// What every group job of one linear run starts from. Built once per run
/// (the controllers move the configuration, and a run starts from its
/// segment's state), so submitting a group clones one `Arc`, not the state.
struct RunJob<T: StateTransition> {
    shared: Arc<Shared<T>>,
    initial: T::State,
    config: SpecConfig,
    seed: u64,
}

/// The inputs a group over `window` reads, and the index of the first.
fn window_inputs<'w, I>(batch: &'w [I], window: &'w Window<I>) -> (&'w [I], usize) {
    match window {
        Window::Batch { offset } => (&batch[*offset..], 0),
        Window::Copied { inputs, base } => (inputs, *base),
    }
}

/// A probe in flight: when it was sent, and whether the coordinator took
/// it back.
struct Probe {
    sent: Instant,
    claimed: bool,
}

/// One linear run's groups on a pooled executor: an open batch on the pool,
/// then the groups held back for the gate or for the coordinator. Every
/// group in `batch` comes before every group in `held`, and the first
/// `probes.len()` jobs of `batch` are the probes.
struct PooledGroups<'a, T: StateTransition, W> {
    shared: &'a Arc<Shared<T>>,
    pool: &'a ThreadPool,
    gate: &'a Gate,
    ctx: RunCtx<'a, T>,
    initial: &'a T::State,
    /// The batch and what its jobs start from are made at the first
    /// dispatch: a run the gate keeps on the coordinator opens no batch and
    /// clones no state for the pool.
    run: Option<Arc<RunJob<T>>>,
    batch: Option<Ordered<GroupData<T>>>,
    /// What the batch runs for every stored result, until it is opened.
    wake: Option<W>,
    probes: VecDeque<Probe>,
    held: VecDeque<(GroupSpec, Window<T::Input>)>,
    /// The last settled group's buffers, for the next held group.
    spare: GroupBuffers<T>,
}

impl<T: StateTransition, W: Fn() + Send + Sync + 'static> PooledGroups<'_, T, W> {
    /// Groups submitted to the pool whose results are not taken yet.
    fn in_flight(&self) -> usize {
        self.batch.as_ref().map_or(0, ExactSizeIterator::len)
    }

    /// Submit a group to the pool; a probe records when a worker starts it.
    fn dispatch(&mut self, spec: GroupSpec, window: Window<T::Input>, probe: bool) {
        let run = Arc::clone(self.run.get_or_insert_with(|| {
            Arc::new(RunJob {
                shared: Arc::clone(self.shared),
                initial: self.initial.clone(),
                config: self.ctx.config.clone(),
                seed: self.ctx.seed,
            })
        }));
        let probe = probe.then(|| {
            let sent = Instant::now();
            self.probes.push_back(Probe {
                sent,
                claimed: false,
            });
            let coordinator = std::thread::current().id();
            (sent, coordinator, Arc::clone(&self.gate.started))
        });
        let job = move || {
            if let Some((sent, coordinator, started)) = probe {
                if std::thread::current().id() != coordinator {
                    let delay = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    started.fetch_max(u64::MAX - delay, Ordering::Relaxed);
                }
            }
            let ctx = RunCtx {
                config: &run.config,
                seed: run.seed,
                ..run.shared.ctx()
            };
            let (inputs, base) = window_inputs(&run.shared.inputs, &window);
            execute_group(
                ctx,
                inputs,
                base,
                &run.initial,
                spec,
                GroupBuffers::default(),
            )
        };
        let (pool, wake) = (self.pool, &mut self.wake);
        (self
            .batch
            .get_or_insert_with(|| pool.open_ordered(wake.take().expect("unopened"))))
        .submit([job]);
    }

    /// Send the held groups where the gate routes them: every one to the
    /// pool once it chooses the pool; while it has not decided, the next
    /// ones as probes, as many as the lookahead has left. The rest stay
    /// held.
    fn settle(&mut self) {
        while !self.held.is_empty() {
            let unclaimed = self.probes.iter().find(|p| !p.claimed).map(|p| p.sent);
            let probe = match self.gate.route(unclaimed) {
                Some(Route::Pool) => false,
                Some(Route::Coordinator) => return,
                None if self.gate.lookahead.get() > 0 => {
                    self.gate.lookahead.set(self.gate.lookahead.get() - 1);
                    true
                }
                None => return,
            };
            let (spec, window) = self.held.pop_front().expect("a held group");
            self.dispatch(spec, window, probe);
        }
    }

    /// Bookkeeping for a result taken out of the batch.
    fn took(&mut self, data: Option<GroupData<T>>) -> Option<GroupData<T>> {
        if data.is_some() {
            self.probes.pop_front();
        }
        data
    }

    /// Run the first held group here, into the spare buffers.
    fn run_held(&mut self) -> Option<GroupData<T>> {
        let (spec, window) = self.held.pop_front()?;
        let (inputs, base) = window_inputs(&self.shared.inputs, &window);
        let spare = std::mem::take(&mut self.spare);
        Some(execute_group(
            self.ctx,
            inputs,
            base,
            self.initial,
            spec,
            spare,
        ))
    }
}

impl<T: StateTransition, W: Fn() + Send + Sync + 'static> Groups<T> for PooledGroups<'_, T, W> {
    fn submit(&mut self, spec: GroupSpec, window: Window<T::Input>) {
        self.held.push_back((spec, window));
        self.settle();
    }

    fn try_next(&mut self, _: Arrived<'_, T::Input>) -> Option<GroupData<T>> {
        self.settle();
        if self.in_flight() > 0 {
            let data = self.batch.as_mut().and_then(Ordered::try_next);
            return self.took(data);
        }
        self.run_held()
    }

    fn next(&mut self, _: Arrived<'_, T::Input>) -> Option<GroupData<T>> {
        self.settle();
        if self.in_flight() > 0 {
            // Claimed here first, so that a probe taken back is seen.
            self.claim_next();
            let data = self.batch.as_mut().and_then(Iterator::next);
            return self.took(data);
        }
        self.run_held()
    }

    fn claim_next(&mut self) {
        if !self.batch.as_ref().is_some_and(Ordered::claim_next) {
            return;
        }
        if let Some(probe) = self.probes.front_mut() {
            probe.claimed = true;
            // A probe taken back before group 0's time tells nothing about
            // how soon a worker would have started it: it does not count
            // against the lookahead.
            let waited = probe.sent.elapsed();
            let gate = self.gate;
            if gate.group0.get().is_some_and(|group0| waited >= group0) {
                gate.waited.set(gate.waited.get().max(waited));
            } else {
                gate.lookahead.set(gate.lookahead.get() + 1);
            }
        }
    }

    fn recycle(&mut self, spare: GroupBuffers<T>) {
        self.spare = spare;
    }

    fn group0_ran(&mut self, elapsed: Duration) {
        if self.gate.group0.get().is_none() {
            self.gate.group0.set(Some(elapsed));
        }
        self.settle();
    }
}

impl<T: StateTransition> Executor<T> for Pooled<'_, T> {
    fn groups<'a>(
        &'a self,
        ctx: RunCtx<'a, T>,
        initial: &'a T::State,
        wake: impl Fn() + Send + Sync + 'static,
    ) -> impl Groups<T> + 'a {
        PooledGroups {
            shared: self.shared,
            pool: self.pool,
            gate: &self.gate,
            ctx,
            initial,
            run: None,
            batch: None,
            wake: Some(wake),
            probes: VecDeque::new(),
            held: VecDeque::new(),
            spare: GroupBuffers::default(),
        }
    }

    /// Eager nodes queue in topological order, the order the resolver
    /// consumes them in: the pool's FIFO queue starts first what the
    /// resolver needs first.
    fn nodes<'a>(
        &'a self,
        _ctx: RunCtx<'a, T>,
        _plan: &'a SpecPlan,
        _inputs: &'a [T::Input],
        _initial: &'a T::State,
        eager: &'a [PlanNodeId],
    ) -> impl Iterator<Item = NodeRun<T>> + 'a {
        self.pool.ordered(eager.iter().map(|&node| {
            let s = Arc::clone(self.shared);
            move || {
                let plan = s.options.plan.as_ref().expect("plan mode");
                run_node_eager(plan, node, s.ctx(), &s.inputs, &s.initial)
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::InvocationCtx;
    use crate::protocol::{run_protocol, run_protocol_with_options, SpecConfig};
    use crate::sdi::SpecState;
    use std::panic::AssertUnwindSafe;

    /// Nondeterministic short-memory workload: state is the last input plus
    /// bounded noise; matches tolerate the noise.
    #[derive(Clone, Debug)]
    struct Noisy(f64);
    impl SpecState for Noisy {
        fn matches_any(&self, originals: &[Self]) -> bool {
            originals.iter().any(|o| (o.0 - self.0).abs() < 0.5)
        }
    }

    struct NoisyLast;
    impl StateTransition for NoisyLast {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, input: &f64, state: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(5.0);
            state.0 = *input + ctx.uniform(-0.1, 0.1);
            state.0
        }
    }

    fn config() -> SpecConfig {
        SpecConfig {
            group_size: 4,
            window: 1,
            max_reexec: 2,
            rollback: 1,
            ..SpecConfig::default()
        }
    }

    /// A diamond plan: one root, two branches, one join.
    fn diamond() -> SpecPlan {
        let mut b = SpecPlan::builder();
        let src = b.node(8);
        let l = b.node(8);
        let r = b.node(8);
        let j = b.node(8);
        b.edge(src, l).edge(src, r).edge(l, j).edge(r, j);
        b.build().unwrap()
    }

    fn pooled_options(threads: usize, seed: u64) -> RunOptions {
        RunOptions::default()
            .pool(Arc::new(ThreadPool::new(threads)))
            .config(config())
            .seed(seed)
    }

    #[test]
    fn pooled_matches_sequential_reference() {
        let inputs: Vec<f64> = (0..24).map(|i| i as f64).collect();
        for seed in [0_u64, 1, 7, 42] {
            let reference = run_protocol(&NoisyLast, &inputs, &Noisy(0.0), &config(), seed);
            let dep = StateDependence::new(inputs.clone(), Noisy(0.0), NoisyLast)
                .with_options(pooled_options(4, seed));
            let outcome = dep.run();
            assert_eq!(outcome.outputs, reference.outputs, "seed {seed}");
            assert_eq!(outcome.report.aborted, reference.report.aborted);
            assert_eq!(outcome.report.reexecutions, reference.report.reexecutions);
            assert_eq!(outcome.trace, reference.trace, "seed {seed}");
        }
    }

    #[test]
    fn segmented_pooled_matches_sequential_segmented_reference() {
        let inputs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let options = RunOptions::default().config(config()).seed(5).segment(13);
        let reference =
            crate::protocol::run_protocol_with_options(&NoisyLast, &inputs, &Noisy(0.0), &options);
        let dep = StateDependence::new(inputs, Noisy(0.0), NoisyLast)
            .with_options(options.pool(Arc::new(ThreadPool::new(4))));
        let outcome = dep.run();
        assert_eq!(outcome.outputs, reference.outputs);
        assert_eq!(outcome.report, reference.report);
        assert_eq!(outcome.trace, reference.trace);
    }

    #[test]
    fn start_join_api() {
        let mut dep =
            StateDependence::new((0..16).map(|i| i as f64).collect(), Noisy(0.0), NoisyLast)
                .with_options(pooled_options(2, 3));
        dep.start();
        let outcome = dep.join();
        assert_eq!(outcome.outputs.len(), 16);
    }

    #[test]
    fn plan_pooled_matches_sequential_reference_at_any_worker_count() {
        // A diamond plan over the noisy workload: the pooled DAG driver
        // must reproduce the sequential plan run bit-for-bit regardless of
        // how many workers race the eager node runs.
        let plan = diamond();
        let inputs: Vec<f64> = (0..plan.total_inputs()).map(|i| i as f64).collect();
        for seed in [0_u64, 7, 42] {
            let options = RunOptions::default()
                .config(config())
                .seed(seed)
                .plan(plan.clone());
            let reference = run_protocol_with_options(&NoisyLast, &inputs, &Noisy(0.0), &options);
            for threads in [1usize, 2, 4] {
                let dep = StateDependence::new(inputs.clone(), Noisy(0.0), NoisyLast)
                    .with_options(options.clone().pool(Arc::new(ThreadPool::new(threads))));
                let outcome = dep.run();
                assert_eq!(outcome.outputs, reference.outputs, "seed {seed} x{threads}");
                assert_eq!(outcome.report, reference.report, "seed {seed} x{threads}");
                assert_eq!(outcome.trace, reference.trace, "seed {seed} x{threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "start() called twice")]
    fn double_start_panics() {
        let mut dep = StateDependence::new(vec![1.0], Noisy(0.0), NoisyLast)
            .with_options(pooled_options(1, 0));
        dep.start();
        dep.start();
    }

    /// A transition holding a sentinel `Arc`: when the coordinator thread
    /// has truly terminated, its clone of the `Shared` state (and hence of
    /// the sentinel) is gone.
    struct SentinelLast(#[allow(dead_code)] Arc<()>);
    impl StateTransition for SentinelLast {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, input: &f64, state: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(5.0);
            state.0 = *input + ctx.uniform(-0.1, 0.1);
            state.0
        }
    }

    #[test]
    fn dropping_started_dependence_joins_coordinator() {
        // Regression: dropping a started-but-not-joined dependence used to
        // leak a detached `stats-coordinator` thread. The sentinel's strong
        // count proves the coordinator (which owns a clone through the
        // shared state) has terminated by the time drop returns — and the
        // test finishing at all proves the process was not aborted.
        let sentinel = Arc::new(());
        {
            let mut dep = StateDependence::new(
                (0..32).map(f64::from).collect(),
                Noisy(0.0),
                SentinelLast(Arc::clone(&sentinel)),
            )
            .with_options(pooled_options(2, 0));
            dep.start();
            // Dropped here without join().
        }
        assert_eq!(
            Arc::strong_count(&sentinel),
            1,
            "coordinator thread still holds the shared state"
        );
    }

    #[test]
    fn dropping_unstarted_dependence_is_inert() {
        let dep = StateDependence::new(vec![1.0, 2.0], Noisy(0.0), NoisyLast);
        drop(dep); // no coordinator was ever spawned
    }

    /// A transition that panics: the coordinator thread dies with it.
    struct Exploding;
    impl StateTransition for Exploding {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, _: &f64, _: &mut Noisy, _: &mut InvocationCtx) -> f64 {
            panic!("transition exploded");
        }
    }

    #[test]
    #[should_panic(expected = "transition exploded")]
    fn dropping_dependence_propagates_coordinator_panic() {
        // The old detached handle silently swallowed coordinator panics;
        // now drop re-raises them on the owning thread.
        let mut dep = StateDependence::new(vec![1.0, 2.0, 3.0], Noisy(0.0), Exploding)
            .with_options(pooled_options(1, 0));
        dep.start();
        drop(dep);
    }

    #[test]
    fn pooled_run_emits_events_from_worker_threads() {
        use crate::obs::{EventKind, RecordingSink};
        let sink = Arc::new(RecordingSink::new());
        let dep = StateDependence::new((0..24).map(f64::from).collect(), Noisy(0.0), NoisyLast)
            .with_options(
                pooled_options(4, 7).sink(Arc::clone(&sink) as Arc<dyn crate::obs::EventSink>),
            );
        let outcome = dep.run();
        assert_eq!(outcome.outputs.len(), 24);
        let events = sink.events();
        let starts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::GroupStart { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::GroupEnd { .. }))
            .count();
        assert_eq!(starts, 6, "one start per group");
        assert_eq!(starts, ends);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RunStart { inputs: 24, .. })));
    }

    /// A latch: `wait` blocks until `open`.
    #[derive(Default)]
    struct Latch(crate::sync::Mutex<bool>, crate::sync::Condvar);
    impl Latch {
        fn open(&self) {
            *self.0.lock() = true;
            self.1.notify_all();
        }
        fn wait(&self) {
            let mut open = self.0.lock();
            while !*open {
                self.1.wait(&mut open);
            }
        }
    }

    #[test]
    fn plan_nodes_run_on_the_coordinator_when_the_pool_is_wedged() {
        // The only worker is wedged for the whole run, so every eager node
        // is still queued when the coordinator comes to resolve it: it must
        // run each one itself instead of waiting for the worker.
        let pool = Arc::new(ThreadPool::new(1));
        let (wedge, wedged) = (Arc::new(Latch::default()), Arc::new(Latch::default()));
        {
            let (wedge, wedged) = (Arc::clone(&wedge), Arc::clone(&wedged));
            pool.execute(move || {
                wedged.open();
                wedge.wait();
            });
        }
        wedged.wait();
        let plan = diamond();
        let inputs: Vec<f64> = (0..plan.total_inputs()).map(|i| i as f64).collect();
        let options = RunOptions::default().config(config()).seed(7).plan(plan);
        let reference = run_protocol_with_options(&NoisyLast, &inputs, &Noisy(0.0), &options);
        let outcome = StateDependence::new(inputs, Noisy(0.0), NoisyLast)
            .with_options(options.pool(Arc::clone(&pool)))
            .run();
        let helped = pool.metrics().helped_jobs;
        wedge.open();
        assert_eq!(helped, 4, "the root, both branches and the join");
        assert_eq!(outcome.outputs, reference.outputs);
        assert_eq!(
            outcome.final_state.0.to_bits(),
            reference.final_state.0.to_bits()
        );
        assert_eq!(outcome.report, reference.report);
        assert_eq!(outcome.trace, reference.trace);
    }

    #[test]
    fn shared_pool_across_dependences() {
        let pool = Arc::new(ThreadPool::new(4));
        let options = RunOptions::default()
            .pool(Arc::clone(&pool))
            .config(config())
            .seed(1);
        let a = StateDependence::new((0..8).map(f64::from).collect(), Noisy(0.0), NoisyLast)
            .with_options(options.clone());
        let b = StateDependence::new((0..8).map(f64::from).collect(), Noisy(0.0), NoisyLast)
            .with_options(options);
        let oa = a.run();
        let ob = b.run();
        assert_eq!(oa.outputs, ob.outputs);
    }

    #[test]
    fn run_inside_a_job_of_its_own_pool_completes() {
        // The caller is the pool's only worker, so nobody else can start a
        // group: the caller must run every one of them itself.
        let pool = Arc::new(ThreadPool::new(1));
        let inputs: Vec<f64> = (0..40).map(f64::from).collect();
        let options = RunOptions::default().config(config()).seed(5);
        let reference = run_protocol_with_options(&NoisyLast, &inputs, &Noisy(0.0), &options);
        let (tx, rx) = std::sync::mpsc::channel();
        let inner = Arc::clone(&pool);
        pool.execute(move || {
            let outcome = StateDependence::new(inputs, Noisy(0.0), NoisyLast)
                .with_options(options.pool(inner))
                .run();
            tx.send(outcome).expect("the test waits");
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run() inside its own pool's only worker hung");
        assert_eq!(outcome.outputs, reference.outputs);
        assert_eq!(outcome.report, reference.report);
        assert_eq!(outcome.trace, reference.trace);
    }

    /// [`Exploding`] from input `at` on.
    struct ExplodingFrom(f64);
    impl StateTransition for ExplodingFrom {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, input: &f64, state: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
            if *input >= self.0 {
                panic!("transition exploded at {input}");
            }
            NoisyLast.compute_output(input, state, ctx)
        }
    }

    #[test]
    fn run_unwinds_a_transition_panic_with_its_own_payload() {
        // In group 0, on the caller; and in a speculative group, wherever
        // it ran.
        for at in [0.0, 9.0] {
            let dep = StateDependence::new(
                (0..24).map(f64::from).collect(),
                Noisy(0.0),
                ExplodingFrom(at),
            )
            .with_options(pooled_options(2, 0));
            let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| dep.run())) else {
                panic!("the transition panicked at {at}");
            };
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(
                message,
                Some(format!("transition exploded at {at}").as_str())
            );
        }
    }
}
