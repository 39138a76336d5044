//! The user-facing runtime object: `StateDependence` (paper Figure 9).
//!
//! `StateDependence::start()` begins the §3.1 execution model in parallel
//! with the invoking thread, running groups of invocations concurrently on a
//! shared [`ThreadPool`]; `join()` waits until all inputs are correctly
//! processed and returns the committed outputs. All knobs (pool, sink,
//! seed, config, segmenting) come from one [`RunOptions`] value — the same
//! options type the streaming [`Session`](crate::Session) consumes.
//!
//! Because every invocation's PRVG stream is derived from coordinates (run
//! seed, group, index, attempt), the parallel execution is *reproducible*
//! and byte-identical to the sequential reference
//! [`run_protocol`](crate::run_protocol) — a property the test suite checks.

use crate::sync::{thread, Arc, Condvar, Mutex};

use crate::dag::{assert_plan_matches, node_is_eager, run_node_eager, NodeRun, PlanResolver};
use crate::options::RunOptions;
use crate::pool::{Priority, ThreadPool, Ticket};
use crate::protocol::{
    execute_group, run_protocol_with, run_segmented, ProtocolResult, SpecReport, SpecTrace,
};
use crate::sdi::StateTransition;

/// The result of a completed state-dependence execution.
pub struct SpecOutcome<T: StateTransition> {
    /// Committed outputs, one per input, in input order.
    pub outputs: Vec<T::Output>,
    /// The committed final state.
    pub final_state: T::State,
    /// Speculation statistics (commits, re-executions, aborts, work split).
    pub report: SpecReport,
    /// The recorded task graph of everything that executed.
    pub trace: SpecTrace,
}

impl<T: StateTransition> From<ProtocolResult<T>> for SpecOutcome<T> {
    fn from(result: ProtocolResult<T>) -> Self {
        SpecOutcome {
            outputs: result.outputs,
            final_state: result.final_state,
            report: result.report,
            trace: result.trace,
        }
    }
}

struct Shared<T: StateTransition> {
    inputs: Vec<T::Input>,
    initial: T::State,
    transition: T,
    options: RunOptions,
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
    shared: Option<Arc<Shared<T>>>,
    handle: Option<thread::JoinHandle<ProtocolResult<T>>>,
}

impl<T: StateTransition> StateDependence<T> {
    /// Create a state dependence over `inputs` with the given initial state
    /// and transition, under default [`RunOptions`] (a private pool sized
    /// to the machine's available parallelism is created at `start()`).
    pub fn new(inputs: Vec<T::Input>, initial: T::State, transition: T) -> Self {
        StateDependence {
            shared: Some(Arc::new(Shared {
                inputs,
                initial,
                transition,
                options: RunOptions::default(),
            })),
            handle: None,
        }
    }

    fn map_options(mut self, f: impl FnOnce(&mut RunOptions)) -> Self {
        let mut shared = Arc::try_unwrap(self.shared.take().expect("not started"))
            .unwrap_or_else(|_| panic!("options must be set before start"));
        f(&mut shared.options);
        self.shared = Some(Arc::new(shared));
        self
    }

    /// Replace every runtime knob at once (builder style): pool, sink,
    /// seed, config, segmenting, and DAG plan all come from `options`.
    pub fn with_options(self, options: RunOptions) -> Self {
        self.map_options(|o| *o = options)
    }

    /// Run to completion and return the outcome. Equivalent to `start()`
    /// followed by `join()`; the seed comes from [`RunOptions::seed`].
    pub fn run(mut self) -> SpecOutcome<T> {
        self.start();
        self.join()
    }

    /// Begin the execution model in parallel with the invoking thread.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(self.handle.is_none(), "start() called twice");
        let shared = Arc::clone(self.shared.as_ref().expect("not consumed"));
        let pool = resolve_pool(&shared.options);
        self.handle = Some(
            thread::Builder::new()
                .name("stats-coordinator".into())
                .spawn(move || run_pooled(&shared, &pool))
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
        let result = handle.join().expect("coordinator panicked");
        result.into()
    }
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

/// Execute the protocol with group execution fanned out to the pool,
/// segment by segment when [`RunOptions::segment`] is set, or over the
/// dependency DAG when [`RunOptions::plan`] is set.
fn run_pooled<T: StateTransition>(
    shared: &Arc<Shared<T>>,
    pool: &Arc<ThreadPool>,
) -> ProtocolResult<T> {
    let options = &shared.options;
    if options.plan.is_some() {
        return run_plan_pooled(shared, pool);
    }
    match options.segment {
        None => run_pooled_chunk(
            shared,
            pool,
            options.seed,
            0,
            shared.inputs.len(),
            shared.initial.clone(),
        ),
        Some(segment) => run_segmented(
            shared.inputs.len(),
            shared.initial.clone(),
            options.seed,
            segment,
            |range, seed, state: &T::State| {
                run_pooled_chunk(shared, pool, seed, range.start, range.end, state.clone())
            },
        ),
    }
}

/// One (sub-)run over `inputs[lo..hi]`, groups fanned out to the pool. The
/// chunk's initial state sits behind one `Arc` next to the shared inputs,
/// so a group's job clones a pointer, not the state.
fn run_pooled_chunk<T: StateTransition>(
    shared: &Arc<Shared<T>>,
    pool: &Arc<ThreadPool>,
    seed: u64,
    lo: usize,
    hi: usize,
    initial: T::State,
) -> ProtocolResult<T> {
    let chunk = Arc::new((Arc::clone(shared), initial));
    run_protocol_with(
        &shared.transition,
        &shared.inputs[lo..hi],
        &chunk.1,
        &shared.options.config,
        seed,
        &*shared.options.sink,
        shared.options.faults.as_ref(),
        |specs| {
            let chunk = Arc::clone(&chunk);
            pool.map(specs.to_vec(), move |spec| {
                let (s, initial) = &*chunk;
                execute_group(
                    &s.transition,
                    &s.inputs[lo..hi],
                    0,
                    initial,
                    &s.options.config,
                    seed,
                    spec,
                    &*s.options.sink,
                    s.options.faults.as_ref(),
                )
            })
        },
    )
}

/// One filled slot per eager plan node, shared between pool jobs and the
/// coordinator (a job's panic is carried as the `Err` payload).
type NodeSlots<T> = Arc<(Mutex<Vec<Option<std::thread::Result<NodeRun<T>>>>>, Condvar)>;

/// Execute a [`SpecPlan`](crate::SpecPlan) with every eager node run (roots
/// and speculative non-roots) fanned out to the pool at once — critical-path
/// nodes on the [`Priority::High`] lane so the longest dependence chain is
/// never stuck behind sibling branches. The coordinator ingests finished
/// runs into the [`PlanResolver`], which resolves nodes strictly in the
/// plan's canonical topological order; dataflow nodes and post-abort
/// recovery runs execute inline on the coordinator as their parents settle.
/// Each time round, before it looks for finished runs (and parks if there
/// are none), the coordinator runs the eager node the resolver is waiting
/// for itself if no worker has started it — only that one; `Session`'s
/// `stream_segment` has the rule and why.
/// Bit-identical to the sequential reference at any worker count.
fn run_plan_pooled<T: StateTransition>(
    shared: &Arc<Shared<T>>,
    pool: &Arc<ThreadPool>,
) -> ProtocolResult<T> {
    let options = &shared.options;
    let plan = Arc::new(options.plan.clone().expect("plan mode"));
    assert_plan_matches(&plan, shared.inputs.len());
    let eager: Vec<usize> = plan
        .topo_order()
        .iter()
        .copied()
        .filter(|&n| node_is_eager(&plan, &options.config, n))
        .collect();
    let critical = plan.critical_path();
    let slots: NodeSlots<T> = Arc::new((
        Mutex::new((0..plan.len()).map(|_| None).collect()),
        Condvar::new(),
    ));
    let mut tickets: Vec<Option<Ticket>> = (0..plan.len()).map(|_| None).collect();
    for &node in &eager {
        let s = Arc::clone(shared);
        let slots = Arc::clone(&slots);
        let plan_job = Arc::clone(&plan);
        let priority = if critical.contains(&node) {
            Priority::High
        } else {
            options.priority
        };
        tickets[node] = Some(pool.submit(priority, move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_node_eager(
                    &plan_job,
                    node,
                    &s.transition,
                    &s.inputs,
                    &s.initial,
                    &s.options.config,
                    s.options.seed,
                    &*s.options.sink,
                )
            }));
            // Release the Shared/plan clones BEFORE publishing the result:
            // once the slot is filled the coordinator may return and the
            // caller drop its pool handle, and `s.options` holds an
            // `Arc<ThreadPool>` — if this worker's clone were the last one,
            // the pool would be dropped on a worker thread and join itself
            // (EDEADLK). After this point the job owns only `slots`.
            drop(s);
            drop(plan_job);
            let (lock, cv) = &*slots;
            lock.lock()[node] = Some(result);
            cv.notify_all();
        }));
    }
    let mut resolver = PlanResolver::new(
        &plan,
        &shared.transition,
        &shared.inputs,
        &options.config,
        options.seed,
        &*options.sink,
        options.faults.as_ref(),
    );
    let mut remaining = eager.len();
    let (lock, cv) = &*slots;
    while remaining > 0 {
        // Nothing resolves before the awaited node does, so run it here
        // rather than wait for a worker to wake up for it.
        if let Some(ticket) = resolver.awaited().and_then(|node| tickets[node].as_ref()) {
            ticket.run_if_unclaimed();
        }
        let mut taken = Vec::new();
        {
            let mut guard = lock.lock();
            loop {
                for (node, slot) in guard.iter_mut().enumerate() {
                    if slot.is_some() {
                        taken.push((node, slot.take().expect("checked is_some")));
                    }
                }
                if !taken.is_empty() {
                    break;
                }
                cv.wait(&mut guard);
            }
        }
        for (node, result) in taken {
            remaining -= 1;
            match result {
                Ok(run) => resolver.ingest(node, run),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    }
    resolver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::InvocationCtx;
    use crate::protocol::{run_protocol, run_protocol_with_options, SpecConfig};
    use crate::sdi::SpecState;

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
        let mut b = crate::SpecPlan::builder();
        let src = b.node(8);
        let l = b.node(8);
        let r = b.node(8);
        let j = b.node(8);
        b.edge(src, l).edge(src, r).edge(l, j).edge(r, j);
        let plan = b.build().unwrap();
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
    #[should_panic(expected = "panicked in ThreadPool::scope")]
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
}
