//! The STATS execution model (paper §3.1) as a deterministic protocol.
//!
//! [`run_protocol`] is the reference implementation of the execution model:
//! inputs are grouped into ordered blocks; every block after the first
//! starts from a *speculative* state produced by auxiliary code; when the
//! previous block finishes, its final state is compared against the
//! speculative one. On mismatch the previous block's tail re-executes (the
//! nondeterministic producer may reach a different final state) up to a
//! budget; if no match is found, all subsequent blocks abort, their outputs
//! are squashed, and the remaining inputs are processed sequentially with no
//! further speculation.
//!
//! The function is *sequential* but records a [`SpecTrace`]: a task graph of
//! everything that executed (auxiliary runs, speculative invocations,
//! validations, re-executions, the post-abort sequential tail) with work
//! costs and dependence edges. Because every invocation's PRVG is seeded
//! from its coordinates, the real thread-pool runtime
//! ([`StateDependence`](crate::StateDependence)) produces byte-identical
//! outputs, and the simulated platform (`stats-sim`) can replay the trace on
//! any number of virtual cores.

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, Range};
use std::panic::UnwindSafe;
use std::time::{Duration, Instant};

use crate::adapt::{RetryPolicy, SegmentControl, SegmentStats};
use crate::ctx::{InvocationCtx, WorkMeter};
use crate::dag::{run_node_eager, run_plan, NodeRun};
use crate::faults::{FaultKind, FaultPlan};
use crate::obs::{EventKind, EventSink, NOOP};
use crate::options::RunOptions;
use crate::plan::{PlanNodeId, SpecPlan};
use crate::resolver::{expected_inputs, LinearRun, Resolver, RunLayout};
use crate::sdi::StateTransition;
use crate::sync::LazyLock;
use crate::tradeoff::TradeoffBindings;

/// Salt mixed into the run seed for auxiliary-code PRVG streams, so the
/// auxiliary producer never replays the original code's randomness.
const AUX_SEED_SALT: u64 = 0xA0C1_11A2_7E57_5EED;

/// A point in the state space for one state dependence (paper §3.3): how to
/// group inputs, how much history the auxiliary code consumes, and the
/// runtime's re-execution/rollback budgets.
#[derive(Debug, Clone)]
pub struct SpecConfig {
    /// Block cardinality `G`. `0`, `1`, or a value at least the input count
    /// disables speculation (a single sequential block).
    pub group_size: usize,
    /// How many previous inputs the auxiliary code consumes (`W`), starting
    /// from the initial state.
    pub window: usize,
    /// Maximum number of times the runtime may re-execute the original
    /// producer of a state dependence (`R`).
    pub max_reexec: usize,
    /// How many inputs the previous group goes back when re-executing (`D`);
    /// clamped to the group length, minimum 1.
    pub rollback: usize,
    /// Master switch: when false, the dependence is satisfied conventionally
    /// (no auxiliary code), which is also what the autotuner chooses when
    /// speculation never pays (e.g. `fluidanimate`).
    pub speculate: bool,
    /// Work units charged for one state comparison.
    pub validation_cost: f64,
    /// Tradeoff bindings in effect inside auxiliary code (cloned tradeoffs,
    /// set by the back-end compiler from the autotuner's configuration).
    pub aux_bindings: TradeoffBindings,
    /// Tradeoff bindings for original code (always the defaults).
    pub orig_bindings: TradeoffBindings,
}

impl Default for SpecConfig {
    fn default() -> Self {
        SpecConfig {
            group_size: 8,
            window: 2,
            max_reexec: 2,
            rollback: 2,
            speculate: true,
            validation_cost: 1.0,
            aux_bindings: TradeoffBindings::new(),
            orig_bindings: TradeoffBindings::new(),
        }
    }
}

impl SpecConfig {
    /// A configuration with speculation disabled: the paper's baseline
    /// semantics (every state dependence satisfied conventionally).
    pub fn sequential() -> Self {
        SpecConfig {
            speculate: false,
            ..SpecConfig::default()
        }
    }

    /// Check the configuration for values that are legal but almost
    /// certainly mistakes, returning human-readable diagnostics. The
    /// protocol accepts any configuration (clamping internally); these
    /// warnings exist for tools that surface configurations to users.
    pub fn lint(&self) -> Vec<String> {
        let mut warnings = Vec::new();
        if self.speculate && self.group_size <= 1 {
            warnings
                .push("group_size <= 1 disables speculation despite speculate=true".to_string());
        }
        if self.speculate && self.window == 0 {
            warnings.push(
                "window = 0 gives auxiliary code no inputs: the speculative \
                 state is the initial state, which rarely matches"
                    .to_string(),
            );
        }
        if self.speculate && self.window > 4 * self.group_size.max(1) {
            warnings.push(format!(
                "window ({}) much larger than group_size ({}): auxiliary code \
                 costs more than the work it overlaps",
                self.window, self.group_size
            ));
        }
        if self.rollback == 0 {
            warnings.push("rollback = 0 is clamped to 1 at run time".to_string());
        }
        if self.validation_cost < 0.0 {
            warnings.push("validation_cost is negative".to_string());
        }
        warnings
    }

    /// The effective group size for `n` inputs (see [`SpecConfig::group_size`]).
    pub fn effective_group_size(&self, n: usize) -> usize {
        if !self.speculate || self.group_size <= 1 || self.group_size >= n {
            n
        } else {
            self.group_size
        }
    }
}

/// What kind of work a trace node represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceNodeKind {
    /// One auxiliary-code run producing the speculative start state of
    /// `group` (internally a chain over the window inputs, summed).
    Auxiliary {
        /// The group whose start state this run produces.
        group: usize,
    },
    /// One invocation of the original `compute_output`.
    Invocation {
        /// The group the input belongs to.
        group: usize,
        /// Absolute input index.
        index: usize,
        /// Re-execution attempt (0 = first execution).
        attempt: usize,
        /// Whether the invocation ran in the post-abort sequential tail.
        sequential_tail: bool,
    },
    /// One state comparison (`does_spec_state_match_any`).
    Validation {
        /// The speculative group being validated.
        group: usize,
        /// Which comparison attempt this is (0 = against the first original).
        attempt: usize,
    },
}

/// One node of a [`SpecTrace`]: a unit of executed work with dependences
/// (read them with [`SpecTrace::deps`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// What the node did.
    pub kind: TraceNodeKind,
    /// Work performed (CPU + memory-bound split).
    pub work: WorkMeter,
    /// Whether the node's results were committed (false = squashed work).
    pub committed: bool,
    /// This node's dependences: its range of the trace's edge arena.
    edges: Range<usize>,
}

/// The recorded execution: every piece of work the protocol performed, with
/// dependence edges reflecting the execution model's parallelism.
///
/// A linear run's trace is drawn when it is read: the run keeps each
/// segment's compact records ([`LazyTrace`]), and the first read lays the
/// nodes out here, once. Whoever reads a trace pays for that layout —
/// `stats-report`, the profiler and simulator path (`expand_trace`,
/// `SimulatedRun`), and [`SessionRecorder`](crate::SessionRecorder)'s
/// `trace_digest` — and a batch run whose trace nobody reads never builds
/// one. A [`Session`](crate::Session) reads its trace once its stream
/// ends, and a plan run lays its trace out as it resolves.
///
/// Every segment and every plan node run is laid out behind the nodes its
/// entry nodes depend on. Every node's dependences live in one edge arena,
/// appended in node order: node `i`'s range starts where node `i - 1`'s
/// ends, so a trace's layout is a function of its graph alone, and two
/// traces of the same graph compare equal under the derived `PartialEq`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpecTrace {
    /// Nodes in execution-discovery order; dependences refer to indices
    /// herein.
    pub nodes: Vec<TraceNode>,
    edges: Vec<usize>,
}

impl SpecTrace {
    /// Indices of the trace nodes that must finish before node `i` starts,
    /// all of them below `i`.
    pub fn deps(&self, i: usize) -> &[usize] {
        &self.edges[self.nodes[i].edges.clone()]
    }

    /// Make room for `nodes` more nodes with `edges` more dependences.
    pub(crate) fn reserve(&mut self, nodes: usize, edges: usize) {
        self.nodes.reserve(nodes);
        self.edges.reserve(edges);
    }

    pub(crate) fn push(&mut self, kind: TraceNodeKind, work: WorkMeter, deps: &[usize]) -> usize {
        let from = self.edges.len();
        self.edges.extend_from_slice(deps);
        self.nodes.push(TraceNode {
            kind,
            work,
            committed: true,
            edges: from..self.edges.len(),
        });
        self.nodes.len() - 1
    }

    /// The last committed node from index `from` on: the node that
    /// produced the state the runs laid out there committed last.
    pub(crate) fn last_committed(&self, from: usize) -> Option<usize> {
        let region = &self.nodes[from..];
        region.iter().rposition(|n| n.committed).map(|i| from + i)
    }

    /// Total work units across all nodes (committed and squashed).
    pub fn total_work(&self) -> f64 {
        self.nodes.iter().map(|n| n.work.total).sum()
    }

    /// Work units of committed nodes only.
    pub fn committed_work(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.committed)
            .map(|n| n.work.total)
            .sum()
    }
}

/// How a group of inputs was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupResolution {
    /// The group was never speculative (group 0, or speculation disabled).
    NonSpeculative,
    /// The speculative state matched an original; outputs committed.
    Committed {
        /// How many re-executions of the previous group were needed.
        reexecutions: usize,
    },
    /// No match within the budget; the group (and all later ones) aborted.
    Aborted,
    /// The group's inputs were processed in the post-abort sequential tail.
    SequentialTail,
}

/// Per-group outcome record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupRecord {
    /// First absolute input index of the group.
    pub start: usize,
    /// One past the last absolute input index of the group.
    pub end: usize,
    /// Resolution of the group.
    pub resolution: GroupResolution,
}

/// Aggregate statistics of one protocol run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpecReport {
    /// Per-group outcomes, in input order.
    pub groups: Vec<GroupRecord>,
    /// Total re-executions of original producers.
    pub reexecutions: usize,
    /// Total state comparisons performed.
    pub validations: usize,
    /// Whether an abort occurred.
    pub aborted: bool,
    /// Work units of committed original-code invocations.
    pub committed_original_work: f64,
    /// Work units of committed auxiliary code (the "extra committed
    /// instructions" of Table 1, together with re-execution work).
    pub committed_aux_work: f64,
    /// Work units squashed (aborted speculative groups, failed re-executions).
    pub squashed_work: f64,
}

impl SpecReport {
    /// Number of groups that committed speculatively.
    pub fn committed_speculative_groups(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| matches!(g.resolution, GroupResolution::Committed { .. }))
            .count()
    }

    /// Add the work of one region of the run's trace to the committed
    /// original / committed auxiliary / squashed partition, as one sub-sum
    /// per part: the float addition order every driver's report shares, so
    /// a linear dataflow plan reproduces the segmented run's report bit for
    /// bit. Returns the three sub-sums, in field order.
    pub(crate) fn add_work(&mut self, region: &[TraceNode]) -> [f64; 3] {
        let mut sums = [0.0_f64; 3];
        for node in region {
            add_node_work(&mut sums, &node.kind, node.committed, node.work.total);
        }
        self.add_sums(sums)
    }

    /// Add one region's three sub-sums, in field order, and return them.
    pub(crate) fn add_sums(&mut self, [original, aux, squashed]: [f64; 3]) -> [f64; 3] {
        self.committed_original_work += original;
        self.committed_aux_work += aux;
        self.squashed_work += squashed;
        [original, aux, squashed]
    }

    /// Extra committed work (auxiliary code) relative to the committed
    /// original work — Table 1's "extra committed x86_64 instructions".
    pub fn extra_committed_fraction(&self) -> f64 {
        if self.committed_original_work > 0.0 {
            self.committed_aux_work / self.committed_original_work
        } else {
            0.0
        }
    }
}

/// Add one node's work to its part of `sums` — committed original,
/// committed auxiliary, squashed — the one rule of [`SpecReport`]'s work
/// partition.
#[inline]
pub(crate) fn add_node_work(sums: &mut [f64; 3], kind: &TraceNodeKind, committed: bool, work: f64) {
    match (committed, kind) {
        (false, _) => sums[2] += work,
        (true, TraceNodeKind::Auxiliary { .. }) => sums[1] += work,
        (true, _) => sums[0] += work,
    }
}

/// The complete result of a protocol run.
pub struct ProtocolResult<T: StateTransition> {
    /// Committed outputs, one per input, in input order.
    pub outputs: Vec<T::Output>,
    /// The committed final state after the last input.
    pub final_state: T::State,
    /// Aggregate statistics.
    pub report: SpecReport,
    /// The recorded task graph, laid out on first read (it derefs to a
    /// [`SpecTrace`]): a batch run's caller that never reads it —
    /// `run_protocol*`, `StateDependence::run` — pays nothing for it, and
    /// the first read — `stats-report`, the profiler, a recorder's
    /// `trace_digest` — pays for the whole layout, once. A `Session` reads
    /// its own once its stream ends.
    pub trace: LazyTrace,
}

/// A run's [`SpecTrace`], drawn when it is read: a linear run keeps the
/// compact records its resolver settled for each segment, and the first
/// dereference lays them out, in segment order, once, and drops them. Each
/// segment's entry nodes depend on the trace's last committed node before
/// it, the node that produced the state the segment started from. A plan
/// run's trace is laid out as it runs, and comes here laid out already
/// (`From<SpecTrace>`).
pub struct LazyTrace(LazyLock<SpecTrace, Draw>);

/// What lays a [`LazyTrace`] out on its first read. It is `UnwindSafe`, so
/// a [`ProtocolResult`] is as unwind-safe as its states and outputs.
type Draw = Box<dyn FnOnce() -> SpecTrace + Send + UnwindSafe>;

impl LazyTrace {
    /// The trace of the segments `runs`, not laid out yet.
    pub(crate) fn pending(runs: Vec<RunLayout>) -> Self {
        LazyTrace(LazyLock::new(Box::new(move || lay_out_runs(runs))))
    }

    /// The laid-out trace, by value: laid out now if nobody read it yet.
    pub fn into_inner(self) -> SpecTrace {
        let mut trace = self.0;
        std::mem::take(&mut *trace)
    }
}

/// Lay `runs` out one after another into one trace, dropping each one's
/// records once it is laid out. A run's entry nodes depend on the last
/// committed node before it: every input has a committed node, so that
/// node produced the state the run started from.
fn lay_out_runs(runs: Vec<RunLayout>) -> SpecTrace {
    let mut trace = SpecTrace::default();
    // A run's entry is at most one node.
    let (nodes, edges) = runs.iter().fold((0, 0), |(n, e), run| {
        let (rn, re) = run.size(1);
        (n + rn, e + re)
    });
    trace.reserve(nodes, edges);
    for run in runs {
        let entry = trace.last_committed(0);
        run.lay_out(&mut trace, entry.as_slice());
    }
    trace
}

impl From<SpecTrace> for LazyTrace {
    /// A trace laid out already.
    fn from(trace: SpecTrace) -> Self {
        LazyTrace(LazyLock::new(Box::new(move || trace)))
    }
}

impl Deref for LazyTrace {
    type Target = SpecTrace;

    fn deref(&self) -> &SpecTrace {
        &self.0
    }
}

impl PartialEq for LazyTrace {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for LazyTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Identity of one group to execute (input range and position). Group 0
/// is the non-speculative one; every later group is speculative.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GroupSpec {
    pub(crate) k: usize,
    pub(crate) start: usize,
    pub(crate) end: usize,
}

/// Everything one group execution produces. Pure data: group executions are
/// mutually independent, which is exactly why they may run on real threads.
pub(crate) struct GroupData<T: StateTransition> {
    pub(crate) spec: GroupSpec,
    pub(crate) aux_work: Option<WorkMeter>,
    pub(crate) spec_start: Option<T::State>,
    /// The state `rollback` inputs before the end, where a re-execution of
    /// the group's tail starts; `None` only for a group 0 that is its run's
    /// only group, which no validation re-executes.
    pub(crate) checkpoint: Option<T::State>,
    pub(crate) final_state: T::State,
    pub(crate) outputs: Vec<T::Output>,
    pub(crate) works: Vec<WorkMeter>,
}

/// A group's output and work-meter buffers. A settled group's come back
/// from [`Resolver::ingest`] emptied, their capacity kept, and the next
/// group run on the same thread fills them, so a run whose groups all run
/// on its coordinator allocates none per group.
pub(crate) struct GroupBuffers<T: StateTransition> {
    pub(crate) outputs: Vec<T::Output>,
    pub(crate) works: Vec<WorkMeter>,
}

impl<T: StateTransition> Default for GroupBuffers<T> {
    fn default() -> Self {
        GroupBuffers {
            outputs: Vec::new(),
            works: Vec::new(),
        }
    }
}

/// What every unit of one run — a group, a plan node, a validation —
/// executes under: the transition, the operating point, the seed its PRVG
/// streams derive from, where events go, which faults are injected and how
/// often a group that lost its worker is retried.
pub(crate) struct RunCtx<'a, T: StateTransition> {
    pub(crate) transition: &'a T,
    pub(crate) config: &'a SpecConfig,
    pub(crate) seed: u64,
    pub(crate) sink: &'a dyn EventSink,
    pub(crate) faults: Option<&'a FaultPlan>,
    pub(crate) retry: RetryPolicy,
}

impl<T: StateTransition> Clone for RunCtx<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: StateTransition> Copy for RunCtx<'_, T> {}

impl<'a, T: StateTransition> RunCtx<'a, T> {
    /// The context of a borrowed `transition` under `options`.
    pub(crate) fn new(transition: &'a T, options: &'a RunOptions) -> Self {
        RunCtx {
            transition,
            config: &options.config,
            seed: options.seed,
            sink: &*options.sink,
            faults: options.faults.as_ref(),
            retry: options.retry,
        }
    }

    /// Emit `kind` if the sink wants events at all (an [`EventSink`] is
    /// only ever handed events while it reports `enabled`).
    pub(crate) fn emit(&self, kind: EventKind) {
        if self.sink.enabled() {
            self.sink.emit(kind);
        }
    }

    /// The context of one chain of this run's invocations — of the
    /// original code, or of the auxiliary code with its own bindings —
    /// which [`invoke`](RunCtx::invoke) re-arms for each of them: the
    /// bindings are cloned once per chain, not once per input.
    pub(crate) fn chain_ctx(&self, auxiliary: bool) -> InvocationCtx {
        let bindings = match auxiliary {
            true => &self.config.aux_bindings,
            false => &self.config.orig_bindings,
        };
        InvocationCtx::new(0, bindings.clone(), auxiliary)
    }

    /// Run `input` on `state` as invocation `(group, index, attempt)` of
    /// this run, in `chain`'s context (from [`chain_ctx`](RunCtx::chain_ctx)):
    /// the original code, or the auxiliary code with its seed salt.
    pub(crate) fn invoke(
        &self,
        chain: &mut InvocationCtx,
        input: &T::Input,
        state: &mut T::State,
        group: usize,
        index: usize,
        attempt: usize,
    ) -> (T::Output, WorkMeter) {
        let seed = match chain.is_auxiliary() {
            true => self.seed ^ AUX_SEED_SALT,
            false => self.seed,
        };
        chain.rearm(InvocationCtx::derive_seed(
            seed,
            group as u64,
            index as u64,
            attempt as u64,
        ));
        let out = self.transition.compute_output(input, state, chain);
        (out, chain.meter())
    }

    /// Whether the fault plan forces validation attempt `attempt` at `site`
    /// (a group of a linear run, a node of a plan) to report a mismatch
    /// even when the states matched; emits the marker event when it does.
    pub(crate) fn forced_mismatch(&self, site: usize, attempt: usize) -> bool {
        let kind = FaultKind::ValidationMismatch;
        let fired = self
            .faults
            .is_some_and(|plan| plan.fires(kind, self.seed, site as u64, attempt as u32));
        if fired {
            self.emit(EventKind::FaultInjected {
                kind,
                site,
                attempt,
            });
        }
        fired
    }
}

impl<T: StateTransition> GroupData<T> {
    /// Group `spec` before its chained invocations of the original code
    /// from `state` — which [`execute_group`] runs after the auxiliary
    /// code, and every linear run's coordinator runs for group 0 as its
    /// inputs arrive. Its outputs and work meters fill `buffers`, which
    /// are empty.
    fn chain(spec: GroupSpec, state: T::State, buffers: GroupBuffers<T>) -> Self {
        let GroupBuffers {
            mut outputs,
            mut works,
        } = buffers;
        debug_assert!(
            outputs.is_empty() && works.is_empty(),
            "spare buffers are empty"
        );
        let len = spec.end - spec.start;
        outputs.reserve(len);
        works.reserve(len);
        GroupData {
            spec,
            aux_work: None,
            spec_start: None,
            checkpoint: None,
            final_state: state,
            outputs,
            works,
        }
    }

    /// Run input `i` of the run, the group's next one, in the chain's
    /// context `chain`, keeping the state before input `checkpoint_at` as
    /// the checkpoint.
    fn step(
        &mut self,
        ctx: RunCtx<'_, T>,
        chain: &mut InvocationCtx,
        input: &T::Input,
        i: usize,
        checkpoint_at: Option<usize>,
    ) {
        if checkpoint_at == Some(i) {
            self.checkpoint = Some(self.final_state.clone());
        }
        let (out, m) = ctx.invoke(chain, input, &mut self.final_state, self.spec.k, i, 0);
        self.outputs.push(out);
        self.works.push(m);
    }
}

/// Execute one speculative group: auxiliary code followed by the chained
/// invocations over the group's inputs. This is the whole job of a
/// speculative group on every linear driver, whichever thread runs it.
/// Thread-safe and deterministic given `ctx.seed`.
///
/// `inputs` may be a window of the run's inputs starting at position `base`
/// (a stream ships each pool job only the inputs it reads); the spec's
/// `start`/`end` and the loop indices stay those of the run, because they
/// feed the PRVG seed derivation. The group's outputs and work meters fill
/// `buffers` (empty, perhaps with a settled group's capacity).
pub(crate) fn execute_group<T: StateTransition>(
    ctx: RunCtx<'_, T>,
    inputs: &[T::Input],
    base: usize,
    initial: &T::State,
    spec: GroupSpec,
    buffers: GroupBuffers<T>,
) -> GroupData<T> {
    let (config, run_seed) = (ctx.config, ctx.seed);
    let GroupSpec { k, start, end } = spec;
    // Group 0 runs on its run's coordinator as the inputs arrive, with no
    // point before the group to fail or stall at: faults target the rest.
    if let Some(plan) = ctx.faults {
        // A lost worker: the attempt dies before it produces anything, and
        // the group is retried after a backoff while the budget lasts. Once
        // it is spent the group runs anyway — the fallback that always
        // succeeds — so a lost group never wedges the run.
        let mut attempt = 0;
        while plan.fires(FaultKind::WorkerPanic, run_seed, k as u64, attempt) {
            ctx.emit(EventKind::FaultInjected {
                kind: FaultKind::WorkerPanic,
                site: k,
                attempt: attempt as usize,
            });
            if attempt >= ctx.retry.max_retries {
                break;
            }
            crate::sync::thread::sleep(ctx.retry.delay_for(attempt));
            attempt += 1;
            ctx.emit(EventKind::GroupRetry {
                group: k,
                attempt: attempt as usize,
            });
        }
        if let Some(delay) = plan.delay(FaultKind::SlowGroup, run_seed, k as u64) {
            ctx.emit(EventKind::FaultInjected {
                kind: FaultKind::SlowGroup,
                site: k,
                attempt: 0,
            });
            crate::sync::thread::sleep(delay);
        }
    }
    ctx.emit(EventKind::GroupStart {
        group: k,
        start,
        end,
        speculative: true,
    });
    // Auxiliary code: from the initial state, consume the last `window`
    // inputs before `start` with the auxiliary bindings.
    let mut aux_state = initial.clone();
    let mut aux_work = WorkMeter::default();
    let w_start = start.saturating_sub(config.window);
    let mut aux = ctx.chain_ctx(true);
    for (i, input) in (w_start..start).zip(&inputs[w_start - base..start - base]) {
        let (_out, m) = ctx.invoke(&mut aux, input, &mut aux_state, k, i, 0);
        aux_work.total += m.total;
        aux_work.memory += m.memory;
    }

    // `rollback` is clamped to `1..=len`, so the chain passes the
    // checkpoint and captures it there.
    let checkpoint_at = end - config.rollback.clamp(1, end - start);
    let mut data = GroupData::chain(spec, aux_state.clone(), buffers);
    let mut chain = ctx.chain_ctx(false);
    for (i, input) in (start..end).zip(&inputs[start - base..end - base]) {
        data.step(ctx, &mut chain, input, i, Some(checkpoint_at));
    }
    ctx.emit(EventKind::GroupEnd { group: k });
    data.aux_work = Some(aux_work);
    data.spec_start = Some(aux_state);
    data
}

/// Execute the STATS execution model over `inputs`, starting from `initial`.
///
/// Deterministic: all nondeterminism flows from `run_seed` through
/// per-invocation derived seeds, so repeated calls with the same arguments
/// produce identical outputs, reports, and traces.
pub fn run_protocol<T: StateTransition>(
    transition: &T,
    inputs: &[T::Input],
    initial: &T::State,
    config: &SpecConfig,
    run_seed: u64,
) -> ProtocolResult<T> {
    let ctx = RunCtx {
        transition,
        config,
        seed: run_seed,
        sink: &NOOP,
        faults: None,
        retry: RetryPolicy::default(),
    };
    let control = SegmentControl::fixed(config);
    run_batch(ctx, inputs, initial, control, None, &Inline)
}

/// The sequential reference run with every knob taken from one
/// [`RunOptions`] value: sink, seed, config, faults, segmenting, the
/// adaptive and re-tuning controllers, or a DAG plan. This is the batch
/// counterpart of the streaming [`Session`](crate::Session); the options'
/// pool (if any) is ignored — the parallel execution lives in
/// [`StateDependence`](crate::StateDependence).
pub fn run_protocol_with_options<T: StateTransition>(
    transition: &T,
    inputs: &[T::Input],
    initial: &T::State,
    options: &RunOptions,
) -> ProtocolResult<T> {
    run_batch(
        RunCtx::new(transition, options),
        inputs,
        initial,
        SegmentControl::new(options),
        options.plan.as_ref(),
        &Inline,
    )
}

/// How the units of a run — a linear run's speculative groups, a plan's
/// eager nodes — get executed. Units are mutually independent pure
/// functions of the run's context, so *who* runs them changes nothing the
/// run produces; the engine consumes their results in a fixed order either
/// way. The default methods are the sequential reference: every unit runs
/// on the calling thread.
pub(crate) trait Executor<T: StateTransition> {
    /// Open the batch that one linear run from `initial` under `ctx`
    /// submits its speculative groups to; every stored result runs `wake`
    /// (see [`Intake::wake`]). The reference runs a group when the
    /// resolver asks for it.
    fn groups<'a>(
        &'a self,
        ctx: RunCtx<'a, T>,
        initial: &'a T::State,
        _wake: impl Fn() + Send + Sync + 'static,
    ) -> impl Groups<T> + 'a {
        InlineGroups {
            ctx,
            initial,
            queued: VecDeque::new(),
            spare: GroupBuffers::default(),
        }
    }

    /// Run the eager nodes `eager` (in topological order) of `plan` over
    /// `inputs` from `initial` under `ctx`; results come back in that order.
    /// The reference executes each node when the resolver gets to it.
    fn nodes<'a>(
        &'a self,
        ctx: RunCtx<'a, T>,
        plan: &'a SpecPlan,
        inputs: &'a [T::Input],
        initial: &'a T::State,
        eager: &'a [PlanNodeId],
    ) -> impl Iterator<Item = NodeRun<T>> + 'a {
        eager
            .iter()
            .map(move |&node| run_node_eager(plan, node, ctx, inputs, initial))
    }
}

/// The open batch of one linear run's speculative groups: submitted in
/// group order, results handed back in that order. The default methods are
/// the reference's, which runs a group when its result is asked for.
pub(crate) trait Groups<T: StateTransition> {
    /// Submit the next group. A job on another thread reads `window`; one
    /// run on the coordinator reads the run's arrived inputs, which every
    /// request for a result passes.
    fn submit(&mut self, spec: GroupSpec, window: Window<T::Input>);

    /// The next group's result: run here, over the run's `arrived` inputs,
    /// if nobody has started the group, waited for otherwise; `None` when
    /// no group is outstanding.
    fn next(&mut self, arrived: &[T::Input]) -> Option<GroupData<T>>;

    /// The next group's result, if it is stored already or runs here.
    fn try_next(&mut self, arrived: &[T::Input]) -> Option<GroupData<T>> {
        self.next(arrived)
    }

    /// A settled group's emptied buffers, for the next group run here.
    fn recycle(&mut self, spare: GroupBuffers<T>);

    /// Run the next group here if nobody has started it: the step before
    /// blocking on it (why: [`Ticket::run_if_unclaimed`](crate::Ticket::run_if_unclaimed)).
    /// A no-op with no group outstanding.
    fn claim_next(&mut self) {}

    /// Group 0 is complete with a full group's inputs, and running them on
    /// the calling thread took `elapsed`: what running one group here
    /// costs. The reference has no use for it.
    fn group0_ran(&mut self, _elapsed: Duration) {}
}

/// What a pool job of a group reads its inputs from.
pub(crate) enum Window<I> {
    /// The batch the executor was built over, from the run's input 0 at
    /// `offset` on: a batch run's groups copy nothing.
    Batch { offset: usize },
    /// A copy of the inputs the group reads, the first being input `base`.
    Copied { inputs: Vec<I>, base: usize },
}

/// The sequential reference's batch: a submitted group waits in `queued`
/// and runs when the resolver asks for it, into the last settled group's
/// buffers, so the reference holds one group's data at a time.
struct InlineGroups<'a, T: StateTransition> {
    ctx: RunCtx<'a, T>,
    initial: &'a T::State,
    queued: VecDeque<GroupSpec>,
    spare: GroupBuffers<T>,
}

impl<T: StateTransition> Groups<T> for InlineGroups<'_, T> {
    fn submit(&mut self, spec: GroupSpec, _: Window<T::Input>) {
        self.queued.push_back(spec);
    }

    fn next(&mut self, arrived: &[T::Input]) -> Option<GroupData<T>> {
        let spec = self.queued.pop_front()?;
        let spare = std::mem::take(&mut self.spare);
        Some(execute_group(
            self.ctx,
            arrived,
            0,
            self.initial,
            spec,
            spare,
        ))
    }

    fn recycle(&mut self, spare: GroupBuffers<T>) {
        self.spare = spare;
    }
}

/// The sequential reference executor.
pub(crate) struct Inline;

impl<T: StateTransition> Executor<T> for Inline {}

/// The inputs of one linear run as they arrive. A batch run's intake is
/// its [`Slice`], every input there from the start; a stream's is its
/// queue (`session::QueueIntake`), the only intake that bounds admission or
/// waits for inputs. The default methods are a closed intake's.
pub(crate) trait Intake<T: StateTransition> {
    /// The inputs arrived so far, the run's input 0 first, and whether
    /// they are all of them.
    fn arrived(&self) -> (&[T::Input], bool);

    /// The most inputs the run can take: a closed intake's are all here,
    /// a stream segment's are its length.
    fn limit(&self) -> usize {
        self.arrived().0.len()
    }

    /// What a pool job of a group over inputs `lo..hi` reads.
    fn window(&self, lo: usize, hi: usize) -> Window<T::Input>;

    /// What every stored group result must run for [`wait`](Intake::wait)
    /// to see it.
    fn wake(&self) -> impl Fn() + Send + Sync + 'static {
        || {}
    }

    /// Block until the run can move on: inputs arrived — none of a group
    /// more than the intake's window past the `settled` groups of
    /// `group_size` inputs —, the intake closed, or `next` holds the next
    /// result of `groups`. Called with `next` empty, and only while the run
    /// is waiting for an input, the close or a submitted group — of which
    /// a closed intake has only the last.
    fn wait(
        &mut self,
        groups: &mut impl Groups<T>,
        next: &mut Option<GroupData<T>>,
        _settled: usize,
        _group_size: usize,
    ) {
        *next = Some(
            groups
                .next(self.arrived().0)
                .expect("a closed run waits only for submitted groups"),
        );
    }
}

/// A batch run's intake, or a plan node's: its inputs, all arrived, and
/// where they start in the batch.
pub(crate) struct Slice<'a, I>(pub(crate) &'a [I], pub(crate) usize);

impl<T: StateTransition> Intake<T> for Slice<'_, T::Input> {
    fn arrived(&self) -> (&[T::Input], bool) {
        (self.0, true)
    }

    fn window(&self, _: usize, _: usize) -> Window<T::Input> {
        Window::Batch { offset: self.1 }
    }
}

/// The batch engine: the execution model over all of `inputs`, as the
/// linear segments `control` sizes and configures, or over the dependency
/// DAG `plan` (which takes precedence: its node boundaries are the
/// segmentation, so the controllers do not apply) — with `exec` saying who
/// runs the units. The sequential reference ([`Inline`]) and the pooled
/// runtime (`runtime::Pooled`) are this function, so they cannot diverge.
pub(crate) fn run_batch<T: StateTransition, E: Executor<T>>(
    ctx: RunCtx<'_, T>,
    inputs: &[T::Input],
    initial: &T::State,
    control: SegmentControl<'_>,
    plan: Option<&SpecPlan>,
    exec: &E,
) -> ProtocolResult<T> {
    if let Some(plan) = plan {
        return run_plan(ctx, plan, inputs, initial, exec);
    }
    let mut lo = 0usize;
    run_segments(ctx, initial, control, |ctx, start, len| {
        let range = lo..lo.saturating_add(len).min(inputs.len());
        lo = range.end;
        let slice = &mut Slice(&inputs[range.clone()], range.start);
        (!range.is_empty()).then(|| run_linear(ctx, slice, start, exec))
    })
}

/// The one loop over the segments of a linear run. §3.1's abort rule says
/// "no other speculation is performed until all the *current* inputs are
/// processed": in a long-running program the state dependence is
/// re-entered per batch (a video chunk, a stream window), so an abort
/// disables speculation only for the rest of its own segment — the next
/// segment speculates afresh, from the committed final state of the one
/// before.
///
/// Segment *i* runs under `ctx` with its own seed, `segment_seed(seed,
/// i)`, and the configuration `control` hands it; `next(ctx, start, len)`
/// runs it over at most `len` further inputs from the committed state
/// `start` — a slice of the batch, or what a stream's queue delivers — and
/// returns `None` once there are none. Each segment's work is folded into
/// the report straight from its resolver's records, in the trace's node
/// order, and `control` then observes its share; the records wait in the
/// result's [`LazyTrace`] for a caller that reads it. An unsegmented
/// run is one segment of `usize::MAX` inputs, and since
/// `segment_seed(seed, 0) == seed` that segment *is* the whole run.
pub(crate) fn run_segments<T: StateTransition>(
    ctx: RunCtx<'_, T>,
    initial: &T::State,
    mut control: SegmentControl<'_>,
    mut next: impl FnMut(RunCtx<'_, T>, &T::State, usize) -> Option<LinearRun<T>>,
) -> ProtocolResult<T> {
    let mut runs = Vec::new();
    let mut report = SpecReport::default();
    let mut outputs = Vec::new();
    let mut last: Option<T::State> = None;
    for segment in 0u64.. {
        let config = control.config();
        let seg = RunCtx {
            config: &config,
            seed: segment_seed(ctx.seed, segment),
            ..ctx
        };
        let Some(run) = next(seg, last.as_ref().unwrap_or(initial), control.segment) else {
            break;
        };
        let (aborted, reexecutions, validations) = (run.aborted, run.reexecutions, run.validations);
        let (seg_outputs, final_state, layout) = run.settle(&mut report, Some(outputs.len()));
        let [committed_original_work, committed_aux_work, squashed_work] =
            report.add_sums(layout.work_sums());
        runs.push(layout);
        let done = SegmentStats {
            segment,
            inputs: seg_outputs.len(),
            aborted,
            reexecutions,
            validations,
            committed_original_work,
            committed_aux_work,
            squashed_work,
            group_size: config.group_size,
            window: config.window,
            max_reexec: config.max_reexec,
        };
        control.observe(seg, &done);
        match outputs.is_empty() {
            true => outputs = seg_outputs,
            false => outputs.extend(seg_outputs),
        }
        last = Some(final_state);
    }
    ProtocolResult {
        outputs,
        // No inputs, no segments: the initial state is the final one.
        final_state: last.unwrap_or_else(|| initial.clone()),
        report,
        trace: LazyTrace::pending(runs),
    }
}

/// The one per-segment engine of every linear run — a segment of a batch
/// or of a stream, or a plan node's inputs — from `initial`, over the
/// inputs `intake` delivers (never none), with `exec` running the
/// speculative groups. The paper's loop (§3.1), written once:
///
/// - Groups are the `group_size`-blocks of the inputs in arrival order;
///   with speculation off, or inputs for one block only, the run is one
///   group (as [`SpecConfig::effective_group_size`] says).
/// - A speculative group is submitted as soon as its inputs are complete,
///   *before* this thread runs group 0's newly arrived inputs, so the two
///   overlap on a pool; the reference runs it when the resolver asks for
///   its result.
/// - Group 0 runs here, input by input, as [`execute_group`] runs a
///   group's chain; its `GroupStart`/`GroupEnd` pair is emitted once it is
///   complete, and `RunStart` counts the inputs there when the run starts
///   (all of a batch's, none of a stream's). The run is sized for the
///   inputs it expects ([`expected_inputs`]): a short stream segment's
///   length, or else the inputs there.
/// - Results reach the [`Resolver`] in group order, and each settled
///   group's buffers go back to `exec` for the next group it runs here;
///   the trace's dependence edges carry the parallelism however `exec`
///   scheduled the work.
pub(crate) fn run_linear<T: StateTransition, E: Executor<T>>(
    ctx: RunCtx<'_, T>,
    intake: &mut impl Intake<T>,
    initial: &T::State,
    exec: &E,
) -> LinearRun<T> {
    let config = ctx.config;
    // The group size while the input count is unknown: a run that never
    // completes a second block has one group, however large.
    let g = if config.speculate && config.group_size > 1 {
        config.group_size
    } else {
        usize::MAX
    };
    let known = intake.arrived().0.len();
    let expected = expected_inputs(known, intake.limit());
    let mut resolver = Resolver::new(ctx, g, expected);
    let mut groups = exec.groups(ctx, initial, intake.wake());
    let checkpoint_at = (g < usize::MAX).then(|| g - config.rollback.clamp(1, g));
    // Sized for the inputs of group 0 the run expects; its end is set when
    // it is complete.
    let sized = GroupSpec {
        end: expected.min(g),
        ..GroupSpec::default()
    };
    let mut group0 = Some(GroupData::chain(
        sized,
        initial.clone(),
        GroupBuffers::default(),
    ));
    let mut chain0 = ctx.chain_ctx(false);
    // The time spent running group 0 so far; never read by the run itself.
    let mut group0_time = Duration::ZERO;
    // The result the resolver needs next, once it is here.
    let mut next: Option<GroupData<T>> = None;
    let (mut submitted, mut ingested) = (1usize, 0usize);
    loop {
        let (inputs, closed) = intake.arrived();
        let n = inputs.len();
        if n > 0 && group0.as_ref().is_some_and(|g0| g0.outputs.is_empty()) {
            ctx.emit(EventKind::RunStart {
                inputs: known,
                groups: known.div_ceil(g),
            });
        }
        while submitted.saturating_mul(g) < n
            && (closed || submitted.saturating_add(1).saturating_mul(g) <= n)
        {
            let start = submitted * g;
            let spec = GroupSpec {
                k: submitted,
                start,
                end: start.saturating_add(g).min(n),
            };
            let window = intake.window(start.saturating_sub(config.window), spec.end);
            groups.submit(spec, window);
            submitted += 1;
        }
        if let Some(data) = &mut group0 {
            let end = n.min(g);
            let began = Instant::now();
            for (i, input) in inputs.iter().enumerate().take(end).skip(data.outputs.len()) {
                data.step(ctx, &mut chain0, input, i, checkpoint_at);
            }
            group0_time += began.elapsed();
            if end == g {
                groups.group0_ran(group0_time);
            }
            if end == g || closed {
                ctx.emit(EventKind::GroupStart {
                    group: 0,
                    start: 0,
                    end,
                    speculative: false,
                });
                ctx.emit(EventKind::GroupEnd { group: 0 });
                next = group0.take().map(|data| GroupData {
                    spec: GroupSpec { end, ..data.spec },
                    ..data
                });
            }
        }
        resolver.process_tail(inputs);
        // Until group 0 is here, no later group has been submitted.
        while let Some(data) = next.take().or_else(|| groups.try_next(intake.arrived().0)) {
            groups.recycle(resolver.ingest(data, intake.arrived().0));
            ingested += 1;
        }
        if closed && ingested == n.div_ceil(g) {
            break;
        }
        intake.wait(&mut groups, &mut next, resolver.settled_groups(), g);
    }
    let run = resolver.finish();
    ctx.emit(EventKind::RunEnd);
    run
}

impl fmt::Display for SpecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec_groups = self.groups.len().saturating_sub(1);
        write!(
            f,
            "{} groups ({} speculative, {} committed), {} re-executions, \
             {} validations, aborted: {}, work: {:.0} original + {:.0} auxiliary \
             committed, {:.0} squashed",
            self.groups.len(),
            spec_groups,
            self.committed_speculative_groups(),
            self.reexecutions,
            self.validations,
            self.aborted,
            self.committed_original_work,
            self.committed_aux_work,
            self.squashed_work,
        )
    }
}

/// The seed of segment `idx`'s own protocol run (plan nodes count as
/// segments). The linear and plan drivers both derive it here: their
/// bit-identity to each other rests on it.
pub(crate) fn segment_seed(run_seed: u64, idx: u64) -> u64 {
    run_seed ^ idx << 32
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::adapt::{Retuner, TuneDecision};
    use crate::sdi::{ExactState, SpecState};
    use crate::sync::Mutex;

    /// Segmented run via the unified options surface.
    fn run_segmented<T: StateTransition>(
        transition: &T,
        inputs: &[T::Input],
        initial: &T::State,
        config: &SpecConfig,
        seed: u64,
        segment: usize,
    ) -> ProtocolResult<T> {
        let options = RunOptions::default()
            .config(config.clone())
            .seed(seed)
            .segment(segment);
        run_protocol_with_options(transition, inputs, initial, &options)
    }

    /// Observed run via the unified options surface.
    fn run_with_sink<T: StateTransition>(
        transition: &T,
        inputs: &[T::Input],
        initial: &T::State,
        config: &SpecConfig,
        seed: u64,
        sink: &Arc<crate::obs::RecordingSink>,
    ) -> ProtocolResult<T> {
        let options = RunOptions::default()
            .config(config.clone())
            .seed(seed)
            .sink(Arc::clone(sink) as Arc<dyn EventSink>);
        run_protocol_with_options(transition, inputs, initial, &options)
    }

    /// Deterministic counter: state is the running sum; outputs the sum.
    struct Sum;
    impl StateTransition for Sum {
        type Input = u64;
        type State = ExactState<u64>;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            state: &mut ExactState<u64>,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            ctx.charge(10.0);
            state.0 = state.0.wrapping_add(*input);
            state.0
        }
    }

    /// A state whose comparison always succeeds (streamcluster-style: any
    /// speculative state is a legal original output).
    #[derive(Clone, Debug)]
    struct AlwaysMatch(u64);
    impl SpecState for AlwaysMatch {
        fn matches_any(&self, _originals: &[Self]) -> bool {
            true
        }
    }

    /// A state whose comparison never succeeds (forces the abort path).
    #[derive(Clone, Debug)]
    struct NeverMatch(u64);
    impl SpecState for NeverMatch {
        fn matches_any(&self, _originals: &[Self]) -> bool {
            false
        }
    }

    struct SumAlways;
    impl StateTransition for SumAlways {
        type Input = u64;
        type State = AlwaysMatch;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            state: &mut AlwaysMatch,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            ctx.charge(10.0);
            state.0 = state.0.wrapping_add(*input);
            state.0
        }
    }

    struct SumNever;
    impl StateTransition for SumNever {
        type Input = u64;
        type State = NeverMatch;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            state: &mut NeverMatch,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            ctx.charge(10.0);
            state.0 = state.0.wrapping_add(*input);
            state.0
        }
    }

    fn inputs(n: usize) -> Vec<u64> {
        (1..=n as u64).collect()
    }

    #[test]
    fn sequential_config_matches_plain_fold() {
        let ins = inputs(10);
        let r = run_protocol(&Sum, &ins, &ExactState(0), &SpecConfig::sequential(), 1);
        let expected: Vec<u64> = ins
            .iter()
            .scan(0u64, |s, &x| {
                *s += x;
                Some(*s)
            })
            .collect();
        assert_eq!(r.outputs, expected);
        assert_eq!(r.final_state.0, 55);
        assert!(!r.report.aborted);
        assert!(r
            .report
            .groups
            .iter()
            .all(|g| g.resolution == GroupResolution::NonSpeculative));
    }

    /// A pending trace keeps a result as unwind-safe as its states and
    /// outputs, so a caller may hold one across `catch_unwind`.
    #[test]
    fn a_result_with_a_pending_trace_is_unwind_safe() {
        fn unwind_safe<R: UnwindSafe + std::panic::RefUnwindSafe>(_: &R) {}
        let r = run_protocol(&Sum, &inputs(10), &ExactState(0), &SpecConfig::default(), 1);
        unwind_safe(&r);
        let nodes = std::panic::catch_unwind(|| r.trace.nodes.len()).unwrap();
        assert!(nodes >= 10);
    }

    /// "Short memory" transition: the state is just the last input seen, so
    /// auxiliary code with any window >= 1 reproduces it exactly — the
    /// structural property (§4.8) that makes a computation a good STATS fit.
    struct Last;
    impl StateTransition for Last {
        type Input = u64;
        type State = ExactState<u64>;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            state: &mut ExactState<u64>,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            ctx.charge(10.0);
            state.0 = *input;
            state.0
        }
    }

    #[test]
    fn exact_state_speculation_commits_for_short_memory_code() {
        let ins = inputs(16);
        let cfg = SpecConfig {
            group_size: 4,
            window: 1,
            ..SpecConfig::default()
        };
        let r = run_protocol(&Last, &ins, &ExactState(0), &cfg, 7);
        assert!(!r.report.aborted, "report: {:?}", r.report);
        assert_eq!(r.report.committed_speculative_groups(), 3);
        assert_eq!(r.outputs, ins);
    }

    #[test]
    fn full_history_state_aborts_even_with_group_sized_window() {
        // Sum's state is the whole prefix sum: a window covering only the
        // previous group cannot reproduce it past the first boundary, so the
        // second speculative group must abort (the fluidanimate situation).
        let ins = inputs(16);
        let cfg = SpecConfig {
            group_size: 4,
            window: 4,
            ..SpecConfig::default()
        };
        let r = run_protocol(&Sum, &ins, &ExactState(0), &cfg, 7);
        assert!(r.report.aborted);
        // Group 1's window happens to cover its whole prefix, so it commits.
        assert_eq!(
            r.report.groups[1].resolution,
            GroupResolution::Committed { reexecutions: 0 }
        );
        let expected: Vec<u64> = ins
            .iter()
            .scan(0u64, |s, &x| {
                *s += x;
                Some(*s)
            })
            .collect();
        assert_eq!(r.outputs, expected);
    }

    #[test]
    fn short_window_mismatch_aborts_exact_state() {
        // With a window smaller than the prefix, the aux state cannot equal
        // the exact running sum, so every validation fails and the first
        // speculative group aborts.
        let ins = inputs(16);
        let cfg = SpecConfig {
            group_size: 4,
            window: 1,
            max_reexec: 2,
            ..SpecConfig::default()
        };
        let r = run_protocol(&Sum, &ins, &ExactState(0), &cfg, 7);
        assert!(r.report.aborted);
        // Outputs must still be the correct sequential results.
        let expected: Vec<u64> = ins
            .iter()
            .scan(0u64, |s, &x| {
                *s += x;
                Some(*s)
            })
            .collect();
        assert_eq!(r.outputs, expected);
        assert_eq!(r.final_state.0, 136);
        // Re-executions happened (deterministic code cannot change its
        // final state, but the runtime doesn't know that).
        assert_eq!(r.report.reexecutions, 2);
        assert!(r.report.squashed_work > 0.0);
    }

    #[test]
    fn always_match_commits_everything() {
        let ins = inputs(20);
        let cfg = SpecConfig {
            group_size: 5,
            window: 2,
            ..SpecConfig::default()
        };
        let r = run_protocol(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 3);
        assert!(!r.report.aborted);
        assert_eq!(r.report.committed_speculative_groups(), 3);
        assert_eq!(r.report.reexecutions, 0);
        assert_eq!(r.outputs.len(), 20);
        assert!(r.report.committed_aux_work > 0.0);
    }

    #[test]
    fn never_match_aborts_at_first_group_and_falls_back() {
        let ins = inputs(20);
        let cfg = SpecConfig {
            group_size: 5,
            window: 2,
            max_reexec: 3,
            ..SpecConfig::default()
        };
        let r = run_protocol(&SumNever, &ins, &NeverMatch(0), &cfg, 3);
        assert!(r.report.aborted);
        assert_eq!(r.report.reexecutions, 3);
        // All 20 outputs exist and match the sequential fold.
        let expected: Vec<u64> = ins
            .iter()
            .scan(0u64, |s, &x| {
                *s += x;
                Some(*s)
            })
            .collect();
        assert_eq!(r.outputs, expected);
        // Groups 1.. are sequential-tail.
        assert!(r
            .report
            .groups
            .iter()
            .skip(1)
            .all(|g| g.resolution == GroupResolution::SequentialTail));
    }

    #[test]
    fn empty_inputs() {
        let r = run_protocol(&Sum, &[], &ExactState(9), &SpecConfig::default(), 0);
        assert!(r.outputs.is_empty());
        assert_eq!(r.final_state.0, 9);
    }

    #[test]
    fn single_input() {
        let r = run_protocol(&Sum, &[5], &ExactState(0), &SpecConfig::default(), 0);
        assert_eq!(r.outputs, vec![5]);
    }

    #[test]
    fn deterministic_across_calls() {
        let ins = inputs(17);
        let cfg = SpecConfig {
            group_size: 4,
            window: 2,
            ..SpecConfig::default()
        };
        let a = run_protocol(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 99);
        let b = run_protocol(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 99);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.trace.nodes.len(), b.trace.nodes.len());
        assert_eq!(a.report.validations, b.report.validations);
    }

    #[test]
    fn trace_dependences_are_backward() {
        let ins = inputs(16);
        let cfg = SpecConfig {
            group_size: 4,
            window: 2,
            ..SpecConfig::default()
        };
        let r = run_protocol(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 1);
        for i in 0..r.trace.nodes.len() {
            for &d in r.trace.deps(i) {
                assert!(d < i, "node {i} depends on later node {d}");
            }
        }
    }

    #[test]
    fn speculative_groups_do_not_depend_on_previous_group_chain() {
        // The whole point: group 1's first invocation depends only on its
        // auxiliary node, not on group 0's invocations.
        let ins = inputs(8);
        let cfg = SpecConfig {
            group_size: 4,
            window: 1,
            ..SpecConfig::default()
        };
        let r = run_protocol(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 1);
        let aux_idx = r
            .trace
            .nodes
            .iter()
            .position(|n| matches!(n.kind, TraceNodeKind::Auxiliary { group: 1 }))
            .expect("aux node for group 1");
        let first_g1 = r
            .trace
            .nodes
            .iter()
            .position(|n| {
                matches!(
                    n.kind,
                    TraceNodeKind::Invocation {
                        group: 1,
                        index: 4,
                        ..
                    }
                )
            })
            .expect("first invocation of group 1");
        assert_eq!(r.trace.deps(first_g1), [aux_idx]);
    }

    #[test]
    fn lint_flags_suspicious_configs() {
        let ok = SpecConfig {
            group_size: 8,
            window: 2,
            ..SpecConfig::default()
        };
        assert!(ok.lint().is_empty(), "{:?}", ok.lint());

        let zero_window = SpecConfig {
            window: 0,
            ..SpecConfig::default()
        };
        assert!(zero_window.lint().iter().any(|w| w.contains("window = 0")));

        let huge_window = SpecConfig {
            group_size: 2,
            window: 50,
            ..SpecConfig::default()
        };
        assert!(huge_window.lint().iter().any(|w| w.contains("much larger")));

        let tiny_group = SpecConfig {
            group_size: 1,
            ..SpecConfig::default()
        };
        assert!(tiny_group
            .lint()
            .iter()
            .any(|w| w.contains("disables speculation")));

        let no_rollback = SpecConfig {
            rollback: 0,
            ..SpecConfig::default()
        };
        assert!(no_rollback.lint().iter().any(|w| w.contains("rollback")));
    }

    #[test]
    fn segmented_run_restores_speculation_after_abort() {
        // NeverMatch aborts in every segment, but each new segment tries
        // speculation again (visible as one abort per segment).
        let ins = inputs(40);
        let cfg = SpecConfig {
            group_size: 5,
            window: 2,
            max_reexec: 1,
            ..SpecConfig::default()
        };
        let r = run_segmented(&SumNever, &ins, &NeverMatch(0), &cfg, 3, 20);
        assert!(r.report.aborted);
        // 40 outputs, exact fold, final state carried across segments.
        let expected: Vec<u64> = ins
            .iter()
            .scan(0u64, |s, &x| {
                *s += x;
                Some(*s)
            })
            .collect();
        assert_eq!(r.outputs, expected);
        assert_eq!(r.final_state.0, 820);
        // Group ranges tile the whole input range across segments.
        let mut covered = 0;
        for g in &r.report.groups {
            assert_eq!(g.start, covered);
            covered = g.end;
        }
        assert_eq!(covered, 40);
    }

    #[test]
    fn segmented_preserves_short_memory_semantics() {
        // `Last`'s state is the most recent input: any window >= 1
        // reproduces it, so committed speculation is exact and the final
        // state is the last input regardless of segmentation.
        let ins = inputs(24);
        let cfg = SpecConfig {
            group_size: 4,
            window: 1,
            ..SpecConfig::default()
        };
        let seg = run_segmented(&Last, &ins, &ExactState(0), &cfg, 9, 12);
        assert!(!seg.report.aborted);
        assert_eq!(seg.outputs, ins);
        assert_eq!(seg.final_state.0, 24);
        // Speculation happened in both segments.
        assert!(seg.report.committed_speculative_groups() >= 4);
    }

    #[test]
    fn report_display_is_informative() {
        let ins = inputs(16);
        let cfg = SpecConfig {
            group_size: 4,
            window: 2,
            ..SpecConfig::default()
        };
        let r = run_protocol(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 1);
        let text = format!("{}", r.report);
        assert!(text.contains("4 groups"));
        assert!(text.contains("committed"));
    }

    fn assert_work_partitions(total: f64, report: &SpecReport) {
        let sum = report.committed_original_work + report.committed_aux_work + report.squashed_work;
        assert!((total - sum).abs() < 1e-9, "total {total} != parts {sum}");
    }

    #[test]
    fn work_accounting_partitions_total_on_commit_path() {
        let ins = inputs(20);
        let cfg = SpecConfig {
            group_size: 5,
            window: 2,
            max_reexec: 2,
            ..SpecConfig::default()
        };
        let r = run_protocol(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 5);
        assert_work_partitions(r.trace.total_work(), &r.report);
    }

    #[test]
    fn work_accounting_partitions_total_on_abort_path() {
        let ins = inputs(20);
        let cfg = SpecConfig {
            group_size: 5,
            window: 2,
            max_reexec: 2,
            ..SpecConfig::default()
        };
        let r = run_protocol(&SumNever, &ins, &NeverMatch(0), &cfg, 5);
        assert_work_partitions(r.trace.total_work(), &r.report);
    }

    #[test]
    fn lint_messages_have_no_embedded_double_spaces() {
        // Regression: wrapped string literals used to embed runs of ~17
        // spaces ("the speculative                  state") in the
        // diagnostics surfaced to users.
        let suspicious = [
            SpecConfig {
                window: 0,
                ..SpecConfig::default()
            },
            SpecConfig {
                group_size: 2,
                window: 50,
                ..SpecConfig::default()
            },
            SpecConfig {
                group_size: 1,
                rollback: 0,
                validation_cost: -1.0,
                ..SpecConfig::default()
            },
        ];
        for cfg in suspicious {
            for w in cfg.lint() {
                assert!(!w.contains("  "), "double space in lint message: {w:?}");
            }
        }
    }

    #[test]
    fn segmented_trace_has_cross_segment_state_edges() {
        // Regression: each segment's entry nodes (group 0's first
        // invocation, every auxiliary run) used to have no dependences, so
        // `stats-sim` replay treated segments as fully independent and
        // overestimated parallelism. They must depend on the previous
        // segment's last committed node.
        let ins = inputs(24);
        let cfg = SpecConfig {
            group_size: 4,
            window: 1,
            ..SpecConfig::default()
        };
        let seg_len = 8;
        let r = run_segmented(&Last, &ins, &ExactState(0), &cfg, 9, seg_len);
        // The first segment's node count, from an identical standalone run
        // (segment 0 derives its seed as run_seed ^ 0 << 32 == run_seed).
        let first = run_protocol(&Last, &ins[..seg_len], &ExactState(0), &cfg, 9);
        let boundary = first.trace.nodes.len();
        assert!(boundary < r.trace.nodes.len(), "multiple segments expected");
        let zero_dep: Vec<usize> = (0..r.trace.nodes.len())
            .filter(|&i| r.trace.deps(i).is_empty())
            .collect();
        assert!(!zero_dep.is_empty(), "segment 0 still has entry nodes");
        assert!(
            zero_dep.iter().all(|&i| i < boundary),
            "zero-dep nodes after segment 0: {:?}",
            zero_dep
                .iter()
                .filter(|&&i| i >= boundary)
                .collect::<Vec<_>>()
        );
        // Edges still point strictly backward after the merge.
        for i in 0..r.trace.nodes.len() {
            for &d in r.trace.deps(i) {
                assert!(d < i, "node {i} depends on non-earlier {d}");
            }
        }
    }

    #[test]
    fn segmented_abort_chains_tail_into_next_segment() {
        // With NeverMatch every segment aborts; the next segment's entry
        // nodes must depend on the previous segment's last committed node,
        // which after an abort is the final sequential-tail invocation.
        let ins = inputs(20);
        let cfg = SpecConfig {
            group_size: 5,
            window: 2,
            max_reexec: 1,
            ..SpecConfig::default()
        };
        let r = run_segmented(&SumNever, &ins, &NeverMatch(0), &cfg, 3, 10);
        let entries = |t: &SpecTrace| (0..t.nodes.len()).filter(|&i| t.deps(i).is_empty()).count();
        let zero_dep = entries(&r.trace);
        // Only segment 0's own entry nodes may be dependence-free: the
        // whole second segment is chained behind segment 0's tail.
        let standalone = run_protocol(&SumNever, &ins[..10], &NeverMatch(0), &cfg, 3);
        let seg0_entries = entries(&standalone.trace);
        assert_eq!(zero_dep, seg0_entries, "segment 1 entries must be chained");
    }

    /// Keeps the last input as its state; a speculative state matches once
    /// a re-execution produced a second original, unless it is a multiple
    /// of three. Work is fractional, so sums depend on their order.
    #[derive(Clone, Debug)]
    struct Thirds(u64);
    impl SpecState for Thirds {
        fn matches_any(&self, originals: &[Self]) -> bool {
            !self.0.is_multiple_of(3) && originals.len() >= 2
        }
    }

    struct LastThirds;
    impl StateTransition for LastThirds {
        type Input = u64;
        type State = Thirds;
        type Output = u64;
        fn compute_output(&self, input: &u64, state: &mut Thirds, ctx: &mut InvocationCtx) -> u64 {
            ctx.charge(0.1 + *input as f64 * 0.37);
            state.0 = *input;
            state.0
        }
    }

    /// Records every segment's telemetry and never re-tunes.
    struct Recorder(Arc<Mutex<Vec<SegmentStats>>>);
    impl Retuner for Recorder {
        fn decide(&mut self, done: &SegmentStats) -> Option<TuneDecision> {
            self.0.lock().push(*done);
            None
        }
    }

    #[test]
    fn the_controller_reads_each_segments_share_of_the_report() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let options = RunOptions::default()
            .config(SpecConfig {
                group_size: 4,
                window: 1,
                max_reexec: 1,
                ..SpecConfig::default()
            })
            .seed(17)
            .segment(16)
            .retune(Recorder(Arc::clone(&seen)));
        let r = run_protocol_with_options(&LastThirds, &inputs(100), &Thirds(0), &options);
        let seen = seen.lock();
        assert_eq!(seen.len(), 7, "one record per segment");
        assert!(seen.iter().any(|s| s.aborted) && seen.iter().any(|s| !s.aborted));
        assert!(seen.iter().any(|s| s.reexecutions > 0));
        assert_eq!(
            seen.iter().map(|s| s.inputs).sum::<usize>(),
            r.outputs.len()
        );
        let sum = |f: fn(&SegmentStats) -> usize| seen.iter().map(f).sum::<usize>();
        assert_eq!(sum(|s| s.reexecutions), r.report.reexecutions);
        assert_eq!(sum(|s| s.validations), r.report.validations);
        assert_eq!(seen.iter().any(|s| s.aborted), r.report.aborted);
        let fold =
            |f: fn(&SegmentStats) -> f64| seen.iter().fold(0.0_f64, |acc, s| acc + f(s)).to_bits();
        let report = &r.report;
        assert_eq!(
            fold(|s| s.committed_original_work),
            report.committed_original_work.to_bits()
        );
        assert_eq!(
            fold(|s| s.committed_aux_work),
            report.committed_aux_work.to_bits()
        );
        assert_eq!(fold(|s| s.squashed_work), report.squashed_work.to_bits());
    }

    #[test]
    fn the_folded_work_is_add_work_over_the_laid_out_nodes() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let options = RunOptions::default()
            .config(SpecConfig {
                group_size: 4,
                window: 1,
                max_reexec: 1,
                ..SpecConfig::default()
            })
            .seed(17)
            .segment(16)
            .retune(Recorder(Arc::clone(&seen)));
        // `run_batch`'s segment loop, noting how many nodes each segment
        // lays out.
        let (inputs, mut sizes, mut lo) = (inputs(100), Vec::new(), 0);
        let ctx = RunCtx::new(&LastThirds, &options);
        let control = SegmentControl::new(&options);
        let r = run_segments(ctx, &Thirds(0), control, |ctx, start, len| {
            let range = lo..(lo + len).min(inputs.len());
            lo = range.end;
            let slice = &mut Slice(&inputs[range.clone()], range.start);
            let run = (!range.is_empty()).then(|| run_linear(ctx, slice, start, &Inline))?;
            sizes.push(run.layout.size(1).0);
            Some(run)
        });
        let seen = seen.lock();
        assert!(seen.len() > 1 && seen.iter().any(|s| s.aborted));
        assert!(seen.iter().any(|s| s.reexecutions > 0));
        assert_eq!(sizes.len(), seen.len());
        let trace: &SpecTrace = &r.trace;
        assert_eq!(sizes.iter().sum::<usize>(), trace.nodes.len());
        let bits = |w: [f64; 3]| w.map(f64::to_bits);
        let mut report = SpecReport::default();
        let mut from = 0;
        for (stats, len) in seen.iter().zip(sizes) {
            let share = report.add_work(&trace.nodes[from..from + len]);
            let folded = [
                stats.committed_original_work,
                stats.committed_aux_work,
                stats.squashed_work,
            ];
            assert_eq!(bits(folded), bits(share), "segment {}", stats.segment);
            from += len;
        }
        let work = |r: &SpecReport| {
            bits([
                r.committed_original_work,
                r.committed_aux_work,
                r.squashed_work,
            ])
        };
        assert_eq!(work(&r.report), work(&report));
    }

    /// State that matches only once two original final states exist — i.e.
    /// validation fails against attempt 0 and succeeds after the first
    /// re-execution, deterministically.
    #[derive(Clone, Debug)]
    struct MatchSecond(f64);
    impl SpecState for MatchSecond {
        fn matches_any(&self, originals: &[Self]) -> bool {
            originals.len() >= 2
        }
    }

    /// Nondeterministic short-memory producer: both the state and the
    /// output are a fresh PRVG draw, so a re-executed tail (attempt 1,
    /// different seeds) produces *different* outputs than attempt 0.
    struct NoisySecond;
    impl StateTransition for NoisySecond {
        type Input = u64;
        type State = MatchSecond;
        type Output = f64;
        fn compute_output(
            &self,
            _input: &u64,
            state: &mut MatchSecond,
            ctx: &mut InvocationCtx,
        ) -> f64 {
            ctx.charge(10.0);
            state.0 = ctx.uniform(0.0, 1.0);
            state.0
        }
    }

    #[test]
    fn matched_reexecution_commits_with_replaced_tail_outputs() {
        let ins = inputs(8);
        let rollback = 1usize;
        let cfg = SpecConfig {
            group_size: 4,
            window: 1,
            max_reexec: 2,
            rollback,
            ..SpecConfig::default()
        };
        let seed = 11u64;
        let r = run_protocol(&NoisySecond, &ins, &MatchSecond(0.0), &cfg, seed);

        // Every speculative group commits after exactly one re-execution.
        assert!(!r.report.aborted);
        assert_eq!(
            r.report.groups[1].resolution,
            GroupResolution::Committed { reexecutions: 1 }
        );
        assert_eq!(r.report.reexecutions, 1);

        // Replay group 0 by hand: attempt-0 chain up to the checkpoint,
        // then the tail at attempt 0 and attempt 1.
        let ctx = RunCtx {
            transition: &NoisySecond,
            config: &cfg,
            seed,
            sink: &NOOP,
            faults: None,
            retry: RetryPolicy::default(),
        };
        let mut chain = ctx.chain_ctx(false);
        let mut state = MatchSecond(0.0);
        for (i, input) in ins.iter().enumerate().take(3) {
            let _ = ctx.invoke(&mut chain, input, &mut state, 0, i, 0);
        }
        let checkpoint = state.clone();
        let mut s0 = checkpoint.clone();
        let (attempt0_out, _) = ctx.invoke(&mut chain, &ins[3], &mut s0, 0, 3, 0);
        let mut s1 = checkpoint.clone();
        let (attempt1_out, _) = ctx.invoke(&mut chain, &ins[3], &mut s1, 0, 3, 1);
        assert_ne!(attempt0_out, attempt1_out, "re-execution must differ");
        assert_eq!(
            r.outputs[3], attempt1_out,
            "tail output must be the matched attempt's, not attempt 0's"
        );

        // Attempt-0 tail nodes are squashed; attempt-1 nodes committed.
        let tail0 = r
            .trace
            .nodes
            .iter()
            .find(|n| {
                matches!(
                    n.kind,
                    TraceNodeKind::Invocation {
                        group: 0,
                        index: 3,
                        attempt: 0,
                        ..
                    }
                )
            })
            .expect("attempt-0 tail node");
        assert!(!tail0.committed, "attempt-0 tail must be squashed");
        let tail1 = r
            .trace
            .nodes
            .iter()
            .find(|n| {
                matches!(
                    n.kind,
                    TraceNodeKind::Invocation {
                        group: 0,
                        index: 3,
                        attempt: 1,
                        ..
                    }
                )
            })
            .expect("attempt-1 tail node");
        assert!(tail1.committed, "matched attempt must be committed");

        // Work accounting still partitions the total.
        assert_work_partitions(r.trace.total_work(), &r.report);
        assert!(r.report.squashed_work > 0.0, "attempt-0 tail was squashed");
    }

    #[test]
    fn observed_run_emits_commit_story() {
        use crate::obs::{EventKind, RecordingSink};
        let ins = inputs(16);
        let cfg = SpecConfig {
            group_size: 4,
            window: 2,
            ..SpecConfig::default()
        };
        let sink = Arc::new(RecordingSink::new());
        let r = run_with_sink(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 1, &sink);
        assert!(!r.report.aborted);
        let events = sink.events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(matches!(
            kinds.first(),
            Some(EventKind::RunStart {
                inputs: 16,
                groups: 4
            })
        ));
        assert!(matches!(kinds.last(), Some(EventKind::RunEnd)));
        let commits = kinds
            .iter()
            .filter(|k| matches!(k, EventKind::GroupCommit { .. }))
            .count();
        assert_eq!(commits, 3, "one commit per speculative group");
        let validations = kinds
            .iter()
            .filter(|k| matches!(k, EventKind::Validation { .. }))
            .count();
        assert_eq!(validations, r.report.validations);
        // Group spans pair up.
        for g in 0..4 {
            assert!(kinds.contains(&EventKind::GroupStart {
                group: g,
                start: g * 4,
                end: g * 4 + 4,
                speculative: g > 0,
            }));
            assert!(kinds.contains(&EventKind::GroupEnd { group: g }));
        }
        // Timestamps are monotone within the (sequential) reference run.
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    /// The reference runs a speculative group only when the resolver asks
    /// for it, once the group before it has settled: it holds one group's
    /// data at a time.
    #[test]
    fn the_reference_runs_a_group_once_the_one_before_settles() {
        use crate::obs::{EventKind, RecordingSink};
        let ins = inputs(30);
        let cfg = SpecConfig {
            group_size: 4,
            window: 2,
            ..SpecConfig::default()
        };
        let sink = Arc::new(RecordingSink::new());
        let r = run_with_sink(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 5, &sink);
        let groups = r.report.groups.len();
        assert_eq!(groups, 8);
        assert_eq!(r.report.committed_speculative_groups(), groups - 1);
        let kinds: Vec<EventKind> = sink.events().iter().map(|e| e.kind).collect();
        let at = |wanted: &dyn Fn(&EventKind) -> bool| {
            let found: Vec<usize> = (0..kinds.len()).filter(|&i| wanted(&kinds[i])).collect();
            assert_eq!(found.len(), 1, "the event is emitted once");
            found[0]
        };
        for k in 1..groups {
            let settled = match k {
                1 => at(&|e| *e == EventKind::GroupEnd { group: 0 }),
                _ => at(&|e| matches!(e, EventKind::GroupCommit { group, .. } if *group == k - 1)),
            };
            let start = at(&|e| matches!(e, EventKind::GroupStart { group, .. } if *group == k));
            let end = at(&|e| *e == EventKind::GroupEnd { group: k });
            assert!(
                settled < start && start < end,
                "group {k} ran at events {start}..{end}, before group {} settled at {settled}",
                k - 1
            );
        }
    }

    #[test]
    fn observed_abort_emits_tail_events() {
        use crate::obs::{EventKind, RecordingSink};
        let ins = inputs(20);
        let cfg = SpecConfig {
            group_size: 5,
            window: 2,
            max_reexec: 2,
            ..SpecConfig::default()
        };
        let sink = Arc::new(RecordingSink::new());
        let r = run_with_sink(&SumNever, &ins, &NeverMatch(0), &cfg, 3, &sink);
        assert!(r.report.aborted);
        let kinds: Vec<EventKind> = sink.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::GroupAbort { group: 1 }));
        assert!(kinds.contains(&EventKind::SequentialTailStart { index: 5 }));
        assert!(kinds.contains(&EventKind::SequentialTailEnd));
        let reexecs = kinds
            .iter()
            .filter(|k| matches!(k, EventKind::Reexecution { .. }))
            .count();
        assert_eq!(reexecs, r.report.reexecutions);
    }

    #[test]
    fn noop_sink_changes_nothing() {
        // `run_protocol` (no-op sink) and an observed run must be
        // byte-identical in outputs, trace, and report.
        use crate::obs::RecordingSink;
        let ins = inputs(17);
        let cfg = SpecConfig {
            group_size: 4,
            window: 2,
            ..SpecConfig::default()
        };
        let plain = run_protocol(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 99);
        let sink = Arc::new(RecordingSink::new());
        let observed = run_with_sink(&SumAlways, &ins, &AlwaysMatch(0), &cfg, 99, &sink);
        assert_eq!(plain.outputs, observed.outputs);
        assert_eq!(plain.trace.nodes.len(), observed.trace.nodes.len());
        assert_eq!(plain.report.validations, observed.report.validations);
        assert!(!sink.is_empty());
    }
}
