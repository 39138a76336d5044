//! Executing a [`SpecPlan`]: speculation over a dependency DAG of segments.
//!
//! Each plan node runs the ordinary linear protocol over its own input
//! range; the DAG layer decides what state each node *starts* from and when
//! its results *commit*:
//!
//! - **Roots** start from the plan's initial state, non-speculatively.
//! - With cross-node speculation enabled, a non-root node starts eagerly
//!   from a *plan-auxiliary* state: from the initial state, the auxiliary
//!   bindings consume the last [`SpecConfig::window`] inputs of each parent
//!   (ascending parent order) — the DAG generalization of the paper's
//!   auxiliary code, computable before any parent finishes.
//! - A node's **cut-set validation** fires once every parent has settled:
//!   the parents' committed final states are merged
//!   ([`StateTransition::merge_states`]) and the node's speculative start
//!   state is compared against the merge with [`SpecState::matches_any`].
//!   Match ⇒ the eager run commits as-is. Mismatch ⇒ the node **aborts**:
//!   its eager run is squashed, it re-executes from the real merged state,
//!   and — the cut-set rollback rule — every node in its *downstream cone*
//!   is squashed by rule (no validation; each re-executes from its own real
//!   merged state once its parents settle). Nodes outside the cone are
//!   untouched: sibling branches keep their committed results.
//! - With speculation disabled (plan- or config-level), non-root nodes
//!   simply wait for their parents — pure dataflow scheduling — which is
//!   how a linear chain reduces byte-identically to the legacy
//!   [`RunOptions::segment`](crate::RunOptions::segment) path.
//!
//! Determinism: node-internal seeds derive exactly as segmented seeds do
//! (`run_seed ^ node_id << 32`), plan-auxiliary and recovery runs use their
//! own salts, and [`PlanResolver`] always resolves nodes in the plan's
//! canonical topological order — so any scheduling of the eager runs (the
//! sequential reference, or the pool with any worker count) produces
//! bit-identical outputs, reports, and traces. `tests/dag_properties.rs`
//! property-tests this across random plans, seeds, and worker counts.

use crate::ctx::WorkMeter;
use crate::obs::EventKind;
use crate::plan::{PlanNodeId, SpecPlan};
use crate::protocol::{
    run_linear, segment_seed, Executor, Inline, ProtocolResult, RunCtx, Slice, SpecConfig,
    SpecReport, SpecTrace, TraceNodeKind,
};
use crate::resolver::LinearRun;
use crate::sdi::{SpecState, StateTransition};

/// Salt applied to the run seed for plan-level auxiliary chains, so the
/// cross-node auxiliary producer never replays the original code's
/// randomness or any node-internal auxiliary stream.
const PLAN_AUX_SALT: u64 = 0x0DA6_A0C1_7E57_A0ED;

/// Salt applied to a node's seed when it re-executes after a cut-set abort,
/// so the recovery run's PRVG streams differ from the squashed speculative
/// run's (the DAG analog of the linear tail's attempt bump).
const DAG_RERUN_SALT: u64 = 0x0DA6_2E2C_5EED_F00D;

/// The seed of `node`'s internal protocol run: the segmented path's
/// derivation with the node as the segment — the reason a linear
/// non-speculative plan is byte-identical to `RunOptions::segment`.
fn node_seed(run_seed: u64, node: PlanNodeId) -> u64 {
    segment_seed(run_seed, node as u64)
}

fn rerun_seed(run_seed: u64, node: PlanNodeId) -> u64 {
    node_seed(run_seed, node) ^ DAG_RERUN_SALT
}

/// Whether cross-node speculation applies to `node` under this plan and
/// configuration (plan flag AND [`SpecConfig::speculate`]; roots never
/// speculate — they start from the real initial state).
fn node_speculates(plan: &SpecPlan, config: &SpecConfig, node: PlanNodeId) -> bool {
    !plan.node(node).parents.is_empty() && plan.speculates() && config.speculate
}

/// Whether `node`'s first execution can be dispatched before its parents
/// settle: roots run from the plan's initial state, speculative nodes from
/// their plan-auxiliary state.
pub(crate) fn node_is_eager(plan: &SpecPlan, config: &SpecConfig, node: PlanNodeId) -> bool {
    plan.node(node).parents.is_empty() || node_speculates(plan, config, node)
}

/// One eagerly executable node run: the plan-auxiliary state it started
/// from (`None` for roots) and the inner run, not yet laid out. Pure data —
/// this is what pool jobs hand back to the [`PlanResolver`].
pub(crate) struct NodeRun<T: StateTransition> {
    aux_work: Option<WorkMeter>,
    spec_start: Option<T::State>,
    run: LinearRun<T>,
}

/// One inner protocol run over `node`'s inputs from `start`, inline on the
/// calling thread. Node-internal runs are fault-free in plan mode: injected
/// faults target plan nodes, not the groups inside them.
fn run_node_inner<T: StateTransition>(
    plan: &SpecPlan,
    node: PlanNodeId,
    ctx: RunCtx<'_, T>,
    inputs: &[T::Input],
    start: &T::State,
    seed: u64,
) -> LinearRun<T> {
    let base = plan.input_base(node);
    let inner = RunCtx {
        seed,
        faults: None,
        ..ctx
    };
    let slice = &mut Slice(&inputs[base..base + plan.node(node).inputs], base);
    run_linear(inner, slice, start, &Inline)
}

/// Execute `node`'s eager run. For roots: the inner protocol from the
/// plan's initial state. For speculative nodes: the plan-auxiliary chain
/// over each parent's input tail (ascending parent order, auxiliary
/// bindings, plan-aux seed space), then the inner protocol from the
/// resulting speculative state. Thread-safe and deterministic.
pub(crate) fn run_node_eager<T: StateTransition>(
    plan: &SpecPlan,
    node: PlanNodeId,
    ctx: RunCtx<'_, T>,
    inputs: &[T::Input],
    initial: &T::State,
) -> NodeRun<T> {
    let seed = node_seed(ctx.seed, node);
    if plan.node(node).parents.is_empty() {
        return NodeRun {
            aux_work: None,
            spec_start: None,
            run: run_node_inner(plan, node, ctx, inputs, initial, seed),
        };
    }
    let mut state = initial.clone();
    let mut aux_work = WorkMeter::default();
    let plan_aux = RunCtx {
        seed: ctx.seed ^ PLAN_AUX_SALT,
        ..ctx
    };
    let mut chain = plan_aux.chain_ctx(true);
    for &p in &plan.node(node).parents {
        let p_base = plan.input_base(p);
        let p_len = plan.node(p).inputs;
        let w = ctx.config.window.min(p_len);
        let lo = p_base + p_len - w;
        for (i, input) in (lo..p_base + p_len).zip(&inputs[lo..p_base + p_len]) {
            let (_out, m) = plan_aux.invoke(&mut chain, input, &mut state, node, i, 0);
            aux_work.total += m.total;
            aux_work.memory += m.memory;
        }
    }
    let run = run_node_inner(plan, node, ctx, inputs, &state, seed);
    NodeRun {
        aux_work: Some(aux_work),
        spec_start: Some(state),
        run,
    }
}

/// How one node resolved, with everything the canonical trace layout needs.
struct NodeOutcome<T: StateTransition> {
    /// Work of the plan-auxiliary chain (`Some` ⇔ the node was speculative).
    aux_work: Option<WorkMeter>,
    /// Whether a cut-set validation node exists for this node (false for
    /// roots, dataflow nodes, and cone-squashed nodes, which skip
    /// validation by rule).
    validated: bool,
    /// The first execution: the committed run, unless `rerun` is present —
    /// then this run was squashed.
    run: LinearRun<T>,
    /// The recovery execution from the real merged parent state, present
    /// exactly when the node aborted or was cone-squashed.
    rerun: Option<LinearRun<T>>,
}

impl<T: StateTransition> NodeOutcome<T> {
    /// A root or dataflow node: its only run commits, unvalidated.
    fn committed(run: LinearRun<T>) -> Self {
        NodeOutcome {
            aux_work: None,
            validated: false,
            run,
            rerun: None,
        }
    }
}

/// The DAG resolver: nodes are resolved — validated, committed, or aborted
/// with their downstream cone squashed — one by one in the plan's canonical
/// topological order, each once its parents have settled. That fixed
/// resolution order is what makes every schedule bit-identical.
pub(crate) struct PlanResolver<'a, T: StateTransition> {
    plan: &'a SpecPlan,
    /// Its fault plan is plan-level: forced mismatches target plan nodes
    /// (site = node id).
    ctx: RunCtx<'a, T>,
    inputs: &'a [T::Input],
    outcomes: Vec<Option<NodeOutcome<T>>>,
    /// For cone members: the aborted ancestor that doomed them.
    squash_root: Vec<Option<PlanNodeId>>,
    aborted: bool,
    dag_validations: usize,
}

impl<'a, T: StateTransition> PlanResolver<'a, T> {
    pub(crate) fn new(plan: &'a SpecPlan, ctx: RunCtx<'a, T>, inputs: &'a [T::Input]) -> Self {
        assert_eq!(
            plan.total_inputs(),
            inputs.len(),
            "RunOptions::plan expects exactly as many inputs as the plan's nodes hold in total"
        );
        let n = plan.len();
        PlanResolver {
            plan,
            ctx,
            inputs,
            outcomes: (0..n).map(|_| None).collect(),
            squash_root: vec![None; n],
            aborted: false,
            dag_validations: 0,
        }
    }

    /// The committed final state of a settled node (the recovery run's if
    /// the node was squashed).
    fn node_final(&self, node: PlanNodeId) -> &T::State {
        let oc = self.outcomes[node]
            .as_ref()
            .expect("parent settled before child resolution");
        match &oc.rerun {
            Some(r) => &r.final_state,
            None => &oc.run.final_state,
        }
    }

    /// Merge the committed finals of `node`'s parents (ascending id order).
    fn merged_parent_state(&self, node: PlanNodeId) -> T::State {
        let states: Vec<T::State> = self
            .plan
            .node(node)
            .parents
            .iter()
            .map(|&p| self.node_final(p).clone())
            .collect();
        self.ctx.transition.merge_states(&states)
    }

    /// An inner run of `node` on the resolving thread: a dataflow node, or
    /// a post-abort recovery run.
    fn run_inline(&self, node: PlanNodeId, start: &T::State, seed: u64) -> LinearRun<T> {
        run_node_inner(self.plan, node, self.ctx, self.inputs, start, seed)
    }

    /// Resolve `node`, the next one in canonical topological order. `eager`
    /// is its eager run; a dataflow node has none and runs here, from its
    /// parents' merged state.
    fn resolve(&mut self, node: PlanNodeId, eager: Option<NodeRun<T>>) {
        let outcome = match eager {
            // A root ran from the plan's initial state: nothing to validate.
            Some(NodeRun {
                spec_start: None,
                run,
                ..
            }) => NodeOutcome::committed(run),
            // Pure dataflow: the node waited for its parents and now runs
            // from the real merged state — the segmented semantics.
            None => {
                let merged = self.merged_parent_state(node);
                let seed = node_seed(self.ctx.seed, node);
                NodeOutcome::committed(self.run_inline(node, &merged, seed))
            }
            Some(NodeRun {
                aux_work,
                spec_start: Some(spec_start),
                run,
            }) => {
                let merged = self.merged_parent_state(node);
                let (validated, matched) = match self.squash_root[node] {
                    // Cut-set rollback rule: downstream of an abort, the
                    // eager run is squashed without validation and the node
                    // re-executes from its real merged state (speculation
                    // re-enabled inside — the recovery run starts from a
                    // *real* state, like a fresh segment after a segmented
                    // abort).
                    Some(root) => {
                        self.ctx.emit(EventKind::ConeSquash { node, root });
                        (false, false)
                    }
                    None => (true, self.validate(node, &spec_start, &merged)),
                };
                let rerun = (!matched)
                    .then(|| self.run_inline(node, &merged, rerun_seed(self.ctx.seed, node)));
                NodeOutcome {
                    aux_work,
                    validated,
                    run,
                    rerun,
                }
            }
        };
        self.outcomes[node] = Some(outcome);
    }

    /// Cut-set validation of a speculative node's start state against its
    /// parents' merged state. A mismatch aborts the node and dooms its
    /// downstream cone.
    fn validate(&mut self, node: PlanNodeId, spec_start: &T::State, merged: &T::State) -> bool {
        self.dag_validations += 1;
        let matched = spec_start.matches_any(std::slice::from_ref(merged))
            && !self.ctx.forced_mismatch(node, 0);
        self.ctx.emit(EventKind::NodeValidation { node, matched });
        if matched {
            self.ctx.emit(EventKind::NodeCommit { node });
        } else {
            self.aborted = true;
            self.ctx.emit(EventKind::NodeAbort { node });
            for c in self.plan.downstream_cone(node) {
                if self.squash_root[c].is_none() {
                    self.squash_root[c] = Some(node);
                }
            }
        }
        matched
    }

    /// Lay out the canonical trace (topological node order, fixed per-node
    /// shape: plan-aux, eager run, validation, recovery run), each run
    /// straight into the plan's trace and report, and assemble the outputs.
    fn finish(mut self) -> ProtocolResult<T> {
        let val_work = WorkMeter {
            total: self.ctx.config.validation_cost,
            memory: 0.0,
        };
        let mut trace = SpecTrace::default();
        let mut report = SpecReport {
            validations: self.dag_validations,
            aborted: self.aborted,
            ..SpecReport::default()
        };
        let mut outputs: Vec<Option<T::Output>> = Vec::new();
        outputs.resize_with(self.plan.total_inputs(), || None);
        let mut last_committed: Vec<Option<usize>> = vec![None; self.plan.len()];
        let mut finals: Vec<Option<T::State>> = (0..self.plan.len()).map(|_| None).collect();

        for &node in self.plan.topo_order() {
            let NodeOutcome {
                aux_work,
                validated,
                run,
                rerun,
            } = self.outcomes[node].take().expect("settled node outcome");
            let base = self.plan.input_base(node);
            let gates: Vec<usize> = self
                .plan
                .node(node)
                .parents
                .iter()
                .filter_map(|&p| last_committed[p])
                .collect();
            let region_start = trace.nodes.len();
            let squashed = rerun.is_some();

            let mut aux_idx = None;
            if let Some(w) = aux_work {
                let idx = trace.push(TraceNodeKind::Auxiliary { group: node }, w, &[]);
                trace.nodes[idx].committed = !squashed;
                aux_idx = Some(idx);
            }
            // The eager/dataflow run: its entry nodes start from the
            // plan-auxiliary state (speculative) or the merged parent
            // states (real).
            let entry = match aux_idx {
                Some(a) => vec![a],
                None => gates.clone(),
            };
            let committed_at = (!squashed).then_some(base);
            let (run_outputs, run_final) =
                run.lay_out(&mut trace, &mut report, &entry, committed_at);

            let mut val_idx = None;
            if validated {
                let mut deps = vec![aux_idx.expect("validated nodes are speculative")];
                deps.extend_from_slice(&gates);
                val_idx = Some(trace.push(
                    TraceNodeKind::Validation {
                        group: node,
                        attempt: 0,
                    },
                    val_work,
                    &deps,
                ));
            }

            let (node_outputs, node_final) = match rerun {
                Some(r) => {
                    let mut entry: Vec<usize> = val_idx.into_iter().collect();
                    entry.extend_from_slice(&gates);
                    r.lay_out(&mut trace, &mut report, &entry, Some(base))
                }
                None => (run_outputs, run_final),
            };

            for (off, out) in node_outputs.into_iter().enumerate() {
                outputs[base + off] = Some(out);
            }
            finals[node] = Some(node_final);
            last_committed[node] = trace.last_committed(region_start);
            // Per-node work sub-sums, added node by node, as segments add.
            report.add_work(&trace.nodes[region_start..]);
        }

        // The plan's final state: the sink nodes' committed finals, merged
        // in ascending node-id order.
        let sink_finals: Vec<T::State> = (0..self.plan.len())
            .filter(|&i| self.plan.children(i).is_empty())
            .map(|i| finals[i].take().expect("sink node settled"))
            .collect();
        let final_state = self.ctx.transition.merge_states(&sink_finals);
        let outputs: Vec<T::Output> = outputs
            .into_iter()
            .map(|o| o.expect("every plan input has a committed output"))
            .collect();
        ProtocolResult {
            outputs,
            final_state,
            report,
            trace: trace.into(),
        }
    }
}

/// Execute a plan: `exec` runs the eager nodes (roots and speculative
/// non-roots) and hands their runs back in canonical topological order;
/// the [`PlanResolver`] resolves every node in that order, running dataflow
/// nodes and post-abort recovery runs on this thread. [`Inline`] — each
/// eager node run right before it is resolved — is the sequential
/// reference that every parallel schedule must reproduce bit-for-bit.
pub(crate) fn run_plan<T: StateTransition, E: Executor<T>>(
    ctx: RunCtx<'_, T>,
    plan: &SpecPlan,
    inputs: &[T::Input],
    initial: &T::State,
    exec: &E,
) -> ProtocolResult<T> {
    let mut resolver = PlanResolver::new(plan, ctx, inputs);
    let eager: Vec<PlanNodeId> = plan
        .topo_order()
        .iter()
        .copied()
        .filter(|&n| node_is_eager(plan, ctx.config, n))
        .collect();
    let mut runs = exec.nodes(ctx, plan, inputs, initial, &eager);
    for &node in plan.topo_order() {
        let run = node_is_eager(plan, ctx.config, node)
            .then(|| runs.next().expect("one run per eager node"));
        resolver.resolve(node, run);
    }
    resolver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::InvocationCtx;
    use crate::faults::{FaultKind, FaultPlan, FaultRule};
    use crate::obs::{EventSink, RecordingSink, NOOP};
    use crate::sdi::ExactState;
    use std::sync::Arc;

    /// Short-memory transition: state is the last input seen, and the fan-in
    /// merge keeps the *last* parent's state — so a plan-auxiliary chain
    /// with window >= 1 reproduces the merged state exactly and every
    /// cut-set validation matches.
    struct LastMerge;
    impl StateTransition for LastMerge {
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
        fn merge_states(&self, parents: &[Self::State]) -> Self::State {
            *parents.last().expect("at least one parent")
        }
    }

    fn diamond() -> SpecPlan {
        let mut b = SpecPlan::builder();
        let src = b.node(6);
        let l = b.node(6);
        let r = b.node(6);
        let j = b.node(6);
        b.edge(src, l).edge(src, r).edge(l, j).edge(r, j);
        b.build().unwrap()
    }

    fn run_diamond(
        faults: Option<&FaultPlan>,
        sink: &dyn EventSink,
        seed: u64,
    ) -> ProtocolResult<LastMerge> {
        let plan = diamond();
        let inputs: Vec<u64> = (1..=plan.total_inputs() as u64).collect();
        let config = SpecConfig {
            group_size: 3,
            window: 1,
            ..SpecConfig::default()
        };
        let ctx = RunCtx {
            transition: &LastMerge,
            config: &config,
            seed,
            sink,
            faults,
            retry: Default::default(),
        };
        run_plan(ctx, &plan, &inputs, &ExactState(0), &Inline)
    }

    #[test]
    fn short_memory_diamond_commits_every_node() {
        let sink = Arc::new(RecordingSink::new());
        let r = run_diamond(None, &*sink, 7);
        assert!(!r.report.aborted);
        let inputs: Vec<u64> = (1..=24).collect();
        assert_eq!(r.outputs, inputs, "Last echoes its input");
        assert_eq!(r.final_state.0, 24);
        let kinds: Vec<EventKind> = sink.events().iter().map(|e| e.kind).collect();
        for node in 1..=3 {
            assert!(kinds.contains(&EventKind::NodeValidation {
                node,
                matched: true
            }));
            assert!(kinds.contains(&EventKind::NodeCommit { node }));
        }
        assert!(!kinds
            .iter()
            .any(|k| matches!(k, EventKind::NodeAbort { .. })));
    }

    #[test]
    fn forced_abort_squashes_only_the_downstream_cone() {
        // Find a fault seed that targets node 1 (left branch) but not node
        // 2 (right branch); node 3 is in node 1's cone and skips
        // validation by rule.
        let fseed = (0..200)
            .map(|s| FaultPlan::new(s).validation_mismatch(FaultRule::permanent(0.5)))
            .find(|p| {
                p.fires(FaultKind::ValidationMismatch, 7, 1, 0)
                    && !p.fires(FaultKind::ValidationMismatch, 7, 2, 0)
            })
            .expect("a selective fault seed exists");
        let clean_sink = Arc::new(RecordingSink::new());
        let clean = run_diamond(None, &*clean_sink, 7);
        let sink = Arc::new(RecordingSink::new());
        let faulted = run_diamond(Some(&fseed), &*sink, 7);

        assert!(faulted.report.aborted);
        let kinds: Vec<EventKind> = sink.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::NodeAbort { node: 1 }));
        assert!(kinds.contains(&EventKind::NodeCommit { node: 2 }));
        assert!(kinds.contains(&EventKind::ConeSquash { node: 3, root: 1 }));
        // The sibling branch's committed outputs are untouched by the abort.
        assert_eq!(faulted.outputs[12..18], clean.outputs[12..18]);
        // Every output is still the correct value (Last echoes inputs even
        // through recovery runs).
        assert_eq!(faulted.outputs, clean.outputs);
        // Squashed work appeared: the left branch and the join's eager runs.
        assert!(faulted.report.squashed_work > clean.report.squashed_work);
    }

    #[test]
    fn trace_edges_point_backward_and_work_partitions() {
        for faults in [
            None,
            Some(FaultPlan::new(3).validation_mismatch(FaultRule::permanent(1.0))),
        ] {
            let r = run_diamond(faults.as_ref(), &NOOP, 11);
            for i in 0..r.trace.nodes.len() {
                for &d in r.trace.deps(i) {
                    assert!(d < i, "node {i} depends on non-earlier {d}");
                }
            }
            let parts = r.report.committed_original_work
                + r.report.committed_aux_work
                + r.report.squashed_work;
            assert!((r.trace.total_work() - parts).abs() < 1e-9);
        }
    }

    #[test]
    fn sequential_run_is_deterministic() {
        let a = run_diamond(None, &NOOP, 42);
        let b = run_diamond(None, &NOOP, 42);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.report, b.report);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn eagerness_follows_speculation_flags() {
        let plan = diamond();
        let on = SpecConfig::default();
        let off = SpecConfig::sequential();
        assert!(node_is_eager(&plan, &on, 0), "roots are always eager");
        assert!(node_is_eager(&plan, &on, 3));
        assert!(node_is_eager(&plan, &off, 0));
        assert!(!node_is_eager(&plan, &off, 3), "dataflow nodes wait");
        let linear = SpecPlan::linear(&[4, 4]);
        assert!(
            !node_is_eager(&linear, &on, 1),
            "linear() disables DAG speculation"
        );
    }
}
