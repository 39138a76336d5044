//! Incremental resolution of speculative groups.
//!
//! [`Resolver`] is the single implementation of the protocol's validation /
//! re-execution / commit / abort logic (paper §3.1), shared by the batch
//! entry points — which ingest every [`GroupData`] in one loop — and the
//! streaming [`Session`](crate::Session), which ingests groups as the pool
//! finishes them while later inputs are still arriving.
//!
//! Outputs, states, counters, and events are settled *eagerly* as each group
//! is ingested; the [`SpecTrace`] is laid out only at [`Resolver::finish`],
//! in the exact node order of the historical batch implementation (all
//! attempt-0 chains first, then per-group validation/re-execution nodes,
//! then the post-abort sequential tail). That deferred layout is what makes
//! a streamed run bit-identical — outputs, report, *and* trace — to the
//! batch run over the same inputs and seed.

use crate::ctx::WorkMeter;
use crate::obs::EventKind;
use crate::protocol::{
    GroupData, GroupRecord, GroupResolution, ProtocolResult, RunCtx, SpecReport, SpecTrace,
    TraceNodeKind,
};
use crate::sdi::{SpecState, StateTransition};

/// One ingested group: what its run handed over (outputs moved into the
/// run's), how much of its attempt-0 chain is squashed, and — once it is
/// validated — its validation history.
struct Ingested<T: StateTransition> {
    data: GroupData<T>,
    /// Trailing invocations squashed by a matched re-execution.
    tail_squashed: usize,
    /// Entire chain (including the auxiliary run) squashed by an abort.
    squashed_all: bool,
    val: Option<ValRec>,
}

/// One re-execution of the previous group's tail.
struct AttemptRec {
    works: Vec<WorkMeter>,
    matched: bool,
}

/// Validation history of one speculative group.
struct ValRec {
    attempts: Vec<AttemptRec>,
    matched: bool,
}

/// Incremental validation/commit/abort engine. Groups are ingested strictly
/// in order; each ingest resolves as many groups as possible.
pub(crate) struct Resolver<'a, T: StateTransition> {
    /// Its fault plan forces validation mismatches when set.
    ctx: RunCtx<'a, T>,
    /// Effective group size, for the post-abort `group_of` arithmetic.
    g: usize,
    groups: Vec<Ingested<T>>,
    records: Vec<GroupRecord>,
    /// The committed outputs so far, extended in group order: a matched
    /// re-execution overwrites its own tail, an abort truncates at the
    /// restart, and the sequential tail appends.
    outputs: Vec<T::Output>,
    /// Number of groups fully settled (validated, or squashed by an abort).
    settled: usize,
    aborted: bool,
    abort_restart: usize,
    tail_next: usize,
    tail_state: Option<T::State>,
    tail_works: Vec<WorkMeter>,
    reexecutions: usize,
    validations: usize,
}

impl<'a, T: StateTransition> Resolver<'a, T> {
    /// A resolver for a run in groups of `g` inputs, sized for the `known`
    /// inputs it already holds (all of a batch run's, none of a stream's).
    pub(crate) fn new(ctx: RunCtx<'a, T>, g: usize, known: usize) -> Self {
        let groups = known.div_ceil(g);
        Resolver {
            ctx,
            g,
            groups: Vec::with_capacity(groups),
            records: Vec::with_capacity(groups),
            outputs: Vec::with_capacity(known),
            settled: 0,
            aborted: false,
            abort_restart: 0,
            tail_next: 0,
            tail_state: None,
            tail_works: Vec::new(),
            reexecutions: 0,
            validations: 0,
        }
    }

    /// Number of groups whose fate (commit / abort / tail) is decided. A
    /// stream's intake admits new inputs only a bounded number of groups
    /// past this point.
    pub(crate) fn settled_groups(&self) -> usize {
        self.settled
    }

    /// Hand the next group's execution data to the resolver (groups must
    /// arrive in order `0, 1, 2, ...`) and resolve as far as possible.
    pub(crate) fn ingest(&mut self, mut data: GroupData<T>, inputs: &[T::Input]) {
        let spec = data.spec;
        debug_assert_eq!(
            spec.k,
            self.groups.len(),
            "groups must be ingested in order"
        );
        // After an abort the group was doomed before its data arrived: the
        // sequential tail already owns its input range, so its outputs are
        // dropped and its whole chain is squashed work — exactly how the
        // batch path treats every group from the abort point on.
        let doomed = self.aborted;
        let outputs = std::mem::take(&mut data.outputs);
        if !doomed {
            debug_assert_eq!(
                self.outputs.len(),
                spec.start,
                "outputs extend at the group"
            );
            self.outputs.extend(outputs);
        }
        self.records.push(GroupRecord {
            start: spec.start,
            end: spec.end,
            resolution: match spec.k {
                _ if doomed => GroupResolution::SequentialTail,
                0 => GroupResolution::NonSpeculative,
                _ => GroupResolution::Committed { reexecutions: 0 }, // provisional
            },
        });
        self.groups.push(Ingested {
            data,
            tail_squashed: 0,
            squashed_all: doomed,
            val: None,
        });
        while !self.aborted && self.settled < self.groups.len() {
            let k = self.settled;
            if k > 0 {
                self.validate(k, inputs);
            }
            self.settled = k + 1;
        }
        if self.aborted {
            self.settled = self.groups.len();
        }
    }

    /// Validate speculative group `k` against the (growing) set of original
    /// final states of group `k - 1`, re-executing the previous group's
    /// tail up to the budget; on exhaustion, abort into the sequential tail.
    fn validate(&mut self, k: usize, inputs: &[T::Input]) {
        let config = self.ctx.config;
        let spec = self.groups[k]
            .data
            .spec_start
            .take()
            .expect("speculative group has a start state");
        let prev = self.groups[k - 1].data.spec;
        let (prev_start, prev_end) = (prev.start, prev.end);
        let rollback = config.rollback.clamp(1, prev_end - prev_start);

        // Attempt 0 — the common, all-matched path — compares against the
        // previous final state in place; `originals` (previous final state
        // first, then re-executed candidates, the slice shape `matches_any`
        // documents) is only materialized if a re-execution is needed.
        let mut originals: Vec<T::State> = Vec::new();
        self.validations += 1;
        let mut matched = spec
            .matches_any(std::slice::from_ref(&self.groups[k - 1].data.final_state))
            && !self.ctx.forced_mismatch(k, 0);
        let mut attempts = 0usize;
        self.ctx.emit(EventKind::Validation {
            group: k,
            attempt: 0,
            matched,
        });

        let mut rec = ValRec {
            attempts: Vec::new(),
            matched: false,
        };
        while !matched && attempts < config.max_reexec {
            if originals.is_empty() {
                originals.push(self.groups[k - 1].data.final_state.clone());
            }
            attempts += 1;
            self.reexecutions += 1;
            self.ctx.emit(EventKind::Reexecution {
                group: k - 1,
                attempt: attempts,
            });
            // Re-execute the previous group's last `rollback` inputs from
            // the checkpoint, with fresh PRVG streams.
            let mut state = self.groups[k - 1]
                .data
                .checkpoint
                .clone()
                .expect("a group followed by another has its checkpoint");
            let re_start = prev_end - rollback;
            let mut tail_outputs: Vec<T::Output> = Vec::with_capacity(rollback);
            let mut tail_works: Vec<WorkMeter> = Vec::with_capacity(rollback);
            for (off, input) in inputs[re_start..prev_end].iter().enumerate() {
                let i = re_start + off;
                let (out, m) = self
                    .ctx
                    .invoke(input, &mut state, k - 1, i, attempts, false);
                tail_outputs.push(out);
                tail_works.push(m);
            }
            originals.push(state);
            self.validations += 1;
            matched = spec.matches_any(&originals) && !self.ctx.forced_mismatch(k, attempts);
            self.ctx.emit(EventKind::Validation {
                group: k,
                attempt: attempts,
                matched,
            });
            if matched {
                // The matching original execution becomes official: its
                // tail outputs replace attempt 0's, whose nodes are
                // squashed at trace layout.
                for (slot, out) in self.outputs[re_start..prev_end]
                    .iter_mut()
                    .zip(tail_outputs)
                {
                    *slot = out;
                }
                self.groups[k - 1].tail_squashed = rollback;
            }
            rec.attempts.push(AttemptRec {
                works: tail_works,
                matched,
            });
        }
        rec.matched = matched;
        self.groups[k].val = Some(rec);

        if matched {
            self.records[k].resolution = GroupResolution::Committed {
                reexecutions: attempts,
            };
            self.ctx.emit(EventKind::GroupCommit {
                group: k,
                reexecutions: attempts,
            });
        } else {
            self.aborted = true;
            self.ctx.emit(EventKind::GroupAbort { group: k });
            // Squash every group from k on (outputs and work).
            for c in self.groups.iter_mut().skip(k) {
                c.squashed_all = true;
            }
            let restart = self.groups[k].data.spec.start;
            self.outputs.truncate(restart);
            for r in self.records.iter_mut().skip(k) {
                r.resolution = GroupResolution::SequentialTail;
            }
            self.ctx
                .emit(EventKind::SequentialTailStart { index: restart });
            self.abort_restart = restart;
            self.tail_next = restart;
            self.tail_state = Some(self.groups[k - 1].data.final_state.clone());
            self.process_tail(inputs);
        }
    }

    /// After an abort, process every not-yet-consumed input sequentially
    /// (no speculation). The streaming engine calls this again whenever
    /// more inputs arrive; the batch path's inputs are all present at the
    /// time of the abort.
    pub(crate) fn process_tail(&mut self, inputs: &[T::Input]) {
        if !self.aborted {
            return;
        }
        let mut state = self.tail_state.take().expect("tail state present");
        while self.tail_next < inputs.len() {
            let i = self.tail_next;
            // A fresh (re-)execution: distinct attempt number so its PRVG
            // streams differ from the squashed speculative run.
            let attempt = self.ctx.config.max_reexec + 1;
            let (out, m) = self
                .ctx
                .invoke(&inputs[i], &mut state, i / self.g, i, attempt, false);
            debug_assert_eq!(self.outputs.len(), i, "the tail appends at its next input");
            self.outputs.push(out);
            self.tail_works.push(m);
            self.tail_next += 1;
        }
        self.tail_state = Some(state);
    }

    /// How many nodes [`finish`](Resolver::finish) lays out: every group's
    /// attempt-0 chain, each validation with the tails it re-executed, and
    /// the sequential tail.
    fn trace_nodes(&self) -> usize {
        let mut nodes = self.tail_works.len();
        for c in &self.groups {
            nodes += usize::from(c.data.aux_work.is_some()) + c.data.works.len();
            if let Some(rec) = &c.val {
                nodes += 1 + rec
                    .attempts
                    .iter()
                    .map(|a| a.works.len() + 1)
                    .sum::<usize>();
            }
        }
        nodes
    }

    /// Lay out the canonical trace, settle accounting, and return the run's
    /// result. `initial` is only used for the degenerate zero-input run.
    pub(crate) fn finish(mut self, initial: &T::State) -> ProtocolResult<T> {
        debug_assert_eq!(
            self.settled,
            self.groups.len(),
            "unresolved groups at finish"
        );
        let config = self.ctx.config;
        let mut trace = SpecTrace::default();
        // Every node but a first validation has at most one dependence,
        // and a first validation at most three.
        let nodes = self.trace_nodes();
        trace.reserve(nodes, nodes + 2 * self.groups.len());

        // Phase-1 layout: every group's attempt-0 chain (auxiliary node,
        // then the chained invocations), in group order.
        let mut chain_last: Vec<usize> = Vec::with_capacity(self.groups.len());
        let mut chain_aux: Vec<Option<usize>> = Vec::with_capacity(self.groups.len());
        for (k, c) in self.groups.iter().enumerate() {
            let mut aux = None;
            if let Some(aux_work) = c.data.aux_work {
                let idx = trace.push(TraceNodeKind::Auxiliary { group: k }, aux_work, &[]);
                trace.nodes[idx].committed = !c.squashed_all;
                aux = Some(idx);
            }
            let len = c.data.works.len();
            let mut prev = aux;
            for (off, &m) in c.data.works.iter().enumerate() {
                let node = trace.push(
                    TraceNodeKind::Invocation {
                        group: k,
                        index: c.data.spec.start + off,
                        attempt: 0,
                        sequential_tail: false,
                    },
                    m,
                    prev.as_slice(),
                );
                trace.nodes[node].committed = !(c.squashed_all || off >= len - c.tail_squashed);
                prev = Some(node);
            }
            chain_last.push(prev.unwrap_or(usize::MAX));
            chain_aux.push(aux);
        }

        // Phase-2 layout: per speculative group, the validation chain and
        // re-executed tails; after an abort, the sequential tail.
        let mut prev_commit_gate: Option<usize> = None;
        let val_work = WorkMeter {
            total: config.validation_cost,
            memory: 0.0,
        };
        for k in 1..self.groups.len() {
            let Some(rec) = &self.groups[k].val else {
                break;
            };
            let prev = self.groups[k - 1].data.spec;
            let (prev_start, prev_end) = (prev.start, prev.end);
            let rollback = config.rollback.clamp(1, prev_end - prev_start);
            let re_start = prev_end - rollback;
            let aux = chain_aux[k].expect("speculative group has an auxiliary node");
            let val_deps = [chain_last[k - 1], aux, prev_commit_gate.unwrap_or(0)];
            let mut val_node = trace.push(
                TraceNodeKind::Validation {
                    group: k,
                    attempt: 0,
                },
                val_work,
                &val_deps[..2 + usize::from(prev_commit_gate.is_some())],
            );
            for (a, attempt_rec) in rec.attempts.iter().enumerate() {
                let attempt = a + 1;
                let mut prev = val_node;
                for (off, &m) in attempt_rec.works.iter().enumerate() {
                    let node = trace.push(
                        TraceNodeKind::Invocation {
                            group: k - 1,
                            index: re_start + off,
                            attempt,
                            sequential_tail: false,
                        },
                        m,
                        &[prev],
                    );
                    trace.nodes[node].committed = attempt_rec.matched;
                    prev = node;
                }
                val_node = trace.push(
                    TraceNodeKind::Validation { group: k, attempt },
                    val_work,
                    &[prev],
                );
            }
            if rec.matched {
                prev_commit_gate = Some(val_node);
            } else {
                let mut prev = val_node;
                for (off, &m) in self.tail_works.iter().enumerate() {
                    let i = self.abort_restart + off;
                    prev = trace.push(
                        TraceNodeKind::Invocation {
                            group: i / self.g,
                            index: i,
                            attempt: config.max_reexec + 1,
                            sequential_tail: true,
                        },
                        m,
                        &[prev],
                    );
                }
                break;
            }
        }
        debug_assert_eq!(trace.nodes.len(), nodes, "the trace has the nodes reserved");
        if self.aborted {
            self.ctx.emit(EventKind::SequentialTailEnd);
        }

        debug_assert_eq!(
            self.outputs.len(),
            self.records.last().map_or(0, |r| r.end),
            "every input has a committed output"
        );

        // Phase-3 accounting.
        let mut report = SpecReport {
            groups: self.records,
            reexecutions: self.reexecutions,
            validations: self.validations,
            aborted: self.aborted,
            ..SpecReport::default()
        };
        report.add_work(&trace.nodes);

        let final_state = if self.aborted {
            self.tail_state.take().expect("tail state present")
        } else {
            // `self` is consumed: the last final state moves out instead of
            // cloning (states can be arbitrarily large workload states).
            match self.groups.pop() {
                Some(last) => last.data.final_state,
                None => initial.clone(),
            }
        };
        ProtocolResult {
            outputs: self.outputs,
            final_state,
            report,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::RetryPolicy;
    use crate::ctx::InvocationCtx;
    use crate::obs::NOOP;
    use crate::protocol::{run_protocol, SpecConfig};
    use crate::sdi::SpecState;
    use crate::{RunOptions, Session};

    /// The input after which no speculative state ever matches.
    const POISON: u64 = 11;

    /// The last input. A speculative state matches once three originals
    /// exist — attempt 0 and two re-executions — unless it is [`POISON`].
    #[derive(Clone, Debug)]
    struct Third(u64);
    impl SpecState for Third {
        fn matches_any(&self, originals: &[Self]) -> bool {
            self.0 != POISON && originals.len() >= 3
        }
    }

    /// Keeps the last input as its state and outputs a fresh draw past
    /// it, so every attempt at an input outputs something else.
    struct Draw;
    impl StateTransition for Draw {
        type Input = u64;
        type State = Third;
        type Output = f64;
        fn compute_output(&self, input: &u64, state: &mut Third, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(1.0);
            state.0 = *input;
            *input as f64 + ctx.uniform(0.0, 1.0)
        }
    }

    #[test]
    fn outputs_settle_in_place_through_a_matched_reexecution_and_an_abort() {
        let inputs: Vec<u64> = (0..16).collect();
        let config = SpecConfig {
            group_size: 4,
            window: 1,
            max_reexec: 2,
            rollback: 2,
            ..SpecConfig::default()
        };
        let seed = 5;
        // Groups 1 and 2 match on the second re-execution of the previous
        // group's last two inputs; group 3 starts after the poison, aborts
        // after two, and inputs 12..16 run in the sequential tail.
        #[rustfmt::skip]
        let coords: [(usize, usize); 16] = [
            (0, 0), (0, 0), (0, 2), (0, 2),
            (1, 0), (1, 0), (1, 2), (1, 2),
            (2, 0), (2, 0), (2, 0), (2, 0),
            (3, 3), (3, 3), (3, 3), (3, 3),
        ];
        let ctx = RunCtx {
            transition: &Draw,
            config: &config,
            seed,
            sink: &NOOP,
            faults: None,
            retry: RetryPolicy::default(),
        };
        let expected: Vec<f64> = inputs
            .iter()
            .zip(coords)
            .enumerate()
            .map(|(i, (input, (group, attempt)))| {
                ctx.invoke(input, &mut Third(0), group, i, attempt, false).0
            })
            .collect();
        let attempt0 = ctx.invoke(&inputs[2], &mut Third(0), 0, 2, 0, false).0;
        assert_ne!(expected[2], attempt0, "the re-executed output differs");

        let batch = run_protocol(&Draw, &inputs, &Third(0), &config, seed);
        let resolutions: Vec<GroupResolution> =
            batch.report.groups.iter().map(|g| g.resolution).collect();
        assert_eq!(
            resolutions,
            [
                GroupResolution::NonSpeculative,
                GroupResolution::Committed { reexecutions: 2 },
                GroupResolution::Committed { reexecutions: 2 },
                GroupResolution::SequentialTail,
            ]
        );
        assert_eq!(batch.report.reexecutions, 6);
        assert_eq!(batch.outputs, expected);

        // A stream fed one input at a time settles the same outputs: its
        // tail appends as the inputs arrive.
        let options = RunOptions::default().config(config.clone()).seed(seed);
        let session = Session::new(Third(0), Draw, options);
        for &input in &inputs {
            session.push(input);
        }
        assert_eq!(session.finish().outputs, expected);
    }
}
