//! Incremental resolution of speculative groups.
//!
//! [`Resolver`] is the single implementation of the protocol's validation /
//! re-execution / commit / abort logic (paper §3.1), shared by the batch
//! entry points — which ingest every [`GroupData`] in one loop — and the
//! streaming [`Session`](crate::Session), which ingests groups as the pool
//! finishes them while later inputs are still arriving.
//!
//! Outputs, states, counters, and events are settled *eagerly* as each group
//! is ingested; the task graph is described only once the run is over, in
//! the exact node order of the historical batch implementation (all
//! attempt-0 chains first, then per-group validation/re-execution nodes,
//! then the post-abort sequential tail). That deferred order is what makes
//! a streamed run bit-identical — outputs, report, *and* trace — to the
//! batch run over the same inputs and seed.
//!
//! [`Resolver::finish`] hands back a [`LinearRun`], which borrows nothing
//! of the run's context. Settling it where it lands leaves a [`RunLayout`]:
//! the run's records, walked in that one order (`RunLayout::walk`) by two
//! consumers. The segment loop folds the report's work from the walk and
//! keeps the layout for the result's [`LazyTrace`](crate::LazyTrace),
//! which pushes the nodes onto a [`SpecTrace`] only when someone reads it;
//! a plan pushes each node run's nodes onto its trace as it resolves.
//!
//! What a run retains until its layout is only what that layout and the
//! result need. Each [`GroupData`] is taken apart at ingest: its outputs
//! move into the run's, its chain's work meters into one run-wide
//! [`Blocks`] store, and the rest into a small per-group record (auxiliary
//! work, squash marks, validation history) beside the group's
//! [`GroupRecord`]; its two emptied buffers go back to the caller, and the
//! next group run on the coordinator fills them.
//! The only states held are the last settled group's final state and
//! checkpoint — what validating the next group reads — or, after an
//! abort, the sequential tail's. The store's blocks never reallocate, so
//! a stream of unknown length leaves no abandoned doubling buffers behind
//! for the allocator to return to the kernel and the next stream to
//! fault back in.

use crate::ctx::{InvocationCtx, WorkMeter};
use crate::obs::EventKind;
use crate::protocol::{
    add_node_work, GroupBuffers, GroupData, GroupRecord, GroupResolution, RunCtx, SpecReport,
    SpecTrace, TraceNodeKind,
};
use crate::sdi::{SpecState, StateTransition};

/// Entries per block of a [`Blocks`] store whose length was not known when
/// it was made: 64 KiB of work meters, below glibc's default 128 KiB mmap
/// threshold, so blocks come from the coordinator's heap and go back to it.
const BLOCK: usize = 4096;

/// How many inputs a run that holds `known` inputs and takes at most
/// `limit` is sized for: a stream segment short enough for one block is
/// sized from its length, so its run starts no [`BLOCK`]-entry block and
/// grows nothing by doubling; any other run from what it holds.
pub(crate) fn expected_inputs(known: usize, limit: usize) -> usize {
    match limit <= BLOCK {
        true => limit,
        false => known,
    }
}

/// An append-only list kept in fixed-capacity blocks: an append fills the
/// last block and starts new ones as it needs them, and never moves or
/// reallocates an entry already stored.
struct Blocks<E> {
    blocks: Vec<Vec<E>>,
}

impl<E: Copy> Blocks<E> {
    /// A store for `known` entries in one block of exactly that many; with
    /// none known, blocks of [`BLOCK`] entries start as appends need them.
    fn new(known: usize) -> Self {
        let first = (known > 0).then(|| Vec::with_capacity(known));
        Blocks {
            blocks: first.into_iter().collect(),
        }
    }

    /// Append `entries`, filling the last block before starting another.
    fn extend(&mut self, mut entries: &[E]) {
        while !entries.is_empty() {
            let block = match self.blocks.last_mut() {
                Some(block) if block.len() < block.capacity() => block,
                _ => {
                    self.blocks.push(Vec::with_capacity(BLOCK));
                    self.blocks.last_mut().expect("a block was just started")
                }
            };
            let (now, rest) = entries.split_at(entries.len().min(block.capacity() - block.len()));
            block.extend_from_slice(now);
            entries = rest;
        }
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Every entry, in append order.
    fn iter(&self) -> impl Iterator<Item = &E> {
        self.blocks.iter().flatten()
    }
}

/// What [`Resolver::finish`] lays out of one ingested group besides its
/// attempt-0 chain (whose work meters are in the run's store, and whose
/// input range is its [`GroupRecord`]).
struct Chain {
    aux_work: Option<WorkMeter>,
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

/// The states of the last settled group: what validating the next one
/// compares against and re-executes from.
struct Settled<S> {
    final_state: S,
    /// `None` only for a group 0 that is its run's only group.
    checkpoint: Option<S>,
}

/// Incremental validation/commit/abort engine. Groups are ingested strictly
/// in order; each ingest settles its group.
pub(crate) struct Resolver<'a, T: StateTransition> {
    /// Its fault plan forces validation mismatches when set.
    ctx: RunCtx<'a, T>,
    /// The context of the original code's invocations the resolver runs
    /// itself: re-executions and the sequential tail.
    rerun: InvocationCtx,
    /// Effective group size, for the post-abort `group_of` arithmetic.
    g: usize,
    chains: Vec<Chain>,
    /// Every ingested group's attempt-0 chain work meters, in input order.
    chain_works: Blocks<WorkMeter>,
    records: Vec<GroupRecord>,
    /// The committed outputs so far, extended in group order: a matched
    /// re-execution overwrites its own tail, an abort truncates at the
    /// restart, and the sequential tail appends.
    outputs: Vec<T::Output>,
    /// The last settled group's states; `None` before group 0 and after an
    /// abort.
    last: Option<Settled<T::State>>,
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
    /// inputs it expects (see [`expected_inputs`]).
    pub(crate) fn new(ctx: RunCtx<'a, T>, g: usize, known: usize) -> Self {
        let groups = known.div_ceil(g);
        Resolver {
            ctx,
            rerun: ctx.chain_ctx(false),
            g,
            chains: Vec::with_capacity(groups),
            chain_works: Blocks::new(known),
            records: Vec::with_capacity(groups),
            outputs: Vec::with_capacity(known),
            last: None,
            aborted: false,
            abort_restart: 0,
            tail_next: 0,
            tail_state: None,
            tail_works: Vec::new(),
            reexecutions: 0,
            validations: 0,
        }
    }

    /// Number of groups whose fate (commit / abort / tail) is decided: every
    /// ingested one. A stream's intake admits new inputs only a bounded
    /// number of groups past this point.
    pub(crate) fn settled_groups(&self) -> usize {
        self.chains.len()
    }

    /// Hand the next group's execution data to the resolver (groups must
    /// arrive in order `0, 1, 2, ...`) and settle it. Returns the group's
    /// output and work-meter buffers, emptied, for the next group to fill.
    pub(crate) fn ingest(&mut self, data: GroupData<T>, inputs: &[T::Input]) -> GroupBuffers<T> {
        let GroupData {
            spec,
            aux_work,
            spec_start,
            checkpoint,
            final_state,
            mut outputs,
            mut works,
        } = data;
        debug_assert_eq!(
            spec.k,
            self.chains.len(),
            "groups must be ingested in order"
        );
        // After an abort the group was doomed before its data arrived: the
        // sequential tail already owns its input range, so its outputs are
        // dropped and its whole chain is squashed work — exactly how the
        // batch path treats every group from the abort point on.
        let doomed = self.aborted;
        if doomed {
            outputs.clear();
        } else {
            debug_assert_eq!(
                self.outputs.len(),
                spec.start,
                "outputs extend at the group"
            );
            self.outputs.append(&mut outputs);
        }
        self.chain_works.extend(&works);
        works.clear();
        let spare = GroupBuffers { outputs, works };
        self.records.push(GroupRecord {
            start: spec.start,
            end: spec.end,
            resolution: match spec.k {
                _ if doomed => GroupResolution::SequentialTail,
                0 => GroupResolution::NonSpeculative,
                _ => GroupResolution::Committed { reexecutions: 0 }, // provisional
            },
        });
        self.chains.push(Chain {
            aux_work,
            tail_squashed: 0,
            squashed_all: doomed,
            val: None,
        });
        if doomed {
            return spare;
        }
        if spec.k > 0 {
            let spec_start = spec_start.expect("speculative group has a start state");
            self.validate(spec.k, &spec_start, inputs);
        }
        if !self.aborted {
            self.last = Some(Settled {
                final_state,
                checkpoint,
            });
        }
        spare
    }

    /// Validate speculative group `k`, which started from `spec`, against
    /// the (growing) set of original final states of group `k - 1`,
    /// re-executing the previous group's tail up to the budget; on
    /// exhaustion, abort into the sequential tail.
    fn validate(&mut self, k: usize, spec: &T::State, inputs: &[T::Input]) {
        let (ctx, config) = (self.ctx, self.ctx.config);
        let prev = self.records[k - 1];
        let (prev_start, prev_end) = (prev.start, prev.end);
        let rollback = config.rollback.clamp(1, prev_end - prev_start);
        let last = self
            .last
            .as_ref()
            .expect("a speculative group follows a settled one");

        // Attempt 0 — the common, all-matched path — compares against the
        // previous final state in place; `originals` (previous final state
        // first, then re-executed candidates, the slice shape `matches_any`
        // documents) is only materialized if a re-execution is needed.
        let mut originals: Vec<T::State> = Vec::new();
        self.validations += 1;
        let mut matched =
            spec.matches_any(std::slice::from_ref(&last.final_state)) && !ctx.forced_mismatch(k, 0);
        let mut attempts = 0usize;
        ctx.emit(EventKind::Validation {
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
                originals.push(last.final_state.clone());
            }
            attempts += 1;
            self.reexecutions += 1;
            ctx.emit(EventKind::Reexecution {
                group: k - 1,
                attempt: attempts,
            });
            // Re-execute the previous group's last `rollback` inputs from
            // the checkpoint, with fresh PRVG streams.
            let mut state = last
                .checkpoint
                .clone()
                .expect("a group followed by another has its checkpoint");
            let re_start = prev_end - rollback;
            let mut tail_outputs: Vec<T::Output> = Vec::with_capacity(rollback);
            let mut tail_works: Vec<WorkMeter> = Vec::with_capacity(rollback);
            for (off, input) in inputs[re_start..prev_end].iter().enumerate() {
                let i = re_start + off;
                let (out, m) = ctx.invoke(&mut self.rerun, input, &mut state, k - 1, i, attempts);
                tail_outputs.push(out);
                tail_works.push(m);
            }
            originals.push(state);
            self.validations += 1;
            matched = spec.matches_any(&originals) && !ctx.forced_mismatch(k, attempts);
            ctx.emit(EventKind::Validation {
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
                self.chains[k - 1].tail_squashed = rollback;
            }
            rec.attempts.push(AttemptRec {
                works: tail_works,
                matched,
            });
        }
        rec.matched = matched;
        self.chains[k].val = Some(rec);

        if matched {
            self.records[k].resolution = GroupResolution::Committed {
                reexecutions: attempts,
            };
            ctx.emit(EventKind::GroupCommit {
                group: k,
                reexecutions: attempts,
            });
        } else {
            self.aborted = true;
            ctx.emit(EventKind::GroupAbort { group: k });
            // Squash group k (outputs and work); later groups arrive doomed.
            self.chains[k].squashed_all = true;
            let restart = self.records[k].start;
            self.outputs.truncate(restart);
            self.records[k].resolution = GroupResolution::SequentialTail;
            ctx.emit(EventKind::SequentialTailStart { index: restart });
            self.abort_restart = restart;
            self.tail_next = restart;
            self.tail_state = self.last.take().map(|last| last.final_state);
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
            let (out, m) = self.ctx.invoke(
                &mut self.rerun,
                &inputs[i],
                &mut state,
                i / self.g,
                i,
                attempt,
            );
            debug_assert_eq!(self.outputs.len(), i, "the tail appends at its next input");
            self.outputs.push(out);
            self.tail_works.push(m);
            self.tail_next += 1;
        }
        self.tail_state = Some(state);
    }

    /// Close the run, which settled at least one group: the sequential
    /// tail, if any, ends here, and the final state moves out (states can
    /// be arbitrarily large workload states, so it is not cloned). What is
    /// left borrows nothing of the run's context: the [`LinearRun`] its
    /// caller settles where the run lands.
    pub(crate) fn finish(self) -> LinearRun<T> {
        let config = self.ctx.config;
        debug_assert_eq!(
            self.outputs.len(),
            self.records.last().map_or(0, |r| r.end),
            "every input has a committed output"
        );
        if self.aborted {
            self.ctx.emit(EventKind::SequentialTailEnd);
        }
        // After an abort only the tail holds a state.
        let settled = self.last.map(|last| last.final_state);
        let final_state = self.tail_state.or(settled).expect("a run has a group");
        LinearRun {
            outputs: self.outputs,
            final_state,
            aborted: self.aborted,
            reexecutions: self.reexecutions,
            validations: self.validations,
            layout: RunLayout {
                records: self.records,
                chains: self.chains,
                chain_works: self.chain_works,
                tail_works: self.tail_works,
                abort_restart: self.abort_restart,
                g: self.g,
                rollback: config.rollback,
                max_reexec: config.max_reexec,
                validation_cost: config.validation_cost,
                squashed: false,
            },
        }
    }
}

/// One finished linear run — a segment, or one run of a plan node — before
/// it is settled where it lands: the committed outputs and final state, the
/// counters, and its [`RunLayout`].
pub(crate) struct LinearRun<T: StateTransition> {
    pub(crate) outputs: Vec<T::Output>,
    pub(crate) final_state: T::State,
    pub(crate) aborted: bool,
    pub(crate) reexecutions: usize,
    pub(crate) validations: usize,
    pub(crate) layout: RunLayout,
}

impl<T: StateTransition> LinearRun<T> {
    /// Add the run's counters to `report`, and its groups shifted to input
    /// `base`; a squashed run (`base` is `None`) has every node squashed,
    /// and its groups are not the report's. Returns the outputs, the final
    /// state and what the run's task graph is laid out from.
    pub(crate) fn settle(
        self,
        report: &mut SpecReport,
        base: Option<usize>,
    ) -> (Vec<T::Output>, T::State, RunLayout) {
        let mut layout = self.layout;
        report.reexecutions += self.reexecutions;
        report.validations += self.validations;
        report.aborted |= self.aborted;
        match base {
            Some(base) => report
                .groups
                .extend(layout.records.iter().map(|g| GroupRecord {
                    start: g.start + base,
                    end: g.end + base,
                    ..*g
                })),
            None => layout.squashed = true,
        }
        (self.outputs, self.final_state, layout)
    }

    /// [`settle`](LinearRun::settle) the run and lay it out at once, at the
    /// end of `trace`, its entry nodes depending on `entry`: a plan node's
    /// run. Work is left for the caller to add with the rest of its trace
    /// region ([`SpecReport::add_work`]).
    pub(crate) fn lay_out(
        self,
        trace: &mut SpecTrace,
        report: &mut SpecReport,
        entry: &[usize],
        base: Option<usize>,
    ) -> (Vec<T::Output>, T::State) {
        let (outputs, final_state, layout) = self.settle(report, base);
        layout.lay_out(trace, entry);
        (outputs, final_state)
    }
}

/// What one linear run's task graph is drawn from: the records its
/// resolver settled — the groups, each group's attempt-0 chain and
/// validation history, the chains' work meters, the sequential tail's —
/// with the configuration scalars the layout reads. It is a fraction of
/// the size of the nodes it stands for: a work meter per input and a small
/// record per group, where the trace holds a node and an edge per input.
pub(crate) struct RunLayout {
    records: Vec<GroupRecord>,
    chains: Vec<Chain>,
    chain_works: Blocks<WorkMeter>,
    tail_works: Vec<WorkMeter>,
    abort_restart: usize,
    g: usize,
    rollback: usize,
    max_reexec: usize,
    validation_cost: f64,
    /// Whether the run was squashed as a whole (a plan node's eager run
    /// that a recovery run replaced): then no node of it committed.
    squashed: bool,
}

impl RunLayout {
    /// How many nodes the run has, and the most dependence edges they have
    /// behind entry nodes of `entry` dependences each: every node but an
    /// entry node or a first validation has at most one dependence, and a
    /// first validation at most three.
    pub(crate) fn size(&self, entry: usize) -> (usize, usize) {
        let mut nodes = self.tail_works.len() + self.chain_works.len();
        for c in &self.chains {
            nodes += usize::from(c.aux_work.is_some());
            if let Some(rec) = &c.val {
                nodes += 1 + rec
                    .attempts
                    .iter()
                    .map(|a| a.works.len() + 1)
                    .sum::<usize>();
            }
        }
        let entries = self.chains.len() + 1;
        (nodes, nodes + 2 * self.chains.len() + entries * entry)
    }

    /// The run's nodes in the canonical order — all attempt-0 chains
    /// (auxiliary node, then the chained invocations) in group order, then
    /// per speculative group its validations and re-executed tails, then
    /// the sequential tail — each handed to `visit` with its kind, work,
    /// whether it committed, and its dependences, as indices of a trace in
    /// which the run's first node is node `from`. The entry nodes — every
    /// auxiliary run and group 0's first invocation — depend on `entry`.
    /// This walk is the only statement of the order: the layout pushes what
    /// it visits, and the report's work is folded from it.
    fn walk(
        &self,
        from: usize,
        entry: &[usize],
        mut visit: impl FnMut(TraceNodeKind, WorkMeter, bool, &[usize]),
    ) {
        let keep = !self.squashed;
        // The index the next visited node has.
        let mut at = from;

        // Phase 1: every group's attempt-0 chain, its work meters read off
        // the store as the chains go by.
        let mut works = self.chain_works.iter();
        for (k, (c, r)) in self.chains.iter().zip(&self.records).enumerate() {
            let mut prev = None;
            if let Some(aux_work) = c.aux_work {
                let kind = TraceNodeKind::Auxiliary { group: k };
                visit(kind, aux_work, keep && !c.squashed_all, entry);
                prev = Some(at);
                at += 1;
            }
            let len = r.end - r.start;
            for (off, &m) in works.by_ref().take(len).enumerate() {
                let kind = TraceNodeKind::Invocation {
                    group: k,
                    index: r.start + off,
                    attempt: 0,
                    sequential_tail: false,
                };
                let committed = !(c.squashed_all || off >= len - c.tail_squashed);
                let deps = prev.as_ref().map_or(entry, std::slice::from_ref);
                visit(kind, m, keep && committed, deps);
                prev = Some(at);
                at += 1;
            }
        }
        debug_assert!(works.next().is_none(), "every chain work meter is walked");

        // Phase 2: per speculative group, the validation chain and
        // re-executed tails; after an abort, the sequential tail. A cursor
        // re-walks phase 1's positions: where each chain starts, its
        // auxiliary node and its last node.
        let val_work = WorkMeter {
            total: self.validation_cost,
            memory: 0.0,
        };
        let mut chain_at = from;
        let mut prev_last = usize::MAX;
        let mut prev_commit_gate: Option<usize> = None;
        for (k, (c, r)) in self.chains.iter().zip(&self.records).enumerate() {
            let span = usize::from(c.aux_work.is_some()) + (r.end - r.start);
            let aux = c.aux_work.map(|_| chain_at);
            let last = (span > 0).then(|| chain_at + span - 1);
            chain_at += span;
            if k == 0 {
                prev_last = last.unwrap_or(usize::MAX);
                continue;
            }
            let Some(rec) = &c.val else {
                break;
            };
            let prev = self.records[k - 1];
            let rollback = self.rollback.clamp(1, prev.end - prev.start);
            let re_start = prev.end - rollback;
            let aux = aux.expect("speculative group has an auxiliary node");
            let val_deps = [prev_last, aux, prev_commit_gate.unwrap_or(0)];
            let kind = TraceNodeKind::Validation {
                group: k,
                attempt: 0,
            };
            let deps = &val_deps[..2 + usize::from(prev_commit_gate.is_some())];
            visit(kind, val_work, keep, deps);
            let mut val_node = at;
            at += 1;
            for (a, attempt_rec) in rec.attempts.iter().enumerate() {
                let attempt = a + 1;
                let mut prev = val_node;
                for (off, &m) in attempt_rec.works.iter().enumerate() {
                    let kind = TraceNodeKind::Invocation {
                        group: k - 1,
                        index: re_start + off,
                        attempt,
                        sequential_tail: false,
                    };
                    visit(kind, m, keep && attempt_rec.matched, &[prev]);
                    prev = at;
                    at += 1;
                }
                let kind = TraceNodeKind::Validation { group: k, attempt };
                visit(kind, val_work, keep, &[prev]);
                val_node = at;
                at += 1;
            }
            if rec.matched {
                prev_commit_gate = Some(val_node);
            } else {
                let mut prev = val_node;
                for (off, &m) in self.tail_works.iter().enumerate() {
                    let i = self.abort_restart + off;
                    let kind = TraceNodeKind::Invocation {
                        group: i / self.g,
                        index: i,
                        attempt: self.max_reexec + 1,
                        sequential_tail: true,
                    };
                    visit(kind, m, keep, &[prev]);
                    prev = at;
                    at += 1;
                }
                break;
            }
            prev_last = last.unwrap_or(usize::MAX);
        }
    }

    /// The run's committed original, committed auxiliary and squashed work,
    /// each summed in node order: what [`SpecReport::add_work`] adds over
    /// the run's laid-out nodes, bit for bit, with no node made.
    pub(crate) fn work_sums(&self) -> [f64; 3] {
        let mut sums = [0.0_f64; 3];
        self.walk(0, &[], |kind, work, committed, _| {
            add_node_work(&mut sums, &kind, committed, work.total);
        });
        sums
    }

    /// Lay the run out at the end of `trace`, its entry nodes depending on
    /// `entry`.
    pub(crate) fn lay_out(&self, trace: &mut SpecTrace, entry: &[usize]) {
        let from = trace.nodes.len();
        let (nodes, edges) = self.size(entry.len());
        trace.reserve(nodes, edges);
        self.walk(from, entry, |kind, work, committed, deps| {
            let node = trace.push(kind, work, deps);
            trace.nodes[node].committed = committed;
        });
        debug_assert_eq!(
            trace.nodes.len() - from,
            nodes,
            "the run has the nodes reserved"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::RetryPolicy;
    use crate::obs::NOOP;
    use crate::protocol::{execute_group, run_protocol, GroupSpec, SpecConfig};
    use crate::sdi::SpecState;
    use crate::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use crate::sync::Arc;
    use crate::{RunOptions, Session, ThreadPool};

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
        let mut chain = ctx.chain_ctx(false);
        let expected: Vec<f64> = inputs
            .iter()
            .zip(coords)
            .enumerate()
            .map(|(i, (input, (group, attempt)))| {
                ctx.invoke(&mut chain, input, &mut Third(0), group, i, attempt)
                    .0
            })
            .collect();
        let attempt0 = ctx.invoke(&mut chain, &inputs[2], &mut Third(0), 0, 2, 0).0;
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

    #[test]
    fn an_append_past_a_full_block_moves_no_earlier_block() {
        let mut store = Blocks::new(0);
        let mut seen: Vec<(*const usize, usize)> = Vec::new();
        // Appends of 7 entries straddle both block boundaries.
        let entries: Vec<usize> = (0..2 * BLOCK + 5).collect();
        for (i, chunk) in entries.chunks(7).enumerate() {
            store.extend(chunk);
            let blocks: Vec<_> = store
                .blocks
                .iter()
                .map(|b| (b.as_ptr(), b.capacity()))
                .collect();
            assert_eq!(blocks[..seen.len()], seen, "after append {i}");
            seen = blocks;
        }
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|&(_, capacity)| capacity == BLOCK));
        assert_eq!(store.len(), entries.len());
        assert!(store.iter().eq(&entries));
    }

    #[test]
    fn a_batch_run_keeps_one_block_of_exactly_its_inputs() {
        let (n, g) = (100, 8);
        let inputs: Vec<u64> = (0..n as u64).collect();
        let config = SpecConfig {
            group_size: g,
            window: 1,
            ..SpecConfig::default()
        };
        let ctx = RunCtx {
            transition: &Draw,
            config: &config,
            seed: 5,
            sink: &NOOP,
            faults: None,
            retry: RetryPolicy::default(),
        };
        let mut resolver = Resolver::new(ctx, g, n);
        for (k, start) in (0..n).step_by(g).enumerate() {
            let spec = GroupSpec {
                k,
                start,
                end: (start + g).min(n),
            };
            let data = execute_group(ctx, &inputs, 0, &Third(3), spec, GroupBuffers::default());
            resolver.ingest(data, &inputs);
        }
        let blocks = &resolver.chain_works.blocks;
        assert_eq!(blocks.len(), 1);
        assert_eq!((blocks[0].len(), blocks[0].capacity()), (n, n));
    }

    /// `Counted` instances alive now, and the most alive at once.
    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// A tolerant state that counts its live instances.
    #[derive(Debug)]
    struct Counted(f64);
    impl Counted {
        fn new(level: f64) -> Self {
            let live = LIVE.fetch_add(1, SeqCst) + 1;
            PEAK.fetch_max(live, SeqCst);
            Counted(level)
        }
    }
    impl Clone for Counted {
        fn clone(&self) -> Self {
            Counted::new(self.0)
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, SeqCst);
        }
    }
    impl SpecState for Counted {
        fn matches_any(&self, originals: &[Self]) -> bool {
            originals.iter().any(|o| (o.0 - self.0).abs() < 0.5)
        }
    }

    /// The state is the input plus noise: window-1 auxiliary code matches.
    struct Level;
    impl StateTransition for Level {
        type Input = u64;
        type State = Counted;
        type Output = f64;
        fn compute_output(&self, input: &u64, state: &mut Counted, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(1.0);
            state.0 = *input as f64 + ctx.uniform(-0.1, 0.1);
            state.0
        }
    }

    #[test]
    fn a_stream_holds_states_for_its_admission_window_not_its_groups() {
        let (groups, g, max_inflight) = (1_200, 8, 4);
        let options = RunOptions::default()
            .config(SpecConfig {
                group_size: g,
                window: 1,
                ..SpecConfig::default()
            })
            .seed(5)
            .max_inflight_groups(max_inflight)
            .pool(Arc::new(ThreadPool::new(2)));
        let inputs: Vec<u64> = (0..(groups * g) as u64).collect();
        let session = Session::new(Counted::new(0.0), Level, options);
        for chunk in inputs.chunks(256) {
            session.push_batch(chunk.iter().copied());
        }
        let result = session.finish();
        assert_eq!(result.report.committed_speculative_groups(), groups - 1);
        // Each group admitted but not yet settled holds its start, its
        // checkpoint and its final state (plus its auxiliary run's state
        // while it runs); the resolver, the run's group 0 and the session
        // hold a few more.
        let bound = 4 * (max_inflight + 1) + 8;
        let peak = PEAK.load(SeqCst);
        assert!(
            peak <= bound,
            "{peak} live states, at most {bound} expected"
        );
    }
}
