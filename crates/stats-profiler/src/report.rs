//! A recorded run drawn through the simulator: the `stats-report` summary
//! and its Chrome trace.
//!
//! Both read one schedule: the run's trace expanded one task per trace node
//! (`expand_trace(trace, tlp, 1)`, so task *i* is node *i*) and scheduled by
//! `stats-sim`, the scheduler every figure's time and energy come from.

use stats_core::{
    Event, EventKind, GroupResolution, SpecReport, SpecTrace, TraceNode, TraceNodeKind,
};
use stats_sim::export::{chrome_trace_with, Phase, WallEvent};
use stats_sim::{simulate, Platform, Schedule, TaskGraph, TaskId};
use stats_workloads::OriginalTlp;

use crate::graph::expand_trace;

/// A run's trace scheduled on a simulated platform, one task per trace
/// node, each task labelled with its node.
#[derive(Debug, Clone)]
pub struct SimulatedRun {
    /// The trace as a task graph: task *i* is trace node *i*.
    pub graph: TaskGraph,
    /// The graph's schedule.
    pub schedule: Schedule,
}

impl SimulatedRun {
    /// Schedule `trace` on `threads` threads of the platform every profile
    /// run defaults to, [`Platform::haswell_r730`].
    pub fn new(trace: &SpecTrace, tlp: &OriginalTlp, threads: usize) -> Self {
        let mut graph = expand_trace(trace, tlp, 1);
        for (i, node) in trace.nodes.iter().enumerate() {
            graph.set_label(TaskId(i), node_label(node));
        }
        let schedule = simulate(&graph, &Platform::haswell_r730(), threads);
        SimulatedRun { graph, schedule }
    }

    /// The run as one Chrome trace-event document: process 1 is the
    /// simulated schedule (simulated µs, one row per hardware thread),
    /// process 2 the run's recorded `events` (real µs, one row per OS
    /// thread; runs, groups and the sequential tail are spans).
    pub fn chrome_trace(&self, events: &[Event]) -> String {
        let wall: Vec<WallEvent> = events
            .iter()
            .map(|ev| WallEvent {
                name: ev.kind.label(),
                phase: phase(&ev.kind),
                ts_us: ev.at.as_secs_f64() * 1.0e6,
                thread: ev.thread,
            })
            .collect();
        chrome_trace_with(&self.graph, &self.schedule, &wall)
    }

    /// A human-readable summary of the run `report`/`trace` describe: a
    /// per-group timeline (input range, simulated span, resolution,
    /// committed and squashed work), the work-split table behind Table 1's
    /// columns, and the critical path against the simulated makespan.
    pub fn render_summary(&self, report: &SpecReport, trace: &SpecTrace) -> String {
        let n_groups = report.groups.len();
        let mut committed = vec![0.0_f64; n_groups];
        let mut squashed = vec![0.0_f64; n_groups];
        let mut span: Vec<Option<(f64, f64)>> = vec![None; n_groups];
        for (node, p) in trace.nodes.iter().zip(self.schedule.placements()) {
            let g = match node.kind {
                TraceNodeKind::Auxiliary { group }
                | TraceNodeKind::Invocation { group, .. }
                | TraceNodeKind::Validation { group, .. } => group,
            };
            if g >= n_groups {
                continue;
            }
            if node.committed {
                committed[g] += node.work.total;
            } else {
                squashed[g] += node.work.total;
            }
            span[g] = Some(match span[g] {
                Some((s, f)) => (s.min(p.start), f.max(p.finish)),
                None => (p.start, p.finish),
            });
        }

        let threads = self.schedule.placement().threads();
        let mut out = format!("per-group timeline (work units, {threads} simulated threads):\n");
        out.push_str(
            "  group  inputs        span                resolution            committed  squashed\n",
        );
        for (g, rec) in report.groups.iter().enumerate() {
            let res = match rec.resolution {
                GroupResolution::NonSpeculative => "non-speculative".to_string(),
                GroupResolution::Committed { reexecutions: 0 } => "committed".to_string(),
                GroupResolution::Committed { reexecutions } => {
                    format!("committed (+{reexecutions} reexec)")
                }
                GroupResolution::Aborted => "aborted".to_string(),
                GroupResolution::SequentialTail => "sequential tail".to_string(),
            };
            let (s, f) = span[g].unwrap_or((0.0, 0.0));
            out.push_str(&format!(
                "  {g:>5}  [{:>4},{:>4})  [{:>8},{:>8})  {res:<21} {:>9}  {:>8}\n",
                rec.start,
                rec.end,
                fmt_units(s),
                fmt_units(f),
                fmt_units(committed[g]),
                fmt_units(squashed[g]),
            ));
        }

        let total = trace.total_work();
        let pct = |x: f64| if total > 0.0 { 100.0 * x / total } else { 0.0 };
        out.push_str("\nwork split:\n");
        out.push_str(&format!(
            "  committed original  {:>10}  ({:.1}%)\n",
            fmt_units(report.committed_original_work),
            pct(report.committed_original_work)
        ));
        out.push_str(&format!(
            "  committed auxiliary {:>10}  ({:.1}%, extra {:.1}% of original)\n",
            fmt_units(report.committed_aux_work),
            pct(report.committed_aux_work),
            100.0 * report.extra_committed_fraction()
        ));
        out.push_str(&format!(
            "  squashed            {:>10}  ({:.1}%)\n",
            fmt_units(report.squashed_work),
            pct(report.squashed_work)
        ));
        out.push_str(&format!("  total               {:>10}\n", fmt_units(total)));
        let makespan = self.schedule.makespan_work();
        let speedup = if makespan > 0.0 {
            total / makespan
        } else {
            1.0
        };
        out.push_str(&format!(
            "\ncritical path: {} units ({} nodes); makespan {} units on {threads} \
             simulated threads, speedup {:.2}x\n",
            fmt_units(self.graph.critical_path()),
            trace.nodes.len(),
            fmt_units(makespan),
            speedup,
        ));
        out
    }
}

/// How the trace draws an event: runs, groups and the sequential tail are
/// spans, everything else an instant.
fn phase(kind: &EventKind) -> Phase {
    match kind {
        EventKind::RunStart { .. }
        | EventKind::GroupStart { .. }
        | EventKind::SequentialTailStart { .. } => Phase::Begin,
        EventKind::RunEnd | EventKind::GroupEnd { .. } | EventKind::SequentialTailEnd => Phase::End,
        _ => Phase::Instant,
    }
}

/// The node's name, marked when its work was squashed.
fn node_label(node: &TraceNode) -> String {
    let squashed = if node.committed { "" } else { " (squashed)" };
    match node.kind {
        TraceNodeKind::Auxiliary { group } => format!("aux g{group}{squashed}"),
        TraceNodeKind::Validation { group, attempt } => {
            format!("val g{group} a{attempt}{squashed}")
        }
        TraceNodeKind::Invocation {
            group,
            index,
            attempt,
            sequential_tail,
        } => {
            if sequential_tail {
                format!("tail i{index}{squashed}")
            } else if attempt > 0 {
                format!("inv g{group} i{index} a{attempt}{squashed}")
            } else {
                format!("inv g{group} i{index}{squashed}")
            }
        }
    }
}

fn fmt_units(x: f64) -> String {
    if x >= 1000.0 {
        format!("{:.1}k", x / 1000.0)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use stats_core::{
        EventSink, RecordingSink, RunOptions, SpecOutcome, StateDependence, ThreadPool,
    };
    use stats_workloads::bodytrack::BodyTrack;
    use stats_workloads::fluidanimate::FluidAnimate;
    use stats_workloads::{Workload, WorkloadSpec};

    use crate::{Mode, RunSettings};

    /// 24 inputs of `w` at the Par. STATS operating point on two workers,
    /// recorded, and their trace scheduled on `threads` simulated threads.
    fn recorded_run<W: Workload>(
        w: &W,
        threads: usize,
    ) -> (SpecOutcome<W::T>, Vec<Event>, SimulatedRun) {
        let instance = w.instance(&WorkloadSpec {
            inputs: 24,
            ..WorkloadSpec::default()
        });
        let sink = Arc::new(RecordingSink::new());
        let outcome = StateDependence::new(instance.inputs, instance.initial, instance.transition)
            .with_options(
                RunOptions::default()
                    .pool(Arc::new(ThreadPool::new(2)))
                    .config(RunSettings::for_mode(w, Mode::ParStats, 8).spec_config)
                    .sink(Arc::clone(&sink) as Arc<dyn EventSink>),
            )
            .run();
        let run = SimulatedRun::new(&outcome.trace, &w.original_tlp(), threads);
        (outcome, sink.take(), run)
    }

    #[test]
    fn chrome_trace_draws_schedule_and_wall_clock() {
        // Fluidanimate's speculation aborts: squashed work and a
        // sequential tail on both sides of the file.
        let (outcome, events, run) = recorded_run(&FluidAnimate, 4);
        let json = run.chrome_trace(&events);
        assert!(json.contains("\"name\":\"simulated schedule\""));
        assert!(json.contains("\"name\":\"wall clock\""));
        // One complete event per trace node, named as the node.
        let nodes = outcome.trace.nodes.len();
        assert_eq!(json.matches("\"ph\":\"X\",\"pid\":1,").count(), nodes);
        assert!(json.contains("{\"name\":\"aux g1"));
        assert!(json.contains("{\"name\":\"tail i"));
        let squashed = outcome.trace.nodes.iter().filter(|n| !n.committed).count();
        assert!(squashed > 0);
        assert_eq!(json.matches(" (squashed)\",\"ph\":\"X\"").count(), squashed);
        // Every span that begins on a thread's row ends on it.
        assert!(json.contains("{\"name\":\"sequential tail\",\"ph\":\"B\",\"pid\":2,"));
        let mut threads: Vec<u64> = events.iter().map(|ev| ev.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        for tid in 0..threads.len() {
            let count = |ph: &str| {
                json.matches(&format!("\"ph\":\"{ph}\",\"pid\":2,\"tid\":{tid},"))
                    .count()
            };
            assert_eq!(count("B"), count("E"), "row {tid}");
        }
    }

    #[test]
    fn speculative_schedule_is_parallel() {
        for threads in [2, 4] {
            let (outcome, _, run) = recorded_run(&BodyTrack, threads);
            assert!(
                run.schedule.makespan_work() < outcome.trace.total_work(),
                "{threads} threads: makespan {} vs work {}",
                run.schedule.makespan_work(),
                outcome.trace.total_work()
            );
        }
    }

    #[test]
    fn summary_covers_groups_split_and_critical_path() {
        let (outcome, _, run) = recorded_run(&BodyTrack, 4);
        let text = run.render_summary(&outcome.report, &outcome.trace);
        assert!(text.contains("per-group timeline (work units, 4 simulated threads)"));
        assert!(text.contains("non-speculative"));
        assert!(text.contains("committed"));
        assert!(text.contains("work split"));
        assert!(text.contains("critical path"));
    }

    #[test]
    fn span_kinds_pair_begin_end() {
        let start = EventKind::GroupStart {
            group: 1,
            start: 4,
            end: 8,
            speculative: true,
        };
        let end = EventKind::GroupEnd { group: 1 };
        assert_eq!(phase(&start), Phase::Begin);
        assert_eq!(phase(&end), Phase::End);
        assert_eq!(
            start.label(),
            end.label(),
            "begin/end labels must match for Chrome span pairing"
        );
    }
}
