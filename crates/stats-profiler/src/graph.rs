//! Expanding a speculation trace into a platform task graph.
//!
//! Each invocation node of a [`SpecTrace`] is decomposed with the
//! benchmark's [`OriginalTlp`] model into a fork/join of `t_orig` subtasks
//! (serial prefix + parallel body + synchronization overhead), so the
//! simulated platform sees both sources of TLP: group-level speculation
//! across invocations and the original threading within one.

use stats_core::{SpecTrace, TraceNodeKind};
use stats_sim::{TaskGraph, TaskId};
use stats_workloads::OriginalTlp;

/// Expand `trace` into a [`TaskGraph`], decomposing every invocation with
/// `tlp` across `t_orig` original threads (1 = no intra-invocation
/// parallelism). Returns the graph.
pub fn expand_trace(trace: &SpecTrace, tlp: &OriginalTlp, t_orig: usize) -> TaskGraph {
    let mut graph = TaskGraph::new();
    // Exit task of each trace node (the task later nodes must wait for).
    let mut exit: Vec<TaskId> = Vec::with_capacity(trace.nodes.len());

    for (i, node) in trace.nodes.iter().enumerate() {
        let deps: Vec<TaskId> = trace.deps(i).iter().map(|&d| exit[d]).collect();
        let cost = node.work.total;
        let mem = node.work.mem_fraction();

        let is_invocation = matches!(node.kind, TraceNodeKind::Invocation { .. });
        let t = t_orig.clamp(1, tlp.max_threads.max(1));
        if !is_invocation || t == 1 || cost <= 0.0 {
            let id = graph.add_task(cost, mem, &deps);
            exit.push(id);
            continue;
        }

        // Fork/join decomposition: serial part + sync overhead, then `t`
        // parallel slices, then a zero-cost join.
        let parallel = cost * tlp.parallel_fraction;
        let serial = cost - parallel + cost * tlp.sync_overhead * (t as f64 - 1.0);
        let fork = graph.add_task(serial, mem, &deps);
        let mut slices = Vec::with_capacity(t);
        for _ in 0..t {
            slices.push(graph.add_task(parallel / t as f64, mem, &[fork]));
        }
        let join = graph.add_task(0.0, 0.0, &slices);
        exit.push(join);
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats_core::{run_protocol, ExactState, InvocationCtx, SpecConfig, StateTransition};

    struct Unit;
    impl StateTransition for Unit {
        type Input = u64;
        type State = ExactState<u64>;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            state: &mut ExactState<u64>,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            ctx.charge(100.0);
            state.0 = *input;
            *input
        }
    }

    fn tlp() -> OriginalTlp {
        OriginalTlp {
            parallel_fraction: 0.9,
            sync_overhead: 0.01,
            max_threads: 8,
            mem_fraction: 0.3,
        }
    }

    fn trace(n: usize) -> SpecTrace {
        let inputs: Vec<u64> = (0..n as u64).collect();
        run_protocol(&Unit, &inputs, &ExactState(0), &SpecConfig::sequential(), 0)
            .trace
            .into_inner()
    }

    #[test]
    fn t1_is_one_task_per_node() {
        let tr = trace(5);
        let g = expand_trace(&tr, &tlp(), 1);
        assert_eq!(g.len(), tr.nodes.len());
        assert!((g.total_work() - tr.total_work()).abs() < 1e-9);
    }

    #[test]
    fn fork_join_preserves_parallel_work_and_adds_sync() {
        let tr = trace(3);
        let g4 = expand_trace(&tr, &tlp(), 4);
        // Each invocation: fork + 4 slices + join = 6 tasks.
        assert_eq!(g4.len(), 3 * 6);
        let expected = tr.total_work() + 3.0 * 100.0 * 0.01 * 3.0;
        assert!((g4.total_work() - expected).abs() < 1e-9);
    }

    #[test]
    fn t_orig_clamped_to_model_max() {
        let tr = trace(2);
        let g = expand_trace(&tr, &tlp(), 100);
        // max_threads = 8: fork + 8 + join per invocation.
        assert_eq!(g.len(), 2 * 10);
    }

    #[test]
    fn chain_dependences_preserved() {
        let tr = trace(4);
        let g = expand_trace(&tr, &tlp(), 2);
        // The critical path must include every invocation's serial part:
        // 4 * (serial + slice) where serial = 100*(0.1 + 0.01).
        let serial = 100.0 * (0.1 + 0.01);
        let slice = 100.0 * 0.9 / 2.0;
        let expected = 4.0 * (serial + slice);
        assert!((g.critical_path() - expected).abs() < 1e-9);
    }

    #[test]
    fn fork_join_matches_amdahl_analytically() {
        // One invocation decomposed over t threads on an uncontended
        // platform must take exactly serial + sync + parallel/t.
        use stats_sim::{simulate, Platform};
        let tr = trace(1);
        let model = tlp();
        let platform = Platform::haswell_single_socket();
        for t in [1usize, 2, 4, 8] {
            let g = expand_trace(&tr, &model, t);
            let s = simulate(&g, &platform, t.max(2));
            let cost = 100.0;
            let expected = if t == 1 {
                cost
            } else {
                cost * (1.0 - model.parallel_fraction)
                    + cost * model.sync_overhead * (t as f64 - 1.0)
                    + cost * model.parallel_fraction / t as f64
            };
            assert!(
                (s.makespan_work() - expected).abs() < 1e-9,
                "t={t}: {} vs analytic {expected}",
                s.makespan_work()
            );
        }
    }

    #[test]
    fn more_threads_shorten_critical_path() {
        let tr = trace(4);
        let cp2 = expand_trace(&tr, &tlp(), 2).critical_path();
        let cp8 = expand_trace(&tr, &tlp(), 8).critical_path();
        assert!(cp8 < cp2);
    }
}
