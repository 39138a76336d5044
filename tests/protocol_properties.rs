//! Property-based tests of the speculation protocol's safety invariants.

use proptest::prelude::*;
use stats::core::{
    run_protocol, ExactState, InvocationCtx, SpecConfig, SpecState, StateTransition,
};

/// Deterministic fold: state is the running sum (full history — the
/// hardest case for speculation, but outputs must always be exact).
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
        ctx.charge(1.0);
        state.0 = state.0.wrapping_add(*input);
        state.0
    }
}

/// Nondeterministic short-memory transition with a tolerant comparison.
#[derive(Clone, Debug)]
struct Fuzzy(f64);
impl SpecState for Fuzzy {
    fn matches_any(&self, originals: &[Self]) -> bool {
        originals.iter().any(|o| (o.0 - self.0).abs() < 0.3)
    }
}
struct NoisyLast;
impl StateTransition for NoisyLast {
    type Input = u64;
    type State = Fuzzy;
    type Output = f64;
    fn compute_output(&self, input: &u64, state: &mut Fuzzy, ctx: &mut InvocationCtx) -> f64 {
        ctx.charge(2.0);
        state.0 = *input as f64 + ctx.uniform(-0.1, 0.1);
        state.0
    }
}

fn arb_config() -> impl Strategy<Value = SpecConfig> {
    (
        0usize..20,    // group_size
        0usize..6,     // window
        0usize..4,     // max_reexec
        1usize..5,     // rollback
        any::<bool>(), // speculate
    )
        .prop_map(
            |(group_size, window, max_reexec, rollback, speculate)| SpecConfig {
                group_size,
                window,
                max_reexec,
                rollback,
                speculate,
                ..SpecConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SAFETY: for a *deterministic* transition, any protocol configuration
    /// produces exactly the sequential fold — speculation may only change
    /// the schedule, never the committed outputs.
    #[test]
    fn deterministic_outputs_always_exact(
        inputs in proptest::collection::vec(0u64..1000, 0..64),
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let r = run_protocol(&Sum, &inputs, &ExactState(0), &config, seed);
        let expected: Vec<u64> = inputs
            .iter()
            .scan(0u64, |s, &x| { *s = s.wrapping_add(x); Some(*s) })
            .collect();
        prop_assert_eq!(r.final_state.0, *expected.last().unwrap_or(&0));
        prop_assert_eq!(r.outputs, expected);
    }

    /// COMPLETENESS: every input yields exactly one committed output, and
    /// group records tile the input range, for any configuration.
    #[test]
    fn outputs_complete_and_groups_tile(
        n in 0usize..80,
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let r = run_protocol(&NoisyLast, &inputs, &Fuzzy(0.0), &config, seed);
        prop_assert_eq!(r.outputs.len(), n);
        let mut covered = 0usize;
        for g in &r.report.groups {
            prop_assert_eq!(g.start, covered);
            prop_assert!(g.end > g.start);
            covered = g.end;
        }
        if n > 0 {
            prop_assert_eq!(covered, n);
        }
    }

    /// DETERMINISM: the protocol is a pure function of (inputs, config,
    /// seed) — including its trace shape and work accounting.
    #[test]
    fn protocol_is_reproducible(
        n in 1usize..48,
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let a = run_protocol(&NoisyLast, &inputs, &Fuzzy(0.0), &config, seed);
        let b = run_protocol(&NoisyLast, &inputs, &Fuzzy(0.0), &config, seed);
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.trace.nodes.len(), b.trace.nodes.len());
        prop_assert_eq!(a.report.reexecutions, b.report.reexecutions);
        prop_assert_eq!(a.report.aborted, b.report.aborted);
    }

    /// ACCOUNTING: committed + squashed work equals total trace work, and
    /// re-executions never exceed the budget per speculative group.
    #[test]
    fn work_partition_and_reexec_budget(
        n in 1usize..64,
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let r = run_protocol(&NoisyLast, &inputs, &Fuzzy(0.0), &config, seed);
        let parts = r.report.committed_original_work
            + r.report.committed_aux_work
            + r.report.squashed_work;
        prop_assert!((r.trace.total_work() - parts).abs() < 1e-6);
        let groups = r.report.groups.len();
        prop_assert!(r.report.reexecutions <= config.max_reexec * groups);
    }

    /// TRACE: dependence edges always point backwards (the trace is a DAG
    /// in construction order) and committed work matches the trace's.
    #[test]
    fn trace_is_a_dag(
        n in 1usize..48,
        config in arb_config(),
        seed in any::<u64>(),
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let r = run_protocol(&NoisyLast, &inputs, &Fuzzy(0.0), &config, seed);
        for i in 0..r.trace.nodes.len() {
            for &d in r.trace.deps(i) {
                prop_assert!(d < i);
            }
        }
        let committed = r.report.committed_original_work + r.report.committed_aux_work;
        prop_assert!((r.trace.committed_work() - committed).abs() < 1e-6);
    }
}
