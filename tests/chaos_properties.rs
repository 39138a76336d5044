//! Chaos property tests of the deterministic fault-injection layer
//! (`docs/robustness.md`): for random seeds and random [`FaultPlan`]s,
//!
//! 1. a faulted run still commits the same final outputs as the unfaulted
//!    run (or degrades to sequential execution of the same values), and
//! 2. two runs with an identical seed + plan produce identical recorded
//!    event traces — byte-identical label sequences on the sequential
//!    reference path, identical label multisets (plus bit-identical
//!    outputs, report, and trace) on the concurrent streaming path.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use stats::core::prelude::*;

/// Deterministic short-memory transition: state and output are the last
/// input. The auxiliary window reproduces the state exactly, so unfaulted
/// speculation always commits, and every recovery path (re-execution,
/// retry, sequential tail) recomputes identical values.
struct WindowLast;
impl StateTransition for WindowLast {
    type Input = u64;
    type State = ExactState<u64>;
    type Output = u64;
    fn compute_output(
        &self,
        input: &u64,
        state: &mut ExactState<u64>,
        ctx: &mut InvocationCtx,
    ) -> u64 {
        ctx.charge(2.0);
        state.0 = *input;
        state.0
    }
}

/// Nondeterministic tolerant transition (same shape as the streaming
/// property suite) for the determinism-contract tests.
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
    (1usize..10, 1usize..4, 0usize..3, 1usize..4).prop_map(
        |(group_size, window, max_reexec, rollback)| SpecConfig {
            group_size,
            window,
            max_reexec,
            rollback,
            ..SpecConfig::default()
        },
    )
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0f64..1.0,   // worker panic rate
        0.0f64..1.0,   // validation mismatch rate
        any::<bool>(), // mismatch persists across re-executions
        0.0f64..0.5,   // slow group rate
        0.0f64..0.5,   // queue stall rate
    )
        .prop_map(|(seed, panic_r, mismatch_r, hard, slow_r, stall_r)| {
            FaultPlan::new(seed)
                .worker_panic(FaultRule::transient(panic_r))
                .validation_mismatch(if hard {
                    FaultRule::permanent(mismatch_r)
                } else {
                    FaultRule::transient(mismatch_r)
                })
                .slow_group(FaultRule::slow(slow_r, Duration::from_micros(80)))
                .queue_stall(FaultRule::slow(stall_r, Duration::from_micros(40)))
        })
}

fn stream_faulted(
    inputs: &[u64],
    config: &SpecConfig,
    seed: u64,
    plan: FaultPlan,
    adapt: bool,
    sink: Option<Arc<RecordingSink>>,
) -> SpecOutcome<WindowLast> {
    let mut options = RunOptions::default()
        .pool(Arc::new(ThreadPool::new(3)))
        .config(config.clone())
        .seed(seed)
        .faults(plan);
    if adapt {
        options = options.adapt(AdaptPolicy::default());
    }
    if let Some(sink) = sink {
        options = options.sink(sink);
    }
    let session = Session::new(ExactState(0u64), WindowLast, options);
    session.push_batch(inputs.iter().copied());
    session.finish()
}

fn labels(events: &[Event]) -> Vec<String> {
    events.iter().map(|e| e.kind.label()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// CORRECTNESS UNDER CHAOS: whatever faults fire — lost workers,
    /// forced mismatches, slow groups, queue stalls, with or without the
    /// adaptive controller — a deterministic workload commits exactly the
    /// outputs and final state of the unfaulted reference run.
    #[test]
    fn faulted_run_commits_reference_outputs(
        n in 0usize..48,
        config in arb_config(),
        seed in any::<u64>(),
        plan in arb_plan(),
        adapt in any::<bool>(),
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let reference = run_protocol(&WindowLast, &inputs, &ExactState(0u64), &config, seed);
        let faulted = stream_faulted(&inputs, &config, seed, plan, adapt, None);
        prop_assert_eq!(&faulted.outputs, &reference.outputs);
        prop_assert_eq!(faulted.final_state.0, reference.final_state.0);
    }

    /// DETERMINISM (sequential reference): identical seed + plan ⇒
    /// byte-identical event label sequence, outputs, report, and trace,
    /// even for a nondeterministic transition.
    #[test]
    fn identical_plan_gives_identical_sequential_traces(
        n in 0usize..40,
        config in arb_config(),
        seed in any::<u64>(),
        plan in arb_plan(),
        segment in (any::<bool>(), 4usize..16).prop_map(|(on, s)| on.then_some(s)),
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let run = || {
            let sink = Arc::new(RecordingSink::new());
            let mut options = RunOptions::default()
                .config(config.clone())
                .seed(seed)
                .faults(plan)
                .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
            if let Some(s) = segment {
                options = options.segment(s);
            }
            let r = run_protocol_with_options(&NoisyLast, &inputs, &Fuzzy(0.0), &options);
            (r, labels(&sink.events()))
        };
        let (a, la) = run();
        let (b, lb) = run();
        prop_assert_eq!(la, lb);
        prop_assert_eq!(&a.outputs, &b.outputs);
        prop_assert_eq!(&a.report, &b.report);
        prop_assert_eq!(&a.trace, &b.trace);
    }

    /// DETERMINISM (streaming): identical seed + plan ⇒ bit-identical
    /// outputs, report, and trace, and an identical event multiset (pool
    /// workers may interleave emission order, never content).
    #[test]
    fn identical_plan_gives_identical_streamed_outcomes(
        n in 0usize..40,
        config in arb_config(),
        seed in any::<u64>(),
        plan in arb_plan(),
        adapt in any::<bool>(),
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let run = || {
            let sink = Arc::new(RecordingSink::new());
            let o = stream_faulted(&inputs, &config, seed, plan, adapt, Some(Arc::clone(&sink)));
            let mut l = labels(&sink.events());
            l.sort();
            (o, l)
        };
        let (a, la) = run();
        let (b, lb) = run();
        prop_assert_eq!(la, lb);
        prop_assert_eq!(&a.outputs, &b.outputs);
        prop_assert_eq!(&a.report, &b.report);
        prop_assert_eq!(&a.trace, &b.trace);
    }
}

/// One seeded plan per [`FaultKind`]. The rows below are both the list the
/// test walks and the arms of an exhaustive `match`, so a variant without a
/// row (new in the enum, or deleted here) does not compile.
macro_rules! fault_rows {
    ($($kind:ident => $builder:ident($rule:expr)),* $(,)?) => {
        fn fault_rows() -> Vec<(FaultKind, FaultPlan)> {
            let plan_for = |kind: FaultKind| {
                let plan = FaultPlan::new(0xC4A0_5000 + kind as u64);
                match kind {
                    $(FaultKind::$kind => plan.$builder($rule),)*
                }
            };
            [$(FaultKind::$kind),*].into_iter().map(|k| (k, plan_for(k))).collect()
        }
    };
}

fault_rows! {
    WorkerPanic => worker_panic(FaultRule::transient(1.0)),
    ValidationMismatch => validation_mismatch(FaultRule::transient(0.5)),
    SlowGroup => slow_group(FaultRule::slow(0.5, Duration::from_micros(100))),
    QueueStall => queue_stall(FaultRule::slow(0.3, Duration::from_micros(50))),
}

/// Per fault kind: a plan injecting only that kind fires it at least once,
/// two streamed runs of the plan are indistinguishable (outputs, report,
/// trace, event multiset), and the faulted run still commits the
/// sequential reference outputs.
#[test]
fn every_fault_kind_fires_and_repeats_identically() {
    let inputs: Vec<u64> = (0..96).collect();
    let config = SpecConfig {
        group_size: 8,
        window: 1,
        max_reexec: 2,
        ..SpecConfig::default()
    };
    let reference = run_protocol(&WindowLast, &inputs, &ExactState(0u64), &config, 17);
    for (kind, plan) in fault_rows() {
        let run = || {
            let sink = Arc::new(RecordingSink::new());
            let o = stream_faulted(&inputs, &config, 17, plan, false, Some(Arc::clone(&sink)));
            let events = sink.events();
            let fired = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::FaultInjected { kind: k, .. } if k == kind))
                .count();
            let mut l = labels(&events);
            l.sort();
            (o, l, fired)
        };
        let (a, la, fired) = run();
        let (b, lb, _) = run();
        let name = kind.label();
        assert!(fired > 0, "{name}: the plan never fired");
        assert_eq!(la, lb, "{name}: event multisets differ");
        assert_eq!(a.outputs, b.outputs, "{name}: outputs differ");
        assert_eq!(a.report, b.report, "{name}: reports differ");
        assert_eq!(a.trace, b.trace, "{name}: traces differ");
        assert_eq!(a.outputs, reference.outputs, "{name}: not the reference");
    }
}

/// Every speculative group's first dispatch dies; the retry (attempt 1)
/// succeeds. The stream must recover every group through the retry path
/// and commit the reference outputs.
#[test]
fn lost_workers_recover_through_retries() {
    let inputs: Vec<u64> = (0..64).collect();
    let config = SpecConfig {
        group_size: 8,
        window: 1,
        ..SpecConfig::default()
    };
    let plan = FaultPlan::new(9).worker_panic(FaultRule::transient(1.0));
    let reference = run_protocol(&WindowLast, &inputs, &ExactState(0u64), &config, 3);
    let sink = Arc::new(RecordingSink::new());
    let outcome = stream_faulted(&inputs, &config, 3, plan, false, Some(Arc::clone(&sink)));
    assert_eq!(outcome.outputs, reference.outputs);
    assert_eq!(outcome.report, reference.report);
    let events = sink.events();
    let retries = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GroupRetry { .. }))
        .count();
    let faults = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::FaultInjected {
                    kind: FaultKind::WorkerPanic,
                    ..
                }
            )
        })
        .count();
    assert_eq!(retries, 7, "one retry per speculative group");
    assert_eq!(faults, 7, "one injected loss per speculative group");
}

/// Workers die on *every* attempt: the retry budget exhausts and the
/// coordinator executes each group inline — degraded, never wedged, and
/// still value-correct.
#[test]
fn permanent_worker_loss_falls_back_inline() {
    let inputs: Vec<u64> = (0..48).collect();
    let config = SpecConfig {
        group_size: 6,
        window: 1,
        ..SpecConfig::default()
    };
    let plan = FaultPlan::new(4).worker_panic(FaultRule::permanent(1.0));
    let reference = run_protocol(&WindowLast, &inputs, &ExactState(0u64), &config, 8);
    let outcome = stream_faulted(&inputs, &config, 8, plan, false, None);
    assert_eq!(outcome.outputs, reference.outputs);
    assert_eq!(outcome.final_state.0, reference.final_state.0);
}

/// Threshold state: speculation can only validate once the boundary value
/// crosses the threshold, so early segments abort and late ones commit —
/// an abort storm that subsides.
#[derive(Clone, Debug, PartialEq)]
struct Thresh(u64);
impl SpecState for Thresh {
    fn matches_any(&self, originals: &[Self]) -> bool {
        self.0 >= 96 && originals.iter().any(|o| o.0 == self.0)
    }
}
struct ThreshLast;
impl StateTransition for ThreshLast {
    type Input = u64;
    type State = Thresh;
    type Output = u64;
    fn compute_output(&self, input: &u64, state: &mut Thresh, ctx: &mut InvocationCtx) -> u64 {
        ctx.charge(2.0);
        state.0 = *input;
        state.0
    }
}

/// The adaptive controller walks down the ladder under the abort storm
/// (shrunk → sequential), re-probes during the quiet half of the stream,
/// and recovers speculation — all while committing exactly the sequential
/// reference outputs.
#[test]
fn adaptive_controller_degrades_and_reprobes() {
    let inputs: Vec<u64> = (0..256).collect();
    let config = SpecConfig {
        group_size: 8,
        window: 1,
        max_reexec: 1,
        ..SpecConfig::default()
    };
    let policy = AdaptPolicy {
        shrink_after: 1,
        min_group_size: 2,
        grow_after: 1,
        reprobe_after: 1,
    };
    let sink = Arc::new(RecordingSink::new());
    let options = RunOptions::default()
        .pool(Arc::new(ThreadPool::new(2)))
        .config(config.clone())
        .seed(5)
        .segment(16)
        .adapt(policy)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    let session = Session::new(Thresh(0), ThreshLast, options);
    session.push_batch(inputs.iter().copied());
    let outcome = session.finish();

    // Value correctness: identical to the batch reference (deterministic).
    let reference = run_protocol(&ThreshLast, &inputs, &Thresh(0), &config, 5);
    assert_eq!(outcome.outputs, reference.outputs);
    assert_eq!(outcome.final_state.0, reference.final_state.0);

    // The controller must have hit the bottom of the ladder and climbed
    // back: sequential fallback, then a probe, then speculation again.
    let states: Vec<AdaptState> = sink
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::AdaptTransition { state, .. } => Some(state),
            _ => None,
        })
        .collect();
    assert!(
        states.contains(&AdaptState::Sequential),
        "abort storm never degraded to sequential: {states:?}"
    );
    assert!(
        states.contains(&AdaptState::Probing),
        "controller never re-probed: {states:?}"
    );
    assert!(
        states.contains(&AdaptState::Speculative),
        "controller never recovered full speculation: {states:?}"
    );
}

/// A hard forced mismatch aborts every speculative group; the run degrades
/// to sequential execution of the same (deterministic) values.
#[test]
fn hard_forced_mismatch_degrades_to_sequential_values() {
    let inputs: Vec<u64> = (0..40).collect();
    let config = SpecConfig {
        group_size: 5,
        window: 2,
        ..SpecConfig::default()
    };
    let plan = FaultPlan::new(11).validation_mismatch(FaultRule::permanent(1.0));
    let reference = run_protocol(&WindowLast, &inputs, &ExactState(0u64), &config, 2);
    let sink = Arc::new(RecordingSink::new());
    let options = RunOptions::default()
        .config(config)
        .seed(2)
        .faults(plan)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
    let faulted = run_protocol_with_options(&WindowLast, &inputs, &ExactState(0u64), &options);
    assert_eq!(faulted.outputs, reference.outputs);
    assert!(faulted.report.aborted, "a permanent mismatch must abort");
    assert!(sink.events().iter().any(|e| matches!(
        e.kind,
        EventKind::FaultInjected {
            kind: FaultKind::ValidationMismatch,
            ..
        }
    )));
}

/// A transient forced mismatch is healed by one re-execution: the run
/// commits speculatively (no abort) with the re-executed tail's values.
#[test]
fn transient_forced_mismatch_heals_through_reexecution() {
    let inputs: Vec<u64> = (0..32).collect();
    let config = SpecConfig {
        group_size: 8,
        window: 1,
        max_reexec: 2,
        ..SpecConfig::default()
    };
    let plan = FaultPlan::new(6).validation_mismatch(FaultRule::transient(1.0));
    let reference = run_protocol(&WindowLast, &inputs, &ExactState(0u64), &config, 1);
    let options = RunOptions::default().config(config).seed(1).faults(plan);
    let faulted = run_protocol_with_options(&WindowLast, &inputs, &ExactState(0u64), &options);
    assert_eq!(faulted.outputs, reference.outputs);
    assert!(!faulted.report.aborted, "transient mismatches must heal");
    assert_eq!(
        faulted.report.reexecutions, 3,
        "each speculative group needs exactly one healing re-execution"
    );
}
