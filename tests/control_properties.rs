//! Property test of the one segment driver: every linear entry point — the
//! sequential reference `run_protocol_with_options`, the pooled
//! `StateDependence` and a streaming `Session` — runs the same segments
//! under the same adaptive controller and online re-tuner, so all three
//! commit bit-identical outputs, final state, report and trace, and emit
//! the same canonical event sequence, whatever the worker count and push
//! chunking. The same draw, recorded, replays faithfully from its log.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use stats::autotune::OnlineTuner;
use stats::core::prelude::*;
use stats::core::replay::{canonical_events, replay, SessionLog, SessionRecorder};

/// Nondeterministic short-memory transition with a tolerant comparison —
/// exercises commits, re-executions, and aborts depending on config/seed.
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
        0usize..12,    // group_size
        0usize..5,     // window
        0usize..3,     // max_reexec
        1usize..4,     // rollback
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

/// The fault kinds every linear driver injects: forced validation
/// mismatches (in the resolver), and lost workers and slow speculative
/// groups (in `execute_group`, the one group job), with the retry budget
/// the lost workers are recovered under.
fn arb_faults() -> impl Strategy<Value = (FaultPlan, RetryPolicy)> {
    let rule = |rate, hard| {
        if hard {
            FaultRule::permanent(rate)
        } else {
            FaultRule::transient(rate)
        }
    };
    (
        (any::<u64>(), 0.0f64..0.6, any::<bool>(), 0.0f64..0.3),
        (0.0f64..0.6, any::<bool>(), 0u32..3),
    )
        .prop_map(
            move |((seed, mismatch, hard, slow), (lost, dead, retries))| {
                let plan = FaultPlan::new(seed)
                    .validation_mismatch(rule(mismatch, hard))
                    .slow_group(FaultRule::slow(slow, Duration::from_micros(20)))
                    .worker_panic(rule(lost, dead));
                let retry = RetryPolicy {
                    max_retries: retries,
                    backoff: Duration::ZERO,
                    ..RetryPolicy::default()
                };
                (plan, retry)
            },
        )
}

/// The canonical event sequence with `RunStart` counts zeroed: a stream
/// cannot know them when its run starts.
fn events(sink: &RecordingSink) -> Vec<EventKind> {
    let raw: Vec<EventKind> = sink
        .events()
        .iter()
        .map(|e| match e.kind {
            EventKind::RunStart { .. } => EventKind::RunStart {
                inputs: 0,
                groups: 0,
            },
            kind => kind,
        })
        .collect();
    canonical_events(&raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// ONE DRIVER, ONE CONTROLLER: with faults, the degradation ladder and
    /// the online re-tuner in any combination, segmented or not, the pooled
    /// batch run and the streamed run equal the sequential reference.
    #[test]
    fn every_linear_driver_runs_the_same_controlled_segments(
        n in 0usize..96,
        config in arb_config(),
        seed in any::<u64>(),
        faults in arb_faults(),
        adapt in any::<bool>(),
        tune in any::<bool>(),
        segment in (any::<bool>(), 4usize..16).prop_map(|(on, s)| on.then_some(s)),
        workers in 1usize..4,
        chunk in 1usize..25,
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let pool = Arc::new(ThreadPool::new(workers));
        // Fresh controllers per run: a retuner is stateful.
        let options = |sink: &Arc<RecordingSink>| {
            let mut options = RunOptions::default()
                .pool(Arc::clone(&pool))
                .config(config.clone())
                .seed(seed)
                .faults(faults.0)
                .retry(faults.1)
                .sink(Arc::clone(sink) as Arc<dyn EventSink>);
            if let Some(s) = segment {
                options = options.segment(s);
            }
            if adapt {
                options = options.adapt(AdaptPolicy::default());
            }
            if tune {
                options = options.retune(OnlineTuner::new(seed).every(2));
            }
            options
        };
        let sinks: [Arc<RecordingSink>; 3] = Default::default();

        let reference =
            run_protocol_with_options(&NoisyLast, &inputs, &Fuzzy(0.0), &options(&sinks[0]));
        let pooled = StateDependence::new(inputs.clone(), Fuzzy(0.0), NoisyLast)
            .with_options(options(&sinks[1]))
            .run();
        let session = Session::new(Fuzzy(0.0), NoisyLast, options(&sinks[2]));
        for c in inputs.chunks(chunk) {
            session.push_batch(c.iter().copied());
        }
        let streamed = session.finish();

        let expected = events(&sinks[0]);
        for (driver, outcome, sink) in [("pooled", &pooled, &sinks[1]), ("streamed", &streamed, &sinks[2])] {
            prop_assert_eq!(&outcome.outputs, &reference.outputs, "{} outputs", driver);
            prop_assert_eq!(
                outcome.final_state.0.to_bits(),
                reference.final_state.0.to_bits(),
                "{} final state",
                driver
            );
            prop_assert_eq!(&outcome.report, &reference.report, "{} report", driver);
            prop_assert_eq!(&outcome.trace, &reference.trace, "{} trace", driver);
            let got = events(sink);
            prop_assert!(got == expected, "{} events:\n{:?}\n!=\n{:?}", driver, got, expected);
        }
    }

    /// RECORDED CONTROL REPLAYS: a streamed run under the same draw —
    /// faults and retries, the degradation ladder, the online re-tuner,
    /// segmenting, any chunking — is recorded, its log round-trips through
    /// bytes, and the replay on a pool of another size is faithful and
    /// commits the same outputs and final state.
    #[test]
    fn recorded_controlled_runs_replay_faithfully(
        n in 0usize..96,
        config in arb_config(),
        seed in any::<u64>(),
        faults in arb_faults(),
        adapt in any::<bool>(),
        tune in any::<bool>(),
        segment in (any::<bool>(), 4usize..16).prop_map(|(on, s)| on.then_some(s)),
        workers in 1usize..4,
        chunk in 1usize..25,
    ) {
        let mut options = RunOptions::default()
            .pool(Arc::new(ThreadPool::new(workers)))
            .config(config)
            .seed(seed)
            .faults(faults.0)
            .retry(faults.1);
        if let Some(s) = segment {
            options = options.segment(s);
        }
        if adapt {
            options = options.adapt(AdaptPolicy::default());
        }
        if tune {
            options = options.retune(OnlineTuner::new(seed).every(2));
        }
        let recorder = SessionRecorder::new(Fuzzy(0.0), NoisyLast, options);
        let inputs: Vec<u64> = (0..n as u64).collect();
        for c in inputs.chunks(chunk) {
            recorder.push_batch(c.iter().copied());
        }
        let (recorded, log) = recorder.finish();
        let log = SessionLog::from_bytes(&log.to_bytes()).expect("a recorded log decodes");

        let env = RunOptions::default().pool(Arc::new(ThreadPool::new(workers % 3 + 1)));
        let replayed = replay(&log, Fuzzy(0.0), NoisyLast, env).expect("replay starts");
        prop_assert!(
            replayed.is_faithful(),
            "divergences={} trace_matched={} report_matched={}",
            replayed.divergences,
            replayed.trace_matched,
            replayed.report_matched
        );
        prop_assert_eq!(&replayed.outcome.outputs, &recorded.outputs);
        prop_assert_eq!(
            replayed.outcome.final_state.0.to_bits(),
            recorded.final_state.0.to_bits()
        );
    }
}
