//! Property tests for deterministic session record/replay (`docs/replay.md`).
//!
//! Three guarantees, each over randomized configs, seeds, fault plans, and
//! input chunkings:
//!
//! 1. **Codec identity** — a recorded [`SessionLog`] survives
//!    `to_bytes -> from_bytes` exactly, including `f64` inputs whose raw
//!    bit patterns carry NaN payloads or signed zeros, and including every
//!    recorded fault and re-tuning event.
//! 2. **Damage is typed** — every truncation of a valid log decodes to a
//!    typed [`ReplayError`]; corrupt bytes and forged section counts never
//!    panic the decoder.
//! 3. **Replay fidelity** — `replay(record(run))` reproduces the original
//!    outputs, final state, canonical event sequence, and trace/report
//!    digests bit-for-bit, at a *different* worker count, with faults,
//!    the adaptive controller, and the online re-tuner all in play.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use stats::autotune::OnlineTuner;
use stats::core::prelude::*;
use stats::core::replay::{replay, ReplayError, SessionLog, SessionRecorder};

/// Deterministic mixer over `u64` inputs: speculation always validates, so
/// any divergence between record and replay comes from the log, not the
/// workload.
struct Mix;

impl StateTransition for Mix {
    type Input = u64;
    type State = ExactState<u64>;
    type Output = u64;
    fn compute_output(
        &self,
        input: &u64,
        state: &mut ExactState<u64>,
        ctx: &mut InvocationCtx,
    ) -> u64 {
        state.0 = state.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ input;
        ctx.charge(1.0);
        state.0
    }
}

/// Bit-preserving transition over `f64` inputs: the state folds in the raw
/// IEEE-754 bits, so a NaN payload or a signed zero that the log fails to
/// round-trip byte-exactly would surface as a validation divergence.
struct Bits;

impl StateTransition for Bits {
    type Input = f64;
    type State = ExactState<u64>;
    type Output = u64;
    fn compute_output(
        &self,
        input: &f64,
        state: &mut ExactState<u64>,
        ctx: &mut InvocationCtx,
    ) -> u64 {
        state.0 = state.0.rotate_left(9) ^ input.to_bits();
        ctx.charge(1.0);
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
        0.0f64..0.6, // worker panic rate
        0.0f64..0.6, // validation mismatch rate
        any::<bool>(),
        0.0f64..0.3, // slow group rate
    )
        .prop_map(|(seed, panic_r, mismatch_r, hard, slow_r)| {
            FaultPlan::new(seed)
                .worker_panic(FaultRule::transient(panic_r))
                .validation_mismatch(if hard {
                    FaultRule::permanent(mismatch_r)
                } else {
                    FaultRule::transient(mismatch_r)
                })
                .slow_group(FaultRule::slow(slow_r, Duration::from_micros(40)))
        })
}

/// The offset of section `tag`'s payload in a log: past the magic and the
/// version, each section is its tag, its payload length and its payload
/// (`docs/replay.md`, "Log format").
fn payload_at(bytes: &[u8], tag: u8) -> usize {
    let mut at = 8 + 4;
    while bytes[at] != tag {
        at += 9 + u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
    }
    at + 9
}

/// A count a hostile log could carry: anything, near the top of the range,
/// just under `2^64 / 8`, or small.
fn arb_count() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (u64::MAX - 64)..=u64::MAX,
        (1u64 << 60)..(1u64 << 61),
        0u64..64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// CODEC IDENTITY: a recorded log equals its own byte round-trip, and
    /// the recorded `f64` inputs come back with identical raw bits — NaN
    /// payloads and `-0.0` included.
    #[test]
    fn recorded_log_round_trips_byte_exactly(
        bits in proptest::collection::vec(any::<u64>(), 0..64),
        config in arb_config(),
        seed in any::<u64>(),
        plan in arb_plan(),
        chunk in 1usize..17,
    ) {
        let inputs: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let options = RunOptions::default()
            .config(config)
            .seed(seed)
            .faults(plan);
        let recorder = SessionRecorder::new(ExactState(0u64), Bits, options).label("bits");
        for c in inputs.chunks(chunk) {
            recorder.push_batch(c.iter().copied());
        }
        let (_, log) = recorder.finish();

        let decoded = SessionLog::from_bytes(&log.to_bytes()).expect("valid log must decode");
        prop_assert_eq!(&decoded, &log);
        prop_assert_eq!(decoded.input_count(), bits.len() as u64);

        let back: Vec<f64> = decoded.decode_inputs().expect("inputs must decode");
        let back_bits: Vec<u64> = back.iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(back_bits, bits);
    }

    /// DAMAGE IS TYPED: every strict prefix of a valid log fails to decode
    /// with one of the documented [`ReplayError`] variants — never a panic,
    /// never a silently truncated `Ok`. Flipping an arbitrary byte must not
    /// panic either (it may still decode when the flip lands in a payload
    /// the integrity checks cannot see).
    #[test]
    fn damaged_logs_fail_with_typed_errors(
        n in 0u64..24,
        seed in any::<u64>(),
        flip_at in any::<usize>(),
        flip_with in 1u8..=255,
    ) {
        let options = RunOptions::default().seed(seed).faults(
            FaultPlan::new(seed).validation_mismatch(FaultRule::transient(0.3)),
        );
        let recorder = SessionRecorder::new(ExactState(0u64), Mix, options);
        recorder.push_batch(0..n);
        let (_, log) = recorder.finish();
        let bytes = log.to_bytes();

        for cut in 0..bytes.len() {
            match SessionLog::from_bytes(&bytes[..cut]) {
                Err(
                    ReplayError::BadMagic
                    | ReplayError::UnsupportedVersion(_)
                    | ReplayError::Truncated
                    | ReplayError::Corrupt(_)
                    | ReplayError::MissingSection(_)
                    | ReplayError::InputDecode { .. },
                ) => {}
                Err(other) => prop_assert!(false, "untyped error at cut {}: {:?}", cut, other),
                Ok(_) => prop_assert!(false, "truncation at {} of {} decoded", cut, bytes.len()),
            }
        }

        let mut corrupt = bytes.clone();
        let i = flip_at % corrupt.len();
        corrupt[i] ^= flip_with;
        let _ = SessionLog::from_bytes(&corrupt); // must not panic
    }

    /// REPLAY FIDELITY: the acceptance property. Record a run — optionally
    /// faulted, adaptive, and online-retuned — round-trip the log through
    /// bytes, replay it on a pool of a different size, and demand the
    /// replay be faithful: zero canonical event divergences, matching
    /// trace and report digests, and identical outputs and final state.
    #[test]
    fn replay_of_recorded_run_is_faithful(
        n in 0u64..96,
        config in arb_config(),
        seed in any::<u64>(),
        plan in arb_plan(),
        adapt in any::<bool>(),
        tune in any::<bool>(),
        record_workers in 1usize..4,
        replay_workers in 1usize..4,
        chunk in 1usize..25,
    ) {
        let mut options = RunOptions::default()
            .pool(Arc::new(ThreadPool::new(record_workers)))
            .config(config)
            .seed(seed)
            .faults(plan);
        if adapt {
            options = options.adapt(AdaptPolicy::default());
        }
        if tune {
            options = options.retune(OnlineTuner::new(seed).every(2));
        }

        let recorder = SessionRecorder::new(ExactState(0u64), Mix, options);
        let inputs: Vec<u64> = (0..n).collect();
        for c in inputs.chunks(chunk) {
            recorder.push_batch(c.iter().copied());
        }
        let (outcome, log) = recorder.finish();
        let log = SessionLog::from_bytes(&log.to_bytes()).expect("valid log must decode");
        prop_assert_eq!(log.retune_enabled, tune);

        let env = RunOptions::default().pool(Arc::new(ThreadPool::new(replay_workers)));
        let replayed = replay(&log, ExactState(0u64), Mix, env).expect("replay must start");
        prop_assert!(
            replayed.is_faithful(),
            "divergences={} trace_matched={} report_matched={}",
            replayed.divergences,
            replayed.trace_matched,
            replayed.report_matched
        );
        prop_assert_eq!(&replayed.outcome.outputs, &outcome.outputs);
        prop_assert_eq!(replayed.outcome.final_state.0, outcome.final_state.0);
    }

    /// HOSTILE COUNTS ARE TYPED: overwriting the leading count of the
    /// chunks (tag 3), inputs (4) and events (5) sections — one at a time,
    /// all at once, or the input count together with the first chunk so
    /// that the chunk sizes still add up to it — never panics the decoder
    /// or `decode_inputs`; each returns `Ok` or a `ReplayError`.
    #[test]
    fn hostile_counts_fail_with_typed_errors(
        n in 0u64..24,
        seed in any::<u64>(),
        chunk in 1usize..9,
        counts in (arb_count(), arb_count(), arb_count()),
    ) {
        let recorder = SessionRecorder::new(
            ExactState(0u64),
            Mix,
            RunOptions::default().seed(seed),
        );
        let inputs: Vec<u64> = (0..n).collect();
        for c in inputs.chunks(chunk) {
            recorder.push_batch(c.iter().copied());
        }
        let (_, log) = recorder.finish();
        let bytes = log.to_bytes();
        let (chunks_at, inputs_at, events_at) =
            (payload_at(&bytes, 3), payload_at(&bytes, 4), payload_at(&bytes, 5));
        let put = |bytes: &mut Vec<u8>, at: usize, value: u64| {
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        };

        let mut hostile = Vec::new();
        for (at, count) in [(chunks_at, counts.0), (inputs_at, counts.1), (events_at, counts.2)] {
            let mut one = bytes.clone();
            put(&mut one, at, count);
            hostile.push(one);
        }
        let mut all = bytes.clone();
        put(&mut all, chunks_at, counts.0);
        put(&mut all, inputs_at, counts.1);
        put(&mut all, events_at, counts.2);
        hostile.push(all);
        if let Some(&first) = log.chunks.first() {
            let mut consistent = bytes.clone();
            put(&mut consistent, inputs_at, counts.1);
            put(&mut consistent, chunks_at + 8, counts.1.wrapping_sub(n - first));
            hostile.push(consistent);
        }

        for crafted in &hostile {
            // Returning at all is the property; the arms also name the only
            // errors a forged count may produce.
            match SessionLog::from_bytes(crafted) {
                Ok(decoded) => match decoded.decode_inputs::<u64>() {
                    Ok(_) | Err(ReplayError::InputDecode { .. } | ReplayError::Corrupt(_)) => {}
                    Err(other) => prop_assert!(false, "decode_inputs: {:?}", other),
                },
                Err(
                    ReplayError::Truncated
                    | ReplayError::Corrupt(_)
                    | ReplayError::MissingSection(_),
                ) => {}
                Err(other) => prop_assert!(false, "from_bytes: {:?}", other),
            }
        }
    }
}
