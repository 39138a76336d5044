//! The cost ladder of one linear state dependence: the same inputs through
//! the bare `compute_output` loop, the sequential reference protocol, the
//! pooled batch runtime, a streaming `Session`, and a recorded session —
//! `light`, `heavy`, `misspec` and `bodytrack` are four instances of it.
//!
//! Every rung's outputs are compared bit for bit with the sequential
//! reference computed during set-up; the batch rung also on report and
//! trace. The traced run adds the rungs that isolate one layer each.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stats_core::obs::{EventKind, EventSink, RecordingSink};
use stats_core::replay::SessionLog;
use stats_core::{
    replay, run_protocol_with_options, InvocationCtx, ProtocolResult, RunOptions, Session,
    SessionRecorder, SpecConfig, SpecReport, SpecTrace, SpillCodec, StateDependence,
    StateTransition, ThreadPool,
};
use stats_profiler::expand_trace;
use stats_sim::{simulate, Platform};
use stats_workloads::OriginalTlp;

use crate::harness::{job_spread, part, repeat, rounds, time, Block, Budget, Jobs, Tally, Timed};
use crate::metrics::Values;
use crate::span::{layer_self, Trace};
use crate::summary::{median_and_tail, Summary};
use crate::transitions::{BitEq, Shared};

/// Inputs per `push_batch` on the stream rungs.
const CHUNK: usize = 256;
/// Inputs the one-by-one `push` rung sends at most.
const CHUNK1_INPUTS: usize = 20_000;

/// One linear state dependence, set up to be run through every rung.
pub struct Ladder<T: StateTransition> {
    transition: Shared<T>,
    inputs: Vec<T::Input>,
    initial: T::State,
    options: RunOptions,
    pool: Arc<ThreadPool>,
    reference: ProtocolResult<Shared<T>>,
    tail_pct: u32,
}

/// The exact counts of a run: they must repeat bit for bit per seed, and
/// are recorded so two result files can be diffed.
fn exact_counts(report: &SpecReport, trace: &SpecTrace, n: usize) -> Vec<(&'static str, f64)> {
    use stats_core::GroupResolution::{NonSpeculative, SequentialTail};
    let resolutions: Vec<_> = report.groups.iter().map(|g| g.resolution).collect();
    // Every group but a segment's first starts speculative; an abort turns
    // it and the rest of its segment into a sequential tail, so each
    // maximal run of tail groups is one abort.
    let speculative = resolutions.iter().filter(|r| **r != NonSpeculative).count();
    let aborted = (0..resolutions.len())
        .filter(|&i| {
            resolutions[i] == SequentialTail && (i == 0 || resolutions[i - 1] != SequentialTail)
        })
        .count();
    let committed = report.committed_speculative_groups();
    let all_work =
        report.committed_original_work + report.committed_aux_work + report.squashed_work;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    vec![
        ("resolver.validations", report.validations as f64),
        ("resolver.reexecutions", report.reexecutions as f64),
        (
            "resolver.commit_ratio",
            if speculative == 0 {
                1.0
            } else {
                committed as f64 / speculative as f64
            },
        ),
        ("resolver.aborted_groups", aborted as f64),
        (
            "resolver.squashed_work_share",
            share(report.squashed_work, all_work),
        ),
        (
            "protocol.aux_work_share",
            share(
                report.committed_aux_work,
                report.committed_original_work + report.committed_aux_work,
            ),
        ),
        (
            "protocol.trace_nodes_per_input",
            trace.nodes.len() as f64 / n as f64,
        ),
    ]
}

impl<T> Ladder<T>
where
    T: StateTransition,
    T::Input: SpillCodec,
    T::Output: BitEq,
{
    /// Set the dependence up: share the transition, install the pool, and
    /// compute the sequential reference every later result is held to.
    pub fn new(
        transition: T,
        inputs: Vec<T::Input>,
        initial: T::State,
        options: RunOptions,
        pool: Arc<ThreadPool>,
        tail_pct: u32,
    ) -> Self {
        let transition = Shared(Arc::new(transition));
        let options = options.pool(Arc::clone(&pool));
        let reference = run_protocol_with_options(&transition, &inputs, &initial, &options);
        Ladder {
            transition,
            inputs,
            initial,
            options,
            pool,
            reference,
            tail_pct,
        }
    }

    /// Inputs per run.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    fn same_outputs(&self, outputs: &[T::Output]) -> bool {
        outputs.bit_eq(&self.reference.outputs)
    }

    /// Rung: `run_protocol_with_options` on the calling thread.
    fn seq(&self, trace: &Trace, options: &RunOptions, tally: &mut Tally) -> Duration {
        let (result, wall) = time(|| {
            trace.span("run_protocol_with_options", || {
                run_protocol_with_options(&self.transition, &self.inputs, &self.initial, options)
            })
        });
        tally.check(self.same_outputs(&result.outputs), || {
            "seq: outputs differ from the reference".into()
        });
        wall
    }

    /// Rung: `StateDependence::run` on the shared pool; outputs, report and
    /// trace must all equal the reference's.
    fn batch(&self, trace: &Trace, tally: &mut Tally) -> Duration {
        let dep = StateDependence::new(
            self.inputs.clone(),
            self.initial.clone(),
            self.transition.clone(),
        )
        .with_options(self.options.clone());
        let (outcome, wall) = time(|| trace.span("StateDependence::run", || dep.run()));
        tally.check(
            self.same_outputs(&outcome.outputs)
                && outcome.report == self.reference.report
                && outcome.trace == self.reference.trace,
            || "batch: outputs, report or trace differ from the reference".into(),
        );
        wall
    }

    /// Rung: a `Session` fed in [`CHUNK`]-input batches (one by one when
    /// `chunk` is 1), over the first `n` inputs.
    fn stream(
        &self,
        trace: &Trace,
        options: &RunOptions,
        chunk: usize,
        n: usize,
        tally: &mut Tally,
    ) -> Duration {
        let initial = self.initial.clone();
        let transition = self.transition.clone();
        let options = options.clone();
        let start = Instant::now();
        let session = trace.span("Session::new", || {
            Session::new(initial, transition, options)
        });
        let mut refused = false;
        for batch in self.inputs[..n].chunks(chunk) {
            let pushed = trace.span("Session::push_batch", || {
                session.try_push_batch(batch.iter().cloned())
            });
            refused |= pushed.is_err();
        }
        let outcome = trace.span("Session::finish", || session.finish());
        let wall = start.elapsed();
        tally.check(
            !refused && outcome.outputs[..].bit_eq(&self.reference.outputs[..n]),
            || "stream: push refused or outputs differ from the reference".into(),
        );
        wall
    }

    /// Rung: the same stream through a `SessionRecorder`.
    fn recorded(&self, trace: &Trace, tally: &mut Tally) -> (Duration, SessionLog) {
        let initial = self.initial.clone();
        let transition = self.transition.clone();
        let options = self.options.clone();
        let start = Instant::now();
        let recorder = trace.span("SessionRecorder::new", || {
            SessionRecorder::new(initial, transition, options)
        });
        for batch in self.inputs.chunks(CHUNK) {
            trace.span("SessionRecorder::push_batch", || {
                recorder.push_batch(batch.iter().cloned());
            });
        }
        let (outcome, log) = trace.span("SessionRecorder::finish", || recorder.finish());
        let wall = start.elapsed();
        tally.check(self.same_outputs(&outcome.outputs), || {
            "recorded: outputs differ from the reference".into()
        });
        (wall, log)
    }

    /// Warm-up, part of set-up: every end-to-end rung a few times.
    pub fn warm(&self, reps: usize, tally: &mut Tally) {
        let off = Trace::off();
        for _ in 0..reps {
            self.seq(&off, &self.options, tally);
            self.batch(&off, tally);
            self.stream(&off, &self.options, CHUNK, self.len(), tally);
        }
    }

    /// The untraced run: the three end-to-end rungs, each in its own loop.
    pub fn run(&self, budget: Budget, tally: &mut Tally) -> Block {
        let off = Trace::off();
        let n = self.len();
        let (mut seq, mut par, mut stream) = Default::default();
        rounds(budget, |slice| {
            Timed::merge(
                &mut seq,
                repeat(&off, "seq", part(slice, 0.25), || {
                    self.seq(&off, &self.options, tally)
                }),
            );
            Timed::merge(
                &mut par,
                repeat(&off, "batch", part(slice, 0.25), || self.batch(&off, tally)),
            );
            Timed::merge(
                &mut stream,
                repeat(&off, "stream", part(slice, 0.5), || {
                    self.stream(&off, &self.options, CHUNK, n, tally)
                }),
            );
        });
        Block {
            seq,
            seq_ops: n,
            par,
            par_ops: n,
            jobs: Jobs::closed(&stream),
        }
    }

    /// The traced run: every rung that isolates a layer, under the span
    /// recorder and (where events are the source) a `RecordingSink`.
    pub fn run_traced(&self, budget: Budget, trace: &Trace, tally: &mut Tally) -> Values {
        let n = self.len();
        let slice = part(budget, 1.0 / 16.0);
        let mut values = Values::default();

        // sdi, ctx: the floor under every rung.
        let config = &self.options.config;
        let group = config.effective_group_size(n).max(1) as u64;
        let bare = repeat(trace, "bare", slice, || {
            let mut state = self.initial.clone();
            let (_, wall) = time(|| {
                for (i, input) in self.inputs.iter().enumerate() {
                    let seed = InvocationCtx::derive_seed(
                        self.options.seed,
                        i as u64 / group,
                        i as u64,
                        0,
                    );
                    let mut ctx = InvocationCtx::new(seed, config.orig_bindings.clone(), false);
                    std::hint::black_box(
                        self.transition.compute_output(input, &mut state, &mut ctx),
                    );
                }
            });
            wall
        });
        let ctx_new = repeat(trace, "ctx", slice / 2, || {
            time(|| {
                for i in 0..n as u64 {
                    let seed = InvocationCtx::derive_seed(self.options.seed, i / group, i, 0);
                    std::hint::black_box(InvocationCtx::new(
                        seed,
                        config.orig_bindings.clone(),
                        false,
                    ));
                }
            })
            .1
        });
        values.set("sdi.compute_ns_per_input", bare.ns_per(n));
        values.set("ctx.new_ns", ctx_new.ns_per(n));

        // protocol, resolver: exact counts from the reference, then timing.
        for (name, value) in exact_counts(&self.reference.report, &self.reference.trace, n) {
            values.set(name, Summary::exact(value));
        }
        let seq = repeat(trace, "seq", slice, || {
            self.seq(trace, &self.options, tally)
        });
        let nospec_options = self.options.clone().config(SpecConfig {
            speculate: false,
            ..config.clone()
        });
        // Without speculation the PRVG coordinates differ, so this rung is
        // held to its own first result rather than to the reference.
        let nospec_reference = run_protocol_with_options(
            &self.transition,
            &self.inputs,
            &self.initial,
            &nospec_options,
        );
        let nospec = repeat(trace, "nospec", slice, || {
            let (result, wall) = time(|| {
                run_protocol_with_options(
                    &self.transition,
                    &self.inputs,
                    &self.initial,
                    &nospec_options,
                )
            });
            tally.check(result.outputs.bit_eq(&nospec_reference.outputs), || {
                "nospec: outputs differ between two runs".into()
            });
            wall
        });
        let seq_ns = seq.ns_per(n).value;
        values.set(
            "protocol.overhead_ns_per_input",
            Summary::exact(seq_ns - bare.ns_per(n).value),
        );
        values.set("protocol.nospec_ns_per_input", nospec.ns_per(n));

        // pool, runtime: the batch rung against the pool's own counters.
        pool_micro(&mut values, &self.pool, trace, slice);
        let before = self.pool.metrics();
        let batch = repeat(trace, "batch", slice, || self.batch(trace, tally));
        let after = self.pool.metrics();
        pool_counters(
            &mut values,
            &before,
            &after,
            batch.walls.iter().sum(),
            self.pool.threads(),
        );
        let batch_ns = batch.ns_per(n).value;
        values.set("runtime.batch_vs_seq", Summary::exact(seq_ns / batch_ns));
        values.set(
            "runtime.delta_ns_per_input",
            Summary::exact(batch_ns - seq_ns),
        );
        values.set(
            "runtime.coord_ns_per_group",
            Summary::exact((batch_ns - seq_ns) * group as f64),
        );

        // session: the stream rung untraced and traced (their difference is
        // what tracing costs), then one layer at a time.
        let off = Trace::off();
        // The untraced rung is also where the job's median and tail come
        // from: three slices, so that ten jobs lie beyond p75 at least.
        let untraced = repeat(&off, "stream-untraced", part(budget, 3.0 / 16.0), || {
            self.stream(&off, &self.options, CHUNK, n, tally)
        });
        let stream = repeat(trace, "stream", slice, || {
            self.stream(trace, &self.options, CHUNK, n, tally)
        });
        let stream_ns = stream.ns_per(n).value;
        values.set(
            "trace.overhead_share",
            Summary::exact(stream.wall().value / untraced.wall().value - 1.0),
        );
        values.set("session.stream_inputs_per_s", untraced.rate(n));
        let stream_ms: Vec<f64> = untraced.walls.iter().map(|s| s * 1e3).collect();
        job_spread(&mut values, &stream_ms, self.tail_pct);
        values.set(
            "session.delta_ns_per_input",
            Summary::exact(untraced.ns_per(n).value - batch_ns),
        );
        let spans = trace.spans();
        let reps = stream.walls.len() as f64;
        let (_, pushing) = layer_self(&spans, "stream", "Session::push_batch");
        let (_, finishing) = layer_self(&spans, "stream", "Session::finish");
        values.set(
            "session.push_ns_per_input",
            Summary::exact(pushing.as_nanos() as f64 / reps / n as f64),
        );
        values.set(
            "session.finish_wait_us",
            Summary::exact(finishing.as_nanos() as f64 / reps / 1e3),
        );
        let empty = repeat(trace, "session-new", slice / 2, || {
            self.stream(trace, &self.options, CHUNK, 0, tally)
        });
        values.set("session.new_us", empty.wall().map(|s| s * 1e6));
        let n1 = n.min(CHUNK1_INPUTS);
        let chunk1 = repeat(trace, "chunk1", slice, || {
            self.stream(trace, &self.options, 1, n1, tally)
        });
        values.set("session.chunk1_ns_per_input", chunk1.ns_per(n1));

        // obs: the same stream with every event recorded.
        let sink = Arc::new(RecordingSink::new());
        let observed_options = self
            .options
            .clone()
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        let mut events = Vec::new();
        let observed = repeat(trace, "observed", slice, || {
            let wall = self.stream(trace, &observed_options, CHUNK, n, tally);
            events = sink.take();
            wall
        });
        values.set(
            "obs.recording_delta_ns_per_input",
            Summary::exact(observed.ns_per(n).value - stream_ns),
        );
        values.set(
            "obs.events_per_input",
            Summary::exact(events.len() as f64 / n as f64),
        );
        let (p50, p99) = commit_latencies_us(&events);
        values.set("session.commit_latency_p50_us", Summary::exact(p50));
        values.set("session.commit_latency_p99_us", Summary::exact(p99));

        // replay: record, encode, decode, replay.
        let mut last_log = None;
        let recorded = repeat(trace, "recorded", slice, || {
            let (wall, log) = self.recorded(trace, tally);
            last_log = Some(log);
            wall
        });
        let log = last_log.expect("the recorded rung ran");
        values.set("replay.recorded_inputs_per_s", recorded.rate(n));
        values.set(
            "replay.record_delta_ns_per_input",
            Summary::exact(recorded.ns_per(n).value - stream_ns),
        );
        let mut bytes = Vec::new();
        let encode = repeat(trace, "encode", slice / 2, || {
            let (out, wall) = time(|| trace.span("SessionLog::to_bytes", || log.to_bytes()));
            bytes = out;
            wall
        });
        let decode = repeat(trace, "decode", slice / 2, || {
            let (decoded, wall) =
                time(|| trace.span("SessionLog::from_bytes", || SessionLog::from_bytes(&bytes)));
            tally.check(decoded.is_ok_and(|d| d.input_count() == n as u64), || {
                "decode: the log did not read back".into()
            });
            wall
        });
        let mut divergences = 0usize;
        let replayed = repeat(trace, "replay", slice, || {
            let env = RunOptions::default()
                .pool(Arc::clone(&self.pool))
                .config(SpecConfig {
                    aux_bindings: config.aux_bindings.clone(),
                    orig_bindings: config.orig_bindings.clone(),
                    ..SpecConfig::default()
                });
            let (result, wall) = time(|| {
                trace.span("replay", || {
                    replay(&log, self.initial.clone(), self.transition.clone(), env)
                })
            });
            let faithful = match &result {
                Ok(r) => {
                    divergences += r.divergences
                        + usize::from(!r.trace_matched)
                        + usize::from(!r.report_matched);
                    r.is_faithful() && self.same_outputs(&r.outcome.outputs)
                }
                Err(_) => false,
            };
            tally.check(faithful, || "replay: not faithful to the recording".into());
            wall
        });
        values.set(
            "replay.log_bytes_per_input",
            Summary::exact(bytes.len() as f64 / n as f64),
        );
        values.set(
            "replay.events_per_input",
            Summary::exact(log.events.len() as f64 / n as f64),
        );
        values.set("replay.encode_ns_per_input", encode.ns_per(n));
        values.set("replay.decode_ns_per_input", decode.ns_per(n));
        values.set("replay.replay_ns_per_input", replayed.ns_per(n));
        values.set("replay.divergences", Summary::exact(divergences as f64));

        // sim: what the simulator predicts for this very trace on two
        // cores, against what two workers measured.
        let predicted = predicted_speedup_2(&self.reference.trace);
        let measured = seq_ns / batch_ns;
        values.set("sim.predicted_speedup_2", Summary::exact(predicted));
        values.set(
            "sim.speedup_error",
            Summary::exact((predicted - measured).abs() / measured),
        );
        values
    }

    /// `misspec` only: what the mismatch path costs over the commit path,
    /// as this ladder's sequential time minus `commit_path`'s on the same
    /// inputs.
    pub fn mismatch_delta(
        &self,
        commit_path: &Ladder<T>,
        budget: Budget,
        tally: &mut Tally,
    ) -> Summary {
        let off = Trace::off();
        let with = repeat(&off, "seq", budget / 2, || {
            self.seq(&off, &self.options, tally)
        });
        let without = repeat(&off, "seq-commit-path", budget / 2, || {
            commit_path.seq(&off, &commit_path.options, tally)
        });
        Summary::exact(with.ns_per(self.len()).value - without.ns_per(self.len()).value)
    }
}

/// Round trips through the pool with empty jobs: what dispatch alone costs.
pub fn pool_micro(values: &mut Values, pool: &Arc<ThreadPool>, trace: &Trace, budget: Budget) {
    const ROUNDS: usize = 200;
    let per_round =
        |timed: Timed, per: usize| timed.wall().map(|s| s * 1e9 / (ROUNDS * per) as f64);
    let scope = repeat(trace, "pool-scope", budget / 3, || {
        time(|| {
            for _ in 0..ROUNDS {
                pool.scope(vec![(|_| {}) as fn(usize); 2]);
            }
        })
        .1
    });
    values.set("pool.scope_roundtrip_ns", per_round(scope, 1));
    let execute = repeat(trace, "pool-execute", budget / 3, || {
        time(|| {
            for _ in 0..ROUNDS {
                let (tx, rx) = std::sync::mpsc::channel();
                pool.execute(move || {
                    let _ = tx.send(());
                });
                let _ = rx.recv();
            }
        })
        .1
    });
    values.set("pool.execute_roundtrip_ns", per_round(execute, 1));
    let map = repeat(trace, "pool-map", budget / 3, || {
        time(|| {
            for _ in 0..ROUNDS {
                std::hint::black_box(pool.map((0..16u64).collect(), |x| x + 1));
            }
        })
        .1
    });
    values.set("pool.map_ns_per_item", per_round(map, 16));
}

/// The pool's own counters over a pooled rung whose repetitions summed to
/// `busy_wall_s` seconds.
pub fn pool_counters(
    values: &mut Values,
    before: &stats_core::PoolMetrics,
    after: &stats_core::PoolMetrics,
    busy_wall_s: f64,
    workers: usize,
) {
    let busy = after
        .total_busy()
        .saturating_sub(before.total_busy())
        .as_secs_f64();
    values.set(
        "pool.utilization",
        Summary::exact(busy / (busy_wall_s * workers as f64).max(1e-9)),
    );
    values.set(
        "pool.steals",
        Summary::exact((after.steals - before.steals) as f64),
    );
    values.set(
        "pool.jobs_executed",
        Summary::exact((after.jobs_executed - before.jobs_executed) as f64),
    );
    values.set(
        "pool.max_injector_depth",
        Summary::exact(after.max_injector_depth as f64),
    );
}

/// Median and p99 (where ten samples lie beyond) of GroupStart →
/// GroupCommit, in µs, from one run's recorded events.
fn commit_latencies_us(events: &[stats_core::Event]) -> (f64, f64) {
    let mut started = std::collections::BTreeMap::new();
    let mut latencies = Vec::new();
    for event in events {
        match event.kind {
            EventKind::GroupStart { group, .. } => {
                started.insert(group, event.at);
            }
            EventKind::GroupCommit { group, .. } => {
                if let Some(at) = started.remove(&group) {
                    latencies.push(event.at.saturating_sub(at).as_nanos() as f64 / 1e3);
                }
            }
            _ => {}
        }
    }
    let (p50, p99, _) = median_and_tail(&latencies, 99);
    (p50, p99)
}

/// Simulated makespan on one core over makespan on two, for `trace` on a
/// one-socket, two-core, no-SMT platform with no intra-invocation
/// parallelism.
pub fn predicted_speedup_2(trace: &SpecTrace) -> f64 {
    let no_tlp = OriginalTlp {
        parallel_fraction: 0.0,
        sync_overhead: 0.0,
        max_threads: 1,
        mem_fraction: 0.0,
    };
    let two_cores = Platform {
        sockets: 1,
        cores_per_socket: 2,
        smt_per_core: 1,
        ..Platform::haswell_r730()
    };
    let graph = expand_trace(trace, &no_tlp, 1);
    let one = simulate(&graph, &two_cores, 1).makespan_seconds();
    let two = simulate(&graph, &two_cores, 2).makespan_seconds();
    if two > 0.0 {
        one / two
    } else {
        0.0
    }
}
