//! `serve_open`: the only open-loop workload. Tenants arrive on an absolute
//! seeded-exponential schedule at a fixed reference rate, each bursting its
//! inputs into one shared `SessionServer` whose admission window and spill
//! bounds are small enough that the spill path engages; one closer thread
//! finishes them. Latency runs from a tenant's *due* time to its drained
//! outcome. It is the one workload dominated by admission and spill I/O.
//!
//! Its ladder: every tenant through the sequential protocol (`seq`), through
//! a solo `Session` (`par`), and through the server on schedule (`job`).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stats_core::serve::SpillQueue;
use stats_core::{
    run_protocol_with_options, RunOptions, ServerMetrics, ServerOptions, Session, SessionServer,
    SpecConfig, TenantHandle, ThreadPool,
};

use super::{Prepared, Sizes};
use crate::env::cpu_seconds;
use crate::harness::{job_spread, part, repeat, rounds, time, Block, Budget, Jobs, Tally, Timed};
use crate::ladder::{pool_counters, pool_micro};
use crate::metrics::Values;
use crate::openloop::{exponential_schedule, pace, Clock, SplitMix, WallClock};
use crate::run::Scratch;
use crate::span::{layer_self, Trace};
use crate::summary::{median_and_tail, Summary};
use crate::transitions::{lcg_inputs, BitEq, Lcg, Level, Shared};

/// A tenant's p99 must stay under this for a rate to count as sustained.
const LATENCY_LIMIT_MS: f64 = 20.0;
/// Inputs of the single long tenant behind `serve.closed_ns_per_input`.
const LONG_TENANT_INPUTS: usize = 2_000;

/// Inputs per spill segment file. With the 2-input admission window and the
/// 4-input in-memory head, an ordinary tenant's 16-input burst goes through
/// the spill queue in memory and a long tenant's 48-input burst puts two
/// segments on disk. With segments of 4 every tenant wrote two or three
/// files, and on the reference box's ext4 that many creates and unlinks made
/// each run slower than the last (+25 % over eight runs, back to normal
/// after a pause; none of it on tmpfs).
const SPILL_SEGMENT: usize = 16;
/// Tail percentile per latency window.
const TAIL_PCT: u32 = 95;
/// Tenants of one closed-loop repetition.
const CLOSED_TENANTS: usize = 64;
/// Tenants of one repetition of the `seq` and `par` rungs: a quarter of the
/// population, so a slice of the run holds several repetitions.
const RUNG_TENANTS: usize = 256;

type Server = SessionServer<Shared<Lcg>>;
type Handle = TenantHandle<Shared<Lcg>>;

struct Tenant {
    inputs: Vec<u64>,
    options: RunOptions,
    /// Outputs of the sequential protocol: what every other path must equal.
    reference: Vec<f64>,
}

/// What one open-loop pass measured.
struct Pass {
    /// Due time → drained outcome, ms, in arrival order.
    latency_ms: Vec<f64>,
    /// How late the generator fired each tenant, µs.
    late_us: Vec<f64>,
    /// Tenants open when half of them had been sent, and when all had.
    backlog_half: usize,
    backlog_end: usize,
    /// Process CPU seconds at the start of the pass and each time the
    /// closer had finished another `serve_job_window` tenants.
    cpu_marks: Vec<f64>,
}

/// The workload after set-up.
pub struct Serve {
    sizes: Sizes,
    seed: u64,
    transition: Shared<Lcg>,
    tenants: Vec<Tenant>,
    pool: Arc<ThreadPool>,
    server: Server,
    scratch: Scratch,
}

impl Serve {
    /// Generate the tenant population and their references; stand the
    /// server up on the shared pool with its spill directory in scratch.
    pub fn new(seed: u64, sizes: &Sizes, pool: Arc<ThreadPool>) -> Self {
        let mut rng = SplitMix(seed);
        let run_seed = rng.next_u64();
        let transition = Shared(Arc::new(Lcg {
            rounds: 8,
            carry: false,
        }));
        let tenants = (0..sizes.serve_population)
            .map(|t| {
                let burst = if (t + 1) % sizes.serve_long_every == 0 {
                    sizes.serve_long_burst
                } else {
                    sizes.serve_burst
                };
                let inputs = lcg_inputs(&mut rng, burst, 0.0);
                let options = RunOptions::default()
                    .config(SpecConfig {
                        group_size: 4,
                        window: 1,
                        max_reexec: 2,
                        ..SpecConfig::default()
                    })
                    .seed(run_seed.wrapping_add(t as u64));
                let reference =
                    run_protocol_with_options(&transition, &inputs, &Level(0.0), &options).outputs;
                Tenant {
                    inputs,
                    options,
                    reference,
                }
            })
            .collect();
        let scratch = Scratch::new().expect("scratch directory for spill segments");
        let server = SessionServer::new(
            Arc::clone(&pool),
            ServerOptions::default()
                .session_queue_capacity(2)
                .spill_mem_capacity(4)
                .spill_segment(SPILL_SEGMENT)
                .spill_dir(scratch.path().join("spill")),
        );
        Serve {
            sizes: sizes.clone(),
            seed,
            transition,
            tenants,
            pool,
            server,
            scratch,
        }
    }

    /// The tenants the `seq` and `par` rungs run.
    fn rung_tenants(&self) -> &[Tenant] {
        &self.tenants[..RUNG_TENANTS.min(self.tenants.len())]
    }

    /// `seq` rung: the rung tenants through `run_protocol_with_options`.
    fn protocol_pass(&self, tally: &mut Tally) -> Duration {
        let (ok, wall) = time(|| {
            self.rung_tenants().iter().all(|t| {
                run_protocol_with_options(&self.transition, &t.inputs, &Level(0.0), &t.options)
                    .outputs
                    .bit_eq(&t.reference)
            })
        });
        tally.check(ok, || {
            "protocol: a tenant differs from its reference".into()
        });
        wall
    }

    /// `par` rung: the rung tenants through a solo `Session` each, on the
    /// shared pool.
    fn solo_pass(&self, trace: &Trace, tally: &mut Tally) -> Duration {
        let start = Instant::now();
        let mut mismatched = 0usize;
        for t in self.rung_tenants() {
            let options = t.options.clone().pool(Arc::clone(&self.pool));
            let session = trace.span("Session::new", || {
                Session::new(Level(0.0), self.transition.clone(), options)
            });
            let pushed = trace.span("Session::push_batch", || {
                session.try_push_batch(t.inputs.iter().copied())
            });
            let outcome = trace.span("Session::finish", || session.finish());
            mismatched += usize::from(pushed.is_err() || !outcome.outputs.bit_eq(&t.reference));
        }
        let wall = start.elapsed();
        tally.check(mismatched == 0, || {
            format!("solo: {mismatched} tenants differ from their reference")
        });
        wall
    }

    fn open(&self, t: &Tenant, trace: &Trace) -> (Handle, bool) {
        let handle = trace.span("SessionServer::open_tenant", || {
            self.server
                .open_tenant(Level(0.0), self.transition.clone(), t.options.clone())
        });
        let pushed = trace.span("TenantHandle::try_push_batch", || {
            handle.try_push_batch(t.inputs.iter().copied())
        });
        (handle, pushed.is_ok())
    }

    /// One open-loop pass of `count` tenants at `rate` per second. Every
    /// tenant is one operation: refused, failed or differing from its
    /// reference counts as failed.
    fn open_loop(
        &self,
        rate: f64,
        count: usize,
        pass_no: u64,
        trace: &Trace,
        tally: &mut Tally,
    ) -> Pass {
        let mut rng = SplitMix(self.seed ^ 0x0A11_1A7E ^ pass_no.wrapping_mul(0x9E37_79B9));
        let schedule = exponential_schedule(&mut rng, rate, count);
        let clock = WallClock::start();
        let (tx, rx) = mpsc::channel::<(usize, Handle, Duration, bool)>();
        let job_window = self.sizes.serve_job_window;
        let mut cpu_marks = vec![cpu_seconds()];
        let cpu_marks_mut = &mut cpu_marks;
        let (mut backlog_half, mut backlog_end) = (0, 0);
        let references: Vec<&Vec<f64>> = self.tenants.iter().map(|t| &t.reference).collect();
        let (references, clock) = (&references, &clock);
        let (late, served) = std::thread::scope(|s| {
            let closer = s.spawn(move || {
                rx.iter()
                    .map(|(i, handle, due, pushed)| {
                        let outcome = trace.span("TenantHandle::finish", || handle.finish());
                        let latency = clock.now().saturating_sub(due);
                        let reference = references[i % references.len()];
                        let ok = pushed && outcome.is_ok_and(|o| o.outputs.bit_eq(reference));
                        // Tenants are finished in arrival order: this is
                        // the end of a window of them.
                        if (i + 1) % job_window == 0 {
                            cpu_marks_mut.push(cpu_seconds());
                        }
                        (latency.as_secs_f64() * 1e3, ok)
                    })
                    .collect::<Vec<_>>()
            });
            let late = pace(clock, &schedule, |i, due| {
                let (handle, pushed) = self.open(&self.tenants[i % self.tenants.len()], trace);
                tx.send((i, handle, due, pushed))
                    .expect("the closer outlives the generator");
                if i + 1 == count / 2 {
                    backlog_half = self.server.open_tenants();
                }
            });
            backlog_end = self.server.open_tenants();
            drop(tx);
            (late, closer.join().expect("closer thread"))
        });
        for (i, (_, ok)) in served.iter().enumerate() {
            tally.check(*ok, || {
                format!("tenant {i} refused, failed or differs from solo")
            });
        }
        tally.check(served.len() == count, || {
            "a tenant was never finished".into()
        });
        Pass {
            latency_ms: served.iter().map(|(ms, _)| *ms).collect(),
            late_us: late.iter().map(|d| d.as_secs_f64() * 1e6).collect(),
            backlog_half,
            backlog_end,
            cpu_marks,
        }
    }

    /// Tenants for an open-loop pass of `budget` at `rate`: whole windows
    /// of `window`, at least one.
    fn tenants_for(&self, budget: Budget, rate: f64, window: usize) -> usize {
        ((budget.time.as_secs_f64() * rate) as usize / window).max(1) * window
    }

    /// Each latency window's median and tail.
    fn windowed(&self, latency_ms: &[f64]) -> (Vec<f64>, Vec<f64>) {
        latency_ms
            .chunks(self.sizes.serve_window)
            .map(|w| {
                let (p50, tail, _) = median_and_tail(w, TAIL_PCT);
                (p50, tail)
            })
            .unzip()
    }

    /// The first `count` tenants, one at a time through the server: open,
    /// burst, finish.
    fn closed_pass(&self, count: usize, trace: &Trace, tally: &mut Tally) -> Duration {
        let start = Instant::now();
        let mut bad = 0usize;
        for t in &self.tenants[..count.min(self.tenants.len())] {
            let (handle, pushed) = self.open(t, trace);
            let outcome = trace.span("TenantHandle::finish", || handle.finish());
            bad += usize::from(!pushed || !outcome.is_ok_and(|o| o.outputs.bit_eq(&t.reference)));
        }
        let wall = start.elapsed();
        tally.check(bad == 0, || {
            format!("closed loop: {bad} tenants failed or differ")
        });
        wall
    }
}

/// Sum of a per-tenant counter over every tenant the server has seen.
fn total(metrics: &ServerMetrics, f: impl Fn(&stats_core::TenantMetrics) -> u64) -> f64 {
    metrics
        .open
        .iter()
        .chain(&metrics.retired)
        .map(|(_, m)| f(m))
        .sum::<u64>() as f64
}

impl Prepared for Serve {
    fn warm(&mut self, reps: usize, tally: &mut Tally) {
        let off = Trace::off();
        for _ in 0..reps {
            self.protocol_pass(tally);
        }
        self.solo_pass(&off, tally);
        self.closed_pass(CLOSED_TENANTS, &off, tally);
    }

    fn run(&mut self, budget: Budget, tally: &mut Tally) -> Block {
        let off = Trace::off();
        let rung_tenants = self.rung_tenants().len();
        let rate = self.sizes.serve_rate;
        let window = self.sizes.serve_job_window;
        let (mut seq, mut par) = (Timed::default(), Timed::default());
        let mut jobs = Jobs::default();
        rounds(budget, |slice| {
            seq.merge(repeat(&off, "seq", part(slice, 0.05), || {
                self.protocol_pass(tally)
            }));
            par.merge(repeat(&off, "solo", part(slice, 0.1), || {
                self.solo_pass(&off, tally)
            }));
            let count = self.tenants_for(part(slice, 0.85), rate, window);
            let pass = self.open_loop(rate, count, 0, &off, tally);
            // One sample per window of tenants: the window's median
            // latency, and its CPU time over its tenants.
            jobs.ms.extend(
                pass.latency_ms
                    .chunks(window)
                    .map(|w| median_and_tail(w, 50).0),
            );
            jobs.cpu_ms.extend(
                pass.cpu_marks
                    .windows(2)
                    .map(|m| (m[1] - m[0]) * 1e3 / window as f64),
            );
        });
        Block {
            seq,
            seq_ops: rung_tenants,
            par,
            par_ops: rung_tenants,
            jobs,
        }
    }

    fn run_traced(&mut self, budget: Budget, trace: &Trace, tally: &mut Tally) -> Values {
        let mut values = Values::default();
        pool_micro(&mut values, &self.pool, trace, part(budget, 0.06));

        // The reference rate, under the span recorder.
        let rate = self.sizes.serve_rate;
        let count = self.tenants_for(part(budget, 0.3), rate, self.sizes.serve_window);
        let pool_before = self.pool.metrics();
        let before = self.server.metrics();
        trace.context("open-loop", 0);
        let (pass, wall) = time(|| self.open_loop(rate, count, 1, trace, tally));
        let after = self.server.metrics();
        pool_counters(
            &mut values,
            &pool_before,
            &self.pool.metrics(),
            wall.as_secs_f64(),
            self.pool.threads(),
        );
        let delta = |f: fn(&stats_core::TenantMetrics) -> u64| total(&after, f) - total(&before, f);
        let pushed = delta(|m| m.pushed).max(1.0);
        values.set(
            "serve.admission.fast_path_share",
            Summary::exact(delta(|m| m.fast_path) / pushed),
        );
        values.set(
            "serve.admission.admitted",
            Summary::exact(delta(|m| m.admitted)),
        );
        values.set(
            "serve.spill.spilled_share",
            Summary::exact(delta(|m| m.spill.spilled_inputs) / pushed),
        );
        values.set(
            "serve.spill.segments",
            Summary::exact(delta(|m| m.spill.spilled_segments)),
        );
        let spans = trace.spans();
        let per_tenant_us = |name: &str| {
            let (calls, own) = layer_self(&spans, "open-loop", name);
            own.as_secs_f64() * 1e6 / calls.max(1) as f64
        };
        values.set(
            "serve.open_tenant_us",
            Summary::exact(per_tenant_us("SessionServer::open_tenant")),
        );
        let (_, pushing) = layer_self(&spans, "open-loop", "TenantHandle::try_push_batch");
        values.set(
            "serve.try_push_ns_per_input",
            Summary::exact(pushing.as_nanos() as f64 / pushed),
        );
        values.set(
            "serve.finish_wait_us",
            Summary::exact(per_tenant_us("TenantHandle::finish")),
        );
        let (_, late_p99, _) = median_and_tail(&pass.late_us, 99);
        values.set("serve.generator_late_us_p99", Summary::exact(late_p99));
        values.set("serve.backlog_end", Summary::exact(pass.backlog_end as f64));
        let reference_tail = Summary::of(&self.windowed(&pass.latency_ms).1);
        job_spread(&mut values, &pass.latency_ms, 99);

        // Twice the reference rate: does a backlog grow?
        let high = self.sizes.serve_high_rate;
        let count = self.tenants_for(part(budget, 0.2), high, self.sizes.serve_window);
        trace.context("open-loop-high", 0);
        let fast = self.open_loop(high, count, 2, trace, tally);
        let high_tail = Summary::of(&self.windowed(&fast.latency_ms).1);
        values.set("serve.high_rate_p99_ms", high_tail);
        let sustained = |p: &Pass, tail: f64| {
            tail <= LATENCY_LIMIT_MS && p.backlog_end <= 2 * p.backlog_half + 8
        };
        values.set(
            "serve.sustained_tenants_per_s",
            Summary::exact(if sustained(&fast, high_tail.value) {
                high
            } else if sustained(&pass, reference_tail.value) {
                rate
            } else {
                0.0
            }),
        );

        // Closed loop: one tenant in flight at a time.
        let closed = repeat(trace, "closed-loop", part(budget, 0.12), || {
            self.closed_pass(CLOSED_TENANTS, trace, tally)
        });
        values.set(
            "serve.closed_tenants_per_s",
            closed.rate(CLOSED_TENANTS.min(self.tenants.len())),
        );

        // One long tenant against the same inputs through a solo session:
        // what the front door adds per input once the burst is past.
        let mut rng = SplitMix(self.seed ^ 0x10_46);
        let inputs = lcg_inputs(
            &mut rng,
            LONG_TENANT_INPUTS.min(self.sizes.light_inputs),
            0.0,
        );
        let options = self.tenants[0].options.clone();
        let long = Tenant {
            reference: run_protocol_with_options(&self.transition, &inputs, &Level(0.0), &options)
                .outputs,
            inputs,
            options,
        };
        let n = long.inputs.len();
        let served = repeat(trace, "long-tenant", part(budget, 0.1), || {
            let start = Instant::now();
            let (handle, pushed) = self.open(&long, trace);
            let outcome = trace.span("TenantHandle::finish", || handle.finish());
            let wall = start.elapsed();
            tally.check(
                pushed && outcome.is_ok_and(|o| o.outputs.bit_eq(&long.reference)),
                || "long tenant: refused, failed or differs".into(),
            );
            wall
        });
        let solo = repeat(trace, "long-solo", part(budget, 0.1), || {
            let options = long.options.clone().pool(Arc::clone(&self.pool));
            let start = Instant::now();
            let session = Session::new(Level(0.0), self.transition.clone(), options);
            for batch in long.inputs.chunks(256) {
                session.push_batch(batch.iter().copied());
            }
            let outcome = session.finish();
            let wall = start.elapsed();
            tally.check(outcome.outputs.bit_eq(&long.reference), || {
                "long solo: differs from the reference".into()
            });
            wall
        });
        values.set("serve.closed_ns_per_input", served.ns_per(n));
        values.set(
            "serve.delta_ns_per_input",
            Summary::exact(served.ns_per(n).value - solo.ns_per(n).value),
        );

        // The spill queue alone, on the same scratch directory.
        const SPILL_OPS: usize = 2048;
        let (mut push_ns, mut pop_ns) = (Vec::new(), Vec::new());
        repeat(trace, "spill-queue", part(budget, 0.06), || {
            let mut queue = SpillQueue::<u64>::new(self.scratch.path().join("queue"), 4, 4);
            let (pushed, push_wall) = time(|| (0..SPILL_OPS as u64).all(|i| queue.push(i).is_ok()));
            let (popped, pop_wall) = time(|| {
                let mut next = 0u64;
                while let Ok(Some((value, _))) = queue.pop() {
                    if value != next {
                        break;
                    }
                    next += 1;
                }
                next
            });
            tally.check(pushed && popped == SPILL_OPS as u64, || {
                "spill queue: push failed or pop order broke".into()
            });
            push_ns.push(push_wall.as_secs_f64() * 1e9 / SPILL_OPS as f64);
            pop_ns.push(pop_wall.as_secs_f64() * 1e9 / SPILL_OPS as f64);
            push_wall + pop_wall
        });
        values.set("serve.spill.push_ns", Summary::of(&push_ns));
        values.set("serve.spill.pop_ns", Summary::of(&pop_ns));
        values
    }
}
