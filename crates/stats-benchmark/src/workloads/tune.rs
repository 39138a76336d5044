//! `tune`: the offline pipeline — compile a `.stats` source, generate and
//! instantiate auxiliary code, fetch a tradeoff value through the bytecode
//! engine, search the state space of swaptions, expand the winner's trace
//! and schedule it on the simulated 28-core platform. It uses the compiler,
//! autotuner, profiler and simulator, and none of the runtime's concurrent
//! layers: a change to pool, session or server must leave it alone.
//!
//! Its ladder: the serial search (`seq`), the same search on two worker
//! threads (`par`), and one whole pipeline pass (`job`).

use std::time::{Duration, Instant};

use stats_autotune::{Configuration, IntegerParameter, Measurement, Objective, SearchSpace, Tuner};
use stats_compiler::bytecode::BytecodeInterp;
use stats_compiler::interp::{Interp, Value};
use stats_compiler::ir::Module;
use stats_compiler::{backend, frontend, midend};
use stats_core::{run_protocol_with_options, RunOptions};
use stats_profiler::{
    expand_trace, measure_instance, tune, tune_parallel, Mode, RunSettings, TuneResult,
};
use stats_sim::{simulate, Platform};
use stats_workloads::swaptions::Swaptions;
use stats_workloads::{Workload, WorkloadSpec};

use super::{Prepared, Sizes};
use crate::env::pool_workers;
use crate::harness::{job_spread, part, repeat, rounds, time, Block, Budget, Jobs, Tally, Timed};
use crate::metrics::Values;
use crate::openloop::SplitMix;
use crate::span::{layer_self, Trace};
use crate::summary::Summary;

/// The compiled program: a copy of `examples/dsl/bodytrack_mini.stats`,
/// kept with the benchmark so its input does not move under it.
const SOURCE: &str = include_str!("../../data/bodytrack_mini.stats");
/// The computed tradeoff whose `getValue(i)` the engines are timed on.
const GET_VALUE: &str = "T_numAnnealingLayers_getValue";
/// Seed of the tuner's own random search. A knob of the program, not an
/// input: `--seed` generates the training instance; which configurations the
/// bandit happens to propose (and how many of them the results database
/// already answers) moved trials/s by ±15 % from one search seed to another.
const SEARCH_SEED: u64 = 1;
/// Hardware threads of the simulated platform the search allocates.
const THREADS: usize = 28;
/// Calls per repetition of the `get_value` micro rungs.
const GET_VALUE_CALLS: usize = 2_000;

/// What a search decided, bit for bit: equal digests mean the same trials
/// in the same order with the same measurements.
fn search_digest(result: &TuneResult) -> (Configuration, u64, Vec<u64>) {
    (
        result.outcome.best.clone(),
        result.best_measurement.time_s.to_bits(),
        result
            .outcome
            .history
            .trials()
            .map(|(_, _, objective)| objective.to_bits())
            .collect(),
    )
}

/// The workload after set-up.
pub struct Tune {
    spec: WorkloadSpec,
    search_seed: u64,
    budget: usize,
    pipeline_budget: usize,
    /// The compiled module, for the layer micro rungs.
    module: Module,
    search_reference: (Configuration, u64, Vec<u64>),
    pass_reference: Vec<u64>,
}

impl Tune {
    /// Compile the source once and record what the search and one pipeline
    /// pass must reproduce.
    pub fn new(seed: u64, sizes: &Sizes) -> Self {
        let mut rng = SplitMix(seed);
        let spec = WorkloadSpec {
            inputs: sizes.tune_inputs,
            seed: rng.next_u64(),
            ..WorkloadSpec::default()
        };
        let search_seed = SEARCH_SEED;
        let module =
            midend::run(frontend::compile(SOURCE).expect("the benchmark's source compiles"))
                .expect("the middle-end accepts it");
        let mut tune = Tune {
            spec,
            search_seed,
            budget: sizes.tune_budget,
            pipeline_budget: sizes.pipeline_budget,
            module,
            search_reference: (Vec::new(), 0, Vec::new()),
            pass_reference: Vec::new(),
        };
        tune.search_reference = search_digest(&tune.search(1));
        tune.pass_reference = tune.pipeline(&Trace::off()).expect("the pipeline runs");
        tune
    }

    fn search(&self, workers: usize) -> TuneResult {
        let w = Swaptions;
        if workers <= 1 {
            tune(
                &w,
                &self.spec,
                THREADS,
                Objective::Time,
                self.budget,
                self.search_seed,
            )
        } else {
            tune_parallel(
                &w,
                &self.spec,
                THREADS,
                Objective::Time,
                self.budget,
                self.search_seed,
                workers,
            )
        }
    }

    fn timed_search(&self, workers: usize, trace: &Trace, tally: &mut Tally) -> Duration {
        let name = if workers <= 1 {
            "tune"
        } else {
            "tune_parallel"
        };
        let (result, wall) = time(|| trace.span(name, || self.search(workers)));
        tally.check(
            result.outcome.history.len() == self.budget
                && search_digest(&result) == self.search_reference,
            || format!("{name}: the search differs from the serial reference"),
        );
        wall
    }

    /// One whole pass, compile to simulate; returns the bits of everything
    /// it computed so two passes can be compared.
    fn pipeline(&self, trace: &Trace) -> Result<Vec<u64>, String> {
        let compiled = trace
            .span("frontend::compile", || frontend::compile(SOURCE))
            .map_err(|e| e.to_string())?;
        let module = trace
            .span("midend::run", || midend::run(compiled))
            .map_err(|e| e.to_string())?;
        let config = [("body".to_string(), vec![9, 3, 1])].into_iter().collect();
        let binary = trace
            .span("backend::instantiate", || {
                backend::instantiate(&module, &config)
            })
            .map_err(|e| e.to_string())?;
        let value = trace
            .span("BytecodeInterp::call", || {
                BytecodeInterp::new(&binary).call(GET_VALUE, &[Value::Int(7)])
            })
            .map_err(|e| format!("{e:?}"))?
            .map_or(0.0, Value::as_float);

        let w = Swaptions;
        let tuned = trace.span("tune", || {
            tune(
                &w,
                &self.spec,
                THREADS,
                Objective::Time,
                self.pipeline_budget,
                self.search_seed,
            )
        });
        let settings = RunSettings {
            threads: tuned.best.alloc.clamp(1, THREADS),
            t_orig: tuned.best.t_orig,
            spec_config: tuned.best.spec_config.clone(),
            ..RunSettings::for_mode(&w, Mode::ParStats, THREADS)
        };
        let instance = w.instance(&self.spec);
        let measured = trace.span("measure_instance", || {
            measure_instance(&w, &instance, &self.spec, &settings)
        });
        let options = RunOptions::default()
            .config(settings.spec_config.clone())
            .seed(settings.run_seed);
        let run = trace.span("run_protocol_with_options", || {
            run_protocol_with_options(
                &instance.transition,
                &instance.inputs,
                &instance.initial,
                &options,
            )
        });
        let graph = trace.span("expand_trace", || {
            expand_trace(&run.trace, &w.original_tlp(), settings.t_orig)
        });
        let schedule = trace.span("simulate", || {
            simulate(&graph, &Platform::haswell_r730(), settings.threads)
        });
        let mut bits = vec![
            value.to_bits(),
            tuned.best_measurement.time_s.to_bits(),
            measured.time_s.to_bits(),
            schedule.makespan_seconds().to_bits(),
            graph.len() as u64,
        ];
        bits.extend(tuned.outcome.best.iter().map(|&v| v as u64));
        Ok(bits)
    }

    fn timed_pipeline(&self, trace: &Trace, tally: &mut Tally) -> Duration {
        let (bits, wall) = time(|| self.pipeline(trace));
        tally.check(bits.as_ref() == Ok(&self.pass_reference), || {
            format!(
                "pipeline: pass differs from the reference ({:?})",
                bits.err()
            )
        });
        wall
    }

    /// ns per `getValue(i)` call on an engine already built for the module.
    fn get_value_ns(
        &self,
        trace: &Trace,
        rung: &'static str,
        budget: Budget,
        tally: &mut Tally,
        mut call: impl FnMut(i64) -> Option<f64>,
    ) -> Summary {
        repeat(trace, rung, budget, || {
            let start = Instant::now();
            let mut sum = 0.0;
            for i in 0..GET_VALUE_CALLS as i64 {
                sum += call(i % 10).unwrap_or(f64::NAN);
            }
            let wall = start.elapsed();
            // value(i) = i + 1, so 200 rounds of 0..10 sum to 200 * 55.
            tally.check(sum == (GET_VALUE_CALLS / 10 * 55) as f64, || {
                format!("{rung}: getValue returned the wrong values (sum {sum})")
            });
            wall
        })
        .ns_per(GET_VALUE_CALLS)
    }
}

impl Prepared for Tune {
    fn warm(&mut self, reps: usize, tally: &mut Tally) {
        let off = Trace::off();
        for _ in 0..reps {
            self.timed_search(1, &off, tally);
            self.timed_search(pool_workers().max(2), &off, tally);
            self.timed_pipeline(&off, tally);
        }
    }

    fn run(&mut self, budget: Budget, tally: &mut Tally) -> Block {
        let off = Trace::off();
        let (mut seq, mut par, mut passes) = Default::default();
        rounds(budget, |slice| {
            Timed::merge(
                &mut seq,
                repeat(&off, "tune", part(slice, 0.25), || {
                    self.timed_search(1, &off, tally)
                }),
            );
            Timed::merge(
                &mut par,
                repeat(&off, "tune_parallel", part(slice, 0.25), || {
                    self.timed_search(pool_workers().max(2), &off, tally)
                }),
            );
            Timed::merge(
                &mut passes,
                repeat(&off, "pipeline", part(slice, 0.5), || {
                    self.timed_pipeline(&off, tally)
                }),
            );
        });
        Block {
            seq,
            seq_ops: self.budget,
            par,
            par_ops: self.budget,
            jobs: Jobs::closed(&passes),
        }
    }

    fn run_traced(&mut self, budget: Budget, trace: &Trace, tally: &mut Tally) -> Values {
        let mut values = Values::default();
        let slice = part(budget, 1.0 / 6.0);
        let double = part(budget, 2.0 / 6.0);

        // The pipeline under the span recorder: per-layer self times.
        let passes = repeat(trace, "pipeline", double, || {
            self.timed_pipeline(trace, tally)
        });
        let pass_ms: Vec<f64> = passes.walls.iter().map(|s| s * 1e3).collect();
        job_spread(&mut values, &pass_ms, 90);
        let spans = trace.spans();
        let reps = passes.walls.len() as f64;
        let per_pass_us =
            |name: &str| layer_self(&spans, "pipeline", name).1.as_secs_f64() * 1e6 / reps;
        values.set(
            "frontend.compile_us",
            Summary::exact(per_pass_us("frontend::compile")),
        );
        values.set("midend.run_us", Summary::exact(per_pass_us("midend::run")));
        values.set(
            "backend.instantiate_us",
            Summary::exact(per_pass_us("backend::instantiate")),
        );
        values.set(
            "profiler.measure_us",
            Summary::exact(per_pass_us("measure_instance")),
        );
        let w = Swaptions;
        let instance = w.instance(&self.spec);
        let settings = RunSettings::for_mode(&w, Mode::ParStats, THREADS);
        let options = RunOptions::default()
            .config(settings.spec_config.clone())
            .seed(settings.run_seed);
        let run = run_protocol_with_options(
            &instance.transition,
            &instance.inputs,
            &instance.initial,
            &options,
        );
        let nodes = run.trace.nodes.len();
        let mut tasks = 0usize;
        let expand = repeat(trace, "expand", slice / 2, || {
            let (graph, wall) =
                time(|| expand_trace(&run.trace, &w.original_tlp(), settings.t_orig));
            tasks = graph.len();
            wall
        });
        values.set("profiler.expand_trace_ns_per_node", expand.ns_per(nodes));
        let graph = expand_trace(&run.trace, &w.original_tlp(), settings.t_orig);
        let sim = repeat(trace, "simulate", slice / 2, || {
            time(|| std::hint::black_box(simulate(&graph, &Platform::haswell_r730(), THREADS))).1
        });
        values.set("sim.simulate_ns_per_task", sim.ns_per(tasks));

        // The two engines on the same `getValue`.
        let mut bytecode = BytecodeInterp::new(&self.module).with_fuel(u64::MAX);
        let ns = self.get_value_ns(trace, "bytecode", slice / 2, tally, |i| {
            bytecode
                .call(GET_VALUE, &[Value::Int(i)])
                .ok()
                .flatten()
                .map(Value::as_float)
        });
        values.set("bytecode.get_value_ns", ns);
        let mut interp = Interp::new(&self.module).with_fuel(u64::MAX);
        let ns = self.get_value_ns(trace, "interp", slice / 2, tally, |i| {
            interp
                .call(GET_VALUE, &[Value::Int(i)])
                .ok()
                .flatten()
                .map(Value::as_float)
        });
        values.set("interp.get_value_ns", ns);

        // The tuner alone: the same budget over a constant objective.
        let space = SearchSpace::new()
            .with(IntegerParameter::new("a", 0, 15))
            .with(IntegerParameter::new("b", 0, 15))
            .with(IntegerParameter::new("c", 0, 15));
        let overhead = repeat(trace, "tuner", slice / 2, || {
            let tuner = Tuner::new(space.clone(), Objective::Time, self.search_seed);
            let (out, wall) = time(|| {
                tuner.run(self.budget, |_| Measurement {
                    time_s: 1.0,
                    energy_j: 1.0,
                })
            });
            tally.check(out.0.history.len() == self.budget, || {
                "tuner: the constant search lost trials".into()
            });
            wall
        });
        values.set(
            "tuner.overhead_us_per_trial",
            overhead.wall().map(|s| s * 1e6 / self.budget as f64),
        );
        let serial = repeat(trace, "tune", slice / 2, || {
            self.timed_search(1, trace, tally)
        });
        let parallel = repeat(trace, "tune_parallel", slice / 2, || {
            self.timed_search(pool_workers().max(2), trace, tally)
        });
        values.set(
            "tuner.parallel_vs_serial",
            Summary::exact(serial.wall().value / parallel.wall().value),
        );
        values
    }
}
