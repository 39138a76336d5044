//! The experiment implementations, one per table/figure.

use stats_autotune::Objective;
use stats_core::{run_protocol, SpecConfig, ThreadPool, TradeoffBindings};
use stats_profiler::{
    measure, tune, DecodedConfig, FullMeasurement, Mode, RunSettings, TuneResult,
};
use stats_sim::Platform;
use stats_workloads::{
    metrics::geometric_mean, with_workload, BenchmarkId, NondetSource, Workload, WorkloadSpec,
};

/// Knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Inputs per workload instance.
    pub inputs: usize,
    /// Repetitions for variability studies (the paper uses 100 runs).
    pub seeds: usize,
    /// Autotuner trial budget (the paper converges within 88).
    pub tune_budget: usize,
    /// Hardware-thread counts for scalability curves.
    pub threads: Vec<usize>,
    /// Maximum hardware threads (the paper's 28-core platform).
    pub max_threads: usize,
}

impl Settings {
    /// Minimal sizes, for smoke runs (`figures --tiny`).
    pub fn tiny() -> Self {
        Settings {
            inputs: 12,
            seeds: 3,
            tune_budget: 6,
            threads: vec![4, 28],
            max_threads: 28,
        }
    }

    /// Small sizes, for tests and quick looks (`figures --quick`).
    pub fn quick() -> Self {
        Settings {
            inputs: 32,
            seeds: 4,
            tune_budget: 16,
            threads: vec![2, 8, 16, 28],
            max_threads: 28,
        }
    }

    /// The sizes used by the `figures` binary.
    pub fn full() -> Self {
        Settings {
            inputs: 128,
            seeds: 12,
            tune_budget: 88,
            threads: (1..=14).map(|i| i * 2).collect(),
            max_threads: 28,
        }
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            inputs: self.inputs,
            ..WorkloadSpec::default()
        }
    }
}

fn sequential_time(id: BenchmarkId, spec: &WorkloadSpec) -> f64 {
    with_workload!(id, |w| {
        measure(&w, spec, &RunSettings::for_mode(&w, Mode::Sequential, 1)).time_s
    })
}

fn original_time(id: BenchmarkId, spec: &WorkloadSpec, threads: usize) -> f64 {
    with_workload!(id, |w| {
        measure(
            &w,
            spec,
            &RunSettings::for_mode(&w, Mode::Original, threads),
        )
        .time_s
    })
}

fn tuned(
    id: BenchmarkId,
    spec: &WorkloadSpec,
    threads: usize,
    budget: usize,
    seed: u64,
) -> TuneResult {
    with_workload!(id, |w| tune(
        &w,
        spec,
        threads,
        Objective::Time,
        budget,
        seed
    ))
}

/// The highest of `speedups`, and never below 1.0: the sequential program
/// is always an option. Every "peak speedup" bar is this.
fn peak(speedups: impl IntoIterator<Item = f64>) -> f64 {
    speedups.into_iter().fold(1.0_f64, f64::max)
}

/// The original program's peak speedup over `seq` across the thread grid.
fn peak_original(settings: &Settings, bench: BenchmarkId, spec: &WorkloadSpec, seq: f64) -> f64 {
    peak(
        settings
            .threads
            .iter()
            .map(|&t| seq / original_time(bench, spec, t)),
    )
}

/// A tuned configuration run on `threads` software threads of `platform`,
/// its original TLP on `t_orig` of them (clamped to `1..=threads`). Callers
/// that honour the tuned thread allocation pass `cfg.alloc.clamp(1, t)` as
/// `threads`.
fn tuned_settings<W: Workload>(
    w: &W,
    cfg: &DecodedConfig,
    threads: usize,
    t_orig: usize,
    platform: &Platform,
) -> RunSettings {
    RunSettings {
        threads,
        t_orig: t_orig.clamp(1, threads),
        spec_config: cfg.spec_config.clone(),
        platform: platform.clone(),
        ..RunSettings::for_mode(w, Mode::ParStats, threads)
    }
}

/// [`tuned_settings`] measured on `bench`.
fn measure_tuned(
    bench: BenchmarkId,
    spec: &WorkloadSpec,
    cfg: &DecodedConfig,
    threads: usize,
    t_orig: usize,
    platform: &Platform,
) -> FullMeasurement {
    with_workload!(bench, |w| measure(
        &w,
        spec,
        &tuned_settings(&w, cfg, threads, t_orig, platform)
    ))
}

/// The first of a figure's two rounds over `pool`: every benchmark's
/// sequential time and its configuration tuned at `threads` threads with
/// search seed `seed`, one job per benchmark. The second round fans out
/// the measurement cells, which only depend on these.
fn seq_and_tuned(
    settings: &Settings,
    pool: &ThreadPool,
    threads: usize,
    seed: u64,
) -> Vec<(BenchmarkId, f64, DecodedConfig)> {
    let spec = settings.spec();
    let budget = settings.tune_budget;
    pool.map(BenchmarkId::all().to_vec(), move |bench| {
        let seq = sequential_time(bench, &spec);
        (bench, seq, tuned(bench, &spec, threads, budget, seed).best)
    })
}

// ---------------------------------------------------------------- Figure 2

/// One row of Figure 2.
#[derive(Debug, Clone)]
pub struct VariabilityRow {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Mean pairwise output distance across repeated runs (the paper's
    /// per-benchmark domain metric; log scale in the figure).
    pub variability: f64,
    /// Nondeterminism source (the figure's two bar colors).
    pub source: NondetSource,
}

/// Figure 2: output variability of the nondeterministic benchmarks across
/// repeated runs with random PRVG seeds.
pub fn fig02(settings: &Settings) -> Vec<VariabilityRow> {
    let spec = settings.spec();
    BenchmarkId::all()
        .into_iter()
        .map(|bench| {
            let (variability, source) = with_workload!(bench, |w| {
                let inst = w.instance(&spec);
                let cfg = SpecConfig {
                    orig_bindings: TradeoffBindings::defaults(&w.tradeoffs()),
                    ..SpecConfig::sequential()
                };
                let runs: Vec<_> = (0..settings.seeds as u64)
                    .map(|s| {
                        run_protocol(&inst.transition, &inst.inputs, &inst.initial, &cfg, s).outputs
                    })
                    .collect();
                let mut total = 0.0;
                let mut pairs = 0usize;
                for i in 0..runs.len() {
                    for j in (i + 1)..runs.len() {
                        total += w.output_distance(&runs[i], &runs[j]);
                        pairs += 1;
                    }
                }
                (total / pairs.max(1) as f64, w.nondet_source())
            });
            VariabilityRow {
                bench,
                variability,
                source,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Figure 3

/// One bar of Figure 3.
#[derive(Debug, Clone)]
pub struct MaxSpeedupRow {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Highest speedup of the out-of-the-box parallel program over its
    /// sequential version, across thread counts.
    pub max_speedup: f64,
}

/// Figure 3: highest speedup of the original benchmarks on 28 cores —
/// far from the ideal 28x, demonstrating the need for more TLP. Derived
/// from [`fig12`]'s curves: each bar is the peak of a benchmark's Original
/// curve.
pub fn fig03(curves: &[ScalabilityCurves]) -> (Vec<MaxSpeedupRow>, f64) {
    let rows: Vec<MaxSpeedupRow> = curves
        .iter()
        .map(|c| MaxSpeedupRow {
            bench: c.bench,
            max_speedup: peak(c.original.iter().copied()),
        })
        .collect();
    let geo = geometric_mean(&rows.iter().map(|r| r.max_speedup).collect::<Vec<_>>());
    (rows, geo)
}

// --------------------------------------------------------------- Figure 12

/// Scalability curves for one benchmark (Figure 12a–f).
#[derive(Debug, Clone)]
pub struct ScalabilityCurves {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Thread counts (x axis).
    pub threads: Vec<usize>,
    /// "Original" speedups.
    pub original: Vec<f64>,
    /// "Seq. STATS" speedups.
    pub seq_stats: Vec<f64>,
    /// "Par. STATS" speedups.
    pub par_stats: Vec<f64>,
}

impl ScalabilityCurves {
    /// Max of each curve (the adjoining bar graphs).
    pub fn maxima(&self) -> (f64, f64, f64) {
        let max = |v: &[f64]| peak(v.iter().copied());
        (
            max(&self.original),
            max(&self.seq_stats),
            max(&self.par_stats),
        )
    }
}

/// Figure 12: speedup vs hardware threads for Original / Seq. STATS /
/// Par. STATS, one set of curves per benchmark in [`BenchmarkId::all`]
/// order. The STATS lines use a configuration autotuned at the maximum
/// thread count (the paper's default operating mode).
///
/// Every (benchmark, thread count) cell is a pure function of the
/// settings, so fanning the cells over `pool` gives the same curves at any
/// pool size.
pub fn fig12(settings: &Settings, pool: &ThreadPool) -> Vec<ScalabilityCurves> {
    let spec = settings.spec();
    let tuned = seq_and_tuned(settings, pool, settings.max_threads, 1);
    let threads = settings.threads.clone();
    let cells: Vec<(usize, usize)> = (0..tuned.len())
        .flat_map(|b| threads.iter().map(move |&t| (b, t)))
        .collect();
    let r730 = Platform::haswell_r730();
    let speedups = pool.map(cells, move |(b, t)| {
        let (bench, seq, cfg) = &tuned[b];
        let alloc = cfg.alloc.clamp(1, t);
        let stats = |t_orig| seq / measure_tuned(*bench, &spec, cfg, alloc, t_orig, &r730).time_s;
        (
            seq / original_time(*bench, &spec, t),
            stats(1),
            stats(cfg.t_orig),
        )
    });
    BenchmarkId::all()
        .into_iter()
        .zip(speedups.chunks(threads.len()))
        .map(|(bench, row)| ScalabilityCurves {
            bench,
            threads: threads.clone(),
            original: row.iter().map(|c| c.0).collect(),
            seq_stats: row.iter().map(|c| c.1).collect(),
            par_stats: row.iter().map(|c| c.2).collect(),
        })
        .collect()
}

/// Figure 13: geometric mean of the Figure 12 curves.
pub fn fig13(curves: &[ScalabilityCurves]) -> (Vec<usize>, Vec<f64>, Vec<f64>) {
    let threads = curves[0].threads.clone();
    let mut original = Vec::new();
    let mut par = Vec::new();
    for i in 0..threads.len() {
        original.push(geometric_mean(
            &curves.iter().map(|c| c.original[i]).collect::<Vec<_>>(),
        ));
        par.push(geometric_mean(
            &curves.iter().map(|c| c.par_stats[i]).collect::<Vec<_>>(),
        ));
    }
    (threads, original, par)
}

// --------------------------------------------------------------- Figure 14

/// One group of Figure 14 bars.
#[derive(Debug, Clone)]
pub struct HyperThreadingRow {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Original, one socket, no HT (≤14 threads).
    pub original: f64,
    /// Original, one socket, HT (≤28 threads).
    pub original_ht: f64,
    /// Par. STATS, one socket, no HT.
    pub par_stats: f64,
    /// Par. STATS, one socket, HT.
    pub par_stats_ht: f64,
}

/// Figure 14: the Hyper-Threading study — execution constrained to one
/// socket, with and without the second hardware context per core. Each bar
/// is the *best* speedup over the mode's usable thread counts (up to 14
/// software threads without HT, up to 28 with), exactly as the paper
/// reports peak speedups. Par. STATS runs a configuration tuned at 14
/// threads; cells fan over `pool` as in [`fig12`].
pub fn fig14(settings: &Settings, pool: &ThreadPool) -> Vec<HyperThreadingRow> {
    let spec = settings.spec();
    let tuned = seq_and_tuned(settings, pool, 14, 2);
    // Thread counts without and with Hyper-Threading; each count of their
    // union is measured once.
    let (no_ht, ht) = ([4, 8, 11, 14], [4, 8, 14, 18, 22, 28]);
    let mut grid = no_ht.to_vec();
    grid.extend(ht.iter().filter(|t| !no_ht.contains(t)));
    let cells: Vec<(usize, usize)> = (0..tuned.len())
        .flat_map(|b| grid.iter().map(move |&t| (b, t)))
        .collect();
    let socket = Platform::haswell_single_socket();
    let speedups = pool.map(cells, move |(b, t)| {
        let (bench, seq, cfg) = &tuned[b];
        let original = with_workload!(*bench, |w| {
            let run = RunSettings {
                platform: socket.clone(),
                ..RunSettings::for_mode(&w, Mode::Original, t)
            };
            measure(&w, &spec, &run).time_s
        });
        let stats = measure_tuned(*bench, &spec, cfg, t, cfg.t_orig, &socket).time_s;
        (seq / original, seq / stats)
    });
    let best_over = |row: &[(f64, f64)], counts: &[usize], pick: fn(&(f64, f64)) -> f64| {
        peak(
            grid.iter()
                .zip(row)
                .filter(|(t, _)| counts.contains(t))
                .map(|(_, cell)| pick(cell)),
        )
    };
    BenchmarkId::all()
        .into_iter()
        .zip(speedups.chunks(grid.len()))
        .map(|(bench, row)| HyperThreadingRow {
            bench,
            original: best_over(row, &no_ht, |c| c.0),
            original_ht: best_over(row, &ht, |c| c.0),
            par_stats: best_over(row, &no_ht, |c| c.1),
            par_stats_ht: best_over(row, &ht, |c| c.1),
        })
        .collect()
}

// --------------------------------------------------------------- Figure 15

/// One group of Figure 15 bars (energy relative to the peak-performing
/// original version, lower is better).
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// STATS tuned for performance: energy / original energy.
    pub perf_mode: f64,
    /// STATS tuned for energy: energy / original energy.
    pub energy_mode: f64,
}

/// Figure 15: system-wide energy of the STATS binaries relative to the
/// original benchmarks, in performance mode and in energy mode.
pub fn fig15(settings: &Settings) -> Vec<EnergyRow> {
    let spec = settings.spec();
    BenchmarkId::all()
        .into_iter()
        .map(|bench| {
            with_workload!(bench, |w| {
                // Baseline: the peak-performing original configuration.
                let seq = sequential_time(bench, &spec);
                let (mut best_t, mut best_time) = (1usize, seq);
                for &t in &settings.threads {
                    let time = original_time(bench, &spec, t);
                    if time < best_time {
                        best_time = time;
                        best_t = t;
                    }
                }
                let base_energy = measure(
                    &w,
                    &spec,
                    &RunSettings::for_mode(&w, Mode::Original, best_t),
                )
                .energy_j;

                let perf = tune(
                    &w,
                    &spec,
                    settings.max_threads,
                    Objective::Time,
                    settings.tune_budget,
                    3,
                );
                // Energy mode reuses the performance exploration (§3.2).
                let energy = stats_profiler::retune(
                    &w,
                    &spec,
                    settings.max_threads,
                    Objective::Energy,
                    settings.tune_budget,
                    3,
                    &perf,
                );
                EnergyRow {
                    bench,
                    perf_mode: perf.best_measurement.energy_j / base_energy,
                    energy_mode: energy.best_measurement.energy_j / base_energy,
                }
            })
        })
        .collect()
}

// --------------------------------------------------------------- Figure 16

/// One bar of Figure 16.
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Output-quality improvement factor from spending the time saved by
    /// STATS on more iterations over the same dataset (1.0 = no change).
    pub improvement: f64,
}

/// Figure 16: quality improvements from running the STATS versions for the
/// same wall-clock time as the original versions and refining the outputs.
pub fn fig16(settings: &Settings) -> Vec<QualityRow> {
    let spec = settings.spec();
    BenchmarkId::all()
        .into_iter()
        .map(|bench| {
            with_workload!(bench, |w| {
                let orig_time = original_time(bench, &spec, settings.max_threads);
                let best = tune(
                    &w,
                    &spec,
                    settings.max_threads,
                    Objective::Time,
                    settings.tune_budget,
                    4,
                );
                let stats_time = best.best_measurement.time_s;
                // Whole extra passes over the dataset fit in the saved
                // time; round to the nearest pass (the paper's iso-time
                // budget admits fractional extra work, which whole-run
                // refinement cannot express).
                let iterations = ((orig_time / stats_time).round() as usize).max(1);

                let run_once = |seed: u64| {
                    let inst = w.instance(&spec);
                    run_protocol(
                        &inst.transition,
                        &inst.inputs,
                        &inst.initial,
                        &best.best.spec_config,
                        seed,
                    )
                    .outputs
                };
                // Single-draw errors are noisy (Monte Carlo benchmarks
                // especially): average the improvement over repetitions.
                let reps = 10u64;
                let mut ratios = Vec::new();
                for rep in 0..reps {
                    let base = 100 + rep * 1000;
                    let single_err = w.output_error(&spec, &run_once(base)).max(1e-12);
                    let runs: Vec<_> = (0..iterations as u64).map(|i| run_once(base + i)).collect();
                    let refined = w.refine_outputs(runs);
                    let refined_err = w.output_error(&spec, &refined).max(1e-12);
                    ratios.push(single_err / refined_err);
                }
                QualityRow {
                    bench,
                    improvement: geometric_mean(&ratios),
                }
            })
        })
        .collect()
}

// --------------------------------------------------------------- Figure 17

/// One benchmark's bars in Figure 17.
#[derive(Debug, Clone)]
pub struct RelatedWorkRow {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// (approach name, sequential-variant speedup, parallel-variant speedup).
    pub approaches: Vec<(&'static str, f64, f64)>,
    /// Seq. STATS speedup.
    pub seq_stats: f64,
    /// Par. STATS speedup.
    pub par_stats: f64,
}

/// Figure 17: STATS against the reimplemented related approaches. Only
/// STATS exploits non-trivial state dependences; prior work helps only
/// where the state is a single reduction register (swaptions), and Fast
/// Track always aborts.
pub fn fig17(settings: &Settings) -> Vec<RelatedWorkRow> {
    use stats_baselines::{measure_baseline, BaselineId};
    let spec = settings.spec();
    let t = settings.max_threads;
    BenchmarkId::all()
        .into_iter()
        .map(|bench| {
            let seq = sequential_time(bench, &spec);
            let approaches = BaselineId::all()
                .into_iter()
                .map(|b| {
                    let (s, p) = with_workload!(bench, |w| {
                        (
                            measure_baseline(&w, &spec, b, t, false).time_s,
                            measure_baseline(&w, &spec, b, t, true).time_s,
                        )
                    });
                    (b.name(), seq / s, seq / p)
                })
                .collect();
            let best = tuned(bench, &spec, t, settings.tune_budget, 5);
            let par = seq / best.best_measurement.time_s;
            let alloc = best.best.alloc.clamp(1, t);
            let r730 = Platform::haswell_r730();
            let sq = seq / measure_tuned(bench, &spec, &best.best, alloc, 1, &r730).time_s;
            RelatedWorkRow {
                bench,
                approaches,
                seq_stats: sq,
                par_stats: par,
            }
        })
        .collect()
}

// --------------------------------------------------------------- Figure 18

/// Figure 18: average speedup (geometric mean, relative to each benchmark's
/// best STATS speedup) as a function of how many tradeoffs the developer
/// encoded, in payoff order. Index 0 = no tradeoffs encoded.
pub fn fig18(settings: &Settings) -> Vec<f64> {
    let spec = settings.spec();
    let t = settings.max_threads;
    let max_tradeoffs = BenchmarkId::all()
        .into_iter()
        .map(|b| with_workload!(b, |w| w.tradeoffs().len()))
        .max()
        .unwrap_or(0);

    // Per benchmark: speedups at each prefix, normalized by the full-prefix
    // speedup. Zero tradeoffs encoded means STATS was not applied at all
    // (the TI is what enables auxiliary-code specialization): the paper's
    // figure starts from the original code's maximum speedup.
    let mut relative: Vec<Vec<f64>> = Vec::new();
    for bench in BenchmarkId::all() {
        let seq = sequential_time(bench, &spec);
        let n = with_workload!(bench, |w| w.tradeoffs().len());
        let mut speedups = vec![peak_original(settings, bench, &spec, seq)];
        for prefix in 1..=max_tradeoffs {
            let k = prefix.min(n);
            let s = with_workload!(bench, |w| {
                let r = stats_profiler::tune_with_prefix(
                    &w,
                    &spec,
                    t,
                    Objective::Time,
                    settings.tune_budget,
                    6,
                    k,
                );
                seq / r.best_measurement.time_s
            });
            speedups.push(s);
        }
        let full = speedups.last().copied().unwrap_or(1.0).max(1e-12);
        relative.push(speedups.into_iter().map(|s| s / full).collect());
    }

    (0..=max_tradeoffs)
        .map(|i| geometric_mean(&relative.iter().map(|r| r[i]).collect::<Vec<_>>()) * 100.0)
        .collect()
}

// --------------------------------------------------------------- Figure 19

/// One group of Figure 19 bars.
#[derive(Debug, Clone)]
pub struct TrainingRow {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Original best speedup.
    pub original: f64,
    /// Par. STATS trained on representative inputs.
    pub par_stats: f64,
    /// Par. STATS trained on the least-representative inputs (§4.6) and
    /// evaluated on the representative ones.
    pub par_stats_bad_training: f64,
}

/// Figure 19: STATS loses only a small amount of performance when the
/// training inputs are not representative (correctness is guaranteed by
/// the runtime regardless).
pub fn fig19(settings: &Settings) -> Vec<TrainingRow> {
    let spec = settings.spec();
    let bad_spec = WorkloadSpec {
        representative: false,
        ..spec
    };
    let t = settings.max_threads;
    BenchmarkId::all()
        .into_iter()
        .map(|bench| {
            let seq = sequential_time(bench, &spec);
            let original = peak_original(settings, bench, &spec, seq);
            let good = tuned(bench, &spec, t, settings.tune_budget, 7);
            let bad = with_workload!(bench, |w| {
                tune(&w, &bad_spec, t, Objective::Time, settings.tune_budget, 7)
            });
            // Evaluate the badly-trained configuration on the real inputs.
            let alloc = bad.best.alloc.clamp(1, t);
            let r730 = Platform::haswell_r730();
            let bad_on_real = measure_tuned(bench, &spec, &bad.best, alloc, bad.best.t_orig, &r730);
            TrainingRow {
                bench,
                original,
                par_stats: seq / good.best_measurement.time_s,
                par_stats_bad_training: seq / bad_on_real.time_s,
            }
        })
        .collect()
}

// --------------------------------------------------------------- Figure 20

/// Figure 20: autotuner convergence. Returns, for each search repetition,
/// the best-so-far speedup curve relative to the overall best (percent),
/// averaged across benchmarks; plus the trial count after which the best
/// configuration was found (averaged).
pub fn fig20(settings: &Settings, repetitions: usize) -> (Vec<f64>, f64) {
    let spec = settings.spec();
    let t = settings.max_threads;
    let budget = settings.tune_budget;
    let mut curves: Vec<Vec<f64>> = Vec::new();
    let mut convergence_points = Vec::new();
    for bench in BenchmarkId::all() {
        for rep in 0..repetitions as u64 {
            let r = tuned(bench, &spec, t, budget, 1000 + rep);
            let curve = r.outcome.history.best_so_far_curve();
            let best = curve.last().copied().unwrap_or(1.0);
            curves.push(curve.iter().map(|&c| (best / c) * 100.0).collect());
            if let Some(p) = r.outcome.history.convergence_point(0.01) {
                convergence_points.push(p as f64);
            }
        }
    }
    let len = curves.iter().map(Vec::len).min().unwrap_or(0);
    let mean_curve = (0..len)
        .map(|i| curves.iter().map(|c| c[i]).sum::<f64>() / curves.len() as f64)
        .collect();
    let mean_convergence =
        convergence_points.iter().sum::<f64>() / convergence_points.len().max(1) as f64;
    (mean_curve, mean_convergence)
}

// ----------------------------------------------------------------- Table 1

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Lines of Rust in the benchmark port (the "original LOC" analog).
    pub original_loc: usize,
    /// State dependences targeted.
    pub state_dependences: usize,
    /// Algorithm tradeoffs encoded (the per-tradeoff LOC columns).
    pub tradeoffs: usize,
    /// Lines of the state-comparison implementation (0 when the benchmark
    /// needs none, as in the paper's last three rows).
    pub state_comparison_loc: usize,
    /// Descriptor/auxiliary lines generated by the STATS compilers for this
    /// benchmark's tradeoff set.
    pub generated_loc: usize,
    /// Binary-size increase from auxiliary-code cloning (IR instructions).
    pub binary_size_increase: f64,
    /// Extra committed work at run time (auxiliary code that commits),
    /// relative to the committed original work.
    pub extra_committed: f64,
}

/// Table 1: developer effort vs compiler-generated code. The compiler
/// columns come from pushing a synthesized `.stats` program (one descriptor
/// per tradeoff, one helper function per tradeoff reachable from
/// `compute_output`) through the real front-end and middle-end; the
/// run-time column from a tuned profile run.
pub fn table1(settings: &Settings) -> Vec<Table1Row> {
    let spec = settings.spec();
    BenchmarkId::all()
        .into_iter()
        .map(|bench| {
            let (tradeoffs, needs_cmp) =
                with_workload!(bench, |w| (w.tradeoffs(), w.needs_state_comparison()));
            let source = stats_compiler::frontend::synthesize_source(bench.name(), &tradeoffs);
            let compiled =
                stats_compiler::frontend::compile(&source).expect("synthesized source compiles");
            let generated_loc = compiled.generated_loc();
            let (_, clone_stats) = stats_compiler::midend::run_with_stats(
                compiled,
                stats_compiler::midend::MidendOptions::default(),
            )
            .expect("midend succeeds");

            let best = tuned(
                bench,
                &spec,
                settings.max_threads,
                settings.tune_budget / 2,
                8,
            );
            Table1Row {
                bench,
                original_loc: workload_loc(bench),
                // streamcluster carries a second dependence (the k-median
                // refinement pass), as in the paper's Table 1.
                state_dependences: if bench == BenchmarkId::StreamCluster {
                    2
                } else {
                    1
                },
                tradeoffs: tradeoffs.len(),
                state_comparison_loc: if needs_cmp { 5 } else { 0 },
                generated_loc,
                binary_size_increase: clone_stats.size_increase(),
                extra_committed: best.best_measurement.report.extra_committed_fraction(),
            }
        })
        .collect()
}

// ------------------------------------------------------- Trace export

/// Write Chrome trace-event JSON files for representative figure cells:
/// for every benchmark, the tuned Par. STATS Figure 12 cell at the maximum
/// thread count and the single-socket Figure 14 cell. One file per cell in
/// `dir` (created if needed); returns the written paths.
///
/// These are the schedules the figures' speedup numbers are integrated
/// over, exported for inspection in `chrome://tracing`/Perfetto.
pub fn export_traces(
    settings: &Settings,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let spec = settings.spec();
    let cells = [
        (
            settings.max_threads,
            Platform::haswell_r730(),
            "fig12-par-stats",
        ),
        (14, Platform::haswell_single_socket(), "fig14-single-socket"),
    ];
    let mut written = Vec::new();
    for bench in BenchmarkId::all() {
        let cfg = tuned(bench, &spec, settings.max_threads, settings.tune_budget, 1).best;
        for (threads, platform, name) in &cells {
            let json = with_workload!(bench, |w| {
                let run =
                    tuned_settings(&w, &cfg, cfg.alloc.clamp(1, *threads), cfg.t_orig, platform);
                stats_profiler::measure_traced(&w, &spec, &run).1
            });
            let path = dir.join(format!("{}-{name}.trace.json", bench.name()));
            std::fs::write(&path, json)?;
            written.push(path);
        }
    }
    Ok(written)
}

/// Lines of Rust in each workload module (excluding tests).
fn workload_loc(bench: BenchmarkId) -> usize {
    let src = match bench {
        BenchmarkId::Swaptions => include_str!("../../stats-workloads/src/swaptions.rs"),
        BenchmarkId::StreamClassifier => {
            include_str!("../../stats-workloads/src/streamclassifier.rs")
        }
        BenchmarkId::StreamCluster => include_str!("../../stats-workloads/src/streamcluster.rs"),
        BenchmarkId::FluidAnimate => include_str!("../../stats-workloads/src/fluidanimate.rs"),
        BenchmarkId::BodyTrack => include_str!("../../stats-workloads/src/bodytrack.rs"),
        BenchmarkId::FaceDet => include_str!("../../stats-workloads/src/facedet.rs"),
    };
    src.split("#[cfg(test)]")
        .next()
        .unwrap_or("")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

// ----------------------------------------------------------------- Ablation

/// One ablation point: a protocol dimension's value and its effects.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// The swept value.
    pub value: usize,
    /// Speedup over sequential at `Settings::max_threads`.
    pub speedup: f64,
    /// Fraction of speculative groups that committed.
    pub commit_rate: f64,
    /// Re-executions per speculative group.
    pub reexec_rate: f64,
}

/// A full ablation study over one benchmark's protocol dimensions.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Benchmark studied.
    pub bench: BenchmarkId,
    /// Auxiliary-window sweep (W = 0..=6) at fixed G/R/D.
    pub window: Vec<AblationPoint>,
    /// Re-execution-budget sweep (R = 0..=3) at fixed G/W/D.
    pub reexec: Vec<AblationPoint>,
    /// Group-cardinality sweep at fixed W/R/D.
    pub group: Vec<AblationPoint>,
}

/// Ablation of the execution model's design choices (§3.1) on one
/// benchmark: how the auxiliary window, the re-execution budget, and the
/// group cardinality each move commit rates and speedup. These are the
/// dimensions the autotuner searches; the sweeps show *why* each exists.
pub fn ablation(settings: &Settings, bench: BenchmarkId) -> Ablation {
    let spec = settings.spec();
    let seq = sequential_time(bench, &spec);
    let threads = settings.max_threads;

    let run = |group: usize, window: usize, reexec: usize| -> AblationPoint {
        with_workload!(bench, |w| {
            let opts = w.tradeoffs();
            let cfg = SpecConfig {
                group_size: group,
                window,
                max_reexec: reexec,
                rollback: 2,
                orig_bindings: TradeoffBindings::defaults(&opts),
                aux_bindings: TradeoffBindings::defaults(&opts),
                ..SpecConfig::default()
            };
            let base = RunSettings::for_mode(&w, Mode::ParStats, threads);
            let m = measure(
                &w,
                &spec,
                &RunSettings {
                    threads,
                    t_orig: (threads / 4).max(1),
                    spec_config: cfg,
                    ..base
                },
            );
            let spec_groups = m.report.groups.len().saturating_sub(1).max(1);
            AblationPoint {
                value: 0,
                speedup: seq / m.time_s,
                commit_rate: m.report.committed_speculative_groups() as f64 / spec_groups as f64,
                reexec_rate: m.report.reexecutions as f64 / spec_groups as f64,
            }
        })
    };

    let window = (0..=6)
        .map(|w| AblationPoint {
            value: w,
            ..run(4, w, 2)
        })
        .collect();
    // Sweep R at a marginal window (W=2) where re-executions genuinely
    // rescue borderline validations.
    let reexec = (0..=3)
        .map(|r| AblationPoint {
            value: r,
            ..run(4, 2, r)
        })
        .collect();
    let group = [2usize, 4, 6, 8, 12, 16]
        .into_iter()
        .map(|g| AblationPoint {
            value: g,
            ..run(g, 3, 2)
        })
        .collect();
    Ablation {
        bench,
        window,
        reexec,
        group,
    }
}

// ------------------------------------------------------------ Multi-socket

/// One row of the §4.3 multi-socket study.
#[derive(Debug, Clone)]
pub struct MultiSocketRow {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Par. STATS speedup on one socket (14 threads).
    pub one_socket: f64,
    /// Par. STATS speedup on two sockets (28 threads), NUMA modeled.
    pub two_sockets: f64,
    /// Two sockets with the NUMA penalty disabled (the hypothetical
    /// uniform-memory machine — what the paper's VTune analysis implies
    /// the benchmarks would reach).
    pub two_sockets_no_numa: f64,
}

/// The multi-socket effect (§4.3): several benchmarks scale near-linearly
/// within a socket but sub-linearly across two; "an Intel VTune analysis
/// demonstrated that this is due to the NUMA memory system". The simulator
/// makes the counterfactual runnable: the same run with the cross-socket
/// penalty switched off recovers the lost scaling.
pub fn multisocket(settings: &Settings) -> Vec<MultiSocketRow> {
    let spec = settings.spec();
    BenchmarkId::all()
        .into_iter()
        .map(|bench| {
            let seq = sequential_time(bench, &spec);
            let best = tuned(bench, &spec, settings.max_threads, settings.tune_budget, 9).best;
            let run = |threads: usize, numa: bool| -> f64 {
                let mut platform = Platform::haswell_r730();
                if !numa {
                    platform.numa_penalty = 1.0;
                }
                seq / measure_tuned(bench, &spec, &best, threads, best.t_orig, &platform).time_s
            };
            MultiSocketRow {
                bench,
                one_socket: run(14, true),
                two_sockets: run(28, true),
                two_sockets_no_numa: run(28, false),
            }
        })
        .collect()
}

// ------------------------------------------------------------------ Summary

/// The paper's headline numbers in one struct.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Geometric-mean speedup of the original parallel benchmarks.
    pub original_geomean: f64,
    /// Geometric-mean speedup of Par. STATS (autotuned).
    pub par_stats_geomean: f64,
    /// Percent performance improvement (the paper headlines +158.2%).
    pub improvement_pct: f64,
    /// Geometric-mean energy of STATS (perf mode) relative to the original
    /// (the paper headlines 71.35% *saved* in energy mode).
    pub energy_relative: f64,
    /// Benchmarks whose speculation committed at least one group.
    pub benchmarks_speculating: usize,
}

/// The abstract's headline claims, recomputed end-to-end: STATS "boosts the
/// performance of six well-known nondeterministic and multi-threaded
/// benchmarks by 158.2% (geometric mean)" and "can save 71.35% … of the
/// system-wide energy consumption".
pub fn summary(settings: &Settings) -> Summary {
    let spec = settings.spec();
    let mut original = Vec::new();
    let mut par = Vec::new();
    let mut energy_rel = Vec::new();
    let mut speculating = 0usize;
    for bench in BenchmarkId::all() {
        let seq = sequential_time(bench, &spec);
        original.push(peak_original(settings, bench, &spec, seq));
        let tuned_result = tuned(bench, &spec, settings.max_threads, settings.tune_budget, 12);
        par.push(seq / tuned_result.best_measurement.time_s);
        if tuned_result
            .best_measurement
            .report
            .committed_speculative_groups()
            > 0
        {
            speculating += 1;
        }
        let orig_energy = with_workload!(bench, |w| {
            // Energy of the peak-performing original configuration.
            let (mut t_best, mut best) = (1usize, f64::INFINITY);
            for &t in &settings.threads {
                let time = original_time(bench, &spec, t);
                if time < best {
                    best = time;
                    t_best = t;
                }
            }
            measure(
                &w,
                &spec,
                &RunSettings::for_mode(&w, Mode::Original, t_best),
            )
            .energy_j
        });
        energy_rel.push(tuned_result.best_measurement.energy_j / orig_energy);
    }
    let og = geometric_mean(&original);
    let pg = geometric_mean(&par);
    Summary {
        original_geomean: og,
        par_stats_geomean: pg,
        improvement_pct: (pg / og - 1.0) * 100.0,
        energy_relative: geometric_mean(&energy_rel),
        benchmarks_speculating: speculating,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Settings {
        let mut s = Settings::quick();
        s.tune_budget = 8;
        s.seeds = 3;
        s.inputs = 16;
        s.threads = vec![4, 16];
        s
    }

    #[test]
    fn fig02_variability_positive_everywhere() {
        for row in fig02(&quick()) {
            assert!(
                row.variability > 0.0,
                "{} shows no output variability",
                row.bench.name()
            );
        }
    }

    /// Figure 12 at [`quick`] sizes, on a two-worker pool.
    fn quick_curves() -> Vec<ScalabilityCurves> {
        fig12(&quick(), &ThreadPool::new(2))
    }

    fn curve_of(bench: BenchmarkId) -> ScalabilityCurves {
        quick_curves()
            .into_iter()
            .find(|c| c.bench == bench)
            .expect("every benchmark has curves")
    }

    #[test]
    fn figures_do_not_depend_on_pool_size() {
        let settings = Settings::tiny();
        // `{:?}` prints every f64 in its shortest round-trip form, so equal
        // strings mean bit-identical rows.
        let run = |workers: usize| {
            let pool = ThreadPool::new(workers);
            let curves = fig12(&settings, &pool);
            let derived = (fig03(&curves), fig13(&curves));
            format!("{curves:?} {derived:?} {:?}", fig14(&settings, &pool))
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn fig03_speedups_above_one_below_ideal() {
        let (rows, geo) = fig03(&quick_curves());
        for r in &rows {
            assert!(r.max_speedup >= 1.0, "{}", r.bench.name());
            assert!(r.max_speedup < 28.0, "{}", r.bench.name());
        }
        assert!(geo > 1.0);
    }

    #[test]
    fn fig12_par_stats_dominates_for_bodytrack() {
        let c = curve_of(BenchmarkId::BodyTrack);
        let (orig, _seq, par) = c.maxima();
        assert!(
            par > orig,
            "Par. STATS {par} not above original {orig} for bodytrack"
        );
    }

    #[test]
    fn fig12_fluidanimate_stats_does_not_help() {
        let c = curve_of(BenchmarkId::FluidAnimate);
        let (orig, _seq, par) = c.maxima();
        // The autotuner falls back to the original TLP: comparable maxima.
        assert!(
            par >= orig * 0.7,
            "par {par} collapsed below original {orig}"
        );
        assert!(
            par <= orig * 1.5,
            "par {par} implausibly above original {orig}"
        );
    }

    #[test]
    fn ablation_window_governs_commit_rate() {
        let a = ablation(&quick(), BenchmarkId::BodyTrack);
        // No window -> nothing commits; a generous window -> everything.
        assert_eq!(a.window.first().unwrap().commit_rate, 0.0);
        assert!(a.window.last().unwrap().commit_rate > 0.9);
        // fluidanimate never commits at any window.
        let f = ablation(&quick(), BenchmarkId::FluidAnimate);
        assert!(f.window.iter().all(|p| p.commit_rate < 0.3));
    }

    #[test]
    fn table1_rows_complete() {
        let mut s = quick();
        s.tune_budget = 8;
        let rows = table1(&s);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.original_loc > 50, "{}", r.bench.name());
            assert!(r.generated_loc > 0);
            assert!(r.binary_size_increase > 0.0, "{}", r.bench.name());
        }
        // swaptions/streamcluster/streamclassifier need no comparison code.
        assert_eq!(rows[0].state_comparison_loc, 0);
        assert!(rows[4].state_comparison_loc > 0); // bodytrack
    }

    #[test]
    fn synthesized_sources_compile() {
        for bench in BenchmarkId::all() {
            let tradeoffs = with_workload!(bench, |w| w.tradeoffs());
            let src = stats_compiler::frontend::synthesize_source(bench.name(), &tradeoffs);
            let compiled = stats_compiler::frontend::compile(&src)
                .unwrap_or_else(|e| panic!("{}: {e}\n{src}", bench.name()));
            assert!(compiled.module.metadata.tradeoffs.len() >= tradeoffs.len());
        }
    }
}
