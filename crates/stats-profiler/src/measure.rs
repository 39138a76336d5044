//! One profile run: protocol → trace → platform simulation → measurement.

use stats_core::{run_protocol_with_options, RunOptions, SpecConfig, SpecReport, TradeoffBindings};
use stats_sim::{simulate, EnergyModel, Platform};
use stats_workloads::{Instance, Workload, WorkloadSpec};

use crate::graph::expand_trace;

/// Which of the paper's execution strategies a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The out-of-the-box parallel benchmark: speculation off, all threads
    /// to the original TLP.
    Original,
    /// TLP only from the state dependence (auxiliary-code speculation),
    /// starting from the sequential program.
    SeqStats,
    /// Both sources combined (the state-space default).
    ParStats,
    /// The single-threaded out-of-the-box baseline all speedups are
    /// computed against.
    Sequential,
}

/// Everything one profile run needs beyond the workload.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Hardware threads to use on the simulated platform.
    pub threads: usize,
    /// Threads devoted to the original (intra-invocation) TLP.
    pub t_orig: usize,
    /// The speculation configuration (aux bindings already set).
    pub spec_config: SpecConfig,
    /// The simulated machine.
    pub platform: Platform,
    /// The energy model.
    pub energy: EnergyModel,
    /// PRVG run seed.
    pub run_seed: u64,
    /// When set, the stream is processed in consecutive segments of this
    /// many inputs (each re-entering the execution model, so an abort only
    /// disables speculation for the rest of its own segment).
    pub segment: Option<usize>,
}

impl RunSettings {
    /// Settings for `mode` with default bindings resolved from `workload`.
    ///
    /// The untuned STATS modes run auxiliary code at the program's default
    /// tradeoff settings; the autotuner later trades auxiliary quality
    /// against cost where it pays off.
    pub fn for_mode<W: Workload>(workload: &W, mode: Mode, threads: usize) -> Self {
        let opts = workload.tradeoffs();
        let defaults = TradeoffBindings::defaults(&opts);
        let (spec_config, t_orig, threads) = match mode {
            Mode::Sequential => (
                SpecConfig {
                    orig_bindings: defaults.clone(),
                    aux_bindings: defaults,
                    ..SpecConfig::sequential()
                },
                1,
                1,
            ),
            Mode::Original => (
                SpecConfig {
                    orig_bindings: defaults.clone(),
                    aux_bindings: defaults,
                    ..SpecConfig::sequential()
                },
                threads,
                threads,
            ),
            Mode::SeqStats => (
                SpecConfig {
                    orig_bindings: defaults.clone(),
                    aux_bindings: defaults,
                    group_size: 4,
                    window: 2,
                    max_reexec: 3,
                    rollback: 2,
                    ..SpecConfig::default()
                },
                1,
                threads,
            ),
            Mode::ParStats => (
                SpecConfig {
                    orig_bindings: defaults.clone(),
                    aux_bindings: defaults,
                    group_size: 4,
                    window: 2,
                    max_reexec: 3,
                    rollback: 2,
                    ..SpecConfig::default()
                },
                (threads / 4).max(1),
                threads,
            ),
        };
        RunSettings {
            threads,
            t_orig,
            spec_config,
            platform: Platform::haswell_r730(),
            energy: EnergyModel::haswell_r730(),
            run_seed: 0xC0FF_EE00,
            segment: None,
        }
    }
}

/// The complete result of one profile run.
#[derive(Debug, Clone)]
pub struct FullMeasurement {
    /// Simulated wall-clock seconds.
    pub time_s: f64,
    /// Simulated system energy, joules.
    pub energy_j: f64,
    /// Domain output error of the run (lower is better).
    pub output_error: f64,
    /// Speculation statistics.
    pub report: SpecReport,
    /// Thread-capacity utilization of the schedule.
    pub utilization: f64,
}

/// Run one profile: execute the protocol for real, schedule its trace on
/// the simulated platform, integrate energy, and score output quality.
pub fn measure<W: Workload>(
    workload: &W,
    spec: &WorkloadSpec,
    settings: &RunSettings,
) -> FullMeasurement {
    let instance = workload.instance(spec);
    measure_instance(workload, &instance, spec, settings)
}

/// [`measure`] against a pre-materialized instance.
///
/// Callers that profile the same spec many times (the autotuner evaluates
/// dozens of configurations per workload) materialize the instance once and
/// pay input generation once instead of per trial. The instance is read-only
/// here, so one instance can serve concurrent profile runs.
pub fn measure_instance<W: Workload>(
    workload: &W,
    instance: &Instance<W::T>,
    spec: &WorkloadSpec,
    settings: &RunSettings,
) -> FullMeasurement {
    measure_with_schedule(workload, instance, spec, settings).0
}

/// [`measure`] that additionally renders the run's simulated schedule as a
/// Chrome trace-event JSON document (loads in `chrome://tracing`/Perfetto).
///
/// This is the per-cell trace behind the figure experiments: the same
/// schedule the measurement's time/energy/utilization were integrated over,
/// one row per simulated hardware thread.
pub fn measure_traced<W: Workload>(
    workload: &W,
    spec: &WorkloadSpec,
    settings: &RunSettings,
) -> (FullMeasurement, String) {
    let instance = workload.instance(spec);
    let (m, graph, schedule) = measure_with_schedule(workload, &instance, spec, settings);
    let json = stats_sim::export::chrome_trace(&graph, &schedule);
    (m, json)
}

/// The profile run, keeping the expanded task graph and its schedule alive
/// for callers that export them: execute the protocol, expand the executed
/// trace, schedule it on the simulated platform, integrate energy and score
/// output quality.
fn measure_with_schedule<W: Workload>(
    workload: &W,
    instance: &Instance<W::T>,
    spec: &WorkloadSpec,
    settings: &RunSettings,
) -> (FullMeasurement, stats_sim::TaskGraph, stats_sim::Schedule) {
    let mut options = RunOptions::default()
        .config(settings.spec_config.clone())
        .seed(settings.run_seed);
    if let Some(segment) = settings.segment {
        options = options.segment(segment);
    }
    let result = run_protocol_with_options(
        &instance.transition,
        &instance.inputs,
        &instance.initial,
        &options,
    );
    let graph = expand_trace(&result.trace, &workload.original_tlp(), settings.t_orig);
    let schedule = simulate(&graph, &settings.platform, settings.threads);
    let energy = settings.energy.energy(&schedule, &settings.platform);
    let measurement = FullMeasurement {
        time_s: schedule.makespan_seconds(),
        energy_j: energy.joules,
        output_error: workload.output_error(spec, &result.outputs),
        report: result.report,
        utilization: schedule.utilization(),
    };
    (measurement, graph, schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats_workloads::bodytrack::BodyTrack;
    use stats_workloads::fluidanimate::FluidAnimate;
    use stats_workloads::swaptions::Swaptions;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            inputs: 24,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn original_scales_with_threads() {
        let w = Swaptions;
        let t1 = measure(&w, &spec(), &RunSettings::for_mode(&w, Mode::Sequential, 1));
        let t8 = measure(&w, &spec(), &RunSettings::for_mode(&w, Mode::Original, 8));
        let speedup = t1.time_s / t8.time_s;
        assert!(speedup > 3.0, "8-thread original speedup only {speedup}");
    }

    #[test]
    fn seq_stats_extracts_tlp_from_the_dependence() {
        let w = BodyTrack;
        let t1 = measure(&w, &spec(), &RunSettings::for_mode(&w, Mode::Sequential, 1));
        let ts = measure(&w, &spec(), &RunSettings::for_mode(&w, Mode::SeqStats, 8));
        let speedup = t1.time_s / ts.time_s;
        assert!(
            speedup > 1.5,
            "Seq. STATS speedup only {speedup} ({:?})",
            ts.report
        );
    }

    #[test]
    fn fluidanimate_speculation_never_pays() {
        let w = FluidAnimate;
        let s = WorkloadSpec {
            inputs: 16,
            ..WorkloadSpec::default()
        };
        let m = measure(&w, &s, &RunSettings::for_mode(&w, Mode::SeqStats, 8));
        assert!(m.report.aborted, "fluid speculation unexpectedly committed");
    }

    #[test]
    fn energy_tracks_time_for_same_thread_count() {
        let w = Swaptions;
        let fast = measure(&w, &spec(), &RunSettings::for_mode(&w, Mode::Original, 8));
        let slow = measure(&w, &spec(), &RunSettings::for_mode(&w, Mode::Sequential, 1));
        assert!(fast.time_s < slow.time_s);
        // Finishing much earlier with 8 cores must still save system energy.
        assert!(fast.energy_j < slow.energy_j);
    }

    #[test]
    fn output_quality_preserved_under_speculation() {
        let w = BodyTrack;
        let base = measure(&w, &spec(), &RunSettings::for_mode(&w, Mode::Sequential, 1));
        let spec_run = measure(&w, &spec(), &RunSettings::for_mode(&w, Mode::ParStats, 16));
        // The runtime guarantees output quality: errors stay comparable.
        assert!(spec_run.output_error < base.output_error * 3.0 + 0.05);
    }

    #[test]
    fn segmented_fluidanimate_retries_speculation_per_segment() {
        // Unsegmented: one abort disables speculation for the whole run.
        // Segmented: each segment pays its own (failed) speculation attempt,
        // visible as more squashed work but bounded fallback scope.
        let w = FluidAnimate;
        let s = WorkloadSpec {
            inputs: 24,
            ..WorkloadSpec::default()
        };
        let base = RunSettings::for_mode(&w, Mode::SeqStats, 8);
        let whole = measure(&w, &s, &base);
        let seg = measure(
            &w,
            &s,
            &RunSettings {
                segment: Some(8),
                ..base
            },
        );
        assert!(whole.report.aborted && seg.report.aborted);
        assert!(
            seg.report.squashed_work >= whole.report.squashed_work,
            "segmented {} vs whole {}",
            seg.report.squashed_work,
            whole.report.squashed_work
        );
        assert_eq!(seg.report.groups.last().unwrap().end, 24);
    }

    #[test]
    fn traced_measure_matches_untraced_and_exports_schedule() {
        let w = Swaptions;
        let settings = RunSettings::for_mode(&w, Mode::ParStats, 8);
        let plain = measure(&w, &spec(), &settings);
        let (traced, json) = measure_traced(&w, &spec(), &settings);
        // The trace is a byproduct: the measurement itself is unchanged.
        assert_eq!(traced.time_s, plain.time_s);
        assert_eq!(traced.energy_j, plain.energy_j);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // One complete event per scheduled task, on the simulated threads.
        assert!(json.matches("\"ph\":\"X\"").count() > 24);
    }

    #[test]
    fn utilization_bounded() {
        let w = Swaptions;
        let m = measure(&w, &spec(), &RunSettings::for_mode(&w, Mode::ParStats, 16));
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);
    }
}
