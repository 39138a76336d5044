//! `stats-report` — human-readable observability report for one STATS run.
//!
//! Runs a benchmark's state dependence once on the thread pool, recording
//! the structured event stream, the speculation trace and the pool
//! counters. It schedules the trace on `--threads` threads of the simulated
//! platform and prints the per-group timeline and critical path from that
//! schedule, the work-split table, and pool utilization.
//!
//! ```text
//! stats-report swaptions --inputs 48 --threads 8
//! stats-report bodytrack --trace bodytrack.trace.json --check
//! ```
//!
//! `--trace FILE` writes the run as Chrome trace-event JSON (loads in
//! `chrome://tracing` / Perfetto): process 1 is the simulated schedule, one
//! row per simulated thread; process 2 the run's wall-clock spans, one row
//! per runtime thread. `--check` validates that every dependence edge in
//! the recorded trace points backward and exits non-zero otherwise.
//!
//! The `replay` subcommand records a production-shaped streaming session
//! into a portable binary log and re-executes it (`docs/replay.md`):
//!
//! ```text
//! stats-report replay --record session.statslog --inputs 256 --tune
//! stats-report replay --verify session.statslog
//! ```
//!
//! `--verify` exits non-zero when the re-run diverges from the recording
//! in any way (event sequence, trace digest, or report digest).

use std::process::ExitCode;
use std::sync::Arc;

use stats::autotune::OnlineTuner;
use stats::core::obs::validate_backward_deps;
use stats::core::replay::{replay, SessionLog, SessionRecorder};
use stats::core::{
    EventSink, FaultPlan, FaultRule, InvocationCtx, RecordingSink, RunOptions, SpecConfig,
    SpecState, StateDependence, StateTransition, ThreadPool, TradeoffBindings,
};
use stats::profiler::SimulatedRun;
use stats::workloads::{with_workload, BenchmarkId, Workload, WorkloadSpec};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_usize(args: &[String], name: &str, default: usize) -> usize {
    flag(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The replay subcommand's built-in workload: a seeded random walk whose
/// inputs are plain `f64`s (so they cross the log's `SpillCodec` boundary
/// bit-exactly). The nondeterminism comes from the per-invocation PRVG,
/// which is exactly what the log's seed pins down.
#[derive(Clone, Debug)]
struct Walk(f64);

impl SpecState for Walk {
    fn matches_any(&self, originals: &[Self]) -> bool {
        originals.iter().any(|o| (o.0 - self.0).abs() < 1e3)
    }
}

struct Step;

impl StateTransition for Step {
    type Input = f64;
    type State = Walk;
    type Output = f64;
    fn compute_output(&self, input: &f64, state: &mut Walk, ctx: &mut InvocationCtx) -> f64 {
        let noise = ctx.normal(0.0, 1.0);
        state.0 += input + noise;
        ctx.charge(1.0);
        state.0
    }
}

fn replay_command(args: &[String]) -> ExitCode {
    let usage = || {
        eprintln!(
            "usage: stats-report replay --record FILE [--inputs N] [--seed N]\n\
             \x20                          [--group N] [--fault-rate P] [--tune]\n\
             \x20      stats-report replay --verify FILE [--threads N]"
        );
        ExitCode::FAILURE
    };

    if let Some(path) = flag(args, "--record") {
        let inputs = flag_usize(args, "--inputs", 256);
        let seed = flag_usize(args, "--seed", 7) as u64;
        let group = flag_usize(args, "--group", 4);
        let fault_rate: f64 = flag(args, "--fault-rate")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        let tune = args.iter().any(|a| a == "--tune");

        let mut options = RunOptions::default()
            .config(SpecConfig {
                group_size: group,
                ..SpecConfig::default()
            })
            .seed(seed);
        if fault_rate > 0.0 {
            options = options.faults(
                FaultPlan::new(seed ^ 0xFA17).validation_mismatch(FaultRule::transient(fault_rate)),
            );
        }
        if tune {
            options = options.retune(OnlineTuner::new(seed).every(2));
        }

        let recorder = SessionRecorder::new(Walk(0.0), Step, options).label("walk");
        for chunk in (0..inputs as u64).collect::<Vec<_>>().chunks(16) {
            recorder.push_batch(chunk.iter().map(|&i| i as f64));
        }
        let (outcome, log) = recorder.finish();
        let bytes = log.to_bytes();
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("--record {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "recorded {} inputs ({} chunks, {} events, {} bytes) to {path}",
            log.input_count(),
            log.chunks.len(),
            log.events.len(),
            bytes.len()
        );
        println!(
            "  seed {seed}  group {group}  outputs {}  aborted {}  retune {}",
            outcome.outputs.len(),
            outcome.report.aborted,
            if tune { "online" } else { "off" }
        );
        ExitCode::SUCCESS
    } else if let Some(path) = flag(args, "--verify") {
        let threads = flag_usize(args, "--threads", 4);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("--verify {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let log = match SessionLog::from_bytes(&bytes) {
            Ok(log) => log,
            Err(e) => {
                eprintln!("--verify {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let env = RunOptions::default().pool(Arc::new(ThreadPool::new(threads)));
        let result = match replay(&log, Walk(0.0), Step, env) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("--verify {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "replayed '{}': {} inputs, {} canonical events compared",
            log.label,
            log.input_count(),
            result.events
        );
        println!(
            "  event divergences {}  trace digest {}  report digest {}",
            result.divergences,
            if result.trace_matched {
                "match"
            } else {
                "MISMATCH"
            },
            if result.report_matched {
                "match"
            } else {
                "MISMATCH"
            },
        );
        if result.is_faithful() {
            println!("replay is faithful");
            ExitCode::SUCCESS
        } else {
            eprintln!("replay DIVERGED from the recording");
            ExitCode::FAILURE
        }
    } else {
        usage()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay") {
        return replay_command(&args[1..]);
    }
    let Some(bench) = args
        .first()
        .and_then(|name| BenchmarkId::all().into_iter().find(|b| b.name() == name))
    else {
        eprintln!(
            "usage: stats-report <bench> [--inputs N] [--threads N] [--seed N]\n\
             \x20                 [--group N] [--window N] [--max-reexec N] [--rollback N]\n\
             \x20                 [--trace FILE.json] [--check]\n\
             \n\
             benchmarks: {}",
            BenchmarkId::all()
                .into_iter()
                .map(BenchmarkId::name)
                .collect::<Vec<_>>()
                .join(" ")
        );
        return ExitCode::FAILURE;
    };
    let inputs = flag_usize(&args, "--inputs", 48);
    let threads = flag_usize(&args, "--threads", 8);
    let seed = flag_usize(&args, "--seed", 7) as u64;
    let trace_out = flag(&args, "--trace");
    let check = args.iter().any(|a| a == "--check");

    let spec = WorkloadSpec {
        inputs,
        ..WorkloadSpec::default()
    };

    with_workload!(bench, |w| {
        let defaults = TradeoffBindings::defaults(&w.tradeoffs());
        let cfg = SpecConfig {
            orig_bindings: defaults.clone(),
            aux_bindings: defaults,
            group_size: flag_usize(&args, "--group", 4),
            window: flag_usize(&args, "--window", 2),
            max_reexec: flag_usize(&args, "--max-reexec", 3),
            rollback: flag_usize(&args, "--rollback", 2),
            ..SpecConfig::default()
        };
        for warning in cfg.lint() {
            eprintln!("warning: {warning}");
        }

        // One pooled run, recorded: sinks are passive and the pooled
        // runtime is bit-identical to the reference, so its trace and
        // report are the reference's.
        let instance = w.instance(&spec);
        let sink = Arc::new(RecordingSink::new());
        let pool = Arc::new(ThreadPool::new(threads));
        let began = std::time::Instant::now();
        let outcome = StateDependence::new(instance.inputs, instance.initial, instance.transition)
            .with_options(
                RunOptions::default()
                    .pool(Arc::clone(&pool))
                    .config(cfg)
                    .seed(seed)
                    .sink(Arc::clone(&sink) as Arc<dyn EventSink>),
            )
            .run();
        let wall = began.elapsed();
        let events = sink.take();
        let run = SimulatedRun::new(&outcome.trace, &w.original_tlp(), threads);

        println!(
            "stats-report: {} ({} inputs, seed {seed})",
            bench.name(),
            inputs
        );
        println!();
        print!("{}", run.render_summary(&outcome.report, &outcome.trace));

        let m = pool.metrics();
        println!();
        println!("thread pool ({threads} workers, same run):");
        println!(
            "  jobs executed     {:>8}    peak backlog depth {}",
            m.jobs_executed, m.max_injector_depth
        );
        println!(
            "  busy {:?} over {:?} wall — utilization {:.1}%; {} jobs ({:.1}%, {:?}) \
             run by the coordinator instead of waiting for a worker",
            m.total_busy(),
            wall,
            100.0 * m.utilization(wall),
            m.helped_jobs,
            100.0 * m.helped_share(),
            m.helper_busy
        );

        if let Some(path) = trace_out {
            if let Err(e) = std::fs::write(&path, run.chrome_trace(&events)) {
                eprintln!("--trace {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "\ntrace written to {path} ({} events recorded)",
                events.len()
            );
        }
        if check {
            match validate_backward_deps(&outcome.trace) {
                Ok(()) => println!("check: all dependence edges point backward"),
                Err(e) => {
                    eprintln!("check failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        ExitCode::SUCCESS
    })
}
