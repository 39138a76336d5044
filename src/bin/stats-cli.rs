//! `stats-cli` — drive the STATS reproduction from the command line.
//!
//! ```text
//! stats-cli bench bodytrack --mode par --threads 28 --inputs 96
//! stats-cli tune streamcluster --budget 60 --objective energy
//! stats-cli compile program.stats --dep d=3,1 --run step__aux_d 7
//! stats-cli gantt bodytrack --threads 8 --inputs 24
//! stats-cli list
//! ```

use std::process::ExitCode;

use stats::autotune::Objective;
use stats::compiler::{backend, bytecode::BytecodeInterp, frontend, midend, value::Value};
use stats::profiler::{expand_trace, measure, measure_traced, tune, Mode, RunSettings};
use stats::sim::simulate;
use stats::workloads::{with_workload, BenchmarkId, Workload, WorkloadSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("bench") => cmd_bench(&args[1..]),
        Some("tune") => cmd_tune(&args[1..]),
        Some("compile") => cmd_compile(&args[1..]),
        Some("gantt") => cmd_gantt(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("list") => {
            for b in BenchmarkId::all() {
                let (tradeoffs, shape) =
                    with_workload!(b, |w| (w.tradeoffs().len(), w.dependence_shape()));
                println!(
                    "{:<18} {} tradeoffs, state shape: {:?}",
                    b.name(),
                    tradeoffs,
                    shape
                );
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: stats-cli <bench|tune|compile|gantt|list> [options]\n\
                 \n\
                 bench <name> [--mode sequential|original|seq|par] [--threads N] [--inputs N]\n\
                 tune <name> [--threads N] [--inputs N] [--budget N] [--objective time|energy]\n\
                 compile <file.stats> [--dep NAME=i,j,..] [--run FN ARGS..]\n\
                 gantt <name> [--threads N] [--inputs N] [--width N]\n\
                 trace <name> --out FILE.json [--threads N] [--inputs N]\n\
                 list"
            );
            ExitCode::FAILURE
        }
    }
}

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

fn parse_bench(args: &[String]) -> Option<BenchmarkId> {
    let name = args.first()?;
    BenchmarkId::all().into_iter().find(|b| b.name() == name)
}

fn cmd_bench(args: &[String]) -> ExitCode {
    let Some(bench) = parse_bench(args) else {
        eprintln!("unknown benchmark; try `stats-cli list`");
        return ExitCode::FAILURE;
    };
    let threads = flag_usize(args, "--threads", 28);
    let spec = WorkloadSpec {
        inputs: flag_usize(args, "--inputs", 64),
        ..WorkloadSpec::default()
    };
    let mode = match flag(args, "--mode").as_deref() {
        Some("sequential") => Mode::Sequential,
        Some("original") => Mode::Original,
        Some("seq") => Mode::SeqStats,
        _ => Mode::ParStats,
    };
    let (m, seq_time) = with_workload!(bench, |w| {
        let m = measure(&w, &spec, &RunSettings::for_mode(&w, mode, threads));
        let seq = measure(&w, &spec, &RunSettings::for_mode(&w, Mode::Sequential, 1));
        (m, seq.time_s)
    });
    println!(
        "benchmark: {}  mode: {mode:?}  threads: {threads}",
        bench.name()
    );
    println!(
        "time: {:.4}s  ({:.2}x over sequential)  energy: {:.1} J  utilization: {:.0}%",
        m.time_s,
        seq_time / m.time_s,
        m.energy_j,
        m.utilization * 100.0
    );
    println!("output error: {:.5}", m.output_error);
    println!("speculation: {}", m.report);
    ExitCode::SUCCESS
}

fn cmd_tune(args: &[String]) -> ExitCode {
    let Some(bench) = parse_bench(args) else {
        eprintln!("unknown benchmark; try `stats-cli list`");
        return ExitCode::FAILURE;
    };
    let threads = flag_usize(args, "--threads", 28);
    let budget = flag_usize(args, "--budget", 48);
    let spec = WorkloadSpec {
        inputs: flag_usize(args, "--inputs", 64),
        ..WorkloadSpec::default()
    };
    let objective = match flag(args, "--objective").as_deref() {
        Some("energy") => Objective::Energy,
        _ => Objective::Time,
    };
    let (result, seq_time) = with_workload!(bench, |w| {
        let r = tune(&w, &spec, threads, objective, budget, 0xCA11);
        let seq = measure(&w, &spec, &RunSettings::for_mode(&w, Mode::Sequential, 1));
        (r, seq.time_s)
    });
    println!(
        "{}: best of {budget} configurations ({threads} threads, {:?})",
        bench.name(),
        objective
    );
    let c = &result.best.spec_config;
    println!(
        "config: speculate={} group={} window={} reexec={} rollback={} \
         t_orig={} alloc={}",
        c.speculate,
        c.group_size,
        c.window,
        c.max_reexec,
        c.rollback,
        result.best.t_orig,
        result.best.alloc
    );
    println!("aux bindings: {:?}", c.aux_bindings);
    println!(
        "time: {:.4}s ({:.2}x)  energy: {:.1} J  error: {:.5}",
        result.best_measurement.time_s,
        seq_time / result.best_measurement.time_s,
        result.best_measurement.energy_j,
        result.best_measurement.output_error
    );
    let curve = result.outcome.history.best_so_far_curve();
    if let Some(p) = result.outcome.history.convergence_point(0.01) {
        println!("converged after {p} of {} evaluations", curve.len());
    }
    // Which state-space dimensions mattered? (variance explained)
    let space = with_workload!(bench, |w| stats::profiler::search_space(
        &w,
        threads,
        usize::MAX
    ));
    let names: Vec<&str> = space.params().iter().map(|p| p.name.as_str()).collect();
    println!("dimension importance (eta^2):");
    for imp in stats::autotune::parameter_importance(&result.outcome.history)
        .iter()
        .take(5)
    {
        println!(
            "  {:<22} {:>5.1}%  ({} values tried)",
            names.get(imp.dim).copied().unwrap_or("?"),
            imp.eta_squared * 100.0,
            imp.distinct_values
        );
    }
    ExitCode::SUCCESS
}

fn cmd_compile(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("compile: missing <file.stats>");
        return ExitCode::FAILURE;
    };
    if let Some(unknown) = unknown_compile_flag(&args[1..]) {
        eprintln!(
            "compile: unknown option `{unknown}`\n\
             usage: compile <file.stats> [--dep NAME=i,j,..] [--run FN ARGS..]"
        );
        return ExitCode::FAILURE;
    }
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compile: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match frontend::compile(&source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile: {e}");
            return ExitCode::FAILURE;
        }
    };
    let module = match midend::run(compiled) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("middle-end: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Optional instantiation: --dep NAME=i,j,...
    let mut config = backend::DepConfig::new();
    for (i, a) in args.iter().enumerate() {
        if a == "--dep" {
            if let Some(spec) = args.get(i + 1) {
                if let Some((name, idx)) = spec.split_once('=') {
                    let indices: Vec<i64> = idx.split(',').filter_map(|v| v.parse().ok()).collect();
                    config.insert(name.to_string(), indices);
                }
            }
        }
    }
    let binary = if config.is_empty() {
        module
    } else {
        match backend::instantiate(&module, &config) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("back-end: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    print!("{binary}");

    // Optional execution: --run FN ARGS..
    if let Some(pos) = args.iter().position(|a| a == "--run") {
        let Some(func) = args.get(pos + 1) else {
            eprintln!("--run: missing function name");
            return ExitCode::FAILURE;
        };
        let call_args: Vec<Value> = args[pos + 2..]
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .filter_map(|a| {
                a.parse::<i64>()
                    .map(Value::Int)
                    .ok()
                    .or_else(|| a.parse::<f64>().map(Value::Float).ok())
            })
            .collect();
        match BytecodeInterp::new(&binary).call(func, &call_args) {
            Ok(v) => println!("; {func}({call_args:?}) = {v:?}"),
            Err(e) => {
                eprintln!("run: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The first `--…` option `compile` does not take, if any. `--dep` takes
/// one value; `--run` takes a function name and then every argument up to
/// the next `--…` option, so `--run f -3 2.5` holds no option.
fn unknown_compile_flag(args: &[String]) -> Option<&str> {
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--dep" | "--run" => {
                it.next();
            }
            _ if a.starts_with("--") => return Some(a),
            _ => {}
        }
    }
    None
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let Some(bench) = parse_bench(args) else {
        eprintln!("unknown benchmark; try `stats-cli list`");
        return ExitCode::FAILURE;
    };
    let Some(out) = flag(args, "--out") else {
        eprintln!("trace: missing --out FILE.json");
        return ExitCode::FAILURE;
    };
    let threads = flag_usize(args, "--threads", 8);
    let spec = WorkloadSpec {
        inputs: flag_usize(args, "--inputs", 24),
        ..WorkloadSpec::default()
    };
    with_workload!(bench, |w| {
        let settings = RunSettings::for_mode(&w, Mode::ParStats, threads);
        let (m, json) = measure_traced(&w, &spec, &settings);
        if let Err(e) = std::fs::write(&out, json) {
            eprintln!("trace: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {out} ({:.4} simulated s); open in chrome://tracing or Perfetto",
            m.time_s
        );
        ExitCode::SUCCESS
    })
}

fn cmd_gantt(args: &[String]) -> ExitCode {
    let Some(bench) = parse_bench(args) else {
        eprintln!("unknown benchmark; try `stats-cli list`");
        return ExitCode::FAILURE;
    };
    let threads = flag_usize(args, "--threads", 8);
    let width = flag_usize(args, "--width", 100);
    let spec = WorkloadSpec {
        inputs: flag_usize(args, "--inputs", 24),
        ..WorkloadSpec::default()
    };
    with_workload!(bench, |w| {
        let settings = RunSettings::for_mode(&w, Mode::ParStats, threads);
        let inst = w.instance(&spec);
        let result = stats::core::run_protocol(
            &inst.transition,
            &inst.inputs,
            &inst.initial,
            &settings.spec_config,
            settings.run_seed,
        );
        let graph = expand_trace(&result.trace, &w.original_tlp(), settings.t_orig);
        let schedule = simulate(&graph, &settings.platform, threads);
        println!(
            "{} on {threads} threads — makespan {:.4}s, utilization {:.0}%",
            bench.name(),
            schedule.makespan_seconds(),
            schedule.utilization() * 100.0
        );
        print!("{}", schedule.gantt(width));
        println!("speculation: {}", result.report);
    });
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::unknown_compile_flag;

    fn flag_of(args: &[&str]) -> Option<String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        unknown_compile_flag(&args).map(str::to_string)
    }

    #[test]
    fn compile_takes_only_dep_and_run() {
        assert_eq!(
            flag_of(&["--dep", "d=1,2", "--run", "f", "-3", "2.5"]),
            None
        );
        assert_eq!(flag_of(&["--run", "f", "5", "--dep", "d=0"]), None);
        assert_eq!(
            flag_of(&["--dep", "d=1", "--fast", "--run", "f"]),
            Some("--fast".into())
        );
        assert_eq!(
            flag_of(&["--run", "f", "5", "--bogus"]),
            Some("--bogus".into())
        );
    }
}
