//! End-to-end pipeline tests spanning the compiler, core, workloads, and
//! profiler crates: the full §3.2 architecture on one path.

use stats::compiler::{backend, bytecode::BytecodeInterp, frontend, midend, value::Value};
use stats::core::{run_protocol, SpecConfig, TradeoffBindings};
use stats::workloads::bodytrack::BodyTrack;
use stats::workloads::{with_workload, BenchmarkId, Workload, WorkloadSpec};

/// The full flow for bodytrack: declare its tradeoffs in the `.stats` DSL,
/// run the three compilers, extract the auxiliary-code bindings for a
/// configuration, and execute the *real* workload under those bindings.
#[test]
fn dsl_to_running_workload() {
    let workload = BodyTrack;
    let tradeoffs = workload.tradeoffs();
    let source = frontend::synthesize_source("bodytrack", &tradeoffs);
    let compiled = frontend::compile(&source).expect("front-end");
    let module = midend::run(compiled).expect("middle-end");

    // The back-end resolves a configuration into core bindings keyed by the
    // original tradeoff names (the bridge to native workload code) — but
    // the synthesized program prefixes names; map back through metadata.
    let dep = module.metadata.state_dep("bodytrack").expect("dep row");
    assert!(dep.aux_fn.is_some());

    // Cheap auxiliary configuration: every cloned tradeoff at index 0.
    let indices = vec![0_i64; dep.aux_tradeoffs.len()];
    let bindings = backend::core_bindings(&module, "bodytrack", &indices).expect("bindings");

    // The synthesized names carry a tN_ prefix; translate to the workload's
    // tradeoff names for the run.
    let mut aux = TradeoffBindings::new();
    for (i, t) in tradeoffs.iter().enumerate() {
        let key = format!("t{i}_{}", t.name());
        if let Some(v) = bindings.get(&key) {
            aux.set(t.name(), v.clone());
        }
    }
    // Numeric tradeoffs flow through the pipeline; type tradeoffs are
    // referenced via casts in real code — bind their defaults here.
    for t in &tradeoffs {
        if aux.get(t.name()).is_none() {
            aux.set(t.name(), t.value(t.default_index()));
        }
    }

    let spec = WorkloadSpec {
        inputs: 24,
        ..WorkloadSpec::default()
    };
    let inst = workload.instance(&spec);
    let cfg = SpecConfig {
        group_size: 6,
        window: 2,
        orig_bindings: TradeoffBindings::defaults(&tradeoffs),
        aux_bindings: aux,
        ..SpecConfig::default()
    };
    let r = run_protocol(&inst.transition, &inst.inputs, &inst.initial, &cfg, 5);
    assert_eq!(r.outputs.len(), 24);
    // Quality guard holds regardless of the auxiliary configuration.
    assert!(workload.output_error(&spec, &r.outputs) < 0.05);
}

/// Every benchmark's synthesized program survives the full compiler
/// pipeline and instantiates at the extreme configurations.
#[test]
fn all_benchmarks_compile_and_instantiate() {
    for bench in BenchmarkId::all() {
        let tradeoffs = with_workload!(bench, |w| w.tradeoffs());
        let source = frontend::synthesize_source(bench.name(), &tradeoffs);
        let compiled = frontend::compile(&source)
            .unwrap_or_else(|e| panic!("{}: front-end: {e}", bench.name()));
        let module =
            midend::run(compiled).unwrap_or_else(|e| panic!("{}: middle-end: {e}", bench.name()));
        let dep = module.metadata.state_dep(bench.name()).expect("dep row");
        for index in [0_i64, i64::MAX / 2] {
            let cfg = [(
                bench.name().to_string(),
                vec![index; dep.aux_tradeoffs.len()],
            )]
            .into_iter()
            .collect();
            let binary = backend::instantiate(&module, &cfg)
                .unwrap_or_else(|e| panic!("{}: back-end: {e}", bench.name()));
            for f in binary.functions() {
                assert!(
                    f.tradeoff_refs().is_empty(),
                    "{}: {} kept placeholders",
                    bench.name(),
                    f.name
                );
            }
        }
    }
}

/// The instantiated auxiliary code is genuinely cheaper at low indices:
/// run the synthesized `compute_output` clone through the interpreter at
/// both extremes and compare the returned magnitude (our synthesized
/// helpers multiply by the tradeoff value).
#[test]
fn configurations_change_behavior() {
    let tradeoffs = BodyTrack.tradeoffs();
    let source = frontend::synthesize_source("bodytrack", &tradeoffs);
    let module = midend::run(frontend::compile(&source).unwrap()).unwrap();
    let dep = module.metadata.state_dep("bodytrack").unwrap().clone();
    let run = |idx: i64| {
        let cfg = [("bodytrack".to_string(), vec![idx; dep.aux_tradeoffs.len()])]
            .into_iter()
            .collect();
        let binary = backend::instantiate(&module, &cfg).unwrap();
        BytecodeInterp::new(&binary)
            .call(dep.aux_fn.as_deref().unwrap(), &[Value::Int(1)])
            .unwrap()
            .unwrap()
            .as_float()
    };
    let cheap = run(0);
    let rich = run(100);
    assert!(
        rich > cheap,
        "max-index config ({rich}) not larger than min-index ({cheap})"
    );
}
