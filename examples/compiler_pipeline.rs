//! Drive the three STATS compilers by hand (paper §3.4).
//!
//! ```text
//! cargo run --release --example compiler_pipeline
//! ```
//!
//! A `.stats` source (the SDI/TI language extensions) flows through the
//! front-end (descriptor tables + AST), the middle-end (auxiliary-code
//! cloning over the call graph, default-pinning of global tradeoffs), and
//! the back-end (per-configuration instantiation, with tradeoff values
//! fetched by "dynamically compiling" `getValue(i)`), and the resulting
//! "binaries" execute on the bytecode tier.

use stats::compiler::{backend, bytecode::BytecodeInterp, frontend, midend};

const SOURCE: &str = r#"
# A miniature bodytrack: the per-frame model update with two tradeoffs.
tradeoff numAnnealingLayers { max_index = 10; default_index = 4; value(i) = i + 1; }
tradeoff numParticles { values = [16, 32, 64, 128]; default_index = 2; }

state_dependence body { compute = update_model; }

fn anneal(frame, layers) {
    let acc = 0;
    let l = 0;
    while (l < layers) {
        acc = acc + frame * (l + 1);
        l = l + 1;
    }
    return acc;
}

fn update_model(frame) {
    let layers = tradeoff numAnnealingLayers;
    let particles = tradeoff numParticles;
    return anneal(frame, layers) * particles;
}
"#;

fn main() {
    // Front-end: extended source -> AST + descriptor tables (Figure 11).
    let compiled = frontend::compile(SOURCE).expect("front-end");
    println!(
        "front-end generated {} descriptor lines:",
        compiled.generated_loc()
    );
    for line in compiled.lowered_source.lines().take(6) {
        println!("  | {line}");
    }

    // Middle-end: clone compute_output (and every tradeoff-carrying callee)
    // into auxiliary code; pin global tradeoffs to their defaults.
    let before = compiled.module.inst_count();
    let module = midend::run(compiled).expect("middle-end");
    println!(
        "\nmiddle-end: {} -> {} IR instructions (+{:.0}% from auxiliary cloning)",
        before,
        module.inst_count(),
        (module.inst_count() as f64 / before as f64 - 1.0) * 100.0
    );
    let dep = module.metadata.state_dep("body").expect("dependence row");
    println!(
        "auxiliary clone: {} with tunable tradeoffs {:?}",
        dep.aux_fn.as_deref().unwrap_or("-"),
        dep.aux_tradeoffs
    );

    // Back-end: instantiate two configurations of the same IR and run them.
    for (label, indices) in [("cheapest", vec![0, 0]), ("highest-quality", vec![9, 3])] {
        let config = [("body".to_string(), indices)].into_iter().collect();
        let binary = backend::instantiate(&module, &config).expect("back-end");
        let mut run = BytecodeInterp::new(&binary);
        let aux_out = run
            .call("update_model__aux_body", &[10.into()])
            .expect("aux run")
            .expect("value");
        let orig_out = run
            .call("update_model", &[10.into()])
            .expect("original run")
            .expect("value");
        println!(
            "{label:>16}: auxiliary update_model(10) = {:?}, original = {:?} (defaults)",
            aux_out, orig_out
        );
    }
}
