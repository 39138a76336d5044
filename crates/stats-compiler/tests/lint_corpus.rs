//! Golden test over the seeded-violation corpus in `examples/dsl/`.
//!
//! Every file under `examples/dsl/violations/` declares its expected lint
//! in a leading `// LINT: <name>` comment; the analysis must report that
//! lint (and, for error-severity lints, the middle-end gate must refuse
//! the program). Every other `.stats` file in `examples/dsl/` must come
//! out of `stats-lint`'s pipeline with no findings at all.

use std::path::{Path, PathBuf};

use stats_compiler::analysis::{self, Diagnostic};
use stats_compiler::frontend;
use stats_compiler::midend::{self, MidendOptions};

fn dsl_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/dsl")
}

fn stats_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "stats"))
        .collect();
    out.sort();
    out
}

/// The `stats-lint` pipeline: analyze the front-end output, then the
/// middle-end output with the gate off, and merge.
fn lint(source: &str) -> Vec<Diagnostic> {
    let compiled = frontend::compile(source).expect("corpus file must compile");
    let mut diags = analysis::analyze(&compiled.module);
    let module = midend::run_with(
        compiled,
        MidendOptions {
            enforce_analysis: false,
            ..MidendOptions::default()
        },
    )
    .expect("middle-end must succeed with the gate off");
    diags.extend(analysis::analyze(&module));
    analysis::dedup_sorted(diags)
}

fn expected_lint(source: &str) -> String {
    source
        .lines()
        .find_map(|l| l.trim().strip_prefix("// LINT:"))
        .expect("violation file must carry a `// LINT: <name>` header")
        .trim()
        .to_string()
}

#[test]
fn every_violation_file_flags_its_expected_lint() {
    let files = stats_files(&dsl_dir().join("violations"));
    assert!(files.len() >= 5, "corpus went missing: {files:?}");
    for path in files {
        let source = std::fs::read_to_string(&path).unwrap();
        let expected = expected_lint(&source);
        let diags = lint(&source);
        assert!(
            diags.iter().any(|d| d.lint.name() == expected),
            "{}: expected lint `{expected}`, got {diags:?}",
            path.display()
        );
    }
}

#[test]
fn error_severity_violations_are_rejected_by_the_midend_gate() {
    for path in stats_files(&dsl_dir().join("violations")) {
        let source = std::fs::read_to_string(&path).unwrap();
        let diags = lint(&source);
        let has_errors = analysis::has_errors(&diags);
        let gated = midend::run(frontend::compile(&source).unwrap());
        match (has_errors, gated) {
            (true, Err(frontend::CompileError::Analysis(d))) => {
                assert!(analysis::has_errors(&d), "{}", path.display());
            }
            (true, other) => panic!(
                "{}: expected analysis rejection, got {other:?}",
                path.display()
            ),
            (false, result) => {
                result
                    .unwrap_or_else(|e| panic!("{}: warnings must not gate: {e}", path.display()));
            }
        }
    }
}

#[test]
fn shipped_examples_are_clean() {
    let files = stats_files(&dsl_dir());
    assert!(!files.is_empty());
    for path in files {
        let source = std::fs::read_to_string(&path).unwrap();
        let diags = lint(&source);
        assert!(
            diags.is_empty(),
            "{}: shipped example must lint clean, got {diags:?}",
            path.display()
        );
    }
}

/// A store after `return` never runs, so it is neither a race on
/// undeclared state nor an impurity of the auxiliary code: the program
/// lints without errors and passes the middle-end gate.
#[test]
fn a_store_after_return_is_not_a_finding() {
    let source = "state total = 0; state hidden = 0; \
        state_dependence mean { compute = update; state = [total]; } \
        fn update(sample) { total = total + sample; return total; hidden = hidden + 1; }";
    let diags = lint(source);
    assert!(!analysis::has_errors(&diags), "{diags:?}");
    midend::run(frontend::compile(source).unwrap()).expect("the gate passes");
}
