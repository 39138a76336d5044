//! The front-end compiler (paper §3.4, "Generating standard C++ code").
//!
//! The paper's front-end (written in Racket) translates C++ extended with
//! the SDI/TI into *standard* C++ plus a descriptor header (Figure 11): a
//! `TO[]` table naming, per tradeoff, the generated `getValue`/`size`/
//! `getDefaultIndex` functions and a placeholder function. Our front-end
//! parses the `.stats` language and produces the same artifacts: the
//! descriptor/lowered source text (whose line count feeds Table 1's
//! "LOC generated by compilers" column) and the IR module with metadata.

use std::collections::HashSet;
use std::fmt;

use crate::ast::{Expr, Program, TradeoffKind};
use crate::ir::{validate, MalformedBlock, Module};
use crate::lexer::LexError;
use crate::lower::{self, LowerError};
use crate::metadata::{values_from_kind, StateDepMeta, StateInit, StateVarMeta, TradeoffMeta};
use crate::parser::{parse, ParseError};

/// Any error the pipeline can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexical error.
    Lex(LexError),
    /// Parse error.
    Parse(ParseError),
    /// Lowering error.
    Lower(LowerError),
    /// Semantic error (bad references, duplicate names, …).
    Semantic(String),
    /// The speculation-safety analysis found hard errors and the
    /// middle-end gate is on ([`crate::midend::MidendOptions::enforce_analysis`]).
    Analysis(Vec<crate::analysis::Diagnostic>),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "lex error: {e}"),
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Lower(e) => write!(f, "lower error: {e}"),
            CompileError::Semantic(m) => write!(f, "semantic error: {m}"),
            CompileError::Analysis(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == crate::analysis::Severity::Error)
                    .count();
                write!(
                    f,
                    "analysis rejected the program ({errors} hard finding(s))"
                )?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// Lowering built a function with a malformed block.
impl From<MalformedBlock> for CompileError {
    fn from(e: MalformedBlock) -> Self {
        CompileError::Lower(LowerError {
            message: e.to_string(),
        })
    }
}

/// The front-end's output: the AST, the IR module with populated metadata
/// tables, and the generated descriptor source text.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The parsed program.
    pub program: Program,
    /// IR with metadata (input to the middle-end).
    pub module: Module,
    /// The Figure 11-style generated source (descriptor tables and
    /// placeholder definitions). Its length is a Table 1 statistic.
    pub lowered_source: String,
}

impl Compiled {
    /// Number of non-empty lines in the generated descriptor source.
    pub fn generated_loc(&self) -> usize {
        self.lowered_source
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count()
    }
}

/// Run the front-end over `.stats` source.
pub fn compile(source: &str) -> Result<Compiled, CompileError> {
    let program = parse(source)?;
    semantic_checks(&program)?;

    let globals = state_names(&program);
    let mut module = Module::new();
    // Lower user functions (state declarations are visible as globals).
    for f in &program.functions {
        let lowered = lower::lower_fn_with_globals(f, &globals)?;
        validate(&lowered)?;
        module.add_function(lowered);
    }

    // Lower tradeoff descriptors and populate the metadata table.
    let mut lowered_source = String::from("# generated by the STATS front-end\n");
    for (id, t) in program.tradeoffs.iter().enumerate() {
        let get_value_fn = lower::get_value_fn_name(&t.name);
        if let TradeoffKind::Computed { param, expr } = &t.kind {
            let f = lower::lower_get_value(&t.name, param, expr)?;
            validate(&f)?;
            // The getValue function itself must not reference tradeoffs.
            if !f.tradeoff_refs().is_empty() {
                return Err(CompileError::Semantic(format!(
                    "tradeoff `{}`: value rule may not reference tradeoffs",
                    t.name
                )));
            }
            module.add_function(f);
        }
        let values =
            values_from_kind(&t.kind, get_value_fn.clone()).map_err(CompileError::Semantic)?;
        module.metadata.tradeoffs.push(TradeoffMeta {
            name: t.name.clone(),
            max_index: t.max_index,
            default_index: t.default_index,
            values,
            cloned_from: None,
            owner_dep: None,
        });

        // Figure 11 emulation: descriptor entries and placeholder text.
        lowered_source.push_str(&format!(
            "fn T_{id}(p) {{ return p; }}\n\
             define {name} = T_{id}({id})\n\
             TO[{id}] = \"{gv} T_{id}_size T_{id}_getDefaultIndex T_{id}\"\n\
             fn T_{id}_size() {{ return {max}; }}\n\
             fn T_{id}_getDefaultIndex() {{ return {def}; }}\n",
            id = id,
            name = t.name,
            gv = get_value_fn,
            max = t.max_index,
            def = t.default_index,
        ));
    }

    // Populate the state-variable table.
    for s in &program.states {
        let init = match &s.init {
            Expr::Int(v) => StateInit::Int(*v),
            Expr::Float(v) => StateInit::Float(*v),
            other => {
                return Err(CompileError::Semantic(format!(
                    "state `{}` initializer must be a literal, found {other:?}",
                    s.name
                )))
            }
        };
        module.metadata.state_vars.push(StateVarMeta {
            name: s.name.clone(),
            init,
        });
        lowered_source.push_str(&format!(
            "state {name}: init={init:?} slot=stats_state_{name}\n",
            name = s.name,
        ));
    }

    // Populate the state-dependence table.
    for d in &program.state_deps {
        module.metadata.state_deps.push(StateDepMeta {
            name: d.name.clone(),
            compute_fn: d.compute.clone(),
            aux_fn: None,
            aux_tradeoffs: Vec::new(),
            declared_state: d.state.clone(),
        });
        lowered_source.push_str(&format!(
            "state_dep {name}: compute={compute} runtime=stats_runtime_{name}\n",
            name = d.name,
            compute = d.compute,
        ));
    }

    Ok(Compiled {
        program,
        module,
        lowered_source,
    })
}

/// The set of declared state-variable names.
fn state_names(program: &Program) -> HashSet<String> {
    program.states.iter().map(|s| s.name.clone()).collect()
}

fn semantic_checks(program: &Program) -> Result<(), CompileError> {
    // Unique names.
    let mut names: Vec<&str> = Vec::new();
    for t in &program.tradeoffs {
        if names.contains(&t.name.as_str()) {
            return Err(CompileError::Semantic(format!(
                "duplicate tradeoff `{}`",
                t.name
            )));
        }
        names.push(&t.name);
    }
    let mut fn_names: Vec<&str> = Vec::new();
    for f in &program.functions {
        if fn_names.contains(&f.name.as_str()) {
            return Err(CompileError::Semantic(format!(
                "duplicate function `{}`",
                f.name
            )));
        }
        fn_names.push(&f.name);
    }
    let mut state_seen: Vec<&str> = Vec::new();
    for s in &program.states {
        if state_seen.contains(&s.name.as_str()) {
            return Err(CompileError::Semantic(format!(
                "duplicate state variable `{}`",
                s.name
            )));
        }
        state_seen.push(&s.name);
    }
    // State dependences reference defined functions and declared state.
    for d in &program.state_deps {
        if program.function(&d.compute).is_none() {
            return Err(CompileError::Semantic(format!(
                "state_dependence `{}` references undefined function `{}`",
                d.name, d.compute
            )));
        }
        for s in &d.state {
            if program.state(s).is_none() {
                return Err(CompileError::Semantic(format!(
                    "state_dependence `{}` declares unknown state variable `{s}`",
                    d.name
                )));
            }
        }
    }
    // Tradeoff references resolve (function tradeoff callees may be
    // intrinsics, so only tradeoff names are checked here), and calls to
    // user-defined functions carry the right number of arguments.
    let globals = state_names(program);
    for f in &program.functions {
        let lowered = lower::lower_fn_with_globals(f, &globals)?;
        for t in lowered.tradeoff_refs() {
            if program.tradeoff(&t).is_none() {
                return Err(CompileError::Semantic(format!(
                    "function `{}` references undefined tradeoff `{t}`",
                    f.name
                )));
            }
        }
        check_arities(&f.name, &f.body, program)?;
    }
    Ok(())
}

fn check_arities(
    caller: &str,
    stmts: &[crate::ast::Stmt],
    program: &Program,
) -> Result<(), CompileError> {
    use crate::ast::{Expr, Stmt};
    fn walk_expr(caller: &str, e: &Expr, program: &Program) -> Result<(), CompileError> {
        match e {
            Expr::Call(name, args) => {
                if let Some(callee) = program.function(name) {
                    if callee.params.len() != args.len() {
                        return Err(CompileError::Semantic(format!(
                            "`{caller}` calls `{name}` with {} arguments,                              but it takes {}",
                            args.len(),
                            callee.params.len()
                        )));
                    }
                }
                for a in args {
                    walk_expr(caller, a, program)?;
                }
            }
            Expr::TradeoffCall(_, args) => {
                for a in args {
                    walk_expr(caller, a, program)?;
                }
            }
            Expr::Bin(_, a, b) => {
                walk_expr(caller, a, program)?;
                walk_expr(caller, b, program)?;
            }
            Expr::Neg(a) | Expr::Not(a) | Expr::TradeoffCast(_, a) => {
                walk_expr(caller, a, program)?
            }
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) | Expr::TradeoffRef(_) => {}
        }
        Ok(())
    }
    for s in stmts {
        match s {
            Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::Expr(e) => {
                walk_expr(caller, e, program)?;
            }
            Stmt::If(c, t, f) => {
                walk_expr(caller, c, program)?;
                check_arities(caller, t, program)?;
                check_arities(caller, f, program)?;
            }
            Stmt::While(c, b) => {
                walk_expr(caller, c, program)?;
                check_arities(caller, b, program)?;
            }
            Stmt::For(_, lo, hi, b) => {
                walk_expr(caller, lo, program)?;
                walk_expr(caller, hi, program)?;
                check_arities(caller, b, program)?;
            }
        }
    }
    Ok(())
}

/// Build a `.stats` program declaring this benchmark's tradeoffs and a
/// `compute_output` that references each through a helper (so the
/// middle-end's bottom-up cloning has real work to do).
pub fn synthesize_source(
    name: &str,
    tradeoffs: &[std::sync::Arc<dyn stats_core::TradeoffOptions>],
) -> String {
    use stats_core::TradeoffValue;
    let mut src = String::new();
    let mut helper_calls = String::new();
    for (i, t) in tradeoffs.iter().enumerate() {
        let values: Vec<TradeoffValue> = (0..t.max_index()).map(|j| t.value(j)).collect();
        let decl = match &values[0] {
            TradeoffValue::Int(_) => {
                let list: Vec<String> = values
                    .iter()
                    .map(|v| v.as_int().unwrap_or(0).to_string())
                    .collect();
                format!("values = [{}]", list.join(", "))
            }
            TradeoffValue::Float(_) => {
                let list: Vec<String> = values
                    .iter()
                    .map(|v| format!("{:.4}", v.as_float().unwrap_or(0.0)))
                    .collect();
                format!("values = [{}]", list.join(", "))
            }
            TradeoffValue::Type(_) => {
                let list: Vec<String> = values
                    .iter()
                    .map(|v| v.as_type().map(|t| t.to_string()).unwrap_or_default())
                    .collect();
                format!("types = [{}]", list.join(", "))
            }
            TradeoffValue::Function(_) => {
                let list: Vec<String> = values
                    .iter()
                    .map(|v| v.as_function().unwrap_or("f").to_string())
                    .collect();
                // Declare stub callees for the candidates.
                for f in &list {
                    if !src.contains(&format!("fn {f}(")) {
                        src.push_str(&format!("fn {f}(x) {{ return x; }}\n"));
                    }
                }
                format!("functions = [{}]", list.join(", "))
            }
        };
        let t_name = format!("t{i}_{}", t.name());
        src.push_str(&format!(
            "tradeoff {t_name} {{ {decl}; default_index = {}; }}\n",
            t.default_index()
        ));
        // Numeric tradeoffs appear as constants; function tradeoffs as
        // `choose` call sites. (Type tradeoffs apply to variable
        // declarations, which the mini-DSL leaves untyped.)
        match values[0] {
            TradeoffValue::Int(_) | TradeoffValue::Float(_) => {
                src.push_str(&format!(
                    "fn helper_{i}(x) {{ return x * tradeoff {t_name}; }}\n"
                ));
                helper_calls.push_str(&format!("    acc = acc + helper_{i}(input);\n"));
            }
            TradeoffValue::Function(_) => {
                src.push_str(&format!(
                    "fn helper_{i}(x) {{ return choose {t_name}(x); }}\n"
                ));
                helper_calls.push_str(&format!("    acc = acc + helper_{i}(input);\n"));
            }
            TradeoffValue::Type(_) => {
                src.push_str(&format!(
                    "fn helper_{i}(x) {{ return quantize {t_name}(x * 3 / 7); }}\n"
                ));
                helper_calls.push_str(&format!("    acc = acc + helper_{i}(input);\n"));
            }
        }
    }
    src.push_str(&format!(
        "state_dependence {name} {{ compute = compute_output; }}\n\
         fn compute_output(input) {{\n    let acc = 0;\n{helper_calls}    return acc;\n}}\n"
    ));
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODYTRACK_LIKE: &str = r#"
        tradeoff numAnnealingLayers { max_index = 10; default_index = 4; value(i) = i + 1; }
        tradeoff particles { values = [128, 256, 512, 1024]; default_index = 3; }
        state_dependence body { compute = step; }
        fn helper(x) { return x * tradeoff particles; }
        fn step(frame) {
            let layers = tradeoff numAnnealingLayers;
            let acc = 0;
            let i = 0;
            while (i < layers) {
                acc = acc + helper(frame + i);
                i = i + 1;
            }
            return acc;
        }
    "#;

    #[test]
    fn compiles_and_populates_metadata() {
        let c = compile(BODYTRACK_LIKE).unwrap();
        assert_eq!(c.module.metadata.tradeoffs.len(), 2);
        assert_eq!(c.module.metadata.state_deps.len(), 1);
        assert!(c.module.function("step").is_some());
        assert!(c.module.function("helper").is_some());
        assert!(c.module.function("T_numAnnealingLayers_getValue").is_some());
    }

    #[test]
    fn generated_source_has_descriptor_lines() {
        let c = compile(BODYTRACK_LIKE).unwrap();
        assert!(c.lowered_source.contains("TO[0]"));
        assert!(c.lowered_source.contains("T_numAnnealingLayers_getValue"));
        assert!(c.lowered_source.contains("state_dep body"));
        assert!(c.generated_loc() >= 10);
    }

    #[test]
    fn undefined_compute_rejected() {
        let err = compile("state_dependence d { compute = nope; }").unwrap_err();
        assert!(matches!(err, CompileError::Semantic(_)));
    }

    #[test]
    fn undefined_tradeoff_rejected() {
        let err = compile("fn f() { return tradeoff ghost; }").unwrap_err();
        assert!(matches!(err, CompileError::Semantic(_)));
    }

    #[test]
    fn duplicate_tradeoff_rejected() {
        let err = compile(
            "tradeoff t { values = [1]; default_index = 0; }
             tradeoff t { values = [2]; default_index = 0; }",
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::Semantic(_)));
    }

    #[test]
    fn arity_mismatch_rejected_at_compile_time() {
        let err = compile(
            "fn g(a, b) { return a + b; }
             fn f() { return g(1); }",
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::Semantic(_)), "{err}");
        let msg = format!("{err}");
        assert!(msg.contains("takes 2"), "{msg}");
    }

    #[test]
    fn intrinsic_calls_skip_arity_checks() {
        // `sqrt` is a host intrinsic, not a user function: no arity rule.
        assert!(compile("fn f(x) { return sqrt(x); }").is_ok());
    }

    #[test]
    fn for_loop_compiles_end_to_end() {
        let c = compile(
            "tradeoff n { values = [3, 6]; default_index = 0; }
             state_dependence d { compute = f; }
             fn f(x) { let s = 0; for i in 0..tradeoff n { s = s + x; } return s; }",
        )
        .unwrap();
        let m = crate::midend::run(c).unwrap();
        let out = crate::interp::Interp::new(&m)
            .call("f", &[crate::interp::Value::Int(2)])
            .unwrap()
            .unwrap();
        assert_eq!(out.as_int(), Some(6)); // default n = 3, s = 3 * 2
    }

    #[test]
    fn value_rule_may_not_use_tradeoffs() {
        let err = compile(
            "tradeoff a { values = [1]; default_index = 0; }
             tradeoff b { max_index = 2; default_index = 0; value(i) = i + tradeoff a; }",
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::Semantic(_)));
    }
}
