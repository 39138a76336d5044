//! Tradeoff interval analysis (divergence-from-default check).
//!
//! Each auxiliary tradeoff ranges over `value(i)` for `i` in
//! `0..max_index`, but only the default index is ever exercised outside
//! auxiliary code. A program can therefore look perfectly healthy at the
//! default configuration and still divide by zero — or produce unbounded
//! values — at some other setting the autotuner is free to pick.
//!
//! This pass runs the forward dataflow framework twice per function in a
//! dependence's clone set, over an interval domain ([`Interval`]):
//!
//! 1. a **default run**, where each owned tradeoff is the *point* interval
//!    of its default value, and
//! 2. a **full-range run**, where each owned tradeoff is the hull of its
//!    values over *all* indices.
//!
//! A finding is reported only when the two runs *diverge*: a division
//! whose divisor may be zero under the full range but not at the default,
//! or a return interval unbounded under the full range but bounded at the
//! default. Unboundedness present in both runs (e.g. from input
//! parameters, which are `⊤` in both) cancels out, which is what makes
//! the comparison tradeoff-specific.

use std::collections::{HashMap, HashSet};

use crate::ir::{BinOp, Function, Inst, Module, Operand, Reg};
use crate::metadata::TradeoffValues;
use crate::midend::{tradeoff_value_at, ResolvedValue};
use crate::verify::Location;

use super::dataflow::{self, ForwardAnalysis, Lattice};
use super::{Diagnostic, LintKind, Severity};

/// A closed interval of reals, possibly unbounded on either side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (may be `-inf`).
    pub lo: f64,
    /// Upper bound (may be `+inf`).
    pub hi: f64,
}

/// The full real line.
const TOP: Interval = Interval {
    lo: f64::NEG_INFINITY,
    hi: f64::INFINITY,
};

impl Interval {
    /// The interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The unbounded interval.
    pub fn top() -> Self {
        TOP
    }

    /// Build `[lo, hi]`, collapsing NaN bounds (from `∞ - ∞` style
    /// arithmetic) to the unbounded interval.
    fn make(lo: f64, hi: f64) -> Self {
        if lo.is_nan() || hi.is_nan() {
            TOP
        } else {
            Interval { lo, hi }
        }
    }

    /// Both bounds finite?
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Does the interval contain zero?
    pub fn contains_zero(&self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }

    /// Smallest interval containing both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::make(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    fn apply(op: BinOp, a: Interval, b: Interval) -> Interval {
        let corners = |f: fn(f64, f64) -> f64| {
            let cs = [f(a.lo, b.lo), f(a.lo, b.hi), f(a.hi, b.lo), f(a.hi, b.hi)];
            if cs.iter().any(|c| c.is_nan()) {
                return TOP;
            }
            Interval::make(
                cs.iter().cloned().fold(f64::INFINITY, f64::min),
                cs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        match op {
            BinOp::Add => Interval::make(a.lo + b.lo, a.hi + b.hi),
            BinOp::Sub => Interval::make(a.lo - b.hi, a.hi - b.lo),
            BinOp::Mul => corners(|x, y| x * y),
            BinOp::Div => {
                if b.contains_zero() {
                    TOP
                } else {
                    corners(|x, y| x / y)
                }
            }
            BinOp::Rem => {
                if b.contains_zero() || !b.is_bounded() {
                    TOP
                } else {
                    // |a % b| < |b|, sign follows the dividend.
                    let m = b.lo.abs().max(b.hi.abs());
                    Interval::make(-m, m)
                }
            }
            // Comparisons produce 0/1.
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                Interval::make(0.0, 1.0)
            }
        }
    }
}

/// Per-register interval environment (the dataflow fact). A register
/// absent from the map has never been written on this path, which the
/// interpreter reads as `0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    regs: HashMap<Reg, Interval>,
}

impl Env {
    fn get(&self, r: Reg) -> Interval {
        self.regs.get(&r).copied().unwrap_or(Interval::point(0.0))
    }

    fn eval(&self, op: &Operand) -> Interval {
        match op {
            Operand::Reg(r) => self.get(*r),
            Operand::ImmInt(v) => Interval::point(*v as f64),
            Operand::ImmFloat(v) => Interval::point(*v),
        }
    }

    fn set(&mut self, r: Reg, v: Interval) {
        self.regs.insert(r, v);
    }
}

impl Lattice for Env {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        let keys: HashSet<Reg> = self.regs.keys().chain(other.regs.keys()).copied().collect();
        for r in keys {
            let joined = self.get(r).hull(&other.get(r));
            if self.regs.get(&r) != Some(&joined) {
                self.regs.insert(r, joined);
                changed = true;
            }
        }
        changed
    }
}

/// The interval analysis proper: a forward dataflow over [`Env`],
/// parameterized by the tradeoff environment (name → value interval).
pub struct IntervalAnalysis<'a> {
    /// Known value intervals for tradeoff placeholders; anything absent is
    /// treated as `⊤`.
    pub tradeoffs: &'a HashMap<String, Interval>,
}

fn intrinsic_interval(callee: &str, args: &[Interval]) -> Interval {
    match (callee, args) {
        ("abs", [a]) => {
            if a.contains_zero() {
                Interval::make(0.0, a.lo.abs().max(a.hi.abs()))
            } else {
                let (x, y) = (a.lo.abs(), a.hi.abs());
                Interval::make(x.min(y), x.max(y))
            }
        }
        ("sqrt", [a]) => Interval::make(0.0, if a.hi >= 0.0 { a.hi.sqrt() } else { 0.0 }),
        ("floor", [a]) => Interval::make(a.lo.floor(), a.hi.floor()),
        ("min", [a, b]) => Interval::make(a.lo.min(b.lo), a.hi.min(b.hi)),
        ("max", [a, b]) => Interval::make(a.lo.max(b.lo), a.hi.max(b.hi)),
        ("exp", [a]) => Interval::make(0.0, a.hi.exp()),
        _ => Interval::top(),
    }
}

impl ForwardAnalysis for IntervalAnalysis<'_> {
    type Fact = Env;

    fn boundary(&self, f: &Function) -> Env {
        let mut env = Env {
            regs: HashMap::new(),
        };
        // Invocation inputs are arbitrary in both runs.
        for p in &f.params {
            env.set(*p, Interval::top());
        }
        env
    }

    fn transfer(&self, _f: &Function, inst: &Inst, env: &mut Env, widen: bool) {
        let widened = |env: &Env, dst: Reg, new: Interval| {
            if !widen {
                return new;
            }
            // Accelerate loops: any bound still growing jumps to infinity.
            let old = env.get(dst);
            Interval::make(
                if new.lo < old.lo {
                    f64::NEG_INFINITY
                } else {
                    new.lo
                },
                if new.hi > old.hi {
                    f64::INFINITY
                } else {
                    new.hi
                },
            )
        };
        match inst {
            Inst::Const { dst, value } => {
                let v = widened(env, *dst, env.eval(value));
                env.set(*dst, v);
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let v = Interval::apply(*op, env.eval(lhs), env.eval(rhs));
                let v = widened(env, *dst, v);
                env.set(*dst, v);
            }
            Inst::Cast { dst, src, .. } => {
                let v = widened(env, *dst, env.eval(src));
                env.set(*dst, v);
            }
            Inst::Call { dst, callee, args } => {
                if let Some(dst) = dst {
                    let arg_ivs: Vec<Interval> = args.iter().map(|a| env.eval(a)).collect();
                    let v = widened(env, *dst, intrinsic_interval(callee, &arg_ivs));
                    env.set(*dst, v);
                }
            }
            Inst::CallTradeoff { dst, .. } => {
                if let Some(dst) = dst {
                    env.set(*dst, Interval::top());
                }
            }
            Inst::TradeoffRef { dst, tradeoff } => {
                let v = self
                    .tradeoffs
                    .get(tradeoff)
                    .copied()
                    .unwrap_or(Interval::top());
                env.set(*dst, v);
            }
            // Cross-invocation state is arbitrary by the time a later
            // invocation observes it.
            Inst::LoadState { dst, .. } => env.set(*dst, Interval::top()),
            Inst::StoreState { .. } | Inst::Jmp { .. } | Inst::Br { .. } | Inst::Ret { .. } => {}
        }
    }
}

/// What one run of the analysis concluded about a function.
#[derive(Debug, Clone, PartialEq)]
pub struct FnSummary {
    /// Hull over all `ret <value>` sites; `None` if the function never
    /// returns a value (or is unreachable past entry).
    pub ret: Option<Interval>,
    /// Flat instruction indices (in [`Function::insts`] order) of `Div` /
    /// `Rem` instructions whose divisor may be zero.
    pub zero_divisors: Vec<usize>,
}

/// Analyze one function under a tradeoff environment.
pub fn analyze_function(f: &Function, tradeoffs: &HashMap<String, Interval>) -> FnSummary {
    let analysis = IntervalAnalysis { tradeoffs };
    let entry_facts = dataflow::run(f, &analysis);

    let mut ret: Option<Interval> = None;
    let mut zero_divisors = Vec::new();
    // Flat indices are positions in `Function::insts`, which walks each
    // block up to its terminator.
    let mut block_start = 0usize;
    for (bi, block) in f.blocks.iter().enumerate() {
        let flat_indices = block_start..;
        block_start += block.live().len();
        let Some(mut env) = entry_facts.get(bi).and_then(Clone::clone) else {
            continue;
        };
        for (flat, inst) in flat_indices.zip(block.live()) {
            match inst {
                Inst::Bin {
                    op: BinOp::Div | BinOp::Rem,
                    rhs,
                    ..
                } if env.eval(rhs).contains_zero() => zero_divisors.push(flat),
                Inst::Ret { value: Some(v) } => {
                    let iv = env.eval(v);
                    ret = Some(match ret {
                        Some(prev) => prev.hull(&iv),
                        None => iv,
                    });
                }
                _ => {}
            }
            analysis.transfer(f, inst, &mut env, false);
        }
    }
    FnSummary { ret, zero_divisors }
}

/// Tradeoff environments for one dependence's owned rows: `(default,
/// full-range)`. Rows whose values are functions or types contribute
/// nothing (calls through them are `⊤` either way).
fn dep_envs(module: &Module, dep: &str) -> (HashMap<String, Interval>, HashMap<String, Interval>) {
    let mut default = HashMap::new();
    let mut full = HashMap::new();
    for row in &module.metadata.tradeoffs {
        if row.owner_dep.as_deref() != Some(dep) {
            continue;
        }
        if matches!(
            row.values,
            TradeoffValues::Functions(_) | TradeoffValues::Types(_)
        ) {
            continue;
        }
        let value_at = |i: i64| -> Option<f64> {
            match tradeoff_value_at(module, row, i).ok()? {
                ResolvedValue::Int(v) => Some(v as f64),
                ResolvedValue::Float(v) => Some(v),
                _ => None,
            }
        };
        let Some(d) = value_at(row.default_index) else {
            continue;
        };
        let mut range = Interval::point(d);
        let mut complete = true;
        for i in 0..row.max_index {
            match value_at(i) {
                Some(v) => range = range.hull(&Interval::point(v)),
                None => complete = false,
            }
        }
        default.insert(row.name.clone(), Interval::point(d));
        full.insert(
            row.name.clone(),
            if complete { range } else { Interval::top() },
        );
    }
    (default, full)
}

/// Run the divergence check over every dependence that has auxiliary code.
pub fn check(module: &Module, cg: &super::callgraph::CallGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for dep in &module.metadata.state_deps {
        let Some(aux) = &dep.aux_fn else { continue };
        let (env_default, env_full) = dep_envs(module, &dep.name);
        if env_full.is_empty() {
            continue;
        }
        for name in cg.reachable(aux) {
            let Some(f) = module.function(&name) else {
                continue;
            };
            let at_default = analyze_function(f, &env_default);
            let at_full = analyze_function(f, &env_full);

            for site in &at_full.zero_divisors {
                if !at_default.zero_divisors.contains(site) {
                    diags.push(Diagnostic {
                        lint: LintKind::IntervalDivergence,
                        severity: Severity::Warning,
                        message: format!(
                            "in dependence `{}`: division may hit a zero divisor for \
                             some setting of the auxiliary tradeoffs (the default \
                             configuration is safe)",
                            dep.name
                        ),
                        location: Some(Location::new(&f.name, *site)),
                    });
                }
            }
            if let (Some(d), Some(fu)) = (&at_default.ret, &at_full.ret) {
                if d.is_bounded() && !fu.is_bounded() {
                    diags.push(Diagnostic {
                        lint: LintKind::IntervalDivergence,
                        severity: Severity::Warning,
                        message: format!(
                            "in dependence `{}`: `{}` returns a bounded value \
                             [{}, {}] at the default configuration but an unbounded \
                             one over the full tradeoff range",
                            dep.name, f.name, d.lo, d.hi
                        ),
                        location: None,
                    });
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::callgraph::CallGraph;
    use crate::frontend::compile;
    use crate::midend::{self, MidendOptions};

    fn midend_module(src: &str) -> Module {
        midend::run_with(
            compile(src).unwrap(),
            MidendOptions {
                enforce_analysis: false,
                ..MidendOptions::default()
            },
        )
        .unwrap()
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        run_module(&midend_module(src))
    }

    fn run_module(m: &Module) -> Vec<Diagnostic> {
        check(m, &CallGraph::build(m))
    }

    #[test]
    fn interval_arithmetic_basics() {
        let a = Interval::point(4.0).hull(&Interval::point(-2.0));
        assert_eq!(a, Interval { lo: -2.0, hi: 4.0 });
        assert!(a.contains_zero());
        let sq = Interval::apply(BinOp::Mul, a, a);
        assert_eq!(sq, Interval { lo: -8.0, hi: 16.0 });
        // Division by an interval containing zero is unbounded.
        assert!(!Interval::apply(BinOp::Div, Interval::point(1.0), a).is_bounded());
        // Division by a safe interval is bounded.
        let safe = Interval { lo: 1.0, hi: 2.0 };
        assert_eq!(
            Interval::apply(BinOp::Div, Interval::point(4.0), safe),
            Interval { lo: 2.0, hi: 4.0 }
        );
    }

    #[test]
    fn zero_divisor_under_full_range_is_flagged() {
        // Default (index 1) maps to divisor 1; index 0 maps to divisor 0.
        let diags = run("tradeoff step { values = [0, 1, 2]; default_index = 1; }
             state_dependence d { compute = f; }
             fn f(x) { return x / tradeoff step; }");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].lint, LintKind::IntervalDivergence);
        assert!(diags[0].message.contains("zero divisor"));
        let loc = diags[0].location.as_ref().unwrap();
        assert_eq!(loc.function, "f__aux_d");
    }

    #[test]
    fn safe_range_is_clean() {
        let diags = run("tradeoff step { values = [1, 2, 4]; default_index = 0; }
             state_dependence d { compute = f; }
             fn f(x) { return x / tradeoff step; }");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn divisor_zero_in_both_runs_is_not_divergence() {
        // The *parameter* may be zero in both runs — not tradeoff-caused.
        let diags = run("tradeoff step { values = [1, 2]; default_index = 0; }
             state_dependence d { compute = f; }
             fn f(x) { return (tradeoff step) / x; }");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unbounded_return_divergence_is_flagged() {
        // 100 / (value - 3): default value 1 -> -50; but value 3 in range
        // makes the divisor interval contain zero -> unbounded.
        let diags = run("tradeoff v { values = [1, 3]; default_index = 0; }
             state_dependence d { compute = f; }
             fn f(x) { return 100 / ((tradeoff v) - 3); }");
        assert!(
            diags.iter().any(|d| d.message.contains("zero divisor")),
            "{diags:?}"
        );
    }

    #[test]
    fn loops_terminate_via_widening() {
        // A loop accumulating a tradeoff-scaled value must converge.
        let diags = run(
            "tradeoff k { values = [1, 2]; default_index = 0; }
             state_dependence d { compute = f; }
             fn f(x) { let s = 0; let i = 0; while (i < x) { s = s + tradeoff k; i = i + 1; } return s; }",
        );
        // Unbounded in both runs (loop count depends on x): no divergence.
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn computed_rows_resolve_via_get_value() {
        // value(i) = i -> index 0 gives divisor 0 under full range.
        let diags = run(
            "tradeoff step { max_index = 4; default_index = 2; value(i) = i; }
             state_dependence d { compute = f; }
             fn f(x) { return x / tradeoff step; }",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    /// Lowering leaves code after a `return`; it never runs, so a division
    /// there is no finding.
    #[test]
    fn division_after_return_is_dead() {
        let m = midend_module(
            "tradeoff step { values = [0, 1, 2]; default_index = 1; }
             state_dependence d { compute = f; }
             fn f(x) { return x; let y = x / tradeoff step; return y; }",
        );
        let diags = crate::analysis::analyze(&m);
        assert!(
            diags.iter().all(|d| d.lint != LintKind::IntervalDivergence),
            "{diags:?}"
        );
    }

    /// A finding's location is its position in `Function::insts`, which
    /// skips the dead code after an earlier block's terminator.
    #[test]
    fn locations_stay_flat_instruction_indices() {
        let m = midend_module(
            "tradeoff step { values = [0, 1, 2]; default_index = 1; }
             state_dependence d { compute = f; }
             fn f(x) { if (x > 0) { return 1; let z = 2; } return x / tradeoff step; }",
        );
        let diags = run_module(&m);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let f = m.function("f__aux_d").unwrap();
        let div = f
            .insts()
            .position(|i| matches!(i, Inst::Bin { op: BinOp::Div, .. }))
            .unwrap();
        assert_eq!(diags[0].location, Some(Location::new("f__aux_d", div)));
    }
}
