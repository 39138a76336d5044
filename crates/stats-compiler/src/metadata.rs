//! Module metadata tables (paper §3.4).
//!
//! The middle-end encodes STATS-specific information in metadata tables
//! riding with the IR, "inspired by the DotNET compilation framework, which
//! encodes source level information in metadata tables included in CIL
//! bytecode files". Two tables exist: tradeoffs and state dependences.

use crate::ast::TradeoffKind;
use crate::ir::Ty;

/// How a tradeoff's values are produced at configuration time.
#[derive(Debug, Clone, PartialEq)]
pub enum TradeoffValues {
    /// Values come from interpreting the tradeoff's `getValue` IR function
    /// (the paper's dynamic-compilation path).
    Computed {
        /// Name of the `getValue(i)` IR function.
        get_value_fn: String,
    },
    /// An enumerated list of numeric values.
    Values(Vec<f64>),
    /// An enumerated list of callee names (function tradeoff).
    Functions(Vec<String>),
    /// An enumerated list of scalar types (type tradeoff).
    Types(Vec<Ty>),
}

/// One row of the tradeoff table.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffMeta {
    /// Tradeoff name, as referenced by IR instructions.
    pub name: String,
    /// Number of possible values (`getMaxIndex`).
    pub max_index: i64,
    /// Index used outside auxiliary code (`getDefaultIndex`).
    pub default_index: i64,
    /// Value production rule.
    pub values: TradeoffValues,
    /// For clones created by the middle-end: the original tradeoff's name.
    pub cloned_from: Option<String>,
    /// For clones: the state dependence whose auxiliary code owns them.
    pub owner_dep: Option<String>,
}

/// One row of the state-dependence table.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDepMeta {
    /// Dependence name.
    pub name: String,
    /// The original `compute_output` function's name.
    pub compute_fn: String,
    /// The auxiliary clone's name (filled in by the middle-end).
    pub aux_fn: Option<String>,
    /// Names of the cloned tradeoffs owned by this dependence's auxiliary
    /// code, in declaration order — the order of configuration indices.
    pub aux_tradeoffs: Vec<String>,
    /// State variables this dependence *declares* it carries between
    /// invocations (the `state = [..];` field). The speculation-safety
    /// analysis checks the compute function's actual accesses against this
    /// set — an undeclared access is a race under speculative execution.
    pub declared_state: Vec<String>,
}

/// One row of the state-variable table: a cross-invocation global declared
/// with `state NAME = <literal>;`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVarMeta {
    /// State variable name, as referenced by IR instructions.
    pub name: String,
    /// Initial value before the first invocation.
    pub init: StateInit,
}

/// The initial value of a state variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StateInit {
    /// Integer initializer.
    Int(i64),
    /// Float initializer.
    Float(f64),
}

/// The metadata tables of a module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metadata {
    /// Tradeoff table.
    pub tradeoffs: Vec<TradeoffMeta>,
    /// State-dependence table.
    pub state_deps: Vec<StateDepMeta>,
    /// State-variable table (cross-invocation globals).
    pub state_vars: Vec<StateVarMeta>,
}

impl Metadata {
    /// Look up a tradeoff row by name.
    pub fn tradeoff(&self, name: &str) -> Option<&TradeoffMeta> {
        self.tradeoffs.iter().find(|t| t.name == name)
    }

    /// Look up a state dependence row by name.
    pub fn state_dep(&self, name: &str) -> Option<&StateDepMeta> {
        self.state_deps.iter().find(|d| d.name == name)
    }

    /// Remove a tradeoff row (the middle-end deletes rows of tradeoffs it
    /// pins to their defaults).
    pub fn remove_tradeoff(&mut self, name: &str) {
        self.tradeoffs.retain(|t| t.name != name);
    }
}

/// Convert a parsed AST tradeoff kind into metadata values, resolving type
/// names. `get_value_fn` names the IR function lowered from a computed rule.
pub fn values_from_kind(
    kind: &TradeoffKind,
    get_value_fn: String,
) -> Result<TradeoffValues, String> {
    Ok(match kind {
        TradeoffKind::Computed { .. } => TradeoffValues::Computed { get_value_fn },
        TradeoffKind::Values(vs) => TradeoffValues::Values(vs.clone()),
        TradeoffKind::Functions(fs) => TradeoffValues::Functions(fs.clone()),
        TradeoffKind::Types(ts) => {
            let mut tys = Vec::with_capacity(ts.len());
            for t in ts {
                tys.push(match t.as_str() {
                    "i64" => Ty::I64,
                    "f32" => Ty::F32,
                    "f64" => Ty::F64,
                    other => return Err(format!("unknown type `{other}` in type tradeoff")),
                });
            }
            TradeoffValues::Types(tys)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_remove() {
        let mut md = Metadata::default();
        md.tradeoffs.push(TradeoffMeta {
            name: "k".into(),
            max_index: 3,
            default_index: 0,
            values: TradeoffValues::Values(vec![1.0, 2.0, 4.0]),
            cloned_from: None,
            owner_dep: None,
        });
        assert!(md.tradeoff("k").is_some());
        md.remove_tradeoff("k");
        assert!(md.tradeoff("k").is_none());
    }

    #[test]
    fn type_names_resolve() {
        let v = values_from_kind(
            &TradeoffKind::Types(vec!["f64".into(), "f32".into()]),
            String::new(),
        )
        .unwrap();
        assert_eq!(v, TradeoffValues::Types(vec![Ty::F64, Ty::F32]));
    }

    #[test]
    fn unknown_type_rejected() {
        let e = values_from_kind(&TradeoffKind::Types(vec!["f16".into()]), String::new());
        assert!(e.is_err());
    }
}
