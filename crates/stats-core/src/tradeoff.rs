//! The Tradeoff Interface (TI, paper §3.3 and Figure 10).
//!
//! A *tradeoff* is a piece of program text — a constant, a data type, or a
//! function choice — whose value is picked from a developer-supplied,
//! enumerable range. Tradeoffs balance the quality of the auxiliary code's
//! speculative state against its computational cost; the autotuner picks
//! their indices.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Scalar data types a *type tradeoff* may select (e.g. the precision of a
/// simulation variable in `bodytrack` or `fluidanimate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// 32-bit IEEE-754 floating point.
    F32,
    /// 64-bit IEEE-754 floating point.
    F64,
}

impl ScalarType {
    /// Round `x` to the precision of this type (the run-time effect of a
    /// type tradeoff on a computed value).
    pub fn quantize(self, x: f64) -> f64 {
        match self {
            ScalarType::F32 => x as f32 as f64,
            ScalarType::F64 => x,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarType::F32 => write!(f, "f32"),
            ScalarType::F64 => write!(f, "f64"),
        }
    }
}

/// A concrete value a tradeoff can take.
#[derive(Debug, Clone, PartialEq)]
pub enum TradeoffValue {
    /// An integer constant (e.g. number of annealing layers).
    Int(i64),
    /// A floating-point constant.
    Float(f64),
    /// A data type (variable precision).
    Type(ScalarType),
    /// A named function implementation (e.g. a specific `sqrt`).
    Function(String),
}

impl TradeoffValue {
    /// The integer payload, if this is an [`TradeoffValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            TradeoffValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload; integers are widened.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            TradeoffValue::Float(v) => Some(*v),
            TradeoffValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The type payload, if this is a [`TradeoffValue::Type`].
    pub fn as_type(&self) -> Option<ScalarType> {
        match self {
            TradeoffValue::Type(t) => Some(*t),
            _ => None,
        }
    }

    /// The function name, if this is a [`TradeoffValue::Function`].
    pub fn as_function(&self) -> Option<&str> {
        match self {
            TradeoffValue::Function(name) => Some(name),
            _ => None,
        }
    }
}

/// The developer-facing tradeoff description (paper Figure 10).
///
/// Mirrors `Tradeoff_options`: `getMaxIndex()`, `getValue(i)` and
/// `getDefaultIndex()`.
pub trait TradeoffOptions: Send + Sync {
    /// The tradeoff's name, used by code to reference it.
    fn name(&self) -> &str;

    /// Number of possible values (`getMaxIndex`).
    fn max_index(&self) -> i64;

    /// The `i`-th possible value (`getValue`). `i` must be in
    /// `0..max_index()`.
    fn value(&self, index: i64) -> TradeoffValue;

    /// The index used when the tradeoff is referenced outside auxiliary code
    /// (`getDefaultIndex`). Setting every tradeoff to its default yields the
    /// paper's baseline program.
    fn default_index(&self) -> i64;
}

/// A [`TradeoffOptions`] backed by an explicit list of values.
///
/// This is the most common shape in the benchmarks: a handful of enumerated
/// alternatives (precisions, function versions, small integer ranges).
#[derive(Clone)]
pub struct EnumeratedTradeoff {
    name: String,
    values: Vec<TradeoffValue>,
    default_index: i64,
}

impl EnumeratedTradeoff {
    /// Create a tradeoff from an explicit value list.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `default_index` is out of range.
    pub fn new(name: impl Into<String>, values: Vec<TradeoffValue>, default_index: i64) -> Self {
        assert!(!values.is_empty(), "a tradeoff needs at least one value");
        assert!(
            (0..values.len() as i64).contains(&default_index),
            "default index out of range"
        );
        EnumeratedTradeoff {
            name: name.into(),
            values,
            default_index,
        }
    }

    /// Convenience constructor for an integer range `lo..=hi`.
    pub fn int_range(name: impl Into<String>, lo: i64, hi: i64, default: i64) -> Self {
        assert!(lo <= hi);
        assert!((lo..=hi).contains(&default));
        let values = (lo..=hi).map(TradeoffValue::Int).collect();
        Self::new(name, values, default - lo)
    }
}

impl fmt::Debug for EnumeratedTradeoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnumeratedTradeoff")
            .field("name", &self.name)
            .field("len", &self.values.len())
            .field("default_index", &self.default_index)
            .finish()
    }
}

impl TradeoffOptions for EnumeratedTradeoff {
    fn name(&self) -> &str {
        &self.name
    }

    fn max_index(&self) -> i64 {
        self.values.len() as i64
    }

    fn value(&self, index: i64) -> TradeoffValue {
        self.values[index as usize].clone()
    }

    fn default_index(&self) -> i64 {
        self.default_index
    }
}

/// A resolved set of tradeoff values, consulted by (auxiliary) code at run
/// time through [`InvocationCtx`](crate::InvocationCtx).
///
/// Two bindings exist per program configuration: one for original code
/// (always the defaults, set by the middle-end compiler) and one for each
/// state dependence's auxiliary code (set by the back-end from an autotuner
/// configuration).
///
/// Bindings are written once per configuration but cloned once per *chain*
/// of invocations (each `InvocationCtx` owns a copy, and the runtime
/// re-arms one context for every invocation of a group's chain, an
/// auxiliary window, a re-execution or a sequential tail), so the map lives
/// behind an [`Arc`]: cloning is a reference-count bump, and the rare post-clone
/// [`set`](Self::set) copies on write via [`Arc::make_mut`].
#[derive(Clone, Default)]
pub struct TradeoffBindings {
    values: Arc<HashMap<String, TradeoffValue>>,
}

impl TradeoffBindings {
    /// Empty bindings (every lookup fails).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind every tradeoff in `options` to its default index — the paper's
    /// baseline semantics for code outside auxiliary functions.
    pub fn defaults(options: &[Arc<dyn TradeoffOptions>]) -> Self {
        let mut b = Self::new();
        for t in options {
            b.set(t.name(), t.value(t.default_index()));
        }
        b
    }

    /// Bind every tradeoff in `options` to the given indices
    /// (`indices[i]` applies to `options[i]`); indices are clamped to the
    /// tradeoff's valid range.
    pub fn from_indices(options: &[Arc<dyn TradeoffOptions>], indices: &[i64]) -> Self {
        let mut b = Self::new();
        for (t, &raw) in options.iter().zip(indices) {
            let idx = raw.clamp(0, t.max_index() - 1);
            b.set(t.name(), t.value(idx));
        }
        // Unspecified trailing tradeoffs fall back to defaults.
        for t in options.iter().skip(indices.len()) {
            b.set(t.name(), t.value(t.default_index()));
        }
        b
    }

    /// Set (or overwrite) one binding. Copies the underlying map only when
    /// it is shared with a clone (copy-on-write).
    pub fn set(&mut self, name: impl Into<String>, value: TradeoffValue) {
        Arc::make_mut(&mut self.values).insert(name.into(), value);
    }

    /// Look up a binding.
    pub fn get(&self, name: &str) -> Option<&TradeoffValue> {
        self.values.get(name)
    }

    /// Number of bound tradeoffs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no tradeoffs are bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Debug for TradeoffBindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<_> = self.values.keys().collect();
        names.sort();
        f.debug_map()
            .entries(names.iter().map(|n| (n, &self.values[n.as_str()])))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers() -> EnumeratedTradeoff {
        // The bodytrack annealing-layers tradeoff of Figure 10:
        // max_index 10, value(i) = i + 1, default index 4.
        EnumeratedTradeoff::int_range("numAnnealingLayers", 1, 10, 5)
    }

    #[test]
    fn figure10_semantics() {
        let t = layers();
        assert_eq!(t.max_index(), 10);
        assert_eq!(t.value(0), TradeoffValue::Int(1));
        assert_eq!(t.value(9), TradeoffValue::Int(10));
        assert_eq!(t.default_index(), 4);
        assert_eq!(t.value(t.default_index()), TradeoffValue::Int(5));
    }

    #[test]
    fn defaults_binding() {
        let opts: Vec<Arc<dyn TradeoffOptions>> = vec![Arc::new(layers())];
        let b = TradeoffBindings::defaults(&opts);
        assert_eq!(b.get("numAnnealingLayers").unwrap().as_int(), Some(5));
    }

    #[test]
    fn from_indices_clamps() {
        let opts: Vec<Arc<dyn TradeoffOptions>> = vec![Arc::new(layers())];
        let b = TradeoffBindings::from_indices(&opts, &[99]);
        assert_eq!(b.get("numAnnealingLayers").unwrap().as_int(), Some(10));
        let b = TradeoffBindings::from_indices(&opts, &[-7]);
        assert_eq!(b.get("numAnnealingLayers").unwrap().as_int(), Some(1));
    }

    #[test]
    fn missing_indices_use_defaults() {
        let opts: Vec<Arc<dyn TradeoffOptions>> = vec![
            Arc::new(layers()),
            Arc::new(EnumeratedTradeoff::new(
                "precision",
                vec![
                    TradeoffValue::Type(ScalarType::F32),
                    TradeoffValue::Type(ScalarType::F64),
                ],
                1,
            )),
        ];
        let b = TradeoffBindings::from_indices(&opts, &[0]);
        assert_eq!(b.get("numAnnealingLayers").unwrap().as_int(), Some(1));
        assert_eq!(b.get("precision").unwrap().as_type(), Some(ScalarType::F64));
    }

    #[test]
    fn quantize_f32_loses_precision() {
        let x = 0.1_f64 + 1e-12;
        assert_ne!(ScalarType::F32.quantize(x), x);
        assert_eq!(ScalarType::F64.quantize(x), x);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_tradeoff_rejected() {
        EnumeratedTradeoff::new("x", vec![], 0);
    }

    #[test]
    fn function_tradeoff() {
        let t = EnumeratedTradeoff::new(
            "sqrtVersion",
            vec![
                TradeoffValue::Function("sqrt_exact".into()),
                TradeoffValue::Function("sqrt_newton2".into()),
                TradeoffValue::Function("sqrt_newton1".into()),
            ],
            0,
        );
        assert_eq!(t.value(1).as_function(), Some("sqrt_newton2"));
    }
}
