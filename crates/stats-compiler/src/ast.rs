//! Abstract syntax of the `.stats` language (the front-end's output).

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Variable reference.
    Var(String),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation (`-e`).
    Neg(Box<Expr>),
    /// Logical not (`!e`).
    Not(Box<Expr>),
    /// Function call.
    Call(String, Vec<Expr>),
    /// A tradeoff reference (`tradeoff NAME`): the placeholder the back-end
    /// compiler later replaces with the configured value.
    TradeoffRef(String),
    /// A function-tradeoff call (`choose NAME(args)`): the callee is
    /// selected by the named function tradeoff.
    TradeoffCall(String, Vec<Expr>),
    /// A type-tradeoff application (`quantize NAME(expr)`): the expression
    /// is computed at the precision selected by the named type tradeoff
    /// (lowered to a cast whose target type the back-end substitutes).
    TradeoffCast(String, Box<Expr>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let name = expr;`
    Let(String, Expr),
    /// `name = expr;`
    Assign(String, Expr),
    /// `if (cond) { .. } else { .. }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (cond) { .. }`
    While(Expr, Vec<Stmt>),
    /// `for name in lo..hi { .. }` (half-open integer range).
    For(String, Expr, Expr, Vec<Stmt>),
    /// `return expr;`
    Return(Expr),
    /// Bare expression statement (evaluated for effect).
    Expr(Expr),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// The kind of values a tradeoff enumerates.
#[derive(Debug, Clone, PartialEq)]
pub enum TradeoffKind {
    /// Integer values computed by a `value(i) = expr` rule.
    Computed {
        /// The index parameter name (usually `i`).
        param: String,
        /// The value expression.
        expr: Expr,
    },
    /// An explicit list of function names (`functions = [a, b, c];`).
    Functions(Vec<String>),
    /// An explicit list of scalar types (`types = [f64, f32];`).
    Types(Vec<String>),
    /// An explicit list of numeric values (`values = [1, 2, 4];`).
    Values(Vec<f64>),
}

/// A tradeoff declaration (paper Figure 10).
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffDef {
    /// Tradeoff name.
    pub name: String,
    /// Number of possible values (`getMaxIndex`); inferred from the list
    /// for list-kinds, mandatory for computed kinds.
    pub max_index: i64,
    /// Default index (`getDefaultIndex`).
    pub default_index: i64,
    /// How values are produced (`getValue`).
    pub kind: TradeoffKind,
}

/// A state-dependence declaration (paper Figures 8/9): names the
/// `compute_output` function whose inter-invocation dependence on `State` is
/// asserted to be a state dependence.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDepDef {
    /// Dependence name.
    pub name: String,
    /// The `compute_output` function's name.
    pub compute: String,
    /// The state variables this dependence declares it carries between
    /// invocations (`state = [a, b];`). The speculation-safety analysis
    /// checks the compute function's actual state accesses against this set.
    pub state: Vec<String>,
}

/// A cross-invocation state variable (`state NAME = <literal>;`) — the
/// paper's `State` made explicit so the static analysis can see which
/// invocation-to-invocation flows exist.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDef {
    /// Variable name.
    pub name: String,
    /// Initial value (a numeric literal, possibly negated).
    pub init: Expr,
}

/// A complete parsed program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Tradeoff declarations, in source order.
    pub tradeoffs: Vec<TradeoffDef>,
    /// State-variable declarations, in source order.
    pub states: Vec<StateDef>,
    /// State-dependence declarations, in source order.
    pub state_deps: Vec<StateDepDef>,
    /// Function definitions, in source order.
    pub functions: Vec<FnDef>,
}

impl Program {
    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&FnDef> {
        self.functions.iter().find(|f| f.name == name)
    }
}
