//! Lowering: AST → IR (the middle-end's first half).
//!
//! Registers are mutable slots (the IR is not SSA), so loops need no phi
//! nodes: an assignment writes the variable's register in place.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::ast;
use crate::ir::{BinOp, BlockId, Function, Inst, Operand, Reg, TyRef};

/// A lowering error (e.g. an undefined variable).
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

fn err<T>(message: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError {
        message: message.into(),
    })
}

struct Lowerer {
    f: Function,
    vars: HashMap<String, Reg>,
    /// Cross-invocation state variables visible to this function. Locals
    /// (params and `let` bindings) shadow them.
    globals: HashSet<String>,
    current: BlockId,
}

impl Lowerer {
    fn emit(&mut self, inst: Inst) {
        self.f.push(self.current, inst);
    }

    fn operand_of(&mut self, e: &ast::Expr) -> Result<Operand, LowerError> {
        Ok(match e {
            ast::Expr::Int(v) => Operand::ImmInt(*v),
            ast::Expr::Float(v) => Operand::ImmFloat(*v),
            _ => Operand::Reg(self.expr(e)?),
        })
    }

    fn expr(&mut self, e: &ast::Expr) -> Result<Reg, LowerError> {
        match e {
            ast::Expr::Int(v) => {
                let dst = self.f.fresh_reg();
                self.emit(Inst::Const {
                    dst,
                    value: Operand::ImmInt(*v),
                });
                Ok(dst)
            }
            ast::Expr::Float(v) => {
                let dst = self.f.fresh_reg();
                self.emit(Inst::Const {
                    dst,
                    value: Operand::ImmFloat(*v),
                });
                Ok(dst)
            }
            ast::Expr::Var(name) => match self.vars.get(name) {
                Some(&r) => Ok(r),
                None if self.globals.contains(name) => {
                    let dst = self.f.fresh_reg();
                    self.emit(Inst::LoadState {
                        dst,
                        state: name.clone(),
                    });
                    Ok(dst)
                }
                None => err(format!("undefined variable `{name}`")),
            },
            ast::Expr::TradeoffRef(name) => {
                let dst = self.f.fresh_reg();
                self.emit(Inst::TradeoffRef {
                    dst,
                    tradeoff: name.clone(),
                });
                Ok(dst)
            }
            ast::Expr::TradeoffCast(name, inner) => {
                let src = self.operand_of(inner)?;
                let dst = self.f.fresh_reg();
                self.emit(Inst::Cast {
                    dst,
                    src,
                    to: TyRef::Tradeoff(name.clone()),
                });
                Ok(dst)
            }
            ast::Expr::TradeoffCall(name, args) => {
                let mut ops = Vec::with_capacity(args.len());
                for a in args {
                    ops.push(self.operand_of(a)?);
                }
                let dst = self.f.fresh_reg();
                self.emit(Inst::CallTradeoff {
                    dst: Some(dst),
                    tradeoff: name.clone(),
                    args: ops,
                });
                Ok(dst)
            }
            ast::Expr::Neg(inner) => {
                let v = self.operand_of(inner)?;
                let dst = self.f.fresh_reg();
                self.emit(Inst::Bin {
                    op: BinOp::Sub,
                    dst,
                    lhs: Operand::ImmInt(0),
                    rhs: v,
                });
                Ok(dst)
            }
            ast::Expr::Not(inner) => {
                let v = self.operand_of(inner)?;
                let dst = self.f.fresh_reg();
                self.emit(Inst::Bin {
                    op: BinOp::Eq,
                    dst,
                    lhs: v,
                    rhs: Operand::ImmInt(0),
                });
                Ok(dst)
            }
            ast::Expr::Bin(op, lhs, rhs) => {
                // `&&` / `||` lower to arithmetic on 0/1 values (no
                // short-circuit; the DSL has no side-effecting operands
                // other than calls, and eager evaluation keeps blocks flat).
                let l = self.operand_of(lhs)?;
                let r = self.operand_of(rhs)?;
                let dst = self.f.fresh_reg();
                let ir_op = match op {
                    ast::BinOp::Add => BinOp::Add,
                    ast::BinOp::Sub => BinOp::Sub,
                    ast::BinOp::Mul => BinOp::Mul,
                    ast::BinOp::Div => BinOp::Div,
                    ast::BinOp::Rem => BinOp::Rem,
                    ast::BinOp::Lt => BinOp::Lt,
                    ast::BinOp::Le => BinOp::Le,
                    ast::BinOp::Gt => BinOp::Gt,
                    ast::BinOp::Ge => BinOp::Ge,
                    ast::BinOp::Eq => BinOp::Eq,
                    ast::BinOp::Ne => BinOp::Ne,
                    ast::BinOp::And => {
                        // (l != 0) * (r != 0)
                        let ln = self.f.fresh_reg();
                        self.emit(Inst::Bin {
                            op: BinOp::Ne,
                            dst: ln,
                            lhs: l,
                            rhs: Operand::ImmInt(0),
                        });
                        let rn = self.f.fresh_reg();
                        self.emit(Inst::Bin {
                            op: BinOp::Ne,
                            dst: rn,
                            lhs: r,
                            rhs: Operand::ImmInt(0),
                        });
                        self.emit(Inst::Bin {
                            op: BinOp::Mul,
                            dst,
                            lhs: ln.into(),
                            rhs: rn.into(),
                        });
                        return Ok(dst);
                    }
                    ast::BinOp::Or => {
                        // ((l != 0) + (r != 0)) != 0
                        let ln = self.f.fresh_reg();
                        self.emit(Inst::Bin {
                            op: BinOp::Ne,
                            dst: ln,
                            lhs: l,
                            rhs: Operand::ImmInt(0),
                        });
                        let rn = self.f.fresh_reg();
                        self.emit(Inst::Bin {
                            op: BinOp::Ne,
                            dst: rn,
                            lhs: r,
                            rhs: Operand::ImmInt(0),
                        });
                        let sum = self.f.fresh_reg();
                        self.emit(Inst::Bin {
                            op: BinOp::Add,
                            dst: sum,
                            lhs: ln.into(),
                            rhs: rn.into(),
                        });
                        self.emit(Inst::Bin {
                            op: BinOp::Ne,
                            dst,
                            lhs: sum.into(),
                            rhs: Operand::ImmInt(0),
                        });
                        return Ok(dst);
                    }
                };
                self.emit(Inst::Bin {
                    op: ir_op,
                    dst,
                    lhs: l,
                    rhs: r,
                });
                Ok(dst)
            }
            ast::Expr::Call(name, args) => {
                let mut ops = Vec::with_capacity(args.len());
                for a in args {
                    ops.push(self.operand_of(a)?);
                }
                let dst = self.f.fresh_reg();
                self.emit(Inst::Call {
                    dst: Some(dst),
                    callee: name.clone(),
                    args: ops,
                });
                Ok(dst)
            }
        }
    }

    fn stmts(&mut self, stmts: &[ast::Stmt]) -> Result<(), LowerError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &ast::Stmt) -> Result<(), LowerError> {
        match s {
            ast::Stmt::Let(name, e) => {
                // A variable occupies one function-scoped register for its
                // whole lifetime (registers are mutable slots, not SSA
                // values): re-`let`ing a name writes the existing slot, so
                // writes inside one branch of an `if` are visible after the
                // join — the semantics the reference evaluator (and C)
                // gives to mutation under control flow.
                let v = self.operand_of(e)?;
                let dst = match self.vars.get(name) {
                    Some(&r) => r,
                    None => {
                        let r = self.f.fresh_reg();
                        self.vars.insert(name.clone(), r);
                        r
                    }
                };
                self.emit(Inst::Const { dst, value: v });
                Ok(())
            }
            ast::Stmt::Assign(name, e) => {
                let v = self.operand_of(e)?;
                match self.vars.get(name) {
                    Some(&dst) => {
                        self.emit(Inst::Const { dst, value: v });
                        Ok(())
                    }
                    None if self.globals.contains(name) => {
                        self.emit(Inst::StoreState {
                            state: name.clone(),
                            src: v,
                        });
                        Ok(())
                    }
                    None => err(format!("assignment to undefined variable `{name}`")),
                }
            }
            ast::Stmt::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
            ast::Stmt::Return(e) => {
                let v = self.operand_of(e)?;
                self.emit(Inst::Ret { value: Some(v) });
                Ok(())
            }
            ast::Stmt::If(cond, then_b, else_b) => {
                let c = self.operand_of(cond)?;
                let then_id = self.f.new_block();
                let else_id = self.f.new_block();
                let join_id = self.f.new_block();
                self.emit(Inst::Br {
                    cond: c,
                    then_b: then_id,
                    else_b: else_id,
                });
                self.current = then_id;
                self.stmts(then_b)?;
                self.emit(Inst::Jmp { target: join_id });
                self.current = else_id;
                self.stmts(else_b)?;
                self.emit(Inst::Jmp { target: join_id });
                self.current = join_id;
                Ok(())
            }
            ast::Stmt::For(var, lo, hi, body) => {
                // Desugar: let var = lo; while (var < hi) { body; var = var + 1; }
                // The bound is evaluated once, before the loop.
                let bound = self.operand_of(hi)?;
                let bound_reg = self.f.fresh_reg();
                self.emit(Inst::Const {
                    dst: bound_reg,
                    value: bound,
                });
                self.stmt(&ast::Stmt::Let(var.clone(), lo.clone()))?;
                let var_reg = *self.vars.get(var).expect("just bound");

                let head_id = self.f.new_block();
                let body_id = self.f.new_block();
                let exit_id = self.f.new_block();
                self.emit(Inst::Jmp { target: head_id });
                self.current = head_id;
                let cond = self.f.fresh_reg();
                self.emit(Inst::Bin {
                    op: BinOp::Lt,
                    dst: cond,
                    lhs: var_reg.into(),
                    rhs: bound_reg.into(),
                });
                self.emit(Inst::Br {
                    cond: cond.into(),
                    then_b: body_id,
                    else_b: exit_id,
                });
                self.current = body_id;
                self.stmts(body)?;
                self.emit(Inst::Bin {
                    op: BinOp::Add,
                    dst: var_reg,
                    lhs: var_reg.into(),
                    rhs: Operand::ImmInt(1),
                });
                self.emit(Inst::Jmp { target: head_id });
                self.current = exit_id;
                Ok(())
            }
            ast::Stmt::While(cond, body) => {
                let head_id = self.f.new_block();
                let body_id = self.f.new_block();
                let exit_id = self.f.new_block();
                self.emit(Inst::Jmp { target: head_id });
                self.current = head_id;
                let c = self.operand_of(cond)?;
                self.emit(Inst::Br {
                    cond: c,
                    then_b: body_id,
                    else_b: exit_id,
                });
                self.current = body_id;
                self.stmts(body)?;
                self.emit(Inst::Jmp { target: head_id });
                self.current = exit_id;
                Ok(())
            }
        }
    }
}

/// Lower one AST function to IR, with no state variables in scope.
pub fn lower_fn(def: &ast::FnDef) -> Result<Function, LowerError> {
    lower_fn_with_globals(def, &HashSet::new())
}

/// Lower one AST function to IR. Free variables named in `globals` become
/// [`Inst::LoadState`]/[`Inst::StoreState`] accesses to cross-invocation
/// state; locals (params and `let` bindings) shadow them.
pub fn lower_fn_with_globals(
    def: &ast::FnDef,
    globals: &HashSet<String>,
) -> Result<Function, LowerError> {
    let f = Function::new(def.name.clone(), def.params.len());
    let vars = def
        .params
        .iter()
        .cloned()
        .zip(f.params.iter().copied())
        .collect();
    let mut l = Lowerer {
        f,
        vars,
        globals: globals.clone(),
        current: BlockId(0),
    };
    l.stmts(&def.body)?;
    // Implicit `return 0` for functions falling off the end.
    l.emit(Inst::Ret {
        value: Some(Operand::ImmInt(0)),
    });
    Ok(l.f)
}

/// Lower a computed tradeoff rule `value(i) = expr` into a `getValue`
/// function named `T_<tradeoff>_getValue`.
pub fn lower_get_value(
    tradeoff: &str,
    param: &str,
    expr: &ast::Expr,
) -> Result<Function, LowerError> {
    let def = ast::FnDef {
        name: get_value_fn_name(tradeoff),
        params: vec![param.to_string()],
        body: vec![ast::Stmt::Return(expr.clone())],
    };
    lower_fn(&def)
}

/// The generated name of a computed tradeoff's `getValue` IR function.
pub fn get_value_fn_name(tradeoff: &str) -> String {
    format!("T_{tradeoff}_getValue")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::validate;
    use crate::parser::parse;

    fn lower(src: &str) -> Function {
        let p = parse(src).unwrap();
        let f = lower_fn(&p.functions[0]).unwrap();
        validate(&f).unwrap();
        f
    }

    #[test]
    fn straight_line() {
        let f = lower("fn f(a) { let x = a + 1; return x * 2; }");
        assert_eq!(f.blocks.len(), 1);
        assert!(f.inst_count() >= 3);
    }

    #[test]
    fn if_creates_diamond() {
        let f = lower("fn f(a) { if (a > 0) { a = 1; } else { a = 2; } return a; }");
        assert_eq!(f.blocks.len(), 4); // entry, then, else, join
    }

    #[test]
    fn while_creates_loop() {
        let f = lower("fn f(a) { let i = 0; while (i < a) { i = i + 1; } return i; }");
        assert_eq!(f.blocks.len(), 4); // entry, head, body, exit
    }

    #[test]
    fn tradeoff_ref_lowered() {
        let f = lower("fn f() { return tradeoff layers; }");
        assert_eq!(f.tradeoff_refs(), vec!["layers".to_string()]);
    }

    #[test]
    fn undefined_variable_rejected() {
        let p = parse("fn f() { return nope; }").unwrap();
        assert!(lower_fn(&p.functions[0]).is_err());
    }

    #[test]
    fn get_value_fn_lowering() {
        let p =
            parse("tradeoff t { max_index = 10; default_index = 0; value(i) = i * 3; }").unwrap();
        if let crate::ast::TradeoffKind::Computed { param, expr } = &p.tradeoffs[0].kind {
            let f = lower_get_value("t", param, expr).unwrap();
            assert_eq!(f.name, "T_t_getValue");
            validate(&f).unwrap();
        } else {
            panic!("expected computed kind");
        }
    }
}
