//! Textual IR dump (`Display` for functions and modules).

use std::fmt;

use crate::ir::{Function, Inst, Module, Operand, TyRef};

fn op(o: &Operand) -> String {
    match o {
        Operand::Reg(r) => format!("{r}"),
        Operand::ImmInt(v) => format!("{v}"),
        Operand::ImmFloat(v) => format!("{v:?}"),
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params: Vec<String> = self.params.iter().map(|p| format!("{p}")).collect();
        writeln!(f, "fn {}({}) {{", self.name, params.join(", "))?;
        for (bi, block) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{bi}:")?;
            for inst in &block.insts {
                let line = match inst {
                    Inst::Const { dst, value } => format!("{dst} = {}", op(value)),
                    Inst::Bin {
                        op: o,
                        dst,
                        lhs,
                        rhs,
                    } => {
                        format!("{dst} = {o:?} {}, {}", op(lhs), op(rhs))
                    }
                    Inst::Cast { dst, src, to } => {
                        let ty = match to {
                            TyRef::Concrete(t) => format!("{t}"),
                            TyRef::Tradeoff(t) => format!("tradeoff<{t}>"),
                        };
                        format!("{dst} = cast {} to {ty}", op(src))
                    }
                    Inst::Call { dst, callee, args } => {
                        let a: Vec<String> = args.iter().map(op).collect();
                        match dst {
                            Some(d) => format!("{d} = call {callee}({})", a.join(", ")),
                            None => format!("call {callee}({})", a.join(", ")),
                        }
                    }
                    Inst::CallTradeoff {
                        dst,
                        tradeoff,
                        args,
                    } => {
                        let a: Vec<String> = args.iter().map(op).collect();
                        match dst {
                            Some(d) => {
                                format!("{d} = call tradeoff<{tradeoff}>({})", a.join(", "))
                            }
                            None => format!("call tradeoff<{tradeoff}>({})", a.join(", ")),
                        }
                    }
                    Inst::TradeoffRef { dst, tradeoff } => {
                        format!("{dst} = tradeoff<{tradeoff}>")
                    }
                    Inst::LoadState { dst, state } => {
                        format!("{dst} = load_state {state}")
                    }
                    Inst::StoreState { state, src } => {
                        format!("store_state {state}, {}", op(src))
                    }
                    Inst::Jmp { target } => format!("jmp bb{}", target.0),
                    Inst::Br {
                        cond,
                        then_b,
                        else_b,
                    } => format!("br {} ? bb{} : bb{}", op(cond), then_b.0, else_b.0),
                    Inst::Ret { value } => match value {
                        Some(v) => format!("ret {}", op(v)),
                        None => "ret".to_string(),
                    },
                };
                writeln!(f, "  {line}")?;
            }
        }
        writeln!(f, "}}")
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; module: {} functions, {} live instructions, {} tradeoff rows, {} state deps",
            self.functions().len(),
            self.inst_count(),
            self.metadata.tradeoffs.len(),
            self.metadata.state_deps.len()
        )?;
        for func in self.functions() {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::frontend::compile;
    use crate::midend;

    #[test]
    fn dump_contains_structure() {
        let m = midend::run(
            compile(
                "tradeoff k { values = [1, 2]; default_index = 0; }
                 state_dependence d { compute = f; }
                 fn f(x) { if (x > 0) { return x * tradeoff k; } return 0; }",
            )
            .unwrap(),
        )
        .unwrap();
        let text = format!("{m}");
        assert!(text.contains("fn f("));
        assert!(text.contains("fn f__aux_d("));
        assert!(text.contains("tradeoff<k__aux_d>"));
        assert!(text.contains("bb0:"));
        assert!(text.contains("; module:"));
    }

    #[test]
    fn dump_renders_every_terminator() {
        let m = midend::run(
            compile("fn f(x) { let i = 0; while (i < x) { i = i + 1; } return i; }").unwrap(),
        )
        .unwrap();
        let text = format!("{}", m.function("f").unwrap());
        assert!(text.contains("jmp bb"));
        assert!(text.contains("br "));
        assert!(text.contains("ret "));
    }
}
