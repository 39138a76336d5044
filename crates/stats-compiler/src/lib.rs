//! The STATS compilers (paper §3.2–§3.4).
//!
//! The paper splits compilation in three to keep clang's C++ parser
//! untouched: a Racket **front-end** translating C++-with-extensions to
//! standard C++ plus tradeoff descriptor tables (Figure 11); a **middle-end**
//! clang pass lowering to LLVM IR with metadata and generating auxiliary
//! code by deep-cloning each state dependence's `computeOutput` (cloning the
//! tradeoffs it reaches, bottom-up over the call graph, up to an instruction
//! budget), then pinning non-auxiliary tradeoffs to their defaults; and a
//! **back-end** instantiating one autotuner configuration by setting each
//! remaining tradeoff — constant placeholders become constants, type
//! tradeoffs retype variables (inserting casts), function tradeoffs replace
//! callees — fetching values by dynamically compiling `getValue(i)`.
//!
//! This crate is that pipeline over our own substrate:
//!
//! - [`frontend`]: a small `.stats` language (tradeoff and state-dependence
//!   declarations plus a C-like function language) with a hand-written lexer
//!   and recursive-descent parser; emits the descriptor-table source text of
//!   Figure 11 and an AST, and ends by running [`verify`] over the module it
//!   built;
//! - [`ir`]: a compact block-based IR with explicit tradeoff-reference
//!   instructions and per-module [`metadata`] tables (the paper borrows this
//!   metadata design from CIL), and the one block-structure check
//!   ([`ir::validate`]) that [`verify`] and both interpreters run;
//! - [`verify`]: the module's reference rules, written once — every call
//!   reaches a module function or one of the closed table of host
//!   intrinsics with the arity it takes, and every tradeoff, state and
//!   state-dependence reference names a declared item;
//! - [`lower`]: AST → IR;
//! - [`midend`]: auxiliary-code generation (the deep-cloning pass);
//! - [`backend`]: configuration instantiation and the bridge to
//!   `stats_core::TradeoffBindings`;
//! - [`bytecode`]: the flat bytecode tier standing in for LLVM's dynamic
//!   compiler (the paper JITs `getValue()` only to fetch tradeoff values);
//!   [`backend::call`] and the middle-end's `getValue` runs execute on it,
//!   compiling a function once and calling it once, so it is one op per IR
//!   instruction with no fusion and no `unsafe` code;
//! - [`value`]: the IR's execution rules, written once — values, errors,
//!   arithmetic, intrinsics, the interpreter environment, and the check a
//!   function passes before it runs;
//! - [`interp`]: the slot-resolved reference interpreter, which the tests
//!   hold the bytecode tier to; no product module depends on it.
//!
//! # Pipeline example
//!
//! ```
//! use stats_compiler::{backend, frontend, midend};
//!
//! let source = r#"
//!     tradeoff layers { max_index = 10; default_index = 4; value(i) = i + 1; }
//!     state_dependence track { compute = step; }
//!     fn step(x) {
//!         let l = tradeoff layers;
//!         return x * l;
//!     }
//! "#;
//! let parsed = frontend::compile(source).unwrap();
//! let module = midend::run(parsed).unwrap();
//! // The middle-end cloned `step` for auxiliary code:
//! assert!(module.function("step__aux_track").is_some());
//! // The back-end instantiates a configuration (tradeoff index 9 -> 10):
//! let config = [("track".to_string(), vec![9])].into_iter().collect();
//! let binary = backend::instantiate(&module, &config).unwrap();
//! let out = backend::call(&binary, "step__aux_track", &[7.into()]).unwrap();
//! assert_eq!(out.unwrap().as_int(), Some(70));
//! ```

#![deny(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod backend;
pub mod bytecode;
pub mod frontend;
pub mod interp;
pub mod ir;
mod lexer;
pub mod lower;
pub mod metadata;
pub mod midend;
pub mod opt;
mod parser;
pub mod pretty;
pub mod value;
pub mod verify;

pub use frontend::CompileError;
