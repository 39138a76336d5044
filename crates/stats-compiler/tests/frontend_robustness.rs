//! Hostile input to the front-end: whatever text a caller hands
//! `frontend::compile` — arbitrary characters, a soup of the language's own
//! tokens, or an `examples/dsl/` program cut short or with one byte
//! changed — it returns `Ok` or a typed `CompileError`, and never panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stats_compiler::frontend;

/// Every `.stats` program under `examples/dsl/`, the violation corpus
/// included.
fn corpus() -> Vec<Vec<u8>> {
    let dsl = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/dsl");
    let mut files: Vec<PathBuf> = [dsl.clone(), dsl.join("violations")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("examples/dsl is readable"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "stats"))
        .collect();
    files.sort();
    assert!(files.len() >= 4, "corpus went missing: {files:?}");
    files
        .iter()
        .map(|p| std::fs::read(p).expect("corpus file is readable"))
        .collect()
}

/// Compile `source` (lossily decoded, as a caller reading a file would),
/// failing the case if the front-end panics. Any `Result` is fine: its
/// error side is the typed `CompileError`.
fn compile_without_panic(source: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(source);
    let outcome = catch_unwind(AssertUnwindSafe(|| frontend::compile(&text).map(drop)));
    prop_assert!(outcome.is_ok(), "frontend::compile panicked on {:?}", text);
    Ok(())
}

/// Keywords, punctuation and literals of the `.stats` language, including
/// the ones the lexer rejects or cannot represent, separated by spaces.
const TOKENS: &str = "tradeoff state_dependence state fn let if else while return \
    choose quantize for in .. values types functions max_index default_index value compute \
    i64 f32 f64 x i sqrt { } ( ) [ ] , ; = == != < <= > >= + - * / % ! && || & | . 0 1 7 2.5 \
    9223372036854775807 9223372036854775808 1e9 // # \n @ é";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary text: mostly printable ASCII, sometimes any scalar value.
    #[test]
    fn arbitrary_text_never_panics(codes in vec(any::<u32>(), 0..200)) {
        let text: String = codes
            .iter()
            .filter_map(|&c| {
                char::from_u32(if c & 3 == 0 { (c >> 2) % 0x11_0000 } else { 0x20 + (c >> 2) % 0x5f })
            })
            .collect();
        compile_without_panic(text.as_bytes())?;
    }

    /// The language's own tokens in random order, so the parser and the
    /// semantic checks — not only the lexer — see hostile input.
    #[test]
    fn token_soup_never_panics(picks in vec(any::<usize>(), 0..96), spaced in any::<bool>()) {
        let tokens: Vec<&str> = TOKENS.split(' ').collect();
        let words: Vec<&str> = picks.iter().map(|&p| tokens[p % tokens.len()]).collect();
        compile_without_panic(words.join(if spaced { " " } else { "" }).as_bytes())?;
    }

    /// A real program truncated anywhere, and the same program with one
    /// byte substituted, deleted or inserted anywhere.
    #[test]
    fn damaged_examples_never_panic(
        file in any::<usize>(),
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
        edit in 0u8..3,
    ) {
        let corpus = corpus();
        let source = &corpus[file % corpus.len()];
        compile_without_panic(&source[..cut % (source.len() + 1)])?;
        let mut edited = source.clone();
        let at = at % (edited.len() + 1);
        match edit {
            0 if at < edited.len() => edited[at] = byte,
            1 if at < edited.len() => {
                edited.remove(at);
            }
            _ => edited.insert(at, byte),
        }
        compile_without_panic(&edited)?;
    }
}
