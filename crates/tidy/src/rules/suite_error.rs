//! Rule `suite-error`: integration-suite code (the root package's
//! `src/`, `tests/` and `examples/` — everything outside `crates/`) must
//! not name per-crate error enums. The suite wires substrates together,
//! and the whole point of the unified `sysunc::Error` is that cross-crate
//! code composes with one error type; a `SamplingError` leaking into a
//! suite signature re-fragments the API the engine layer unified.
//!
//! Substrate crates under `crates/` keep using their own enums — that is
//! the correct boundary for stand-alone libraries and out of scope here.

use crate::lexer::TokenKind;
use crate::{FileKind, Lint, SourceFile, Violation};

/// See the module docs.
pub struct SuiteError;

/// The per-crate error enums that must not appear in suite code.
const FORBIDDEN: &[&str] = &[
    "ProbError",
    "AlgebraError",
    "SamplingError",
    "PceError",
    "EvidenceError",
    "BnError",
    "FtaError",
    "OrbitalError",
    "PerceptionError",
];

impl Lint for SuiteError {
    fn name(&self) -> &'static str {
        "suite-error"
    }

    fn explain(&self) -> &'static str {
        "Integration-suite code (everything outside `crates/`) must not name \
         per-crate error enums like `SamplingError` or `ProbError`. The suite \
         wires substrate crates together, and the point of the unified \
         `sysunc::Error` is that cross-crate code composes with one error \
         type; a per-crate enum leaking into a suite signature re-fragments \
         the API the engine layer unified. Substrate crates keep their own \
         enums — that boundary is correct and out of scope."
    }

    fn applies(&self, kind: FileKind) -> bool {
        matches!(kind, FileKind::RustLibrary | FileKind::RustTest)
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        // Only the integration suite is in scope: files outside crates/.
        if file.path.components().next().map(|c| c.as_os_str() == "crates").unwrap_or(false) {
            return;
        }
        for t in file.tokens() {
            // Identifier tokens only: a name quoted in a string or
            // mentioned in a comment is prose, not a use of the type.
            if t.kind != TokenKind::Ident {
                continue;
            }
            let text = file.text(t);
            if FORBIDDEN.contains(&text) {
                out.push(Violation {
                    file: file.path.clone(),
                    line: t.line,
                    rule: self.name(),
                    message: format!(
                        "suite code names per-crate error `{text}`; \
                         use the unified `sysunc::Error` instead"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, kind: FileKind, src: &str) -> Vec<Violation> {
        let file = SourceFile::new(path, src, kind);
        let mut out = Vec::new();
        SuiteError.check(&file, &mut out);
        out
    }

    #[test]
    fn per_crate_errors_in_suite_code_fire() {
        let bad = "fn f() -> Result<(), SamplingError> { Ok(()) }\n";
        assert_eq!(run("tests/cross_crate.rs", FileKind::RustTest, bad).len(), 1);
        assert_eq!(run("examples/demo.rs", FileKind::RustTest, bad).len(), 1);
        assert_eq!(run("src/lib.rs", FileKind::RustLibrary, bad).len(), 1);
    }

    #[test]
    fn substrate_crates_are_out_of_scope() {
        let src = "pub enum SamplingError { X }\n";
        assert!(run("crates/sampling/src/error.rs", FileKind::RustLibrary, src).is_empty());
        assert!(run("crates/sampling/tests/t.rs", FileKind::RustTest, src).is_empty());
    }

    #[test]
    fn unified_error_comments_and_longer_names_pass() {
        assert!(run("tests/t.rs", FileKind::RustTest, "fn f() -> sysunc::Result<()> {}\n")
            .is_empty());
        assert!(run("tests/t.rs", FileKind::RustTest, "// mentions SamplingError in prose\n")
            .is_empty());
        assert!(run("tests/t.rs", FileKind::RustTest, "struct MyPceErrorLike;\n").is_empty());
    }

    #[test]
    fn names_in_string_literals_pass() {
        let src = "fn f() { log(\"got a ProbError from the substrate\"); }\n";
        assert!(run("tests/t.rs", FileKind::RustTest, src).is_empty());
    }
}
