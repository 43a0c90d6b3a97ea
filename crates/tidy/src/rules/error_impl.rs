//! Rule `error-impl`: every public enum declared in a file named
//! `error.rs` must implement both `Display` and `std::error::Error`.
//!
//! Error types that cannot be displayed or boxed as `dyn Error` leak a
//! half-finished failure vocabulary to callers; this rule keeps every
//! crate's error enum a first-class citizen of Rust's error-handling
//! ecosystem.

use crate::lexer::TokenKind;
use crate::{FileKind, Lint, SourceFile, Violation};

/// See the module docs.
pub struct ErrorImpl;

/// Collects `(name, line)` for every `pub enum` declared in the file.
fn pub_enums(file: &SourceFile) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, t) in file.tokens().iter().enumerate() {
        if t.kind != TokenKind::Ident || file.text(t) != "pub" || file.in_test_block(t.line) {
            continue;
        }
        let mut c = file.cursor();
        c.seek(i + 1);
        if !c.eat_ident("enum") {
            continue;
        }
        if let Some(name) = c.eat_any_ident() {
            out.push((name.to_string(), t.line));
        }
    }
    out
}

/// True when the file contains `impl … <trait_leaf> for <name>` — i.e.
/// an identifier token `trait_leaf` followed by `for` followed by
/// `name` (path prefixes like `std::fmt::` are separate tokens and
/// don't disturb the triple).
fn has_impl_for(file: &SourceFile, trait_leaf: &str, name: &str) -> bool {
    let tokens = file.tokens();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || file.text(t) != trait_leaf {
            continue;
        }
        let mut c = file.cursor();
        c.seek(i + 1);
        if c.eat_ident("for") && c.eat_ident(name) {
            return true;
        }
    }
    false
}

impl Lint for ErrorImpl {
    fn name(&self) -> &'static str {
        "error-impl"
    }

    fn explain(&self) -> &'static str {
        "Every public enum declared in a file named `error.rs` must implement \
         both `Display` and `std::error::Error`. An error type that cannot be \
         displayed or boxed as `dyn Error` leaks a half-finished failure \
         vocabulary to callers; this keeps every crate's error enum a \
         first-class citizen of Rust's error-handling ecosystem."
    }

    fn applies(&self, kind: FileKind) -> bool {
        kind == FileKind::RustLibrary
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        if file.path.file_name().map(|n| n != "error.rs").unwrap_or(true) {
            return;
        }
        for (name, line) in pub_enums(file) {
            if !has_impl_for(file, "Display", &name) {
                out.push(Violation {
                    file: file.path.clone(),
                    line,
                    rule: self.name(),
                    message: format!("error enum `{name}` does not implement `Display`"),
                });
            }
            if !has_impl_for(file, "Error", &name) {
                out.push(Violation {
                    file: file.path.clone(),
                    line,
                    rule: self.name(),
                    message: format!("error enum `{name}` does not implement `std::error::Error`"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Violation> {
        let file = SourceFile::new(path, src, FileKind::RustLibrary);
        let mut out = Vec::new();
        ErrorImpl.check(&file, &mut out);
        out
    }

    #[test]
    fn enum_with_both_impls_passes() {
        let good = "\
pub enum ProbError { Bad }
impl std::fmt::Display for ProbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
impl std::error::Error for ProbError {}
";
        assert!(run("crates/x/src/error.rs", good).is_empty());
    }

    #[test]
    fn missing_impls_fire_one_violation_each() {
        let out = run("crates/x/src/error.rs", "pub enum ProbError { Bad }\n");
        assert_eq!(out.len(), 2);
        assert!(out[0].message.contains("Display"));
        assert!(out[1].message.contains("std::error::Error"));
    }

    #[test]
    fn missing_only_error_impl_fires_once() {
        let partial = "\
pub enum E { X }
impl core::fmt::Display for E {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result { Ok(()) }
}
";
        let out = run("crates/x/src/error.rs", partial);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("std::error::Error"));
    }

    #[test]
    fn impls_mentioned_in_comments_do_not_satisfy() {
        // A comment saying "Display for E" is prose, not an impl.
        let src = "pub enum E { X }\n// impl Display for E lives elsewhere\n\
                   // impl Error for E lives elsewhere\n";
        assert_eq!(run("crates/x/src/error.rs", src).len(), 2);
    }

    #[test]
    fn files_not_named_error_rs_are_ignored() {
        assert!(run("crates/x/src/lib.rs", "pub enum E { X }\n").is_empty());
    }
}
