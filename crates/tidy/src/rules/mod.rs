//! The lint rule set. Each submodule is one rule; [`all`] returns the
//! per-file gate in the order findings should be investigated, and
//! [`workspace`] the cross-file rules that need the symbol table.

mod error_impl;
mod facade;
mod lock_hygiene;
mod manifest;
mod prob_contract;
mod seed_discipline;
mod suite_error;
mod unused_allow;

pub use error_impl::ErrorImpl;
pub use facade::FacadeCoverage;
pub use lock_hygiene::LockHygiene;
pub use manifest::ManifestHygiene;
pub use prob_contract::ProbContract;
pub use seed_discipline::{SeedDiscipline, SeedDisciplineDrift, ENTROPY, PROPCHECK_SEEDED, SEEDED};
pub use suite_error::SuiteError;
pub use unused_allow::{
    expectation_ledger, module_wide_suppressions, unused_allow_pass, GATED_LINTS,
    UNUSED_ALLOW_EXPLAIN, UNUSED_ALLOW_NAME,
};

use crate::lexer::TokenKind;
use crate::{Lint, SourceFile, WorkspaceLint};

/// Every per-file rule the gate enforces.
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(ManifestHygiene),
        Box::new(ProbContract),
        Box::new(ErrorImpl),
        Box::new(SuiteError),
        Box::new(SeedDiscipline),
        Box::new(LockHygiene),
    ]
}

/// The cross-file rules, run once over the whole workspace.
pub fn workspace() -> Vec<Box<dyn WorkspaceLint>> {
    vec![Box::new(FacadeCoverage), Box::new(SeedDisciplineDrift)]
}

/// Every rule name the gate knows, in report order. `allow(...)`
/// comments naming anything else are flagged by `unused-allow`.
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all().iter().map(|l| l.name()).collect();
    names.extend(workspace().iter().map(|l| l.name()));
    names.push(UNUSED_ALLOW_NAME);
    names
}

/// The `--explain` text for a rule, if the name is known.
pub fn explain(rule: &str) -> Option<&'static str> {
    if rule == UNUSED_ALLOW_NAME {
        return Some(UNUSED_ALLOW_EXPLAIN);
    }
    all()
        .iter()
        .find(|l| l.name() == rule)
        .map(|l| l.explain())
        .or_else(|| workspace().iter().find(|l| l.name() == rule).map(|l| l.explain()))
}

/// `(name, one-line summary)` for every rule, in report order — the
/// body of a bare `--explain` listing. The summary is the explanation's
/// first sentence: clipped at the first period that ends a word (a dot
/// inside `Cargo.toml` or `` `.unwrap()` `` is not a sentence end).
pub fn summaries() -> Vec<(&'static str, &'static str)> {
    rule_names()
        .into_iter()
        .map(|name| {
            let text = explain(name).unwrap_or_default();
            let end = text
                .char_indices()
                .find(|&(i, c)| {
                    c == '.' && text[i + 1..].chars().next().is_none_or(char::is_whitespace)
                })
                .map(|(i, _)| i + 1)
                .unwrap_or(text.len());
            (name, &text[..end])
        })
        .collect()
}

/// The `///` / `/**` doc comments in the contiguous doc-and-attribute
/// block directly above token `idx`, walking backwards over attributes
/// (`#[...]`) and plain comments. Module docs (`//!`) do not count as
/// item docs.
pub(crate) fn doc_comments_above(file: &SourceFile, mut i: usize) -> Vec<&str> {
    let tokens = file.tokens();
    let mut out = Vec::new();
    while i > 0 {
        let t = &tokens[i - 1];
        if t.is_comment() {
            let text = file.text(t);
            if text.starts_with("///") || text.starts_with("/**") {
                out.push(text);
            }
            i -= 1;
            continue;
        }
        // Walk backwards over one attribute: `#` `[` … `]`.
        if t.kind == TokenKind::Punct && file.text(t) == "]" {
            let mut depth = 1i64;
            let mut j = i - 1;
            while j > 0 && depth > 0 {
                j -= 1;
                let u = &tokens[j];
                if u.kind == TokenKind::Punct {
                    match file.text(u) {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
            }
            if depth == 0
                && j > 0
                && tokens[j - 1].kind == TokenKind::Punct
                && file.text(&tokens[j - 1]) == "#"
            {
                i = j - 1;
                continue;
            }
        }
        break;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_are_unique_and_stable() {
        let names = rule_names();
        assert_eq!(
            names,
            vec![
                "manifest",
                "prob-contract",
                "error-impl",
                "suite-error",
                "seed-discipline",
                "lock-hygiene",
                "facade",
                "seed-discipline-drift",
                "unused-allow",
            ]
        );
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn every_rule_has_a_nonempty_explanation() {
        for name in rule_names() {
            let text = explain(name).expect("known rule");
            assert!(text.len() > 40, "explanation for `{name}` is too thin");
        }
        assert!(explain("no-such-rule").is_none());
    }

    #[test]
    fn summaries_cover_every_rule_with_one_line_each() {
        let sums = summaries();
        assert_eq!(
            sums.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            rule_names(),
            "summary listing order matches report order"
        );
        for (name, line) in sums {
            assert!(!line.is_empty(), "summary for `{name}` is empty");
            assert!(line.ends_with('.'), "summary for `{name}` is not a sentence");
            assert!(!line.contains('\n'), "summary for `{name}` spans lines");
        }
    }

    #[test]
    fn doc_comments_above_walks_attributes_and_skips_module_docs() {
        use crate::FileKind;
        let file = crate::SourceFile::new(
            "crates/x/src/lib.rs",
            "//! module docs\n\
             /// item docs\n\
             #[derive(Debug)]\n\
             // plain note\n\
             pub struct S;\n",
            FileKind::RustLibrary,
        );
        let pub_idx = file
            .tokens()
            .iter()
            .position(|t| file.text(t) == "pub")
            .expect("pub token");
        let docs = doc_comments_above(&file, pub_idx);
        assert_eq!(docs, vec!["/// item docs"], "module docs and plain comments excluded");
    }
}
