//! Rule `prob-contract`: a public library function whose name says it
//! deals in probability-like quantities (`prob`, `probability`,
//! `belief`, `plausibility`, `mass`, `cdf`) must state its range
//! contract — either a `debug_assert!` range check in the body or a
//! `/// Range:` line in its doc comment.
//!
//! A probability that silently leaves `[0, 1]` is a wrong *model*
//! masquerading as data; forcing the contract to be written down turns
//! that latent epistemic uncertainty into a checked (or at least
//! documented) invariant at the API boundary.

use crate::lexer::TokenKind;
use crate::rules::doc_comments_above;
use crate::{FileKind, Lint, SourceFile, Violation};

/// See the module docs.
pub struct ProbContract;

/// Name fragments that mark a function as probability-valued.
const KEYWORDS: &[&str] = &["prob", "belief", "plausibility", "mass", "cdf"];

/// If the tokens at `i` start a `pub fn` signature (modifiers allowed),
/// returns the function name and the token index just past it.
fn pub_fn_at(file: &SourceFile, i: usize) -> Option<(String, usize)> {
    let mut c = file.cursor();
    c.seek(i);
    if !c.eat_ident("pub") {
        return None;
    }
    c.skip_comments();
    if c.at_punct("(") {
        // Restricted visibility is not public API.
        return None;
    }
    loop {
        match c.eat_any_ident()? {
            "const" | "unsafe" | "async" => continue,
            "extern" => {
                c.skip_comments();
                if matches!(c.peek().map(|t| t.kind), Some(TokenKind::Str | TokenKind::RawStr)) {
                    c.bump();
                }
                continue;
            }
            "fn" => break,
            _ => return None,
        }
    }
    let name = c.eat_any_ident()?;
    Some((name.to_string(), c.pos()))
}

/// True when the function body after the signature (first `{` before
/// any `;`) contains a `debug_assert` family call. A bodyless trait
/// signature has no body to check and passes.
fn body_has_debug_assert(file: &SourceFile, after_name: usize) -> bool {
    let tokens = file.tokens();
    let mut c = file.cursor();
    c.seek(after_name);
    let open = loop {
        match c.peek() {
            Some(t) if t.kind == TokenKind::Punct => {
                let text = file.text(t);
                if text == "{" {
                    break c.pos();
                }
                if text == ";" {
                    return true; // no body: nothing to violate
                }
                c.bump();
            }
            Some(_) => {
                c.bump();
            }
            None => return false,
        }
    };
    let end = c.skip_balanced("{", "}").unwrap_or(tokens.len());
    tokens[open..end].iter().any(|t| {
        t.kind == TokenKind::Ident && file.text(t).starts_with("debug_assert")
    })
}

impl Lint for ProbContract {
    fn name(&self) -> &'static str {
        "prob-contract"
    }

    fn explain(&self) -> &'static str {
        "A public function whose name marks it probability-valued (`prob`, \
         `belief`, `plausibility`, `mass`, `cdf`) must state its range \
         contract: either a `debug_assert!` range check in the body or a \
         `/// Range:` line in its docs. A probability that silently leaves \
         [0, 1] is a wrong model masquerading as data; writing the contract \
         down turns latent epistemic uncertainty into a checked (or at least \
         documented) invariant at the API boundary."
    }

    fn applies(&self, kind: FileKind) -> bool {
        kind == FileKind::RustLibrary
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        let tokens = file.tokens();
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident
                || file.text(t) != "pub"
                || file.in_test_block(t.line)
            {
                continue;
            }
            let Some((name, after)) = pub_fn_at(file, i) else { continue };
            if !is_probability_name(&name.to_lowercase()) {
                continue;
            }
            let documented =
                doc_comments_above(file, i).iter().any(|d| d.contains("Range:"));
            if documented || body_has_debug_assert(file, after) {
                continue;
            }
            out.push(Violation {
                file: file.path.clone(),
                line: t.line,
                rule: self.name(),
                message: format!(
                    "probability-valued `pub fn {name}` states no range contract; \
                     add a `debug_assert!` range check or a `/// Range:` doc line"
                ),
            });
        }
    }
}

/// True when the (lowercased) name carries a probability keyword.
/// `probe`/`probing` are exempt: health probes deal in liveness, not
/// probabilities, and would otherwise false-positive on `prob`.
fn is_probability_name(lower: &str) -> bool {
    KEYWORDS.iter().any(|k| {
        let mut from = 0;
        while let Some(pos) = lower[from..].find(k) {
            let at = from + pos;
            let rest = &lower[at + k.len()..];
            let probe_like =
                *k == "prob" && (rest.starts_with('e') || rest.starts_with("ing"));
            if !probe_like {
                return true;
            }
            from = at + k.len();
        }
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        let file = SourceFile::new("crates/x/src/lib.rs", src, FileKind::RustLibrary);
        let mut out = Vec::new();
        ProbContract.check(&file, &mut out);
        out
    }

    #[test]
    fn probe_names_are_not_probabilities() {
        let src = "\
pub fn probe_failed(&self) -> u64 {
    self.failures
}
pub fn probing_interval(&self) -> u64 {
    self.interval
}
";
        let out = run(src);
        assert!(out.is_empty(), "health probes are liveness, not probability: {out:?}");
    }

    #[test]
    fn undocumented_probability_fn_fires() {
        let bad = "\
pub fn failure_probability(&self) -> f64 {
    self.p
}
";
        let out = run(bad);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
        assert!(out[0].message.contains("failure_probability"));
    }

    #[test]
    fn debug_assert_in_body_satisfies_the_contract() {
        let good = "\
pub fn belief(&self, set: u64) -> f64 {
    let b = self.sum(set);
    debug_assert!((0.0..=1.0).contains(&b));
    b
}
";
        assert!(run(good).is_empty());
    }

    #[test]
    fn range_doc_line_satisfies_the_contract() {
        let good = "\
/// Cumulative distribution at `x`.
///
/// Range: `[0, 1]`, monotone in `x`.
pub fn cdf(&self, x: f64) -> f64 {
    self.raw(x)
}
";
        assert!(run(good).is_empty());
    }

    #[test]
    fn range_doc_survives_interleaved_attributes() {
        let good = "\
/// Range: `[0, 1]`.
#[inline]
pub fn prob(&self) -> f64 { self.p }
";
        assert!(run(good).is_empty());
    }

    #[test]
    fn unrelated_and_private_fns_are_ignored() {
        let src = "\
pub fn mean(&self) -> f64 { self.m }
fn mass_private(&self) -> f64 { self.m }
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn single_line_body_with_debug_assert_passes() {
        let good = "pub fn prob(&self) -> f64 { debug_assert!(self.p <= 1.0); self.p }\n";
        assert!(run(good).is_empty());
    }

    #[test]
    fn a_string_mentioning_pub_fn_cdf_does_not_fire() {
        // The signature lives in a string literal: one token, not code.
        let src = "const SNIPPET: &str = \"pub fn cdf(&self) -> f64 { self.raw() }\";\n";
        assert!(run(src).is_empty());
    }
}
