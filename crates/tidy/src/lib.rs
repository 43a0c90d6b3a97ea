//! # sysunc-tidy — the workspace's project-specific lint gate
//!
//! A dependency-free lint driver that walks the workspace and enforces
//! the coding invariants no general-purpose tool knows about: the
//! zero-dependency policy, seed discipline, probability contracts, the
//! error-type layering, lock scopes, and the `sysunc::` facade. Generic
//! lint duty — panicking calls, float equality, missing docs,
//! unreachable `pub` items, unchecked indexing in the serving crates —
//! belongs to rustc and clippy through the root `[workspace.lints]`
//! table, which every member inherits (the `manifest` rule checks the
//! opt-in). The compiler answers those questions from its own type and
//! name resolution, so tidy does not re-derive them.
//!
//! Rules operate on a real token stream from the in-tree Rust
//! [`lexer`] (comments, string literals and numeric literals are tokens,
//! not text), so a `.lock()` quoted in a string or a seed named in a
//! doc comment cannot fire. The cross-file rules get the [`symbols`]
//! table: each crate's library files by module path. Lock safety is
//! designed in rather than inferred: every mutex is reached through a
//! module-private `with(&Mutex<T>, impl FnOnce(&mut T) -> R) -> R`
//! helper, so no guard can outlive its closure, and `lock-hygiene`
//! checks the little that construction leaves open with a per-file
//! token scan.
//!
//! In the paper's vocabulary this is an uncertainty-**prevention**
//! means applied to our own toolchain: the rules remove whole classes
//! of epistemic uncertainty about the code base (does it build offline?
//! are runs replayable? are probability contracts stated? can a lock
//! stall the server?) before they can occur.
//!
//! ## Rules
//!
//! | rule                    | invariant                                                          |
//! |-------------------------|--------------------------------------------------------------------|
//! | `manifest`              | every Cargo.toml dependency is a path (or workspace) dependency, and every member package inherits the workspace lint table |
//! | `prob-contract`         | public probability-named fns state a range contract                |
//! | `error-impl`            | every `error.rs` enum implements `Display` and `Error`             |
//! | `suite-error`           | integration-suite code uses `sysunc::Error`, not per-crate enums   |
//! | `seed-discipline`       | library code never builds an RNG from a hardcoded seed             |
//! | `lock-hygiene`          | locks are taken only inside a `with` helper, and the closure passed to `with(` makes no blocking call and takes no second lock |
//! | `facade`                | every substrate crate is re-exported from the `sysunc::` facade    |
//! | `seed-discipline-drift` | the seed rule's constructor lists cover what `sysunc_prob::rng` and `propcheck` define |
//! | `unused-allow`          | every `tidy: allow(...)` comment suppresses a live finding, and no toolchain lint of the table is silenced module-wide |
//!
//! ## Retired rules and the suppression ledger
//!
//! | retired rule    | toolchain replacement (`deny`)                                     |
//! |-----------------|--------------------------------------------------------------------|
//! | `panic`         | `clippy::{unwrap_used, expect_used, panic, todo, unimplemented}`   |
//! | `float-eq`      | `clippy::float_cmp` (comparisons with a literal zero are exempt)   |
//! | `doc`           | `missing_docs`                                                     |
//! | `pub-reexport`  | `unreachable_pub` (facade coverage stays here as `facade`)         |
//! | `panic-path`    | the panic family above plus `#![deny(clippy::indexing_slicing)]` in serve and fleet |
//!
//! A violating line can be acknowledged with the escape hatch comment
//! `// tidy: allow(<rule>)` on the same or preceding line; a toolchain
//! finding with `#[expect(<lint>, reason = "…")]` on the smallest
//! enclosing statement or item. Both are counted, never silent: allowed
//! tidy findings and every `#[expect]` of a table lint appear in the
//! report's `allowed` list, the latter under the name of the rule it
//! replaced (see [`rules::GATED_LINTS`]). That list, counted per rule,
//! is the suppression ledger: the workspace's `tests/tidy_gate.rs`
//! holds it equal to a committed table, so an acknowledgement is added
//! or retired only in a diff that also changes the table. A stale
//! `#[expect]` fails the build (`unfulfilled_lint_expectations`); a
//! stale allow comment, or an `#![expect]`/`#![allow]` that silences a
//! table lint for a whole module, is an `unused-allow` violation.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod cursor;
pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod walk;

use cursor::Cursor;
use lexer::{Token, TokenKind};

/// What kind of file a [`SourceFile`] is, which decides the lints that
/// apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A `Cargo.toml` manifest.
    Manifest,
    /// Rust code shipped in a library (`src/`, excluding `src/bin/`).
    RustLibrary,
    /// Rust code that only runs under the test/bench/example harnesses.
    RustTest,
}

/// One `tidy: allow(<rule>)` acknowledgement comment, precomputed at
/// file load so suppression checks never rescan text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowMarker {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// The rule name inside the parentheses.
    pub rule: String,
}

/// One `#[allow(...)]`/`#[expect(...)]` lint attribute (or its inner
/// `#![...]` form), precomputed at file load for the suppression ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintAttr {
    /// 1-based line of the `#`.
    pub line: usize,
    /// `"allow"` or `"expect"`.
    pub level: &'static str,
    /// The lint paths named, as written (`clippy::float_cmp`).
    pub lints: Vec<String>,
    /// The `reason = "…"` text, when given.
    pub reason: Option<String>,
    /// True for attributes that cover a whole module: the inner form
    /// `#![...]`, or an outer attribute on a `mod`, `impl` or `trait`.
    pub module_wide: bool,
}

/// One file of the workspace, read into memory with its classification,
/// token stream, and per-line derived facts (all computed once).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// Full file contents.
    pub content: String,
    /// Classification deciding which lints apply.
    pub kind: FileKind,
    tokens: Vec<Token>,
    test_lines: Vec<bool>,
    allows: Vec<AllowMarker>,
    lint_attrs: Vec<LintAttr>,
}

impl SourceFile {
    /// Builds an in-memory file, lexing Rust sources eagerly (manifests
    /// get an empty token stream).
    pub fn new(path: impl Into<PathBuf>, content: impl Into<String>, kind: FileKind) -> Self {
        let content = content.into();
        let tokens = match kind {
            FileKind::Manifest => Vec::new(),
            _ => lexer::lex(&content),
        };
        let test_lines = test_lines_from(&content, &tokens);
        let allows = allow_markers(&content, &tokens);
        let lint_attrs = lint_attributes(&content, &tokens);
        Self { path: path.into(), content, kind, tokens, test_lines, allows, lint_attrs }
    }

    /// The file's lines, for line-oriented lint rules (manifests).
    pub fn lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.content.lines().enumerate().map(|(i, l)| (i + 1, l))
    }

    /// The lexed token stream (empty for manifests).
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// A [`Cursor`] at the start of the token stream.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor::new(&self.content, &self.tokens)
    }

    /// The text of one of this file's tokens.
    pub fn text(&self, token: &Token) -> &str {
        token.text(&self.content)
    }

    /// Per-line flags marking `#[cfg(test)]` item extents (1-based line
    /// `n` is `test_lines()[n - 1]`). Exact: brace matching runs over
    /// tokens, so braces in strings or comments cannot fool it.
    pub fn test_lines(&self) -> &[bool] {
        &self.test_lines
    }

    /// True when 1-based `line` is inside a `#[cfg(test)]` item.
    pub fn in_test_block(&self, line: usize) -> bool {
        self.test_lines.get(line.wrapping_sub(1)).copied().unwrap_or(false)
    }

    /// The file's `tidy: allow` acknowledgement comments.
    pub fn allows(&self) -> &[AllowMarker] {
        &self.allows
    }

    /// The file's `allow`/`expect` lint attributes, in source order.
    pub fn lint_attrs(&self) -> &[LintAttr] {
        &self.lint_attrs
    }
}

/// One finding: a rule violated at a specific file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired (a [`Lint::name`]).
    pub rule: &'static str,
    /// Human-readable description of the specific violation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// A single invariant checked over one file at a time.
pub trait Lint {
    /// Short rule identifier used in reports and `allow(...)` comments.
    fn name(&self) -> &'static str;

    /// A paragraph explaining the invariant and its rationale, shown by
    /// `sysunc-tidy --explain <rule>`.
    fn explain(&self) -> &'static str;

    /// Whether the rule applies to files of this kind at all.
    fn applies(&self, kind: FileKind) -> bool;

    /// Checks one file, appending any violations found.
    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>);
}

/// An invariant checked over the whole workspace at once, with the
/// [`symbols::Workspace`] table in hand. Workspace rules run after the
/// per-file rules.
pub trait WorkspaceLint {
    /// Short rule identifier used in reports and `allow(...)` comments.
    fn name(&self) -> &'static str;

    /// A paragraph explaining the invariant, for `--explain`.
    fn explain(&self) -> &'static str;

    /// Checks the workspace, appending any violations found.
    fn check(&self, ws: &symbols::Workspace<'_>, out: &mut Vec<Violation>);
}

/// The outcome of a full workspace run: surviving violations plus the
/// acknowledged ones.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Report {
    /// Violations that stand (nonzero exit).
    pub violations: Vec<Violation>,
    /// The suppression ledger: findings acknowledged via
    /// `// tidy: allow(<rule>)`, and every `#[expect]` of a table lint
    /// in library code under the name of the rule it replaced.
    pub allowed: Vec<Violation>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the gate passes (no unacknowledged violations).
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The suppression ledger: how many acknowledged exceptions each
    /// rule has, in order of first appearance in [`Report::allowed`].
    pub fn ledger(&self) -> Vec<(&'static str, usize)> {
        let mut by_rule: Vec<(&'static str, usize)> = Vec::new();
        for a in &self.allowed {
            match by_rule.iter_mut().find(|(r, _)| *r == a.rule) {
                Some((_, n)) => *n += 1,
                None => by_rule.push((a.rule, 1)),
            }
        }
        by_rule
    }
}

/// Returns true when `line_no` (1-based) in `file` carries an
/// `allow(<rule>)` acknowledgement on the same or the preceding line.
///
/// Markers are precomputed per file, so this is a scan over the file's
/// (few) allow comments, not over its text.
pub fn is_allowed(file: &SourceFile, line_no: usize, rule: &str) -> bool {
    file.allows
        .iter()
        .any(|m| m.rule == rule && (m.line == line_no || m.line + 1 == line_no))
}

/// Parses `tidy: allow(...)` markers from the token stream: only plain
/// `//` line comments count — doc comments (`///`, `//!`) mentioning
/// the marker in prose do not create suppressions, and neither do
/// string literals.
fn allow_markers(src: &str, tokens: &[Token]) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let text = t.text(src);
        let body = &text[2..]; // strip `//`
        if body.starts_with('/') || body.starts_with('!') {
            continue; // doc comment: prose, not a suppression
        }
        // A comment can carry several allow groups (e.g. a marker plus
        // its own `allow(unused-allow)` acknowledgement).
        let mut tail = body;
        while let Some(at) = tail.find("tidy:") {
            tail = tail[at + "tidy:".len()..].trim_start();
            let Some(rest) = tail.strip_prefix("allow(") else { continue };
            tail = rest;
            let Some(inner) = rest.split(')').next() else { continue };
            for rule in inner.split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    out.push(AllowMarker { line: t.line, rule: rule.to_string() });
                }
            }
        }
    }
    out
}

/// Parses `#[allow(...)]` / `#[expect(...)]` lint attributes and their
/// inner `#![...]` forms from the token stream. Attributes inside
/// string literals or comments are opaque tokens and never match.
fn lint_attributes(src: &str, tokens: &[Token]) -> Vec<LintAttr> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut c = Cursor::new(src, tokens);
        c.seek(i);
        i += 1;
        if !c.eat_punct("#") {
            continue;
        }
        let line = tokens[c.pos() - 1].line;
        let inner = c.eat_punct("!");
        if !c.eat_punct("[") {
            continue;
        }
        let level = if c.eat_ident("allow") {
            "allow"
        } else if c.eat_ident("expect") {
            "expect"
        } else {
            continue;
        };
        if !c.at_punct("(") {
            continue;
        }
        let mut probe = c;
        let Some(end) = probe.skip_balanced("(", ")") else { continue };
        c.bump();
        let (mut lints, mut reason) = (Vec::new(), None);
        while c.pos() + 1 < end {
            let Some(word) = c.eat_any_ident() else {
                c.bump();
                continue;
            };
            if word == "reason" && c.eat_punct("=") {
                c.skip_comments();
                reason = c.bump().map(|t| t.text(src).trim_matches('"').to_string());
                continue;
            }
            let mut path = word.to_string();
            while c.eat_punct("::") {
                let Some(seg) = c.eat_any_ident() else { break };
                path.push_str("::");
                path.push_str(seg);
            }
            lints.push(path);
        }
        c.seek(end);
        let module_wide = inner || annotates_module(src, tokens, end);
        out.push(LintAttr { line, level, lints, reason, module_wide });
        i = end;
    }
    out
}

/// True when the item after the attribute ending before `i` (skipping
/// further attributes and the visibility) is a `mod`, `impl` or
/// `trait` — an attribute there covers a whole module's worth of code.
fn annotates_module(src: &str, tokens: &[Token], i: usize) -> bool {
    let mut c = Cursor::new(src, tokens);
    c.seek(i);
    if !c.eat_punct("]") {
        return false;
    }
    loop {
        if c.eat_punct("#") {
            if c.skip_balanced("[", "]").is_none() {
                return false;
            }
        } else if c.eat_ident("pub") {
            if c.at_punct("(") && c.skip_balanced("(", ")").is_none() {
                return false;
            }
        } else if !c.eat_ident("unsafe") {
            break;
        }
    }
    c.eat_ident("mod") || c.eat_ident("impl") || c.eat_ident("trait")
}

/// Runs every per-file lint over one file.
fn check_one(file: &SourceFile, lints: &[Box<dyn Lint>]) -> Vec<Violation> {
    let mut raw = Vec::new();
    for lint in lints {
        if lint.applies(file.kind) {
            lint.check(file, &mut raw);
        }
    }
    rules::module_wide_suppressions(file, &mut raw);
    raw
}

/// Runs every lint over every file — the per-file rules, then the
/// workspace rules — splitting findings into standing and explicitly
/// allowed violations, each list sorted by file, line and rule.
pub fn check_files(files: &[SourceFile]) -> Report {
    let lints = rules::all();
    let mut raw: Vec<Violation> = files.iter().flat_map(|f| check_one(f, &lints)).collect();

    // Workspace pass: rules that need the cross-file symbol table.
    let ws = symbols::Workspace::build(files);
    for rule in rules::workspace() {
        rule.check(&ws, &mut raw);
    }

    // Partition by allow markers, tracking which markers earned keep.
    let index: HashMap<&Path, usize> =
        files.iter().enumerate().map(|(i, f)| (f.path.as_path(), i)).collect();
    let mut used: Vec<Vec<bool>> = files.iter().map(|f| vec![false; f.allows.len()]).collect();
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    for v in raw {
        match index.get(v.file.as_path()) {
            Some(&fi) => {
                let file = &files[fi];
                let mut suppressed = false;
                for (mi, m) in file.allows.iter().enumerate() {
                    if m.rule == v.rule && (m.line == v.line || m.line + 1 == v.line) {
                        used[fi][mi] = true;
                        suppressed = true;
                    }
                }
                if suppressed {
                    report.allowed.push(v);
                } else {
                    report.violations.push(v);
                }
            }
            // A violation pointing at a path outside the scanned set
            // (should not happen) always stands.
            None => report.violations.push(v),
        }
    }

    // Suppression-rot pass: allow comments that suppressed nothing are
    // themselves findings (and can, one level deep, be acknowledged
    // with `tidy: allow(unused-allow)`).
    for v in rules::unused_allow_pass(files, &used) {
        let fi = index[v.file.as_path()];
        if is_allowed(&files[fi], v.line, v.rule) {
            report.allowed.push(v);
        } else {
            report.violations.push(v);
        }
    }

    // The toolchain half of the ledger: every `#[expect]` of a table
    // lint, under the name of the tidy rule the lint replaced.
    for file in files {
        rules::expectation_ledger(file, &mut report.allowed);
    }

    report.violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.allowed.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Walks the workspace at `root` and runs the full lint set.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let files = walk::collect(root)?;
    Ok(check_files(&files))
}

/// Marks, per line, whether that line is inside a `#[cfg(test)]` item
/// (attribute line through closing brace, inclusive). Used by rules
/// that only police shipped library code.
///
/// Exact: the extent comes from token-level brace matching, so braces
/// inside strings or comments cannot fool it.
pub fn test_block_lines(content: &str) -> Vec<bool> {
    let tokens = lexer::lex(content);
    test_lines_from(content, &tokens)
}

fn test_lines_from(content: &str, tokens: &[Token]) -> Vec<bool> {
    let n_lines = content.lines().count();
    let mut flags = vec![false; n_lines];
    let mark = |flags: &mut Vec<bool>, from: usize, to: usize| {
        for line in from..=to.min(n_lines) {
            if line >= 1 {
                flags[line - 1] = true;
            }
        }
    };
    let mut i = 0;
    while i < tokens.len() {
        let Some(attr_end) = cfg_test_attr(content, tokens, i) else {
            i += 1;
            continue;
        };
        let attr_line = tokens[i].line;
        // Find the end of the annotated item: the matching close brace
        // of its first `{`, or a terminating `;` (e.g. `mod tests;`).
        let mut c = Cursor::new(content, tokens);
        c.seek(attr_end);
        let mut item_end = None;
        while let Some(t) = c.peek() {
            if t.kind == TokenKind::Punct {
                let text = t.text(content);
                if text == "{" {
                    item_end = c.skip_balanced("{", "}");
                    break;
                }
                if text == ";" {
                    item_end = Some(c.pos() + 1);
                    break;
                }
            }
            c.bump();
        }
        match item_end {
            Some(end) => {
                mark(&mut flags, attr_line, tokens[end - 1].line);
                i = end;
            }
            None => {
                // Unterminated item: everything to EOF is test code.
                mark(&mut flags, attr_line, n_lines);
                break;
            }
        }
    }
    flags
}

/// If `tokens[i..]` starts a `#[cfg(test)]`-style attribute (any `cfg`
/// attribute whose arguments mention the `test` ident), returns the
/// index one past its closing `]`.
fn cfg_test_attr(src: &str, tokens: &[Token], i: usize) -> Option<usize> {
    let mut c = Cursor::new(src, tokens);
    c.seek(i);
    if !c.eat_punct("#") {
        return None;
    }
    if !c.at_punct("[") {
        return None;
    }
    let open = c.pos();
    let end = c.skip_balanced("[", "]")?;
    let mut inner = Cursor::new(src, tokens);
    inner.seek(open + 1);
    if !inner.eat_ident("cfg") {
        return None;
    }
    let mentions_test = tokens[inner.pos()..end]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text(src) == "test");
    mentions_test.then_some(end)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysFires;
    impl Lint for AlwaysFires {
        fn name(&self) -> &'static str {
            "prob-contract"
        }
        fn explain(&self) -> &'static str {
            "fixture"
        }
        fn applies(&self, kind: FileKind) -> bool {
            kind == FileKind::RustLibrary
        }
        fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
            for (no, line) in file.lines() {
                if line.contains("bad(") {
                    out.push(Violation {
                        file: file.path.clone(),
                        line: no,
                        rule: self.name(),
                        message: "fixture".into(),
                    });
                }
            }
        }
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let file = SourceFile::new(
            "src/x.rs",
            "let a = 1; // tidy: allow(prob-contract)\n// tidy: allow(prob-contract)\nlet b = 2;\nlet c = 3;\n",
            FileKind::RustLibrary,
        );
        assert!(is_allowed(&file, 1, "prob-contract"));
        assert!(is_allowed(&file, 3, "prob-contract"), "preceding-line allow applies");
        assert!(!is_allowed(&file, 4, "prob-contract"));
        assert!(!is_allowed(&file, 1, "lock-hygiene"), "allow is rule-specific");
    }

    #[test]
    fn allow_markers_ignore_doc_comments_and_strings() {
        let file = SourceFile::new(
            "src/x.rs",
            "/// prose: `// tidy: allow(prob-contract)` is the escape hatch\n\
             //! also prose: // tidy: allow(prob-contract)\n\
             let s = \"// tidy: allow(prob-contract)\";\n\
             let ok = 1; // tidy: allow(lock-hygiene) — justified\n",
            FileKind::RustLibrary,
        );
        assert_eq!(file.allows().len(), 1);
        assert_eq!(file.allows()[0], AllowMarker { line: 4, rule: "lock-hygiene".into() });
    }

    #[test]
    fn allow_markers_support_rule_lists() {
        let file = SourceFile::new(
            "src/x.rs",
            "x(); // tidy: allow(prob-contract, lock-hygiene)\n",
            FileKind::RustLibrary,
        );
        assert!(is_allowed(&file, 1, "prob-contract"));
        assert!(is_allowed(&file, 1, "lock-hygiene"));
        assert!(!is_allowed(&file, 1, "facade"));
    }

    #[test]
    fn report_partitions_allowed_from_standing() {
        let file = SourceFile::new(
            "src/x.rs",
            "bad(); // tidy: allow(prob-contract)\nok();\nbad();\n",
            FileKind::RustLibrary,
        );
        let lint = AlwaysFires;
        let mut raw = Vec::new();
        lint.check(&file, &mut raw);
        let mut report = Report { files_scanned: 1, ..Report::default() };
        for v in raw {
            if is_allowed(&file, v.line, v.rule) {
                report.allowed.push(v);
            } else {
                report.violations.push(v);
            }
        }
        assert_eq!(report.allowed.len(), 1);
        assert_eq!(report.violations.len(), 1);
        assert!(!report.clean());
    }

    #[test]
    fn test_block_lines_tracks_cfg_test_modules() {
        let src = "\
pub fn shipped() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
pub fn also_shipped() {}
";
        let flags = test_block_lines(src);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn braces_in_strings_and_comments_do_not_fool_test_extents() {
        let src = "\
pub fn shipped() {}
#[cfg(test)]
mod tests {
    // a stray { in a comment
    const S: &str = \"}}}\";
    fn helper() {}
}
pub fn also_shipped() {}
";
        let flags = test_block_lines(src);
        assert_eq!(flags, vec![false, true, true, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_attribute_variants_are_recognized() {
        let src = "\
#[cfg(all(test, feature = \"slow\"))]
mod tests {
    fn t() {}
}
fn shipped() {}
";
        let flags = test_block_lines(src);
        assert_eq!(flags, vec![true, true, true, true, false]);
    }

    #[test]
    fn violation_display_is_file_line_rule_message() {
        let v = Violation {
            file: PathBuf::from("crates/x/src/lib.rs"),
            line: 7,
            rule: "lock-hygiene",
            message: "`sleep` blocks under the lock".into(),
        };
        assert_eq!(
            v.to_string(),
            "crates/x/src/lib.rs:7: lock-hygiene: `sleep` blocks under the lock"
        );
    }
}
