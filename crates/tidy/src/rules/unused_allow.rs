//! Rule `unused-allow`: every `// tidy: allow(<rule>)` comment must
//! suppress a live finding, and must name a rule the gate knows.
//!
//! Allow comments are deliberate, visible debt: "this violation is
//! understood and accepted". When the underlying code improves (or a
//! rule gets smarter) and the finding disappears, the comment turns
//! into *suppression rot* — a standing claim that a violation exists
//! where none does, and a landmine that silently swallows the next real
//! finding introduced nearby. This rule runs after all others, over the
//! markers the partitioning pass recorded as used, and flags the rest.
//!
//! One level of meta-acknowledgement is supported: a marker can itself
//! be kept alive with `// tidy: allow(unused-allow)` (e.g. for fixture
//! data), and `allow(unused-allow)` markers are never flagged.
//!
//! The same discipline covers the toolchain lints that replaced tidy's
//! generic rules ([`GATED_LINTS`]). rustc reports a stale
//! `#[expect(…)]` itself (`unfulfilled_lint_expectations`), but only
//! per attribute: an `#![expect]` or `#![allow]` over a whole module —
//! or an outer one on a `mod`, `impl` or `trait` — stays "fulfilled"
//! while a single site underneath remains, so individual sites could
//! rot, and new ones could appear, unseen. Library code therefore
//! acknowledges toolchain findings per site only. This rule also keeps
//! the suppression ledger: [`expectation_ledger`] lists every `#[expect]`
//! of a gated lint under the retired rule's name.

use crate::{rules, FileKind, LintAttr, SourceFile, Violation};

/// Each toolchain lint that replaced a retired tidy rule, with that
/// rule's name. The ledger counts an `#[expect]` of the lint under the
/// rule's name, so one table in `tests/tidy_gate.rs` covers tidy's own
/// allow comments and the toolchain's expectations alike.
pub const GATED_LINTS: &[(&str, &str)] = &[
    ("clippy::unwrap_used", "panic"),
    ("clippy::expect_used", "panic"),
    ("clippy::panic", "panic"),
    ("clippy::todo", "panic"),
    ("clippy::unimplemented", "panic"),
    ("clippy::float_cmp", "float-eq"),
    ("missing_docs", "doc"),
    ("unreachable_pub", "pub-reexport"),
    ("clippy::indexing_slicing", "panic-path"),
];

/// Lints and lint groups that a module-wide attribute must not silence
/// either: the ones that enforce the per-site `#[expect]` discipline,
/// and the clippy groups that contain gated lints.
const ENFORCEMENT_LINTS: &[&str] = &[
    "unfulfilled_lint_expectations",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
    "clippy::restriction",
    "clippy::pedantic",
];

/// True for lint attributes of shipped library code (outside
/// `#[cfg(test)]` items), the code `cargo clippy --lib` checks.
fn in_library_code(file: &SourceFile, attr: &LintAttr) -> bool {
    file.kind == FileKind::RustLibrary && !file.in_test_block(attr.line)
}

/// Flags lint attributes that silence a gated lint for a whole module.
pub fn module_wide_suppressions(file: &SourceFile, out: &mut Vec<Violation>) {
    for attr in file.lint_attrs() {
        if !attr.module_wide || !in_library_code(file, attr) {
            continue;
        }
        let gated = attr.lints.iter().filter(|l| {
            GATED_LINTS.iter().any(|(g, _)| g == l) || ENFORCEMENT_LINTS.contains(&l.as_str())
        });
        for lint in gated {
            out.push(Violation {
                file: file.path.clone(),
                line: attr.line,
                rule: UNUSED_ALLOW_NAME,
                message: format!(
                    "`{}({lint})` covers a whole module; acknowledge each site with \
                     `#[expect({lint}, reason = \"…\")]` on the smallest enclosing \
                     statement or item",
                    attr.level
                ),
            });
        }
    }
}

/// Appends one acknowledged finding per gated lint named by an outer
/// `#[expect(…)]` in library code, under the retired rule's name.
pub fn expectation_ledger(file: &SourceFile, out: &mut Vec<Violation>) {
    for attr in file.lint_attrs() {
        if attr.level != "expect" || attr.module_wide || !in_library_code(file, attr) {
            continue;
        }
        for lint in &attr.lints {
            let Some(&(_, rule)) = GATED_LINTS.iter().find(|(g, _)| g == lint) else {
                continue;
            };
            out.push(Violation {
                file: file.path.clone(),
                line: attr.line,
                rule,
                message: format!(
                    "`#[expect({lint})]`: {}",
                    attr.reason.as_deref().unwrap_or("(no reason given)")
                ),
            });
        }
    }
}

/// Rule name, used by the driver and `--explain`.
pub const UNUSED_ALLOW_NAME: &str = "unused-allow";

/// `--explain` text.
pub const UNUSED_ALLOW_EXPLAIN: &str =
    "Every `// tidy: allow(<rule>)` comment must suppress a live finding and \
     name a rule the gate knows, and no toolchain lint of the workspace \
     table may be silenced for a whole module. An allow whose finding has \
     disappeared is suppression rot: a standing claim that a violation \
     exists where none does, and a landmine that silently swallows the next \
     real finding introduced nearby. rustc reports a stale `#[expect]` by \
     itself, but an `#![expect]`/`#![allow]` (or one on a `mod`, `impl` or \
     `trait`) stays fulfilled while any site beneath it remains, so library \
     code acknowledges clippy/rustc findings per site with \
     `#[expect(<lint>, reason = \"…\")]`. Remove stale allows; if a marker \
     must stay (fixture data), acknowledge it with \
     `// tidy: allow(unused-allow)`.";

/// The suppression-rot pass. `used[file_idx][marker_idx]` says whether
/// the partitioning pass saw that marker suppress at least one finding.
pub fn unused_allow_pass(files: &[SourceFile], used: &[Vec<bool>]) -> Vec<Violation> {
    let known = rules::rule_names();
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (mi, marker) in file.allows().iter().enumerate() {
            if marker.rule == UNUSED_ALLOW_NAME {
                continue; // the meta-acknowledgement itself is never rot
            }
            if !known.contains(&marker.rule.as_str()) {
                out.push(Violation {
                    file: file.path.clone(),
                    line: marker.line,
                    rule: UNUSED_ALLOW_NAME,
                    message: format!(
                        "allow names unknown rule `{}`; known rules: {}",
                        marker.rule,
                        known.join(", ")
                    ),
                });
            } else if !used[fi][mi] {
                out.push(Violation {
                    file: file.path.clone(),
                    line: marker.line,
                    rule: UNUSED_ALLOW_NAME,
                    message: format!(
                        "`tidy: allow({})` suppresses nothing; remove the stale \
                         marker (suppression rot)",
                        marker.rule
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_files, FileKind};

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/m.rs", src, FileKind::RustLibrary)
    }

    #[test]
    fn a_live_allow_is_not_flagged() {
        // A hardcoded seed fires `seed-discipline`; the marker
        // suppresses it, so the marker is used and no unused-allow
        // finding appears.
        let files = vec![file(
            "fn f() -> Rng { Rng::seed_from_u64(7) } // tidy: allow(seed-discipline)\n",
        )];
        let report = check_files(&files);
        assert!(report.violations.is_empty(), "got: {:?}", report.violations);
        assert_eq!(report.allowed.len(), 1);
    }

    #[test]
    fn a_stale_allow_is_flagged() {
        let files = vec![file("fn f() {} // tidy: allow(seed-discipline)\n")];
        let report = check_files(&files);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "unused-allow");
        assert!(report.violations[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn an_unknown_rule_name_is_flagged() {
        let files = vec![file("fn f() {} // tidy: allow(no-such-rule)\n")];
        let report = check_files(&files);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("unknown rule"));
    }

    #[test]
    fn allows_of_retired_rules_are_unknown() {
        // Their lints moved to the toolchain; a leftover comment is rot.
        for rule in ["panic", "float-eq", "doc", "pub-reexport", "panic-path"] {
            let files = vec![file(&format!("fn f() {{}} // tidy: allow({rule})\n"))];
            let report = check_files(&files);
            assert_eq!(report.violations.len(), 1, "{rule}: {:?}", report.violations);
            assert!(report.violations[0].message.contains("unknown rule"), "{rule}");
        }
    }

    #[test]
    fn the_meta_acknowledgement_suppresses_one_level() {
        let files = vec![file(
            "fn f() {} // tidy: allow(seed-discipline) // tidy: allow(unused-allow)\n",
        )];
        let report = check_files(&files);
        assert!(report.violations.is_empty(), "got: {:?}", report.violations);
        assert_eq!(report.allowed.len(), 1, "the rot finding moves to allowed");
    }

    #[test]
    fn expectations_of_gated_lints_enter_the_ledger_under_the_retired_rule() {
        let files = vec![file(
            "fn f(o: Option<u8>, x: f64) -> bool {\n\
             \x20   #[expect(clippy::expect_used, reason = \"set above\")]\n\
             \x20   let v = o.expect(\"set\");\n\
             \x20   #[expect(clippy::float_cmp, dead_code, reason = \"exact end\")]\n\
             \x20   let end = x == 1.0;\n\
             \x20   end && v > 0\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   #[expect(clippy::unwrap_used, reason = \"test code\")]\n\
             \x20   fn t() {}\n\
             }\n",
        )];
        let report = check_files(&files);
        assert!(report.violations.is_empty(), "got: {:?}", report.violations);
        let ledger: Vec<(usize, &str)> =
            report.allowed.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(ledger, vec![(2, "panic"), (4, "float-eq")], "ungated and test-code expects are not counted");
        assert!(report.allowed[0].message.contains("set above"), "the reason is kept");
    }

    #[test]
    fn module_wide_suppressions_of_gated_lints_are_flagged() {
        let files = vec![file(
            "#![expect(clippy::unwrap_used, reason = \"whole crate\")]\n\
             #![allow(clippy::restriction)]\n\
             #![allow(dead_code)]\n\
             /// Docs.\n\
             #[expect(clippy::float_cmp, reason = \"whole impl\")]\n\
             impl T {}\n\
             #[expect(clippy::panic, reason = \"one fn\")]\n\
             pub fn f() {}\n\
             const S: &str = \"#![allow(clippy::unwrap_used)]\";\n",
        )];
        let report = check_files(&files);
        let lines: Vec<usize> = report.violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![1, 2, 5], "got: {:?}", report.violations);
        assert!(report.violations.iter().all(|v| v.rule == "unused-allow"));
        // The per-item expect on `f` is a ledger entry, not a finding.
        assert_eq!(report.allowed.len(), 1);
        assert_eq!(report.allowed[0].rule, "panic");
    }
}
