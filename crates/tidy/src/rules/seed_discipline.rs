//! Rule `seed-discipline`: library code must not construct an RNG from
//! a hardcoded seed or from an ambient entropy source. Seeds flow in as
//! explicit parameters.
//!
//! Reproducibility is part of this workspace's epistemic contract: a
//! Monte Carlo estimate whose seed is baked into library code cannot be
//! varied by the caller (so convergence cannot be probed), and one
//! drawn from OS entropy cannot be replayed at all — the run stops
//! being evidence. Tests and binaries pick their own seeds freely.
//!
//! The companion workspace rule `seed-discipline-drift` keeps the
//! [`SEEDED`]/[`ENTROPY`] lists honest: it token-scans what
//! `sysunc_prob::rng` *actually* defines and fails the gate when a
//! state-injecting constructor exists that neither list covers — the
//! failure mode where the rng module grows a new constructor and this
//! rule silently stops seeing it.

use crate::lexer::TokenKind;
use crate::symbols::Workspace;
use crate::{FileKind, Lint, SourceFile, Violation, WorkspaceLint};

/// See the module docs.
pub struct SeedDiscipline;

/// RNG constructors that take seed/state material as their first
/// argument. Public so the drift guard (and tests) can assert coverage.
/// `with_seed` is the propcheck runner's replay entry point
/// ([`PROPCHECK_SEEDED`]); a literal seed baked into a library-code
/// call would pin every property run to one case.
pub const SEEDED: &[&str] = &["seed_from_u64", "from_seed", "from_state", "with_seed"];

/// RNG constructors that read ambient entropy (never reproducible).
/// Public so the drift guard (and tests) can assert coverage.
pub const ENTROPY: &[&str] = &["from_entropy", "from_os_rng", "thread_rng"];

/// The seed-reporting entry points of `sysunc_prob::propcheck`: every
/// seed-named function the runner module defines must be listed here,
/// so the drift guard notices when propcheck grows a new way to inject
/// (or leak) seed material that the per-file rule does not know about.
pub const PROPCHECK_SEEDED: &[&str] = &["with_seed", "seed_from_env", "case_seed"];

/// True when the significant token before index `i` is the `fn`
/// keyword — i.e. the identifier at `i` is being *defined*, not called.
fn is_definition(file: &SourceFile, i: usize) -> bool {
    file.tokens()[..i]
        .iter()
        .rev()
        .find(|t| !t.is_comment())
        .map(|t| t.kind == TokenKind::Ident && file.text(t) == "fn")
        .unwrap_or(false)
}

impl Lint for SeedDiscipline {
    fn name(&self) -> &'static str {
        "seed-discipline"
    }

    fn explain(&self) -> &'static str {
        "Library code must not construct an RNG from a hardcoded seed \
         (`seed_from_u64(0xDEAD_BEEF)`) or an ambient entropy source \
         (`from_entropy`, `thread_rng`). Reproducibility is part of the \
         epistemic contract: a Monte Carlo estimate whose seed is baked in \
         cannot be varied to probe convergence, and one drawn from OS entropy \
         cannot be replayed — the run stops being evidence. Take the seed as \
         an explicit parameter; tests and binaries pick seeds freely. A \
         deliberate constant (e.g. remapping a degenerate all-zero state) \
         takes `// tidy: allow(seed-discipline)` with its justification."
    }

    fn applies(&self, kind: FileKind) -> bool {
        kind == FileKind::RustLibrary
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        for (i, t) in file.tokens().iter().enumerate() {
            if t.kind != TokenKind::Ident || file.in_test_block(t.line) {
                continue;
            }
            let text = file.text(t);
            let seeded = SEEDED.contains(&text);
            let entropy = ENTROPY.contains(&text);
            if (!seeded && !entropy) || is_definition(file, i) {
                continue;
            }
            let mut c = file.cursor();
            c.seek(i + 1);
            if !c.eat_punct("(") {
                continue; // a mention, not a call
            }
            if entropy {
                out.push(Violation {
                    file: file.path.clone(),
                    line: t.line,
                    rule: self.name(),
                    message: format!(
                        "`{text}` draws ambient entropy in library code; runs \
                         become unreplayable — take a seed parameter instead"
                    ),
                });
                continue;
            }
            // Seeded constructor: hardcoded if the first argument opens
            // with a literal (number, or a literal array like `[0; 4]`).
            c.skip_comments();
            let hardcoded = match c.peek() {
                Some(a) if matches!(a.kind, TokenKind::Int | TokenKind::Float) => true,
                Some(a) if a.kind == TokenKind::Punct && file.text(a) == "[" => true,
                _ => false,
            };
            if hardcoded {
                out.push(Violation {
                    file: file.path.clone(),
                    line: t.line,
                    rule: self.name(),
                    message: format!(
                        "`{text}` called with a hardcoded seed in library code; \
                         take the seed as a parameter so callers control \
                         reproducibility"
                    ),
                });
            }
        }
    }
}

/// Workspace rule `seed-discipline-drift` — see the module docs.
pub struct SeedDisciplineDrift;

/// The crate and modules the constructor lists describe.
const RNG_CRATE: &str = "prob";
const RNG_MODULE: &str = "rng";
const PROPCHECK_MODULE: &str = "propcheck";

/// True when `name` looks like a constructor that injects RNG
/// seed/state material or draws it from the environment. Deliberately
/// a naming heuristic: the rng module's constructors are named for
/// what they consume (`seed_from_u64`, `from_state`, `from_entropy`),
/// and a tripwire on those names is what keeps the lists from rotting.
fn is_state_injecting(name: &str) -> bool {
    name.contains("seed") || name.contains("entropy") || name.contains("state")
}

/// True when the `fn` whose keyword sits at token index `fn_idx`
/// declares `-> Self` before its body (or `;` for a trait method) —
/// the shape of a constructor as opposed to an accessor or mutator.
fn returns_self(file: &SourceFile, fn_idx: usize) -> bool {
    let tokens = file.tokens();
    let mut saw_arrow = false;
    for t in &tokens[fn_idx..] {
        if t.is_comment() {
            continue;
        }
        let text = file.text(t);
        if t.kind == TokenKind::Punct && (text == "{" || text == ";") {
            return false;
        }
        if saw_arrow {
            return t.kind == TokenKind::Ident && text == "Self";
        }
        if t.kind == TokenKind::Punct && text == "->" {
            saw_arrow = true;
        }
    }
    false
}

impl WorkspaceLint for SeedDisciplineDrift {
    fn name(&self) -> &'static str {
        "seed-discipline-drift"
    }

    fn explain(&self) -> &'static str {
        "The `seed-discipline` rule recognizes RNG constructors by name \
         (the SEEDED/ENTROPY lists). This guard token-scans what \
         `sysunc_prob::rng` actually defines and fails when a \
         state-injecting constructor — a non-test `fn` returning `Self` \
         whose name mentions seed, state, or entropy — is covered by \
         neither list. It applies the same tripwire to \
         `sysunc_prob::propcheck` (the PROPCHECK_SEEDED list of seeded \
         runner entry points). Without it, adding a constructor to either \
         module silently blinds the seed gate: callers could hardcode \
         seeds through the new name and nothing would fire. Fix by adding \
         the constructor to the appropriate list (and a test), not by \
         renaming it to dodge the scan."
    }

    fn check(&self, ws: &Workspace<'_>, out: &mut Vec<Violation>) {
        let Some(prob) = ws.crate_named(RNG_CRATE) else {
            return; // fixture workspaces without the rng crate have nothing to guard
        };
        let Some(module) = prob.module_file(&[RNG_MODULE]) else {
            out.push(Violation {
                file: ws.files[prob.root_file()].path.clone(),
                line: 1,
                rule: self.name(),
                message: format!(
                    "crate `{RNG_CRATE}` no longer has a `{RNG_MODULE}` module; the \
                     seed-discipline SEEDED/ENTROPY lists describe constructors \
                     that cannot be located, so the lists cannot be verified"
                ),
            });
            return;
        };
        let file = &ws.files[module];
        let tokens = file.tokens();
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident
                || file.text(t) != "fn"
                || file.in_test_block(t.line)
            {
                continue;
            }
            let Some(name_tok) = tokens[i + 1..].iter().find(|u| !u.is_comment()) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident {
                continue;
            }
            let name = file.text(name_tok);
            if !is_state_injecting(name) || !returns_self(file, i) {
                continue;
            }
            if SEEDED.contains(&name) || ENTROPY.contains(&name) {
                continue;
            }
            out.push(Violation {
                file: file.path.clone(),
                line: name_tok.line,
                rule: self.name(),
                message: format!(
                    "rng constructor `{name}` is covered by neither the SEEDED nor \
                     the ENTROPY list of the seed-discipline rule; hardcoded seeds \
                     passed through it would go unseen — add it to the right list"
                ),
            });
        }

        // The propcheck runner is the other surface seed material flows
        // through (replay via `with_seed`, `PROPCHECK_SEED` via
        // `seed_from_env`, schedule derivation via `case_seed`); every
        // seed-named function it defines must be a known entry point.
        let Some(module) = prob.module_file(&[PROPCHECK_MODULE]) else {
            out.push(Violation {
                file: ws.files[prob.root_file()].path.clone(),
                line: 1,
                rule: self.name(),
                message: format!(
                    "crate `{RNG_CRATE}` no longer has a `{PROPCHECK_MODULE}` module; \
                     the seed-discipline PROPCHECK_SEEDED list describes entry \
                     points that cannot be located, so the list cannot be verified"
                ),
            });
            return;
        };
        let file = &ws.files[module];
        let tokens = file.tokens();
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident
                || file.text(t) != "fn"
                || file.in_test_block(t.line)
            {
                continue;
            }
            let Some(name_tok) = tokens[i + 1..].iter().find(|u| !u.is_comment()) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident {
                continue;
            }
            let name = file.text(name_tok);
            if !name.contains("seed") || PROPCHECK_SEEDED.contains(&name) {
                continue;
            }
            out.push(Violation {
                file: file.path.clone(),
                line: name_tok.line,
                rule: self.name(),
                message: format!(
                    "propcheck defines seed-named `{name}` which the \
                     PROPCHECK_SEEDED list of the seed-discipline rule does not \
                     cover; seed material flowing through it would go unseen — \
                     add it to the list"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        let file = SourceFile::new("crates/x/src/rng.rs", src, FileKind::RustLibrary);
        let mut out = Vec::new();
        SeedDiscipline.check(&file, &mut out);
        out
    }

    #[test]
    fn hardcoded_seed_fires() {
        let out = run("fn init() -> Rng { Rng::seed_from_u64(0xDEAD_BEEF) }\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("hardcoded seed"));
        assert_eq!(run("fn init() -> Rng { Rng::from_seed([0u8; 32]) }\n").len(), 1);
    }

    #[test]
    fn seed_flowing_from_a_parameter_passes() {
        assert!(run("pub fn new(seed: u64) -> Rng { Rng::seed_from_u64(seed) }\n").is_empty());
        assert!(run("fn f(s: u64) -> Rng { Rng::seed_from_u64(s ^ GOLDEN) }\n").is_empty());
    }

    #[test]
    fn entropy_sources_fire_unconditionally() {
        let out = run("fn init() -> Rng { Rng::from_entropy() }\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unreplayable"));
        assert_eq!(run("fn init() -> Rng { thread_rng() }\n").len(), 1);
    }

    #[test]
    fn the_constructor_definition_itself_is_exempt() {
        let src = "\
impl Rng {
    pub fn seed_from_u64(seed: u64) -> Self { Self { s: seed } }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn tests_comments_and_strings_are_exempt() {
        let src = "\
// seed_from_u64(7) is fine to discuss
const DOC: &str = \"seed_from_u64(7)\";
#[cfg(test)]
mod tests {
    fn t() { let _ = Rng::seed_from_u64(42); }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_files_are_not_checked() {
        assert!(!SeedDiscipline.applies(FileKind::RustTest));
    }

    /// A propcheck stub whose seed-named functions are all listed.
    const COVERED_PROPCHECK: &str =
        "pub fn seed_from_env() -> Option<u64> { None }\npub fn run() {}\n";

    fn run_drift_with(rng_src: &str, propcheck_src: &str) -> Vec<Violation> {
        let files = vec![
            SourceFile::new(
                "crates/prob/src/lib.rs",
                "pub mod rng;\npub mod propcheck;\n",
                FileKind::RustLibrary,
            ),
            SourceFile::new("crates/prob/src/rng.rs", rng_src, FileKind::RustLibrary),
            SourceFile::new(
                "crates/prob/src/propcheck/mod.rs",
                propcheck_src,
                FileKind::RustLibrary,
            ),
        ];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        SeedDisciplineDrift.check(&ws, &mut out);
        out
    }

    fn run_drift(rng_src: &str) -> Vec<Violation> {
        run_drift_with(rng_src, COVERED_PROPCHECK)
    }

    #[test]
    fn covered_constructors_pass_the_drift_guard() {
        let src = "\
impl Rng {
    pub fn seed_from_u64(seed: u64) -> Self { Self { s: seed } }
    pub fn from_state(s: [u64; 4]) -> Self { Self { s } }
    pub fn from_entropy() -> Self { Self { s: 0 } }
    pub fn next_u64(&mut self) -> u64 { 0 }
}
";
        assert!(run_drift(src).is_empty());
    }

    #[test]
    fn an_uncovered_state_injecting_constructor_fires() {
        let src = "\
impl Rng {
    pub fn seed_from_u64(seed: u64) -> Self { Self { s: seed } }
    pub fn from_seed_words(words: &[u64]) -> Self { Self { s: words[0] } }
}
";
        let out = run_drift(src);
        assert_eq!(out.len(), 1, "got: {out:?}");
        assert_eq!(out[0].rule, "seed-discipline-drift");
        assert!(out[0].message.contains("from_seed_words"));
        assert!(out[0].file.ends_with("rng.rs"));
    }

    #[test]
    fn trait_declarations_count_as_constructors_too() {
        // `fn seed128(...) -> Self;` in a trait is still a surface
        // callers can hardcode seeds through on any implementor.
        let out = run_drift("pub trait Seeder { fn seed128(s: u128) -> Self; }\n");
        assert_eq!(out.len(), 1, "got: {out:?}");
        assert!(out[0].message.contains("seed128"));
    }

    #[test]
    fn non_constructors_and_test_code_do_not_trip_the_guard() {
        let src = "\
impl Rng {
    fn advance_state(&mut self) -> u64 { 0 }
    pub fn state(&self) -> [u64; 4] { self.s }
}
#[cfg(test)]
mod tests {
    fn from_seed_words(w: &[u64]) -> Rng { Rng { s: w[0] } }
}
";
        assert!(run_drift(src).is_empty());
    }

    #[test]
    fn a_missing_rng_module_is_itself_a_finding() {
        let files = vec![SourceFile::new(
            "crates/prob/src/lib.rs",
            "pub fn p() {}\n",
            FileKind::RustLibrary,
        )];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        SeedDisciplineDrift.check(&ws, &mut out);
        assert_eq!(out.len(), 1, "got: {out:?}");
        assert!(out[0].message.contains("cannot be verified"));
    }

    #[test]
    fn an_unlisted_propcheck_seed_fn_fires() {
        let rng = "impl Rng { pub fn seed_from_u64(seed: u64) -> Self { Self { s: seed } } }\n";
        let out = run_drift_with(rng, "pub fn seed_from_args() -> Option<u64> { None }\n");
        assert_eq!(out.len(), 1, "got: {out:?}");
        assert!(out[0].message.contains("seed_from_args"));
        assert!(out[0].message.contains("PROPCHECK_SEEDED"));
        assert!(out[0].file.ends_with("propcheck/mod.rs"));
    }

    #[test]
    fn a_missing_propcheck_module_is_itself_a_finding() {
        let files = vec![
            SourceFile::new("crates/prob/src/lib.rs", "pub mod rng;\n", FileKind::RustLibrary),
            SourceFile::new(
                "crates/prob/src/rng.rs",
                "impl Rng { pub fn seed_from_u64(s: u64) -> Self { Self { s } } }\n",
                FileKind::RustLibrary,
            ),
        ];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        SeedDisciplineDrift.check(&ws, &mut out);
        assert_eq!(out.len(), 1, "got: {out:?}");
        assert!(out[0].message.contains("PROPCHECK_SEEDED list describes entry"));
    }

    #[test]
    fn the_lists_match_the_real_rng_module() {
        // The in-tree source of truth: scanning the actual
        // crates/prob/src/rng.rs with the drift guard must be clean.
        // (The gate runs this over the workspace too; this keeps the
        // invariant visible from the unit suite.)
        let src = include_str!("../../../prob/src/rng.rs");
        assert!(run_drift(src).is_empty(), "SEEDED/ENTROPY lists have drifted");
    }

    #[test]
    fn the_lists_match_the_real_propcheck_module() {
        // Same tripwire for the runner: every seed-named fn the real
        // crates/prob/src/propcheck/mod.rs defines is a listed entry
        // point.
        let rng = include_str!("../../../prob/src/rng.rs");
        let propcheck = include_str!("../../../prob/src/propcheck/mod.rs");
        assert!(
            run_drift_with(rng, propcheck).is_empty(),
            "PROPCHECK_SEEDED list has drifted"
        );
    }
}
