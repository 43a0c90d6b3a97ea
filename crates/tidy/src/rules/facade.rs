//! Rule `facade`: every substrate crate must be re-exported from the
//! `sysunc::` facade, so one `use sysunc::…` reaches the whole modeling
//! workspace.
//!
//! This is the project-specific half of the former `pub-reexport` rule.
//! Whether a `pub` item is reachable *inside* its crate is rustc's
//! `unreachable_pub` lint now; no toolchain lint knows that this
//! workspace promises a single facade over its substrate crates, so
//! that promise stays here. The check is a token scan of the facade
//! crate's library files for a `pub use` declaration naming
//! `sysunc_<crate>`. Toolchain crates (`tidy`, `bench`) and the layers
//! above the facade (`serve`, `fleet`) are exempt.

use crate::lexer::TokenKind;
use crate::symbols::Workspace;
use crate::{SourceFile, Violation, WorkspaceLint};

/// See the module docs.
pub struct FacadeCoverage;

/// Crates that are not modeling substrate: workspace tooling (`tidy`,
/// `bench`) and layers that sit *above* the facade and depend on it
/// (`serve`, `fleet`), which a `core` re-export would turn into a
/// dependency cycle.
const FACADE_EXEMPT: &[&str] = &["core", "tidy", "bench", "serve", "fleet"];

/// The facade crate's directory name.
const FACADE: &str = "core";

/// True when a non-test `pub use` declaration in `file` names `package`.
fn reexports(file: &SourceFile, package: &str) -> bool {
    let tokens = file.tokens();
    let mut c = file.cursor();
    while let Some(t) = c.bump_significant() {
        if t.kind != TokenKind::Ident || file.text(t) != "pub" || file.in_test_block(t.line) {
            continue;
        }
        if !c.eat_ident("use") {
            continue;
        }
        let start = c.pos();
        let end = tokens[start..]
            .iter()
            .position(|u| u.kind == TokenKind::Punct && file.text(u) == ";")
            .map_or(tokens.len(), |k| start + k);
        if tokens[start..end]
            .iter()
            .any(|u| u.kind == TokenKind::Ident && file.text(u) == package)
        {
            return true;
        }
    }
    false
}

impl WorkspaceLint for FacadeCoverage {
    fn name(&self) -> &'static str {
        "facade"
    }

    fn explain(&self) -> &'static str {
        "Every substrate crate must be re-exported from the `sysunc` facade \
         (`pub use sysunc_<name> as <name>;` in crates/core), so one \
         `use sysunc::…` reaches the whole modeling workspace. No toolchain \
         lint knows about this promise; item-level reachability inside a \
         crate is rustc's `unreachable_pub`. Tooling crates (tidy, bench) \
         and the layers above the facade (serve, fleet) are exempt."
    }

    fn check(&self, ws: &Workspace<'_>, out: &mut Vec<Violation>) {
        let Some(facade) = ws.crate_named(FACADE) else { return };
        for krate in &ws.crates {
            if FACADE_EXEMPT.contains(&krate.name.as_str()) {
                continue;
            }
            let package = format!("sysunc_{}", krate.name.replace('-', "_"));
            if facade.modules.iter().any(|&(fi, _)| reexports(&ws.files[fi], &package)) {
                continue;
            }
            out.push(Violation {
                file: ws.files[facade.root_file()].path.clone(),
                line: 1,
                rule: self.name(),
                message: format!(
                    "substrate crate `{}` is not re-exported from the `sysunc` \
                     facade; add `pub use {package} as {};`",
                    krate.name,
                    krate.name.replace('-', "_")
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileKind;

    fn run(specs: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<SourceFile> = specs
            .iter()
            .map(|(p, s)| SourceFile::new(*p, *s, FileKind::RustLibrary))
            .collect();
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        FacadeCoverage.check(&ws, &mut out);
        out
    }

    #[test]
    fn missing_facade_reexport_fires_on_the_facade() {
        let out = run(&[
            ("crates/core/src/lib.rs", "pub use sysunc_x as x;\n"),
            ("crates/x/src/lib.rs", "pub fn f() {}\n"),
            ("crates/y/src/lib.rs", "pub fn g() {}\n"),
        ]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`y`"));
        assert!(out[0].file.ends_with("crates/core/src/lib.rs"));
    }

    #[test]
    fn reexports_in_facade_submodules_and_groups_count() {
        let out = run(&[
            ("crates/core/src/lib.rs", "pub mod prelude;\n"),
            ("crates/core/src/prelude.rs", "pub use {sysunc_x, sysunc_y};\n"),
            ("crates/x/src/lib.rs", "pub fn f() {}\n"),
            ("crates/y/src/lib.rs", "pub fn g() {}\n"),
        ]);
        assert!(out.is_empty(), "got: {out:?}");
    }

    #[test]
    fn private_uses_comments_and_test_code_do_not_count() {
        let out = run(&[
            (
                "crates/core/src/lib.rs",
                "use sysunc_x as x;\n\
                 // pub use sysunc_x as x;\n\
                 const S: &str = \"pub use sysunc_x\";\n\
                 #[cfg(test)]\n\
                 mod tests { pub use sysunc_x as x; }\n",
            ),
            ("crates/x/src/lib.rs", "pub fn f() {}\n"),
        ]);
        assert_eq!(out.len(), 1, "got: {out:?}");
    }

    #[test]
    fn toolchain_crates_are_exempt_from_the_facade_check() {
        let out = run(&[
            ("crates/core/src/lib.rs", "pub use sysunc_x as x;\n"),
            ("crates/x/src/lib.rs", "pub fn f() {}\n"),
            ("crates/tidy/src/lib.rs", "pub fn lint() {}\n"),
            ("crates/bench/src/lib.rs", "pub fn measure() {}\n"),
            ("crates/serve/src/lib.rs", "pub fn listen() {}\n"),
        ]);
        assert!(out.is_empty(), "got: {out:?}");
    }
}
