//! Rule `manifest`: every dependency in every `Cargo.toml` must be a
//! path dependency (directly, or via `workspace = true` resolving to a
//! path entry in `[workspace.dependencies]`), and every workspace
//! member must opt into the workspace lint table.
//!
//! The first half is the build-side half of the zero-external-deps
//! policy: a registry or git dependency reintroduces network
//! resolution — and with it epistemic uncertainty about whether the
//! workspace builds — so the gate rejects any manifest entry that is
//! not path-shaped. The second half keeps the toolchain lints that
//! replaced tidy's generic rules universal: a package manifest that
//! belongs to a workspace with a `[workspace.lints]` table must carry
//! `[lints] workspace = true`, so a new crate cannot silently opt out.
//! A package that is its own workspace root without such a table (a
//! standalone tool such as `perfbench/`) has nothing to inherit.

use crate::{FileKind, Lint, SourceFile, Violation};

/// See the module docs.
pub struct ManifestHygiene;

/// True when a `[section]` header names a dependency table.
fn is_dependency_section(header: &str) -> bool {
    let inner = header.trim().trim_start_matches('[').trim_end_matches(']').trim();
    inner == "dependencies"
        || inner == "dev-dependencies"
        || inner == "build-dependencies"
        || inner == "workspace.dependencies"
        || inner.ends_with(".dependencies")
        || inner.ends_with(".dev-dependencies")
        || inner.ends_with(".build-dependencies")
}

/// True when a header declares a single dependency as its own table,
/// e.g. `[dependencies.serde]`.
fn subtable_dependency(header: &str) -> Option<&str> {
    let inner = header.trim().trim_start_matches('[').trim_end_matches(']').trim();
    for prefix in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
        if let Some(name) = inner.strip_prefix(prefix) {
            return Some(name);
        }
    }
    None
}

/// True when a single inline dependency entry is path-shaped.
fn entry_is_path(value: &str) -> bool {
    value.contains("path") || value.contains("workspace = true") || value.contains("workspace=true")
}

impl Lint for ManifestHygiene {
    fn name(&self) -> &'static str {
        "manifest"
    }

    fn explain(&self) -> &'static str {
        "Every dependency in every Cargo.toml must be a path dependency \
         (directly, or via `workspace = true` resolving to a path entry in \
         `[workspace.dependencies]`). This is the build-side half of the \
         zero-external-deps policy: a registry or git dependency \
         reintroduces network resolution — and with it epistemic uncertainty \
         about whether the workspace builds — so the gate rejects any \
         manifest entry that is not path-shaped. Vendor code in-tree instead. \
         Every workspace member package must also declare `[lints] \
         workspace = true`, so the rustc/clippy lint table that replaced \
         tidy's generic rules covers every crate."
    }

    fn applies(&self, kind: FileKind) -> bool {
        kind == FileKind::Manifest
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        self.check_lints_opt_in(file, out);
        let mut in_dep_section = false;
        // Pending `[dependencies.<name>]` subtable awaiting a `path` key.
        let mut subtable: Option<(String, usize, bool)> = None;
        for (no, raw) in file.lines() {
            let line = raw.trim();
            if line.starts_with('[') {
                if let Some((name, at, saw_path)) = subtable.take() {
                    if !saw_path {
                        out.push(self.subtable_violation(file, at, &name));
                    }
                }
                if let Some(name) = subtable_dependency(line) {
                    subtable = Some((name.to_string(), no, false));
                    in_dep_section = false;
                } else {
                    in_dep_section = is_dependency_section(line);
                }
                continue;
            }
            if let Some((_, _, saw_path)) = subtable.as_mut() {
                if line.starts_with("path") {
                    *saw_path = true;
                }
                continue;
            }
            if !in_dep_section || line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((name, value)) = line.split_once('=') {
                if !entry_is_path(value) {
                    out.push(Violation {
                        file: file.path.clone(),
                        line: no,
                        rule: self.name(),
                        message: format!(
                            "dependency `{}` is not a path dependency \
                             (external crates are forbidden; vendor the code in-tree)",
                            name.trim()
                        ),
                    });
                }
            }
        }
        if let Some((name, at, saw_path)) = subtable {
            if !saw_path {
                out.push(self.subtable_violation(file, at, &name));
            }
        }
    }
}

impl ManifestHygiene {
    /// Flags a member package manifest that does not inherit the
    /// workspace lint table.
    fn check_lints_opt_in(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        let mut package_line = None;
        let mut workspace_root = false;
        let mut lint_table = false;
        let mut section = String::new();
        let mut opted_in = false;
        for (no, raw) in file.lines() {
            let line = raw.trim();
            if line.starts_with('[') {
                section = line.trim_matches(|c| c == '[' || c == ']').trim().to_string();
                match section.as_str() {
                    "package" => package_line = package_line.or(Some(no)),
                    "workspace" => workspace_root = true,
                    s if s.starts_with("workspace.lints") => lint_table = true,
                    _ => {}
                }
                continue;
            }
            if section == "lints" && line.replace(' ', "") == "workspace=true" {
                opted_in = true;
            }
        }
        let Some(line) = package_line else { return };
        if opted_in || (workspace_root && !lint_table) {
            return;
        }
        out.push(Violation {
            file: file.path.clone(),
            line,
            rule: self.name(),
            message: "package does not inherit the workspace lint table; add \
                      `[lints]` with `workspace = true`"
                .into(),
        });
    }

    fn subtable_violation(&self, file: &SourceFile, line: usize, name: &str) -> Violation {
        Violation {
            file: file.path.clone(),
            line,
            rule: self.name(),
            message: format!(
                "dependency table `{name}` has no `path` key \
                 (external crates are forbidden; vendor the code in-tree)"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(toml: &str) -> Vec<Violation> {
        let file = SourceFile::new("Cargo.toml", toml, FileKind::Manifest);
        let mut out = Vec::new();
        ManifestHygiene.check(&file, &mut out);
        out
    }

    #[test]
    fn path_and_workspace_entries_pass() {
        let clean = r#"
[package]
name = "x"

[lints]
workspace = true

[dependencies]
sysunc-prob = { path = "../prob" }
sysunc-core = { workspace = true }

[workspace.dependencies]
sysunc-prob = { path = "crates/prob" }
"#;
        assert!(run(clean).is_empty());
    }

    #[test]
    fn version_only_dependency_fires() {
        let bad = "[dependencies]\nserde = \"1.0\"\n";
        let out = run(bad);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
        assert!(out[0].message.contains("serde"));
    }

    #[test]
    fn git_dependency_fires() {
        let bad = "[dev-dependencies]\nfoo = { git = \"https://example.com/foo\" }\n";
        assert_eq!(run(bad).len(), 1);
    }

    #[test]
    fn subtable_without_path_fires_and_with_path_passes() {
        let bad = "[dependencies.serde]\nversion = \"1.0\"\nfeatures = [\"derive\"]\n";
        let out = run(bad);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("serde"));

        let good = "[dependencies.local]\npath = \"../local\"\n";
        assert!(run(good).is_empty());
    }

    #[test]
    fn non_dependency_sections_are_ignored() {
        let other = "[package]\nversion = \"1.0\"\n\n[lints]\nworkspace = true\n\n\
                     [features]\ndefault = []\n";
        assert!(run(other).is_empty());
    }

    #[test]
    fn member_package_without_the_lint_table_fires() {
        let out = run("[package]\nname = \"x\"\n\n[dependencies]\n");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1, "reported at the [package] header");
        assert!(out[0].message.contains("workspace = true"));
        // A [lints] table of its own is an opt-out, not an opt-in.
        let own = "[package]\nname = \"x\"\n\n[lints.clippy]\nunwrap_used = \"allow\"\n";
        assert_eq!(run(own).len(), 1);
    }

    #[test]
    fn workspace_roots_opt_in_only_when_they_define_the_table() {
        // The root package of a workspace with a lint table opts in too.
        let root = "[package]\nname = \"suite\"\n\n[workspace]\nmembers = []\n\n\
                    [workspace.lints.clippy]\nunwrap_used = \"deny\"\n";
        assert_eq!(run(root).len(), 1);
        let root_ok = format!("{root}\n[lints]\nworkspace = true\n");
        assert!(run(&root_ok).is_empty());
        // A standalone workspace without a table has nothing to inherit.
        let standalone = "[package]\nname = \"tool\"\n\n[workspace]\n";
        assert!(run(standalone).is_empty());
        // A virtual manifest is not a package.
        assert!(run("[workspace]\nmembers = [\"a\"]\n").is_empty());
    }
}
