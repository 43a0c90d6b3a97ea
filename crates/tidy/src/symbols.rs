//! Workspace-level view for the cross-file rules: every crate's library
//! files laid out by module path.
//!
//! Per-file rules can only see one file; this table is what lets the
//! gate reason *across* files — the rng and propcheck modules the
//! `seed-discipline-drift` guard reads, the facade the `facade` rule
//! inspects. Module paths come from the file layout (`src/a/b.rs` is
//! `a::b`), which is what cargo's own module lookup follows for `mod`
//! declarations.

use std::path::Component;

use crate::{FileKind, SourceFile};

/// The library files of one crate under `crates/`.
#[derive(Debug, Clone)]
pub struct CrateFiles {
    /// Directory name under `crates/`.
    pub name: String,
    /// `(file index, module path)` per library file, in file order
    /// (`lib.rs` → `[]`, `a/mod.rs` → `["a"]`, `a/b.rs` → `["a","b"]`).
    pub modules: Vec<(usize, Vec<String>)>,
}

impl CrateFiles {
    /// Index of the file providing the module at exactly this path.
    pub fn module_file(&self, path: &[&str]) -> Option<usize> {
        self.modules.iter().find(|(_, p)| p.iter().eq(path)).map(|(fi, _)| *fi)
    }

    /// Index of the crate-root file (`lib.rs`), or of the crate's first
    /// library file when it has no root.
    pub fn root_file(&self) -> usize {
        self.module_file(&[]).unwrap_or(self.modules[0].0)
    }
}

/// The full cross-file view handed to [`crate::WorkspaceLint`]s.
#[derive(Debug)]
pub struct Workspace<'a> {
    /// All scanned files, in report order.
    pub files: &'a [SourceFile],
    /// Library files of every crate under `crates/`.
    pub crates: Vec<CrateFiles>,
}

impl<'a> Workspace<'a> {
    /// Groups the `crates/*/src` library files by crate.
    pub fn build(files: &'a [SourceFile]) -> Self {
        let mut crates: Vec<CrateFiles> = Vec::new();
        for (file_idx, file) in files.iter().enumerate() {
            if file.kind != FileKind::RustLibrary {
                continue;
            }
            let Some((crate_name, module_path)) = crate_and_module(file) else { continue };
            match crates.iter_mut().find(|c| c.name == crate_name) {
                Some(c) => c.modules.push((file_idx, module_path)),
                None => crates
                    .push(CrateFiles { name: crate_name, modules: vec![(file_idx, module_path)] }),
            }
        }
        Workspace { files, crates }
    }

    /// The crate with this directory name, if present.
    pub fn crate_named(&self, name: &str) -> Option<&CrateFiles> {
        self.crates.iter().find(|c| c.name == name)
    }
}

/// Splits `crates/<name>/src/<rel>.rs` into the crate name and module
/// path (`lib.rs` → `[]`, `a/mod.rs` → `["a"]`, `a/b.rs` → `["a","b"]`).
/// Returns `None` for files outside `crates/*/src` and for binaries.
pub fn crate_and_module(file: &SourceFile) -> Option<(String, Vec<String>)> {
    let comps: Vec<&str> = file
        .path
        .components()
        .filter_map(|c| match c {
            Component::Normal(os) => os.to_str(),
            _ => None,
        })
        .collect();
    if comps.len() < 4 || comps[0] != "crates" || comps[2] != "src" {
        return None;
    }
    let crate_name = comps[1].to_string();
    let rel = &comps[3..];
    let last = rel.last()?;
    if *last == "main.rs" || rel.contains(&"bin") {
        return None; // binary root, not part of the library API
    }
    let mut path: Vec<String> = rel[..rel.len() - 1].iter().map(|s| s.to_string()).collect();
    match last.strip_suffix(".rs") {
        Some("lib") if path.is_empty() => {}
        Some("mod") => {}
        Some(stem) => path.push(stem.to_string()),
        None => return None,
    }
    Some((crate_name, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileKind;

    fn ws_files(specs: &[(&str, &str)]) -> Vec<SourceFile> {
        specs
            .iter()
            .map(|(p, s)| SourceFile::new(*p, *s, FileKind::RustLibrary))
            .collect()
    }

    #[test]
    fn module_paths_are_derived_from_file_layout() {
        let files = ws_files(&[
            ("crates/x/src/lib.rs", "pub mod a;\nmod b;\nmod c;\n"),
            ("crates/x/src/a.rs", "pub fn f() {}\n"),
            ("crates/x/src/b.rs", "pub fn g() {}\n"),
            ("crates/x/src/c/mod.rs", "pub mod d;\npub struct S;\n"),
            ("crates/x/src/c/d.rs", "pub enum E { X }\n"),
        ]);
        let ws = Workspace::build(&files);
        let x = ws.crate_named("x").expect("crate x");
        assert_eq!(x.modules.len(), 5);
        assert_eq!(x.root_file(), 0);
        assert_eq!(x.module_file(&["a"]), Some(1));
        assert_eq!(x.module_file(&["c"]), Some(3), "mod.rs provides its directory's module");
        assert_eq!(x.module_file(&["c", "d"]), Some(4));
        assert_eq!(x.module_file(&["missing"]), None);
    }

    #[test]
    fn files_outside_crates_and_binaries_are_skipped() {
        let files = vec![
            SourceFile::new("src/lib.rs", "pub fn root() {}\n", FileKind::RustLibrary),
            SourceFile::new("crates/x/src/main.rs", "fn main() {}\n", FileKind::RustLibrary),
            SourceFile::new("tests/t.rs", "pub fn t() {}\n", FileKind::RustTest),
        ];
        let ws = Workspace::build(&files);
        assert!(ws.crates.is_empty());
    }
}
