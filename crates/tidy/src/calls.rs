//! Crate-local call resolution over the [`crate::resolve`] facts.
//!
//! The `lock-order-cycle` workspace rule needs to follow calls from
//! one function into another. This module builds, per
//! crate, an index of every function — free functions by name, impl
//! methods by `(Self type, name)` — and resolves the call sites inside
//! a function body against it: bare-name calls, `Type::method` /
//! `Self::method` path calls, and method calls through a receiver
//! whose type is known from a parameter annotation, a `let`
//! annotation, an inferred constructor result, or a struct field
//! chain (`self.pool.submit(..)`).
//!
//! Resolution is deliberately under-approximate ("never accuse"): an
//! ambiguous name (two free functions called `lock` in one crate),
//! an unannotated receiver, or a cross-crate path simply produces no
//! edge. Missing edges can only make the dependent rules miss a
//! finding, never invent one.

use std::collections::HashMap;

use crate::lexer::TokenKind;
use crate::resolve::{type_annotation_at, FileFacts, FnInfo, StructInfo, TypeAnn};
use crate::symbols::Workspace;
use crate::SourceFile;

/// Identifies one function: an index into [`Workspace::files`] plus
/// the index into that file's [`FileFacts::fns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnRef {
    /// Index into the workspace's file list.
    pub file: usize,
    /// Index into the file's function facts.
    pub fn_idx: usize,
}

/// One resolved call site inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Token index of the callee's name identifier at the call site.
    pub site: usize,
    /// The resolved callee.
    pub callee: FnRef,
}

/// The crate name of a library file laid out as
/// `crates/<name>/src/…`, or `None` for files outside that layout.
pub fn crate_of(file: &SourceFile) -> Option<&str> {
    let mut comps = file.path.components().filter_map(|c| match c {
        std::path::Component::Normal(os) => os.to_str(),
        _ => None,
    });
    if comps.next() != Some("crates") {
        return None;
    }
    let name = comps.next()?;
    (comps.next() == Some("src")).then_some(name)
}

/// The per-crate function and struct index call resolution runs over.
pub struct CrateIndex<'a> {
    /// Workspace file indices belonging to this crate, in file order.
    pub files: Vec<usize>,
    facts: HashMap<usize, &'a FileFacts>,
    paths: HashMap<usize, &'a std::path::Path>,
    /// Free functions by name; `None` marks an ambiguous name.
    by_name: HashMap<&'a str, Option<FnRef>>,
    /// Impl methods by `(Self type, name)`; `None` marks ambiguity.
    by_method: HashMap<(&'a str, &'a str), Option<FnRef>>,
    structs: HashMap<&'a str, &'a StructInfo>,
}

impl<'a> CrateIndex<'a> {
    /// Indexes every function and struct of `crate_name`'s library
    /// files in the workspace.
    pub fn build(ws: &'a Workspace<'_>, crate_name: &str) -> Self {
        let mut idx = CrateIndex {
            files: Vec::new(),
            facts: HashMap::new(),
            paths: HashMap::new(),
            by_name: HashMap::new(),
            by_method: HashMap::new(),
            structs: HashMap::new(),
        };
        for (fi, file) in ws.files.iter().enumerate() {
            if crate_of(file) != Some(crate_name) {
                continue;
            }
            let Some(facts) = ws.facts.get(&fi) else { continue };
            idx.files.push(fi);
            idx.facts.insert(fi, facts);
            idx.paths.insert(fi, file.path.as_path());
            for (j, f) in facts.fns.iter().enumerate() {
                let r = FnRef { file: fi, fn_idx: j };
                match &f.self_ty {
                    Some(ty) => {
                        idx.by_method
                            .entry((ty.as_str(), f.name.as_str()))
                            .and_modify(|s| *s = None)
                            .or_insert(Some(r));
                    }
                    None => {
                        idx.by_name
                            .entry(f.name.as_str())
                            .and_modify(|s| *s = None)
                            .or_insert(Some(r));
                    }
                }
            }
            for s in &facts.structs {
                idx.structs.insert(s.name.as_str(), s);
            }
        }
        idx
    }

    /// The facts of one indexed function.
    pub fn fn_info(&self, r: FnRef) -> &'a FnInfo {
        &self.facts[&r.file].fns[r.fn_idx]
    }

    /// Every function in the crate, in file-then-source order.
    pub fn all_fns(&self) -> Vec<FnRef> {
        let mut out = Vec::new();
        for &fi in &self.files {
            for j in 0..self.facts[&fi].fns.len() {
                out.push(FnRef { file: fi, fn_idx: j });
            }
        }
        out
    }

    fn free_fn(&self, name: &str) -> Option<FnRef> {
        self.by_name.get(name).copied().flatten()
    }

    fn method(&self, ty: &str, name: &str) -> Option<FnRef> {
        self.by_method.get(&(ty, name)).copied().flatten()
    }

    /// The declared return type name of a callee, with `Self`
    /// substituted by the impl's type.
    fn ret_ty(&self, r: FnRef) -> Option<String> {
        let f = self.fn_info(r);
        match &f.ret {
            TypeAnn::Named(n) if n == "Self" => f.self_ty.clone(),
            TypeAnn::Named(n) => Some(n.clone()),
            _ => None,
        }
    }

    /// Resolves every call site inside `fref`'s body. Calls within
    /// closures are attributed to the enclosing function (deferred
    /// work still runs on its behalf); bodies of *nested `fn` items*
    /// are skipped — those are separate functions in the index.
    pub fn resolve_calls(&self, ws: &Workspace<'_>, fref: FnRef) -> Vec<Call> {
        let file = &ws.files[fref.file];
        let tokens = file.tokens();
        let info = self.fn_info(fref);
        let Some((open, close)) = info.body else { return Vec::new() };

        // Extents of other fns nested inside this body, to skip.
        let nested: Vec<(usize, usize)> = self.facts[&fref.file]
            .fns
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != fref.fn_idx)
            .filter_map(|(_, f)| f.body)
            .filter(|&(o, c)| open < o && c < close)
            .collect();

        let mut out = Vec::new();
        let mut i = open + 1;
        let end = close.min(tokens.len());
        while i < end {
            if let Some(&(_, nc)) = nested.iter().find(|&&(no, _)| no == i) {
                i = nc + 1;
                continue;
            }
            let t = &tokens[i];
            if t.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            let name = file.text(t);
            if name == "fn" {
                // A nested item's declared name is not a call site.
                i = sig_after(file, i, end).map(|n| n + 1).unwrap_or(end);
                continue;
            }
            let Some(next) = sig_after(file, i, end) else { break };
            let next_text = file.text(&tokens[next]);
            if next_text == "!" {
                // Macro invocation, not a call.
                i = next + 1;
                continue;
            }
            if next_text == "(" && !KEYWORDS.contains(&name) {
                if let Some(callee) = self.resolve_one(file, i, name) {
                    out.push(Call { site: i, callee });
                }
            }
            i += 1;
        }
        out
    }

    /// Resolves one `name(`-shaped site at token `site`.
    fn resolve_one(&self, file: &SourceFile, site: usize, name: &str) -> Option<FnRef> {
        let tokens = file.tokens();
        let prev = sig_before(file, site)?;
        let prev_text = file.text(&tokens[prev]);
        if prev_text == "." {
            // Method call: resolve the receiver chain left of the dot.
            let ty = self.receiver_type(file, prev)?;
            return self.method(&ty, name);
        }
        if prev_text == "::" {
            // Path call: `Type::name(..)`, `Self::name(..)`,
            // `module::name(..)`.
            let seg = sig_before(file, prev)?;
            if tokens[seg].kind != TokenKind::Ident {
                return None;
            }
            let seg_text = file.text(&tokens[seg]);
            let ty = if seg_text == "Self" {
                self.self_ty_at(file, site)?
            } else {
                seg_text.to_string()
            };
            return self.method(&ty, name).or_else(|| self.free_fn(name));
        }
        self.free_fn(name)
    }

    /// The `Self` type in scope at a token, via the innermost fn whose
    /// body contains it.
    fn self_ty_at(&self, file: &SourceFile, i: usize) -> Option<String> {
        self.enclosing_fn(file, i)?.1.self_ty.clone()
    }

    /// The type of the receiver chain ending at the `.` token `dot`:
    /// `x.` via the environment is handled by the caller; this walks
    /// `a.b.c.` chains through struct fields. Returns `None` for
    /// call-result receivers (`f().m()`) and anything unannotated.
    fn receiver_type(&self, file: &SourceFile, dot: usize) -> Option<String> {
        let tokens = file.tokens();
        // Collect the ident chain right-to-left: idents separated by
        // `.`, ending when the previous token is not a dot.
        let mut chain = Vec::new();
        let mut at = dot;
        loop {
            let id = sig_before(file, at)?;
            if tokens[id].kind != TokenKind::Ident {
                return None; // `)`, `]`, literal… — not a plain chain
            }
            chain.push((id, file.text(&tokens[id]).to_string()));
            match sig_before(file, id) {
                Some(p)
                    if tokens[p].kind == TokenKind::Punct && file.text(&tokens[p]) == "." =>
                {
                    at = p;
                }
                _ => break,
            }
        }
        chain.reverse();
        let (head_tok, head) = chain.first()?.clone();
        // Head type: `self` → enclosing impl type, else the innermost
        // enclosing fn's environment.
        let mut ty = if head == "self" {
            self.enclosing_fn(file, head_tok)?.1.self_ty.clone()?
        } else {
            let (_, info) = self.enclosing_fn(file, head_tok)?;
            let mut env = TypeEnv::from_signature(info);
            env.scan_lets_until(self, file, info.body?.0 + 1, head_tok);
            env.get(&head)?
        };
        // Walk the remaining field segments through struct facts.
        for (_, field) in &chain[1..] {
            let s = self.structs.get(ty.as_str())?;
            ty = s
                .named_fields
                .iter()
                .find(|(n, _)| n == field)
                .map(|(_, t)| t.clone())?;
        }
        Some(ty)
    }

    /// The innermost indexed fn whose body contains token `i` in
    /// `file`, with its facts. The file is located by path, which is
    /// unique across the workspace.
    fn enclosing_fn(&self, file: &SourceFile, i: usize) -> Option<(FnRef, &'a FnInfo)> {
        let (&fidx, facts) = self
            .facts
            .iter()
            .find(|&(&fi, _)| self.paths.get(&fi).map(|p| *p == file.path).unwrap_or(false))?;
        let j = facts
            .fns
            .iter()
            .rposition(|f| f.body.map(|(o, c)| o < i && i < c).unwrap_or(false))?;
        Some((FnRef { file: fidx, fn_idx: j }, &facts.fns[j]))
    }
}

/// Ident tokens that can precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "as", "let", "else",
    "break", "continue", "unsafe", "where", "impl", "dyn",
];

/// Variable → type-name environment for one function body.
struct TypeEnv {
    vars: HashMap<String, String>,
}

impl TypeEnv {
    /// Seeds the environment from the signature: named parameters and
    /// the `self` receiver.
    fn from_signature(info: &FnInfo) -> Self {
        let mut vars = HashMap::new();
        if let Some(ty) = &info.self_ty {
            vars.insert("self".to_string(), ty.clone());
        }
        for p in &info.params {
            if let TypeAnn::Named(t) = &p.ty {
                vars.insert(p.name.clone(), t.clone());
            }
        }
        TypeEnv { vars }
    }

    fn get(&self, name: &str) -> Option<String> {
        self.vars.get(name).cloned()
    }

    /// Processes one `let` statement starting at the `let` keyword
    /// token `kw`; records the binding's type when it is knowable from
    /// an annotation or a constructor-shaped initializer. Returns the
    /// index to resume scanning at (just past the binding name).
    fn bind_let(
        &mut self,
        idx: &CrateIndex<'_>,
        file: &SourceFile,
        kw: usize,
        end: usize,
    ) -> usize {
        let tokens = file.tokens();
        let mut i = match sig_after(file, kw, end) {
            Some(i) => i,
            None => return kw + 1,
        };
        if tokens[i].kind == TokenKind::Ident && file.text(&tokens[i]) == "mut" {
            i = match sig_after(file, i, end) {
                Some(i) => i,
                None => return kw + 1,
            };
        }
        if tokens[i].kind != TokenKind::Ident {
            return kw + 1; // pattern binding (tuple/struct) — skip
        }
        let name = file.text(&tokens[i]).to_string();
        let resume = i + 1;
        let Some(next) = sig_after(file, i, end) else { return resume };
        match file.text(&tokens[next]) {
            ":" => {
                if let (TypeAnn::Named(t), _) = type_annotation_at(file, next + 1) {
                    self.vars.insert(name, t);
                } else {
                    self.vars.remove(&name);
                }
            }
            "=" => {
                if let Some(t) = Self::init_type(idx, file, next + 1, end) {
                    self.vars.insert(name, t);
                } else {
                    self.vars.remove(&name);
                }
            }
            _ => {
                self.vars.remove(&name);
            }
        }
        resume
    }

    /// The type of a constructor-shaped initializer at `i`:
    /// `Type::method(..)` via the method's return type, `freefn(..)`
    /// via the free fn's return type, or a plain struct literal
    /// `Type { .. }`.
    fn init_type(
        idx: &CrateIndex<'_>,
        file: &SourceFile,
        i: usize,
        end: usize,
    ) -> Option<String> {
        let tokens = file.tokens();
        let a = sig_after_inclusive(file, i, end)?;
        if tokens[a].kind != TokenKind::Ident {
            return None;
        }
        let first = file.text(&tokens[a]);
        let b = sig_after(file, a, end)?;
        match file.text(&tokens[b]) {
            "::" => {
                let m = sig_after(file, b, end)?;
                if tokens[m].kind != TokenKind::Ident {
                    return None;
                }
                let method = file.text(&tokens[m]);
                let c = sig_after(file, m, end)?;
                if file.text(&tokens[c]) != "(" {
                    return None;
                }
                idx.method(first, method).and_then(|r| idx.ret_ty(r))
            }
            "(" => idx.free_fn(first).and_then(|r| idx.ret_ty(r)),
            "{" => Some(first.to_string()),
            _ => None,
        }
    }

    /// Replays `let` bindings from `from` up to (not including) token
    /// `until`, so a receiver lookup sees the bindings above it.
    fn scan_lets_until(
        &mut self,
        idx: &CrateIndex<'_>,
        file: &SourceFile,
        from: usize,
        until: usize,
    ) {
        let tokens = file.tokens();
        let mut i = from;
        while i < until {
            let t = &tokens[i];
            if t.kind == TokenKind::Ident && file.text(t) == "let" {
                i = self.bind_let(idx, file, i, until);
                continue;
            }
            i += 1;
        }
    }
}

/// First significant token strictly after `i`, below `end`.
fn sig_after(file: &SourceFile, i: usize, end: usize) -> Option<usize> {
    sig_after_inclusive(file, i + 1, end)
}

fn sig_after_inclusive(file: &SourceFile, mut i: usize, end: usize) -> Option<usize> {
    let tokens = file.tokens();
    while i < end.min(tokens.len()) {
        if !tokens[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Last significant token strictly before `i`.
fn sig_before(file: &SourceFile, i: usize) -> Option<usize> {
    file.tokens()[..i].iter().rposition(|t| !t.is_comment())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileKind;

    fn ws_files(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter()
            .map(|(p, s)| SourceFile::new(*p, *s, FileKind::RustLibrary))
            .collect()
    }

    fn call_names(
        ws: &Workspace<'_>,
        idx: &CrateIndex<'_>,
        fref: FnRef,
    ) -> Vec<String> {
        idx.resolve_calls(ws, fref)
            .into_iter()
            .map(|c| idx.fn_info(c.callee).name.clone())
            .collect()
    }

    fn fn_named(idx: &CrateIndex<'_>, name: &str) -> FnRef {
        idx.all_fns()
            .into_iter()
            .find(|&r| idx.fn_info(r).name == name)
            .expect("fn present")
    }

    #[test]
    fn bare_and_path_calls_resolve_within_the_crate() {
        let files = ws_files(&[(
            "crates/x/src/lib.rs",
            "pub fn helper() {}\n\
             pub struct S;\n\
             impl S { pub fn make() -> S { S } pub fn act(&self) {} }\n\
             pub fn entry() {\n    helper();\n    S::make();\n    not_ours();\n}\n",
        )]);
        let ws = Workspace::build(&files);
        let idx = CrateIndex::build(&ws, "x");
        let names = call_names(&ws, &idx, fn_named(&idx, "entry"));
        assert_eq!(names, vec!["helper", "make"], "unknown names produce no edge");
    }

    #[test]
    fn method_calls_resolve_through_receiver_types() {
        let files = ws_files(&[(
            "crates/x/src/lib.rs",
            "pub struct Pool;\n\
             impl Pool { pub fn submit(&self) {} pub fn new() -> Pool { Pool } }\n\
             pub fn via_param(p: &Pool) { p.submit(); }\n\
             pub fn via_let() { let p = Pool::new(); p.submit(); }\n\
             pub fn via_annotation(q: u8) { let p: Pool = make(q); p.submit(); }\n\
             fn make(_q: u8) -> Pool { Pool }\n",
        )]);
        let ws = Workspace::build(&files);
        let idx = CrateIndex::build(&ws, "x");
        for f in ["via_param", "via_let", "via_annotation"] {
            let names = call_names(&ws, &idx, fn_named(&idx, f));
            assert!(
                names.contains(&"submit".to_string()),
                "{f} resolves p.submit() (got {names:?})"
            );
        }
    }

    #[test]
    fn field_chains_resolve_through_struct_facts() {
        let files = ws_files(&[(
            "crates/x/src/lib.rs",
            "pub struct Inner;\n\
             impl Inner { pub fn go(&self) {} }\n\
             pub struct Outer { pub inner: Inner }\n\
             impl Outer { pub fn run(&self) { self.inner.go(); } }\n",
        )]);
        let ws = Workspace::build(&files);
        let idx = CrateIndex::build(&ws, "x");
        let names = call_names(&ws, &idx, fn_named(&idx, "run"));
        assert_eq!(names, vec!["go"], "self.inner.go() follows the field type");
    }

    #[test]
    fn self_path_calls_resolve_to_the_impl_type() {
        let files = ws_files(&[(
            "crates/x/src/lib.rs",
            "pub struct S;\n\
             impl S { fn helper() {} pub fn entry(&self) { Self::helper(); } }\n",
        )]);
        let ws = Workspace::build(&files);
        let idx = CrateIndex::build(&ws, "x");
        let names = call_names(&ws, &idx, fn_named(&idx, "entry"));
        assert_eq!(names, vec!["helper"]);
    }

    #[test]
    fn macros_and_ambiguous_names_produce_no_edges() {
        let files = ws_files(&[
            ("crates/x/src/a.rs", "pub fn lock() {}\n"),
            ("crates/x/src/b.rs", "pub fn lock() {}\n"),
            (
                "crates/x/src/lib.rs",
                "pub mod a;\npub mod b;\n\
                 pub fn entry() {\n    println!(\"x\");\n    lock();\n}\n",
            ),
        ]);
        let ws = Workspace::build(&files);
        let idx = CrateIndex::build(&ws, "x");
        let names = call_names(&ws, &idx, fn_named(&idx, "entry"));
        assert!(names.is_empty(), "macro skipped, ambiguous `lock` dropped: {names:?}");
    }

    #[test]
    fn nested_fn_bodies_are_not_attributed_to_the_outer_fn() {
        let files = ws_files(&[(
            "crates/x/src/lib.rs",
            "pub fn target() {}\n\
             pub fn outer() {\n    fn inner() { target(); }\n    inner();\n}\n",
        )]);
        let ws = Workspace::build(&files);
        let idx = CrateIndex::build(&ws, "x");
        let outer = call_names(&ws, &idx, fn_named(&idx, "outer"));
        assert_eq!(outer, vec!["inner"], "outer calls inner, not inner's body");
        let inner = call_names(&ws, &idx, fn_named(&idx, "inner"));
        assert_eq!(inner, vec!["target"]);
    }

    #[test]
    fn closure_calls_are_attributed_to_the_enclosing_fn() {
        let files = ws_files(&[(
            "crates/x/src/lib.rs",
            "pub fn target() {}\n\
             pub fn outer(v: u8) { run(move || { target(); }, v); }\n\
             fn run(_f: impl FnOnce(), _v: u8) {}\n",
        )]);
        let ws = Workspace::build(&files);
        let idx = CrateIndex::build(&ws, "x");
        let names = call_names(&ws, &idx, fn_named(&idx, "outer"));
        assert!(names.contains(&"target".to_string()), "deferred work is still reached");
        assert!(names.contains(&"run".to_string()));
    }

    #[test]
    fn crate_of_parses_the_layout() {
        let f = SourceFile::new("crates/serve/src/pool.rs", "", FileKind::RustLibrary);
        assert_eq!(crate_of(&f), Some("serve"));
        let f = SourceFile::new("src/lib.rs", "", FileKind::RustLibrary);
        assert_eq!(crate_of(&f), None);
    }
}
