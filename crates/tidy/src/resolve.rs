//! Per-function signature index: the facts the control-flow and
//! call layers build on.
//!
//! [`parse_facts`] walks one file's token stream and records every
//! `fn` (module level, impl block, or nested) with its parameter and
//! return type annotations, its exact body extent and the `Self` type
//! of its enclosing `impl`, plus every `struct` with its simply-typed
//! named fields. [`crate::cfg`] builds block graphs over the body
//! extents, `lock-hygiene` walks them for guard liveness, and
//! [`crate::calls`] resolves call sites through the annotations
//! (`self.pool.try_submit(..)` follows the field `pool: WorkerPool`).
//!
//! Annotations are reduced to what those layers need: a type's last
//! path segment, with `Arc`/`Rc`/`Box` treated as transparent. Paths,
//! visibility and reachability are not modelled; rustc owns those
//! questions (`unreachable_pub`, `missing_docs`).

use crate::cursor::Cursor;
use crate::lexer::TokenKind;
use crate::SourceFile;

/// A type annotation reduced to what call resolution needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeAnn {
    /// A simple named type (last path segment, generics stripped).
    Named(String),
    /// Anything else (tuples, fn pointers, impl Trait, …).
    Other,
}

/// One function parameter with its annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The binding name (`_`-prefixed names kept verbatim).
    pub name: String,
    /// The declared type.
    pub ty: TypeAnn,
}

/// One `fn` anywhere in a file (module level, impl block, or nested),
/// with its signature facts and exact body extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnInfo {
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Named parameters (receiver `self` excluded).
    pub params: Vec<Param>,
    /// Declared return type (`Other` when omitted).
    pub ret: TypeAnn,
    /// Token extent of the body: indices of the `{` and its matching
    /// `}`; `None` for bodiless trait/extern signatures.
    pub body: Option<(usize, usize)>,
    /// The `Self` type of the enclosing `impl` block (last path
    /// segment), or `None` for free functions. `impl Trait for Type`
    /// records `Type`, the implementing side.
    pub self_ty: Option<String>,
}

/// One `struct` with its simply-typed named fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructInfo {
    /// The struct name.
    pub name: String,
    /// Every named field with a simple named type annotation (last
    /// path segment): receiver-type method resolution follows field
    /// accesses (`self.pool.try_submit(..)`) through these.
    pub named_fields: Vec<(String, String)>,
}

/// The signature index of one file: every function and struct, any
/// nesting depth, in source order (so the innermost body containing a
/// token index is the *last* match).
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// All functions in the file.
    pub fns: Vec<FnInfo>,
    /// All structs with named fields.
    pub structs: Vec<StructInfo>,
}

/// Index of the token matching the next `open` at or after `i`
/// (clamped to `tokens.len()` when unbalanced).
pub(crate) fn matching_close(file: &SourceFile, i: usize, open: &str, close: &str) -> usize {
    let tokens = file.tokens();
    let mut depth = 0usize;
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].kind == TokenKind::Punct {
            let text = file.text(&tokens[j]);
            if text == open {
                depth += 1;
            } else if text == close {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
        }
        j += 1;
    }
    j
}

/// Extracts every `fn` signature+body extent and every named-field
/// `struct` from the file, at any nesting depth, in source order.
/// Functions inside an `impl` block additionally record the block's
/// `Self` type, so methods can be looked up by `(type, name)`.
pub fn parse_facts(file: &SourceFile) -> FileFacts {
    let src = &file.content;
    let tokens = file.tokens();
    let impls = impl_extents(file);
    let mut facts = FileFacts::default();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text(src) {
            "fn" => {
                let (info, next) = parse_fn(file, i);
                let resume = match &info {
                    // Scan on from just inside the body so nested fns
                    // are indexed too.
                    Some(f) => f.body.map(|(open, _)| open + 1).unwrap_or(next),
                    None => next,
                };
                if let Some(mut f) = info {
                    // The innermost enclosing impl block (extents are
                    // in source order, so the last containing wins).
                    f.self_ty = impls
                        .iter()
                        .filter(|(open, close, _)| (*open..=*close).contains(&i))
                        .last()
                        .and_then(|(_, _, ty)| ty.clone());
                    facts.fns.push(f);
                }
                i = resume.max(i + 1);
            }
            "struct" => {
                let (info, next) = parse_struct(file, i);
                if let Some(s) = info {
                    facts.structs.push(s);
                }
                i = next.max(i + 1);
            }
            _ => i += 1,
        }
    }
    facts
}

/// Every `impl` block in the file: `(body_open, body_close, self_ty)`
/// with token indices of the braces and the implementing type's last
/// path segment (`None` for shapes the type model cannot name).
fn impl_extents(file: &SourceFile) -> Vec<(usize, usize, Option<String>)> {
    let src = &file.content;
    let tokens = file.tokens();
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && t.text(src) == "impl" {
            // `impl Trait` in *type* position follows a sigil (`:`,
            // `->`, `(`, `+`, `=`, `,`, `<`, `&`); an impl *block*'s
            // keyword starts an item.
            let item_pos = tokens[..i]
                .iter()
                .rfind(|u| !u.is_comment())
                .map(|u| {
                    !(u.kind == TokenKind::Punct
                        && matches!(
                            file.text(u),
                            ":" | "->" | "(" | "+" | "=" | "," | "<" | "&"
                        ))
                })
                .unwrap_or(true);
            if item_pos {
                // The body opens at the first `{` of the header (impl
                // headers cannot contain braces before the body).
                let mut j = i + 1;
                let mut open = None;
                while j < tokens.len() {
                    if tokens[j].kind == TokenKind::Punct {
                        match file.text(&tokens[j]) {
                            "{" => {
                                open = Some(j);
                                break;
                            }
                            ";" => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                if let Some(open) = open {
                    let close = matching_close(file, open, "{", "}");
                    out.push((open, close, impl_self_ty(file, i, open)));
                    // Resume inside the body so nested impls are found.
                    i = open + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// The implementing type of an `impl` header spanning tokens
/// `(kw, body_open)`: the type after the last trait-position `for`
/// (HRTB `for<'a>` excluded), or the type right after the impl
/// generics for inherent impls.
fn impl_self_ty(file: &SourceFile, kw: usize, body_open: usize) -> Option<String> {
    let src = &file.content;
    let tokens = file.tokens();
    let mut c = Cursor::new(src, tokens);
    c.seek(kw + 1);
    c.skip_comments();
    if c.at_punct("<") {
        skip_generics(file, &mut c);
    }
    let mut start = c.pos();
    let mut j = start;
    while j < body_open {
        let t = &tokens[j];
        if t.kind == TokenKind::Ident {
            match t.text(src) {
                // A `where` clause ends the type head.
                "where" => break,
                "for" => {
                    let hrtb = tokens[j + 1..body_open]
                        .iter()
                        .find(|u| !u.is_comment())
                        .map(|u| u.kind == TokenKind::Punct && file.text(u) == "<")
                        .unwrap_or(false);
                    if !hrtb {
                        start = j + 1;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    let mut c = Cursor::new(src, tokens);
    c.seek(start);
    match parse_type(file, &mut c) {
        TypeAnn::Named(name) if name != "dyn" => Some(name),
        _ => None,
    }
}

/// Parses the type annotation starting at token index `i`, returning
/// the annotation and the index one past its extent. Exposed for rules
/// that scan `let name: Type` bindings inside bodies.
pub fn type_annotation_at(file: &SourceFile, i: usize) -> (TypeAnn, usize) {
    let mut c = Cursor::new(&file.content, file.tokens());
    c.seek(i);
    let ann = parse_type(file, &mut c);
    (ann, c.pos())
}

/// Parses a type annotation at the cursor, consuming it up to (not
/// including) a top-level `,`, `)`, `{`, `;` or `=`.
fn parse_type(file: &SourceFile, c: &mut Cursor<'_>) -> TypeAnn {
    let ann = parse_type_head(file, c);
    // Consume any trailing tokens of a type we do not model, stopping
    // at a top-level delimiter.
    let mut depth = 0i64;
    while let Some(t) = c.peek() {
        if t.kind == TokenKind::Punct {
            match file.text(t) {
                "(" | "[" => depth += 1,
                ")" | "]" if depth > 0 => depth -= 1,
                "," | ")" | "]" | "{" | ";" | "=" if depth == 0 => break,
                "<" => {
                    skip_generics(file, c);
                    continue;
                }
                _ => {}
            }
        }
        c.bump();
    }
    ann
}

/// Parses the head of a type annotation — sigils, the path, and one
/// generic-argument list — without the trailing top-level consumption,
/// so it can recurse inside `Arc<…>`-style transparent wrappers.
fn parse_type_head(file: &SourceFile, c: &mut Cursor<'_>) -> TypeAnn {
    let src = &file.content;
    c.skip_comments();
    // Strip reference sigils and lifetimes.
    while c.at_punct("&") {
        c.bump();
        c.skip_comments();
        if matches!(c.peek().map(|t| t.kind), Some(TokenKind::Lifetime)) {
            c.bump();
            c.skip_comments();
        }
        if c.at_ident("mut") {
            c.bump();
            c.skip_comments();
        }
    }
    let mut ann = TypeAnn::Other;
    if let Some(t) = c.peek() {
        if t.kind == TokenKind::Ident {
            // Walk the path, keeping the last segment.
            let mut last = t.text(src).to_string();
            c.bump();
            loop {
                c.skip_comments();
                if c.at_punct("::") {
                    c.bump();
                    c.skip_comments();
                    if let Some(seg) = c.eat_any_ident() {
                        last = seg.to_string();
                        continue;
                    }
                }
                break;
            }
            let transparent = matches!(last.as_str(), "Arc" | "Rc" | "Box");
            ann = TypeAnn::Named(last);
            c.skip_comments();
            if c.at_punct("<") {
                if transparent {
                    // Deref-transparent smart pointers: the annotation
                    // flows through to the pointee (`Arc<T>` compares,
                    // calls, and locks as a `T`). The pointee is read
                    // with a forked cursor; the whole argument list is
                    // then skipped balanced (`>>` counts double).
                    let mut inner = *c;
                    inner.bump();
                    ann = parse_type_head(file, &mut inner);
                    skip_generics(file, c);
                } else {
                    // Other generic arguments demote to a plain named
                    // head type (`Vec<f64>` is a `Vec`).
                    skip_generics(file, c);
                }
            }
        }
    }
    ann
}

/// Skips a balanced generic-argument list opening at the cursor's `<`.
/// Compound shift tokens count double.
fn skip_generics(file: &SourceFile, c: &mut Cursor<'_>) {
    let src = &file.content;
    let mut depth = 0i64;
    while let Some(t) = c.bump() {
        if t.kind == TokenKind::Punct {
            match t.text(src) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "->" => {}
                ";" | "{" => return, // malformed; bail out
                _ => {}
            }
            if depth <= 0 {
                return;
            }
        }
    }
}

/// Parses one `fn` whose keyword sits at token `i`. Returns the info
/// (None for unparsable shapes) and the index one past the signature's
/// end (body close, or `;`).
fn parse_fn(file: &SourceFile, i: usize) -> (Option<FnInfo>, usize) {
    let src = &file.content;
    let tokens = file.tokens();
    let line = tokens[i].line;
    let mut c = Cursor::new(src, tokens);
    c.seek(i + 1);
    let Some(name) = c.eat_any_ident() else { return (None, i + 1) };
    let name = name.to_string();
    c.skip_comments();
    if c.at_punct("<") {
        skip_generics(file, &mut c);
        c.skip_comments();
    }
    if !c.at_punct("(") {
        return (None, c.pos());
    }
    let params_open = c.pos();
    let params_close = matching_close(file, params_open, "(", ")");
    // Parameters: `[mut] name: Type` at paren depth 1, split on
    // top-level commas. Destructuring patterns are skipped.
    let mut params = Vec::new();
    let mut p = Cursor::new(src, tokens);
    p.seek(params_open + 1);
    while p.pos() < params_close {
        p.skip_comments();
        if p.pos() >= params_close {
            break;
        }
        // One parameter: find its `:` at depth 0 (relative to here).
        let start = p.pos();
        let mut colon = None;
        let mut depth = 0i64;
        let mut q = p;
        while q.pos() < params_close {
            let Some(t) = q.peek() else { break };
            if t.kind == TokenKind::Punct {
                match file.text(t) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" => {
                        skip_generics(file, &mut q);
                        continue;
                    }
                    ":" if depth == 0 => {
                        colon = Some(q.pos());
                        break;
                    }
                    "," if depth == 0 => break,
                    _ => {}
                }
            }
            q.bump();
        }
        if let Some(colon) = colon {
            // Binding name: the last plain ident before the colon that
            // is a simple pattern (`x`, `mut x`); anything else (tuple
            // or struct patterns) is skipped.
            let mut name_tok = None;
            let mut simple = true;
            for t in &tokens[start..colon] {
                if t.is_comment() {
                    continue;
                }
                match t.kind {
                    TokenKind::Ident if file.text(t) == "mut" => {}
                    TokenKind::Ident if name_tok.is_none() => name_tok = Some(t),
                    _ => simple = false,
                }
            }
            let mut ty_cursor = Cursor::new(src, tokens);
            ty_cursor.seek(colon + 1);
            let ty = parse_type(file, &mut ty_cursor);
            if let (Some(nt), true) = (name_tok, simple) {
                params.push(Param { name: file.text(nt).to_string(), ty });
            }
            p.seek(ty_cursor.pos().min(params_close));
        }
        // Advance past the separating comma (or to the close).
        let mut depth = 0i64;
        while p.pos() < params_close {
            let Some(t) = p.peek() else { break };
            if t.kind == TokenKind::Punct {
                match file.text(t) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => {
                        p.bump();
                        break;
                    }
                    _ => {}
                }
            }
            p.bump();
        }
    }
    // Return type.
    let mut c = Cursor::new(src, tokens);
    c.seek(params_close + 1);
    c.skip_comments();
    let ret = if c.at_punct("->") {
        c.bump();
        parse_type(file, &mut c)
    } else {
        TypeAnn::Other
    };
    // Body: the first `{` before a `;` (where-clauses walked over).
    let mut j = c.pos();
    let mut body = None;
    while j < tokens.len() {
        if tokens[j].kind == TokenKind::Punct {
            match file.text(&tokens[j]) {
                "{" => {
                    body = Some((j, matching_close(file, j, "{", "}")));
                    break;
                }
                ";" => break,
                _ => {}
            }
        }
        j += 1;
    }
    let end = body.map(|(_, close)| close + 1).unwrap_or(j + 1);
    (Some(FnInfo { name, line, params, ret, body, self_ty: None }), end)
}

/// Parses one `struct` whose keyword sits at token `i`, recording its
/// simply-typed named fields. Tuple and unit structs return no fields.
fn parse_struct(file: &SourceFile, i: usize) -> (Option<StructInfo>, usize) {
    let src = &file.content;
    let tokens = file.tokens();
    let mut c = Cursor::new(src, tokens);
    c.seek(i + 1);
    let Some(name) = c.eat_any_ident() else { return (None, i + 1) };
    let name = name.to_string();
    c.skip_comments();
    if c.at_punct("<") {
        skip_generics(file, &mut c);
        c.skip_comments();
    }
    // Where clause tokens up to `{`, `;` or `(`.
    let mut j = c.pos();
    while j < tokens.len() {
        if tokens[j].kind == TokenKind::Punct {
            match file.text(&tokens[j]) {
                "{" => break,
                ";" | "(" => return (Some(StructInfo { name, named_fields: Vec::new() }), j),
                _ => {}
            }
        }
        j += 1;
    }
    if j >= tokens.len() {
        return (Some(StructInfo { name, named_fields: Vec::new() }), j);
    }
    let open = j;
    let close = matching_close(file, open, "{", "}");
    let mut named_fields = Vec::new();
    let mut f = Cursor::new(src, tokens);
    f.seek(open + 1);
    while f.pos() < close {
        f.skip_comments();
        if f.pos() >= close {
            break;
        }
        // `[pub[(…)]] name : Type ,`
        if f.at_ident("pub") {
            f.bump();
            f.skip_comments();
            if f.at_punct("(") {
                f.skip_balanced("(", ")");
                f.skip_comments();
            }
        }
        if f.at_punct("#") {
            // Field attribute.
            f.bump();
            f.skip_balanced("[", "]");
            continue;
        }
        let Some(field) = f.eat_any_ident() else {
            f.bump();
            continue;
        };
        let field = field.to_string();
        if !f.eat_punct(":") {
            continue;
        }
        if let TypeAnn::Named(ty) = parse_type(file, &mut f) {
            named_fields.push((field, ty));
        }
        f.eat_punct(",");
    }
    (Some(StructInfo { name, named_fields }), close + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileKind;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, src, FileKind::RustLibrary)
    }

    #[test]
    fn facts_index_fn_signatures_and_struct_fields() {
        let f = file(
            "crates/x/src/lib.rs",
            "pub fn dist(a: f64, b: &f64, n: usize) -> f64 { body() }\n\
             fn helper(v: Vec<f64>) -> Vec<f64> { v }\n\
             pub struct Reading { pub value: f64, label: String, weight: f32 }\n\
             pub struct Unit;\n",
        );
        let facts = parse_facts(&f);
        assert_eq!(facts.fns.len(), 2);
        let dist = &facts.fns[0];
        assert_eq!(dist.name, "dist");
        assert_eq!(
            dist.params,
            vec![
                Param { name: "a".into(), ty: TypeAnn::Named("f64".into()) },
                Param { name: "b".into(), ty: TypeAnn::Named("f64".into()) },
                Param { name: "n".into(), ty: TypeAnn::Named("usize".into()) },
            ]
        );
        assert_eq!(dist.ret, TypeAnn::Named("f64".into()), "references strip to the pointee");
        assert!(dist.body.is_some());
        let helper = &facts.fns[1];
        assert_eq!(helper.ret, TypeAnn::Named("Vec".into()), "generics strip to the head");
        assert_eq!(facts.structs.len(), 2);
        assert_eq!(
            facts.structs[0].named_fields,
            vec![
                ("value".to_string(), "f64".to_string()),
                ("label".to_string(), "String".to_string()),
                ("weight".to_string(), "f32".to_string()),
            ]
        );
        assert!(facts.structs[1].named_fields.is_empty());
    }

    #[test]
    fn facts_cover_methods_and_nested_fns() {
        let f = file(
            "crates/x/src/lib.rs",
            "impl T {\n    pub fn mean(&self) -> f64 { 0.0 }\n}\n\
             fn outer() {\n    fn inner(q: f32) -> f32 { q }\n}\n",
        );
        let facts = parse_facts(&f);
        let names: Vec<&str> = facts.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["mean", "outer", "inner"], "source order, any depth");
        assert_eq!(facts.fns[0].ret, TypeAnn::Named("f64".into()));
        assert_eq!(facts.fns[2].params[0].ty, TypeAnn::Named("f32".into()));
    }

    #[test]
    fn facts_record_the_impl_self_type() {
        let f = file(
            "crates/x/src/lib.rs",
            "impl WorkerPool {\n    pub fn try_submit(&self) -> bool { true }\n}\n\
             impl fmt::Display for PoolError {\n    fn fmt(&self) -> Result { ok() }\n}\n\
             impl<T> Shard<T> {\n    fn get(&self) -> u32 { 0 }\n}\n\
             fn free() {}\n",
        );
        let facts = parse_facts(&f);
        let tys: Vec<Option<&str>> =
            facts.fns.iter().map(|f| f.self_ty.as_deref()).collect();
        assert_eq!(
            tys,
            vec![Some("WorkerPool"), Some("PoolError"), Some("Shard"), None],
            "inherent and trait impls both record the implementing type"
        );
    }

    #[test]
    fn smart_pointers_are_deref_transparent_in_annotations() {
        let f = file(
            "crates/x/src/lib.rs",
            "fn run(ctx: &Arc<ServerContext>, pool: Rc<Vec<u8>>, raw: Vec<f64>) {}\n\
             pub struct Holder { ctx: Arc<ServerContext>, cache: ResponseCache }\n",
        );
        let facts = parse_facts(&f);
        assert_eq!(
            facts.fns[0].params[0].ty,
            TypeAnn::Named("ServerContext".into()),
            "Arc<T> flows through to T"
        );
        assert_eq!(facts.fns[0].params[1].ty, TypeAnn::Named("Vec".into()));
        assert_eq!(facts.fns[0].params[2].ty, TypeAnn::Named("Vec".into()));
        assert_eq!(
            facts.structs[0].named_fields,
            vec![
                ("ctx".to_string(), "ServerContext".to_string()),
                ("cache".to_string(), "ResponseCache".to_string()),
            ]
        );
    }
}
