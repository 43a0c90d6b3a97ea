//! Rule `lock-hygiene`: a mutex/rwlock guard must not stay live across
//! a blocking call.
//!
//! A `let`-bound guard that is still live when the function sleeps,
//! joins a thread, does socket I/O or blocks on a channel `recv`
//! serializes every other thread behind an operation of unbounded
//! latency — the deadlock shape the serve admission gate is designed
//! around. Liveness runs as real dataflow over the function's
//! [`crate::cfg`] control-flow graph (`resolution: cfg`): a guard counts
//! as held at a blocking call only if some path actually carries it
//! there. An early `return` between acquisition and the call, a move
//! into another function, `drop(guard)`, a reassignment, or the end of
//! the binding's scope all end liveness on that path.
//!
//! An unwrapped acquisition (`.lock().unwrap()`), which turns a
//! poisoned lock into a library panic, is clippy's `unwrap_used` in the
//! workspace lint table; the poison-recovering idiom
//! `.unwrap_or_else(|e| e.into_inner())` passes both gates.
//!
//! `Condvar::wait` is deliberately **not** a blocking call here: it
//! atomically releases the guard it consumes — holding a guard at a
//! `wait` call is the correct condition-variable idiom, not a hazard.
//! Closure bodies are outside the enclosing function's CFG (they run
//! on another schedule), so guards acquired or used inside closures
//! are never charged to the enclosing function.
//!
//! Acquisition is token-shaped over the lexed stream: an
//! empty-argument `.lock()`/`.read()`/`.write()` method call or a call
//! whose final path segment is exactly `lock` (the free-helper idiom);
//! buffer-taking `read(&mut buf)`/`write(&buf)` I/O calls do not match.
//! Kills over-approximate (any bare mention that could be a move ends
//! liveness), so the rule under-approximates "held" — it can miss a
//! hazard, but it does not accuse a guard that a path already
//! released.

use std::collections::HashSet;

use crate::cfg::{self, BitSet, Cfg};
use crate::lexer::TokenKind;
use crate::resolve;
use crate::{FileKind, Lint, SourceFile, Violation};

/// See the module docs.
pub struct LockHygiene;

/// Callables of unbounded latency a guard must not be held across.
/// `wait`/`wait_timeout` are excluded on purpose: `Condvar::wait`
/// releases the guard it consumes.
pub(crate) const BLOCKING: &[&str] = &[
    "sleep",
    "join",
    "recv",
    "recv_timeout",
    "accept",
    "connect",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "write_all",
    "flush",
];

/// Guard-returning method names (empty-argument calls only, so
/// buffer-taking `Read::read`/`Write::write` never match).
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// True when the ident at `i` is a guard-acquiring call: an
/// empty-argument `.lock()`/`.read()`/`.write()` method, or any call
/// whose final path segment is exactly `lock` (e.g. the workspace's
/// poison-recovering `lock(&mutex)` helper, or `Mutex::lock(&m)`).
pub(crate) fn is_guard_acquisition(file: &SourceFile, i: usize) -> bool {
    let tokens = file.tokens();
    let t = &tokens[i];
    if t.kind != TokenKind::Ident {
        return false;
    }
    let name = file.text(t);
    let mut after = (i + 1..tokens.len()).filter(|&k| !tokens[k].is_comment());
    let Some(open) = after.next() else { return false };
    if !(tokens[open].kind == TokenKind::Punct && file.text(&tokens[open]) == "(") {
        return false;
    }
    let method = tokens[..i]
        .iter()
        .rev()
        .find(|u| !u.is_comment())
        .map(|u| u.kind == TokenKind::Punct && file.text(u) == ".")
        .unwrap_or(false);
    if method {
        // `.lock()` / `.read()` / `.write()` with no arguments.
        GUARD_METHODS.contains(&name)
            && after
                .next()
                .map(|c| tokens[c].kind == TokenKind::Punct && file.text(&tokens[c]) == ")")
                .unwrap_or(false)
    } else {
        // Free or path call: only the exact name `lock` qualifies.
        name == "lock"
    }
}

/// The index one past the matching `)` of the `(` at `open`.
fn close_paren(file: &SourceFile, open: usize) -> usize {
    let tokens = file.tokens();
    let mut depth = 0i64;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].kind == TokenKind::Punct {
            match file.text(&tokens[j]) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    j
}

impl Lint for LockHygiene {
    fn name(&self) -> &'static str {
        "lock-hygiene"
    }

    fn explain(&self) -> &'static str {
        "Mutex/RwLock guards need bounded hold times. A let-bound guard \
         still live at a call to `sleep`, `join`, `recv`, or socket I/O \
         serializes all other threads behind unbounded latency; liveness is \
         computed over the function's control-flow graph, so only paths \
         that actually carry the guard to the call count — early returns, \
         moves, `drop(guard)` and scope ends all release it. \
         `Condvar::wait` is exempt — it releases the guard it consumes, so \
         holding one there is the correct idiom. (Unwrapping a lock is \
         clippy's `unwrap_used`.)"
    }

    fn applies(&self, kind: FileKind) -> bool {
        kind == FileKind::RustLibrary
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        for f in &resolve::parse_facts(file).fns {
            let Some(body) = f.body else { continue };
            if file.in_test_block(f.line) {
                continue;
            }
            let graph = cfg::build(file, body);
            let facts = guard_facts(file, body);
            if facts.is_empty() {
                continue;
            }
            check_liveness(file, &graph, &facts, out);
        }
    }
}

/// One guard binding inside a function body.
pub(crate) struct GuardFact {
    /// The binding name.
    pub name: String,
    /// 1-based line of the `let`.
    pub let_line: usize,
    /// Token index (the statement's `;`) after which the guard is live.
    pub gen_at: usize,
    /// Token index of the acquiring ident inside the initializer.
    pub acq: usize,
    /// Token index of the `}` closing the binding's scope; the guard
    /// cannot be live at or past it.
    pub scope_close: usize,
}

/// Collects the guard bindings of one function body: `let`s whose
/// whole initializer is a guard acquisition (plus `unwrap`-family
/// adapters that still yield the guard).
pub(crate) fn guard_facts(file: &SourceFile, body: (usize, usize)) -> Vec<GuardFact> {
    let tokens = file.tokens();
    let (open, close) = body;
    let mut out = Vec::new();
    for i in open + 1..close.min(tokens.len()) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || file.text(t) != "let" || file.in_test_block(t.line) {
            continue;
        }
        let mut sig = (i + 1..tokens.len()).filter(|&k| !tokens[k].is_comment());
        let Some(mut n) = sig.next() else { continue };
        if tokens[n].kind == TokenKind::Ident && file.text(&tokens[n]) == "mut" {
            match sig.next() {
                Some(k) => n = k,
                None => continue,
            }
        }
        if tokens[n].kind != TokenKind::Ident {
            continue; // destructuring patterns are out of scope
        }
        let name = file.text(&tokens[n]);
        // Statement extent: to the `;` at relative depth 0.
        let mut stmt_end = None;
        let mut acquires = None;
        let mut depth = 0i64;
        let mut j = n + 1;
        while j < tokens.len() {
            let u = &tokens[j];
            if u.kind == TokenKind::Punct {
                match file.text(u) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            break; // malformed; bail out
                        }
                    }
                    ";" if depth == 0 => {
                        stmt_end = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            if u.kind == TokenKind::Ident && is_guard_acquisition(file, j) {
                acquires = Some(j);
            }
            j += 1;
        }
        let (Some(stmt_end), Some(acq)) = (stmt_end, acquires) else { continue };
        // The binding holds the guard only when the acquisition — plus
        // result adapters that still yield it (`unwrap`,
        // `unwrap_or_else`, `expect`) — is the *whole* initializer. A
        // further method call (`lock(m).drain(..).collect()`) consumes
        // the guard inside the statement; it dies at the semicolon.
        let paren = (acq + 1..tokens.len())
            .find(|&k| !tokens[k].is_comment())
            .unwrap_or(acq + 1);
        let mut e = close_paren(file, paren);
        loop {
            let mut sig = (e..tokens.len()).filter(|&k| !tokens[k].is_comment());
            let (Some(dot), Some(method), Some(p)) = (sig.next(), sig.next(), sig.next())
            else {
                break;
            };
            if tokens[dot].kind == TokenKind::Punct
                && file.text(&tokens[dot]) == "."
                && tokens[method].kind == TokenKind::Ident
                && matches!(file.text(&tokens[method]), "unwrap" | "unwrap_or_else" | "expect")
                && tokens[p].kind == TokenKind::Punct
                && file.text(&tokens[p]) == "("
            {
                e = close_paren(file, p);
            } else {
                break;
            }
        }
        if (e..stmt_end).any(|k| !tokens[k].is_comment()) {
            continue; // the guard is consumed inside its own statement
        }
        // Scope close: the `}` taking brace depth negative after the
        // statement (the function's own `}` as the fallback).
        let mut depth = 0i64;
        let mut scope_close = close;
        for k in stmt_end + 1..close.min(tokens.len()) {
            if tokens[k].kind == TokenKind::Punct {
                match file.text(&tokens[k]) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            scope_close = k;
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        out.push(GuardFact {
            name: name.to_string(),
            let_line: t.line,
            gen_at: stmt_end,
            acq,
            scope_close,
        });
    }
    out
}

/// What a token does to a guard fact during replay.
enum Ev {
    Gen,
    Kill,
}

/// The effect of token `k` on fact `f`, in replay order: leaving the
/// binding's scope kills; the binding statement's end gens; after
/// that, `drop(name)`, any bare mention that could move the guard, a
/// reassignment, or a shadowing rebind kills. Borrows (`&name`,
/// `*name`) and uses through the guard (`name.method()`, `name[..]`)
/// keep it live.
fn event_at(file: &SourceFile, k: usize, f: &GuardFact) -> Option<Ev> {
    let tokens = file.tokens();
    if k >= f.scope_close {
        return Some(Ev::Kill);
    }
    if k == f.gen_at {
        return Some(Ev::Gen);
    }
    if k <= f.gen_at {
        return None;
    }
    let t = &tokens[k];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let text = file.text(t);
    if text == "drop" {
        // `drop(name)` releases early.
        let mut sig = (k + 1..tokens.len()).filter(|&j| !tokens[j].is_comment());
        if let (Some(open), Some(arg)) = (sig.next(), sig.next()) {
            if tokens[open].kind == TokenKind::Punct
                && file.text(&tokens[open]) == "("
                && tokens[arg].kind == TokenKind::Ident
                && file.text(&tokens[arg]) == f.name
            {
                return Some(Ev::Kill);
            }
        }
        return None;
    }
    if text != f.name {
        return None;
    }
    // A mention of the binding. Decide move-vs-use from its neighbors.
    let prev = tokens[..k].iter().rposition(|u| !u.is_comment());
    if let Some(p) = prev {
        let u = &tokens[p];
        let pt = file.text(u);
        if u.kind == TokenKind::Punct && matches!(pt, "." | "::" | "&" | "&&" | "*") {
            return None; // field/path segment, borrow, or deref
        }
        if u.kind == TokenKind::Ident && pt == "mut" {
            // `&mut name` is a borrow.
            let pp = tokens[..p].iter().rposition(|v| !v.is_comment());
            if let Some(pp) = pp {
                let v = &tokens[pp];
                if v.kind == TokenKind::Punct && matches!(file.text(v), "&" | "&&") {
                    return None;
                }
            }
        }
    }
    let next = (k + 1..tokens.len()).find(|&j| !tokens[j].is_comment());
    if let Some(nx) = next {
        let u = &tokens[nx];
        if u.kind == TokenKind::Punct && matches!(file.text(u), "." | "[") {
            return None; // method call or index through the guard
        }
    }
    // Anything else — passed to a function, matched on, reassigned,
    // returned, shadowed — may consume the guard: kill (bias toward
    // "released", never accusing a path that let go).
    Some(Ev::Kill)
}

/// Per-block gen/kill sets for the guard facts, by linear replay of
/// each block's token segments.
fn block_sets(file: &SourceFile, graph: &Cfg, facts: &[GuardFact]) -> (Vec<BitSet>, Vec<BitSet>) {
    let nb = graph.blocks.len();
    let mut gen = vec![BitSet::new(facts.len()); nb];
    let mut kill = vec![BitSet::new(facts.len()); nb];
    for b in 0..nb {
        for k in graph.tokens_of(b) {
            for (fi, f) in facts.iter().enumerate() {
                match event_at(file, k, f) {
                    Some(Ev::Gen) => {
                        gen[b].insert(fi);
                        kill[b].remove(fi);
                    }
                    Some(Ev::Kill) => {
                        kill[b].insert(fi);
                        gen[b].remove(fi);
                    }
                    None => {}
                }
            }
        }
    }
    (gen, kill)
}

/// For each queried token index, the fact indices live immediately
/// before that token (dataflow live-in plus in-block replay). Shared
/// with the `lock-order-cycle` rule, which asks at acquisition and
/// call sites.
pub(crate) fn live_facts_at(
    file: &SourceFile,
    graph: &Cfg,
    facts: &[GuardFact],
    sites: &[usize],
) -> std::collections::HashMap<usize, Vec<usize>> {
    let (gen, kill) = block_sets(file, graph, facts);
    let ins = cfg::forward(graph, &gen, &kill);
    let mut out = std::collections::HashMap::new();
    for b in 0..graph.blocks.len() {
        let mut live = ins[b].clone();
        for k in graph.tokens_of(b) {
            if sites.contains(&k) {
                out.insert(k, live.ones());
            }
            for (fi, f) in facts.iter().enumerate() {
                match event_at(file, k, f) {
                    Some(Ev::Gen) => live.insert(fi),
                    Some(Ev::Kill) => live.remove(fi),
                    None => {}
                }
            }
        }
    }
    out
}

/// Runs the gen/kill dataflow over the CFG and reports guards live at
/// blocking call sites (one finding per guard, deterministic order).
fn check_liveness(file: &SourceFile, graph: &Cfg, facts: &[GuardFact], out: &mut Vec<Violation>) {
    let tokens = file.tokens();
    let nb = graph.blocks.len();
    let (gen, kill) = block_sets(file, graph, facts);
    let ins = cfg::forward(graph, &gen, &kill);
    let mut reported: HashSet<usize> = HashSet::new();
    for b in 0..nb {
        let mut live = ins[b].clone();
        for k in graph.tokens_of(b) {
            for (fi, f) in facts.iter().enumerate() {
                match event_at(file, k, f) {
                    Some(Ev::Gen) => live.insert(fi),
                    Some(Ev::Kill) => live.remove(fi),
                    None => {}
                }
            }
            let t = &tokens[k];
            if t.kind != TokenKind::Ident || file.in_test_block(t.line) {
                continue;
            }
            let text = file.text(t);
            if !BLOCKING.contains(&text) {
                continue;
            }
            let is_call = tokens[k + 1..]
                .iter()
                .find(|v| !v.is_comment())
                .map(|v| v.kind == TokenKind::Punct && file.text(v) == "(")
                .unwrap_or(false);
            if !is_call {
                continue;
            }
            for (fi, f) in facts.iter().enumerate() {
                if live.contains(fi) && reported.insert(fi) {
                    out.push(Violation {
                        file: file.path.clone(),
                        line: t.line,
                        rule: "lock-hygiene",
                        resolution: "cfg",
                        message: format!(
                            "guard `{}` (acquired on line {}) is still live \
                             across this `{text}` call; other threads serialize \
                             behind unbounded latency — drop the guard first",
                            f.name, f.let_line
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        let file = SourceFile::new("crates/x/src/lib.rs", src, FileKind::RustLibrary);
        let mut out = Vec::new();
        LockHygiene.check(&file, &mut out);
        out
    }

    #[test]
    fn poison_recovering_acquisition_passes() {
        let src = "fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                   \x20   m.lock().unwrap_or_else(|e| e.into_inner())\n}\n";
        assert!(run(src).is_empty(), "unwrap_or_else is the sanctioned idiom");
    }

    #[test]
    fn io_read_write_calls_are_not_lock_acquisitions() {
        // Buffer-taking `read`/`write` are socket/file I/O, not RwLock.
        let src = "\
fn f(s: &mut TcpStream, buf: &mut [u8]) {
    let n = s.read(buf).unwrap_or(0);
    s.write_all(buf).ok();
    s.flush().ok();
}
";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(m: &Mutex<T>) { let g = lock(m); std::thread::sleep(D); g.push(1); }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn guard_live_across_sleep_fires() {
        let src = "\
fn f(m: &Mutex<T>) {
    let g = m.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::sleep(Duration::from_millis(5));
    g.push(1);
}
";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`g`"));
        assert!(out[0].message.contains("sleep"));
        assert_eq!(out[0].line, 3, "reported at the blocking call");
        assert_eq!(out[0].resolution, "cfg", "liveness findings are CFG-resolved");
    }

    #[test]
    fn free_lock_helper_counts_as_acquisition() {
        let src = "\
fn f(m: &Mutex<T>, rx: &Receiver<T>) {
    let g = lock(m);
    let item = rx.recv().unwrap_or_default();
    g.push(item);
}
";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("recv"));
    }

    #[test]
    fn guard_dropped_before_blocking_passes() {
        // Scope end releases the guard.
        let scoped = "\
fn f(m: &Mutex<T>) {
    {
        let g = lock(m);
        g.push(1);
    }
    std::thread::sleep(D);
}
";
        assert!(run(scoped).is_empty(), "got: {:?}", run(scoped));
        // Explicit drop releases it too.
        let dropped = "\
fn f(m: &Mutex<T>, h: JoinHandle<()>) {
    let g = lock(m);
    g.push(1);
    drop(g);
    h.join().ok();
}
";
        assert!(run(dropped).is_empty(), "got: {:?}", run(dropped));
    }

    #[test]
    fn condvar_wait_with_a_held_guard_is_the_correct_idiom() {
        let src = "\
fn worker(m: &Mutex<State>, cv: &Condvar) {
    let mut g = lock(m);
    while g.queue.is_empty() {
        g = cv.wait(g).unwrap_or_else(|e| e.into_inner());
    }
}
";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn statement_temporary_guards_do_not_bind_liveness() {
        // The guard is a temporary inside one statement, dropped at the
        // semicolon — the later join is safe.
        let src = "\
fn shutdown(m: &Mutex<Vec<JoinHandle<()>>>) {
    let handles: Vec<JoinHandle<()>> = lock(m).drain(..).collect();
    for h in handles {
        h.join().ok();
    }
}
";
        let out = run(src);
        assert!(out.is_empty(), "got: {out:?}");
    }

    #[test]
    fn guard_moved_before_blocking_passes_without_a_literal_drop() {
        // The regression the CFG rebuild exists for: the guard is moved
        // into `finish` on the fallthrough path (no `drop()` call
        // anywhere), and the early-return path never reaches the join.
        // The statement-linear scan flagged this; path-accurate
        // liveness must not.
        let src = "\
fn f(m: &Mutex<VecDeque<u32>>, h: JoinHandle<()>) -> u32 {
    let g = lock(m);
    if let Some(v) = g.front() {
        return *v;
    }
    finish(g);
    h.join().ok();
    0
}
";
        let out = run(src);
        assert!(out.is_empty(), "moved guard is not live at join: {out:?}");
    }

    #[test]
    fn guard_live_on_only_one_path_still_fires() {
        // The else path carries the guard to the join — one live path
        // is enough.
        let src = "\
fn f(m: &Mutex<T>, h: JoinHandle<()>) {
    let g = lock(m);
    if cheap() {
        drop(g);
    } else {
        g.push(1);
    }
    h.join().ok();
}
";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].resolution, "cfg");
    }

    #[test]
    fn closure_bodies_are_not_charged_to_the_enclosing_fn() {
        // The guard lives only inside the spawned closure's body, which
        // runs on another thread's schedule — the enclosing fn's CFG
        // excises it, so the enclosing `join` is not a finding.
        let src = "\
fn f(m: &'static Mutex<T>) {
    let h = spawn(move || {
        let g = lock(m);
        g.push(1);
    });
    h.join().ok();
}
";
        let out = run(src);
        assert!(out.is_empty(), "got: {out:?}");
    }
}
