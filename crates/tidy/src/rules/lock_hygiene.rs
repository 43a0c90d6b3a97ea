//! Rule `lock-hygiene`: every lock is taken inside a module-private
//! `with` helper, and the closure run under it neither blocks nor takes
//! a second lock.
//!
//! Each mutex of the workspace is reached through one helper per
//! module, `with(&Mutex<T>, impl FnOnce(&mut T) -> R) -> R`. The guard
//! lives inside `with` and is dropped before it returns, so no guard
//! can outlive its closure, sit in an `if let` scrutinee, or reach a
//! caller. What is left to check is token-shaped and per file:
//!
//! 1. **Acquisition outside `with`**: a zero-argument `.lock()`,
//!    `.try_lock()`, `.read()` or `.write()` method call, or a
//!    `Mutex::lock`-style path call, outside the body of a fn named
//!    `with`; or a `with` whose signature names a `…Guard` type. The
//!    match is on the acquisition, not on a helper's name, so no mutex
//!    is invisible for being reached through an unusual helper.
//! 2. **Blocking call in a lock scope**: the closure or fn path passed
//!    to a free `with(` call makes a [`BLOCKING`] call. Every other
//!    thread that wants the lock waits behind it. A condition-variable
//!    wait belongs in the helper's own body, which owns the guard.
//! 3. **Nested lock scope**: that closure calls `with(` again, or calls
//!    `f(`, `self.f(` or `Self::f(` where `f` is a fn of the same file
//!    whose body calls `with(`. Taking a `std::sync::Mutex` twice on
//!    one thread deadlocks, and every lock-order cycle needs nesting.
//!
//! The rule does not follow calls into other files: a closure that
//! calls another module's lock-taking `pub fn` is not seen.

use crate::lexer::Token;
use crate::{FileKind, Lint, SourceFile, Violation};

/// See the module docs.
pub struct LockHygiene;

/// Calls of unbounded latency that must not run under a lock.
const BLOCKING: &[&str] = &[
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
    "wait",
    "wait_timeout",
    "kill",
];

/// Guard-returning calls, matched with no arguments (as methods) so
/// that buffer-taking `Read::read`/`Write::write` never match.
const ACQUIRE: &[&str] = &["lock", "try_lock", "read", "write"];

/// One file's significant (non-comment) tokens.
struct Scan<'a> {
    file: &'a SourceFile,
    toks: Vec<&'a Token>,
}

/// A fn item with a body: its name, the index of `fn`, the token range
/// of its `{ … }` body, and whether its signature takes `self`.
struct FnItem<'a> {
    name: &'a str,
    start: usize,
    body: (usize, usize),
    method: bool,
}

impl<'a> Scan<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.toks.get(i).map_or("", |t| self.file.text(t))
    }

    fn line(&self, i: usize) -> usize {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    /// The index of the `close` matching the `open` at `i`.
    fn matching(&self, i: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        for k in i..self.toks.len() {
            if self.text(k) == open {
                depth += 1;
            } else if self.text(k) == close {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
        self.toks.len()
    }

    /// Every fn item with a body, in source order.
    fn fns(&self) -> Vec<FnItem<'a>> {
        let mut out = Vec::new();
        for i in 0..self.toks.len() {
            let name = self.text(i + 1);
            if self.text(i) != "fn" || !name.starts_with(|c: char| c.is_alphabetic() || c == '_') {
                continue;
            }
            let mut depth = 0i64;
            for k in i + 2..self.toks.len() {
                match self.text(k) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => break,
                    "{" if depth == 0 => {
                        let body = (k, self.matching(k, "{", "}"));
                        let method = (i..k).any(|j| self.text(j) == "self");
                        out.push(FnItem { name, start: i, body, method });
                        break;
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// True when `i` is a free call of `with` (not a method, not the
    /// helper's definition).
    fn is_with_call(&self, i: usize) -> bool {
        self.text(i) == "with"
            && self.text(i + 1) == "("
            && !matches!(self.text(i.wrapping_sub(1)), "." | "fn")
    }

    /// True when the call at `i` can reach `f`: `self.f(` a method,
    /// `Self::f(` either kind, and a bare `f(` a free fn.
    fn calls(&self, i: usize, f: &FnItem<'_>) -> bool {
        if self.text(i) != f.name || self.text(i + 1) != "(" {
            return false;
        }
        match self.text(i.wrapping_sub(1)) {
            "." => f.method && self.text(i.wrapping_sub(2)) == "self",
            "::" => self.text(i.wrapping_sub(2)) == "Self",
            _ => !f.method,
        }
    }

    fn finding(&self, i: usize, message: String) -> Violation {
        Violation {
            file: self.file.path.clone(),
            line: self.line(i),
            rule: "lock-hygiene",
            message,
        }
    }
}

impl Lint for LockHygiene {
    fn name(&self) -> &'static str {
        "lock-hygiene"
    }

    fn explain(&self) -> &'static str {
        "Every lock is taken inside a module-private `with(&Mutex<T>, impl \
         FnOnce(&mut T) -> R) -> R` helper, and the closure run under it \
         neither blocks nor takes a second lock. Three findings: a \
         zero-argument `.lock()`, `.try_lock()`, `.read()` or `.write()` \
         (or a `Mutex::lock` path call) outside a fn named `with`, or a \
         `with` whose signature names a `…Guard` type; a closure or fn path \
         passed to `with(` that calls `sleep`, `join`, `recv`, `wait`, \
         `kill` or socket I/O, which every other thread wanting the lock \
         waits behind; and such a closure calling `with(` again, or a fn of \
         the same file that does, which deadlocks a `std::sync::Mutex` and \
         is what every lock-order cycle needs. Blind spot: calls are \
         followed within one file only, so a closure that calls another \
         module's lock-taking `pub fn` is not seen."
    }

    fn applies(&self, kind: FileKind) -> bool {
        kind == FileKind::RustLibrary
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        let s = Scan { file, toks: file.tokens().iter().filter(|t| !t.is_comment()).collect() };
        let fns = s.fns();
        let helpers: Vec<&FnItem<'_>> = fns.iter().filter(|f| f.name == "with").collect();
        let locking: Vec<&FnItem<'_>> =
            fns.iter().filter(|f| (f.body.0..f.body.1).any(|k| s.is_with_call(k))).collect();
        let mut found = Vec::new();
        for f in &helpers {
            if let Some(g) = (f.start..f.body.0).find(|&k| s.text(k).ends_with("Guard")) {
                found.push(s.finding(
                    g,
                    format!("`with` names `{}`: the guard must not leave the helper", s.text(g)),
                ));
            }
        }
        for i in 0..s.toks.len() {
            let name = s.text(i);
            let acquires = ACQUIRE.contains(&name)
                && s.text(i + 1) == "("
                && match s.text(i.wrapping_sub(1)) {
                    "." => s.text(i + 2) == ")",
                    "::" => matches!(s.text(i.wrapping_sub(2)), "Mutex" | "RwLock"),
                    _ => false,
                };
            if acquires && !helpers.iter().any(|f| f.body.0 < i && i < f.body.1) {
                found.push(s.finding(
                    i,
                    format!(
                        "`{name}()` outside a `with` helper: take the lock through the \
                         module's `with(&Mutex<T>, impl FnOnce(&mut T) -> R)` so no guard \
                         outlives its closure"
                    ),
                ));
            }
            if !s.is_with_call(i) {
                continue;
            }
            // The lock scope is the last argument: a closure, or a fn
            // path whose same-file body runs under the lock.
            let close = s.matching(i + 1, "(", ")");
            let mut depth = 0i64;
            let mut arg = i + 2;
            for k in i + 2..close {
                match s.text(k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => arg = k + 1,
                    _ => {}
                }
            }
            let mut scope: Vec<usize> = (arg..close).collect();
            if !scope.iter().any(|&k| matches!(s.text(k), "|" | "||")) {
                let path = s.text(close.wrapping_sub(1));
                if BLOCKING.contains(&path) {
                    found.push(
                        s.finding(i, format!("`{path}` blocks under the lock of this `with`")),
                    );
                }
                for f in fns.iter().filter(|f| f.name == path) {
                    scope.extend(f.body.0..f.body.1);
                }
            }
            for &k in &scope {
                if BLOCKING.contains(&s.text(k)) && s.text(k + 1) == "(" {
                    found.push(s.finding(
                        k,
                        format!(
                            "`{}` blocks under the lock of the `with` on line {}: every \
                             thread wanting the lock waits behind it — take what you need \
                             out of the closure and call it after `with` returns",
                            s.text(k),
                            s.line(i)
                        ),
                    ));
                } else if s.is_with_call(k) || locking.iter().any(|f| s.calls(k, f)) {
                    found.push(s.finding(
                        k,
                        format!(
                            "`{}` takes a lock inside the lock scope of the `with` on line \
                             {}: nested lock scopes deadlock a mutex taken twice and form \
                             lock-order cycles",
                            s.text(k),
                            s.line(i)
                        ),
                    ));
                }
            }
        }
        for v in found {
            if !file.in_test_block(v.line) && !out.contains(&v) {
                out.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace's helper shape: the guard never leaves it.
    const HELPER: &str = "fn with<R>(m: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {\n\
                          \x20   f(&mut m.lock().unwrap_or_else(PoisonError::into_inner))\n}\n";

    fn run(src: &str) -> Vec<Violation> {
        let file = SourceFile::new("crates/x/src/lib.rs", src, FileKind::RustLibrary);
        let mut out = Vec::new();
        LockHygiene.check(&file, &mut out);
        out
    }

    /// The line of each finding.
    fn lines(src: &str) -> Vec<usize> {
        run(src).iter().map(|v| v.line).collect()
    }

    #[test]
    fn poison_recovering_acquisition_passes() {
        assert!(run(HELPER).is_empty(), "the helper is the one place a lock is taken");
    }

    #[test]
    fn io_read_write_calls_are_not_lock_acquisitions() {
        let src = "fn f(s: &mut TcpStream, buf: &mut [u8]) {\n\
                   \x20   let n = s.read(buf).unwrap_or(0);\n\
                   \x20   s.write_all(buf).ok();\n}\n";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   \x20   fn t(m: &Mutex<T>) { let g = m.lock(); std::thread::sleep(D); }\n\
                   \x20   fn u(m: &Mutex<T>) { with(m, |_| std::thread::sleep(D)); }\n}\n";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn guard_live_across_sleep_fires() {
        let src = "fn f(m: &Mutex<T>) {\n\
                   \x20   let g = m.lock().unwrap_or_else(|e| e.into_inner());\n\
                   \x20   std::thread::sleep(Duration::from_millis(5));\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 2, "reported at the acquisition");
        assert!(out[0].message.contains("outside a `with` helper"), "{out:?}");
        let path =
            "fn f(m: &Mutex<T>) -> u32 { *Mutex::lock(m).unwrap_or_else(|e| e.into_inner()) }";
        assert_eq!(lines(path), [1], "a `Mutex::lock` path call is an acquisition too");
    }

    #[test]
    fn free_lock_helper_counts_as_acquisition() {
        // Whatever the helper is called, its acquisition is seen.
        let lock_child = "fn lock_child(m: &Mutex<C>) -> MutexGuard<'_, C> {\n\
                          \x20   m.lock().unwrap_or_else(|e| e.into_inner())\n}\n";
        assert_eq!(lines(lock_child), [2]);
        // A `with` that hands its guard out defeats the construction.
        let leaky = "fn with(m: &Mutex<C>) -> MutexGuard<'_, C> {\n\
                     \x20   m.lock().unwrap_or_else(|e| e.into_inner())\n}\n";
        let out = run(leaky);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`MutexGuard`"), "{out:?}");
    }

    #[test]
    fn guard_dropped_before_blocking_passes() {
        let src = format!(
            "{HELPER}fn f(m: &Mutex<u32>, h: JoinHandle<()>) -> u32 {{\n\
             \x20   let v = with(m, |x| *x);\n\
             \x20   h.join().ok();\n\
             \x20   v\n}}\n"
        );
        assert!(run(&src).is_empty(), "got: {:?}", run(&src));
    }

    #[test]
    fn condvar_wait_with_a_held_guard_is_the_correct_idiom() {
        // The wait lives in the helper, which owns the guard.
        let src = "fn with<R>(m: &Mutex<S>, cv: &Condvar, mut f: impl FnMut(&mut S) -> Option<R>) \
                   -> R {\n\
                   \x20   let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   \x20   loop {\n\
                   \x20       if let Some(r) = f(&mut g) { return r; }\n\
                   \x20       g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);\n\
                   \x20   }\n}\n";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn statement_temporary_guards_do_not_bind_liveness() {
        let src = format!(
            "{HELPER}fn shutdown(m: &Mutex<Vec<JoinHandle<()>>>) {{\n\
             \x20   let handles: Vec<_> = with(m, |v| v.drain(..).collect());\n\
             \x20   for h in handles {{ h.join().ok(); }}\n}}\n"
        );
        assert!(run(&src).is_empty(), "got: {:?}", run(&src));
    }

    #[test]
    fn guard_moved_before_blocking_passes_without_a_literal_drop() {
        // The supervisor's shape: take the child out, kill it after.
        let src = format!(
            "{HELPER}fn recycle(m: &Mutex<Option<Child>>) {{\n\
             \x20   if let Some(mut child) = with(m, Option::take) {{\n\
             \x20       child.kill();\n\
             \x20   }}\n}}\n"
        );
        assert!(run(&src).is_empty(), "got: {:?}", run(&src));
    }

    #[test]
    fn guard_live_on_only_one_path_still_fires() {
        let src = format!(
            "{HELPER}fn f(m: &Mutex<u32>) {{\n\
             \x20   with(m, |x| {{\n\
             \x20       if cheap() {{ *x += 1; }} else {{ std::thread::sleep(D); }}\n\
             \x20   }});\n}}\n"
        );
        let out = run(&src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 6, "reported at the blocking call");
        assert!(out[0].message.contains("`sleep` blocks under the lock"), "{out:?}");
    }

    #[test]
    fn closure_bodies_are_not_charged_to_the_enclosing_fn() {
        // Only the closure passed to `with` runs under the lock.
        let src = format!(
            "{HELPER}fn f(m: &'static Mutex<u32>) {{\n\
             \x20   let h = spawn(move || with(m, |x| *x += 1));\n\
             \x20   h.join().ok();\n}}\n"
        );
        assert!(run(&src).is_empty(), "got: {:?}", run(&src));
    }

    #[test]
    fn blocking_fn_paths_passed_to_with_fire() {
        let src = format!(
            "{HELPER}fn reap(v: &mut Vec<JoinHandle<()>>) {{\n\
             \x20   for h in v.drain(..) {{ h.join().ok(); }}\n}}\n\
             fn f(m: &Mutex<Vec<JoinHandle<()>>>, c: &Mutex<Child>) {{\n\
             \x20   with(m, reap);\n\
             \x20   with(c, Child::kill);\n}}\n"
        );
        assert_eq!(lines(&src), [5, 9], "the same-file body, then the path itself");
    }

    #[test]
    fn opposite_orders_in_two_fns_form_a_cycle() {
        let src = format!(
            "{HELPER}fn ab(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {{\n\
             \x20   with(a, |x| with(b, |y| *x + *y))\n}}\n\
             fn ba(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {{\n\
             \x20   with(b, |y| with(a, |x| *x + *y))\n}}\n"
        );
        let out = run(&src);
        assert_eq!(out.iter().map(|v| v.line).collect::<Vec<_>>(), [5, 8], "{out:?}");
        assert!(out.iter().all(|v| v.message.contains("nested lock scopes")), "{out:?}");
    }

    #[test]
    fn reacquiring_a_held_lock_is_a_one_lock_cycle() {
        let src = format!(
            "{HELPER}fn f(m: &Mutex<u32>) {{\n    with(m, |_| with(m, |x| *x += 1));\n}}\n"
        );
        assert_eq!(lines(&src), [5]);
    }

    #[test]
    fn cycle_through_a_call_edge_is_found() {
        let src = format!(
            "{HELPER}fn peek(m: &Mutex<u32>) -> u32 {{ with(m, |x| *x) }}\n\
             impl S {{\n\
             \x20   fn total(&self) -> u32 {{ with(&self.a, |a| *a) }}\n\
             \x20   fn f(&self) -> u32 {{\n\
             \x20       with(&self.b, |b| *b + self.total())\n\
             \x20           + with(&self.b, |b| *b + Self::total(self))\n\
             \x20           + with(&self.b, |_| peek(&self.a))\n\
             \x20   }}\n}}\n"
        );
        assert_eq!(lines(&src), [8, 9, 10], "`self.f(`, `Self::f(` and a free `f(`");
    }

    #[test]
    fn guard_released_before_second_acquisition_produces_no_edge() {
        // Sequential scopes do not nest, and a bare `drop(` is not the
        // file's lock-taking `Drop::drop` method.
        let src = format!(
            "{HELPER}fn f(a: &Mutex<u32>, b: &Mutex<Vec<P>>) -> u32 {{\n\
             \x20   let x = with(a, |x| *x);\n\
             \x20   with(b, |v| drop(v.pop()));\n\
             \x20   x + with(a, |y| *y)\n}}\n\
             impl Drop for P {{\n\
             \x20   fn drop(&mut self) {{ with(&self.gate, |n| *n -= 1); }}\n}}\n"
        );
        assert!(run(&src).is_empty(), "got: {:?}", run(&src));
    }
}
