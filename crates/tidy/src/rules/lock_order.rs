//! Rule `lock-order-cycle`: the workspace-wide lock-acquisition order
//! must be acyclic.
//!
//! Two threads that take the same pair of locks in opposite orders can
//! each hold one and block forever on the other — the classic deadlock
//! the serve admission gate, response cache, and metrics registry could
//! construct between them. This rule extracts, per function, the
//! ordered pairs "lock *a* is still held when lock *b* is acquired"
//! using the same CFG liveness dataflow as `lock-hygiene` (so a guard
//! released on every path to the second acquisition produces no
//! pair), propagates acquisition sets through the crate's resolved
//! call edges (holding *a* across a call into a function that may
//! take *b* also orders *a* before *b*), and flags every strongly
//! connected component of the resulting lock-order graph.
//!
//! Lock identity is the last field or binding name at the acquisition
//! site (`self.queue.lock()` and `lock(&pool.queue)` both identify
//! `queue`), which makes the analysis heuristic but deterministic:
//! identically named locks unify across functions. Closure bodies are
//! outside the enclosing function's CFG, so acquisitions inside them
//! are charged to nobody (a spawned closure runs on its own schedule,
//! where this function's guards are not held). Re-acquiring a lock
//! while it is already held is reported too (a one-lock cycle): with
//! `std::sync::Mutex` that deadlocks a single thread on its own.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;

use crate::calls::{crate_of, CrateIndex, FnRef};
use crate::cfg;
use crate::lexer::TokenKind;
use crate::rules::lock_hygiene::{guard_facts, is_guard_acquisition, live_facts_at};
use crate::symbols::Workspace;
use crate::{SourceFile, Violation, WorkspaceLint};

/// See the module docs.
pub struct LockOrderCycle;

impl WorkspaceLint for LockOrderCycle {
    fn name(&self) -> &'static str {
        "lock-order-cycle"
    }

    fn explain(&self) -> &'static str {
        "Every pair of locks must be acquired in one global order. Two \
         threads taking the same two locks in opposite orders can each \
         hold one and block forever on the other. The rule derives \
         per-function orderings (lock `a` still held — by CFG liveness — \
         when lock `b` is acquired), propagates lock-acquisition sets \
         through resolved call edges within each crate, and reports every \
         cycle in the combined lock-order graph, including the one-lock \
         cycle of re-acquiring a non-reentrant mutex that is already \
         held. Lock identity is the field or binding name at the \
         acquisition site, so identically named locks unify across \
         functions. Break a cycle by acquiring the locks in one agreed \
         order everywhere, or by narrowing a guard's scope so it is \
         released before the second acquisition."
    }

    fn check(&self, ws: &Workspace<'_>, out: &mut Vec<Violation>) {
        let mut crates: Vec<&str> = ws.files.iter().filter_map(crate_of).collect();
        crates.sort_unstable();
        crates.dedup();
        for name in crates {
            check_crate(ws, name, out);
        }
    }
}

/// One directed ordering edge `from-lock → to-lock`, with the first
/// site that witnessed it.
struct Edge {
    file: PathBuf,
    line: usize,
}

fn check_crate(ws: &Workspace<'_>, crate_name: &str, out: &mut Vec<Violation>) {
    let idx = CrateIndex::build(ws, crate_name);
    let fns = idx.all_fns();
    // Per function: the locks it may directly acquire, its resolved
    // call edges, and the direct ordering edges its body witnesses.
    let mut direct: HashMap<FnRef, BTreeSet<String>> = HashMap::new();
    let mut callees: HashMap<FnRef, Vec<(usize, FnRef)>> = HashMap::new();
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    // Held-lock sets at call sites, resolved against the callee's
    // transitive acquisitions after the fixpoint below.
    let mut held_at_calls: Vec<(FnRef, usize, Vec<String>)> = Vec::new();

    for &fref in &fns {
        let info = idx.fn_info(fref);
        let Some(body) = info.body else { continue };
        let file = &ws.files[fref.file];
        if file.in_test_block(info.line) {
            continue;
        }
        let graph = cfg::build(file, body);
        // Acquisition sites inside the function's own CFG (closure
        // bodies are excised, so their acquisitions do not count).
        let acq_sites: Vec<usize> = (body.0 + 1..body.1.min(file.tokens().len()))
            .filter(|&k| is_guard_acquisition(file, k))
            .filter(|&k| graph.block_of(k).is_some())
            .filter(|&k| !file.in_test_block(file.tokens()[k].line))
            .collect();
        let ids: Vec<Option<String>> =
            acq_sites.iter().map(|&k| lock_identity(file, k)).collect();
        direct.insert(
            fref,
            acq_sites
                .iter()
                .zip(&ids)
                .filter_map(|(_, id)| id.clone())
                .collect::<BTreeSet<_>>(),
        );
        let calls: Vec<(usize, FnRef)> = idx
            .resolve_calls(ws, fref)
            .into_iter()
            .filter(|c| graph.block_of(c.site).is_some())
            .map(|c| (c.site, c.callee))
            .collect();

        let facts = guard_facts(file, body);
        if !facts.is_empty() {
            let mut sites: Vec<usize> = acq_sites.clone();
            sites.extend(calls.iter().map(|&(s, _)| s));
            let live = live_facts_at(file, &graph, &facts, &sites);
            // Direct ordering edges: fact A live at the acquisition of B.
            for (&site, id) in acq_sites.iter().zip(&ids) {
                let Some(to) = id else { continue };
                for &fi in live.get(&site).map(Vec::as_slice).unwrap_or(&[]) {
                    let Some(from) = lock_identity(file, facts[fi].acq) else { continue };
                    edges.entry((from, to.clone())).or_insert_with(|| Edge {
                        file: file.path.clone(),
                        line: file.tokens()[site].line,
                    });
                }
            }
            // Held sets at call sites, for the propagation pass.
            for &(site, _callee) in &calls {
                let held: Vec<String> = live
                    .get(&site)
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|&fi| lock_identity(file, facts[fi].acq))
                    .collect();
                if !held.is_empty() {
                    held_at_calls.push((fref, site, held));
                }
            }
        }
        callees.insert(fref, calls);
    }

    // Transitive acquisition sets to fixpoint over the call graph.
    let mut acquires: HashMap<FnRef, BTreeSet<String>> = direct.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for &fref in &fns {
            let mut merged: BTreeSet<String> = match acquires.get(&fref) {
                Some(s) => s.clone(),
                None => BTreeSet::new(),
            };
            let before = merged.len();
            for &(_, callee) in callees.get(&fref).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(cs) = acquires.get(&callee) {
                    merged.extend(cs.iter().cloned());
                }
            }
            if merged.len() != before {
                acquires.insert(fref, merged);
                changed = true;
            }
        }
    }

    // Call-propagated edges: lock held across a call orders it before
    // everything the callee may acquire.
    for (fref, site, held) in &held_at_calls {
        let file = &ws.files[fref.file];
        let line = file.tokens()[*site].line;
        let mut targets: BTreeSet<String> = BTreeSet::new();
        for &(s, callee) in callees.get(fref).map(Vec::as_slice).unwrap_or(&[]) {
            if s == *site {
                if let Some(a) = acquires.get(&callee) {
                    targets.extend(a.iter().cloned());
                }
            }
        }
        for from in held {
            for to in &targets {
                edges
                    .entry((from.clone(), to.clone()))
                    .or_insert_with(|| Edge { file: file.path.clone(), line });
            }
        }
    }

    report_cycles(crate_name, &edges, out);
}

/// The lock identity at an acquisition ident: the last field/binding
/// name of the receiver for `recv.lock()`-style methods, or the last
/// ident of the arguments for `lock(&x.y)`-style helper calls.
fn lock_identity(file: &SourceFile, acq: usize) -> Option<String> {
    let tokens = file.tokens();
    let prev = tokens[..acq].iter().rposition(|t| !t.is_comment());
    let is_method = prev
        .map(|p| tokens[p].kind == TokenKind::Punct && file.text(&tokens[p]) == ".")
        .unwrap_or(false);
    if is_method {
        // `a.b.lock()` → `b`; call-result receivers are anonymous.
        let recv = tokens[..prev?].iter().rposition(|t| !t.is_comment())?;
        let t = &tokens[recv];
        (t.kind == TokenKind::Ident).then(|| file.text(t).to_string())
    } else {
        // `lock(&self.queue)` → `queue`: last ident inside the parens.
        let open = (acq + 1..tokens.len()).find(|&k| !tokens[k].is_comment())?;
        if !(tokens[open].kind == TokenKind::Punct && file.text(&tokens[open]) == "(") {
            return None;
        }
        let mut depth = 0i64;
        let mut last = None;
        for k in open..tokens.len() {
            let t = &tokens[k];
            if t.kind == TokenKind::Punct {
                match file.text(t) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if t.kind == TokenKind::Ident {
                last = Some(file.text(t).to_string());
            }
        }
        last
    }
}

/// Finds strongly connected components of the lock-order graph and
/// reports one violation per cyclic SCC, anchored at its
/// lexicographically smallest lock.
fn report_cycles(
    crate_name: &str,
    edges: &BTreeMap<(String, String), Edge>,
    out: &mut Vec<Violation>,
) {
    let mut nodes: Vec<&str> = Vec::new();
    for (a, b) in edges.keys() {
        nodes.push(a);
        nodes.push(b);
    }
    nodes.sort_unstable();
    nodes.dedup();
    let id: HashMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in edges.keys() {
        adj[id[a.as_str()]].push(id[b.as_str()]);
    }
    for scc in tarjan(&adj) {
        let cyclic = scc.len() > 1
            || scc.first().map(|&n| adj[n].contains(&n)).unwrap_or(false);
        if !cyclic {
            continue;
        }
        let mut names: Vec<&str> = scc.iter().map(|&n| nodes[n]).collect();
        names.sort_unstable();
        let anchor = names[0];
        // Witness: the recorded edge leaving the anchor inside the SCC
        // with the smallest target (BTreeMap order makes this stable).
        let witness = edges
            .iter()
            .find(|((a, b), _)| a == anchor && names.contains(&b.as_str()));
        let Some(((_, to), site)) = witness else { continue };
        out.push(Violation {
            file: site.file.clone(),
            line: site.line,
            rule: "lock-order-cycle",
            resolution: "cfg",
            message: format!(
                "locks {{{}}} in crate `{crate_name}` form an acquisition-order \
                 cycle (here `{anchor}` is held while `{to}` is acquired); two \
                 threads interleaving these orders deadlock — acquire them in \
                 one agreed order everywhere",
                names.join(", ")
            ),
        });
    }
}

/// Iterative Tarjan SCC over an adjacency list; returns components in
/// a deterministic order.
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;
    // Explicit DFS stack: (node, next child position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        loop {
            let Some(&(v, ci)) = work.last() else { break };
            if ci == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            match adj[v].get(ci) {
                Some(&w) => {
                    if let Some(top) = work.last_mut() {
                        top.1 += 1;
                    }
                    if index[w] == usize::MAX {
                        work.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                }
                None => {
                    // All children done: close v.
                    work.pop();
                    if let Some(&(p, _)) = work.last() {
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut scc = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        scc.sort_unstable();
                        sccs.push(scc);
                    }
                }
            }
        }
    }
    sccs.sort();
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileKind;

    fn run(srcs: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::new(*p, *s, FileKind::RustLibrary))
            .collect();
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        LockOrderCycle.check(&ws, &mut out);
        out
    }

    #[test]
    fn opposite_orders_in_two_fns_form_a_cycle() {
        let src = "\
pub fn ab(a: &Mutex<T>, b: &Mutex<T>) {
    let ga = lock(a);
    let gb = lock(b);
    use_both(&ga, &gb);
}
pub fn ba(a: &Mutex<T>, b: &Mutex<T>) {
    let gb = lock(b);
    let ga = lock(a);
    use_both(&ga, &gb);
}
";
        let out = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("a, b"), "{}", out[0].message);
        assert_eq!(out[0].resolution, "cfg");
    }

    #[test]
    fn consistent_order_everywhere_passes() {
        let src = "\
pub fn one(a: &Mutex<T>, b: &Mutex<T>) {
    let ga = lock(a);
    let gb = lock(b);
    use_both(&ga, &gb);
}
pub fn two(a: &Mutex<T>, b: &Mutex<T>) {
    let ga = lock(a);
    let gb = lock(b);
    use_both(&ga, &gb);
}
";
        assert!(run(&[("crates/x/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn guard_released_before_second_acquisition_produces_no_edge() {
        let src = "\
pub fn ab(a: &Mutex<T>, b: &Mutex<T>) {
    let ga = lock(a);
    consume(ga);
    let gb = lock(b);
    touch(&gb);
}
pub fn ba(a: &Mutex<T>, b: &Mutex<T>) {
    let gb = lock(b);
    consume(gb);
    let ga = lock(a);
    touch(&ga);
}
";
        assert!(
            run(&[("crates/x/src/lib.rs", src)]).is_empty(),
            "released guards order nothing"
        );
    }

    #[test]
    fn cycle_through_a_call_edge_is_found() {
        // `outer` holds `a` across a call into `inner`, which takes
        // `b`; `other` orders `b` before `a` directly.
        let src = "\
pub fn outer(a: &Mutex<T>, b: &Mutex<T>) {
    let ga = lock(a);
    inner(b);
    touch(&ga);
}
fn inner(b: &Mutex<T>) {
    let gb = lock(b);
    touch(&gb);
}
pub fn other(a: &Mutex<T>, b: &Mutex<T>) {
    let gb = lock(b);
    let ga = lock(a);
    use_both(&ga, &gb);
}
";
        let out = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn reacquiring_a_held_lock_is_a_one_lock_cycle() {
        let src = "\
pub fn twice(m: &Mutex<T>) {
    let g1 = lock(m);
    let g2 = lock(m);
    use_both(&g1, &g2);
}
";
        let out = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`m`") || out[0].message.contains("{m}"));
    }

    #[test]
    fn field_identities_unify_across_methods() {
        let src = "\
pub struct S { queue: Mutex<Q>, stats: Mutex<St> }
impl S {
    pub fn fwd(&self) {
        let q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let s = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        use_both(&q, &s);
    }
    pub fn rev(&self) {
        let s = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        let q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        use_both(&q, &s);
    }
}
";
        let out = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("queue, stats"), "{}", out[0].message);
    }
}
