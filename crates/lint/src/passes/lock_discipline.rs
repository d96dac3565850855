//! Lock-discipline pass: lock-order inversions and guards held across
//! blocking calls.
//!
//! For every function in the workspace's crates the pass extracts its
//! lock-acquisition sequence — `.lock()`, and the zero-argument
//! `.read()`/`.write()` of `RwLock` — with a small scope model:
//!
//! - a `let guard = x.lock()` binding holds the lock until its block
//!   closes or an explicit `drop(guard)`;
//! - an un-bound `x.lock().y` temporary holds it to the end of the
//!   statement.
//!
//! Lock identity is the receiver chain with `self.` stripped (e.g.
//! `inner.shared`), scoped per crate. Acquiring `B` while `A` is held
//! adds the edge `A → B` to the crate's lock-order graph; a cycle in
//! that graph means two code paths can acquire the same pair of locks
//! in opposite orders — the classic ABBA deadlock, reported with one
//! witness site per edge.
//!
//! Separately, any blocking call — channel `send`/`recv`, socket
//! I/O, `thread::sleep` — made while a guard is held is reported:
//! holding a lock across a blocking call turns one slow peer into a
//! stalled lock for every thread behind it. (`Condvar::wait` is *not*
//! in the blocking set: handing a guard to a condvar is the one
//! legitimate hold-and-block.)

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use super::{all_crates, crate_sources, push_unless_waived, receiver_chain};
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::scan::SourceFile;

const PASS: &str = "lock_discipline";

/// Calls that can block the calling thread indefinitely (or for a
/// scheduling quantum) while a guard is held.
const BLOCKING: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "write_all",
    "read_exact",
    "read_to_end",
    "flush",
    "accept",
    "connect",
    "connect_timeout",
    "sleep",
];

/// One `A → B` edge with its witness site.
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
    func: String,
}

/// Runs the pass over every crate under `root`.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for krate in all_crates(root) {
        let files = crate_sources(root, &krate);
        let mut edges: Vec<Edge> = Vec::new();
        for sf in &files {
            scan_file(sf, &mut edges, &mut out);
        }
        report_cycles(&krate, &edges, &mut out);
    }
    out
}

/// A held guard.
struct Guard {
    lock: String,
    /// Variable name for `let`-bound guards (released by `drop(var)`).
    var: Option<String>,
    /// Brace depth (relative to the function body) it was acquired at;
    /// released when the block at this depth closes.
    depth: i32,
    /// Un-bound temporaries die at the next `;` at their depth.
    temporary: bool,
    line: u32,
}

fn scan_file(sf: &SourceFile, edges: &mut Vec<Edge>, out: &mut Vec<Finding>) {
    let toks = &sf.tokens;
    for func in &sf.fns {
        if sf.in_test_code(func.body.start) {
            continue;
        }
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 0i32;
        let mut i = func.body.start;
        while i < func.body.end {
            let t = &toks[i];
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => depth += 1,
                (TokKind::Punct, "}") => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                (TokKind::Punct, ";") => {
                    guards.retain(|g| !(g.temporary && g.depth == depth));
                }
                // `drop ( var )` releases a named guard early.
                (TokKind::Ident, "drop") if toks.get(i + 1).is_some_and(|t| t.text == "(") => {
                    if let Some(v) = toks.get(i + 2) {
                        if v.kind == TokKind::Ident
                            && toks.get(i + 3).is_some_and(|t| t.text == ")")
                        {
                            guards.retain(|g| g.var.as_deref() != Some(v.text.as_str()));
                        }
                    }
                }
                // `. lock ( )` / `. read ( )` / `. write ( )` — the
                // zero-argument forms only, so `stream.read(&mut buf)`
                // (io::Read) never matches.
                (TokKind::Punct, ".") => {
                    let is_acquire = toks.get(i + 1).is_some_and(|m| {
                        m.kind == TokKind::Ident
                            && matches!(m.text.as_str(), "lock" | "read" | "write")
                    }) && toks.get(i + 2).is_some_and(|t| t.text == "(")
                        && toks.get(i + 3).is_some_and(|t| t.text == ")");
                    if is_acquire {
                        if let Some(lock) = receiver_chain(toks, i) {
                            let line = toks[i + 1].line;
                            for held in &guards {
                                if held.lock != lock {
                                    edges.push(Edge {
                                        from: held.lock.clone(),
                                        to: lock.clone(),
                                        file: sf.path.clone(),
                                        line,
                                        func: func.qual_name.clone(),
                                    });
                                }
                            }
                            let (var, temporary) = binding_of(sf, i);
                            guards.push(Guard {
                                lock,
                                var,
                                depth,
                                temporary,
                                line,
                            });
                            i += 4;
                            continue;
                        }
                    }
                    // Blocking method call while any guard is held.
                    if let Some(m) = toks.get(i + 1) {
                        if m.kind == TokKind::Ident
                            && BLOCKING.contains(&m.text.as_str())
                            && toks.get(i + 2).is_some_and(|t| t.text == "(")
                        {
                            for g in &guards {
                                push_unless_waived(
                                    out,
                                    sf,
                                    Finding {
                                        pass: PASS,
                                        file: sf.path.clone(),
                                        line: m.line,
                                        kind: "blocking-under-lock",
                                        detail: format!(
                                            "{} holds `{}` across .{}()",
                                            func.qual_name, g.lock, m.text
                                        ),
                                        message: format!(
                                            "`{}` holds lock `{}` (acquired line {}) across \
                                             blocking call `.{}()`; release the guard first",
                                            func.qual_name, g.lock, g.line, m.text
                                        ),
                                    },
                                );
                            }
                        }
                    }
                }
                // Path-call blocking: `thread :: sleep (`.
                (TokKind::Ident, "sleep") => {
                    let is_path = i
                        .checked_sub(1)
                        .and_then(|k| toks.get(k))
                        .is_some_and(|t| t.text == ":");
                    if is_path && toks.get(i + 1).is_some_and(|t| t.text == "(") {
                        for g in &guards {
                            push_unless_waived(
                                out,
                                sf,
                                Finding {
                                    pass: PASS,
                                    file: sf.path.clone(),
                                    line: t.line,
                                    kind: "blocking-under-lock",
                                    detail: format!(
                                        "{} holds `{}` across thread::sleep",
                                        func.qual_name, g.lock
                                    ),
                                    message: format!(
                                        "`{}` holds lock `{}` (acquired line {}) across \
                                         `thread::sleep`; release the guard first",
                                        func.qual_name, g.lock, g.line
                                    ),
                                },
                            );
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Whether the acquisition whose `.` is at `dot` is `let`-bound, and to
/// which variable: scans back across the receiver chain for
/// `let [mut] var =`.
fn binding_of(sf: &SourceFile, dot: usize) -> (Option<String>, bool) {
    let toks = &sf.tokens;
    // Walk back over the receiver chain (idents and dots).
    let mut j = dot;
    while j > 0 {
        let prev = &toks[j - 1];
        if prev.kind == TokKind::Ident || prev.text == "." {
            j -= 1;
        } else {
            break;
        }
    }
    // Expect `var = receiver…`. Both `let g = …` and re-assignment
    // `g = …` hold for the enclosing block; the variable name is what
    // `drop(g)` releases.
    if j == 0 || toks[j - 1].text != "=" {
        return (None, true);
    }
    match (j - 1).checked_sub(1).map(|x| &toks[x]) {
        Some(v) if v.kind == TokKind::Ident => (Some(v.text.clone()), false),
        _ => (None, true),
    }
}

/// Strongly-connected components of the lock-order graph; any SCC with
/// more than one lock (or a self-edge) is an inversion cycle.
fn report_cycles(krate: &str, edges: &[Edge], out: &mut Vec<Finding>) {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
        adj.entry(e.to.as_str()).or_default();
    }
    // Reachability by DFS from every node (graphs here are tiny).
    let reach = |start: &str| -> BTreeSet<&str> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if let Some(next) = adj.get(n) {
                for m in next {
                    if seen.insert(m) {
                        stack.push(m);
                    }
                }
            }
        }
        seen
    };
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let reachable: BTreeMap<&str, BTreeSet<&str>> = nodes.iter().map(|n| (*n, reach(n))).collect();

    let mut reported: BTreeSet<Vec<&str>> = BTreeSet::new();
    for n in &nodes {
        // `n` is on a cycle iff it reaches itself.
        if !reachable[n].contains(n) {
            continue;
        }
        let mut scc: Vec<&str> = nodes
            .iter()
            .copied()
            .filter(|m| reachable[n].contains(m) && reachable[m].contains(n))
            .collect();
        scc.sort_unstable();
        if !reported.insert(scc.clone()) {
            continue;
        }
        // Witness: the first edge inside the SCC, by file/line.
        let mut witnesses: Vec<&Edge> = edges
            .iter()
            .filter(|e| scc.contains(&e.from.as_str()) && scc.contains(&e.to.as_str()))
            .collect();
        witnesses.sort_by_key(|e| (&e.file, e.line));
        let sites: Vec<String> = witnesses
            .iter()
            .map(|e| {
                format!(
                    "{} → {} in `{}` ({}:{})",
                    e.from, e.to, e.func, e.file, e.line
                )
            })
            .collect();
        let first = witnesses.first().expect("cycle has at least one edge");
        out.push(Finding {
            pass: PASS,
            file: first.file.clone(),
            line: first.line,
            kind: "lock-cycle",
            detail: format!("{krate}: {}", scc.join(" ⇄ ")),
            message: format!(
                "lock-order inversion cycle across functions in crate `{krate}`: {}",
                sites.join("; ")
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_src(src: &str) -> (Vec<Edge>, Vec<Finding>) {
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        let mut edges = Vec::new();
        let mut out = Vec::new();
        scan_file(&sf, &mut edges, &mut out);
        (edges, out)
    }

    #[test]
    fn abba_cycle_is_reported() {
        let src = "
            fn ab(&self) { let a = self.m1.lock(); let b = self.m2.lock(); }
            fn ba(&self) { let b = self.m2.lock(); let a = self.m1.lock(); }
        ";
        let (edges, mut out) = run_src(src);
        assert_eq!(edges.len(), 2);
        report_cycles("x", &edges, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, "lock-cycle");
        assert!(out[0].detail.contains("m1"));
        assert!(out[0].detail.contains("m2"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "
            fn ab(&self) { let a = self.m1.lock(); let b = self.m2.lock(); }
            fn also_ab(&self) { let a = self.m1.lock(); let b = self.m2.lock(); }
        ";
        let (edges, mut out) = run_src(src);
        report_cycles("x", &edges, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn guard_across_send_is_reported_and_drop_releases() {
        let src = "
            fn bad(&self) { let g = self.state.lock(); self.tx.send(1); }
            fn good(&self) { let g = self.state.lock(); drop(g); self.tx.send(1); }
        ";
        let (_, out) = run_src(src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, "blocking-under-lock");
        assert!(out[0].detail.contains("bad"));
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn ok(&self) { self.state.lock().push(1); self.tx.send(1); }";
        let (_, out) = run_src(src);
        assert!(out.is_empty(), "unexpected: {out:?}");
    }

    #[test]
    fn block_scope_releases_let_guards() {
        let src = "fn ok(&self) { { let g = self.state.lock(); g.bump(); } self.tx.send(1); }";
        let (_, out) = run_src(src);
        assert!(out.is_empty(), "unexpected: {out:?}");
    }

    #[test]
    fn io_read_with_args_is_not_an_acquisition() {
        let src = "fn pump(&self) { self.stream.read(&mut self.buf); }";
        let (edges, out) = run_src(src);
        assert!(edges.is_empty());
        assert!(out.is_empty());
    }
}
