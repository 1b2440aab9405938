//! Lock-order and blocking-under-lock passes (DESIGN.md §13).
//!
//! Both passes share one model of guard lifetimes built from the parser's
//! lock extraction:
//!
//! * a **let-bound** guard (`let g = m.lock()`) is live from its
//!   acquisition line to the end of the enclosing function, or to an
//!   explicit `drop(g)` — statement granularity, over-approximate by
//!   design;
//! * a **temporary** guard (`m.lock().field = x`) lives only on its own
//!   line;
//! * a **guard-returning function** (any `*Guard` in the signature, e.g.
//!   `batch::recover`, `obs::sink::lock`) has no local extents: its
//!   acquisitions escape and are mapped onto each call site, identified
//!   by the first lock-binding argument (`recover(&self.state)` acquires
//!   `state`) or, for argument-less wrappers, by the callee's own
//!   escaping set (`lock()` acquires `SINK`).
//!
//! While a guard is live, every call edge inside its extent is walked
//! (BFS, test functions excluded). A second acquisition reached this way
//! adds an acquired-while-held edge (same lock: **same-lock re-entry**,
//! an immediate error); a blocking operation reached this way is a
//! **lock-blocking** finding. Cycles in the acquired-while-held graph are
//! **lock-order** errors. `lock-order` findings are never allowlistable;
//! `lock-blocking` findings are (intentional `Condvar::wait` coalescing
//! needs a justified `xtask/lint.allow` entry).

use crate::callgraph::{Graph, SourceFile, Workspace};
use crate::parser::LockKind;
use crate::rules::{Finding, Severity, WitnessStep};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// One lock acquisition attributed to a function: a direct
/// `.lock()`/`.read()`/`.write()` on a known binding, or a call to a
/// guard-returning function mapped back to the lock it acquires.
#[derive(Clone)]
struct Acq {
    /// Lock identity: `crate::binding` of the declaring file.
    lock: String,
    /// 0-based acquisition line (the call site for mapped acquisitions).
    line: usize,
    /// Let-bound guard name; `None` = a temporary dying in its statement.
    guard: Option<String>,
    /// Direct acquisition method; `None` for guard-returning call sites.
    kind: Option<LockKind>,
}

/// Per-node acquisition events. Empty for test fns and guard-returning
/// fns (whose acquisitions escape to their callers).
struct Model {
    acqs: Vec<Vec<Acq>>,
}

/// Output of both passes plus their wall-times for `BENCH_lint.json`.
pub struct LockReport {
    pub lock_order: Vec<Finding>,
    pub blocking: Vec<Finding>,
    /// Includes the shared guard-lifetime model build.
    pub order_nanos: u128,
    pub blocking_nanos: u128,
}

fn lock_id(file: &SourceFile, binding: &str) -> String {
    format!("{}::{}", file.crate_name, binding)
}

/// Escaping lock sets for guard-returning fns: direct acquisitions plus,
/// by fixpoint, the escaping sets of guard-returning callees (wrappers of
/// wrappers).
fn escapes(ws: &Workspace, g: &Graph) -> BTreeMap<usize, BTreeSet<String>> {
    let mut esc: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for n in 0..g.nodes.len() {
        let item = g.item(ws, n);
        if !item.ret_guard {
            continue;
        }
        let file = &ws.files[g.nodes[n].file];
        esc.insert(n, item.lock_sites.iter().map(|s| lock_id(file, &s.binding)).collect());
    }
    loop {
        let mut changed = false;
        let keys: Vec<usize> = esc.keys().copied().collect();
        for n in keys {
            let mut add = BTreeSet::new();
            for e in &g.edges[n] {
                if e.callee != n {
                    if let Some(callee_esc) = esc.get(&e.callee) {
                        add.extend(callee_esc.iter().cloned());
                    }
                }
            }
            let s = esc.get_mut(&n).expect("key from esc");
            let before = s.len();
            s.extend(add);
            changed |= s.len() > before;
        }
        if !changed {
            return esc;
        }
    }
}

fn model(ws: &Workspace, g: &Graph) -> Model {
    let esc = escapes(ws, g);
    let mut acqs = Vec::with_capacity(g.nodes.len());
    for n in 0..g.nodes.len() {
        let item = g.item(ws, n);
        if item.in_test || item.ret_guard {
            acqs.push(Vec::new());
            continue;
        }
        let file = &ws.files[g.nodes[n].file];
        let mut v: Vec<Acq> = item
            .lock_sites
            .iter()
            .map(|s| Acq {
                lock: lock_id(file, &s.binding),
                line: s.line,
                guard: s.guard.clone(),
                kind: Some(s.kind),
            })
            .collect();
        for e in &g.edges[n] {
            let Some(callee_esc) = esc.get(&e.callee) else { continue };
            if callee_esc.is_empty() {
                continue;
            }
            // Recover the parsed call for its argument/binding info; the
            // edge only knows the resolved target and the call line.
            let callee_name = g.item(ws, e.callee).name.as_str();
            let call = item.calls.iter().chain(item.method_calls.iter()).find(|c| {
                c.line == e.line && c.segments.last().map(String::as_str) == Some(callee_name)
            });
            let (guard, arg_lock) = match call {
                Some(c) => (
                    c.bound.clone(),
                    c.args
                        .iter()
                        .find(|a| {
                            [true, false].into_iter().any(|field| {
                                file.parsed.heads(a, field).is_some_and(|h| {
                                    h.iter().any(|t| matches!(t.as_str(), "Mutex" | "RwLock"))
                                })
                            })
                        })
                        .cloned(),
                ),
                None => (None, None),
            };
            match arg_lock {
                // `recover(&self.state)` — the caller-side binding names
                // the lock precisely.
                Some(b) => v.push(Acq { lock: lock_id(file, &b), line: e.line, guard, kind: None }),
                // `lock()` — fall back to everything the callee may
                // return a guard for.
                None => {
                    for l in callee_esc {
                        v.push(Acq {
                            lock: l.clone(),
                            line: e.line,
                            guard: guard.clone(),
                            kind: None,
                        });
                    }
                }
            }
        }
        acqs.push(v);
    }
    Model { acqs }
}

/// An acquired-while-held edge's representative witness.
struct EdgeWit {
    path: String,
    /// 1-based line of the second acquisition.
    line: usize,
    key: String,
    via: String,
    witness: Vec<WitnessStep>,
}

struct Sweep {
    order_edges: BTreeMap<(String, String), EdgeWit>,
    reentry: Vec<Finding>,
    blocking: Vec<Finding>,
}

fn trimmed_line(file: &SourceFile, line: usize) -> String {
    file.masked.raw_lines.get(line).map(|l| l.trim().to_string()).unwrap_or_default()
}

fn sweep(ws: &Workspace, g: &Graph, m: &Model) -> Sweep {
    let mut out = Sweep { order_edges: BTreeMap::new(), reentry: Vec::new(), blocking: Vec::new() };
    let mut seen_reentry: BTreeSet<(String, String, usize)> = BTreeSet::new();
    let mut seen_blocking: BTreeSet<(String, usize, String, String)> = BTreeSet::new();

    for owner in 0..g.nodes.len() {
        let item = g.item(ws, owner);
        if item.in_test || item.ret_guard || m.acqs[owner].is_empty() {
            continue;
        }
        let owner_file = &ws.files[g.nodes[owner].file];
        let owner_path = owner_file.path.clone();
        let owner_q = g.nodes[owner].qualified.clone();

        for acq in &m.acqs[owner] {
            // Guard extent: let-bound guards sweep to the fn end (or an
            // explicit `drop(g)`); temporaries cover their own line only.
            let (sweep_calls, lo, hi) = match &acq.guard {
                Some(gname) => {
                    let mut end = item.end_line;
                    for c in &item.calls {
                        if c.segments.last().map(String::as_str) == Some("drop")
                            && c.line > acq.line
                            && c.args.iter().any(|a| a == gname)
                        {
                            end = end.min(c.line);
                        }
                    }
                    (true, acq.line, end)
                }
                None => (false, acq.line, acq.line),
            };
            // Statement granularity: the acquiring line itself is in the
            // extent (one-liners like `let g = m.lock(); s.send();` are
            // common), but acquisition *events* only pair when strictly
            // later — two acquisitions in one statement have no
            // established order, and a mapped acquisition must not pair
            // with its own call site.
            let in_extent = |l: usize| if sweep_calls { l >= lo && l <= hi } else { l == lo };

            let step = |n: usize, line: usize| WitnessStep {
                qualified: g.nodes[n].qualified.clone(),
                path: g.path(ws, n).to_string(),
                line,
            };
            // Witness: owner at the acquisition, call chain, then the
            // function containing the offending site at that site's line.
            let chain = |parent: &BTreeMap<usize, Option<usize>>, node: usize, site_line: usize| {
                let mut steps = vec![step(owner, acq.line + 1)];
                if node == owner {
                    steps.push(step(owner, site_line + 1));
                } else {
                    let mut rev = vec![];
                    let mut cur = node;
                    while cur != owner {
                        rev.push(cur);
                        cur = parent.get(&cur).copied().flatten().expect("chain reaches owner");
                    }
                    rev.reverse();
                    for (k, &i) in rev.iter().enumerate() {
                        let line =
                            if k == rev.len() - 1 { site_line + 1 } else { g.item(ws, i).line + 1 };
                        steps.push(step(i, line));
                    }
                }
                steps
            };

            let emit_blocking =
                |site_node: usize,
                 op: &str,
                 condvar: bool,
                 site_line: usize,
                 parent: &BTreeMap<usize, Option<usize>>,
                 out: &mut Sweep,
                 seen: &mut BTreeSet<(String, usize, String, String)>| {
                    let site_file = &ws.files[g.nodes[site_node].file];
                    let dedup =
                        (site_file.path.clone(), site_line, op.to_string(), acq.lock.clone());
                    if !seen.insert(dedup) {
                        return;
                    }
                    let message = if condvar {
                        format!(
                            "`{op}` parks the thread while `{}` is held (acquired in `{owner_q}` \
                         at {owner_path}:{}); the wait releases the guard atomically — \
                         allowlist with a justification if the batching is intentional",
                            acq.lock,
                            acq.line + 1
                        )
                    } else {
                        format!(
                            "blocking `{op}` while `{}` is held (acquired in `{owner_q}` at \
                         {owner_path}:{}) — buffer under the lock and perform the \
                         operation outside the critical section",
                            acq.lock,
                            acq.line + 1
                        )
                    };
                    out.blocking.push(Finding {
                        rule: "lock-blocking",
                        path: site_file.path.clone(),
                        line: site_line + 1,
                        key: trimmed_line(site_file, site_line),
                        message,
                        severity: Severity::Error,
                        witness: chain(parent, site_node, site_line),
                    });
                };

            let emit_acq =
                |site_node: usize,
                 other: &Acq,
                 parent: &BTreeMap<usize, Option<usize>>,
                 out: &mut Sweep,
                 seen: &mut BTreeSet<(String, String, usize)>| {
                    let site_file = &ws.files[g.nodes[site_node].file];
                    if other.lock == acq.lock {
                        if !seen.insert((acq.lock.clone(), site_file.path.clone(), other.line)) {
                            return;
                        }
                        out.reentry.push(Finding {
                            rule: "lock-order",
                            path: site_file.path.clone(),
                            line: other.line + 1,
                            key: trimmed_line(site_file, other.line),
                            message: format!(
                                "same-lock re-entry: `{}` is already held (acquired in \
                             `{owner_q}` at {owner_path}:{}) when re-acquired{} — a std \
                             Mutex/RwLock self-deadlocks",
                                acq.lock,
                                acq.line + 1,
                                other
                                    .kind
                                    .map(|k| format!(" via `.{}()`", k.label()))
                                    .unwrap_or_default()
                            ),
                            severity: Severity::Error,
                            witness: chain(parent, site_node, other.line),
                        });
                    } else {
                        out.order_edges
                            .entry((acq.lock.clone(), other.lock.clone()))
                            .or_insert_with(|| EdgeWit {
                                path: site_file.path.clone(),
                                line: other.line + 1,
                                key: trimmed_line(site_file, other.line),
                                via: owner_q.clone(),
                                witness: chain(parent, site_node, other.line),
                            });
                    }
                };

            let empty_parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
            // Direct blocking sites of the owner inside the extent.
            for b in &item.blocking_sites {
                if in_extent(b.line) {
                    emit_blocking(
                        owner,
                        &b.op,
                        b.condvar_wait,
                        b.line,
                        &empty_parent,
                        &mut out,
                        &mut seen_blocking,
                    );
                }
            }
            if !sweep_calls {
                continue;
            }
            // Further acquisitions by the owner inside the extent.
            for other in &m.acqs[owner] {
                if other.line > acq.line && other.line <= hi {
                    emit_acq(owner, other, &empty_parent, &mut out, &mut seen_reentry);
                }
            }
            // Everything reachable through call edges inside the extent.
            let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
            parent.insert(owner, None);
            let mut queue = VecDeque::new();
            for e in &g.edges[owner] {
                if in_extent(e.line)
                    && !g.item(ws, e.callee).in_test
                    && !parent.contains_key(&e.callee)
                {
                    parent.insert(e.callee, Some(owner));
                    queue.push_back(e.callee);
                }
            }
            while let Some(x) = queue.pop_front() {
                let xi = g.item(ws, x);
                for b in &xi.blocking_sites {
                    emit_blocking(
                        x,
                        &b.op,
                        b.condvar_wait,
                        b.line,
                        &parent,
                        &mut out,
                        &mut seen_blocking,
                    );
                }
                for other in m.acqs[x].clone() {
                    emit_acq(x, &other, &parent, &mut out, &mut seen_reentry);
                }
                for e in &g.edges[x] {
                    if !parent.contains_key(&e.callee) && !g.item(ws, e.callee).in_test {
                        parent.insert(e.callee, Some(x));
                        queue.push_back(e.callee);
                    }
                }
            }
        }
    }
    out
}

/// Whether `from` reaches `to` in the acquired-while-held graph.
fn reaches(adj: &BTreeMap<&String, Vec<&String>>, from: &String, to: &String) -> bool {
    let mut seen: BTreeSet<&String> = BTreeSet::new();
    let mut queue = VecDeque::from([from]);
    while let Some(x) = queue.pop_front() {
        if x == to {
            return true;
        }
        if !seen.insert(x) {
            continue;
        }
        for &next in adj.get(x).into_iter().flatten() {
            queue.push_back(next);
        }
    }
    false
}

/// Run both passes over the workspace call graph.
pub fn run(ws: &Workspace, g: &Graph) -> LockReport {
    let t0 = Instant::now();
    let m = model(ws, g);
    let sw = sweep(ws, g, &m);

    // Lock-order findings: same-lock re-entry plus every edge that sits
    // on a cycle of the acquired-while-held graph.
    let mut lock_order = sw.reentry;
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (u, v) in sw.order_edges.keys() {
        adj.entry(u).or_default().push(v);
    }
    for ((u, v), w) in &sw.order_edges {
        if reaches(&adj, v, u) {
            lock_order.push(Finding {
                rule: "lock-order",
                path: w.path.clone(),
                line: w.line,
                key: w.key.clone(),
                message: format!(
                    "lock-order cycle: `{u}` is held while acquiring `{v}` (in `{}`), \
                     and `{v}` is transitively held while acquiring `{u}` — impose a \
                     single acquisition order",
                    w.via
                ),
                severity: Severity::Error,
                witness: w.witness.clone(),
            });
        }
    }
    lock_order.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    let order_nanos = t0.elapsed().as_nanos();

    let t1 = Instant::now();
    let mut blocking = sw.blocking;
    blocking.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    let blocking_nanos = t1.elapsed().as_nanos();

    LockReport { lock_order, blocking, order_nanos, blocking_nanos }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{Graph, Workspace};

    fn report(files: &[(&str, &str)]) -> LockReport {
        let ws = Workspace::from_sources(files);
        let g = Graph::build(&ws);
        run(&ws, &g)
    }

    /// Satellite fixture: a lock-order inversion across two call chains
    /// (`one` holds `a` then takes `b`; `two` holds `b` then takes `a`)
    /// must trip the lock-order pass with witnesses.
    #[test]
    fn lock_order_inversion_fixture_trips() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                       fn one(&self) { let g = self.a.lock(); self.take_b(); }\n\
                       fn take_b(&self) { let h = self.b.lock(); use_it(h); }\n\
                       fn two(&self) { let h = self.b.lock(); self.take_a(); }\n\
                       fn take_a(&self) { let g = self.a.lock(); use_it(g); }\n\
                   }\n\
                   fn use_it<T>(_x: T) {}\n";
        let r = report(&[("crates/serve/src/lib.rs", src)]);
        assert!(
            r.lock_order.iter().any(|f| f.message.contains("lock-order cycle")
                && f.message.contains("uhscm_serve::a")
                && f.message.contains("uhscm_serve::b")),
            "{:?}",
            r.lock_order.iter().map(|f| &f.message).collect::<Vec<_>>()
        );
        for f in &r.lock_order {
            assert!(!f.witness.is_empty(), "cycle findings carry witnesses");
            assert_eq!(f.severity, Severity::Error);
        }
    }

    /// Satellite fixture: the PR-5 serve bug shape — a socket write under
    /// a held writer guard, through a call edge — must trip the
    /// blocking-under-lock pass.
    #[test]
    fn socket_write_under_guard_fixture_trips() {
        let src = "fn send(writer: &Arc<Mutex<TcpStream>>, body: &str) {\n\
                       let mut guard = writer.lock();\n\
                       write_frame(&mut guard, body);\n\
                   }\n\
                   fn write_frame(w: &mut TcpStream, body: &str) {\n\
                       w.write_all(body);\n\
                       w.flush();\n\
                   }\n";
        let r = report(&[("crates/serve/src/lib.rs", src)]);
        let hit = r
            .blocking
            .iter()
            .find(|f| f.message.contains("write_all"))
            .expect("socket write under guard must be flagged");
        assert!(hit.message.contains("uhscm_serve::writer"), "{}", hit.message);
        let chain: Vec<&str> = hit.witness.iter().map(|w| w.qualified.as_str()).collect();
        assert_eq!(chain, vec!["uhscm_serve::send", "uhscm_serve::write_frame"]);
        assert!(r.blocking.iter().any(|f| f.message.contains("flush")));
        assert!(r.lock_order.is_empty(), "no ordering issue in this fixture");
    }

    #[test]
    fn same_lock_reentry_through_a_helper_is_flagged() {
        let src = "struct S { m: Mutex<u32> }\n\
                   impl S {\n\
                       fn outer(&self) { let g = self.m.lock(); self.inner(); }\n\
                       fn inner(&self) { let h = self.m.lock(); use_it(h); }\n\
                   }\n\
                   fn use_it<T>(_x: T) {}\n";
        let r = report(&[("crates/serve/src/lib.rs", src)]);
        let f = r
            .lock_order
            .iter()
            .find(|f| f.message.contains("same-lock re-entry"))
            .expect("re-entry must be flagged");
        assert!(f.message.contains("uhscm_serve::m"));
    }

    #[test]
    fn guard_returning_wrapper_maps_to_call_sites() {
        // `recover` escapes its guard; the acquisition belongs to `submit`,
        // so the blocking write inside submit's extent is flagged, while
        // `recover` itself stays clean.
        let src = "struct Q { state: Mutex<u32>, out: TcpStream }\n\
                   fn recover(lock: &Mutex<u32>) -> MutexGuard<u32> { lock.lock() }\n\
                   impl Q {\n\
                       fn submit(&self) {\n\
                           let mut state = recover(&self.state);\n\
                           self.out.write(state);\n\
                       }\n\
                   }\n";
        let r = report(&[("crates/serve/src/lib.rs", src)]);
        let f = r.blocking.iter().find(|f| f.message.contains("blocking `write`"));
        let f = f.expect("write under mapped guard must be flagged");
        assert!(f.message.contains("uhscm_serve::state"), "{}", f.message);
        assert!(f.message.contains("`uhscm_serve::Q::submit`"), "{}", f.message);
    }

    #[test]
    fn condvar_wait_is_reported_as_intentional_parking() {
        let src = "struct Q { state: Mutex<u32>, ready: Condvar }\n\
                   impl Q {\n\
                       fn next(&self) {\n\
                           let mut state = self.state.lock();\n\
                           let _g = self.ready.wait(state);\n\
                       }\n\
                   }\n";
        let r = report(&[("crates/serve/src/lib.rs", src)]);
        let f = r
            .blocking
            .iter()
            .find(|f| f.message.contains("Condvar::wait"))
            .expect("condvar wait under guard is reportable");
        assert!(f.message.contains("releases the guard atomically"), "{}", f.message);
        assert!(r.lock_order.is_empty(), "a wait is never an ordering edge");
    }

    #[test]
    fn drop_ends_the_extent_and_temporaries_do_not_sweep() {
        let src = "struct S { m: Mutex<u32>, out: TcpStream }\n\
                   impl S {\n\
                       fn early_release(&self) {\n\
                           let g = self.m.lock();\n\
                           drop(g);\n\
                           self.out.write_all(b);\n\
                       }\n\
                       fn temp(&self) {\n\
                           self.m.lock();\n\
                           self.out.write_all(b);\n\
                       }\n\
                   }\n";
        let r = report(&[("crates/serve/src/lib.rs", src)]);
        assert!(
            r.blocking.is_empty(),
            "{:?}",
            r.blocking.iter().map(|f| &f.message).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ordered_nesting_without_cycle_is_clean() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                       fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); use_it(h); }\n\
                       fn two(&self) { let g = self.a.lock(); let h = self.b.lock(); use_it(g); }\n\
                   }\n\
                   fn use_it<T>(_x: T) {}\n";
        let r = report(&[("crates/serve/src/lib.rs", src)]);
        assert!(
            r.lock_order.is_empty(),
            "{:?}",
            r.lock_order.iter().map(|f| &f.message).collect::<Vec<_>>()
        );
    }
}
