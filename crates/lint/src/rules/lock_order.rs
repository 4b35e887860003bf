//! `lock-order`: a static deadlock detector for `std::sync` primitives.
//!
//! For every function body the rule tracks **guard liveness**: a
//! `.lock()` / `.read()` / `.write()` call (empty argument list, so
//! `io::Write::write(buf)` never matches) acquires a guard; a guard
//! bound by `let` lives until `drop(guard)` or the end of its block,
//! while an unbound guard (a temporary such as
//! `relock(self.inner.lock()).len()`) dies at the end of its
//! statement. Lock identity is the receiver's final path segment
//! qualified by file (`synth/src/cache.rs::state`), which matches
//! how this workspace names lock fields.
//!
//! Three deadlock-prone shapes are reported:
//!
//! 1. **Cycles**: acquiring lock B while holding lock A adds the edge
//!    A → B to a workspace-wide acquisition graph; any strongly
//!    connected component (two functions locking in opposite orders)
//!    is reported at every participating acquisition site.
//! 2. **Re-entrant acquisition**: taking a lock while a guard on the
//!    same lock is already live (`std::sync::Mutex` is not reentrant).
//! 3. **Blocking while locked**: `.recv()` / `.recv_timeout(…)` /
//!    `.join()` — or a `Condvar` wait — reached while a guard is live.
//!    A `Condvar::wait(guard)` consumes its own guard, so only *other*
//!    live guards are reported for waits: the single-flight pattern in
//!    `SharedSynthCache` is legal, holding a second lock during the
//!    wait is not.
//!
//! The analysis is conservative where it cannot see: a closure body is
//! analyzed as if it ran inline under the guards live at its creation
//! site, and guards live across `match`/`if let` temporaries follow
//! the longer (whole-expression) temporary scope.

use crate::diag::Diagnostic;
use crate::source::{FileKind, SourceFile};
use crate::tree::{Group, Tree};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Methods that acquire a guard when called with no arguments.
const ACQUIRERS: &[&str] = &["lock", "read", "write"];
/// Condvar waits: consume the guard passed as their first argument.
const WAITS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];
/// Always-blocking calls that must not run under a lock.
const BLOCKERS: &[&str] = &["recv", "recv_timeout", "join"];

/// One live guard.
#[derive(Clone, Debug)]
struct LiveGuard {
    /// The `let` binding name, `None` for statement temporaries.
    name: Option<String>,
    /// Lock identity (`<file>::<receiver tail>`).
    lock: String,
}

/// One observed nested acquisition.
struct AcqEdge {
    from: String,
    to: String,
    file: PathBuf,
    line: usize,
    col: usize,
    snippet: String,
}

/// Runs the rule over the whole workspace.
pub(crate) fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let mut edges: Vec<AcqEdge> = Vec::new();
    for f in files {
        if f.kind == FileKind::Test {
            continue;
        }
        analyze_fns(f, &f.trees, &mut edges, out);
    }
    report_cycles(&edges, out);
}

/// Finds every `fn` body (at any nesting level) outside test code and
/// analyzes it with an empty guard stack.
fn analyze_fns(
    file: &SourceFile,
    trees: &[Tree],
    edges: &mut Vec<AcqEdge>,
    out: &mut Vec<Diagnostic>,
) {
    let mut i = 0;
    while i < trees.len() {
        let is_fn_item =
            trees[i].ident() == Some("fn") && trees.get(i + 1).and_then(Tree::ident).is_some();
        if is_fn_item && !file.is_test_line(trees[i].line()) {
            // The body is the first brace group before any `;` (a `;`
            // first means a trait method signature without a default).
            let mut j = i + 2;
            while j < trees.len() {
                if trees[j].is_punct(";") {
                    break;
                }
                if let Some(g) = trees[j].group() {
                    if g.delim == '{' {
                        let mut live = Vec::new();
                        analyze_block(file, &g.trees, &mut live, edges, out);
                        break;
                    }
                }
                j += 1;
            }
            i = j;
            continue;
        }
        // Recurse into non-fn groups (mod/impl/trait bodies). Function
        // bodies themselves were just analyzed and contain no items in
        // this workspace; visiting them again is harmless but would
        // double-report, so they are skipped via the `i = j` above.
        if let Some(g) = trees[i].group() {
            analyze_fns(file, &g.trees, edges, out);
        }
        i += 1;
    }
}

/// Analyzes one `{…}` block: statements split at top-level `;`,
/// guards bound inside die when the block ends.
fn analyze_block(
    file: &SourceFile,
    trees: &[Tree],
    live: &mut Vec<LiveGuard>,
    edges: &mut Vec<AcqEdge>,
    out: &mut Vec<Diagnostic>,
) {
    let entry = live.len();
    let mut start = 0;
    let mut i = 0;
    loop {
        let at_end = i >= trees.len();
        if at_end || trees[i].is_punct(";") {
            let stmt = &trees[start..i.min(trees.len())];
            if !stmt.is_empty() {
                analyze_stmt(file, stmt, live, edges, out);
            }
            start = i + 1;
        }
        if at_end {
            break;
        }
        i += 1;
    }
    live.truncate(entry);
}

/// Analyzes one statement: temporaries acquired inside it die at its
/// end, unless the statement is a `let` binding — then the most recent
/// acquisition survives under the bound name.
fn analyze_stmt(
    file: &SourceFile,
    stmt: &[Tree],
    live: &mut Vec<LiveGuard>,
    edges: &mut Vec<AcqEdge>,
    out: &mut Vec<Diagnostic>,
) {
    let let_name = parse_let_name(stmt).filter(|_| let_binds_guard(stmt));
    let temps_start = live.len();
    walk_expr(file, stmt, live, edges, out);
    if live.len() > temps_start {
        match let_name {
            Some(name) => {
                // The last acquisition is what the binding holds; any
                // earlier same-statement temporaries die here.
                let survivor = live.drain(temps_start..).next_back();
                if let Some(mut g) = survivor {
                    g.name = Some(name);
                    live.push(g);
                }
            }
            None => live.truncate(temps_start),
        }
    }
}

/// Methods that pass a guard through unchanged, so a binding whose
/// initializer ends in one still holds the guard.
const GUARD_PRESERVING: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_or_else",
    "into_inner",
    "map_err",
];

/// Whether a `let` statement's initializer actually binds the guard:
/// the trailing top-level method chain must consist only of
/// guard-preserving calls (`s.a.lock()`, `s.a.lock().unwrap()`,
/// `relock(s.a.lock())`). A projection such as
/// `relock(s.a.lock()).len()` binds a plain value and the guard is a
/// statement temporary.
fn let_binds_guard(stmt: &[Tree]) -> bool {
    let mut end = stmt.len();
    while end >= 3 {
        let is_call = stmt[end - 3].is_punct(".")
            && stmt[end - 2].ident().is_some()
            && stmt[end - 1].group().is_some_and(|g| g.delim == '(');
        if !is_call {
            break;
        }
        let name = stmt[end - 2].ident().unwrap_or_default();
        if ACQUIRERS.contains(&name) {
            return true;
        }
        if !GUARD_PRESERVING.contains(&name) {
            return false;
        }
        end -= 3;
    }
    true
}

/// `let [mut] name = …` binding name, `None` for other statements or
/// destructuring patterns.
fn parse_let_name(stmt: &[Tree]) -> Option<String> {
    if stmt.first()?.ident()? != "let" {
        return None;
    }
    let mut i = 1;
    if stmt.get(i).and_then(Tree::ident) == Some("mut") {
        i += 1;
    }
    let name = stmt.get(i)?.ident()?;
    // `let Some(x) = …` / struct patterns: the ident is followed by a
    // group or path, not `=` / `:`.
    match stmt.get(i + 1) {
        Some(t) if t.is_punct("=") || t.is_punct(":") => Some(name.to_string()),
        _ => None,
    }
}

/// Walks a statement's trees in evaluation order, tracking
/// acquisitions, condvar waits, blocking calls, drops, and nested
/// blocks.
fn walk_expr(
    file: &SourceFile,
    trees: &[Tree],
    live: &mut Vec<LiveGuard>,
    edges: &mut Vec<AcqEdge>,
    out: &mut Vec<Diagnostic>,
) {
    let mut i = 0;
    while i < trees.len() {
        // Method calls: `.name(args)`.
        if trees[i].is_punct(".") {
            let name = trees.get(i + 1).and_then(Tree::ident);
            let args = trees
                .get(i + 2)
                .and_then(Tree::group)
                .filter(|g| g.delim == '(');
            if let (Some(name), Some(args)) = (name, args) {
                let site = &trees[i + 1];
                if ACQUIRERS.contains(&name) && args.trees.is_empty() {
                    acquire(file, trees, i, site, live, edges, out);
                    i += 3;
                    continue;
                }
                if WAITS.contains(&name) {
                    condvar_wait(file, args, site, live, out);
                    walk_expr(file, &args.trees, live, edges, out);
                    i += 3;
                    continue;
                }
                if BLOCKERS.contains(&name) {
                    for g in live.iter() {
                        blocked(file, site, &format!(".{name}(…)"), g, out);
                    }
                    walk_expr(file, &args.trees, live, edges, out);
                    i += 3;
                    continue;
                }
            }
        }
        // `drop(guard)` / `mem::drop(guard)` releases a named guard.
        if trees[i].ident() == Some("drop") {
            if let Some(args) = trees
                .get(i + 1)
                .and_then(Tree::group)
                .filter(|g| g.delim == '(')
            {
                if args.trees.len() == 1 {
                    if let Some(victim) = args.trees[0].ident() {
                        if let Some(pos) =
                            live.iter().rposition(|g| g.name.as_deref() == Some(victim))
                        {
                            live.remove(pos);
                        }
                        i += 2;
                        continue;
                    }
                }
            }
        }
        match &trees[i] {
            Tree::Group(g) if g.delim == '{' => {
                // A nested block scopes its own bindings; temporaries
                // live so far stay held around it.
                analyze_block(file, &g.trees, live, edges, out);
            }
            Tree::Group(g) => walk_expr(file, &g.trees, live, edges, out),
            _ => {}
        }
        i += 1;
    }
}

/// Registers an acquisition at `trees[dot_idx…]`, reporting re-entrant
/// locks and recording graph edges from every held lock.
fn acquire(
    file: &SourceFile,
    trees: &[Tree],
    dot_idx: usize,
    site: &Tree,
    live: &mut Vec<LiveGuard>,
    edges: &mut Vec<AcqEdge>,
    out: &mut Vec<Diagnostic>,
) {
    let line = site.line();
    let lock = lock_id(file, trees, dot_idx, line);
    for g in live.iter() {
        if g.lock == lock {
            let message = format!(
                "lock `{lock}` acquired while a guard on it is already live \
                 (std::sync locks are not reentrant — self-deadlock)"
            );
            out.push(finding(file, site, message));
        } else {
            edges.push(AcqEdge {
                from: g.lock.clone(),
                to: lock.clone(),
                file: file.path.clone(),
                line,
                col: site.col(),
                snippet: file.snippet(line),
            });
        }
    }
    live.push(LiveGuard { name: None, lock });
}

/// Handles a condvar-style wait: the guard passed as an argument is
/// consumed and returned (stays live, same lock); any *other* live
/// guard is held across a blocking wait. A wait with no guard argument
/// (e.g. `JobHandle::wait()`) is a plain blocking call.
fn condvar_wait(
    file: &SourceFile,
    args: &Group,
    site: &Tree,
    live: &mut [LiveGuard],
    out: &mut Vec<Diagnostic>,
) {
    let arg_idents: BTreeSet<&str> = args.trees.iter().filter_map(Tree::ident).collect();
    let consumed: Vec<usize> = live
        .iter()
        .enumerate()
        .filter(|(_, g)| g.name.as_deref().is_some_and(|n| arg_idents.contains(n)))
        .map(|(i, _)| i)
        .collect();
    for (i, g) in live.iter().enumerate() {
        if consumed.contains(&i) {
            continue;
        }
        let what = if consumed.is_empty() {
            ".wait(…)".to_string()
        } else {
            "a Condvar wait on another lock".to_string()
        };
        blocked(file, site, &what, g, out);
    }
}

fn blocked(file: &SourceFile, site: &Tree, what: &str, g: &LiveGuard, out: &mut Vec<Diagnostic>) {
    let message = format!(
        "guard on lock `{}` held across blocking call {what}",
        g.lock
    );
    out.push(finding(file, site, message));
}

/// A `lock-order` finding at `site`.
fn finding(file: &SourceFile, site: &Tree, message: String) -> Diagnostic {
    let line = site.line();
    Diagnostic {
        rule: "lock-order",
        file: file.path.clone(),
        line,
        col: site.col(),
        message,
        snippet: file.snippet(line),
    }
}

/// Lock identity for the receiver of `.lock()` at `trees[dot_idx]`:
/// the final path segment before the dot, qualified by file.
fn lock_id(file: &SourceFile, trees: &[Tree], dot_idx: usize, line: usize) -> String {
    let prefix = file.path.display();
    if dot_idx == 0 {
        return format!("{prefix}::<expr>@{line}");
    }
    match &trees[dot_idx - 1] {
        t if t.ident().is_some() => {
            format!("{prefix}::{}", t.ident().unwrap_or_default())
        }
        Tree::Group(_) if dot_idx >= 2 && trees[dot_idx - 2].ident().is_some() => {
            format!(
                "{prefix}::{}()",
                trees[dot_idx - 2].ident().unwrap_or_default()
            )
        }
        _ => format!("{prefix}::<expr>@{line}"),
    }
}

/// Finds strongly connected components in the acquisition graph and
/// reports every edge inside one (including two-lock A↔B cycles).
fn report_cycles(edges: &[AcqEdge], out: &mut Vec<Diagnostic>) {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut radj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
        adj.entry(&e.from).or_default().insert(&e.to);
        radj.entry(&e.to).or_default().insert(&e.from);
    }
    // Kosaraju: order by forward-DFS finish time, then component-label
    // in reverse order on the transposed graph.
    let mut order: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &n in &nodes {
        dfs_finish(n, &adj, &mut seen, &mut order);
    }
    let mut comp: BTreeMap<&str, usize> = BTreeMap::new();
    let mut comp_sizes: Vec<usize> = Vec::new();
    for &n in order.iter().rev() {
        if comp.contains_key(n) {
            continue;
        }
        let id = comp_sizes.len();
        let mut size = 0;
        let mut stack = vec![n];
        while let Some(cur) = stack.pop() {
            if comp.contains_key(cur) {
                continue;
            }
            comp.insert(cur, id);
            size += 1;
            if let Some(prev) = radj.get(cur) {
                stack.extend(prev.iter().copied());
            }
        }
        comp_sizes.push(size);
    }
    let mut reported: BTreeSet<(String, String, usize)> = BTreeSet::new();
    for e in edges {
        let (Some(&cf), Some(&ct)) = (comp.get(e.from.as_str()), comp.get(e.to.as_str())) else {
            continue;
        };
        if cf != ct || comp_sizes[cf] < 2 {
            continue;
        }
        if !reported.insert((e.from.clone(), e.to.clone(), e.line)) {
            continue;
        }
        let members: Vec<&str> = comp
            .iter()
            .filter(|(_, &c)| c == cf)
            .map(|(&n, _)| n)
            .collect();
        out.push(Diagnostic {
            rule: "lock-order",
            file: e.file.clone(),
            line: e.line,
            col: e.col,
            message: format!(
                "lock-order cycle: `{}` acquired while holding `{}`; elsewhere the \
                 opposite order occurs (cycle through: {})",
                e.to,
                e.from,
                members.join(" ↔ ")
            ),
            snippet: e.snippet.clone(),
        });
    }
}

fn dfs_finish<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    seen: &mut BTreeSet<&'a str>,
    order: &mut Vec<&'a str>,
) {
    if !seen.insert(node) {
        return;
    }
    if let Some(next) = adj.get(node) {
        for &n in next {
            dfs_finish(n, adj, seen, order);
        }
    }
    order.push(node);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lib_file;

    fn run(text: &str) -> Vec<String> {
        let f = lib_file("crates/x/src/a.rs", text);
        let mut out = Vec::new();
        check(&[f], &mut out);
        out.into_iter().map(|d| d.message).collect()
    }

    #[test]
    fn two_lock_cycle_is_reported_at_both_sites() {
        let msgs = run(
            "fn ab(s: &S) {\n    let a = s.alpha.lock();\n    let b = s.beta.lock();\n    use_both(a, b);\n}\nfn ba(s: &S) {\n    let b = s.beta.lock();\n    let a = s.alpha.lock();\n    use_both(a, b);\n}\n",
        );
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().all(|m| m.contains("lock-order cycle")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("`crates/x/src/a.rs::beta` acquired while holding")));
    }

    #[test]
    fn consistent_order_is_clean() {
        let msgs = run(
            "fn ab(s: &S) {\n    let a = s.alpha.lock();\n    let b = s.beta.lock();\n}\nfn ab2(s: &S) {\n    let a = s.alpha.lock();\n    let b = s.beta.lock();\n}\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn drop_releases_before_next_acquisition() {
        let msgs = run(
            "fn f(s: &S) {\n    let a = s.alpha.lock();\n    drop(a);\n    let b = s.beta.lock();\n}\nfn g(s: &S) {\n    let b = s.beta.lock();\n    drop(b);\n    let a = s.alpha.lock();\n}\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn statement_temporaries_do_not_outlive_their_statement() {
        let msgs = run(
            "fn f(s: &S) {\n    let n = relock(s.alpha.lock()).len();\n    let b = s.beta.lock();\n}\nfn g(s: &S) {\n    let m = relock(s.beta.lock()).len();\n    let a = s.alpha.lock();\n}\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn reentrant_lock_is_a_self_deadlock() {
        let msgs =
            run("fn f(s: &S) {\n    let a = s.alpha.lock();\n    let b = s.alpha.lock();\n}\n");
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("not reentrant"));
    }

    #[test]
    fn condvar_wait_consuming_its_own_guard_is_legal() {
        let msgs = run(
            "fn f(s: &S) {\n    let mut inner = relock(s.state.lock());\n    while inner.busy {\n        inner = relock(s.flights.wait(inner));\n    }\n}\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn second_lock_held_across_condvar_wait_is_flagged() {
        for wait in [
            "while inner.busy {\n        inner = s.cv.wait(inner);\n    }",
            "inner = s.cv.wait_while(inner, |i| i.busy);",
        ] {
            let msgs = run(&format!(
                "fn f(s: &S) {{\n    let extra = s.other.lock();\n    let mut inner = s.state.lock();\n    {wait}\n}}\n"
            ));
            assert_eq!(msgs.len(), 1, "{wait}: {msgs:?}");
            assert!(msgs[0].contains("held across blocking call"));
            assert!(msgs[0].contains("other"));
        }
    }

    #[test]
    fn blocking_calls_under_a_lock_are_flagged() {
        let msgs = run("fn f(s: &S) {\n    let g = s.state.lock();\n    let v = s.rx.recv();\n}\n");
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains(".recv"));
        let msgs = run("fn f(s: &S) {\n    let g = s.state.lock();\n    s.handle.join();\n}\n");
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        let clean =
            run("fn f(s: &S) {\n    let v = s.rx.recv();\n    let g = s.state.lock();\n}\n");
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn block_scoped_guards_die_with_their_block() {
        let msgs = run(
            "fn f(s: &S) {\n    {\n        let a = s.alpha.lock();\n    }\n    let b = s.beta.lock();\n}\nfn g(s: &S) {\n    { let b = s.beta.lock(); }\n    let a = s.alpha.lock();\n}\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn io_write_with_args_is_not_an_acquisition() {
        let msgs = run("fn f(w: &mut W, s: &S) {\n    let g = s.state.lock();\n    w.file.write(buf);\n    w.sock.read(buf);\n}\n");
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let msgs = run(
            "#[cfg(test)]\nmod tests {\n    fn ab(s: &S) { let a = s.alpha.lock(); let b = s.beta.lock(); }\n    fn ba(s: &S) { let b = s.beta.lock(); let a = s.alpha.lock(); }\n}\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn rwlock_read_write_participate() {
        let msgs = run(
            "fn f(s: &S) {\n    let r = s.table.read();\n    let w = s.index.write();\n}\nfn g(s: &S) {\n    let w = s.index.write();\n    let r = s.table.read();\n}\n",
        );
        assert_eq!(msgs.len(), 2, "{msgs:?}");
    }
}
