//! Inferred non-preemptible regions.
//!
//! A critical section is not a lexical window: it is the *lifetime of a
//! guard value* — a latch read/write guard, a `NonPreemptGuard`, the
//! provisional span of a registry slot, or a `ClsCell::with` borrow —
//! and it covers every function the guard's scope calls into. This pass
//! derives those regions from the per-file guard bindings (model.rs) and
//! flags preemption points reached while one is live:
//!
//! * **directly** — a `preempt_point`/`poll`/`yield_now` token inside
//!   the guard's lexical scope (the v1 check, kept);
//! * **interprocedurally** — a call site inside the scope whose resolved
//!   callee reaches, through the workspace call graph, a function that
//!   contains a preemption point. The finding is anchored at the call
//!   site (where the `allow` belongs and where the fix goes: drop the
//!   guard first or mark the callee preempt-free) and the message spells
//!   out the call chain down to the offending point.
//!
//! `CALL_STOPLIST` names never expand, which is what keeps
//! `Latch::read`'s own bounded spin (it polls `preempt_point` while
//! *waiting*, before the guard exists) from tainting every acquisition
//! site.

use crate::lexer::TokKind;
use crate::model::{FileModel, GuardKind};
use crate::resolve::{CallGraph, CallSite, FnId, Symbols};
use crate::rules::{Finding, PREEMPT_POINTS};

/// Maximum call-chain length from a region call site to a preemption
/// point. Deep chains are almost certainly false resolution fanout; real
/// violations sit one or two hops away.
const MAX_CHAIN: usize = 8;

/// A region to scan: token range plus a human description.
struct Region<'a> {
    m: &'a FileModel,
    model_idx: usize,
    /// Token range `(start, end)`, exclusive of `end`.
    span: (usize, usize),
    what: String,
    opened_line: u32,
}

pub fn check(models: &[FileModel], syms: &Symbols, graph: &CallGraph, out: &mut Vec<Finding>) {
    let regions = collect_regions(models);
    let (next_hop, point_line) = preempt_reachability(models, syms, graph);

    for r in &regions {
        scan_direct(r, out);
        scan_calls(r, models, syms, &next_hop, &point_line, out);
    }
}

fn collect_regions(models: &[FileModel]) -> Vec<Region<'_>> {
    // ClsCell statics are looked up workspace-wide: a context-local can
    // be read from another crate through a re-export.
    let cls_names: std::collections::HashSet<&str> = models
        .iter()
        .flat_map(|m| m.cls_statics.iter().map(String::as_str))
        .collect();

    let mut out = Vec::new();
    for (mi, m) in models.iter().enumerate() {
        for g in &m.guards {
            let what = match g.kind {
                GuardKind::Latch => format!("latch guard (`{}`)", g.key),
                GuardKind::NonPreempt => "nonpreempt region".to_string(),
                GuardKind::Registry => "registry provisional window".to_string(),
            };
            out.push(Region {
                m,
                model_idx: mi,
                span: (g.start, g.end.min(m.toks.len())),
                what,
                opened_line: g.line,
            });
        }
        // `NAME.with(|…| …)` on a ClsCell static: the closure runs under
        // the cell's reentrancy guard — a preemption inside it lets the
        // handler's own `.with` trip the re-entry panic.
        for i in 0..m.toks.len().saturating_sub(3) {
            if m.skipped(i) {
                continue;
            }
            let t = &m.toks[i];
            if t.kind == TokKind::Ident
                && cls_names.contains(t.text.as_str())
                && m.toks[i + 1].is(".")
                && m.toks[i + 2].is_ident("with")
                && m.toks[i + 3].is("(")
            {
                if let Some(close) = matching_paren_unbounded(m, i + 3) {
                    out.push(Region {
                        m,
                        model_idx: mi,
                        span: (i + 3, close),
                        what: format!("CLS borrow (`{}.with`)", t.text),
                        opened_line: t.line,
                    });
                }
            }
        }
    }
    out
}

/// Like `FileModel::matching_paren` but without the 512-token bound:
/// `.with` closure bodies can be long.
fn matching_paren_unbounded(m: &FileModel, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in m.toks[open..].iter().enumerate() {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

/// The v1 lexical check: a preemption-point token inside the region.
fn scan_direct(r: &Region<'_>, out: &mut Vec<Finding>) {
    let m = r.m;
    for i in r.span.0..r.span.1 {
        if m.skipped(i) {
            continue;
        }
        let t = &m.toks[i];
        if t.kind == TokKind::Ident
            && PREEMPT_POINTS.contains(&t.text.as_str())
            && m.toks.get(i + 1).is_some_and(|n| n.is("("))
            && !(i > 0 && m.toks[i - 1].is_ident("fn"))
        {
            out.push(Finding {
                file: m.path.clone(),
                line: t.line,
                rule: "preempt-in-critical",
                msg: format!(
                    "`{}` called inside a {} opened at line {}; a preemption here \
                     could park the holder",
                    t.text, r.what, r.opened_line
                ),
            });
        }
    }
}

/// Multi-source reverse BFS from every function containing a direct
/// preemption point. Returns, per function, the next hop toward a
/// preemption point (`next_hop[f] == Some(f)` marks a function that
/// contains one itself) and the line of each containing function's point.
fn preempt_reachability(
    models: &[FileModel],
    syms: &Symbols,
    graph: &CallGraph,
) -> (Vec<Option<FnId>>, Vec<Option<u32>>) {
    let n = syms.fns.len();
    let mut point_line: Vec<Option<u32>> = vec![None; n];
    for (id, f) in syms.fns.iter().enumerate() {
        let m = &models[f.model];
        for i in f.body.0 + 1..f.body.1 {
            if m.skipped(i) {
                continue;
            }
            let t = &m.toks[i];
            if t.kind == TokKind::Ident
                && PREEMPT_POINTS.contains(&t.text.as_str())
                && m.toks.get(i + 1).is_some_and(|x| x.is("("))
                && !(i > 0 && m.toks[i - 1].is_ident("fn"))
            {
                point_line[id] = Some(t.line);
                break;
            }
        }
    }

    // Reverse edges: callee → callers.
    let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); n];
    for (caller, sites) in graph.edges.iter().enumerate() {
        for (_, targets) in sites {
            for &t in targets {
                rev[t].push(caller);
            }
        }
    }

    let mut next_hop: Vec<Option<FnId>> = vec![None; n];
    let mut depth: Vec<usize> = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for id in 0..n {
        if point_line[id].is_some() {
            next_hop[id] = Some(id);
            depth[id] = 0;
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        if depth[id] >= MAX_CHAIN {
            continue;
        }
        for &caller in &rev[id] {
            if next_hop[caller].is_none() {
                next_hop[caller] = Some(id);
                depth[caller] = depth[id] + 1;
                queue.push_back(caller);
            }
        }
    }
    (next_hop, point_line)
}

/// The interprocedural check: call sites inside the region whose callees
/// reach a preemption point.
fn scan_calls(
    r: &Region<'_>,
    models: &[FileModel],
    syms: &Symbols,
    next_hop: &[Option<FnId>],
    point_line: &[Option<u32>],
    out: &mut Vec<Finding>,
) {
    let m = r.m;
    let caller_impl = m.impl_type_at(r.span.0).map(str::to_string);
    // `Symbols::call_sites` walks `(a+1, b)`, which is exactly the
    // region interior for both guard spans (`;` → scope end) and CLS
    // closure spans (`(` → `)`).
    let sites: Vec<CallSite> = Symbols::call_sites(m, r.span)
        .into_iter()
        // A direct preemption point is scan_direct's finding, not a chain.
        .filter(|s| !PREEMPT_POINTS.contains(&s.name.as_str()))
        .collect();
    let mut seen_lines = std::collections::HashSet::new();
    for s in sites {
        let targets = syms.resolve(models, r.model_idx, caller_impl.as_deref(), &s);
        let Some(&hit) = targets.iter().find(|&&t| next_hop[t].is_some()) else {
            continue;
        };
        // One finding per (line, region): a line calling two tainted
        // callees is still one fix.
        if !seen_lines.insert(s.line) {
            continue;
        }
        // Reconstruct the chain hit → … → point-containing fn.
        let mut chain = vec![hit];
        let mut cur = hit;
        while next_hop[cur] != Some(cur) {
            cur = next_hop[cur].expect("hop chain ends at a point-containing fn");
            chain.push(cur);
        }
        let last = *chain.last().unwrap();
        let chain_str = chain
            .iter()
            .map(|&id| format!("`{}`", syms.fns[id].name))
            .collect::<Vec<_>>()
            .join(" → ");
        out.push(Finding {
            file: m.path.clone(),
            line: s.line,
            rule: "preempt-in-critical",
            msg: format!(
                "call to {chain_str} inside a {} opened at line {} reaches a \
                 preemption point at {}:{}; drop the guard first or keep the \
                 callee preempt-free",
                r.what,
                r.opened_line,
                models[syms.fns[last].model].path,
                point_line[last].unwrap_or(syms.fns[last].line),
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;
    use crate::resolve::{CallGraph, Symbols};

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let models: Vec<FileModel> =
            srcs.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let syms = Symbols::build(&models);
        let graph = CallGraph::build(&models, &syms);
        let mut out = Vec::new();
        check(&models, &syms, &graph, &mut out);
        out
    }

    #[test]
    fn guard_held_across_call_is_interprocedural() {
        let f = run(&[(
            "crates/mvcc/src/a.rs",
            "fn hold(r: &Record) {\n    let _g = r.latch.write();\n    refresh(r);\n}\n\
             fn refresh(r: &Record) { recompute(r); preempt_point(0); }\n\
             fn recompute(_r: &Record) {}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!(f[0].rule, "preempt-in-critical");
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("`refresh`"), "{}", f[0].msg);
    }

    #[test]
    fn chain_crosses_crates() {
        let f = run(&[
            (
                "crates/sched/src/a.rs",
                "fn hold(e: &Engine) {\n    let _np = NonPreemptGuard::enter();\n    e.orphan_sweep(1);\n}\n",
            ),
            (
                "crates/mvcc/src/engine.rs",
                "struct Engine;\nimpl Engine {\n    pub fn orphan_sweep(&self, _o: u64) { helper(); }\n}\n\
                 fn helper() { preempt_point(0); }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].msg.contains("`orphan_sweep` → `helper`"), "{}", f[0].msg);
    }

    #[test]
    fn dropped_guard_does_not_taint_later_calls() {
        let f = run(&[(
            "crates/mvcc/src/a.rs",
            "fn ok(r: &Record) {\n    let g = r.latch.write();\n    drop(g);\n    refresh(r);\n}\n\
             fn refresh(_r: &Record) { preempt_point(0); }\n",
        )]);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn cls_with_closure_is_a_region() {
        let f = run(&[(
            "crates/mvcc/src/orphan.rs",
            "static CURRENT_OWNER: ClsCell<u64> = ClsCell::new(|| 0);\n\
             fn tag() {\n    CURRENT_OWNER.with(|o| {\n        preempt_point(0);\n        o\n    });\n}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].msg.contains("CLS borrow"), "{}", f[0].msg);
    }

    #[test]
    fn stoplisted_methods_do_not_expand() {
        // `Latch::read` contains a preemption point in its spin loop, but
        // `.read()` is stoplisted: acquiring a latch inside a nonpreempt
        // region must not flag.
        let f = run(&[(
            "crates/mvcc/src/latch.rs",
            "struct Latch;\nimpl Latch {\n    pub fn read(&self) { preempt_point(1); }\n}\n\
             fn acquire(l: &Latch) {\n    let _np = NonPreemptGuard::enter();\n    let _x = l.read();\n}\n",
        )]);
        // The `let _x = l.read()` has no `latch` ident so it is not a
        // latch guard binding; the nonpreempt region must not expand
        // through `.read()`.
        assert!(f.is_empty(), "{f:#?}");
    }
}
