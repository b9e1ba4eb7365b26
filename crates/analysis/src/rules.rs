//! Rule orchestration and the per-file rules.
//!
//! Rule ids (used in findings and in suppression comments — see
//! DESIGN.md §12 for the `allow` syntax; spelling it out here would make
//! this very file's doc comment parse as a suppression):
//!
//! * `preempt-in-critical`  — a preemption point reached (directly or
//!   through the call graph) while a latch guard, nonpreempt region,
//!   registry provisional window, or CLS borrow is live (regions.rs).
//! * `lock-order-cycle`     — a cycle in the global latch
//!   acquisition-order graph (lockorder.rs).
//! * `protocol-ordering`    — an atomic op on a protocol field using an
//!   ordering outside the spec table's allow set, or with no spec row at
//!   all (protocol.rs).
//! * `protocol-model-drift` — a protocol's loom model is missing or no
//!   longer mentions its protocol identifiers (protocol.rs).
//! * `missing-safety-comment` — an `unsafe` block/fn/impl without a
//!   `// SAFETY:` (or `/// # Safety`) comment.
//! * `handler-alloc`        — allocation in code reachable from the
//!   user-interrupt handler.
//! * `handler-panic`        — a panicking macro/method reachable from the
//!   handler (`debug_assert!` is exempt: compiled out in release).
//! * `handler-block`        — a blocking call reachable from the handler.
//! * `allow-missing-reason` — a suppression comment without a reason.

use std::collections::HashSet;

use crate::lexer::TokKind;
use crate::model::FileModel;
use crate::resolve::{CallGraph, FnId, Symbols};
use crate::{lockorder, protocol, regions};

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Functions the handler reachability walk starts from. `on_point` and
/// `wedge` are the supervisor-facing worker entry points: the terminate
/// token raise and the wedge fault both execute at preemption points,
/// possibly under a handler-driven drain, so they obey the same
/// alloc/panic/block discipline as the delivery path.
pub const HANDLER_ROOTS: &[&str] = &["on_uintr", "deliver_pending", "on_point", "wedge"];

/// Preemption-point calls denied inside critical sections.
pub const PREEMPT_POINTS: &[&str] = &["preempt_point", "poll", "yield_now"];

/// Metric-emit entry points known to be handler-safe by construction
/// (one relaxed load when disabled, relaxed `fetch_add`s when enabled —
/// see `crates/metrics`): the reachability walk does not expand into
/// them, so a counter bump inside a handler path is not a finding.
const HANDLER_SAFE_CALLS: &[&str] = &[
    "counter_add",
    "counter_inc",
    "gauge_set",
    "hist_record",
    "bump",
    "bump_by",
    "observe",
];

const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "with_capacity"];
const ALLOC_ASSOC: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Vec", "new"),
    ("String", "new"),
    ("String", "from"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("VecDeque", "new"),
    ("HashMap", "new"),
];
const PANIC_MACROS: &[&str] = &[
    "panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne",
];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const BLOCK_CALLS: &[&str] = &["sleep", "park", "park_timeout", "recv", "join", "wait", "lock"];

/// Run every rule over a set of file models and return the findings that
/// survive `allow` suppressions (plus findings for reason-less allows).
/// `suites` are the loom test suites found in the tree (workspace runs);
/// protocols whose suite is not among them skip the model drift check.
pub fn run_all(models: &[FileModel], suites: &[FileModel]) -> Vec<Finding> {
    let syms = Symbols::build(models);
    let graph = CallGraph::build(models, &syms);

    let mut out = Vec::new();
    for m in models {
        check_safety_comments(m, &mut out);
    }
    regions::check(models, &syms, &graph, &mut out);
    lockorder::check(models, &syms, &mut out);
    protocol::check_orderings(models, &mut out);
    protocol::check_models(suites, &mut out);
    check_handler_reachability(models, &syms, &graph, &mut out);
    apply_allows(models, &mut out);
    out.sort();
    out.dedup();
    out
}

fn check_safety_comments(m: &FileModel, out: &mut Vec<Finding>) {
    for (i, t) in m.toks.iter().enumerate() {
        if !t.is_ident("unsafe") || m.skipped(i) {
            continue;
        }
        // `#[unsafe(naked)]`-style attribute: `unsafe` followed by `(`.
        if m.toks.get(i + 1).is_some_and(|n| n.is("(")) {
            continue;
        }
        let stmt_line = m.stmt_start_line(i);
        if m.has_safety_comment(t.line) || m.has_safety_comment(stmt_line) {
            continue;
        }
        let what = m
            .toks
            .get(i + 1)
            .map(|n| n.text.as_str())
            .unwrap_or("block");
        let what = match what {
            "fn" => "unsafe fn",
            "impl" => "unsafe impl",
            "trait" => "unsafe trait",
            _ => "unsafe block",
        };
        out.push(Finding {
            file: m.path.clone(),
            line: t.line,
            rule: "missing-safety-comment",
            msg: format!("{what} without a `// SAFETY:` comment documenting its contract"),
        });
    }
}

/// BFS over the resolved call graph from the handler roots; scan each
/// reachable body for allocation, panics, and blocking calls. Expansion
/// stops at `HANDLER_SAFE_CALLS` names (their bodies are safe by
/// construction and deliberately not re-scanned).
fn check_handler_reachability(
    models: &[FileModel],
    syms: &Symbols,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    const MAX_DEPTH: usize = 16;
    const MAX_VISITED: usize = 800;

    let mut queue: std::collections::VecDeque<(FnId, String, usize)> =
        std::collections::VecDeque::new();
    let mut seen: HashSet<FnId> = HashSet::new();
    for root in HANDLER_ROOTS {
        for &id in syms.defs_named(root) {
            if seen.insert(id) {
                queue.push_back((id, root.to_string(), 0));
            }
        }
    }

    while let Some((id, root, depth)) = queue.pop_front() {
        let f = &syms.fns[id];
        let m = &models[f.model];
        scan_handler_body(m, f.body, &f.name, &root, out);
        if depth >= MAX_DEPTH || seen.len() >= MAX_VISITED {
            continue;
        }
        for (site, targets) in &graph.edges[id] {
            if HANDLER_SAFE_CALLS.contains(&site.name.as_str()) {
                continue;
            }
            for &t in targets {
                if seen.insert(t) {
                    queue.push_back((t, root.clone(), depth + 1));
                }
            }
        }
    }
}

fn scan_handler_body(
    m: &FileModel,
    (open, close): (usize, usize),
    fname: &str,
    root: &str,
    out: &mut Vec<Finding>,
) {
    let ctx = |verb: &str, what: &str| {
        format!("{what} {verb} in `{fname}`, reachable from interrupt handler `{root}`")
    };
    let mut i = open;
    while i < close {
        if m.skipped(i) {
            i += 1;
            continue;
        }
        let t = &m.toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let next = m.toks.get(i + 1);
        let prev_dot = i > 0 && m.toks[i - 1].is(".");
        let name = t.text.as_str();

        // Macros: `name !`.
        if next.is_some_and(|n| n.is("!")) {
            if PANIC_MACROS.contains(&name) {
                out.push(Finding {
                    file: m.path.clone(),
                    line: t.line,
                    rule: "handler-panic",
                    msg: ctx("used", &format!("panicking macro `{name}!`")),
                });
            } else if ALLOC_MACROS.contains(&name) {
                out.push(Finding {
                    file: m.path.clone(),
                    line: t.line,
                    rule: "handler-alloc",
                    msg: ctx("used", &format!("allocating macro `{name}!`")),
                });
            }
        }

        // Method / function calls: `name (`.
        if next.is_some_and(|n| n.is("(")) {
            if prev_dot && PANIC_METHODS.contains(&name) {
                out.push(Finding {
                    file: m.path.clone(),
                    line: t.line,
                    rule: "handler-panic",
                    msg: ctx("called", &format!("panicking method `.{name}()`")),
                });
            }
            if prev_dot && ALLOC_METHODS.contains(&name) {
                out.push(Finding {
                    file: m.path.clone(),
                    line: t.line,
                    rule: "handler-alloc",
                    msg: ctx("called", &format!("allocating method `.{name}()`")),
                });
            }
            if BLOCK_CALLS.contains(&name) {
                out.push(Finding {
                    file: m.path.clone(),
                    line: t.line,
                    rule: "handler-block",
                    msg: ctx("called", &format!("blocking call `{name}()`")),
                });
            }
        }

        // Associated constructors: `Type :: new (`.
        if i + 4 < m.toks.len()
            && m.toks[i + 1].is(":")
            && m.toks[i + 2].is(":")
            && m.toks[i + 4].is("(")
        {
            let assoc = m.toks[i + 3].text.as_str();
            if ALLOC_ASSOC.iter().any(|&(ty, f)| ty == name && f == assoc) {
                out.push(Finding {
                    file: m.path.clone(),
                    line: t.line,
                    rule: "handler-alloc",
                    msg: ctx("called", &format!("allocating constructor `{name}::{assoc}()`")),
                });
            }
        }
        i += 1;
    }
}

/// Drop findings covered by a matching `allow`, then flag reason-less
/// allows (suppression still applies — the finding is the missing
/// justification, not the suppressed rule).
fn apply_allows(models: &[FileModel], out: &mut Vec<Finding>) {
    for m in models {
        for a in &m.allows {
            out.retain(|f| {
                !(f.file == m.path && f.rule == a.rule && a.covers.contains(&f.line))
            });
            if !a.has_reason {
                out.push(Finding {
                    file: m.path.clone(),
                    line: a.line,
                    rule: "allow-missing-reason",
                    msg: format!(
                        "suppression `allow({})` has no reason; write \
                         `// preempt-lint: allow({}) — <why this is sound>`",
                        a.rule, a.rule
                    ),
                });
            }
        }
    }
}
