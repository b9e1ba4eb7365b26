//! Per-file structural model built on top of the token stream.
//!
//! The model computes everything the rules share: brace matching, the
//! token ranges of `#[cfg(test)]` / `#[cfg(loom)]` bodies (skipped —
//! tests may intentionally violate production invariants and loom shims
//! are not compiled in release), function definitions with body ranges,
//! latch-guard / nonpreempt `let` bindings with their lexical scopes, and
//! `// preempt-lint: allow(rule) — reason` suppressions.

use std::collections::HashMap;

use crate::lexer::{lex, Comment, Tok, TokKind};

/// Kind of critical-section guard introduced by a `let` binding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GuardKind {
    /// An MVCC latch guard: a record latch's `read()`/`write()`/
    /// `try_write()`, or an index node's or hash shard's optimistic latch
    /// taken for writing by `write()`/`upgrade(version)` (`… .latch …`).
    Latch,
    /// A `NonPreemptGuard::enter()` region.
    NonPreempt,
    /// An active-txn registry slot (`… registry … .enter(…)`). The
    /// critical window is the *provisional* span: binding → the
    /// `.publish(…)` call that installs the real snapshot (preempting
    /// inside it pins the GC watermark at the provisional timestamp);
    /// holding a published slot across preemption is the normal state
    /// of every active transaction.
    Registry,
}

/// A `let` binding that holds a guard, with the token range over which
/// the guard is lexically live (binding `;` → enclosing block close, cut
/// short by an explicit `drop(name)`).
#[derive(Clone, Debug)]
pub struct GuardBinding {
    pub kind: GuardKind,
    /// Normalized receiver expression for latch guards (e.g. `self.latch`),
    /// used by the lock-order rule. Empty for nonpreempt regions.
    pub key: String,
    pub line: u32,
    /// Token index of the binding's terminating `;`.
    pub start: usize,
    /// Token index one past the last token the guard covers.
    pub end: usize,
    /// Index of the innermost function containing the binding, if any.
    pub func: Option<usize>,
}

/// A function definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub name: String,
    pub line: u32,
    /// Token range of the body, `(open_brace, close_brace)` inclusive.
    pub body: Option<(usize, usize)>,
}

/// A `// preempt-lint: allow(<rule>) — <reason>` suppression.
#[derive(Clone, Debug)]
pub struct Allow {
    pub rule: String,
    pub line: u32,
    /// Lines the suppression applies to: its own line and the next line
    /// that carries a token (comments in between are skipped).
    pub covers: Vec<u32>,
    pub has_reason: bool,
}

/// An `impl` block: the implementing type and its body token range.
#[derive(Clone, Debug)]
pub struct ImplBlock {
    /// Last path segment of the implementing type (`impl Trait for Ty`
    /// records `Ty`; `impl Ty` records `Ty`).
    pub ty: String,
    /// Body `{` token index.
    pub open: usize,
    /// Matching `}` token index.
    pub close: usize,
}

pub struct FileModel {
    /// Display path (workspace-relative where possible).
    pub path: String,
    /// Crate this file belongs to, normalized to the in-code crate name
    /// (`crates/mvcc/…` → `preempt_mvcc`, `crates/core/…` → `preemptdb`).
    pub crate_name: String,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    pub src_lines: Vec<String>,
    /// `{` index → matching `}` index and vice versa.
    pub braces: HashMap<usize, usize>,
    /// Token ranges (inclusive) excluded from analysis.
    pub skips: Vec<(usize, usize)>,
    pub fns: Vec<FnDef>,
    pub guards: Vec<GuardBinding>,
    pub allows: Vec<Allow>,
    /// `use` aliases visible in this file: local name → full path
    /// segments (`use preempt_context::nonpreempt::NonPreemptGuard` maps
    /// `NonPreemptGuard` → `[preempt_context, nonpreempt, NonPreemptGuard]`).
    pub uses: HashMap<String, Vec<String>>,
    /// `impl` blocks, for qualifying method definitions by receiver type.
    pub impls: Vec<ImplBlock>,
    /// Names of `static … : ClsCell<…>` items declared in this file;
    /// `NAME.with(…)` closures on these are reentrancy-guarded borrows.
    pub cls_statics: Vec<String>,
}

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

impl FileModel {
    pub fn build(path: &str, src: &str) -> FileModel {
        let (toks, comments) = lex(src);
        let src_lines: Vec<String> = src.lines().map(str::to_string).collect();
        let braces = match_braces(&toks);
        let skips = find_skips(&toks, &braces);
        let mut m = FileModel {
            path: path.to_string(),
            crate_name: crate_name_of(path),
            toks,
            comments,
            src_lines,
            braces,
            skips,
            fns: Vec::new(),
            guards: Vec::new(),
            allows: Vec::new(),
            uses: HashMap::new(),
            impls: Vec::new(),
            cls_statics: Vec::new(),
        };
        m.fns = m.find_fns();
        m.impls = m.find_impls();
        m.guards = m.find_guards();
        m.allows = m.find_allows();
        m.uses = m.find_uses();
        m.cls_statics = m.find_cls_statics();
        m
    }

    /// The `impl` block type enclosing token `i`, if any (innermost).
    pub fn impl_type_at(&self, i: usize) -> Option<&str> {
        let mut best: Option<&ImplBlock> = None;
        for b in &self.impls {
            if i > b.open && i < b.close && best.is_none_or(|p| b.close - b.open < p.close - p.open)
            {
                best = Some(b);
            }
        }
        best.map(|b| b.ty.as_str())
    }

    /// Is token index `i` inside a skipped (`#[cfg(test)]`/`#[cfg(loom)]`)
    /// region?
    pub fn skipped(&self, i: usize) -> bool {
        self.skips.iter().any(|&(a, b)| i >= a && i <= b)
    }

    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    /// The innermost function whose body contains token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_span = usize::MAX;
        for (fi, f) in self.fns.iter().enumerate() {
            if let Some((a, b)) = f.body {
                if i > a && i < b && b - a < best_span {
                    best = Some(fi);
                    best_span = b - a;
                }
            }
        }
        best
    }

    fn find_fns(&self) -> Vec<FnDef> {
        let mut out = Vec::new();
        let toks = &self.toks;
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_ident("fn") && !self.skipped(i) {
                let Some(name_tok) = toks.get(i + 1) else { break };
                if name_tok.kind != TokKind::Ident {
                    i += 1;
                    continue;
                }
                // Find the body `{` : first `{` at paren depth 0 after the
                // name; a `;` at depth 0 first means no body (trait decl).
                let mut depth = 0i32;
                let mut j = i + 2;
                let mut body = None;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            if let Some(&close) = self.braces.get(&j) {
                                body = Some((j, close));
                            }
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                out.push(FnDef {
                    name: name_tok.text.clone(),
                    line: toks[i].line,
                    body,
                });
            }
            i += 1;
        }
        out
    }

    fn find_guards(&self) -> Vec<GuardBinding> {
        let mut out = Vec::new();
        let toks = &self.toks;
        let mut open_stack: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "{" => open_stack.push(i),
                "}" => {
                    open_stack.pop();
                }
                "let" if toks[i].kind == TokKind::Ident && !self.skipped(i) => {
                    if let Some(g) = self.guard_at(i, &open_stack) {
                        out.push(g);
                    }
                }
                _ => {}
            }
            i += 1;
        }
        out
    }

    /// Parse a potential guard binding starting at the `let` token.
    fn guard_at(&self, let_idx: usize, open_stack: &[usize]) -> Option<GuardBinding> {
        let toks = &self.toks;
        // Binding name (for `drop(name)` scope cuts). Patterns other than
        // a plain identifier get no name.
        let mut j = let_idx + 1;
        if toks.get(j)?.is_ident("mut") {
            j += 1;
        }
        let name = toks.get(j).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone());

        // Find `=` then the terminating `;` at bracket depth 0.
        let mut depth = 0i32;
        let mut eq = None;
        let mut semi = None;
        let mut k = let_idx + 1;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return None; // malformed / end of block
                    }
                    depth -= 1;
                }
                "=" if depth == 0 && eq.is_none() => eq = Some(k),
                ";" if depth == 0 => {
                    semi = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let (eq, semi) = (eq?, semi?);
        // Classify using only brace-depth-0 tokens of the initializer: a
        // guard constructed inside a nested block expression (e.g.
        // `let v = { let _np = …; f() }.g();`) belongs to that inner
        // block's binding, not to this one.
        let mut bdepth = 0i32;
        let init: Vec<&crate::lexer::Tok> = toks[eq + 1..semi]
            .iter()
            .filter(|t| match t.text.as_str() {
                "{" => {
                    bdepth += 1;
                    false
                }
                "}" => {
                    bdepth -= 1;
                    false
                }
                _ => bdepth == 0,
            })
            .collect();

        // Classify the initializer.
        let is_nonpreempt = init.iter().any(|t| t.is_ident("NonPreemptGuard"))
            && init.iter().any(|t| t.is_ident("enter"));
        let is_registry = init.iter().any(|t| t.is_ident("registry"))
            && init
                .windows(3)
                .any(|w| w[0].is(".") && w[1].is_ident("enter") && w[2].is("("));
        let mut kind = None;
        let mut key = String::new();
        if is_nonpreempt {
            kind = Some(GuardKind::NonPreempt);
        } else if is_registry {
            kind = Some(GuardKind::Registry);
        } else if init.iter().any(|t| t.is_ident("latch")) {
            // Find `.read(` / `.write(` / `.try_write(` / `.upgrade(` and
            // build the key from everything before the method's `.`.
            for (off, w) in init.windows(3).enumerate() {
                if w[0].is(".")
                    && matches!(w[1].text.as_str(), "read" | "write" | "try_write" | "upgrade")
                    && w[2].is("(")
                {
                    kind = Some(GuardKind::Latch);
                    key = init[..off]
                        .iter()
                        .filter(|t| !matches!(t.text.as_str(), "&" | "*" | "mut"))
                        .map(|t| t.text.as_str())
                        .collect::<Vec<_>>()
                        .join("");
                    break;
                }
            }
        }
        let kind = kind?;

        // Scope: from the `;` to the close of the innermost enclosing
        // block, cut short by an explicit `drop(name)` or
        // `std::mem::forget(name)`. Registry guards additionally end at
        // `name.publish(…)` — the provisional window closes there.
        let mut end = open_stack
            .last()
            .and_then(|open| self.braces.get(open).copied())
            .unwrap_or(toks.len());
        if let Some(name) = &name {
            let mut d = semi;
            while d + 2 < end {
                if (toks[d].is_ident("drop") || toks[d].is_ident("forget"))
                    && toks[d + 1].is("(")
                    && toks[d + 2].is(name)
                {
                    end = d;
                    break;
                }
                if kind == GuardKind::Registry
                    && toks[d].is(name)
                    && toks[d + 1].is(".")
                    && toks[d + 2].is_ident("publish")
                {
                    end = d;
                    break;
                }
                d += 1;
            }
        }

        Some(GuardBinding {
            kind,
            key,
            line: toks[let_idx].line,
            start: semi,
            end,
            func: self.enclosing_fn(let_idx),
        })
    }

    /// Parse `use` declarations into an alias map: local name → full
    /// path segments. Handles nested groups (`use a::{b, c::{d as e}};`)
    /// and `as` renames; glob imports are ignored (nothing to alias).
    fn find_uses(&self) -> HashMap<String, Vec<String>> {
        let mut out = HashMap::new();
        let mut i = 0;
        while i < self.toks.len() {
            if self.toks[i].is_ident("use") && !self.skipped(i) {
                let mut cur = i + 1;
                self.use_tree(&mut cur, &[], &mut out);
                i = cur;
            }
            i += 1;
        }
        out
    }

    /// Parse one use-tree at cursor `i` (grammar: `path (::{tree,…} | as
    /// alias)?`), leaving the cursor on the terminator (`;`, `,`, or the
    /// group's `}` — consumed for nested groups, left for the caller's
    /// separator otherwise).
    fn use_tree(&self, i: &mut usize, prefix: &[String], out: &mut HashMap<String, Vec<String>>) {
        let toks = &self.toks;
        let mut path: Vec<String> = prefix.to_vec();
        let mut last: Option<String> = None;
        while let Some(t) = toks.get(*i) {
            match t.text.as_str() {
                ";" | "," | "}" => break, // terminator: caller consumes
                ":" => *i += 1,
                "{" => {
                    // Group: recurse per comma-separated subtree.
                    *i += 1;
                    if let Some(seg) = last.take() {
                        path.push(seg);
                    }
                    loop {
                        self.use_tree(i, &path, out);
                        match toks.get(*i).map(|t| t.text.as_str()) {
                            Some(",") => *i += 1,
                            Some("}") => {
                                *i += 1;
                                return;
                            }
                            _ => return, // malformed / end of input
                        }
                    }
                }
                "as" if t.kind == TokKind::Ident => {
                    *i += 1;
                    let alias = toks
                        .get(*i)
                        .filter(|n| n.kind == TokKind::Ident)
                        .map(|n| n.text.clone());
                    if let (Some(seg), Some(alias)) = (last.take(), alias) {
                        *i += 1;
                        path.push(seg);
                        out.insert(alias, path.clone());
                    }
                }
                "*" => {
                    last = None; // glob: nothing to alias
                    *i += 1;
                }
                _ if t.kind == TokKind::Ident => {
                    if let Some(seg) = last.take() {
                        path.push(seg);
                    }
                    last = Some(t.text.clone());
                    *i += 1;
                }
                _ => *i += 1,
            }
        }
        if let Some(seg) = last {
            path.push(seg.clone());
            out.insert(seg, path);
        }
    }

    /// Find `impl` blocks and the (last segment of the) implementing type.
    fn find_impls(&self) -> Vec<ImplBlock> {
        let toks = &self.toks;
        let mut out = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if !toks[i].is_ident("impl") {
                i += 1;
                continue;
            }
            // Walk to the body `{`, tracking the last ident seen at
            // angle/paren depth 0 before `{`/`where`; an ident after
            // `for` overrides (the implementing type of a trait impl).
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut last_ident: Option<String> = None;
            let mut after_for: Option<String> = None;
            let mut in_for = false;
            let mut body = None;
            while j < toks.len() {
                let t = &toks[j];
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "(" | "[" => angle += 1, // tuple/array types: skip inside
                    ")" | "]" => angle -= 1,
                    "where" if angle <= 0 && t.kind == TokKind::Ident => {
                        // Type portion ended.
                        while j < toks.len() && !toks[j].is("{") {
                            j += 1;
                        }
                        continue;
                    }
                    "for" if angle <= 0 && t.kind == TokKind::Ident => in_for = true,
                    "{" if angle <= 0 => {
                        if let Some(&close) = self.braces.get(&j) {
                            body = Some((j, close));
                        }
                        break;
                    }
                    ";" if angle <= 0 => break,
                    _ if t.kind == TokKind::Ident && angle <= 0 => {
                        if in_for {
                            after_for = Some(t.text.clone());
                        } else {
                            last_ident = Some(t.text.clone());
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if let (Some((open, close)), Some(ty)) = (body, after_for.or(last_ident)) {
                out.push(ImplBlock { ty, open, close });
            }
            i = j + 1;
        }
        out
    }

    /// Names of `static NAME: ClsCell<…>` items in this file.
    fn find_cls_statics(&self) -> Vec<String> {
        let toks = &self.toks;
        let mut out = Vec::new();
        for i in 0..toks.len().saturating_sub(3) {
            if toks[i].is_ident("static")
                && toks[i + 1].kind == TokKind::Ident
                && toks[i + 2].is(":")
                && toks
                    .get(i + 3)
                    .is_some_and(|t| t.is_ident("ClsCell"))
            {
                out.push(toks[i + 1].text.clone());
            }
        }
        out
    }

    fn find_allows(&self) -> Vec<Allow> {
        let mut out = Vec::new();
        for c in &self.comments {
            let Some(pos) = c.text.find("preempt-lint: allow(") else { continue };
            let rest = &c.text[pos + "preempt-lint: allow(".len()..];
            let Some(close) = rest.find(')') else { continue };
            let rule = rest[..close].trim().to_string();
            let tail = &rest[close + 1..];
            let has_reason = tail.chars().filter(|ch| ch.is_alphanumeric()).count() >= 3;
            // Covered lines: the comment's own span plus the next line
            // bearing a token.
            let last = c.line + c.lines - 1;
            let mut covers: Vec<u32> = (c.line..=last).collect();
            if let Some(next) = self.toks.iter().map(|t| t.line).filter(|&l| l > last).min() {
                covers.push(next);
            }
            out.push(Allow { rule, line: c.line, covers, has_reason });
        }
        out
    }

    /// Does a comment containing a safety justification (`SAFETY` or
    /// `# Safety`) cover line `line` or the contiguous comment/attribute
    /// lines directly above it?
    pub fn has_safety_comment(&self, line: u32) -> bool {
        // Walk upward through contiguous comment/attribute lines.
        let mut top = line;
        while top > 1 {
            let prev = top - 1;
            let Some(text) = self.src_lines.get(prev as usize - 1) else { break };
            let t = text.trim_start();
            let is_comment = t.starts_with("//")
                || t.starts_with("/*")
                || t.starts_with('*')
                || self.comments.iter().any(|c| prev >= c.line && prev < c.line + c.lines);
            let is_attr = t.starts_with("#[") || t.starts_with("#!");
            if is_comment || is_attr {
                top = prev;
            } else {
                break;
            }
        }
        self.comments.iter().any(|c| {
            let c_end = c.line + c.lines - 1;
            c_end >= top && c.line <= line && (c.text.contains("SAFETY") || c.text.contains("# Safety"))
        })
    }

    /// The source line on which the statement containing token `i`
    /// starts (scan back to the nearest `;`/`{`/`}`/`,`).
    pub fn stmt_start_line(&self, i: usize) -> u32 {
        let mut j = i;
        while j > 0 {
            let t = &self.toks[j - 1];
            if matches!(t.text.as_str(), ";" | "{" | "}" | ",") || t.is("]") && self.attr_close(j - 1)
            {
                break;
            }
            j -= 1;
        }
        self.tok(j).map(|t| t.line).unwrap_or(self.toks[i].line)
    }

    /// Is the `]` at index `i` the end of an outer attribute?
    fn attr_close(&self, i: usize) -> bool {
        // Scan back to the matching `[`; an attribute starts with `#`.
        let mut depth = 1i32;
        let mut j = i;
        while j > 0 {
            j -= 1;
            match self.toks[j].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        return j > 0 && self.toks[j - 1].is("#");
                    }
                }
                _ => {}
            }
        }
        false
    }

    /// Collect the `Ordering` idents appearing in the argument list that
    /// starts at the `(` token index `open`.
    pub fn orderings_in_call(&self, open: usize) -> Vec<&str> {
        let Some(close) = self.matching_paren(open) else { return Vec::new() };
        self.toks[open..=close]
            .iter()
            .filter(|t| t.kind == TokKind::Ident && ORDERINGS.contains(&t.text.as_str()))
            .map(|t| t.text.as_str())
            .collect()
    }

    /// Paren matching on demand (the braces map only covers `{}`).
    /// Argument lists are short, so a bounded forward scan suffices.
    pub fn matching_paren(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        for (off, t) in self.toks[open..].iter().enumerate() {
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
            if off > 512 {
                break; // degenerate; give up
            }
        }
        None
    }
}

/// Normalized in-code crate name for a workspace-relative path:
/// `crates/mvcc/src/…` → `preempt_mvcc`, `crates/core/…` → `preemptdb`
/// (the one package whose lib name drops the prefix). Non-workspace
/// paths (fixtures) use the path itself so same-crate resolution
/// degenerates to same-file — exactly right for single-file analysis.
pub fn crate_name_of(path: &str) -> String {
    match path.strip_prefix("crates/").and_then(|r| r.split('/').next()) {
        Some("core") => "preemptdb".to_string(),
        Some(dir) => format!("preempt_{dir}"),
        None => path.to_string(),
    }
}

fn match_braces(toks: &[Tok]) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "{" => stack.push(i),
            "}" => {
                if let Some(open) = stack.pop() {
                    map.insert(open, i);
                    map.insert(i, open);
                }
            }
            _ => {}
        }
    }
    map
}

/// Find token ranges to exclude: bodies of items annotated
/// `#[cfg(test)]` or `#[cfg(loom)]` (including `any(...)` forms, but not
/// `not(...)` forms).
fn find_skips(toks: &[Tok], braces: &HashMap<usize, usize>) -> Vec<(usize, usize)> {
    let mut skips = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is("#") && toks[i + 1].is("[") {
            // Find the matching `]`.
            let mut depth = 0i32;
            let mut close = None;
            for (off, t) in toks[i + 1..].iter().enumerate() {
                match t.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            close = Some(i + 1 + off);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let Some(close) = close else {
                i += 1;
                continue;
            };
            let attr = &toks[i + 2..close];
            let has_cfg = attr.iter().any(|t| t.is_ident("cfg"));
            let gated = attr.iter().any(|t| t.is_ident("test") || t.is_ident("loom"));
            let negated = attr.iter().any(|t| t.is_ident("not"));
            if has_cfg && gated && !negated {
                // Skip further attributes, then the next `{ … }` before a
                // `;` is the gated body. A `}` first means the gated item
                // had no body and was the last of its block (a struct
                // field): what follows the block is not gated.
                let mut j = close + 1;
                while j + 1 < toks.len() && toks[j].is("#") && toks[j + 1].is("[") {
                    let mut d = 0i32;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                }
                let mut depth = 0i32;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        ";" | "}" if depth == 0 => break,
                        "{" if depth == 0 => {
                            if let Some(&end) = braces.get(&j) {
                                skips.push((j, end));
                            }
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    skips
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_bodies_are_skipped() {
        let src = "fn a() { x(); }\n#[cfg(test)]\nmod tests { fn t() { y(); } }\n";
        let m = FileModel::build("t.rs", src);
        let y_idx = m.toks.iter().position(|t| t.is_ident("y")).unwrap();
        let x_idx = m.toks.iter().position(|t| t.is_ident("x")).unwrap();
        assert!(m.skipped(y_idx));
        assert!(!m.skipped(x_idx));
    }

    #[test]
    fn a_gated_field_does_not_hide_the_next_block() {
        let src = "struct S {\n    a: u8,\n    #[cfg(loom)]\n    teeth: bool,\n}\nimpl S { fn f() { x(); } }\n";
        let m = FileModel::build("t.rs", src);
        let x_idx = m.toks.iter().position(|t| t.is_ident("x")).unwrap();
        assert!(!m.skipped(x_idx), "the impl after the struct is not gated");
        let src = "fn f(s: &S) { #[cfg(loom)] if s.teeth { y(); } x(); }\n";
        let m = FileModel::build("t.rs", src);
        let pos = |name| m.toks.iter().position(|t| t.is_ident(name)).unwrap();
        assert!(m.skipped(pos("y")) && !m.skipped(pos("x")));
    }

    #[test]
    fn guards_and_scopes() {
        let src = "fn f(r: &R) {\n    let g = r.latch.read();\n    touch();\n    drop(g);\n    after();\n}\n";
        let m = FileModel::build("t.rs", src);
        assert_eq!(m.guards.len(), 1);
        let g = &m.guards[0];
        assert_eq!(g.kind, GuardKind::Latch);
        assert_eq!(g.key, "r.latch");
        let after_idx = m.toks.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(g.end <= after_idx, "drop(g) should cut the scope");
    }

    #[test]
    fn allow_parsing() {
        let src = "// preempt-lint: allow(handler-panic) — abort is the contract here.\nfoo();\n// preempt-lint: allow(handler-alloc)\nbar();\n";
        let m = FileModel::build("t.rs", src);
        assert_eq!(m.allows.len(), 2);
        assert!(m.allows[0].has_reason);
        assert!(m.allows[0].covers.contains(&2));
        assert!(!m.allows[1].has_reason);
    }

    #[test]
    fn use_aliases_cover_groups_and_renames() {
        let src = "use preempt_context::nonpreempt::NonPreemptGuard;\n\
                   use crate::lexer::{lex, Comment as C, Tok};\n\
                   use std::collections::*;\n";
        let m = FileModel::build("crates/analysis/src/x.rs", src);
        assert_eq!(
            m.uses.get("NonPreemptGuard").unwrap(),
            &vec![
                "preempt_context".to_string(),
                "nonpreempt".to_string(),
                "NonPreemptGuard".to_string()
            ]
        );
        assert_eq!(
            m.uses.get("C").unwrap(),
            &vec!["crate".to_string(), "lexer".to_string(), "Comment".to_string()]
        );
        assert_eq!(
            m.uses.get("Tok").unwrap(),
            &vec!["crate".to_string(), "lexer".to_string(), "Tok".to_string()]
        );
        assert!(m.uses.contains_key("lex"));
        assert!(!m.uses.contains_key("*"));
    }

    #[test]
    fn impl_blocks_record_receiver_type() {
        let src = "struct Foo;\nimpl Foo { fn m(&self) {} }\n\
                   impl<T: Clone> Drop for Bar<T> where T: Send { fn drop(&mut self) {} }\n";
        let m = FileModel::build("t.rs", src);
        assert_eq!(m.impls.len(), 2);
        assert_eq!(m.impls[0].ty, "Foo");
        assert_eq!(m.impls[1].ty, "Bar");
        let m_idx = m.toks.iter().position(|t| t.is_ident("m")).unwrap();
        assert_eq!(m.impl_type_at(m_idx + 2), Some("Foo"));
    }

    #[test]
    fn registry_guard_window_ends_at_publish() {
        let src = "fn begin(e: &E) {\n    let slot = e.registry.enter(0);\n    let ts = e.clock();\n    slot.publish(ts);\n    later();\n}\n";
        let m = FileModel::build("t.rs", src);
        assert_eq!(m.guards.len(), 1);
        let g = &m.guards[0];
        assert_eq!(g.kind, GuardKind::Registry);
        let later = m.toks.iter().position(|t| t.is_ident("later")).unwrap();
        let publish = m.toks.iter().position(|t| t.is_ident("publish")).unwrap();
        assert!(g.end <= publish, "window must close at publish");
        assert!(g.end < later);
    }

    #[test]
    fn cls_statics_are_found() {
        let src = "static CURRENT: ClsCell<u64> = ClsCell::new(|| 0);\nstatic OTHER: u32 = 0;\n";
        let m = FileModel::build("t.rs", src);
        assert_eq!(m.cls_statics, vec!["CURRENT".to_string()]);
    }

    #[test]
    fn crate_names_normalize() {
        assert_eq!(crate_name_of("crates/mvcc/src/latch.rs"), "preempt_mvcc");
        assert_eq!(crate_name_of("crates/core/src/lib.rs"), "preemptdb");
        assert_eq!(crate_name_of("fixtures/upid.rs"), "fixtures/upid.rs");
    }

    #[test]
    fn safety_comment_detection() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid.\n    unsafe { *p }\n}\nfn g(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let m = FileModel::build("t.rs", src);
        assert!(m.has_safety_comment(3));
        assert!(!m.has_safety_comment(6));
    }
}
