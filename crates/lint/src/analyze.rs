//! The rules engine: a single linear pass over the token stream of one
//! file, tracking brace/paren depth, test regions and live lock guards.
//!
//! Guard lifetime model (deliberately conservative, token-level):
//! - `let g = recv.lock();` — guard lives until the enclosing brace
//!   closes, `drop(g)` runs, or `g` is shadowed by a new `let g`.
//! - a temporary (`recv.lock().field`, `if let .. = recv.lock().x() {`)
//!   lives until the `;` ending its statement at the same brace depth,
//!   or until a `}` returns to the depth it was acquired at (covers
//!   `if let`/`while let`/`for` headers whose temporaries live through
//!   the block).
//!
//! Because the pass is lexical, guards never leak across function
//! boundaries: every guard dies at its function's closing brace.

use crate::config::LintConfig;
use crate::lexer::{lex, Comment, TokKind, Token};
use crate::Finding;

pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_LOCK_ACROSS_RPC: &str = "lock-across-rpc";
pub const RULE_STD_LOCK: &str = "std-lock";
pub const RULE_NO_PANIC: &str = "no-panic";
pub const RULE_SAFETY: &str = "safety-comment";
pub const RULE_NO_PRINTLN: &str = "no-println-hot-path";
pub const RULE_NO_HOT_COPY: &str = "no-hot-copy";
pub const RULE_NO_TIME_UNDER_LOCK: &str = "no-time-under-lock";

/// Method names that acquire a lock guard when called with no arguments.
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];
/// Method names that cross an RPC / replication boundary.
const RPC_METHODS: [&str; 3] = ["call", "call_async", "start"];
/// Receiver identifiers that, by workspace convention, carry record
/// payload bytes. `.to_vec()` / `.clone()` on one of these in a
/// `copy_crates` crate is a full-payload copy on the data plane — the
/// zero-copy invariant the `no-hot-copy` rule protects. Cheap refcount
/// clones (`Bytes`) still match; annotate them with
/// `// lint: allow(no-hot-copy) — refcount clone` so every survivor in
/// the hot path is an audited decision, not an accident.
const PAYLOAD_RECEIVERS: [&str; 7] =
    ["payload", "chunks", "data", "buf", "body", "bytes", "batch"];

struct Guard {
    /// Receiver identifier the guard came from (for messages).
    recv: String,
    /// Lock class resolved through the config, if declared.
    class: Option<String>,
    /// `let`-binding name, if the guard is named.
    binding: Option<String>,
    /// Brace depth at acquisition.
    depth: i32,
    line: u32,
}

struct Allow {
    line: u32,
    rule: String,
    has_reason: bool,
}

/// Analyzes one file. Returns the unsuppressed findings and the number
/// of findings suppressed by valid `// lint: allow(...)` annotations.
pub fn analyze(
    path: &str,
    krate: &str,
    src: &str,
    in_test_file: bool,
    cfg: &LintConfig,
) -> (Vec<Finding>, usize) {
    let lexed = lex(src);
    let allows = parse_allows(&lexed.comments);
    let safety_lines = safety_spans(&lexed.comments);

    let mut raw = token_pass(path, krate, &lexed.tokens, in_test_file, cfg, &safety_lines);
    raw.sort_by_key(|f| f.line);

    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for mut f in raw {
        match allow_for(&allows, f.rule, f.line) {
            Some(true) => suppressed += 1,
            Some(false) => {
                f.message.push_str(" [allow annotation found but missing a reason]");
                findings.push(f);
            }
            None => findings.push(f),
        }
    }
    (findings, suppressed)
}

/// `Some(has_reason)` when an allow annotation for `rule` covers `line`
/// (same line or up to two lines above), `None` when none does.
fn allow_for(allows: &[Allow], rule: &str, line: u32) -> Option<bool> {
    allows
        .iter()
        .filter(|a| a.rule == rule && a.line <= line && a.line + 2 >= line)
        .map(|a| a.has_reason)
        .max() // prefer an annotation with a reason if several match
}

/// Line spans of `// SAFETY:` comment blocks. Adjacent line comments are
/// merged into one block first, so a multi-line SAFETY comment covers an
/// `unsafe` within 8 lines of the block's *end*, not of the one line
/// containing the marker.
fn safety_spans(comments: &[Comment<'_>]) -> Vec<(u32, u32)> {
    let mut blocks: Vec<(u32, u32, bool)> = Vec::new();
    for c in comments {
        let has = c.text.contains("SAFETY:");
        match blocks.last_mut() {
            Some((_, last, block_has)) if c.first_line <= *last + 1 => {
                *last = c.last_line;
                *block_has |= has;
            }
            _ => blocks.push((c.first_line, c.last_line, has)),
        }
    }
    blocks.into_iter().filter(|b| b.2).map(|b| (b.0, b.1)).collect()
}

fn parse_allows(comments: &[Comment<'_>]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let Some(p) = c.text.find("lint: allow(") else { continue };
        let rest = &c.text[p + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .trim_start_matches(|ch: char| ch == '—' || ch == '-' || ch == ':' || ch.is_whitespace());
        out.push(Allow {
            line: c.last_line,
            rule,
            has_reason: reason.len() >= 3,
        });
    }
    out
}

#[allow(clippy::too_many_lines)]
fn token_pass(
    path: &str,
    krate: &str,
    toks: &[Token<'_>],
    in_test_file: bool,
    cfg: &LintConfig,
    safety_lines: &[(u32, u32)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let hot_path = cfg.hot_path_crates.iter().any(|c| c == krate);
    let println_banned = cfg.println_crates.iter().any(|c| c == krate);
    let copy_banned = cfg.copy_crates.iter().any(|c| c == krate);

    let is_punct = |i: usize, s: &str| {
        toks.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    };
    let ident_at = |i: usize| {
        toks.get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
    };

    let mut i = 0usize;
    let mut depth = 0i32;
    let mut parens = 0i32;
    // Brace depths at which `#[test]` / `#[cfg(test)]` regions opened.
    let mut test_stack: Vec<i32> = Vec::new();
    let mut pending_test = false;
    let mut guards: Vec<Guard> = Vec::new();

    while i < toks.len() {
        let t = &toks[i];
        let in_test = in_test_file || !test_stack.is_empty();
        match (t.kind, t.text) {
            (TokKind::Punct, "{") => {
                if pending_test {
                    test_stack.push(depth);
                    pending_test = false;
                }
                depth += 1;
            }
            (TokKind::Punct, "}") => {
                depth -= 1;
                if test_stack.last() == Some(&depth) {
                    test_stack.pop();
                }
                guards.retain(|g| {
                    if g.binding.is_some() { g.depth <= depth } else { g.depth < depth }
                });
            }
            (TokKind::Punct, ";") if parens == 0 => {
                guards.retain(|g| g.binding.is_some() || g.depth != depth);
                pending_test = false;
            }
            (TokKind::Punct, "(") => parens += 1,
            (TokKind::Punct, ")") => parens -= 1,
            (TokKind::Punct, "#") => {
                // Attribute: `#[...]` or `#![...]`. Skip its tokens; an
                // outer attribute mentioning `test` (and not `not`)
                // marks the next braced item as test code.
                let open = if is_punct(i + 1, "[") {
                    Some(i + 1)
                } else if is_punct(i + 1, "!") && is_punct(i + 2, "[") {
                    Some(i + 2)
                } else {
                    None
                };
                if let Some(open) = open {
                    let (end, is_test) = scan_attribute(toks, open);
                    if is_test && open == i + 1 {
                        pending_test = true;
                    }
                    i = end;
                    continue;
                }
            }
            (TokKind::Ident, "let") => {
                // Shadowing releases a previously let-bound guard.
                let mut j = i + 1;
                if ident_at(j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = ident_at(j) {
                    if is_punct(j + 1, "=") || is_punct(j + 1, ":") {
                        guards.retain(|g| {
                            g.binding.as_deref() != Some(name) || g.depth != depth
                        });
                    }
                }
            }
            (TokKind::Ident, "drop")
                if is_punct(i + 1, "(") && ident_at(i + 2).is_some() && is_punct(i + 3, ")") =>
            {
                let name = ident_at(i + 2).unwrap_or_default();
                guards.retain(|g| g.binding.as_deref() != Some(name));
            }
            (TokKind::Ident, "unsafe") => {
                let needs_comment =
                    is_punct(i + 1, "{") || ident_at(i + 1) == Some("impl");
                if needs_comment {
                    let line = t.line;
                    let covered = safety_lines
                        .iter()
                        .any(|&(_, last)| last <= line + 1 && last + 8 >= line);
                    if !covered {
                        findings.push(finding(
                            path,
                            line,
                            RULE_SAFETY,
                            "`unsafe` block without a nearby `// SAFETY:` comment justifying it"
                                .to_string(),
                        ));
                    }
                }
            }
            (TokKind::Ident, "std")
                if is_punct(i + 1, ":")
                    && is_punct(i + 2, ":")
                    && ident_at(i + 3) == Some("sync")
                    && is_punct(i + 4, ":")
                    && is_punct(i + 5, ":") =>
            {
                for (line, name) in std_sync_lock_uses(toks, i + 6) {
                    findings.push(finding(
                        path,
                        line,
                        RULE_STD_LOCK,
                        format!(
                            "`std::sync::{name}` is banned outside crates/shims — use the \
                             parking_lot shim"
                        ),
                    ));
                }
            }
            (TokKind::Ident, m @ ("println" | "eprintln" | "dbg"))
                if is_punct(i + 1, "!") && println_banned && !in_test =>
            {
                findings.push(finding(
                    path,
                    t.line,
                    RULE_NO_PRINTLN,
                    format!(
                        "`{m}!` in non-test hot-path code — route diagnostics through the \
                         obs event log / flight recorder, or annotate \
                         `// lint: allow(no-println-hot-path) — <reason>`"
                    ),
                ));
            }
            (TokKind::Ident, "panic") if is_punct(i + 1, "!") && hot_path && !in_test => {
                findings.push(finding(
                    path,
                    t.line,
                    RULE_NO_PANIC,
                    "`panic!` in non-test hot-path code — return a KeraError instead"
                        .to_string(),
                ));
            }
            (TokKind::Ident, m @ ("unwrap" | "expect"))
                if is_punct(i + 1, "(")
                    && i > 0
                    && toks[i - 1].text == "."
                    && hot_path
                    && !in_test =>
            {
                findings.push(finding(
                    path,
                    t.line,
                    RULE_NO_PANIC,
                    format!(
                        "`.{m}()` in non-test hot-path code — return a KeraError or \
                         annotate `// lint: allow(no-panic) — <reason>`"
                    ),
                ));
            }
            (TokKind::Ident, m @ ("to_vec" | "clone"))
                if is_punct(i + 1, "(")
                    && is_punct(i + 2, ")")
                    && i > 0
                    && toks[i - 1].text == "."
                    && copy_banned
                    && !in_test =>
            {
                let recv = receiver_of(toks, i).unwrap_or_default();
                if PAYLOAD_RECEIVERS.contains(&recv.as_str()) {
                    findings.push(finding(
                        path,
                        t.line,
                        RULE_NO_HOT_COPY,
                        format!(
                            "`{recv}.{m}()` copies a payload on the data plane — slice a \
                             `Bytes` view instead, or annotate \
                             `// lint: allow(no-hot-copy) — <reason>` (e.g. refcount clone)"
                        ),
                    ));
                }
            }
            (TokKind::Ident, "Instant")
                if is_punct(i + 1, ":")
                    && is_punct(i + 2, ":")
                    && ident_at(i + 3) == Some("now")
                    && is_punct(i + 4, "(")
                    && hot_path
                    && !in_test =>
            {
                // Reading the clock is a syscall-ish stall (~20-60ns, and
                // vastly worse under vDSO fallback); doing it inside a
                // guard scope stretches every contender's wait. The lock
                // shim's two-phase contention timer is the sanctioned way
                // to time lock waits (crates/shims is skip-listed).
                for g in &guards {
                    findings.push(finding(
                        path,
                        t.line,
                        RULE_NO_TIME_UNDER_LOCK,
                        format!(
                            "`Instant::now()` while holding guard on `{}`{} acquired at \
                             line {} — read the clock before acquiring, or annotate \
                             `// lint: allow(no-time-under-lock) — <reason>`",
                            g.recv,
                            g.class
                                .as_deref()
                                .map(|c| format!(" [class {c}]"))
                                .unwrap_or_default(),
                            g.line
                        ),
                    ));
                }
            }
            (TokKind::Ident, m)
                if RPC_METHODS.contains(&m)
                    && is_punct(i + 1, "(")
                    && i > 0
                    && toks[i - 1].text == "."
                    && !in_test =>
            {
                for g in &guards {
                    findings.push(finding(
                        path,
                        t.line,
                        RULE_LOCK_ACROSS_RPC,
                        format!(
                            "`.{m}(...)` (RPC boundary) while holding guard on `{}`{} \
                             acquired at line {} — release the lock before blocking on RPC",
                            g.recv,
                            g.class
                                .as_deref()
                                .map(|c| format!(" [class {c}]"))
                                .unwrap_or_default(),
                            g.line
                        ),
                    ));
                }
            }
            (TokKind::Ident, m)
                if ACQUIRE_METHODS.contains(&m)
                    && is_punct(i + 1, "(")
                    && is_punct(i + 2, ")")
                    && i > 0
                    && toks[i - 1].text == "." =>
            {
                let recv = receiver_of(toks, i).unwrap_or_else(|| "<expr>".to_string());
                let class = cfg.class_of(krate, &recv);
                if !in_test {
                    if let Some(new_rank) = class.as_deref().and_then(|c| cfg.rank(c)) {
                        for g in &guards {
                            let held_rank = g.class.as_deref().and_then(|c| cfg.rank(c));
                            if held_rank.is_some_and(|hr| new_rank < hr) {
                                findings.push(finding(
                                    path,
                                    t.line,
                                    RULE_LOCK_ORDER,
                                    format!(
                                        "acquiring `{}` (via `{recv}.{m}()`) while holding \
                                         `{}` (acquired line {}) — lock-order.toml declares \
                                         `{}` must be taken first",
                                        class.as_deref().unwrap_or(&recv),
                                        g.class.as_deref().unwrap_or(&g.recv),
                                        g.line,
                                        class.as_deref().unwrap_or(&recv),
                                    ),
                                ));
                            }
                        }
                    }
                }
                // The guard is named only when the *whole statement*
                // is `[let [mut]] name = recv.lock();` — anything
                // chained after the call (`.get(..)`, `.len()`)
                // means the binding holds a derived value and the
                // guard itself is a temporary.
                let binding = if is_punct(i + 3, ";") {
                    binding_of_statement(toks, i)
                } else {
                    None
                };
                guards.push(Guard { recv, class, binding, depth, line: t.line });
            }
            _ => {}
        }
        i += 1;
    }
    findings
}

fn finding(path: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding { file: path.to_string(), line, rule, message }
}

/// Scans an attribute starting at the `[` index. Returns (index one past
/// the matching `]`, whether it marks test code).
fn scan_attribute(toks: &[Token<'_>], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text) {
            (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, saw_test && !saw_not);
                }
            }
            (TokKind::Ident, "test") => saw_test = true,
            (TokKind::Ident, "not") => saw_not = true,
            _ => {}
        }
        i += 1;
    }
    (toks.len(), saw_test && !saw_not)
}

/// Reports `Mutex`/`RwLock` names reachable right after a `std::sync::`
/// path prefix ending at `start` — either a single segment or a
/// `{ ... }` use-group.
fn std_sync_lock_uses<'a>(toks: &[Token<'a>], start: usize) -> Vec<(u32, &'a str)> {
    let banned = |t: &Token<'a>| t.kind == TokKind::Ident && (t.text == "Mutex" || t.text == "RwLock");
    let mut out = Vec::new();
    match toks.get(start) {
        Some(t) if banned(t) => out.push((t.line, t.text)),
        Some(t) if t.kind == TokKind::Punct && t.text == "{" => {
            let mut depth = 0i32;
            for u in &toks[start..] {
                if u.kind == TokKind::Punct {
                    match u.text {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                } else if banned(u) {
                    out.push((u.line, u.text));
                }
            }
        }
        _ => {}
    }
    out
}

/// Walks backwards from the acquire-method token to name the receiver:
/// the nearest identifier, skipping balanced `(...)` / `[...]` groups.
/// `self.slots[i as usize].lock()` names `slots`.
fn receiver_of(toks: &[Token<'_>], method_idx: usize) -> Option<String> {
    let mut j = method_idx.checked_sub(2)?;
    loop {
        let t = toks.get(j)?;
        match (t.kind, t.text) {
            (TokKind::Punct, close @ (")" | "]")) => {
                let open = if close == ")" { "(" } else { "[" };
                let mut depth = 1i32;
                while depth > 0 {
                    j = j.checked_sub(1)?;
                    let u = toks.get(j)?;
                    if u.kind == TokKind::Punct {
                        if u.text == close {
                            depth += 1;
                        } else if u.text == open {
                            depth -= 1;
                        }
                    }
                }
                j = j.checked_sub(1)?;
            }
            (TokKind::Ident, name) => return Some(name.to_string()),
            (TokKind::Punct, "." | ":") => j = j.checked_sub(1)?,
            _ => return None,
        }
    }
}

/// Name bound by the statement containing token `from`, when it has the
/// shape `[let [mut]] name = ...` or `let name: Type = ...` — covers
/// both fresh bindings and reacquisition into an existing `mut` slot
/// (`st = self.state.lock();`). Bounded backward scan to the statement
/// boundary (`;`, `{`, `}`).
fn binding_of_statement(toks: &[Token<'_>], from: usize) -> Option<String> {
    let lo = from.saturating_sub(40);
    let mut k = from;
    let mut start = None;
    while k > lo {
        k -= 1;
        let t = &toks[k];
        if t.kind == TokKind::Punct && matches!(t.text, ";" | "{" | "}") {
            start = Some(k + 1);
            break;
        }
    }
    let s = start?;
    let is_let = toks.get(s).is_some_and(|t| t.text == "let");
    let mut n = s;
    if is_let {
        n += 1;
    }
    if toks.get(n).is_some_and(|t| t.text == "mut") {
        n += 1;
    }
    let name = toks.get(n).filter(|t| t.kind == TokKind::Ident)?;
    let eq = toks.get(n + 1)?;
    if eq.kind == TokKind::Punct && (eq.text == "=" || (eq.text == ":" && is_let)) {
        Some(name.text.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LintConfig {
        LintConfig::parse(
            r#"
[hierarchy]
order = ["a.outer", "b.inner"]
[rules]
hot_path_crates = ["hot"]
copy_crates = ["hot"]
[aliases]
outer = "a.outer"
inner = "b.inner"
"#,
        )
        .unwrap()
    }

    fn run(krate: &str, src: &str) -> Vec<Finding> {
        analyze("test.rs", krate, src, false, &cfg()).0
    }

    #[test]
    fn lock_order_violation_fires() {
        let src = "fn f(s: &S) { let a = s.inner.lock(); let b = s.outer.lock(); }";
        let f = run("any", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LOCK_ORDER);
        assert!(f[0].message.contains("a.outer") && f[0].message.contains("b.inner"));
    }

    #[test]
    fn lock_order_respected_is_clean() {
        let src = "fn f(s: &S) { let a = s.outer.lock(); let b = s.inner.lock(); }";
        assert!(run("any", src).is_empty());
    }

    #[test]
    fn guard_dies_at_scope_end_and_drop() {
        let ordered = "fn f(s: &S) { { let b = s.inner.lock(); } let a = s.outer.lock(); }";
        assert!(run("any", ordered).is_empty());
        let dropped =
            "fn f(s: &S) { let b = s.inner.lock(); drop(b); let a = s.outer.lock(); }";
        assert!(run("any", dropped).is_empty());
    }

    #[test]
    fn temp_guard_dies_at_semicolon() {
        let src = "fn f(s: &S) { s.inner.lock().push(1); let a = s.outer.lock(); }";
        assert!(run("any", src).is_empty());
    }

    #[test]
    fn if_let_temp_guard_lives_through_block() {
        let src = "fn f(s: &S) { if let Some(x) = s.m.lock().get(0) { s.rpc.call(x); } }";
        let f = run("any", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LOCK_ACROSS_RPC);
        let after = "fn f(s: &S) { if let Some(x) = s.m.lock().get(0) { use_it(x); } s.rpc.call(1); }";
        assert!(run("any", after).is_empty());
    }

    #[test]
    fn rpc_under_let_guard_fires() {
        let src = "fn f(s: &S) { let g = s.state.lock(); s.net.call_async(g.x); }";
        let f = run("any", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_LOCK_ACROSS_RPC);
        assert!(f[0].message.contains("state"));
    }

    #[test]
    fn indexed_receiver_resolves() {
        let src = "fn f(s: &S) { let g = s.slots[i as usize].lock(); s.x.call(1); }";
        let f = run("any", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("slots"), "{}", f[0].message);
    }

    #[test]
    fn std_lock_banned() {
        let f = run("any", "use std::sync::{Arc, Mutex};");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_STD_LOCK);
        assert!(run("any", "use std::sync::{Arc, atomic::AtomicU64};").is_empty());
        assert_eq!(run("any", "type T = std::sync::RwLock<u8>;").len(), 1);
    }

    #[test]
    fn no_panic_only_in_hot_nontest() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); }";
        assert_eq!(run("hot", src).len(), 3);
        assert!(run("cold", src).is_empty());
        let test_mod = "#[cfg(test)] mod t { fn f() { x.unwrap(); } }";
        assert!(run("hot", test_mod).is_empty());
        let test_fn = "#[test] fn f() { x.unwrap(); } fn g() { y.unwrap(); }";
        assert_eq!(run("hot", test_fn).len(), 1);
    }

    #[test]
    fn unwrap_or_else_is_fine() {
        assert!(run("hot", "fn f() { x.unwrap_or_else(|| 0); }").is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_with_reason() {
        let src = "fn f() {\n    // lint: allow(no-panic) — startup invariant\n    x.unwrap();\n}";
        let (f, suppressed) = analyze("t.rs", "hot", src, false, &cfg());
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(suppressed, 1);
        let no_reason = "fn f() {\n    // lint: allow(no-panic)\n    x.unwrap();\n}";
        let (f, _) = analyze("t.rs", "hot", no_reason, false, &cfg());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("missing a reason"));
    }

    #[test]
    fn safety_comment_rules() {
        let bad = "fn f() { unsafe { do_it(); } }";
        let f = run("any", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_SAFETY);
        let good = "fn f() {\n    // SAFETY: justified here\n    unsafe { do_it(); }\n}";
        assert!(run("any", good).is_empty());
        let one_comment_two_impls =
            "// SAFETY: covers both impls\nunsafe impl Send for X {}\nunsafe impl Sync for X {}\n";
        assert!(run("any", one_comment_two_impls).is_empty());
        // `unsafe fn` declarations are exempt; their bodies’ blocks are not.
        assert!(run("any", "unsafe fn g();").is_empty());
    }

    #[test]
    fn chained_call_binds_value_not_guard() {
        // `let v = m.lock().get(..).cloned();` — the guard is a
        // temporary dying at the `;`, the binding holds a clone.
        let src = "fn f(s: &S) { let v = s.m.lock().get(0).cloned(); s.x.call(v); }";
        assert!(run("any", src).is_empty());
    }

    #[test]
    fn reacquisition_into_mut_binding_tracks() {
        let src = "fn f(s: &S) { let mut g = s.inner.lock(); drop(g); g = s.inner.lock(); let a = s.outer.lock(); }";
        let f = run("any", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LOCK_ORDER);
    }

    #[test]
    fn multiline_safety_block_covers_following_unsafe() {
        let src = "// SAFETY: a long justification\n// spanning many lines of detail\n// 3\n// 4\n// 5\n// 6\n// 7\n// 8\n// 9\nunsafe impl Send for X {}\n";
        assert!(run("any", src).is_empty());
    }

    #[test]
    fn hot_copy_fires_on_payload_receivers_in_copy_crates() {
        let src = "fn f(e: &Env) { let v = e.payload.to_vec(); send(v); }";
        let f = run("hot", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_NO_HOT_COPY);
        assert!(f[0].message.contains("payload.to_vec()"), "{}", f[0].message);

        // `.clone()` on a payload receiver fires too (refcount clones
        // must be annotated so they stay audited).
        assert_eq!(run("hot", "fn f(r: &R) { ship(r.chunks.clone()); }").len(), 1);
        // Chained through a method: `req.body().clone()` names `body`.
        assert_eq!(run("hot", "fn f(r: &R) { ship(r.body().clone()); }").len(), 1);
        // Non-payload receivers and non-copy crates stay clean.
        assert!(run("hot", "fn f(c: &C) { let c2 = c.config.clone(); }").is_empty());
        assert!(run("cold", "fn f(e: &Env) { let v = e.payload.to_vec(); }").is_empty());
        // Test code is exempt.
        assert!(run("hot", "#[test] fn t() { let v = e.payload.to_vec(); }").is_empty());
    }

    #[test]
    fn hot_copy_allow_annotation_suppresses() {
        let src = "fn f(e: &Env) {\n    // lint: allow(no-hot-copy) — refcount clone\n    ship(e.payload.clone());\n}";
        let (f, suppressed) = analyze("t.rs", "hot", src, false, &cfg());
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn time_under_lock_fires_in_hot_crates() {
        let src = "fn f(s: &S) { let g = s.inner.lock(); let t = Instant::now(); use_it(g, t); }";
        let f = run("hot", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_NO_TIME_UNDER_LOCK);
        assert!(f[0].message.contains("inner"), "{}", f[0].message);

        // Clock read before the guard, or released first: clean.
        assert!(run(
            "hot",
            "fn f(s: &S) { let t = Instant::now(); let g = s.inner.lock(); use_it(g, t); }"
        )
        .is_empty());
        assert!(run(
            "hot",
            "fn f(s: &S) { { let g = s.inner.lock(); } let t = Instant::now(); }"
        )
        .is_empty());
        // Fully qualified paths resolve through the same suffix.
        assert_eq!(
            run(
                "hot",
                "fn f(s: &S) { let g = s.m.lock(); let t = std::time::Instant::now(); }"
            )
            .len(),
            1
        );
        // Cold crates and test code are exempt.
        assert!(run("cold", "fn f(s: &S) { let g = s.m.lock(); Instant::now(); }").is_empty());
        assert!(run("hot", "#[test] fn t() { let g = s.m.lock(); Instant::now(); }").is_empty());
    }

    #[test]
    fn time_under_lock_allow_annotation_suppresses() {
        let src = "fn f(s: &S) {\n    let g = s.m.lock();\n    // lint: allow(no-time-under-lock) — coarse shutdown path\n    let t = Instant::now();\n}";
        let (f, suppressed) = analyze("t.rs", "hot", src, false, &cfg());
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn test_file_flag_disables_panic_rule() {
        let (f, _) = analyze("tests/x.rs", "hot", "fn f() { x.unwrap(); }", true, &cfg());
        assert!(f.is_empty());
    }
}
