//! Token-level rule implementations.
//!
//! Every rule here matches on the token stream produced by [`crate::lexer`],
//! never on raw text, so needles inside string literals, char literals, and
//! comments can never produce findings, and identifier matches are exact
//! (`assert_stable` is one token and can never trip the `assert` rule).
//!
//! Shared machinery computed once per file:
//!
//! - the *significant* token stream (comments dropped) with line:column
//!   positions preserved;
//! - `#[cfg(test)]` item regions, tracked by attribute parsing plus brace
//!   matching — only the gated item is exempt, not the rest of the file;
//! - `impl CostCache` body regions (the sanctioned home of second-to-nanos
//!   conversions for the `raw-duration` rule);
//! - the set of identifiers bound to hash-container types in this file,
//!   feeding the chain-aware `hash-iter` checks.

use crate::lexer::{lex, Token, TokenKind};
use crate::{Diagnostic, Severity};
use std::collections::BTreeSet;

/// Per-file scan context: where the file sits in the workspace and which
/// rule scopes therefore apply.
pub struct FileContext<'a> {
    /// Repository-relative path, `/`-separated.
    pub rel_path: &'a str,
    /// Whether the owning crate is on the determinism list.
    pub deterministic: bool,
    /// Whether the file is a binary target root (`src/main.rs`, `src/bin/**`).
    pub is_binary: bool,
}

/// Identifier adapters whose invocation on a hash-container receiver leaks
/// nondeterministic iteration order.
const HASH_ITER_ADAPTERS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
    "retain",
    "extract_if",
];

/// Primitive numeric type names: the targets of `as` casts the
/// `lossy-cast` rule polices.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const WALL_CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];
const RAW_DURATION_FNS: &[&str] = &["from_secs_f64", "secs_to_nanos"];

/// Scans one file's source, returning raw (pre-allowlist) diagnostics.
/// Returns an error only when the file cannot be lexed (unterminated
/// string or block comment), which `rustc` would reject too.
pub fn scan_file(ctx: &FileContext<'_>, src: &str) -> Result<Vec<Diagnostic>, String> {
    let tokens =
        lex(src).map_err(|e| format!("{}:{e} (file cannot be tokenized)", ctx.rel_path))?;
    let sig: Vec<Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .copied()
        .collect();
    let in_test = test_regions(&sig, src);
    let in_cost_cache = impl_regions(&sig, src, "CostCache");
    let hash_bound = hash_bound_idents(&sig, src, &in_test);

    let mut out = Vec::new();
    let mut emit = |tok: &Token, rule: &'static str, severity: Severity, message: String| {
        out.push(diagnostic(ctx.rel_path, src, tok, rule, severity, message));
    };

    for (i, tok) in sig.iter().enumerate() {
        if in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        let text = tok.text(src);

        // hash-iter, part 1: hash container types are banned outright in
        // determinism crates — even keyed-only uses need an allowlist entry.
        if ctx.deterministic && HASH_TYPES.contains(&text) {
            emit(
                tok,
                "hash-iter",
                Severity::Deny,
                format!("`{text}` iterates in randomized order; use the BTree equivalent (allowlist keyed-only uses)"),
            );
        }

        // hash-iter, part 2 (chain-aware, whole workspace): iteration
        // adapters reached through a receiver chain that roots in a
        // hash-bound identifier, e.g. `self.cache.keys()`.
        if HASH_ITER_ADAPTERS.contains(&text)
            && prev_is(&sig, src, i, ".")
            && next_is(&sig, src, i, "(")
            && chain_mentions_hash(&sig, src, i, &hash_bound)
        {
            emit(
                tok,
                "hash-iter",
                Severity::Deny,
                format!("`.{text}()` on a hash-container receiver leaks randomized iteration order; use an ordered container or collect-and-sort first"),
            );
        }

        // hash-iter, part 3: `for … in <expr>` where the iterated
        // expression mentions a hash-bound identifier.
        if text == "for" {
            if let Some(hit) = for_loop_hash_receiver(&sig, src, i, &hash_bound) {
                emit(
                    &sig[hit],
                    "hash-iter",
                    Severity::Deny,
                    format!("`for` loop over hash-bound `{}` iterates in randomized order; use an ordered container", sig[hit].text(src)),
                );
            }
        }

        if ctx.deterministic && WALL_CLOCK_TYPES.contains(&text) {
            emit(
                tok,
                "wall-clock",
                Severity::Deny,
                format!(
                    "`{text}` reads the wall clock; simulation time comes from the event queue"
                ),
            );
        }

        if ENTROPY_IDENTS.contains(&text)
            || (text == "random"
                && prev_is(&sig, src, i, ":")
                && ident_at(&sig, src, i, 3) == Some("rand"))
        {
            emit(
                tok,
                "entropy",
                Severity::Deny,
                format!("`{text}` draws from process entropy and breaks replay; seed a DetRng explicitly"),
            );
        }

        if !ctx.is_binary {
            if (text == "unwrap" || text == "expect")
                && (prev_is(&sig, src, i, ".") || prev_is(&sig, src, i, ":"))
                && next_is(&sig, src, i, "(")
            {
                emit(
                    tok,
                    "panic",
                    Severity::Deny,
                    format!("`.{text}()` aborts on failure; library code returns a Result or uses invariant!"),
                );
            }
            if PANIC_MACROS.contains(&text) && next_is(&sig, src, i, "!") {
                emit(
                    tok,
                    "panic",
                    Severity::Deny,
                    format!("`{text}!` aborts; library code returns a Result or uses invariant!"),
                );
            }
            if ASSERT_MACROS.contains(&text) && next_is(&sig, src, i, "!") {
                emit(
                    tok,
                    "assert",
                    Severity::Deny,
                    format!("bare `{text}!` aborts release figure runs; return a Result or use invariant! (debug_assert! is fine)"),
                );
            }
            if text == "partial_cmp" {
                emit(
                    tok,
                    "float-order",
                    Severity::Deny,
                    "`partial_cmp` is not a total order (NaN breaks replayable sorts); use `total_cmp` or an integer key".to_string(),
                );
            }
            if text == "as" {
                if let Some(ty) = next_numeric_type(&sig, src, i) {
                    emit(
                        &sig[i + 1],
                        "lossy-cast",
                        Severity::Warn,
                        format!("`as {ty}` can truncate or lose precision silently; use From/TryFrom or the checked helpers in l2s_util::cast"),
                    );
                }
            }
            if RAW_DURATION_FNS.contains(&text)
                && !prev_is_ident(&sig, src, i, "fn")
                && !in_cost_cache[i]
            {
                emit(
                    tok,
                    "raw-duration",
                    Severity::Warn,
                    format!("`{text}` converts float seconds per call; route conversions through CostCache (or hoist to setup) so the hot path stays in integer nanoseconds"),
                );
            }
        }
    }
    Ok(out)
}

/// Checks a crate's `lib.rs` for the mandatory header attributes:
/// `#![forbid(unsafe_code)]` (or `deny`) and `#![warn(missing_docs)]`
/// (or `deny`), matched on tokens so commented-out attributes don't count.
pub fn check_crate_header(
    rel_path: &str,
    crate_name: &str,
    src: &str,
) -> Result<Vec<Diagnostic>, String> {
    let tokens = lex(src).map_err(|e| format!("{rel_path}:{e} (file cannot be tokenized)"))?;
    let sig: Vec<Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .copied()
        .collect();

    let mut has_unsafe_forbid = false;
    let mut has_docs_warn = false;
    let mut i = 0;
    while i + 2 < sig.len() {
        // Inner attribute: `#` `!` `[` … `]`.
        if sig[i].text(src) == "#" && sig[i + 1].text(src) == "!" && sig[i + 2].text(src) == "[" {
            let close = match matching(&sig, src, i + 2, "[", "]") {
                Some(c) => c,
                None => break,
            };
            let idents: Vec<&str> = sig[i + 3..close]
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text(src))
                .collect();
            let strict = idents.contains(&"forbid") || idents.contains(&"deny");
            if strict && idents.contains(&"unsafe_code") {
                has_unsafe_forbid = true;
            }
            if (idents.contains(&"warn") || strict) && idents.contains(&"missing_docs") {
                has_docs_warn = true;
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }

    let first_line = src.lines().next().unwrap_or("").to_string();
    let mut out = Vec::new();
    for (ok, attr) in [
        (has_unsafe_forbid, "#![forbid(unsafe_code)]"),
        (has_docs_warn, "#![warn(missing_docs)]"),
    ] {
        if !ok {
            out.push(Diagnostic {
                path: rel_path.to_string(),
                line: 1,
                col: 1,
                len: 1,
                rule: "crate-header",
                severity: Severity::Deny,
                message: format!("crate `{crate_name}` is missing the `{attr}` attribute"),
                snippet: first_line.clone(),
            });
        }
    }
    Ok(out)
}

fn diagnostic(
    rel_path: &str,
    src: &str,
    tok: &Token,
    rule: &'static str,
    severity: Severity,
    message: String,
) -> Diagnostic {
    let snippet = src
        .lines()
        .nth(tok.line - 1)
        .unwrap_or("")
        .trim_end()
        .to_string();
    Diagnostic {
        path: rel_path.to_string(),
        line: tok.line,
        col: tok.col,
        len: tok.text(src).chars().count().max(1),
        rule,
        severity,
        message,
        snippet,
    }
}

/// True when the significant token before `i` has exactly text `p`.
fn prev_is(sig: &[Token], src: &str, i: usize, p: &str) -> bool {
    i > 0 && sig[i - 1].text(src) == p
}

/// True when the significant token after `i` has exactly text `p`.
fn next_is(sig: &[Token], src: &str, i: usize, p: &str) -> bool {
    sig.get(i + 1).is_some_and(|t| t.text(src) == p)
}

/// The ident text `back` significant tokens before `i`, if it is an ident.
fn ident_at<'a>(sig: &[Token], src: &'a str, i: usize, back: usize) -> Option<&'a str> {
    let j = i.checked_sub(back)?;
    (sig[j].kind == TokenKind::Ident).then(|| sig[j].text(src))
}

/// True when the significant token before `i` is the ident `word`.
fn prev_is_ident(sig: &[Token], src: &str, i: usize, word: &str) -> bool {
    i > 0 && sig[i - 1].kind == TokenKind::Ident && sig[i - 1].text(src) == word
}

/// If the token after the `as` at `i` is a primitive numeric type name,
/// returns it.
fn next_numeric_type<'a>(sig: &[Token], src: &'a str, i: usize) -> Option<&'a str> {
    let next = sig.get(i + 1)?;
    if next.kind != TokenKind::Ident {
        return None;
    }
    let ty = next.text(src);
    NUMERIC_TYPES.contains(&ty).then_some(ty)
}

/// Index of the token matching `open` (at position `at`) with `close`,
/// honouring nesting.
fn matching(sig: &[Token], src: &str, at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in sig.iter().enumerate().skip(at) {
        let s = t.text(src);
        if s == open {
            depth += 1;
        } else if s == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Marks significant tokens (`sig`: the file's tokens with comments
/// dropped) inside `#[cfg(test)]`- and `#[test]`-gated items (attribute
/// through the end of the item: the matching `}` of its body, or the `;`
/// of a bodiless item). Attributes stacked between the gate and the item
/// are included. This is precise where the old line scanner was not: code
/// *after* a test module is scanned again.
pub fn test_regions(sig: &[Token], src: &str) -> Vec<bool> {
    let mut flags = vec![false; sig.len()];
    let mut i = 0;
    while i < sig.len() {
        if !(sig[i].text(src) == "#" && i + 1 < sig.len() && sig[i + 1].text(src) == "[") {
            i += 1;
            continue;
        }
        let Some(close) = matching(sig, src, i + 1, "[", "]") else {
            break;
        };
        let idents: Vec<&str> = sig[i + 2..close]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(src))
            .collect();
        let gates_test =
            idents.contains(&"cfg") && idents.contains(&"test") || idents.first() == Some(&"test");
        if !gates_test {
            i = close + 1;
            continue;
        }
        // Skip any further attributes, then consume the gated item.
        let mut j = close + 1;
        while j + 1 < sig.len() && sig[j].text(src) == "#" && sig[j + 1].text(src) == "[" {
            match matching(sig, src, j + 1, "[", "]") {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        let mut end = sig.len().saturating_sub(1);
        let mut depth = 0usize;
        for (k, t) in sig.iter().enumerate().skip(j) {
            match t.text(src) {
                ";" if depth == 0 => {
                    end = k;
                    break;
                }
                "{" if depth == 0 => {
                    if let Some(c) = matching(sig, src, k, "{", "}") {
                        end = c;
                    }
                    break;
                }
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        for f in flags.iter_mut().take(end + 1).skip(i) {
            *f = true;
        }
        i = end + 1;
    }
    flags
}

/// Marks significant tokens inside `impl … <name> … { }` bodies — used to
/// exempt `CostCache`'s own conversions from the `raw-duration` rule.
fn impl_regions(sig: &[Token], src: &str, name: &str) -> Vec<bool> {
    let mut flags = vec![false; sig.len()];
    let mut i = 0;
    while i < sig.len() {
        if !(sig[i].kind == TokenKind::Ident && sig[i].text(src) == "impl") {
            i += 1;
            continue;
        }
        // Scan the impl header up to its `{`, checking for the type name.
        let mut names_target = false;
        let mut body = None;
        for (k, t) in sig.iter().enumerate().skip(i + 1) {
            let s = t.text(src);
            if t.kind == TokenKind::Ident && s == name {
                names_target = true;
            }
            if s == "{" {
                body = Some(k);
                break;
            }
            if s == ";" {
                break;
            }
        }
        let Some(open) = body else {
            i += 1;
            continue;
        };
        let close = matching(sig, src, open, "{", "}").unwrap_or(sig.len() - 1);
        if names_target {
            for f in flags.iter_mut().take(close + 1).skip(open) {
                *f = true;
            }
        }
        i = open + 1; // nested impls are rare; rescan inside the body
    }
    flags
}

/// Collects identifiers bound to hash-container types in this file:
/// type-ascribed bindings and fields (`name: HashMap<…>`) and
/// initializer bindings (`let name = HashMap::new()`).
fn hash_bound_idents(sig: &[Token], src: &str, in_test: &[bool]) -> BTreeSet<String> {
    let mut bound = BTreeSet::new();
    for i in 0..sig.len() {
        if in_test[i] || sig[i].kind != TokenKind::Ident {
            continue;
        }
        let name = sig[i].text(src);
        // `name : … HashMap …` up to a type-position terminator.
        if next_is_text(sig, src, i, ":") && !next_is_text(sig, src, i + 1, ":") {
            let mut angle = 0i64;
            for (k, t) in sig.iter().enumerate().skip(i + 2) {
                let s = t.text(src);
                match s {
                    "<" => angle += 1,
                    ">" => {
                        if angle == 0 {
                            break;
                        }
                        angle -= 1;
                    }
                    "=" | ";" | "{" | ")" | "}" => break,
                    "," if angle == 0 => break,
                    _ => {}
                }
                if t.kind == TokenKind::Ident && HASH_TYPES.contains(&s) {
                    bound.insert(name.to_string());
                    break;
                }
                if k > i + 40 {
                    break; // types longer than this are not what we're after
                }
            }
        }
        // `let [mut] name = … HashMap … ;`
        if name == "let" {
            let mut j = i + 1;
            if ident_text(sig, src, j) == Some("mut") {
                j += 1;
            }
            let Some(binding) = ident_text(sig, src, j) else {
                continue;
            };
            if !next_is_text(sig, src, j, "=") {
                continue;
            }
            for t in sig.iter().skip(j + 2) {
                let s = t.text(src);
                if s == ";" {
                    break;
                }
                if t.kind == TokenKind::Ident && HASH_TYPES.contains(&s) {
                    bound.insert(binding.to_string());
                    break;
                }
            }
        }
    }
    bound
}

fn next_is_text(sig: &[Token], src: &str, i: usize, p: &str) -> bool {
    sig.get(i + 1).is_some_and(|t| t.text(src) == p)
}

fn ident_text<'a>(sig: &[Token], src: &'a str, i: usize) -> Option<&'a str> {
    sig.get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(src))
}

/// True when the receiver chain ending at the `.` before the adapter at
/// `i` mentions a hash-bound identifier or a hash type — walking back
/// through `.`-separated segments, call parentheses, index brackets, and
/// `?`, so `self.state.cache.keys()` and `HashMap::new().iter()` both
/// resolve.
fn chain_mentions_hash(sig: &[Token], src: &str, i: usize, bound: &BTreeSet<String>) -> bool {
    let mut j = i - 1; // the `.` token
    loop {
        if j == 0 {
            return false;
        }
        j -= 1; // token ending the preceding segment
        let s = sig[j].text(src);
        match s {
            ")" | "]" => {
                // Skip the bracketed group backwards; hash mentions inside
                // call or index *arguments* are not the receiver chain.
                let (close, open) = if s == ")" { (")", "(") } else { ("]", "[") };
                let mut depth = 0i64;
                loop {
                    let t = sig[j].text(src);
                    if t == close {
                        depth += 1;
                    } else if t == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        return false;
                    }
                    j -= 1;
                }
                // After the group, a call has its callee ident just before.
                continue;
            }
            "?" => continue,
            _ => {}
        }
        if sig[j].kind == TokenKind::Ident {
            let name = sig[j].text(src);
            if bound.contains(name) || HASH_TYPES.contains(&name) {
                return true;
            }
            // Continue the chain only through `.` or `::`.
            if j == 0 {
                return false;
            }
            if sig[j - 1].text(src) == "." {
                j -= 1; // sit on the separator; loop steps past it
                continue;
            }
            if j >= 2 && sig[j - 1].text(src) == ":" && sig[j - 2].text(src) == ":" {
                j -= 2; // sit on the path separator's first colon
                continue;
            }
            return false;
        }
        return false;
    }
}

/// For a `for` keyword at `i`, scans the `in <expr> {` head; returns the
/// index of a hash-bound identifier (or hash type name) iterated over.
fn for_loop_hash_receiver(
    sig: &[Token],
    src: &str,
    i: usize,
    bound: &BTreeSet<String>,
) -> Option<usize> {
    // Find the `in` keyword of this `for` (patterns contain no braces).
    let mut k = i + 1;
    let mut in_at = None;
    while k < sig.len() && k < i + 24 {
        let s = sig[k].text(src);
        if sig[k].kind == TokenKind::Ident && s == "in" {
            in_at = Some(k);
            break;
        }
        if s == "{" || s == ";" {
            return None; // not a for-loop header (e.g. `for` in a type)
        }
        k += 1;
    }
    let start = in_at? + 1;
    let mut depth = 0i64;
    for (j, t) in sig.iter().enumerate().skip(start) {
        let s = t.text(src);
        match s {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return None,
            ";" => return None,
            _ => {}
        }
        if t.kind == TokenKind::Ident && (bound.contains(s) || HASH_TYPES.contains(&s)) {
            return Some(j);
        }
        if j > start + 48 {
            return None;
        }
    }
    None
}
