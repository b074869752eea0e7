//! `l2s-lint` — the workspace's in-tree determinism and invariant lint.
//!
//! The simulator's headline guarantee is bit-for-bit reproducibility: the
//! same seed and configuration must produce the same figures on every
//! machine. That guarantee is easy to break silently — one iterated
//! hash map, one wall-clock read, one entropy-seeded generator, one
//! NaN-ambivalent float sort — so this crate enforces the determinism
//! rules statically, as a dependency-free binary that CI (and
//! `cargo run -p l2s-lint`) runs over the source tree.
//!
//! Since v2 the lint is built on an in-tree Rust lexer ([`lexer`]): every
//! file is tokenized into identifiers, punctuation, and opaque
//! literal/comment spans, and all rules ([`rules`]) match *tokens* with
//! line:column positions. Needles inside string literals, char literals,
//! and comments can therefore never produce findings, and identifier
//! matches are exact — `assert_stable` can never trip the `assert` rule.
//!
//! # Rule catalog
//!
//! | id | severity | scope | checks |
//! |----|----------|-------|--------|
//! | `hash-iter` | deny | types: determinism crates; chains: workspace | no hash-container types in determinism crates; *anywhere*, no iteration adapters (`.keys()`, `.values()`, `.iter()`, …) or `for` loops on hash-bound receivers, matched through method chains |
//! | `wall-clock` | deny | determinism crates | no `Instant`/`SystemTime`: simulation time comes from the event queue |
//! | `entropy` | deny | workspace | no `thread_rng`, `rand::random`, `from_entropy`, or `OsRng`: all randomness flows from explicit seeds |
//! | `panic` | deny | library sources | no `.unwrap()`/`.expect()`/`panic!`-family in library code (binaries and tests exempt); use `Result` or `invariant!` |
//! | `assert` | deny | library sources | no bare `assert!`/`assert_eq!`/`assert_ne!` outside tests; `debug_assert!` is fine |
//! | `crate-header` | deny | every crate | each `lib.rs` declares `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]` |
//! | `float-order` | deny | library sources | no `partial_cmp`: float orderings must use `total_cmp` (or an integer key) so NaN cannot reorder replay |
//! | `lossy-cast` | warn | library sources | numeric `as` casts can truncate or lose precision silently; use `From`/`TryFrom` or `l2s_util::cast` helpers |
//! | `raw-duration` | warn | library sources | `from_secs_f64`/`secs_to_nanos` call sites outside `CostCache`: per-event float→nanosecond conversion belongs in the cost cache or setup code |
//!
//! # Severities and the baseline ratchet
//!
//! **Deny** findings fail the run immediately. **Warn** findings are
//! ratcheted against the committed [`lint-baseline.json`](baseline): a run
//! fails only when some `(rule, file)` cell *grows* past its tolerated
//! count, so existing debt is visible but frozen, and
//! `--update-baseline` regenerates the file (shrinking it is one flag).
//!
//! # Allowlist
//!
//! Vetted exceptions live in `lint-allow.txt` at the repository root:
//!
//! ```text
//! <rule> <path> <justification>            # suppress rule in file
//! ```
//!
//! The justification is mandatory; unused entries are reported so the
//! file cannot rot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod output;
pub mod rules;

use baseline::Baseline;
use output::Summary;
use rules::FileContext;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Crates whose sources feed simulation results and therefore must be
/// deterministic (hash-container and wall-clock type bans apply).
pub const DETERMINISM_CRATES: &[&str] = &[
    "util", "devs", "net", "zipf", "trace", "cluster", "core", "model", "sim",
];

/// Every rule id with its default severity, in catalog order.
pub const RULES: &[(&str, Severity)] = &[
    ("hash-iter", Severity::Deny),
    ("wall-clock", Severity::Deny),
    ("entropy", Severity::Deny),
    ("panic", Severity::Deny),
    ("assert", Severity::Deny),
    ("crate-header", Severity::Deny),
    ("float-order", Severity::Deny),
    ("lossy-cast", Severity::Warn),
    ("raw-duration", Severity::Warn),
];

/// How a finding is enforced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails the run immediately.
    Deny,
    /// Ratcheted against `lint-baseline.json`; fails only on growth.
    Warn,
}

/// One lint finding, pointing at a repository-relative `path:line:col`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Repository-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (in characters) of the matched token.
    pub col: usize,
    /// Matched token length in characters (caret span width).
    pub len: usize,
    /// Rule identifier from the catalog.
    pub rule: &'static str,
    /// Enforcement level after allowlist reclassification.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// The source line, for rendering.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// One vetted exception from `lint-allow.txt`: the rule's findings in
/// the file are suppressed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule being excepted.
    pub rule: String,
    /// Repository-relative file the exception applies to.
    pub path: String,
    /// Why the exception is sound (mandatory).
    pub justification: String,
    used: bool,
}

/// The parsed allowlist. Each entry records whether it actually affected
/// a finding, so stale entries can be reported.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// An allowlist with no exceptions.
    pub fn empty() -> Self {
        Allowlist::default()
    }

    /// Parses the `lint-allow.txt` format: one entry per line as
    /// `<rule> <path> <justification>`; `#` comments and
    /// blank lines are ignored. A missing justification is an error —
    /// exceptions must be argued, not just declared.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(rule), Some(path), Some(rest)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "lint-allow.txt:{}: expected `<rule> <path> <justification>`, got `{line}`",
                    idx + 1
                ));
            };
            let justification = rest.trim();
            if justification.is_empty() {
                return Err(format!(
                    "lint-allow.txt:{}: entry for {rule} {path} has no justification",
                    idx + 1
                ));
            }
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path: path.to_string(),
                justification: justification.to_string(),
                used: false,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Applies the allowlist to raw findings: a finding of an entry's
    /// rule in its file is dropped, and the first such entry is marked
    /// used.
    fn apply(&mut self, mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags.retain(|d| {
            let mut entries = self.entries.iter_mut();
            let Some(e) = entries.find(|e| e.rule == d.rule && e.path == d.path) else {
                return true;
            };
            e.used = true;
            false
        });
        diags
    }

    /// Entries that affected nothing in the last run — stale exceptions
    /// that should be deleted.
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries.iter().filter(|e| !e.used).collect()
    }
}

/// A crate to be linted: its display name and its `src` directory.
struct CrateSrc {
    name: String,
    src: PathBuf,
}

/// Everything one lint pass learned about the tree.
#[derive(Clone, Debug)]
pub struct Report {
    /// All findings after allowlist application, sorted by
    /// `(path, line, col, …)` and deduplicated.
    pub diagnostics: Vec<Diagnostic>,
    /// Crates discovered and scanned.
    pub crates_scanned: usize,
    /// `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings at the given severity.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }
}

/// Lints the workspace rooted at `root` and returns the report. Errors
/// are I/O or lexing problems (unreadable tree, unterminated literal),
/// not findings.
pub fn lint_workspace(root: &Path, allow: &mut Allowlist) -> Result<Report, String> {
    let crates = discover_crates(root)?;
    let mut raw = Vec::new();
    let mut files_scanned = 0usize;

    for krate in &crates {
        let deterministic = DETERMINISM_CRATES.contains(&krate.name.as_str());
        let lib = krate.src.join("lib.rs");
        if lib.is_file() {
            raw.extend(rules::check_crate_header(
                &rel_path(root, &lib),
                &krate.name,
                &read(&lib)?,
            )?);
        }
        for file in rust_sources(&krate.src)? {
            let rel = rel_path(root, &file);
            let text = read(&file)?;
            let ctx = FileContext {
                rel_path: &rel,
                deterministic,
                is_binary: is_binary_target(&file),
            };
            raw.extend(rules::scan_file(&ctx, &text)?);
            files_scanned += 1;
        }
    }

    let mut diagnostics = allow.apply(raw);
    diagnostics.sort();
    diagnostics.dedup();
    Ok(Report {
        diagnostics,
        crates_scanned: crates.len(),
        files_scanned,
    })
}

/// The workspace's crates: every directory under `crates/`, plus the root
/// package (named `root`, sources in `src/`).
fn discover_crates(root: &Path) -> Result<Vec<CrateSrc>, String> {
    let mut crates = Vec::new();
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read crates/: {e}"))?;
        let path = entry.path();
        if path.is_dir() && path.join("Cargo.toml").is_file() {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    for name in names {
        crates.push(CrateSrc {
            src: crates_dir.join(&name).join("src"),
            name,
        });
    }
    crates.push(CrateSrc {
        name: "root".to_string(),
        src: root.join("src"),
    });
    Ok(crates)
}

/// All `.rs` files under `src`, recursively, in sorted order.
fn rust_sources(src: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    if !src.is_dir() {
        return Ok(files);
    }
    let mut stack = vec![src.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut children = Vec::new();
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
            children.push(entry.path());
        }
        children.sort();
        for child in children {
            if child.is_dir() {
                stack.push(child);
            } else if child.extension().is_some_and(|e| e == "rs") {
                files.push(child);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// True for compilation roots of binary targets (`src/main.rs`,
/// `src/bin/**`), which are exempt from the library-only rules: a CLI
/// aborting on bad input is acceptable, a library doing so is not.
fn is_binary_target(path: &Path) -> bool {
    if path.file_name().is_some_and(|n| n == "main.rs") {
        return true;
    }
    path.components().any(|c| c.as_os_str() == "bin")
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Output format of a CLI run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// rustc-style rendered diagnostics with caret spans.
    Text,
    /// Byte-stable machine-readable report on stdout.
    Json,
}

/// Parsed CLI options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workspace root to lint (default `.`).
    pub root: PathBuf,
    /// Output format (default text).
    pub format: Format,
    /// Regenerate `lint-baseline.json` from this run's warn findings.
    pub update_baseline: bool,
}

impl Options {
    /// Parses CLI arguments (everything after the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut opts = Options {
            root: PathBuf::from("."),
            format: Format::Text,
            update_baseline: false,
        };
        let mut args = args.into_iter();
        let mut root_set = false;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--format" => {
                    let value = args
                        .next()
                        .ok_or_else(|| "--format requires a value (text|json)".to_string())?;
                    opts.format = parse_format(&value)?;
                }
                _ if arg.starts_with("--format=") => {
                    opts.format = parse_format(&arg["--format=".len()..])?;
                }
                "--update-baseline" => opts.update_baseline = true,
                _ if arg.starts_with("--") => {
                    return Err(format!(
                        "unknown flag `{arg}` (try --format json, --update-baseline)"
                    ));
                }
                _ if !root_set => {
                    opts.root = PathBuf::from(arg);
                    root_set = true;
                }
                _ => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(opts)
    }
}

fn parse_format(value: &str) -> Result<Format, String> {
    match value {
        "text" => Ok(Format::Text),
        "json" => Ok(Format::Json),
        other => Err(format!("unknown format `{other}` (expected text or json)")),
    }
}

/// Runs a complete lint pass: allowlist, scan, baseline ratchet,
/// rendering, and summary. Returns the process exit code:
///
/// * `0` — clean: no deny findings, no warn growth over the baseline;
/// * `1` — findings: deny findings present or warn counts grew;
/// * `2` — I/O or configuration error (unreadable tree, malformed
///   allowlist or baseline, bad flags).
pub fn run(opts: &Options, out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    match run_inner(opts, out, err) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(err, "error: {e}");
            2
        }
    }
}

fn run_inner(opts: &Options, out: &mut dyn Write, err: &mut dyn Write) -> Result<u8, String> {
    let allow_path = opts.root.join("lint-allow.txt");
    let mut allow = if allow_path.is_file() {
        Allowlist::parse(&read(&allow_path)?)?
    } else {
        Allowlist::empty()
    };

    let report = lint_workspace(&opts.root, &mut allow)?;

    let baseline_path = opts.root.join("lint-baseline.json");
    let mut committed = if baseline_path.is_file() {
        Baseline::parse(&read(&baseline_path)?)?
    } else {
        Baseline::empty()
    };

    if opts.update_baseline {
        committed = Baseline::from_diagnostics(&report.diagnostics);
        fs::write(&baseline_path, committed.to_json())
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        let _ = writeln!(
            err,
            "l2s-lint: baseline regenerated at {}",
            baseline_path.display()
        );
    }

    let ratchet = committed.ratchet(&report.diagnostics);
    let deny_count = report.at(Severity::Deny).count();
    let warn_count = report.at(Severity::Warn).count();
    let summary = Summary {
        crates_scanned: report.crates_scanned,
        files_scanned: report.files_scanned,
        rules: RULES.len(),
        deny: deny_count,
        warn: warn_count,
        growth: ratchet.growth.len(),
        allow_unused: allow.unused().len(),
    };

    match opts.format {
        Format::Json => {
            let _ = out
                .write_all(output::render_json(&report.diagnostics, &ratchet, &summary).as_bytes());
        }
        Format::Text => {
            // Deny findings render in full; warn findings render only in
            // cells that grew past the baseline (the rest are debt that
            // is already tolerated and counted in the summary).
            for d in report.at(Severity::Deny) {
                let _ = writeln!(out, "{}", output::render_text(d));
            }
            for g in &ratchet.growth {
                let _ = writeln!(
                    out,
                    "baseline: warn[{}] in {} grew {} -> {} (fix the new findings or argue an allowlist entry)",
                    g.rule, g.path, g.baseline, g.current
                );
                for d in report.at(Severity::Warn) {
                    if d.rule == g.rule && d.path == g.path {
                        let _ = writeln!(out, "{}", output::render_text(d));
                    }
                }
            }
            for g in &ratchet.shrunk {
                let _ = writeln!(
                    err,
                    "note: warn[{}] in {} shrank {} -> {}; run with --update-baseline to ratchet down",
                    g.rule, g.path, g.baseline, g.current
                );
            }
        }
    }

    for stale in allow.unused() {
        let _ = writeln!(
            err,
            "warning: unused allowlist entry `{} {}` ({}) — delete it",
            stale.rule, stale.path, stale.justification
        );
    }

    let _ = writeln!(err, "{}", summary.render());
    let clean = deny_count == 0 && ratchet.growth.is_empty();
    if clean {
        let _ = writeln!(err, "l2s-lint: clean");
        Ok(0)
    } else {
        let _ = writeln!(
            err,
            "l2s-lint: {} deny finding(s), {} baseline growth cell(s)",
            deny_count,
            ratchet.growth.len()
        );
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Crate header every synthetic lib.rs needs to stay crate-header clean.
    const HEADER: &str = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A throwaway workspace in the OS temp dir; removed on drop.
    struct Workspace {
        root: PathBuf,
    }

    impl Workspace {
        /// Builds `crates/<name>/src/<file>` trees from `(path, source)`
        /// pairs like `("core/src/lib.rs", "...")`, adding a Cargo.toml
        /// per crate so discovery finds them.
        fn new(files: &[(&str, &str)]) -> Workspace {
            let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let root =
                std::env::temp_dir().join(format!("l2s-lint-test-{}-{seq}", std::process::id()));
            for (path, source) in files {
                let full = root.join("crates").join(path);
                fs::create_dir_all(full.parent().unwrap()).unwrap();
                fs::write(&full, source).unwrap();
                let krate = path.split('/').next().unwrap();
                let manifest = root.join("crates").join(krate).join("Cargo.toml");
                fs::write(&manifest, "[package]\n").unwrap();
            }
            Workspace { root }
        }

        fn lint(&self) -> Report {
            self.lint_with(&mut Allowlist::empty())
        }

        fn lint_with(&self, allow: &mut Allowlist) -> Report {
            lint_workspace(&self.root, allow).unwrap()
        }
    }

    impl Drop for Workspace {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    fn rules_of(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn hash_map_in_determinism_crate_is_flagged_with_position() {
        let ws = Workspace::new(&[(
            "core/src/lib.rs",
            &format!("{HEADER}pub fn f() {{\n    let m: std::collections::HashMap<u32, u32> = Default::default();\n    drop(m);\n}}\n"),
        )]);
        let report = ws.lint();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == "hash-iter")
            .expect("HashMap type must be flagged in a determinism crate");
        assert_eq!(d.path, "crates/core/src/lib.rs");
        assert_eq!(d.line, 4);
        assert_eq!(d.severity, Severity::Deny);
        assert!(d.col > 1, "column must be real, got {}", d.col);
    }

    #[test]
    fn non_determinism_crates_may_hold_hash_containers_but_not_iterate() {
        let src = format!(
            "{HEADER}use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> usize {{ m.len() }}\n"
        );
        let ws = Workspace::new(&[("lint/src/lib.rs", src.as_str())]);
        let report = ws.lint();
        assert!(
            report.diagnostics.is_empty(),
            "keyed-only HashMap use outside determinism crates is fine: {:?}",
            report.diagnostics
        );

        let src = format!(
            "{HEADER}use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> Vec<u32> {{ m.keys().copied().collect() }}\n"
        );
        let ws = Workspace::new(&[("lint/src/lib.rs", src.as_str())]);
        let report = ws.lint();
        assert_eq!(
            rules_of(&report),
            vec!["hash-iter"],
            "iteration adapters on hash receivers are banned workspace-wide"
        );
    }

    #[test]
    fn chain_and_for_loop_hash_iteration_are_flagged() {
        let src = format!(
            "{HEADER}use std::collections::HashMap;\n\
             pub struct S {{ cache: HashMap<u32, u32> }}\n\
             impl S {{\n\
                 pub fn a(&self) -> usize {{ self.cache.iter().count() }}\n\
                 pub fn b(&self) {{ for k in self.cache.keys() {{ drop(k); }} }}\n\
             }}\n\
             pub fn c() -> usize {{ HashMap::<u32, u32>::new().iter().count() }}\n"
        );
        let ws = Workspace::new(&[("lint/src/lib.rs", src.as_str())]);
        let report = ws.lint();
        let hash_iter = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "hash-iter")
            .count();
        assert!(
            hash_iter >= 3,
            "field chain, for-loop head, and constructor chain must all flag: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn wall_clock_and_entropy_are_flagged() {
        let src = format!(
            "{HEADER}pub fn f() -> std::time::Instant {{ std::time::Instant::now() }}\n\
             pub fn g() -> u64 {{ rand::random() }}\n"
        );
        let ws = Workspace::new(&[("sim/src/lib.rs", src.as_str())]);
        let report = ws.lint();
        assert!(rules_of(&report).contains(&"wall-clock"));
        assert!(rules_of(&report).contains(&"entropy"));
    }

    #[test]
    fn unwrap_flagged_in_libraries_but_not_binaries_or_tests() {
        let lib = format!("{HEADER}pub fn f(v: Option<u32>) -> u32 {{ v.unwrap() }}\n");
        let bin = "fn main() { Some(1).unwrap(); }\n";
        let tests = format!(
            "{HEADER}pub fn ok() {{}}\n\
             #[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ Some(1).unwrap(); }}\n}}\n"
        );
        let ws = Workspace::new(&[
            ("net/src/lib.rs", lib.as_str()),
            ("net/src/main.rs", bin),
            ("devs/src/lib.rs", tests.as_str()),
        ]);
        let report = ws.lint();
        let panics: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "panic")
            .collect();
        assert_eq!(panics.len(), 1, "only the library unwrap flags: {panics:?}");
        assert_eq!(panics[0].path, "crates/net/src/lib.rs");
    }

    #[test]
    fn bare_assert_flagged_but_debug_assert_and_prefixed_idents_are_not() {
        let src = format!(
            "{HEADER}pub fn f(x: u64) {{\n\
                 assert!(x > 0);\n\
                 debug_assert!(x > 0);\n\
                 debug_assert_eq!(x, x);\n\
             }}\n\
             /// Call `debug_assert_eq!` and `assert!` liberally in tests.\n\
             pub fn assert_stable(x: u64) -> u64 {{ x }}\n\
             pub fn g(x: u64) -> u64 {{ assert_stable(x) }}\n"
        );
        let ws = Workspace::new(&[("zipf/src/lib.rs", src.as_str())]);
        let report = ws.lint();
        let asserts: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "assert")
            .collect();
        assert_eq!(
            asserts.len(),
            1,
            "exactly the bare assert! flags: {asserts:?}"
        );
        assert_eq!(asserts[0].line, 4);
    }

    #[test]
    fn needles_in_strings_and_comments_never_flag() {
        let src = format!(
            "{HEADER}// HashMap.iter() thread_rng() .unwrap() assert!(x) partial_cmp\n\
             /* Instant::now() panic!(\"x\") as usize from_secs_f64(1.0) */\n\
             pub const DOC: &str = \"call .unwrap() on a HashMap then assert!(true) as f64\";\n\
             pub const RAW: &str = r#\"SystemTime::now() partial_cmp OsRng\"#;\n\
             pub fn f() -> char {{ 'a' }}\n"
        );
        let ws = Workspace::new(&[("core/src/lib.rs", src.as_str())]);
        let report = ws.lint();
        assert!(
            report.diagnostics.is_empty(),
            "string/comment contents are opaque to every rule: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn missing_crate_header_attrs_are_flagged_per_crate() {
        let ws = Workspace::new(&[
            (
                "core/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {}\n",
            ),
            ("net/src/lib.rs", "#![warn(missing_docs)]\npub fn g() {}\n"),
        ]);
        let report = ws.lint();
        let headers: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "crate-header")
            .collect();
        assert_eq!(headers.len(), 2, "one missing attr per crate: {headers:?}");
        assert!(headers
            .iter()
            .any(|d| d.path.contains("core") && d.message.contains("missing_docs")));
        assert!(headers
            .iter()
            .any(|d| d.path.contains("net") && d.message.contains("unsafe_code")));
    }

    #[test]
    fn float_order_flags_partial_cmp() {
        let src = format!(
            "{HEADER}pub fn f(mut v: Vec<f64>) -> Vec<f64> {{\n\
                 v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                 v\n\
             }}\n"
        );
        let ws = Workspace::new(&[("model/src/lib.rs", src.as_str())]);
        let report = ws.lint();
        assert!(rules_of(&report).contains(&"float-order"));
    }

    #[test]
    fn lossy_cast_is_warn_severity_and_test_exempt() {
        let src = format!(
            "{HEADER}pub fn f(x: u64) -> f64 {{ x as f64 }}\n\
             #[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ let _ = 1u64 as f64; }}\n}}\n"
        );
        let ws = Workspace::new(&[("trace/src/lib.rs", src.as_str())]);
        let report = ws.lint();
        let casts: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "lossy-cast")
            .collect();
        assert_eq!(casts.len(), 1, "test-module cast must be exempt: {casts:?}");
        assert_eq!(casts[0].severity, Severity::Warn);
    }

    #[test]
    fn raw_duration_flags_calls_but_not_definitions_or_cost_cache() {
        let src = format!(
            "{HEADER}pub fn from_secs_f64(s: f64) -> u64 {{ s as u64 }}\n\
             pub fn hot(s: f64) -> u64 {{ from_secs_f64(s) }}\n\
             pub struct CostCache;\n\
             impl CostCache {{\n\
                 pub fn build(s: f64) -> u64 {{ from_secs_f64(s) }}\n\
             }}\n"
        );
        let ws = Workspace::new(&[("cluster/src/lib.rs", src.as_str())]);
        let report = ws.lint();
        let raw: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "raw-duration")
            .collect();
        assert_eq!(
            raw.len(),
            1,
            "only the non-CostCache call site flags: {raw:?}"
        );
        assert_eq!(raw[0].line, 4);
    }

    #[test]
    fn allowlist_suppresses_and_tracks_usage() {
        let lib = format!("{HEADER}pub fn f(v: Option<u32>) -> u32 {{ v.unwrap() }}\n");
        let ws = Workspace::new(&[("net/src/lib.rs", lib.as_str())]);
        let mut allow = Allowlist::parse(
            "panic crates/net/src/lib.rs vetted: documented precondition\n\
             entropy crates/net/src/lib.rs never matches anything\n",
        )
        .unwrap();
        let report = ws.lint_with(&mut allow);
        assert!(
            report.diagnostics.iter().all(|d| d.rule != "panic"),
            "suppressed finding must not surface"
        );
        let unused: Vec<String> = allow.unused().iter().map(|e| e.rule.clone()).collect();
        assert_eq!(
            unused,
            vec!["entropy".to_string()],
            "stale entries are reported"
        );
    }

    #[test]
    fn allowlist_rejects_entries_without_justification() {
        assert!(Allowlist::parse("panic crates/net/src/lib.rs\n").is_err());
        assert!(Allowlist::parse("# just a comment\n\n")
            .unwrap()
            .unused()
            .is_empty());
    }

    fn run_to_strings(opts: &Options) -> (u8, String, String) {
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run(opts, &mut out, &mut err);
        (
            code,
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    #[test]
    fn run_exits_zero_on_clean_one_on_findings_two_on_errors() {
        let clean = format!("{HEADER}pub fn f() {{}}\n");
        let ws = Workspace::new(&[("core/src/lib.rs", clean.as_str())]);
        let opts = Options {
            root: ws.root.clone(),
            format: Format::Text,
            update_baseline: false,
        };
        let (code, _, err) = run_to_strings(&opts);
        assert_eq!(code, 0);
        assert!(err.contains("l2s-lint: clean"));
        // The implicit root package is always discovered alongside crates/.
        assert!(err.contains("scanned 1 files across 2 crates"));

        let dirty = format!("{HEADER}pub fn f(v: Option<u32>) -> u32 {{ v.unwrap() }}\n");
        let ws = Workspace::new(&[("core/src/lib.rs", dirty.as_str())]);
        let opts = Options {
            root: ws.root.clone(),
            format: Format::Text,
            update_baseline: false,
        };
        let (code, out, err) = run_to_strings(&opts);
        assert_eq!(code, 1);
        assert!(out.contains("deny[panic]"));
        assert!(err.contains("1 deny finding(s)"));

        let opts = Options {
            root: PathBuf::from("/nonexistent/l2s-lint-root"),
            format: Format::Text,
            update_baseline: false,
        };
        let (code, _, err) = run_to_strings(&opts);
        assert_eq!(code, 2);
        assert!(err.contains("error:"));
    }

    #[test]
    fn ratchet_fails_growth_and_update_baseline_resets_it() {
        let warny = format!("{HEADER}pub fn f(x: u64) -> f64 {{ x as f64 }}\n");
        let ws = Workspace::new(&[("core/src/lib.rs", warny.as_str())]);
        // Empty committed baseline: the warn finding is growth.
        fs::write(
            ws.root.join("lint-baseline.json"),
            "{\n  \"version\": 1,\n  \"warn\": {}\n}\n",
        )
        .unwrap();
        let opts = Options {
            root: ws.root.clone(),
            format: Format::Text,
            update_baseline: false,
        };
        let (code, out, _) = run_to_strings(&opts);
        assert_eq!(code, 1, "warn growth over the baseline fails the run");
        assert!(out.contains("baseline: warn[lossy-cast]"));

        let opts = Options {
            root: ws.root.clone(),
            format: Format::Text,
            update_baseline: true,
        };
        let (code, _, err) = run_to_strings(&opts);
        assert_eq!(code, 0, "--update-baseline tolerates current counts");
        assert!(err.contains("baseline regenerated"));
        let written = fs::read_to_string(ws.root.join("lint-baseline.json")).unwrap();
        assert!(written.contains("\"crates/core/src/lib.rs\": 1"));
    }

    #[test]
    fn json_output_is_byte_stable_across_runs() {
        let dirty = format!(
            "{HEADER}pub fn f(v: Option<u32>) -> u32 {{ v.unwrap() }}\n\
             pub fn g(x: u64) -> f64 {{ x as f64 }}\n"
        );
        let ws = Workspace::new(&[("core/src/lib.rs", dirty.as_str())]);
        let opts = Options {
            root: ws.root.clone(),
            format: Format::Json,
            update_baseline: false,
        };
        let (code_a, out_a, _) = run_to_strings(&opts);
        let (code_b, out_b, _) = run_to_strings(&opts);
        assert_eq!(code_a, code_b);
        assert_eq!(
            out_a, out_b,
            "JSON report must be byte-identical run to run"
        );
        assert!(out_a.contains("\"rule\": \"panic\""));
        assert!(out_a.contains("\"severity\": \"warn\""));
        assert!(out_a.contains("\"summary\""));
    }

    #[test]
    fn options_parse_handles_formats_roots_and_bad_flags() {
        let opts = Options::parse(["--format".to_string(), "json".to_string()]).unwrap();
        assert_eq!(opts.format, Format::Json);
        let opts = Options::parse(["--format=text".to_string(), "/tmp/x".to_string()]).unwrap();
        assert_eq!(opts.format, Format::Text);
        assert_eq!(opts.root, PathBuf::from("/tmp/x"));
        let opts = Options::parse(["--update-baseline".to_string()]).unwrap();
        assert!(opts.update_baseline);
        assert!(Options::parse(["--format".to_string(), "xml".to_string()]).is_err());
        assert!(Options::parse(["--bogus".to_string()]).is_err());
        assert!(Options::parse(["a".to_string(), "b".to_string()]).is_err());
    }
}
