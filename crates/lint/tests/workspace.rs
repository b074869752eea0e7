//! Integration tests over the real repository: every source file must
//! lex, the committed tree must be clean at deny level with no baseline
//! growth, every public library item must have a caller outside tests,
//! the JSON report must be byte-stable, and the installed binary must
//! honor the documented exit-code contract.

use l2s_lint::lexer::{lex, Token, TokenKind};
use l2s_lint::rules::test_regions;
use l2s_lint::{run, Allowlist, Format, Options, Severity};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root (two levels above this crate's manifest).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the repo root")
        .to_path_buf()
}

/// Every `.rs` file under the workspace's crates (the benchmark package
/// included), the root package's sources and the examples.
fn all_rust_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates"), root.join("src"), root.join("examples")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

#[test]
fn every_workspace_source_file_lexes() {
    let files = all_rust_files(&repo_root());
    assert!(
        files.len() > 50,
        "workspace walk found suspiciously few files: {}",
        files.len()
    );
    for file in files {
        let src = fs::read_to_string(&file).unwrap();
        let tokens = lex(&src)
            .unwrap_or_else(|e| panic!("{}: lexer rejected real source: {e}", file.display()));
        assert!(
            !src.trim().is_empty() || tokens.is_empty(),
            "{}: non-empty file produced no tokens",
            file.display()
        );
    }
}

#[test]
fn committed_tree_is_deny_clean_with_no_growth_or_stale_allows() {
    let root = repo_root();
    let allow = fs::read_to_string(root.join("lint-allow.txt")).unwrap();
    let mut allow = Allowlist::parse(&allow).unwrap();
    let report = l2s_lint::lint_workspace(&root, &mut allow).unwrap();

    let deny: Vec<String> = report.at(Severity::Deny).map(|d| d.to_string()).collect();
    assert!(
        deny.is_empty(),
        "deny findings in the committed tree:\n{}",
        deny.join("\n")
    );

    let stale: Vec<String> = allow
        .unused()
        .iter()
        .map(|e| format!("{} {}", e.rule, e.path))
        .collect();
    assert!(stale.is_empty(), "stale lint-allow.txt entries: {stale:?}");

    let mut out = Vec::new();
    let mut err = Vec::new();
    let code = run(
        &Options {
            root: root.clone(),
            format: Format::Text,
            update_baseline: false,
        },
        &mut out,
        &mut err,
    );
    assert_eq!(
        code,
        0,
        "committed tree must pass the ratchet:\n{}{}",
        String::from_utf8_lossy(&out),
        String::from_utf8_lossy(&err)
    );
}

/// Public library items that only tests name, kept because the tests use
/// them to inspect or cross-check live code: `(file, item, reason)`.
const TEST_ONLY_KEEP: &[(&str, &str, &str)] = &[
    (
        "crates/cluster/src/cache.rs",
        "iter_resident",
        "lists the resident set, which the cache proptests sum against `used_kb`",
    ),
    (
        "crates/core/src/l2s_policy.rs",
        "server_set",
        "shows the L2S replica sets that placement tests check",
    ),
    (
        "crates/core/src/l2s_policy.rs",
        "viewed_load",
        "shows one node's view of another's load, which the overload tests check",
    ),
    (
        "crates/core/src/lard.rs",
        "server_set",
        "shows the LARD replica sets that placement tests check",
    ),
    (
        "crates/devs/src/resource.rs",
        "busy_time",
        "the busy total the work-conservation tests compare with the service times",
    ),
    (
        "crates/model/src/model.rs",
        "saturation_throughput",
        "bisects the M/M/1 solution to cross-check the closed-form bound",
    ),
    (
        "crates/sim/src/config.rs",
        "quick",
        "the small configuration that simulator, replay and bench tests and the facade's doctest run",
    ),
    (
        "crates/trace/src/clf.rs",
        "into_paths",
        "the interned paths, which the interner proptest compares with first appearance",
    ),
    (
        "crates/trace/src/clf.rs",
        "parse_line",
        "the reference parser `ClfStream` is compared against",
    ),
    (
        "crates/workload/src/schedule.rs",
        "cumulative",
        "the rate integral, the oracle the time inversion is round-tripped against",
    ),
    (
        "crates/zipf/src/lib.rs",
        "probability",
        "one rank's probability in the sampler's table, which sampling tests check",
    ),
];

/// Keywords that open an item whose name follows them.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// A `pub` item defined in library code.
struct PubItem {
    path: String,
    line: usize,
    name: String,
}

/// True for a library crate's source, other than the lint's own and the
/// proptest shim's: `crates/<name>/src/**` or the root `src/**`, minus
/// binary targets.
fn is_library_source(rel: &str) -> bool {
    let src = match rel.strip_prefix("crates/") {
        Some(rest) => match rest.split_once("/src/") {
            Some((name, src)) if name != "lint" && name != "proptest" => src,
            _ => return false,
        },
        None => match rel.strip_prefix("src/") {
            Some(src) => src,
            None => return false,
        },
    };
    src != "main.rs" && !src.starts_with("bin/")
}

/// The index of the item name defined by the keyword at `i`, if any:
/// the identifier after `fn`, `struct`, …. The `const` of a `const fn`
/// defines nothing itself.
fn defined_name(sig: &[Token], src: &str, i: usize) -> Option<usize> {
    let kw = sig[i].text(src);
    if sig[i].kind != TokenKind::Ident || !ITEM_KEYWORDS.contains(&kw) {
        return None;
    }
    let next = sig.get(i + 1)?;
    let defines = next.kind == TokenKind::Ident && !(kw == "const" && next.text(src) == "fn");
    defines.then_some(i + 1)
}

/// For `pub` at `i` (not `pub(crate)` and the like), the index of the
/// keyword of the item it publishes: `pub const fn` publishes a `fn`.
fn published_keyword(sig: &[Token], src: &str, i: usize) -> Option<usize> {
    let const_fn =
        sig.get(i + 1)?.text(src) == "const" && sig.get(i + 2).is_some_and(|t| t.text(src) == "fn");
    let kw = if const_fn { i + 2 } else { i + 1 };
    (sig[kw].kind == TokenKind::Ident).then_some(kw)
}

/// For an `impl` block opening at `i`, the name of the type it implements
/// for (the last identifier of the self type, outside brackets) and the
/// index of the body's closing brace. `None` for `impl Trait` in type
/// position, which follows `->`, `(`, `,` and the like.
fn impl_block(sig: &[Token], src: &str, i: usize) -> Option<(String, usize)> {
    if i > 0 && !matches!(sig[i - 1].text(src), "}" | ";" | "{" | "]") {
        return None;
    }
    let open = (i..sig.len()).find(|&k| sig[k].text(src) == "{")?;
    let mut depth = 0i32;
    let mut self_type = None;
    let mut k = i + 1;
    while k < open {
        let text = sig[k].text(src);
        match text {
            "<" | "(" | "[" => depth += 1,
            ">" if sig[k - 1].text(src) != "-" => depth -= 1,
            ")" | "]" => depth -= 1,
            "for" if depth == 0 => self_type = None,
            "where" if depth == 0 => break,
            _ if depth == 0 && sig[k].kind == TokenKind::Ident => {
                self_type = Some(text.to_string());
            }
            _ => {}
        }
        k += 1;
    }
    let mut depth = 0usize;
    let close = (open..sig.len()).find(|&k| {
        match sig[k].text(src) {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        depth == 0
    })?;
    Some((self_type?, close))
}

#[test]
fn every_public_library_item_has_a_caller_outside_tests() {
    let root = repo_root();
    let mut items = Vec::new();
    let mut callers = BTreeSet::new();
    for file in all_rust_files(&root) {
        let rel = file
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&file).unwrap();
        let sig: Vec<Token> = lex(&src)
            .unwrap()
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        let in_test = if rel.split('/').any(|part| part == "tests") {
            vec![true; sig.len()]
        } else {
            test_regions(&sig, &src)
        };
        let library = is_library_source(&rel);
        let mut definitions = BTreeSet::new();
        let mut reexport = vec![false; sig.len()];
        let mut impls = Vec::new();
        for i in 0..sig.len() {
            if in_test[i] {
                continue;
            }
            if let Some(name) = defined_name(&sig, &src, i) {
                definitions.insert(name);
            }
            if sig[i].text(&src) == "impl" {
                impls.extend(impl_block(&sig, &src, i).map(|(ty, end)| (ty, i, end)));
            }
            if sig[i].text(&src) != "pub" {
                continue;
            }
            if sig.get(i + 1).is_some_and(|t| t.text(&src) == "use") {
                let end = (i..sig.len())
                    .find(|&k| sig[k].text(&src) == ";")
                    .unwrap_or(sig.len());
                reexport[i..end].iter_mut().for_each(|r| *r = true);
            } else if let Some(name) = published_keyword(&sig, &src, i)
                .and_then(|kw| defined_name(&sig, &src, kw))
                .filter(|_| library)
            {
                items.push(PubItem {
                    path: rel.clone(),
                    line: sig[name].line,
                    name: sig[name].text(&src).to_string(),
                });
            }
        }
        // An occurrence of a name does not count where that name is
        // defined: at the defining identifier, inside an `impl` block for
        // a type of that name, or inside a `pub use` re-export that keeps
        // the name.
        for (i, tok) in sig.iter().enumerate() {
            if tok.kind != TokenKind::Ident || in_test[i] || definitions.contains(&i) {
                continue;
            }
            let text = tok.text(&src);
            let renamed = sig.get(i + 1).is_some_and(|t| t.text(&src) == "as");
            let in_own_impl = impls
                .iter()
                .any(|(ty, start, end)| ty == text && (*start..=*end).contains(&i));
            if (!reexport[i] || renamed) && !in_own_impl {
                callers.insert(text.to_string());
            }
        }
    }
    assert!(
        items.len() > 200,
        "found suspiciously few public items: {}",
        items.len()
    );

    let uncalled: Vec<&PubItem> = items
        .iter()
        .filter(|it| !callers.contains(&it.name))
        .collect();
    let kept = |it: &PubItem| {
        TEST_ONLY_KEEP
            .iter()
            .any(|(path, name, _)| *path == it.path && *name == it.name)
    };
    let unkept: Vec<String> = uncalled
        .iter()
        .filter(|it| !kept(it))
        .map(|it| format!("{}:{} `{}`", it.path, it.line, it.name))
        .collect();
    let stale: Vec<String> = TEST_ONLY_KEEP
        .iter()
        .filter(|(path, name, _)| {
            !uncalled
                .iter()
                .any(|it| it.path == *path && it.name == *name)
        })
        .map(|(path, name, _)| format!("{path} `{name}`"))
        .collect();
    assert!(
        unkept.is_empty() && stale.is_empty(),
        "public library items with no caller outside tests (delete them, or keep-list one that tests use to check live code):\n{}\nstale keep-list entries (the item is gone or has a caller):\n{}",
        unkept.join("\n"),
        stale.join("\n")
    );
}

#[test]
fn json_report_is_byte_stable_on_the_real_tree() {
    let opts = Options {
        root: repo_root(),
        format: Format::Json,
        update_baseline: false,
    };
    let render = || {
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run(&opts, &mut out, &mut err);
        (code, out)
    };
    let (code_a, a) = render();
    let (code_b, b) = render();
    assert_eq!(code_a, code_b);
    assert_eq!(a, b, "same tree must render byte-identical JSON");
    let text = String::from_utf8(a).unwrap();
    assert!(text.starts_with("{\n  \"version\": 1,"));
    assert!(text.ends_with("}\n"));
    assert!(text.contains("\"summary\""));
}

/// A throwaway workspace for driving the installed binary.
struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(tag: &str, files: &[(&str, &str)]) -> TempTree {
        let root = std::env::temp_dir().join(format!("l2s-lint-ws-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (path, source) in files {
            let full = root.join(path);
            fs::create_dir_all(full.parent().unwrap()).unwrap();
            fs::write(&full, source).unwrap();
        }
        TempTree { root }
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const HEADER: &str = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";

fn lint_binary(root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_l2s-lint"))
        .arg(root)
        .args(extra)
        .output()
        .expect("l2s-lint binary must run")
}

#[test]
fn binary_exit_codes_cover_clean_findings_and_errors() {
    let clean = TempTree::new(
        "clean",
        &[
            ("crates/core/Cargo.toml", "[package]\n"),
            (
                "crates/core/src/lib.rs",
                &format!("{HEADER}pub fn f() {{}}\n"),
            ),
        ],
    );
    let output = lint_binary(&clean.root, &[]);
    assert_eq!(output.status.code(), Some(0), "clean tree exits 0");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("l2s-lint: clean"), "summary missing: {err}");

    let dirty = TempTree::new(
        "dirty",
        &[
            ("crates/core/Cargo.toml", "[package]\n"),
            (
                "crates/core/src/lib.rs",
                &format!("{HEADER}pub fn f(v: Option<u32>) -> u32 {{ v.unwrap() }}\n"),
            ),
        ],
    );
    let output = lint_binary(&dirty.root, &[]);
    assert_eq!(output.status.code(), Some(1), "deny findings exit 1");
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(out.contains("deny[panic]"), "finding not rendered: {out}");

    let output = lint_binary(Path::new("/nonexistent/l2s-lint-tree"), &[]);
    assert_eq!(output.status.code(), Some(2), "unreadable tree exits 2");

    let output = Command::new(env!("CARGO_BIN_EXE_l2s-lint"))
        .arg("--format")
        .arg("xml")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "bad flags exit 2");
}

#[test]
fn binary_ratchet_rejects_synthetic_baseline_growth() {
    // One warn finding against a committed baseline that tolerates zero:
    // the ratchet must fail the run even though nothing is deny-level.
    let tree = TempTree::new(
        "ratchet",
        &[
            ("crates/core/Cargo.toml", "[package]\n"),
            (
                "crates/core/src/lib.rs",
                &format!("{HEADER}pub fn f(x: u64) -> f64 {{ x as f64 }}\n"),
            ),
            (
                "lint-baseline.json",
                "{\n  \"version\": 1,\n  \"warn\": {}\n}\n",
            ),
        ],
    );
    let output = lint_binary(&tree.root, &[]);
    assert_eq!(output.status.code(), Some(1), "warn growth exits 1");
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(
        out.contains("baseline: warn[lossy-cast]"),
        "growth not reported: {out}"
    );

    // --update-baseline ratchets the debt in and the run goes green.
    let output = lint_binary(&tree.root, &["--update-baseline"]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "regenerated baseline exits 0"
    );
    let baseline = fs::read_to_string(tree.root.join("lint-baseline.json")).unwrap();
    assert!(baseline.contains("\"crates/core/src/lib.rs\": 1"));
    let output = lint_binary(&tree.root, &[]);
    assert_eq!(output.status.code(), Some(0), "tolerated debt stays green");
}
