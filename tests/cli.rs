//! End-to-end tests of the `clusterlab` and `l2s-replay` CLI binaries.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin`, killing it if it is still running after 30 s: a timed
/// replay paced by the wall clock can otherwise wait forever.
fn run_bounded(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("wait on the binary").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill the binary");
            panic!("{bin} {args:?} did not finish within 30 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait_with_output().expect("collect the output")
}

fn clusterlab(args: &[&str]) -> Output {
    run_bounded(env!("CARGO_BIN_EXE_clusterlab"), args)
}

fn l2s_replay(args: &[&str]) -> Output {
    run_bounded(env!("CARGO_BIN_EXE_l2s-replay"), args)
}

/// Asserts that a run exited 2 (a usage error, not a panic's 101) with a
/// message naming `flag`.
fn assert_rejects(out: &Output, flag: &str, args: &[&str]) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains(flag), "{args:?} must name {flag}: {err}");
}

#[test]
fn model_subcommand_reports_bound_and_bottleneck() {
    let out = clusterlab(&["model", "--nodes", "16", "--hit", "0.8", "--size", "4"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("throughput bound"), "{text}");
    assert!(text.contains("bottleneck"), "{text}");
    assert!(text.contains("LocalityConscious"), "{text}");
}

#[test]
fn model_oblivious_kind_selectable() {
    let out = clusterlab(&["model", "--kind", "lo", "--hit", "0.5"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("LocalityOblivious"), "{text}");
    assert!(text.contains("forwarded (Q)    : 0.000"), "{text}");
}

#[test]
fn trace_subcommand_prints_statistics() {
    let out = clusterlab(&[
        "trace",
        "--trace",
        "rutgers",
        "--files",
        "500",
        "--requests",
        "5000",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("files           : 500"), "{text}");
    assert!(text.contains("requests        : 5000"), "{text}");
    assert!(text.contains("zipf alpha"), "{text}");
}

#[test]
fn simulate_subcommand_runs_a_small_cluster() {
    let out = clusterlab(&[
        "simulate",
        "--trace",
        "calgary",
        "--nodes",
        "4",
        "--policy",
        "l2s",
        "--files",
        "400",
        "--requests",
        "5000",
        "--cache-mb",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("completed         : 5000"), "{text}");
    assert!(text.contains("throughput"), "{text}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = clusterlab(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn unknown_policy_is_a_clean_error() {
    let out = clusterlab(&["simulate", "--policy", "quantum"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown policy"), "{err}");
}

#[test]
fn bare_option_names_the_offending_flag() {
    // Regression: a trailing `--nodes` with no value used to be stored
    // as the empty string and reported as `invalid value ""`.
    let out = clusterlab(&["model", "--nodes"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("missing value for --nodes"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn help_prints_usage() {
    for args in [&["help"][..], &["--help"], &["simulate", "--help"]] {
        let out = clusterlab(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("USAGE"), "{args:?}: {text}");
        assert!(text.contains("clusterlab simulate"), "{args:?}: {text}");
    }
}

#[test]
fn clusterlab_rejects_bad_flags_with_exit_2() {
    for (flag, args) in [
        ("--nodes", &["simulate", "--nodes", "0"][..]),
        ("--cache-mb", &["simulate", "--cache-mb", "-5"]),
        ("--cache-mb", &["simulate", "--cache-mb", "nan"]),
        // Finite in MB but not in KB: simulate blamed `cache_kb`, and
        // compare panicked in the engine (exit 101).
        ("--cache-mb", &["simulate", "--cache-mb", "1e306"]),
        ("--cache-mb", &["compare", "--cache-mb", "1e306"]),
        ("--files", &["simulate", "--files", "0"]),
        ("--requests", &["simulate", "--requests", "0"]),
        // Integer flags parse as integers, never through a float cast.
        ("--nodes", &["simulate", "--nodes", "2.7"]),
        ("--seed", &["simulate", "--seed", "-1"]),
        // A flag the command never reads is an error, not a default run.
        ("--nodse", &["simulate", "--nodse", "4"]),
        ("--trace", &["model", "--trace", "calgary"]),
        // The hit rate is a fraction; NaN used to print H = 1, Q = 0.
        ("--hit", &["model", "--hit", "2"]),
        ("--hit", &["model", "--hit", "-1"]),
        ("--hit", &["model", "--hit", "nan"]),
        // A cache below one file printed H = 1.000; the message names
        // both --cache-mb and --size.
        ("--size", &["model", "--cache-mb", "1e-300"]),
        ("--cache-mb", &["model", "--cache-mb", "0.01"]),
        ("--cache-mb", &["model", "--size", "1e306"]),
    ] {
        assert_rejects(&clusterlab(args), flag, args);
    }
}

#[test]
fn a_log_that_keeps_no_request_exits_2() {
    // An empty log used to panic `clusterlab` in a debug build (exit 101);
    // it printed an all-zero report and exited 0 from a release build of
    // `clusterlab`, and from `l2s-replay` in both modes, which also wrote
    // that report to `--csv`.
    let dir = std::env::temp_dir().join(format!("clusterlab-empty-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (empty, junk) = (dir.join("empty.log"), dir.join("junk.log"));
    std::fs::write(&empty, "").unwrap();
    std::fs::write(&junk, "not a log line\n").unwrap();
    let csv = dir.join("report.csv");
    let csv_arg = csv.to_str().unwrap();
    for log in [&empty, &junk] {
        let log = log.to_str().unwrap();
        for command in ["simulate", "compare", "trace"] {
            let args = [command, "--log", log];
            assert_rejects(&clusterlab(&args), log, &args);
        }
        for fast in [false, true] {
            let mut args = vec!["--log", log, "--csv", csv_arg];
            if fast {
                args.push("--as-fast-as-possible");
            }
            let out = l2s_replay(&args);
            assert_rejects(&out, log, &args);
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(
                !text.contains("throughput"),
                "{args:?} printed a report: {text}"
            );
            assert!(!csv.exists(), "{args:?} wrote a CSV report");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_arrival_past_the_clock_exits_2() {
    // The replay clock counts u64 nanoseconds, about 584 years. These
    // runs printed `elapsed (virtual) : 18446744073.7 s` and
    // `throughput : 0 requests/s`, and exited 0.
    let dir = std::env::temp_dir().join(format!("l2s-replay-millennium-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("millennium.log");
    std::fs::write(
        &log,
        "h - - [01/Jan/1000:00:00:00 +0000] \"GET /a HTTP/1.0\" 200 1024\n\
         h - - [01/Jan/2000:00:00:00 +0000] \"GET /b HTTP/1.0\" 200 1024\n",
    )
    .unwrap();
    let csv = dir.join("report.csv");
    let (log, csv_arg) = (log.to_str().unwrap(), csv.to_str().unwrap());
    let trace = [
        "--trace",
        "calgary",
        "--requests",
        "300",
        "--files",
        "50",
        "--rate",
        "1e-300",
        "--as-fast-as-possible",
        "--csv",
        csv_arg,
    ];
    let paced = ["--log", log, "--csv", csv_arg];
    let fast = ["--log", log, "--csv", csv_arg, "--as-fast-as-possible"];
    for (flag, args) in [("--rate", &trace[..]), ("--log", &paced), ("--log", &fast)] {
        let out = l2s_replay(args);
        assert_rejects(&out, flag, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("past the replay clock's range of 1.845e10 s"),
            "{args:?}: {err}"
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            !text.contains("throughput"),
            "{args:?} printed a report: {text}"
        );
        assert!(!csv.exists(), "{args:?} wrote a CSV report");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn l2s_replay_rejects_bad_flags_with_exit_2() {
    for (flag, args) in [
        (
            "--cache-mb",
            &[
                "--trace",
                "calgary",
                "--cache-mb",
                "-1",
                "--as-fast-as-possible",
            ][..],
        ),
        // Ran with an infinite cache in release and panicked in debug.
        (
            "--cache-mb",
            &[
                "--trace",
                "calgary",
                "--cache-mb",
                "1e306",
                "--as-fast-as-possible",
            ],
        ),
        ("--files", &["--trace", "calgary", "--files", "0"]),
        ("--requests", &["--trace", "calgary", "--requests", "0"]),
        ("--rate", &["--trace", "calgary", "--rate", "0"]),
        ("--rate", &["--trace", "calgary", "--rate", "-5"]),
        ("--rate", &["--trace", "calgary", "--rate", "nan"]),
        (
            "--snapshot-secs",
            &["--trace", "calgary", "--snapshot-secs", "nan"],
        ),
        (
            "--snapshot-secs",
            &["--trace", "calgary", "--snapshot-secs", "-3"],
        ),
        // These used to be read as floats and cast: seed -1 ran seed 0,
        // 2.7 nodes ran 2, 1e12 nodes aborted on allocation (exit 134)
        // and 1e30 requests panicked (exit 101).
        ("--seed", &["--trace", "calgary", "--seed", "-1"]),
        ("--nodes", &["--trace", "calgary", "--nodes", "2.7"]),
        ("--nodes", &["--trace", "calgary", "--nodes", "1e12"]),
        ("--requests", &["--trace", "calgary", "--requests", "1e30"]),
        ("--nodse", &["--trace", "calgary", "--nodse", "4"]),
        // Each flag is read only in the modes where it acts.
        ("--files", &["--log", "two.log", "--files", "3"]),
        ("--seed", &["--log", "two.log", "--seed", "9"]),
        ("--rate", &["--log", "two.log", "--rate", "5"]),
        (
            "--speed",
            &["--log", "two.log", "--as-fast-as-possible", "--speed", "7"],
        ),
        ("--speed", &["--trace", "calgary", "--fast", "--speed", "7"]),
        // No mode reads `--checksum`: the DES is `clusterlab simulate`.
        ("--checksum", &["--trace", "calgary", "--checksum"]),
        (
            "--checksum",
            &["--log", "two.log", "--as-fast-as-possible", "--checksum"],
        ),
    ] {
        assert_rejects(&l2s_replay(args), flag, args);
    }
    // As fast as possible only swaps the clock, so a trace takes the
    // rate and the snapshot period it takes when paced.
    for args in [
        &[
            "--trace",
            "calgary",
            "--as-fast-as-possible",
            "--rate",
            "100",
            "--requests",
            "2000",
        ],
        &[
            "--trace",
            "calgary",
            "--as-fast-as-possible",
            "--snapshot-secs",
            "1",
            "--requests",
            "2000",
        ],
    ] {
        let out = l2s_replay(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("completed         : 2000"), "{text}");
    }
}

#[test]
fn l2s_replay_help_and_flags_still_work() {
    let out = l2s_replay(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    // `--fast` is an alias of `--as-fast-as-possible`; both may be given.
    let args = [
        "--trace",
        "calgary",
        "--nodes",
        "4",
        "--requests",
        "2000",
        "--fast",
        "--as-fast-as-possible",
    ];
    let out = l2s_replay(&args);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("completed         : 2000"), "{text}");
    assert!(text.contains("p99 response"), "{text}");
}

/// A fresh scratch directory for one test.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The lines of `usage` that document `command`: its `clusterlab
/// <command>` line and the indented lines that continue it.
fn usage_block<'a>(usage: &'a str, command: &str) -> Vec<&'a str> {
    let head = format!("clusterlab {command} ");
    let mut lines = usage
        .lines()
        .skip_while(|l| !l.trim_start().starts_with(&head));
    let first = lines
        .next()
        .unwrap_or_else(|| panic!("USAGE has no {command} line:\n{usage}"));
    std::iter::once(first)
        .chain(lines.take_while(|l| l.starts_with("   ")))
        .collect()
}

#[test]
fn every_clusterlab_flag_runs_and_is_in_its_usage_block() {
    let dir = scratch_dir("clusterlab-flags");
    let log = dir.join("small.log");
    let lines: String = (0..40)
        .map(|i| {
            format!(
                "h - - [01/Jan/2000:10:00:{:02} +0000] \"GET /f{} HTTP/1.0\" 200 {}\n",
                i,
                i % 7,
                1024 * (1 + i % 3)
            )
        })
        .collect();
    std::fs::write(&log, lines).unwrap();
    let log = log.to_str().unwrap();
    let usage = String::from_utf8(clusterlab(&["--help"]).stdout).unwrap();
    // One row per flag each subcommand reads; an empty value is a bare
    // flag.
    let rows: &[(&str, &str, &str)] = &[
        ("model", "--nodes", "4"),
        ("model", "--hit", "0.5"),
        ("model", "--size", "8"),
        ("model", "--replication", "0.15"),
        ("model", "--cache-mb", "64"),
        ("model", "--kind", "lo"),
        ("simulate", "--trace", "nasa"),
        ("simulate", "--log", log),
        ("simulate", "--nodes", "2"),
        ("simulate", "--policy", "lard"),
        ("simulate", "--cache-mb", "8"),
        ("simulate", "--requests", "1000"),
        ("simulate", "--files", "100"),
        ("simulate", "--seed", "7"),
        ("simulate", "--persistent", "3"),
        ("simulate", "--dfs", ""),
        ("trace", "--trace", "nasa"),
        ("trace", "--log", log),
        ("trace", "--requests", "1000"),
        ("trace", "--files", "100"),
        ("trace", "--seed", "7"),
        ("compare", "--trace", "nasa"),
        ("compare", "--log", log),
        ("compare", "--nodes", "2"),
        ("compare", "--cache-mb", "8"),
        ("compare", "--requests", "1000"),
        ("compare", "--files", "100"),
        ("compare", "--seed", "7"),
    ];
    let mut unlisted = Vec::new();
    for &(command, flag, value) in rows {
        let mut args = vec![command, flag];
        if !value.is_empty() {
            args.push(value);
        }
        // Keep synthetic traces small; a log takes no trace-shaping flag.
        if command != "model" && flag != "--log" {
            for (small, n) in [("--requests", "1000"), ("--files", "100")] {
                if flag != small {
                    args.extend([small, n]);
                }
            }
        }
        let out = clusterlab(&args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let listed = usage_block(&usage, command)
            .iter()
            .flat_map(|l| l.split(|c: char| c.is_whitespace() || "[]|".contains(c)))
            .any(|word| word == flag);
        if !listed {
            unlisted.push(format!("{command} {flag}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        unlisted.is_empty(),
        "flags read but missing from their subcommand's USAGE block: {unlisted:?}\n{usage}"
    );
}

#[test]
fn both_clis_keep_the_same_lines_of_one_log() {
    // `clusterlab --log` used to read the whole log as one `String`: one
    // line that is not UTF-8 failed the run (exit 2), and a last line
    // with no `\n`, which `l2s-replay --log` drops as a line still being
    // written, was kept.
    let dir = scratch_dir("clusterlab-one-log");
    let log = dir.join("mixed.log");
    std::fs::write(
        &log,
        b"h - - [01/Jan/2000:10:00:00 +0000] \"GET /a HTTP/1.0\" 200 1024\n\
          h - - [01/Jan/2000:10:00:01 +0000] \"GET /\xff\xfe HTTP/1.0\" 200 1024\n\
          h - - [01/Jan/2000:10:00:02 +0000] \"GET /b HTTP/1.0\" 200 1024\n\
          h - - [01/Jan/2000:10:00:03 +0000] \"GET /c HTTP/1.0\" 200 1024",
    )
    .unwrap();
    let log = log.to_str().unwrap();
    // The summary each tool prints after `log lines ... : `.
    let summary = |out: &Output| -> String {
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text
            .lines()
            .find(|l| l.starts_with("log lines"))
            .unwrap_or_else(|| panic!("no log line summary in:\n{text}"));
        line.split_once(": ").unwrap().1.to_string()
    };
    let lab = clusterlab(&["trace", "--log", log]);
    assert!(
        lab.status.success(),
        "{}",
        String::from_utf8_lossy(&lab.stderr)
    );
    let text = String::from_utf8_lossy(&lab.stdout);
    assert!(text.contains("requests        : 2"), "{text}");
    let replay = l2s_replay(&["--log", log, "--as-fast-as-possible"]);
    assert!(
        replay.status.success(),
        "{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    assert_eq!(
        summary(&lab),
        "3 read, 2 kept, 1 dropped, truncated final line discarded"
    );
    assert_eq!(summary(&lab), summary(&replay));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_stdout_ends_the_run_quietly_with_exit_0() {
    // Both tools used to panic on the next line after their reader went
    // away ("failed printing to stdout: Broken pipe", exit 101).
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_clusterlab"),
            &[
                "compare",
                "--trace",
                "calgary",
                "--requests",
                "3000",
                "--files",
                "300",
                "--nodes",
                "4",
            ][..],
        ),
        (
            env!("CARGO_BIN_EXE_l2s-replay"),
            &[
                "--trace",
                "calgary",
                "--nodes",
                "4",
                "--requests",
                "20000",
                "--rate",
                "500",
                "--as-fast-as-possible",
            ],
        ),
    ] {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("read one line");
        assert!(!first.is_empty(), "{args:?} printed nothing");
        drop(stdout);
        let out = child.wait_with_output().expect("collect the output");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn every_numeric_flag_survives_its_extremes() {
    // Exit 0 (the value is usable) or 2 (rejected), never a panic or a
    // run that does not end. Paced replay is left out: a
    // tiny --rate waits for centuries on the wall clock by design.
    let small = ["--requests", "300", "--files", "50"];
    let replay = ["--trace", "calgary", "--as-fast-as-possible"];
    let rows: &[(&str, &[&str], &[&str])] = &[
        (
            "clusterlab",
            &["model"],
            &["--nodes", "--hit", "--size", "--replication", "--cache-mb"],
        ),
        (
            "clusterlab",
            &["simulate"],
            &[
                "--nodes",
                "--cache-mb",
                "--requests",
                "--files",
                "--seed",
                "--persistent",
            ],
        ),
        (
            "clusterlab",
            &["trace"],
            &["--requests", "--files", "--seed"],
        ),
        (
            "clusterlab",
            &["compare"],
            &["--nodes", "--cache-mb", "--requests", "--files", "--seed"],
        ),
        (
            "l2s-replay",
            &replay,
            &[
                "--nodes",
                "--cache-mb",
                "--files",
                "--requests",
                "--seed",
                "--rate",
                "--snapshot-secs",
            ],
        ),
    ];
    for &(tool, base, flags) in rows {
        for &flag in flags {
            for value in ["0", "-1", "NaN", "inf", "1e306", "1e-300"] {
                let mut args = base.to_vec();
                if base[0] != "model" {
                    for pair in small.chunks(2) {
                        if pair[0] != flag {
                            args.extend(pair);
                        }
                    }
                }
                args.extend([flag, value]);
                let out = match tool {
                    "clusterlab" => clusterlab(&args),
                    _ => l2s_replay(&args),
                };
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(
                    matches!(out.status.code(), Some(0 | 2)),
                    "{tool} {args:?} exited {:?}: {err}",
                    out.status.code()
                );
                assert!(!err.contains("panicked"), "{tool} {args:?}: {err}");
            }
        }
    }
}
