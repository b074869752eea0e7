//! End-to-end tests of the `clusterlab` and `l2s-replay` CLI binaries.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn clusterlab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_clusterlab"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Runs `l2s-replay`, killing it if it is still running after 30 s: a
/// timed replay paced by the wall clock can otherwise wait forever.
fn l2s_replay(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_l2s-replay"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("wait on l2s-replay").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill l2s-replay");
            panic!("l2s-replay {args:?} did not finish within 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect l2s-replay output")
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
    ] {
        assert_rejects(&clusterlab(args), flag, args);
    }
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
    ] {
        assert_rejects(&l2s_replay(args), flag, args);
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
        "--checksum",
    ];
    let out = l2s_replay(&args);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("checksum"), "{text}");
}
