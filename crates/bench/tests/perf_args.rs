//! The perf harnesses refuse every argument but their own mode flag,
//! before they measure or write anything.

use std::process::Command;

#[test]
fn unknown_arguments_exit_2_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("l2s-perf-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = env!("CARGO_BIN_EXE_perf_baseline");
    let scaling = env!("CARGO_BIN_EXE_perf_scaling");
    for (bin, json_var, args) in [
        (baseline, "L2S_BENCH_JSON", &["--chek"][..]),
        (baseline, "L2S_BENCH_JSON", &["--smoke"]),
        (baseline, "L2S_BENCH_JSON", &["--check", "extra"]),
        (scaling, "L2S_SCALING_JSON", &["--smok"]),
        (scaling, "L2S_SCALING_JSON", &["--check"]),
    ] {
        let json = dir.join(format!("{json_var}.json"));
        let out = Command::new(bin)
            .args(args)
            .env(json_var, &json)
            // Keeps a harness that wrongly accepted the argument short.
            .env("L2S_SCALING_REQUESTS", "1000")
            .output()
            .expect("harness runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
        let bad = args.last().unwrap();
        assert!(err.contains(bad), "{bin} {args:?} must name {bad}: {err}");
        assert!(!json.exists(), "{bin} {args:?} wrote {}", json.display());
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
