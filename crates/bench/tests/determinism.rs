//! Determinism across worker counts: each experiment below, run with 4
//! workers, must write CSVs byte-identical to its sequential run. The
//! executor collects cells by index, never by completion order
//! ([`l2s_bench::run_cells_parallel`]); this checks that contract end to
//! end through real experiments — trace generation, the cell matrix,
//! and the CSV writers.
//!
//! The worker count goes straight to the pool, so the 4-worker run uses
//! 4 threads even on a single core. Each run writes to its own
//! temporary directory, removed when the test finishes.

use l2s_bench::{experiments, RunCtx};
use std::path::{Path, PathBuf};

/// One experiment under test: its name in [`experiments::ALL`], the
/// CSVs it writes, and the content checks its sequential output must
/// pass.
struct Case {
    name: &'static str,
    csvs: &'static [&'static str],
    check: fn(&Path),
}

const CASES: &[Case] = &[
    // The full `sweep` matrix behind Figures 7–10.
    Case {
        name: "fig07_calgary",
        csvs: &["fig07_calgary.csv"],
        check: |_| {},
    },
    // The hardest case for the index-ordered contract: stage two derives
    // each trace's crash schedule from stage one's healthy elapsed
    // times, so completion-order leakage in stage one would reshape the
    // fault plans and cascade through every downstream number.
    Case {
        name: "exp_faults",
        csvs: &["exp_faults.csv"],
        check: |dir| {
            let text = read(dir, "exp_faults.csv");
            assert!(
                text.lines().skip(1).any(|l| {
                    let retried: u64 = l.split(',').nth(8).unwrap_or("0").parse().unwrap_or(0);
                    retried > 0
                }),
                "the fault plan should strand (and retry) at least one request somewhere:\n{text}"
            );
        },
    },
    // JSQ(2), join-idle-queue and the SITA splitter on every hardware
    // mix: JIQ's idle stack, SITA's size thresholds and JSQ's sampling
    // RNG must not leak across cells.
    Case {
        name: "exp_hetero",
        csvs: &["exp_hetero.csv"],
        check: |dir| {
            let text = read(dir, "exp_hetero.csv");
            for policy in ["jsq", "jiq", "sita", "model_bound"] {
                assert!(
                    text.lines().any(|l| l.split(',').nth(2) == Some(policy)),
                    "the surface should carry {policy} rows:\n{text}"
                );
            }
        },
    },
    // The modulation engine — rate-schedule inversion, flash-crowd
    // redirection, working-set drift — for every dispatcher: the
    // Modulator's private stream, the pending arrival pair and the
    // pass-base clock must not depend on completion order.
    Case {
        name: "exp_workload",
        csvs: &["exp_workload.csv", "exp_workload_model.csv"],
        check: |dir| {
            let text = read(dir, "exp_workload.csv");
            for scenario in ["stationary", "drift", "flash"] {
                assert!(
                    text.lines().any(|l| l.split(',').next() == Some(scenario)),
                    "the degradation table should carry {scenario} rows:\n{text}"
                );
            }
            for policy in [
                "traditional",
                "round-robin",
                "lard",
                "l2s",
                "jsq",
                "jiq",
                "sita",
            ] {
                assert!(
                    text.lines().any(|l| l.split(',').nth(1) == Some(policy)),
                    "the degradation table should carry {policy} rows:\n{text}"
                );
            }
            let model = read(dir, "exp_workload_model.csv");
            assert!(
                model.lines().count() >= 4,
                "the model-validation table should carry at least 3 scenarios:\n{model}"
            );
        },
    },
    // Each cell checks the observed DES run against the unobserved one,
    // so this pins the observer contract under concurrent cells and
    // the placement checksums themselves.
    Case {
        name: "exp_replay",
        csvs: &["exp_replay.csv"],
        check: |dir| {
            let text = read(dir, "exp_replay.csv");
            for trace in ["calgary", "clarknet", "nasa", "rutgers"] {
                for policy in ["l2s", "lard", "jsq"] {
                    let row = text
                        .lines()
                        .find(|l| {
                            let mut f = l.split(',');
                            f.next() == Some(trace) && f.next() == Some(policy)
                        })
                        .unwrap_or_else(|| panic!("missing {trace}/{policy} row:\n{text}"));
                    let checksum = row.split(',').nth(4).unwrap_or("");
                    assert_eq!(
                        checksum.len(),
                        16,
                        "{trace}/{policy}: malformed checksum {checksum:?}"
                    );
                }
            }
        },
    },
];

fn read(dir: &Path, csv: &str) -> String {
    std::fs::read_to_string(dir.join(csv))
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.join(csv).display()))
}

/// A temporary output directory, removed on drop (also when a check
/// fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("l2s-det-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs experiment `name` at a small cap with `workers` threads into a
/// fresh directory.
fn run(name: &str, workers: usize) -> TempDir {
    let dir = TempDir::new(&format!("{name}-w{workers}"));
    // Small cap so both runs finish in seconds; the cap is part of each
    // cell's configuration, so it is identical across runs. A fresh
    // context per run starts with an empty report store, so the 4-worker
    // run simulates every cell itself instead of reading the sequential
    // run's reports.
    let ctx = RunCtx::new(workers, Some(2_000), dir.0.clone());
    let (_, experiment) = experiments::ALL
        .iter()
        .find(|(known, _)| *known == name)
        .unwrap_or_else(|| panic!("{name} is not in experiments::ALL"));
    experiment(&ctx).unwrap_or_else(|e| panic!("{name} with {workers} worker(s): {e}"));
    dir
}

#[test]
fn experiment_csvs_are_byte_identical_across_worker_counts() {
    for case in CASES {
        let sequential = run(case.name, 1);
        let parallel = run(case.name, 4);
        for csv in case.csvs {
            let seq = std::fs::read(sequential.0.join(csv)).unwrap();
            let par = std::fs::read(parallel.0.join(csv)).unwrap();
            assert!(
                !seq.is_empty(),
                "{}: sequential run wrote an empty {csv}",
                case.name
            );
            assert!(
                seq == par,
                "{}: 4-worker {csv} must be byte-identical to the sequential CSV",
                case.name
            );
        }
        (case.check)(&sequential.0);
    }
}
