//! The instrument behind the `perf_baseline` and `perf_scaling`
//! harnesses: one timed cell ([`time_cell`]), one table printer, one
//! writer for the `BENCH_*.json` records ([`render_record`], which
//! `all_figures` also uses for `BENCH_suite.json`), and the CI gates as
//! pure functions ([`ratchet`], [`canary`], [`flatness`]). Cells run one
//! at a time on the calling thread, so wall time per cell stays
//! comparable across commits.

use crate::{cache_name, paper_trace, trace_seed};
use l2s::PolicyKind;
use l2s_cluster::CachePolicy;
use l2s_devs::QueueStats;
use l2s_sim::{simulate_workload, SimConfig, SynthWorkload, TraceWorkload, Workload};
use l2s_trace::TraceSpec;
use l2s_util::cast;
use std::path::Path;
use std::time::Instant;

/// Requests per `perf_baseline` cell (warm-up and measurement passes
/// alike), pinned so runs stay comparable across commits.
pub const PINNED_CAP: usize = 150_000;

/// `perf_baseline --check`'s catastrophe canary: a live run may be at
/// most this many times slower than the committed figure. Identical
/// binaries on shared hosts swung up to ~2.5× between contention phases.
pub const MAX_REGRESSION: f64 = 3.0;

/// `perf_baseline --check`'s ratchet: the committed `BENCH_sim.json`
/// must record at least this speedup of `events_per_sec` over
/// `baseline_events_per_sec`. Both come from one recorded run, so the
/// checking host's speed does not enter.
pub const MIN_SPEEDUP_VS_SEED: f64 = 2.1;

/// Requests per cell of the full `perf_scaling` sweep: 10⁸ events or
/// more per cell, the scale the memory-flat claims are made at.
pub const FULL_REQUESTS: usize = 10_000_000;

/// Cluster sizes of the full `perf_scaling` sweep.
pub const FULL_NODES: [usize; 4] = [16, 64, 256, 1024];

/// Requests per cell of `perf_scaling --smoke`.
pub const SMOKE_REQUESTS: usize = 250_000;

/// The small and the large cluster of `perf_scaling --smoke`.
pub const SMOKE_NODES: [usize; 2] = [16, 256];

/// Small-then-large pairs of `perf_scaling --smoke`, interleaved so both
/// sizes sample the same host-contention phases.
pub const SMOKE_TRIALS: usize = 3;

/// `perf_scaling --smoke`'s floor on the large cluster's median events/s
/// over the small one's. A per-request O(n) scan would land near
/// 16/256 = 0.06; the indexed engine measures 0.5–0.7, the rest of the
/// falloff being the larger in-flight window spilling out of L1. The
/// floor sits below that band's noise.
pub const FLATNESS_FLOOR: f64 = 0.35;

/// What one timed simulation did.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Policy simulated.
    pub policy: PolicyKind,
    /// Cluster size.
    pub nodes: usize,
    /// The nodes' cache replacement policy.
    pub cache: CachePolicy,
    /// Host seconds spent in the simulator.
    pub wall_s: f64,
    /// Events handled, warm-up included.
    pub events: u64,
    /// Deepest the event list grew.
    pub peak_fel_depth: usize,
    /// The event list's operation counters (deterministic work).
    pub fel_ops: QueueStats,
    /// Simulated requests per second.
    pub sim_throughput_rps: f64,
    /// The process's peak RSS in kB once the cell finished.
    pub rss_hwm_kb: u64,
}

impl Cell {
    /// Events handled per host second.
    pub fn events_per_sec(&self) -> f64 {
        cast::exact_f64(self.events) / self.wall_s.max(1e-9)
    }
}

/// Runs `policy` on `workload` under `config` and times it.
pub fn time_cell(config: &SimConfig, policy: PolicyKind, workload: &mut dyn Workload) -> Cell {
    let start = Instant::now();
    let report = simulate_workload(config, policy, workload);
    Cell {
        wall_s: start.elapsed().as_secs_f64(),
        policy,
        nodes: config.nodes,
        cache: config.cache_policy,
        events: report.events_handled,
        peak_fel_depth: report.peak_fel_depth,
        fel_ops: report.fel_ops,
        sim_throughput_rps: report.throughput_rps,
        rss_hwm_kb: peak_rss_kb(),
    }
}

/// This process's peak RSS in kB (`VmHWM`; 0 without procfs). A cell
/// that materialized its requests would lift it by hundreds of MB. A
/// read has come out a few hundred kB below an earlier one, so a
/// record's peak is the largest read.
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Prints one row of the cell table.
fn print_row(cols: [&str; 9]) {
    let widths = [12, 6, 6, 10, 12, 12, 9, 12, 12];
    let cols: Vec<String> = cols
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect();
    println!("{}", cols.join(" "));
}

/// Times `plan`'s cells in order, each on a fresh workload, and prints
/// them as one table while they run.
fn time_cells<W: Workload>(
    plan: &[(PolicyKind, SimConfig)],
    mut fresh: impl FnMut() -> W,
) -> Vec<Cell> {
    print_row([
        "policy",
        "nodes",
        "cache",
        "wall (s)",
        "events",
        "events/s",
        "peak FEL",
        "rss HWM kB",
        "sim r/s",
    ]);
    let time = |(policy, config): &(PolicyKind, SimConfig)| {
        let c = time_cell(config, *policy, &mut fresh());
        print_row([
            c.policy.name(),
            &c.nodes.to_string(),
            cache_name(c.cache),
            &format!("{:.3}", c.wall_s),
            &c.events.to_string(),
            &format!("{:.0}", c.events_per_sec()),
            &c.peak_fel_depth.to_string(),
            &c.rss_hwm_kb.to_string(),
            &format!("{:.0}", c.sim_throughput_rps),
        ]);
        c
    };
    plan.iter().map(time).collect()
}

/// `perf_baseline`'s cells: L2S, LARD and traditional at 4, 8 and 16
/// nodes with LRU caches, then L2S and traditional at 8 nodes with
/// GreedyDual-Size caches, each at [`PINNED_CAP`] requests, warm-up on.
pub fn baseline_plan() -> Vec<(PolicyKind, SimConfig)> {
    use CachePolicy::{GreedyDualSize, Lru};
    use PolicyKind::{L2s, Lard, Traditional};
    let lru = [4, 8, 16]
        .into_iter()
        .flat_map(|n| [L2s, Lard, Traditional].map(|p| (p, n, Lru)));
    let gds = [L2s, Traditional].map(|p| (p, 8, GreedyDualSize));
    lru.chain(gds)
        .map(|(policy, nodes, cache_policy)| {
            let config = SimConfig {
                max_requests: Some(PINNED_CAP),
                cache_policy,
                ..SimConfig::paper_default(nodes)
            };
            (policy, config)
        })
        .collect()
}

/// `perf_baseline`: times [`baseline_plan`] on the Calgary trace at its
/// Table 2 population.
///
/// Without `check` it writes the record to `json`, carrying over the
/// `baseline_events_per_sec` of the file it replaces (a first run
/// records itself). With `check` it writes nothing, and fails unless the
/// record at `json` passes the [`ratchet`] and this run the [`canary`].
pub fn baseline(json: &Path, check: bool) -> Result<(), String> {
    let old = std::fs::read_to_string(json).unwrap_or_default();
    let committed = extract_json_num(&old, "events_per_sec");
    let committed_base = extract_json_num(&old, "baseline_events_per_sec");
    if check {
        let (Some(eps), Some(base)) = (committed, committed_base) else {
            return Err(format!("--check: {} holds no record", json.display()));
        };
        let speedup = ratchet(eps, base)?;
        println!("ratchet passed: committed speedup {speedup:.2}x >= {MIN_SPEEDUP_VS_SEED}x");
    }

    let spec = TraceSpec::calgary();
    println!(
        "perf_baseline: generating the pinned {} trace (seed {:#x})...",
        spec.name,
        trace_seed(&spec)
    );
    let trace = paper_trace(&spec);
    let cells = time_cells(&baseline_plan(), || TraceWorkload::new(&trace));
    let (events, wall_s, eps) = totals(&cells);
    let base = committed_base.or(committed).unwrap_or(eps);
    println!(
        "\ntotal: {events} events in {wall_s:.2}s = {eps:.0} events/s; baseline \
         {base:.0} events/s -> speedup {:.2}x",
        eps / base.max(1e-9)
    );
    match committed.filter(|_| check) {
        Some(committed) => {
            canary(eps, committed)?;
            println!("check passed: within {MAX_REGRESSION}x of the committed {committed:.0}");
            Ok(())
        }
        None => write_record(json, &sim_record(&cells, base)),
    }
}

/// Events, host seconds and events per host second over all `cells`.
fn totals(cells: &[Cell]) -> (u64, f64, f64) {
    let events: u64 = cells.iter().map(|c| c.events).sum();
    let wall_s: f64 = cells.iter().map(|c| c.wall_s).sum();
    (events, wall_s, cast::exact_f64(events) / wall_s.max(1e-9))
}

/// The `BENCH_sim.json` record of `perf_baseline`'s `cells`, with `base`
/// as the baseline events/s.
fn sim_record(cells: &[Cell], base: f64) -> String {
    let (events, wall_s, eps) = totals(cells);
    let peak_fel = cells.iter().map(|c| c.peak_fel_depth).max().unwrap_or(0);
    let fields = [
        ("schema", "1".to_string()),
        (
            "workload",
            quote(
                "calgary (Table 2 population) x nodes[4,8,16] x [l2s,lard,traditional] lru + \
                 [l2s,traditional]@8 gds, 150k requests/cell, warm-up on, sequential \
                 single-thread",
            ),
        ),
        ("events_per_sec", format!("{eps:.1}")),
        ("events_total", events.to_string()),
        ("wall_s_total", format!("{wall_s:.3}")),
        ("peak_fel_depth", peak_fel.to_string()),
        ("baseline_events_per_sec", format!("{base:.1}")),
        (
            "speedup_vs_baseline",
            format!("{:.3}", eps / base.max(1e-9)),
        ),
    ];
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            object(&[
                ("policy", quote(c.policy.name())),
                ("nodes", c.nodes.to_string()),
                ("cache", quote(cache_name(c.cache))),
                ("wall_s", format!("{:.3}", c.wall_s)),
                ("events", c.events.to_string()),
                ("events_per_sec", format!("{:.1}", c.events_per_sec())),
                ("peak_fel_depth", c.peak_fel_depth.to_string()),
            ])
        })
        .collect();
    render_record(&fields, "cells", &rows)
}

/// The full `perf_scaling` sweep: traditional and LARD at each of
/// [`FULL_NODES`].
fn scaling_plan() -> Vec<(PolicyKind, SimConfig)> {
    let policies = [PolicyKind::Traditional, PolicyKind::Lard];
    let plan = FULL_NODES.iter().flat_map(|&n| policies.map(|p| (p, n)));
    plan.map(|(p, n)| (p, scaling_config(n))).collect()
}

/// A `perf_scaling` cell's configuration: lean metrics and no warm-up,
/// since the sweep measures the engine, not cache curves.
fn scaling_config(nodes: usize) -> SimConfig {
    SimConfig {
        warmup: false,
        response_samples: false,
        ..SimConfig::paper_default(nodes)
    }
}

/// `perf_scaling`: times cells on the Calgary file population, streamed
/// from the generator with no materialized trace. L2S is left out: its
/// broadcasts make its cost at 1024 nodes a property of the protocol,
/// not the engine.
///
/// Without `smoke` it runs traditional and LARD at each of
/// [`FULL_NODES`], `requests` per cell (default [`FULL_REQUESTS`]), and
/// writes the record to `json`. With `smoke` it writes nothing: it runs
/// traditional at [`SMOKE_NODES`] for [`SMOKE_TRIALS`] interleaved pairs
/// (default [`SMOKE_REQUESTS`] per cell) and fails unless they pass the
/// [`flatness`] floor.
pub fn scaling(json: &Path, requests: Option<usize>, smoke: bool) -> Result<(), String> {
    let requests = requests.unwrap_or(if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS });
    let calgary = TraceSpec::calgary();
    let spec = calgary.scaled(calgary.num_files, requests);
    println!(
        "perf_scaling: calgary population ({} files), {requests} streamed requests/cell",
        spec.num_files
    );
    let fresh = || SynthWorkload::new(&spec, 42);
    if !smoke {
        let cells = time_cells(&scaling_plan(), fresh);
        return write_record(json, &scaling_record(spec.num_files, requests, &cells));
    }
    let pairs = (0..SMOKE_TRIALS).flat_map(|_| SMOKE_NODES);
    let plan: Vec<_> = pairs
        .map(|n| (PolicyKind::Traditional, scaling_config(n)))
        .collect();
    let cells = time_cells(&plan, fresh);
    let eps_at = |n| -> Vec<f64> {
        let at_n = cells.iter().filter(|c| c.nodes == n);
        at_n.map(Cell::events_per_sec).collect()
    };
    let [small, large] = SMOKE_NODES;
    let ratio = flatness(&eps_at(small), &eps_at(large))?;
    println!(
        "flatness: median {large}-node events/s is {ratio:.2}x the {small}-node figure \
         (floor {FLATNESS_FLOOR}); smoke passed"
    );
    Ok(())
}

/// The `BENCH_scaling.json` record of `perf_scaling`'s `cells`, run on a
/// population of `files` files at `requests` per cell.
fn scaling_record(files: usize, requests: usize, cells: &[Cell]) -> String {
    let workload = format!(
        "calgary population ({files} files), streaming synth requests, lean metrics, \
         warm-up off, closed loop, sequential single-thread"
    );
    let nodes: Vec<String> = FULL_NODES.iter().map(usize::to_string).collect();
    let peak_rss = cells.iter().map(|c| c.rss_hwm_kb).max().unwrap_or(0);
    let fields = [
        ("schema", "1".to_string()),
        ("workload", quote(&workload)),
        ("requests_per_cell", requests.to_string()),
        ("nodes_swept", format!("[{}]", nodes.join(", "))),
        ("peak_rss_kb", peak_rss.max(peak_rss_kb()).to_string()),
    ];
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let ops = &c.fel_ops;
            let fel_ops = object(&[
                ("near_pushes", ops.near_pushes.to_string()),
                ("far_pushes", ops.far_pushes.to_string()),
                ("ins_shifted", ops.ins_shifted.to_string()),
                ("sweep_sorted", ops.sweep_sorted.to_string()),
                ("sweeps", ops.sweeps.to_string()),
                ("scanned", ops.scanned.to_string()),
                ("deferred", ops.deferred.to_string()),
                ("full_laps", ops.full_laps.to_string()),
            ]);
            object(&[
                ("policy", quote(c.policy.name())),
                ("nodes", c.nodes.to_string()),
                ("wall_s", format!("{:.3}", c.wall_s)),
                ("events", c.events.to_string()),
                ("events_per_sec", format!("{:.1}", c.events_per_sec())),
                ("peak_fel_depth", c.peak_fel_depth.to_string()),
                ("rss_hwm_kb", c.rss_hwm_kb.to_string()),
                ("sim_throughput_rps", format!("{:.1}", c.sim_throughput_rps)),
                ("fel_ops", fel_ops),
            ])
        })
        .collect();
    render_record(&fields, "cells", &rows)
}

/// The ratchet: the committed `events_per_sec` must be at least
/// [`MIN_SPEEDUP_VS_SEED`] times the committed `baseline_events_per_sec`.
/// Returns the recorded speedup.
pub fn ratchet(committed_eps: f64, baseline_eps: f64) -> Result<f64, String> {
    let speedup = committed_eps / baseline_eps.max(1e-9);
    if speedup >= MIN_SPEEDUP_VS_SEED {
        return Ok(speedup);
    }
    Err(format!(
        "PERF RATCHET: the committed record holds only {speedup:.2}x over its seed baseline \
         ({committed_eps:.0} / {baseline_eps:.0} events/s); the floor is {MIN_SPEEDUP_VS_SEED}x"
    ))
}

/// The canary: `measured_eps` may be at most [`MAX_REGRESSION`] times
/// below `committed_eps`.
pub fn canary(measured_eps: f64, committed_eps: f64) -> Result<(), String> {
    if measured_eps * MAX_REGRESSION >= committed_eps {
        return Ok(());
    }
    Err(format!(
        "PERF REGRESSION: {measured_eps:.0} events/s is more than {MAX_REGRESSION}x below the \
         committed {committed_eps:.0} events/s"
    ))
}

/// The flatness floor: the median of `large_eps` over the median of
/// `small_eps` (events/s of the large and the small cluster, one of each
/// per pair) must reach [`FLATNESS_FLOOR`]. Returns that ratio.
pub fn flatness(small_eps: &[f64], large_eps: &[f64]) -> Result<f64, String> {
    let ratio = median(large_eps) / median(small_eps).max(1e-9);
    if ratio >= FLATNESS_FLOOR {
        return Ok(ratio);
    }
    Err(format!(
        "SCALING REGRESSION: the large cluster's median events/s fell to {ratio:.2}x the small \
         one's (floor {FLATNESS_FLOOR}); dispatch is no longer flat in cluster size"
    ))
}

/// The upper median of a small sample; 0 when empty.
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

/// `s` as a JSON string.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A one-line JSON object of `(key, JSON text)` fields, in order.
pub fn object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A record as the `BENCH_*.json` files hold it: `fields` (`(key, JSON
/// text)`) one per line, then `rows` one per line as the array `list`.
/// The fields come first, so [`extract_json_num`] finds a top-level key
/// before any row's key of the same name.
pub fn render_record(fields: &[(&str, String)], list: &str, rows: &[String]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in fields {
        out += &format!("  \"{key}\": {value},\n");
    }
    out += &format!("  \"{list}\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out += &format!("    {row}{}\n", if i + 1 < rows.len() { "," } else { "" });
    }
    out + "  ]\n}\n"
}

/// Writes a record to `path` and prints where.
pub fn write_record(path: &Path, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Extracts the first `"key": <number>` occurrence from a JSON string.
///
/// Hand-rolled because the workspace has no serde; the records it reads
/// are the ones [`render_record`] writes, so the format is known.
pub fn extract_json_num(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// A harness's one mode flag: `Ok(true)` when every argument is `flag`
/// and there is one, `Ok(false)` when there are none, and an error
/// naming the first other argument.
pub fn mode_flag(args: impl IntoIterator<Item = String>, flag: &str) -> Result<bool, String> {
    let args: Vec<String> = args.into_iter().collect();
    match args.iter().find(|a| *a != flag) {
        Some(bad) => Err(format!(
            "unknown argument {bad:?} (the only option is {flag})"
        )),
        None => Ok(!args.is_empty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ratchet_holds_at_2_1x_and_fails_below() {
        assert_eq!(ratchet(210.0, 100.0), Ok(2.1));
        assert!(ratchet(2_000.0, 100.0).is_ok());
        let err = ratchet(209.9, 100.0).unwrap_err();
        assert!(
            err.contains("PERF RATCHET") && err.contains("2.10x"),
            "{err}"
        );
        assert!(ratchet(100.0, 100.0).is_err());
        // The committed record passes.
        let committed = include_str!("../../../BENCH_sim.json");
        let eps = extract_json_num(committed, "events_per_sec").unwrap();
        let base = extract_json_num(committed, "baseline_events_per_sec").unwrap();
        assert!(ratchet(eps, base).is_ok());
    }

    #[test]
    fn the_canary_allows_3x_slower_and_fails_beyond() {
        assert!(canary(10.0, 30.0).is_ok());
        assert!(canary(40.0, 30.0).is_ok());
        let err = canary(9.9, 30.0).unwrap_err();
        assert!(err.contains("PERF REGRESSION"), "{err}");
    }

    #[test]
    fn flatness_compares_medians_against_0_35() {
        assert_eq!(flatness(&[10.0; 3], &[3.5; 3]), Ok(0.35));
        let err = flatness(&[10.0; 3], &[3.4; 3]).unwrap_err();
        assert!(
            err.contains("SCALING REGRESSION") && err.contains("0.34x"),
            "{err}"
        );
        // One contended pair moves neither median.
        assert!(flatness(&[10.0, 10.0, 1_000.0], &[4.0, 0.1, 4.0]).is_ok());
        assert!(flatness(&[10.0, 10.0, 0.1], &[3.0, 30.0, 3.0]).is_err());
    }

    #[test]
    fn only_the_mode_flag_is_accepted() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(mode_flag(args(&[]), "--check"), Ok(false));
        assert_eq!(mode_flag(args(&["--check"]), "--check"), Ok(true));
        for bad in [&["--chek"][..], &["--check", "x"], &["--smoke"], &["check"]] {
            let err = mode_flag(args(bad), "--check").unwrap_err();
            assert!(err.contains("unknown argument"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn records_print_fields_before_rows() {
        let fields = [
            ("schema", "1".to_string()),
            ("name", quote("a \"b\"")),
            ("rate", format!("{:.3}", 2.0 / 3.0)),
        ];
        let rows = [
            object(&[("rate", format!("{:.1}", 1.25)), ("n", 7.to_string())]),
            object(&[("ops", object(&[("a", 1.to_string())]))]),
        ];
        let json = render_record(&fields, "cells", &rows);
        assert_eq!(
            json,
            "{\n  \"schema\": 1,\n  \"name\": \"a \\\"b\\\"\",\n  \"rate\": 0.667,\n  \
             \"cells\": [\n    {\"rate\": 1.2, \"n\": 7},\n    {\"ops\": {\"a\": 1}}\n  ]\n}\n"
        );
        assert_eq!(extract_json_num(&json, "rate"), Some(0.667));
        assert_eq!(
            render_record(&fields[..1], "none", &[]),
            "{\n  \"schema\": 1,\n  \"none\": [\n  ]\n}\n"
        );
    }

    /// `json` with every run of digits replaced by one `9`: two records
    /// of the same shape have the same keys in the same order and print
    /// every number with the same decimals.
    fn shape(json: &str) -> String {
        let mut out = String::new();
        for c in json.chars() {
            if !c.is_ascii_digit() {
                out.push(c);
            } else if !out.ends_with('9') {
                out.push('9');
            }
        }
        out
    }

    /// A cell with made-up measurements for every field.
    fn fake_cell(policy: PolicyKind, config: &SimConfig) -> Cell {
        Cell {
            policy,
            nodes: config.nodes,
            cache: config.cache_policy,
            wall_s: 0.25,
            events: 3_000_000,
            peak_fel_depth: 64,
            fel_ops: QueueStats {
                near_pushes: 11,
                far_pushes: 12,
                ins_shifted: 13,
                sweep_sorted: 14,
                sweeps: 15,
                scanned: 16,
                deferred: 17,
                full_laps: 18,
            },
            sim_throughput_rps: 2_544.5,
            rss_hwm_kb: 4_368,
        }
    }

    #[test]
    fn the_baseline_plan_has_the_committed_cells() {
        let committed = include_str!("../../../BENCH_sim.json");
        let plan = baseline_plan();
        assert_eq!(plan.len(), committed.matches("\"policy\"").count());
        for (policy, config) in &plan {
            let row = format!(
                "{{\"policy\": \"{}\", \"nodes\": {}, \"cache\": \"{}\"",
                policy.name(),
                config.nodes,
                cache_name(config.cache_policy)
            );
            assert!(committed.contains(&row), "{row}");
            assert_eq!(config.max_requests, Some(PINNED_CAP));
        }
    }

    #[test]
    fn the_records_keep_the_committed_shape() {
        let fake = |plan: Vec<(PolicyKind, SimConfig)>| -> Vec<Cell> {
            plan.iter()
                .map(|(p, config)| fake_cell(*p, config))
                .collect()
        };
        let sim = sim_record(&fake(baseline_plan()), 9_867_511.7);
        assert_eq!(shape(&sim), shape(include_str!("../../../BENCH_sim.json")));
        let files = TraceSpec::calgary().num_files;
        let scaling = scaling_record(files, FULL_REQUESTS, &fake(scaling_plan()));
        assert_eq!(
            shape(&scaling),
            shape(include_str!("../../../BENCH_scaling.json"))
        );
        // The top-level figures come before the rows' keys of the same name.
        assert_eq!(extract_json_num(&sim, "events_per_sec"), Some(12_000_000.0));
        assert_eq!(extract_json_num(&sim, "peak_fel_depth"), Some(64.0));
        assert_eq!(extract_json_num(&scaling, "requests_per_cell"), Some(1e7));
        let timing = crate::SuiteTiming {
            wall_s: 59.0,
            per_experiment: crate::experiments::ALL
                .iter()
                .map(|(name, _)| (name.to_string(), 0.5))
                .collect(),
        };
        let ctx = crate::RunCtx::new(2, Some(150_000), std::env::temp_dir());
        assert_eq!(
            shape(&timing.record(&ctx, 2, 110.58)),
            shape(include_str!("../../../BENCH_suite.json"))
        );
    }
}
