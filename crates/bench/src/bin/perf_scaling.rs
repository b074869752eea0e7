//! Scale-out harness: sweeps traditional and LARD over 16–1024 nodes on
//! the streamed Calgary population, 10 M requests per cell
//! (`L2S_SCALING_REQUESTS` overrides), and records events/s, peak RSS,
//! peak event-list depth and the event list's operation counters in
//! `BENCH_scaling.json` (`L2S_SCALING_JSON` overrides the path). See
//! `l2s_bench::perf::scaling` and EXPERIMENTS.md's X7.
//!
//! `perf_scaling --smoke` writes nothing: it runs traditional at 16 and
//! 256 nodes for 3 interleaved pairs of 250 k requests and exits 1 if the
//! median 256-node events/s falls below 0.35 of the 16-node figure. Any
//! other argument exits 2 before anything runs.

use l2s_bench::perf;

fn main() {
    let smoke = perf::mode_flag(std::env::args().skip(1), "--smoke").unwrap_or_else(|e| {
        eprintln!("perf_scaling: {e}\nusage: perf_scaling [--smoke]");
        std::process::exit(2)
    });
    let json = std::env::var_os("L2S_SCALING_JSON").unwrap_or_else(|| "BENCH_scaling.json".into());
    let requests = std::env::var("L2S_SCALING_REQUESTS").ok();
    let requests = requests
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n >= 1);
    if let Err(e) = perf::scaling(json.as_ref(), requests, smoke) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
