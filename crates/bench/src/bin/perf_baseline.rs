//! Perf-baseline harness: times a pinned quick-mode sweep of the
//! simulator (Calgary, 4–16 nodes, three policies, LRU and
//! GreedyDual-Size caches, 150 k requests per cell; see
//! `l2s_bench::perf::baseline`) and records events per second in
//! `BENCH_sim.json` (`L2S_BENCH_JSON` overrides the path).
//!
//! `perf_baseline --check` writes nothing and exits 1 unless the
//! committed record holds at least 2.1× over its seed baseline and this
//! run is at most 3× slower than it. Any other argument exits 2 before
//! anything runs.

use l2s_bench::perf;

fn main() {
    let check = perf::mode_flag(std::env::args().skip(1), "--check").unwrap_or_else(|e| {
        eprintln!("perf_baseline: {e}\nusage: perf_baseline [--check]");
        std::process::exit(2)
    });
    let json = std::env::var_os("L2S_BENCH_JSON").unwrap_or_else(|| "BENCH_sim.json".into());
    if let Err(e) = perf::baseline(json.as_ref(), check) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
