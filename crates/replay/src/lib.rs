//! Live CLF replay front-end.
//!
//! The DES engine answers "what would this cluster have done over the
//! whole trace"; this crate answers the *online* question — tail a
//! Common Log Format access log (a file being written, or stdin) and
//! drive any [`PolicyKind`] request-distribution policy against it as
//! the requests arrive, in real time, scaled time (`--speed`), or as
//! fast as the log can be read.
//!
//! Two execution modes share one configuration:
//!
//! * **Timed replay** ([`replay_stream`] / [`replay_trace_timed`]): one
//!   loop over the [`PolicyDriver`](l2s::PolicyDriver) API. For a CLF
//!   stream, a reader thread parses the log alongside it and hands over
//!   each kept request through a bounded channel; the loop, its clock
//!   and its snapshots stay on the caller's thread, and every result
//!   equals parsing and replaying one request at a time. Virtual time
//!   comes from the log's own timestamps (or a Poisson arrival process
//!   for synthetic traces); an injectable [`Clock`] paces the loop —
//!   [`WallClock`](l2s_sim::WallClock) sleeps until each arrival is
//!   due, [`VirtualClock`](l2s_sim::VirtualClock) jumps. Per-node
//!   service is modeled with the same
//!   [`NodeHardware`](l2s_cluster::NodeHardware) stations and
//!   [`NodeCosts`](l2s_cluster::NodeCosts) Table 1 service times the
//!   DES uses, in a simplified FIFO pipeline (NI-in, CPU parse
//!   [+forward], disk on a cache miss, CPU reply, NI-out). Memory is
//!   bounded by distinct files + in-flight requests, never log length.
//! * **Infinite-speed replay** ([`replay_trace_fast`]): drives the DES
//!   engine itself with a placement observer attached, so the placement
//!   sequence is *identical by construction* to `simulate` on the same
//!   trace, config, and seed — the parity contract the X10 experiment
//!   pins in CI.
//!
//! Both modes report through the engine's [`SimReport`], emitted as
//! periodic snapshots and a final CSV written with the same
//! [`CsvTable`] machinery as the experiment
//! writers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod timed;

pub use timed::{ReplayConfig, ReplayEngine};

use l2s::PolicyKind;
use l2s_sim::{
    simulate_workload_observed, Clock, PlacementRecord, SimConfig, SimReport, TraceWorkload,
};
use l2s_trace::{ClfStream, Trace};
use l2s_util::csv::CsvTable;
use l2s_util::{cast, DetRng, SimTime};
use std::io::{self, BufRead};
use std::path::Path;
use std::sync::mpsc;
use std::thread;

/// Infinite-speed replay of a complete trace: runs the DES engine with
/// a placement observer attached and returns every placement it made in
/// decision order, plus the full measurement report.
///
/// This is the parity anchor: the placements are the engine's own, so
/// replaying "as fast as possible" reproduces the simulator's placement
/// sequence byte-for-byte on the same `(config, kind, trace)`.
pub fn replay_trace_fast(
    config: &SimConfig,
    kind: PolicyKind,
    trace: &Trace,
) -> (Vec<PlacementRecord>, SimReport) {
    let mut placements = Vec::new();
    let mut observer = |r: PlacementRecord| placements.push(r);
    let mut workload = TraceWorkload::new(trace);
    let report = simulate_workload_observed(config, kind, &mut workload, &mut observer);
    (placements, report)
}

/// FNV-1a digest of a placement sequence — the compact pin the X10
/// parity experiment writes to CSV so CI byte-compares runs without
/// shipping millions of records.
pub fn placement_checksum(placements: &[PlacementRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for p in placements {
        eat(p.seq);
        eat(u64::from(cast::index_u32(p.file.index())));
        eat(cast::len_u64(p.initial));
        eat(cast::len_u64(p.service));
        eat(u64::from(p.forwarded));
        eat(p.at.as_nanos());
    }
    h
}

/// Records the reader thread may parse ahead of the replay loop (24
/// bytes each, 96 KB in all). A live reader blocked on input holds
/// none back: each record is sent as soon as it is parsed.
const READ_AHEAD: usize = 4096;

/// Timed replay of a CLF stream: waits on `clock` until each kept
/// request's log timestamp is due and feeds it through a
/// [`ReplayEngine`]. `on_snapshot` fires every `cfg.snapshot_every_s`
/// virtual seconds with the metrics so far. Returns the final report
/// once the stream ends, or the stream's first I/O error after
/// replaying every record read before it.
///
/// Parsing runs on a scoped reader thread that sends each kept record
/// through a bounded channel, so reading the log overlaps with the
/// policy and hardware model on the calling thread; `clock` and
/// `on_snapshot` stay on the calling thread. Results are those of
/// parsing and replaying one record at a time:
///
/// * the reader stops one record past `cfg.max_requests`, the record
///   on which the replay loop notices the cap, so `stream.stats()`
///   counts the same lines;
/// * the replay loop rebuilds the size table from the records (each
///   carries its file's running maximum, and ids are dense in
///   first-seen order), so the policy's size hints equal
///   `stream.sizes_kb()` as of each record;
/// * a panic on the reader thread is re-raised on the caller's.
///
/// Resident state is the stream's (O(distinct files)), the engine's
/// (O(nodes + in-flight)) and the channel's 4096 records; the log
/// itself is never held.
pub fn replay_stream<R: BufRead + Send>(
    cfg: &ReplayConfig,
    stream: &mut ClfStream<R>,
    clock: &mut dyn Clock,
    mut on_snapshot: impl FnMut(&SimReport),
) -> io::Result<SimReport> {
    let limit = cfg
        .max_requests
        .map_or(usize::MAX, |cap| cap.saturating_add(1));
    thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel(READ_AHEAD);
        let reader = scope.spawn(move || -> io::Result<()> {
            for _ in 0..limit {
                let Some(rec) = stream.next_record()? else {
                    break;
                };
                if tx.send(rec).is_err() {
                    // The replay loop is gone: it panicked.
                    break;
                }
            }
            Ok(())
        });
        let mut engine = ReplayEngine::new(cfg.clone());
        let snap_ns = snapshot_period_ns(cfg.snapshot_every_s);
        let mut next_snap_ns = snap_ns;
        let mut sizes_kb: Vec<f64> = Vec::new();
        let mut hinted = 0usize;
        for rec in rx {
            if cfg
                .max_requests
                .is_some_and(|cap| engine.injected() >= cast::len_u64(cap))
            {
                break;
            }
            match sizes_kb.get_mut(rec.file.index()) {
                Some(size) => *size = rec.size_kb,
                None => sizes_kb.push(rec.size_kb),
            }
            // Re-hint the file population when it has doubled: size-aware
            // policies (SITA) rebuild their bands from the hint, so doubling
            // amortizes the rebuilds to O(F log F) over the whole run.
            if hinted == 0 || sizes_kb.len() >= hinted * 2 {
                engine.hint_sizes(&sizes_kb);
                hinted = sizes_kb.len();
            }
            let at = SimTime::from_secs_f64(rec.at_s);
            clock.wait_until_ns(at.as_nanos());
            while snap_ns > 0 && at.as_nanos() >= next_snap_ns {
                engine.drain_due(SimTime::from_nanos(next_snap_ns));
                on_snapshot(&engine.report());
                next_snap_ns += snap_ns;
            }
            engine.offer(at, cast::index_u32(rec.file.index()), rec.size_kb);
        }
        match reader.join() {
            Ok(read) => read.map(|()| engine.finish()),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Timed replay of an in-memory trace (synthetic traces carry no
/// timestamps, so arrivals are a deterministic Poisson process at
/// `rate_rps`, seeded with `seed`). Otherwise identical to
/// [`replay_stream`].
pub fn replay_trace_timed(
    cfg: &ReplayConfig,
    trace: &Trace,
    rate_rps: f64,
    seed: u64,
    clock: &mut dyn Clock,
    mut on_snapshot: impl FnMut(&SimReport),
) -> SimReport {
    let mut engine = ReplayEngine::new(cfg.clone());
    let sizes: Vec<f64> = (0..trace.files().len())
        .map(|i| {
            trace
                .files()
                .size_kb(l2s_trace::FileId::from_raw(cast::index_u32(i)))
        })
        .collect();
    engine.hint_sizes(&sizes);
    let snap_ns = snapshot_period_ns(cfg.snapshot_every_s);
    let mut next_snap_ns = snap_ns;
    let mut rng = DetRng::new(seed);
    let mut at_s = 0.0f64;
    let cap = cfg.max_requests.unwrap_or(usize::MAX);
    for &file in trace.requests().iter().take(cap) {
        at_s += rng.exponential(1.0 / rate_rps.max(f64::MIN_POSITIVE));
        let at = SimTime::from_secs_f64(at_s);
        clock.wait_until_ns(at.as_nanos());
        while snap_ns > 0 && at.as_nanos() >= next_snap_ns {
            engine.drain_due(SimTime::from_nanos(next_snap_ns));
            on_snapshot(&engine.report());
            next_snap_ns += snap_ns;
        }
        engine.offer(
            at,
            cast::index_u32(file.index()),
            trace.files().size_kb(file),
        );
    }
    engine.finish()
}

fn snapshot_period_ns(every_s: f64) -> u64 {
    if every_s > 0.0 {
        SimTime::from_secs_f64(every_s).as_nanos()
    } else {
        0
    }
}

/// Renders a report as one CSV table, using the same
/// [`CsvTable`] writer as the experiment
/// binaries: identical quoting, float rendering (`{:.6}`, matching
/// `row_f64`), and `none` for an absent p99 — so downstream tooling
/// consumes replay output and experiment output interchangeably.
///
/// The `p99_response_s` column carries whichever definition produced the
/// report: nearest-rank for timed replay, linearly interpolated for
/// DES-backed runs (see [`SimReport::p99_response_s`]).
pub fn report_table(report: &SimReport) -> CsvTable {
    let mut table = CsvTable::new([
        "policy",
        "nodes",
        "completed",
        "failed",
        "throughput_rps",
        "miss_rate",
        "forwarded_fraction",
        "cpu_idle",
        "control_msgs_per_request",
        "mean_response_s",
        "p99_response_s",
    ]);
    table.row([
        report.policy.to_string(),
        report.nodes.to_string(),
        report.completed.to_string(),
        report.failed.to_string(),
        format!("{:.6}", report.throughput_rps),
        format!("{:.6}", report.miss_rate),
        format!("{:.6}", report.forwarded_fraction),
        format!("{:.6}", report.cpu_idle),
        format!("{:.6}", report.control_msgs_per_request),
        format!("{:.6}", report.mean_response_s),
        report
            .p99_response_s
            .map_or_else(|| "none".to_string(), |v| format!("{v:.6}")),
    ]);
    table
}

/// Writes [`report_table`] to `path`.
pub fn write_report_csv(report: &SimReport, path: &Path) -> io::Result<()> {
    report_table(report).write_to(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2s_sim::{simulate, VirtualClock};
    use l2s_trace::TraceSpec;

    fn quick_cfg(n: usize) -> SimConfig {
        SimConfig {
            warmup: false,
            ..SimConfig::quick(n, 1_000.0)
        }
    }

    #[test]
    fn fast_replay_matches_the_engine_byte_for_byte() {
        let trace = TraceSpec::calgary().scaled(120, 2_500).generate(7);
        for kind in [PolicyKind::L2s, PolicyKind::Jsq, PolicyKind::Lard] {
            let cfg = quick_cfg(4);
            let (a, ra) = replay_trace_fast(&cfg, kind, &trace);
            let (b, rb) = replay_trace_fast(&cfg, kind, &trace);
            assert_eq!(a, b, "{}: placements not deterministic", kind.name());
            assert_eq!(ra, rb);
            assert_eq!(placement_checksum(&a), placement_checksum(&b));
            // The observed run is the engine run: reports agree exactly.
            let plain = simulate(&cfg, kind, &trace);
            assert_eq!(ra, plain, "{}: observer perturbed the run", kind.name());
            assert_eq!(a.len() as u64, ra.completed + ra.failed);
        }
    }

    #[test]
    fn checksum_separates_distinct_sequences() {
        let trace = TraceSpec::calgary().scaled(80, 1_500).generate(3);
        let cfg = quick_cfg(4);
        let (a, _) = replay_trace_fast(&cfg, PolicyKind::L2s, &trace);
        let (b, _) = replay_trace_fast(&cfg, PolicyKind::Traditional, &trace);
        assert_ne!(placement_checksum(&a), placement_checksum(&b));
    }

    #[test]
    fn timed_stream_replay_completes_every_request() {
        let log: String = (0..200)
            .map(|i| {
                format!(
                    "h - - [01/Jan/2000:10:{:02}:{:02} +0000] \"GET /f{}.html HTTP/1.0\" 200 4096\n",
                    i / 60,
                    i % 60,
                    i % 16
                )
            })
            .collect();
        let cfg = ReplayConfig::new(PolicyKind::L2s, 4);
        let mut stream = ClfStream::new(log.as_bytes());
        let mut clock = VirtualClock::new();
        let mut snaps = 0;
        let report = replay_stream(&cfg, &mut stream, &mut clock, |_| snaps += 1).unwrap();
        assert_eq!(report.completed, 200);
        assert_eq!(report.failed, 0);
        assert!(report.throughput_rps > 0.0);
        assert!(snaps > 0, "snapshots should fire over a 200 s log");
        assert_eq!(report.policy, "l2s");
    }

    #[test]
    fn invalid_utf8_line_is_dropped_not_fatal() {
        // Regression: the stream read lines as `String`s, so one
        // non-UTF-8 line surfaced as `Err(InvalidData)` and ended the
        // replay mid-log.
        let log = b"h - - [01/Jan/2000:10:00:00 +0000] \"GET /a HTTP/1.0\" 200 1024\n\
                    h - - [01/Jan/2000:10:00:01 +0000] \"GET /\xff\xfe HTTP/1.0\" 200 1024\n\
                    h - - [01/Jan/2000:10:00:02 +0000] \"GET /b HTTP/1.0\" 200 1024\n";
        let mut stream = ClfStream::new(&log[..]);
        let report = replay_stream(
            &ReplayConfig::new(PolicyKind::L2s, 2),
            &mut stream,
            &mut VirtualClock::new(),
            |_| {},
        )
        .expect("a bad line must not end the replay");
        assert_eq!(report.completed, 2, "/a and /b are both replayed");
        assert_eq!(stream.stats().dropped, 1);
        assert_eq!(stream.distinct_files(), 2);
    }

    #[test]
    fn timed_trace_replay_is_deterministic() {
        let trace = TraceSpec::nasa().scaled(60, 800).generate(5);
        let cfg = ReplayConfig::new(PolicyKind::Jsq, 4);
        let run = || {
            let mut clock = VirtualClock::new();
            replay_trace_timed(&cfg, &trace, 400.0, 42, &mut clock, |_| {})
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.completed, 800);
    }

    #[test]
    fn csv_matches_experiment_writer_bytes() {
        let trace = TraceSpec::calgary().scaled(50, 500).generate(1);
        let cfg = quick_cfg(2);
        let (_, report) = replay_trace_fast(&cfg, PolicyKind::L2s, &trace);
        let csv = report_table(&report).to_csv_string();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "policy,nodes,completed,failed,throughput_rps,miss_rate,forwarded_fraction,\
             cpu_idle,control_msgs_per_request,mean_response_s,p99_response_s"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("l2s,2,500,0,"));
        // Floats render exactly like CsvTable::row_f64 ({:.6}).
        assert_eq!(
            row.split(',').nth(4).unwrap(),
            format!("{:.6}", report.throughput_rps)
        );
    }
}
