//! Live CLF replay front-end.
//!
//! The DES engine answers "what would this cluster have done over the
//! whole trace"; this crate answers the *online* question — tail a
//! Common Log Format access log (a file being written, or stdin) and
//! drive any [`PolicyKind`](l2s::PolicyKind) request-distribution
//! policy against it as the requests arrive, in real time, scaled time
//! (`--speed`), or as fast as the log can be read.
//!
//! Every run goes through one timed [`ReplayEngine`] loop, over either
//! source: [`replay_stream`] for a CLF stream, [`replay_trace_timed`]
//! for an in-memory trace. Virtual time comes from the log's own
//! timestamps (or a Poisson arrival process for synthetic traces); an
//! injectable [`Clock`] paces the loop and is the only thing a paced
//! and an as-fast-as-possible run differ in —
//! [`WallClock`](l2s_sim::WallClock) sleeps until each arrival is due,
//! [`VirtualClock`](l2s_sim::VirtualClock) jumps — so both report the
//! same numbers. Per-node service is modeled with the same
//! [`NodeHardware`](l2s_cluster::NodeHardware) stations and
//! [`NodeCosts`](l2s_cluster::NodeCosts) Table 1 service times the DES
//! uses, in a simplified FIFO pipeline (NI-in, CPU parse [+forward],
//! disk on a cache miss, CPU reply, NI-out). Memory is bounded by
//! distinct files + in-flight requests, never log length.
//!
//! Runs report through the engine's [`SimReport`], emitted as periodic
//! snapshots and a final CSV written with the same [`CsvTable`]
//! machinery as the experiment writers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod timed;

pub use timed::{ReplayConfig, ReplayEngine};

use l2s_sim::{Clock, SimReport};
use l2s_trace::{ClfRecord, ClfStream, Trace};
use l2s_util::csv::CsvTable;
use l2s_util::{cast, DetRng, SimTime};
use std::io::{self, BufRead};
use std::path::Path;
use std::sync::mpsc;
use std::thread;

/// Records the reader thread may parse ahead of the replay loop (24
/// bytes each, 96 KB in all). A live reader blocked on input holds
/// none back: each record is sent as soon as it is parsed.
const READ_AHEAD: usize = 4096;

/// Timed replay of a CLF stream: waits on `clock` until each kept
/// request's log timestamp is due and feeds it through a
/// [`ReplayEngine`]. `on_snapshot` fires with the metrics so far at
/// each `cfg.snapshot_every_s` boundary of virtual time the records
/// pass, once per record at most. Returns the final report
/// once the stream ends, or the stream's first I/O error after
/// replaying every record read before it. A record past the clock's
/// range ends the replay with an [`io::ErrorKind::InvalidData`] error
/// (see [`replay_trace_timed`]).
///
/// Parsing runs on a scoped reader thread that sends each kept record
/// through a bounded channel, so reading the log overlaps with the
/// policy and hardware model on the calling thread; `clock` and
/// `on_snapshot` stay on the calling thread. Results are those of
/// parsing and replaying one record at a time:
///
/// * the reader stops one record past `cfg.max_requests`, the record
///   on which the replay loop notices the cap, or at the first record
///   past the clock's range, so `stream.stats()` counts the same lines;
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
    on_snapshot: impl FnMut(&SimReport),
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
                let last = past_the_clock(rec.at_s).is_some();
                if tx.send(rec).is_err() || last {
                    // Either the replay loop is gone (it panicked) or it
                    // stops on this record.
                    break;
                }
            }
            Ok(())
        });
        let report = replay_records(cfg, rx, Vec::new(), clock, on_snapshot);
        match reader.join() {
            Ok(read) => report.and_then(|report| read.map(|()| report)),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Timed replay of an in-memory trace (synthetic traces carry no
/// timestamps, so arrivals are a deterministic Poisson process at
/// `rate_rps`, seeded with `seed`). Otherwise identical to
/// [`replay_stream`].
///
/// The replay clock counts u64 nanoseconds, about 584 years. Both
/// replays stop at the first record that arrives later than that (a
/// `rate_rps` of 1e-300, or a log spanning a millennium) and return an
/// [`io::ErrorKind::InvalidData`] error naming its arrival, instead of
/// replaying it at the clock's saturated end.
pub fn replay_trace_timed(
    cfg: &ReplayConfig,
    trace: &Trace,
    rate_rps: f64,
    seed: u64,
    clock: &mut dyn Clock,
    on_snapshot: impl FnMut(&SimReport),
) -> io::Result<SimReport> {
    let files = trace.files();
    let mut rng = DetRng::new(seed);
    let mut at_s = 0.0f64;
    let records = trace.requests().iter().map(|&file| {
        at_s += rng.exponential(1.0 / rate_rps.max(f64::MIN_POSITIVE));
        ClfRecord {
            file,
            size_kb: files.size_kb(file),
            at_s,
        }
    });
    let sizes_kb = files.iter().map(|(_, kb)| kb).collect();
    replay_records(cfg, records, sizes_kb, clock, on_snapshot)
}

/// The one timed replay loop. For each record, in order: stop once
/// `cfg.max_requests` requests are in; fail if the record arrives past
/// the clock's range; hint the size table to the
/// policy when the file population has doubled; wait on `clock` until
/// the record is due; if a snapshot boundary has passed, emit one
/// snapshot, at the last boundary at or before the record; offer the
/// request. Then settle what is still in flight.
///
/// One snapshot per record at most: a timestamp gap of centuries (a
/// log dated 2000, then 2400) would otherwise emit one identical
/// snapshot per empty period, about 10⁹ of them. Records less than one
/// period apart see every boundary, and the final report is the same
/// either way, since `offer` settles every completion due by its
/// arrival in the same order.
///
/// `sizes_kb` is the starting size table: empty for a log, whose files
/// are learnt as they arrive, or the whole population for a trace.
/// Each record's size replaces its file's entry, or appends it when the
/// file is new (ids are dense in first-seen order, and a record carries
/// its file's running maximum). Re-hinting only when the population has
/// doubled amortizes the rebuilds of size-aware policies (SITA's bands)
/// to O(F log F) over the run.
fn replay_records(
    cfg: &ReplayConfig,
    records: impl IntoIterator<Item = ClfRecord>,
    mut sizes_kb: Vec<f64>,
    clock: &mut dyn Clock,
    mut on_snapshot: impl FnMut(&SimReport),
) -> io::Result<SimReport> {
    let mut engine = ReplayEngine::new(cfg.clone());
    let snap_ns = if cfg.snapshot_every_s > 0.0 {
        SimTime::from_secs_f64(cfg.snapshot_every_s).as_nanos()
    } else {
        0
    };
    let mut next_snap_ns = snap_ns;
    let mut hinted = 0usize;
    for rec in records {
        if cfg
            .max_requests
            .is_some_and(|cap| engine.injected() >= cast::len_u64(cap))
        {
            break;
        }
        if let Some(err) = past_the_clock(rec.at_s) {
            return Err(err);
        }
        match sizes_kb.get_mut(rec.file.index()) {
            Some(size) => *size = rec.size_kb,
            None => sizes_kb.push(rec.size_kb),
        }
        if hinted == 0 || sizes_kb.len() >= hinted * 2 {
            engine.hint_sizes(&sizes_kb);
            hinted = sizes_kb.len();
        }
        let at = SimTime::from_secs_f64(rec.at_s);
        clock.wait_until_ns(at.as_nanos());
        if snap_ns > 0 && at.as_nanos() >= next_snap_ns {
            let boundary = at.as_nanos() - at.as_nanos() % snap_ns;
            engine.drain_due(SimTime::from_nanos(boundary));
            on_snapshot(&engine.report());
            next_snap_ns = boundary.saturating_add(snap_ns);
        }
        engine.offer(at, rec.file.raw(), rec.size_kb);
    }
    Ok(engine.finish())
}

/// The error for an arrival at `at_s` seconds, if the clock cannot
/// represent it: `SimTime` counts u64 nanoseconds and saturates past
/// them.
fn past_the_clock(at_s: f64) -> Option<io::Error> {
    let range_s = SimTime::MAX.as_secs_f64();
    (at_s >= range_s).then(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "a request arrives at {at_s:.3e} s, past the replay clock's range of \
                 {range_s:.3e} s (about 584 years)"
            ),
        )
    })
}

/// Renders a report as one CSV table, using the same
/// [`CsvTable`] writer as the experiment
/// binaries: identical quoting, float rendering (`{:.6}`, matching
/// `row_f64`), and `none` for an absent p99 — so downstream tooling
/// consumes replay output and experiment output interchangeably.
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
    use l2s::PolicyKind;
    use l2s_sim::{simulate, SimConfig, VirtualClock};
    use l2s_trace::TraceSpec;

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
    fn a_gap_of_centuries_takes_one_snapshot() {
        // One snapshot per empty 10 s period used to print 1.3e9
        // identical lines for this log before its final report.
        let log = "h - - [01/Jan/2000:00:00:00 +0000] \"GET /a HTTP/1.0\" 200 1024\n\
                   h - - [01/Jan/2400:00:00:00 +0000] \"GET /b HTTP/1.0\" 200 1024\n";
        let mut stream = ClfStream::new(log.as_bytes());
        let mut snaps = Vec::new();
        let report = replay_stream(
            &ReplayConfig::new(PolicyKind::L2s, 2),
            &mut stream,
            &mut VirtualClock::new(),
            |r| snaps.push(r.elapsed),
        )
        .unwrap();
        assert_eq!(report.completed, 2);
        assert_eq!(snaps.len(), 1, "{snaps:?}");
        // Taken at the last 10 s boundary before the second request.
        let gap_s = report.elapsed.as_secs_f64();
        assert!(
            gap_s - snaps[0].as_secs_f64() < 11.0,
            "{snaps:?} vs {gap_s}"
        );
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
            replay_trace_timed(&cfg, &trace, 400.0, 42, &mut clock, |_| {}).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.completed, 800);
    }

    #[test]
    fn csv_matches_experiment_writer_bytes() {
        let trace = TraceSpec::calgary().scaled(50, 500).generate(1);
        let cfg = SimConfig {
            warmup: false,
            ..SimConfig::quick(2, 1_000.0)
        };
        let report = simulate(&cfg, PolicyKind::L2s, &trace);
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
