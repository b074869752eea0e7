//! `replay_stream` parses the log on a reader thread. These tests hold it
//! to the loop it replaced, which parsed and replayed one record at a
//! time on the caller's thread: the same final report, the same
//! snapshots, the same `ClfStreamStats`, at every request cap, and the
//! same error or panic when the reader fails or a record arrives past
//! the clock's range.

use l2s::PolicyKind;
use l2s_replay::{replay_stream, ReplayConfig, ReplayEngine};
use l2s_sim::{Clock, SimReport, VirtualClock};
use l2s_trace::{ClfStream, ClfStreamStats};
use l2s_util::{cast, DetRng, SimTime};
use std::io::{self, BufRead, BufReader, Read};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// The sequential replay loop: parse a record, then replay it, on one
/// thread. The oracle `replay_stream` must match.
fn sequential_replay<R: BufRead>(
    cfg: &ReplayConfig,
    stream: &mut ClfStream<R>,
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
    while let Some(rec) = stream.next_record()? {
        if cfg
            .max_requests
            .is_some_and(|cap| engine.injected() >= cast::len_u64(cap))
        {
            break;
        }
        // The clock counts u64 nanoseconds; a later arrival ends the
        // replay.
        let range_s = SimTime::MAX.as_secs_f64();
        if rec.at_s >= range_s {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "a request arrives at {:.3e} s, past the replay clock's range of \
                     {range_s:.3e} s (about 584 years)",
                    rec.at_s
                ),
            ));
        }
        if hinted == 0 || stream.distinct_files() >= hinted * 2 {
            engine.hint_sizes(stream.sizes_kb());
            hinted = stream.distinct_files();
        }
        let at = SimTime::from_secs_f64(rec.at_s);
        clock.wait_until_ns(at.as_nanos());
        if snap_ns > 0 && at.as_nanos() >= next_snap_ns {
            let boundary = at.as_nanos() - at.as_nanos() % snap_ns;
            engine.drain_due(SimTime::from_nanos(boundary));
            on_snapshot(&engine.report());
            next_snap_ns = boundary.saturating_add(snap_ns);
        }
        engine.offer(at, cast::index_u32(rec.file.index()), rec.size_kb);
    }
    Ok(engine.finish())
}

/// A CLF date field `t` seconds into March 2000.
fn date(t: u64) -> String {
    format!(
        "[{:02}/Mar/2000:{:02}:{:02}:{:02} +0000]",
        1 + t / 86_400,
        t / 3600 % 24,
        t / 60 % 60,
        t % 60
    )
}

/// A hostile but realistic log of `lines` lines ending in a truncated
/// tail: a file population that keeps growing (so size hints are
/// re-sent), partial transfers that raise a file's running maximum
/// size late, out-of-order and undated kept lines, and dropped lines
/// of every kind, including one that is not UTF-8.
fn hostile_log(lines: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    let mut log = Vec::new();
    let mut t = 0u64;
    for i in 0..lines {
        t += rng.below(3);
        let file = rng.below(1 + cast::len_u64(i) / 16);
        let bytes = (1 + file % 97) * 512 * (1 + rng.below(4));
        let kept = |d: &str| format!("h - - {d} \"GET /f{file} HTTP/1.0\" 200 {bytes}\n");
        let line = match rng.below(20) {
            0 => kept(&date(t.saturating_sub(1 + rng.below(30)))),
            1 => kept("[d]"),
            2 => format!("h - - {} \"GET /f{file} HTTP/1.0\" 404 {bytes}\n", date(t)),
            3 => format!("h - - {} \"POST /f{file} HTTP/1.0\" 200 {bytes}\n", date(t)),
            4 => format!("h - - {} \"GET /f{file} HTTP/1.0\" 200 -\n", date(t)),
            5 if i % 7 == 0 => "garbage \"\" [ ] 200\n".to_string(),
            6 if i % 5 == 0 => {
                log.extend_from_slice(b"h - - [d] \"GET /\xff\xfe HTTP/1.0\" 200 1\n");
                continue;
            }
            _ => kept(&date(t)),
        };
        log.extend_from_slice(line.as_bytes());
    }
    log.extend_from_slice(format!("h - - {} \"GET /f0 HTT", date(t)).as_bytes());
    log
}

/// Everything a replay run shows its caller.
#[derive(Debug, PartialEq)]
struct Run {
    result: Result<SimReport, String>,
    snapshots: Vec<SimReport>,
    stats: ClfStreamStats,
    sizes_kb: Vec<f64>,
}

/// Runs `replay` over a fresh stream on `reader`, recording what the
/// caller sees.
fn run<R: BufRead>(
    reader: R,
    replay: impl FnOnce(&mut ClfStream<R>, &mut dyn FnMut(&SimReport)) -> io::Result<SimReport>,
) -> Run {
    let mut stream = ClfStream::new(reader);
    let mut snapshots = Vec::new();
    let result = replay(&mut stream, &mut |r| snapshots.push(r.clone()));
    Run {
        result: result.map_err(|e| format!("{:?}: {e}", e.kind())),
        snapshots,
        stats: stream.stats(),
        sizes_kb: stream.sizes_kb().to_vec(),
    }
}

/// `run` with the sequential oracle and with `replay_stream`.
fn both<R: BufRead + Send>(cfg: &ReplayConfig, reader: impl Fn() -> R) -> (Run, Run) {
    let want = run(reader(), |s, snap| {
        sequential_replay(cfg, s, &mut VirtualClock::new(), snap)
    });
    let got = run(reader(), |s, snap| {
        replay_stream(cfg, s, &mut VirtualClock::new(), snap)
    });
    (want, got)
}

#[test]
fn threaded_replay_matches_the_sequential_loop_at_every_cap() {
    let log = hostile_log(12_000, 7);
    let mut full = ClfStream::new(&log[..]);
    while full.next_record().unwrap().is_some() {}
    let st = full.stats();
    let kept = usize::try_from(st.kept).unwrap();
    assert!(st.dropped > 0 && st.out_of_order > 0 && st.missing_timestamp > 0);
    assert!(st.truncated_tail);
    assert!(full.distinct_files() > 256, "hints must be re-sent");
    assert!(
        kept > 2 * 4096,
        "the reader must be able to fill its channel"
    );

    let caps = [
        None,
        Some(0),
        Some(1),
        Some(kept / 2),
        Some(kept),
        Some(kept + 1),
        Some(usize::MAX),
    ];
    for policy in [PolicyKind::L2s, PolicyKind::Sita] {
        for cap in caps {
            let mut cfg = ReplayConfig::new(policy, 4);
            cfg.max_requests = cap;
            let (want, got) = both(&cfg, || &log[..]);
            assert!(want.result.is_ok());
            assert!(cap.is_some_and(|c| c <= 1) || !want.snapshots.is_empty());
            assert_eq!(got, want, "{} at cap {cap:?}", policy.name());
        }
    }
}

/// Serves `data`, then fails every read: with an I/O error, or by
/// panicking.
struct FailAfter {
    data: io::Cursor<Vec<u8>>,
    panics: bool,
}

impl Read for FailAfter {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        match self.data.read(out)? {
            0 if self.panics => panic!("reader exploded"),
            0 => Err(io::Error::other("disk unplugged")),
            n => Ok(n),
        }
    }
}

/// A reader over the first `lines` lines of `log` that then fails.
fn fail_after(log: &[u8], lines: usize, panics: bool) -> BufReader<FailAfter> {
    let end = log
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(lines - 1)
        .map_or(log.len(), |(i, _)| i + 1);
    let data = io::Cursor::new(log[..end].to_vec());
    BufReader::with_capacity(64, FailAfter { data, panics })
}

#[test]
fn reader_error_returns_err_after_the_same_snapshots() {
    let log = hostile_log(9_000, 11);
    for lines in [1, 700, 8_999] {
        for cap in [None, Some(300)] {
            let mut cfg = ReplayConfig::new(PolicyKind::Sita, 4);
            cfg.max_requests = cap;
            let (want, got) = both(&cfg, || fail_after(&log, lines, false));
            assert_eq!(got, want, "error after {lines} lines, cap {cap:?}");
            if cap.is_none() {
                assert_eq!(
                    got.result,
                    Err("Other: disk unplugged".to_string()),
                    "{lines} lines"
                );
            }
        }
    }
}

#[test]
fn an_arrival_past_the_clock_ends_the_replay_at_that_record() {
    // One request dated 1000, then 5000 in 2000: a millennium is past
    // the clock's 584 years. The reader must stop at the second record,
    // not read ahead through the channel.
    let mut log = "h - - [01/Jan/1000:00:00:00 +0000] \"GET /f0 HTTP/1.0\" 200 1024\n".to_string();
    for t in 0..5_000 {
        log.push_str(&format!(
            "h - - {} \"GET /f{} HTTP/1.0\" 200 2048\n",
            date(t),
            t % 64
        ));
    }
    for cap in [None, Some(1), Some(2)] {
        let mut cfg = ReplayConfig::new(PolicyKind::L2s, 4);
        cfg.max_requests = cap;
        let (want, got) = both(&cfg, || log.as_bytes());
        assert_eq!(got, want, "cap {cap:?}");
        assert_eq!(got.stats.kept, 2, "cap {cap:?}");
        if cap == Some(1) {
            assert_eq!(got.result.unwrap().completed, 1);
        } else {
            let err = got.result.unwrap_err();
            assert!(
                err.starts_with("InvalidData: a request arrives at "),
                "{err}"
            );
        }
    }
}

/// Runs `f` on its own thread and returns its panic message, failing
/// the test if `f` returns normally or is still running after a minute.
fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let outcome = panic::catch_unwind(AssertUnwindSafe(f));
        let _ = tx.send(outcome.err().map(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        }));
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the replay hung instead of panicking")
        .expect("the replay returned instead of panicking")
}

#[test]
fn reader_panic_surfaces_as_a_panic() {
    let log = hostile_log(9_000, 13);
    for lines in [1, 8_999] {
        let reader = fail_after(&log, lines, true);
        let message = panic_message(move || {
            let mut stream = ClfStream::new(reader);
            let cfg = ReplayConfig::new(PolicyKind::L2s, 4);
            let _ = replay_stream(&cfg, &mut stream, &mut VirtualClock::new(), |_| {});
        });
        assert_eq!(message, "reader exploded", "{lines} lines");
    }
}

/// An endless log, one request a second: a `tail -f` that never ends.
/// It signals `far_ahead` once it has served 1000 lines.
struct Endless {
    line: Vec<u8>,
    pos: usize,
    t: u64,
    far_ahead: mpsc::Sender<()>,
}

impl Read for Endless {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.line.len() {
            if self.t == 1000 {
                let _ = self.far_ahead.send(());
            }
            let line = format!(
                "h - - {} \"GET /f{} HTTP/1.0\" 200 2048\n",
                date(self.t),
                self.t % 64
            );
            self.line = line.into_bytes();
            self.pos = 0;
            self.t += 1;
        }
        let n = out.len().min(self.line.len() - self.pos);
        out[..n].copy_from_slice(&self.line[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn snapshot_panic_stops_the_reader_on_an_endless_log() {
    // The first snapshot (10 s in, so ~10 records) waits until the
    // reader has run 1000 lines ahead, then panics. The reader must see
    // the replay loop gone and stop, or the replay never returns.
    let message = panic_message(|| {
        let (far_ahead, reader_far_ahead) = mpsc::channel();
        let endless = Endless {
            line: Vec::new(),
            pos: 0,
            t: 0,
            far_ahead,
        };
        let mut stream = ClfStream::new(BufReader::new(endless));
        let cfg = ReplayConfig::new(PolicyKind::L2s, 4);
        let _ = replay_stream(&cfg, &mut stream, &mut VirtualClock::new(), |_| {
            let _ = reader_far_ahead.recv();
            panic!("snapshot sink failed")
        });
    });
    assert_eq!(message, "snapshot sink failed");
}
