//! The four workloads: their inputs, their cells and one timed
//! repetition each.
//!
//! Each workload loads a different layer of the system (README.md has
//! the full rationale):
//!
//! * `paper-trio` — the paper's figure workload: real cache work and the
//!   three distribution policies at 4–16 nodes, a shallow event list;
//! * `scale-1024` — 1024 nodes on a streamed population where every
//!   request hits: the future-event list does most of the work;
//! * `l2s-64-churn` — L2S at 64 nodes under drift, a flash crowd and two
//!   crash/recover cycles: dispatch and control messages do the work;
//! * `clf-replay` — the live replay front-end over a rendered CLF log:
//!   log parsing and the timed replay model, no event list at all.

use crate::digest;
use l2s::PolicyKind;
use l2s_replay::{replay_stream, ReplayConfig};
use l2s_sim::{
    simulate_workload, DriftSpec, FaultPlan, FlashCrowd, SimConfig, SimReport, SynthWorkload,
    TraceWorkload, VirtualClock, Workload as RequestSource, WorkloadMod,
};
use l2s_trace::{ClfStream, FileSet, Trace, TraceSpec};
use l2s_util::DetRng;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Workload seed used when `--seed` is absent; the pinned digests hold
/// at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Directory (relative to the working directory) for the temporary CLF
/// log and the traced run's span file.
pub const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperTrio,
    Scale1024,
    L2s64Churn,
    ClfReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperTrio,
        Workload::Scale1024,
        Workload::L2s64Churn,
        Workload::ClfReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTrio => "paper-trio",
            Workload::Scale1024 => "scale-1024",
            Workload::L2s64Churn => "l2s-64-churn",
            Workload::ClfReplay => "clf-replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Digest of one full-size repetition at [`DEFAULT_SEED`]. The timed
    /// replay model is due to be replaced by the DES engine, so
    /// `clf-replay` is checked only for agreement between repetitions.
    pub fn pinned_digest(self) -> Option<u64> {
        match self {
            Workload::PaperTrio => Some(0xfd99_abdd_d50b_45ff),
            Workload::Scale1024 => Some(0xb0a2_3dc2_0067_cde6),
            Workload::L2s64Churn => Some(0x78fb_843c_f530_027b),
            Workload::ClfReplay => None,
        }
    }
}

/// Input sizes. [`Size::FULL`] is the benchmark of record; tests run a
/// small size with the same structure.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub trio_nodes: [usize; 3],
    pub trio_cap: usize,
    pub scale_nodes: usize,
    pub scale_requests: usize,
    pub churn_nodes: usize,
    pub churn_cap: usize,
    /// `(node, crash_s, recover_s)` offsets into the measured pass.
    pub crashes: [(usize, f64, f64); 2],
    /// `(files, requests)` overrides for the generated Clarknet and
    /// Rutgers traces; `None` keeps the Table 2 population.
    pub clarknet: Option<(usize, usize)>,
    pub rutgers: Option<(usize, usize)>,
    /// CLF arrival rate, requests per second of log time.
    pub clf_rate: f64,
    /// Whether [`Workload::pinned_digest`] describes this size.
    pub pinned: bool,
}

impl Size {
    pub const FULL: Size = Size {
        trio_nodes: [4, 8, 16],
        trio_cap: 400_000,
        scale_nodes: 1024,
        scale_requests: 2_000_000,
        churn_nodes: 64,
        churn_cap: 1_500_000,
        crashes: [(3, 5.0, 15.0), (17, 10.0, 20.0)],
        clarknet: None,
        rutgers: None,
        clf_rate: 100.0,
        pinned: true,
    };

    #[cfg(test)]
    pub const SMALL: Size = Size {
        trio_nodes: [2, 4, 8],
        trio_cap: 3_000,
        scale_nodes: 64,
        scale_requests: 20_000,
        churn_nodes: 16,
        churn_cap: 20_000,
        crashes: [(3, 0.05, 0.15), (9, 0.1, 0.2)],
        clarknet: Some((2_000, 30_000)),
        rutgers: Some((1_500, 4_000)),
        clf_rate: 100.0,
        pinned: false,
    };

    fn spec(base: TraceSpec, over: Option<(usize, usize)>) -> TraceSpec {
        match over {
            Some((files, requests)) => base.scaled(files, requests),
            None => base,
        }
    }

    fn clarknet(&self) -> TraceSpec {
        Self::spec(TraceSpec::clarknet(), self.clarknet)
    }

    fn rutgers(&self) -> TraceSpec {
        Self::spec(TraceSpec::rutgers(), self.rutgers)
    }

    fn calgary_stream(&self) -> TraceSpec {
        let spec = TraceSpec::calgary();
        let files = spec.num_files;
        spec.scaled(files, self.scale_requests)
    }
}

/// A workload's request source, built during set-up.
pub enum Source {
    Trace(Trace),
    Synth(SynthWorkload),
}

impl Source {
    pub fn files(&self) -> &FileSet {
        match self {
            Source::Trace(t) => t.files(),
            Source::Synth(s) => s.files(),
        }
    }

    /// Requests in one pass.
    pub fn requests(&self) -> usize {
        match self {
            Source::Trace(t) => t.len(),
            Source::Synth(s) => s.len(),
        }
    }
}

/// Builds the workload's inputs through the trace layer's public API:
/// everything `setup_s` measures.
pub fn setup(workload: Workload, size: &Size, seed: u64) -> Source {
    match workload {
        Workload::PaperTrio | Workload::L2s64Churn => Source::Trace(size.clarknet().generate(seed)),
        Workload::Scale1024 => Source::Synth(SynthWorkload::new(&size.calgary_stream(), seed)),
        Workload::ClfReplay => Source::Trace(size.rutgers().generate(seed)),
    }
}

/// One simulation of a DES workload.
pub struct Cell {
    pub kind: PolicyKind,
    pub config: SimConfig,
}

impl Cell {
    /// Requests the cell injects per pass.
    pub fn limit(&self, source_len: usize) -> usize {
        self.config
            .max_requests
            .map_or(source_len, |m| m.min(source_len))
    }

    /// Passes over the request source (warm-up plus measurement).
    pub fn passes(&self) -> usize {
        1 + usize::from(self.config.warmup)
    }
}

/// The DES cells of `workload`, in run order (empty for `clf-replay`).
pub fn cells(workload: Workload, size: &Size, source: &Source) -> Vec<Cell> {
    match workload {
        Workload::PaperTrio => size
            .trio_nodes
            .iter()
            .flat_map(|&n| {
                [PolicyKind::Traditional, PolicyKind::Lard, PolicyKind::L2s].map(|kind| {
                    let mut config = SimConfig::paper_default(n);
                    config.max_requests = Some(size.trio_cap);
                    Cell { kind, config }
                })
            })
            .collect(),
        Workload::Scale1024 => [PolicyKind::Traditional, PolicyKind::Lard]
            .map(|kind| {
                let mut config = SimConfig::paper_default(size.scale_nodes);
                config.warmup = false;
                config.response_samples = false;
                Cell { kind, config }
            })
            .into(),
        Workload::L2s64Churn => {
            let mut config = SimConfig::paper_default(size.churn_nodes);
            config.max_requests = Some(size.churn_cap);
            config.workload_mod = churn_modulation(size.churn_cap, source.files().len());
            let [(a, a_down, a_up), (b, b_down, b_up)] = size.crashes;
            config.faults = FaultPlan::crash_recover(a, a_down, a_up)
                .merged(FaultPlan::crash_recover(b, b_down, b_up));
            vec![Cell {
                kind: PolicyKind::L2s,
                config,
            }]
        }
        Workload::ClfReplay => Vec::new(),
    }
}

/// X9's drift and flash crowd, scaled to a closed-loop pass of `n`
/// requests (the modulation clock ticks one second per request).
fn churn_modulation(n: usize, files: usize) -> WorkloadMod {
    let n = n as f64;
    WorkloadMod {
        drift: Some(DriftSpec {
            period_s: n / 8.0,
            step: (files / 12) as u32,
        }),
        flash: vec![FlashCrowd {
            start_s: 0.25 * n,
            ramp_s: 0.05 * n,
            hold_s: 0.35 * n,
            decay_s: 0.10 * n,
            peak_weight: 0.5,
            hot_files: 8,
            first_id: 0,
        }],
        ..WorkloadMod::none()
    }
}

/// Runs `cell` over `source` from its first request.
pub fn simulate_cell(cell: &Cell, source: &mut Source) -> SimReport {
    match source {
        Source::Trace(trace) => {
            simulate_workload(&cell.config, cell.kind, &mut TraceWorkload::new(trace))
        }
        Source::Synth(synth) => {
            synth.rewind();
            simulate_workload(&cell.config, cell.kind, synth)
        }
    }
}

/// The replay configuration `clf-replay` drives: `ReplayConfig::new`
/// defaults (10 s snapshots, response samples on).
pub fn replay_config() -> ReplayConfig {
    ReplayConfig::new(PolicyKind::L2s, 8)
}

/// The outcome of one repetition.
pub struct Rep {
    /// Simulated (or replayed) requests processed, warm-up included.
    pub requests: u64,
    pub digest: u64,
    /// `completed + failed == injected` held for every cell.
    pub conserved: bool,
}

/// Runs one repetition of `workload`.
pub fn run(
    workload: Workload,
    size: &Size,
    source: &mut Source,
    log: Option<&ClfLog>,
) -> Result<Rep, String> {
    if workload == Workload::ClfReplay {
        let log = log.ok_or("clf-replay needs its rendered log")?;
        let (report, kept) = log.replay()?;
        return Ok(Rep {
            requests: kept,
            digest: digest::digest(std::slice::from_ref(&report)),
            conserved: log.conserved(&report, kept),
        });
    }
    let len = source.requests();
    let mut requests = 0u64;
    let mut conserved = true;
    let mut reports = Vec::new();
    for cell in cells(workload, size, source) {
        let report = simulate_cell(&cell, source);
        let limit = cell.limit(len);
        requests += (limit * cell.passes()) as u64;
        conserved &= report.completed + report.failed == limit as u64;
        reports.push(report);
    }
    Ok(Rep {
        requests,
        digest: digest::digest(&reports),
        conserved,
    })
}

/// A CLF rendering of a trace in a private temporary directory, deleted
/// when the value drops — on success, on error returns and on panics.
pub struct ClfLog {
    dir: PathBuf,
    pub path: PathBuf,
    /// Lines written (every one a kept `GET 200`).
    pub lines: u64,
}

impl ClfLog {
    /// Renders `trace` as Common Log Format: one `GET 200` line per
    /// request, arrivals a Poisson process at `rate` requests per second
    /// of log time drawn from `seed`, file `i` served as `/f<i>` with its
    /// size in bytes.
    pub fn render(trace: &Trace, rate: f64, seed: u64) -> Result<ClfLog, String> {
        // Unique per process and per log, so concurrent tests never share one.
        static RENDERED: AtomicU64 = AtomicU64::new(0);
        let n = RENDERED.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(OUT_DIR).join(format!("clf-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut log = ClfLog {
            path: dir.join("rutgers.log"),
            dir,
            lines: 0,
        };
        log.write(trace, rate, seed)
            .map_err(|e| format!("writing {}: {e}", log.path.display()))?;
        Ok(log)
    }

    fn write(&mut self, trace: &Trace, rate: f64, seed: u64) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(&self.path)?);
        let mut rng = DetRng::new(seed ^ 0xc1f0_a7e5);
        let mut at_s = 0.0f64;
        let mut line = String::new();
        for &file in trace.requests() {
            at_s += rng.exponential(1.0 / rate);
            let t = at_s as u64;
            let day = 1 + t / 86_400;
            if day > 31 {
                return Err(io::Error::other("log spans more than one month"));
            }
            let bytes = ((trace.files().size_kb(file) * 1024.0).round() as u64).max(1);
            line.clear();
            let _ = writeln!(
                line,
                "client - - [{day:02}/Mar/2000:{:02}:{:02}:{:02} +0000] \"GET /f{} HTTP/1.0\" 200 {bytes}",
                t / 3600 % 24,
                t / 60 % 60,
                t % 60,
                file.raw()
            );
            out.write_all(line.as_bytes())?;
            self.lines += 1;
        }
        out.flush()
    }

    pub fn open(&self) -> Result<ClfStream<BufReader<File>>, String> {
        let file =
            File::open(&self.path).map_err(|e| format!("opening {}: {e}", self.path.display()))?;
        Ok(ClfStream::new(BufReader::new(file)))
    }

    /// `replay_stream` over the log with [`replay_config`] and a virtual
    /// clock: the final report and the number of lines kept.
    pub fn replay(&self) -> Result<(SimReport, u64), String> {
        let mut stream = self.open()?;
        let report = replay_stream(
            &replay_config(),
            &mut stream,
            &mut VirtualClock::new(),
            |_| {},
        )
        .map_err(|e| format!("replaying {}: {e}", self.path.display()))?;
        Ok((report, stream.stats().kept))
    }

    /// Every line written was kept, and every kept request completed or
    /// failed.
    pub fn conserved(&self, report: &SimReport, kept: u64) -> bool {
        kept == self.lines && report.completed + report.failed == kept
    }
}

impl Drop for ClfLog {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}
