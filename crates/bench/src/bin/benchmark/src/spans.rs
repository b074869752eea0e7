//! In-memory span aggregation for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around the
//! calls it makes into each layer's public API. They are aggregated per
//! `(name, parent)` as call count, total and self nanoseconds (self =
//! total minus the time of child spans), and written as one JSON file
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy, Debug, Default)]
struct Agg {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

/// An open span: its name, start and the time its children took.
struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

pub struct Spans {
    stack: Vec<Open>,
    aggs: BTreeMap<(&'static str, &'static str), Agg>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            stack: Vec::new(),
            aggs: BTreeMap::new(),
        }
    }

    fn parent(&self) -> &'static str {
        self.stack.last().map_or("", |o| o.name)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.timed(name, f).0
    }

    /// [`Spans::time`], also returning the span's duration in ns.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, u64) {
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        let out = f(self);
        let open = self.stack.pop().expect("span stack is balanced");
        let total = open.start.elapsed().as_nanos() as u64;
        self.record(name, 1, total, total.saturating_sub(open.child_ns));
        (out, total)
    }

    /// Records a leaf span measured elsewhere (per-call timers folded
    /// into one [`Acc`]) as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, acc: Acc) {
        self.record(name, acc.calls, acc.ns, acc.ns);
    }

    fn record(&mut self, name: &'static str, calls: u64, total: u64, self_ns: u64) {
        let parent = self.parent();
        if let Some(open) = self.stack.last_mut() {
            open.child_ns += total;
        }
        let agg = self.aggs.entry((name, parent)).or_default();
        agg.calls += calls;
        agg.total_ns += total;
        agg.self_ns += self_ns;
    }

    /// The span table as a JSON array, one object per `(name, parent)`
    /// (the root's parent is `""`), each line indented by `indent`.
    pub fn to_json(&self, indent: &str) -> String {
        let mut out = String::from("[\n");
        for (i, ((name, parent), a)) in self.aggs.iter().enumerate() {
            let sep = if i + 1 < self.aggs.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{indent}  {{\"name\": \"{name}\", \"parent\": \"{parent}\", \"calls\": {}, \
                 \"total_ns\": {}, \"self_ns\": {}}}{sep}",
                a.calls, a.total_ns, a.self_ns
            );
        }
        out.push_str(indent);
        out.push(']');
        out
    }
}

/// A per-call timer for hot calls: each call is bracketed by two clock
/// reads, and the cost of an empty bracket is subtracted at the end.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub calls: u64,
    pub ns: u64,
}

impl std::ops::AddAssign for Acc {
    fn add_assign(&mut self, other: Acc) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

impl Acc {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// The accumulated time with `bracket_ns` (see [`bracket_ns`])
    /// removed from every call, floored at zero.
    pub fn net(self, bracket_ns: f64) -> Acc {
        let overhead = (bracket_ns * self.calls as f64) as u64;
        Acc {
            calls: self.calls,
            ns: self.ns.saturating_sub(overhead),
        }
    }

    pub fn per_call(self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }
}

/// Mean cost of an empty [`Acc::time`] bracket on this host, in ns (the
/// median of several batches, so one preempted batch cannot skew it).
pub fn bracket_ns() -> f64 {
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let mut acc = Acc::default();
            for i in 0..20_000u64 {
                acc.time(|| black_box(i));
            }
            acc.per_call()
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// never exercised).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
