//! Contended and contention-free service stations.

use l2s_util::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A single-server FIFO station (CPU, disk, NI, router port).
///
/// Instead of materializing queueing events, the station keeps the time
/// its server becomes free: a job submitted at `now` with service time
/// `s` completes at `max(now, free_at) + s`. This is exact for FIFO
/// single-server queues and keeps the event count per request constant.
///
/// Capacity-bounded stations additionally track the completion times of
/// in-flight jobs so the simulator can ask for the instantaneous backlog
/// (`queue_len`) — the paper admits new client requests only while "the
/// router and network interface buffers would accept them". Unbounded
/// stations skip that bookkeeping entirely: admission control never
/// consults them, and dropping the per-job ring-buffer traffic keeps the
/// hot path allocation- and branch-light.
#[derive(Clone, Debug)]
pub struct FifoResource {
    free_at: SimTime,
    busy: SimDuration,
    completions: VecDeque<SimTime>,
    capacity: Option<usize>,
}

impl Default for FifoResource {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoResource {
    /// An unbounded station.
    pub fn new() -> Self {
        FifoResource {
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
            completions: VecDeque::new(),
            capacity: None,
        }
    }

    /// A station whose buffer holds at most `capacity` jobs (including
    /// the one in service). [`FifoResource::next_admission`] reports when
    /// a full buffer can admit the next job.
    pub fn with_capacity(capacity: usize) -> Self {
        l2s_util::invariant!(capacity >= 1, "capacity must hold at least one job");
        FifoResource {
            capacity: Some(capacity),
            ..Self::new()
        }
    }

    fn drain(&mut self, now: SimTime) {
        while let Some(&front) = self.completions.front() {
            if front <= now {
                self.completions.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of jobs queued or in service at `now`. Only
    /// capacity-bounded stations track backlog; an unbounded station
    /// always reports 0.
    ///
    /// This is a pure query: already-finished entries are counted out by
    /// binary search (`completions` is sorted — FIFO completion times are
    /// monotone) rather than drained, so `&self` suffices. The mutating
    /// path ([`FifoResource::schedule`]) still drains to bound memory.
    pub fn queue_len(&self, now: SimTime) -> usize {
        let finished = self.completions.partition_point(|&done| done <= now);
        self.completions.len() - finished
    }

    /// Earliest time a job could be admitted, as a lower bound computed
    /// from the current backlog: the completion instant of the in-flight
    /// job whose departure first brings the backlog below capacity.
    /// `None` when a job would be admitted at `now` already (or the
    /// station is unbounded).
    ///
    /// The bound stays valid under everything that can happen before
    /// that instant: later submissions append *later* completion times
    /// (they can only move true admission later), and the passage of
    /// time merely drains already-finished entries without touching the
    /// gating element. Callers may therefore cache the value and skip
    /// admission checks until the clock reaches it.
    pub fn next_admission(&self, now: SimTime) -> Option<SimTime> {
        let cap = self.capacity?;
        let len = self.completions.len();
        // `completions` only shrinks over time, so an under-cap raw count
        // is conclusive without the binary search.
        if len < cap || self.queue_len(now) < cap {
            return None;
        }
        self.completions.get(len - cap).copied()
    }

    /// Submits a job at `now` needing `service` time; returns its
    /// completion time. Ignores any capacity bound: the caller admits
    /// jobs by [`FifoResource::next_admission`], or not at all.
    pub fn schedule(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        if self.capacity.is_some() {
            self.drain(now);
        }
        let start = self.free_at.max(now);
        let done = start + service;
        self.free_at = done;
        self.busy += service;
        if self.capacity.is_some() {
            self.completions.push_back(done);
        }
        done
    }

    /// When the server next becomes idle (may be in the past).
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total service time performed since the last stats reset.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Fraction of the window `[window_start, window_end]` this server
    /// spent busy (0 when the window is empty). Assumes stats were reset
    /// at `window_start`.
    pub fn utilization(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            0.0
        } else {
            (self.busy.as_secs_f64() / window.as_secs_f64()).min(1.0)
        }
    }

    /// Zeroes busy-time accounting (used after cache warm-up) without
    /// touching in-flight work.
    pub fn reset_stats(&mut self) {
        self.busy = SimDuration::ZERO;
    }

    /// Discards all in-flight and queued work as of `now` (a node crash):
    /// the backlog is dropped, the server becomes free immediately, and
    /// the unperformed portion of already-accepted service time
    /// (`free_at - now`) is subtracted from the busy accounting so
    /// utilization reflects work actually carried out. Busy time already
    /// performed is kept.
    ///
    /// The rescinded span can exceed accrued busy time when work was
    /// scheduled to *start* in the future (the replay front-end books
    /// a whole station pipeline at admission); busy clamps at zero
    /// rather than underflowing.
    pub fn reset_in_flight(&mut self, now: SimTime) {
        self.completions.clear();
        if self.free_at > now {
            let rescinded = self.free_at - now;
            self.busy = if self.busy > rescinded {
                self.busy - rescinded
            } else {
                SimDuration::ZERO
            };
            self.free_at = now;
        }
    }
}

/// A contention-free fixed delay (the paper's switch fabric: 1 µs, with
/// internal contention explicitly not modeled).
#[derive(Clone, Copy, Debug)]
pub struct DelayStation {
    delay: SimDuration,
}

impl DelayStation {
    /// A station adding `delay` to every traversal.
    pub fn new(delay: SimDuration) -> Self {
        DelayStation { delay }
    }

    /// Completion time of a traversal starting at `now`.
    #[inline]
    pub fn traverse(&self, now: SimTime) -> SimTime {
        now + self.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }
    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut r = FifoResource::new();
        assert_eq!(r.schedule(t(100), d(50)), t(150));
        assert_eq!(r.free_at(), t(150));
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut r = FifoResource::new();
        assert_eq!(r.schedule(t(0), d(100)), t(100));
        // Arrives at 10 while busy: waits until 100.
        assert_eq!(r.schedule(t(10), d(20)), t(120));
        // Arrives at 15: waits behind both.
        assert_eq!(r.schedule(t(15), d(5)), t(125));
    }

    #[test]
    fn server_goes_idle_between_jobs() {
        let mut r = FifoResource::new();
        r.schedule(t(0), d(10));
        // Arrives long after the first completes.
        assert_eq!(r.schedule(t(1000), d(10)), t(1010));
    }

    #[test]
    fn queue_len_tracks_backlog() {
        let mut r = FifoResource::with_capacity(8);
        r.schedule(t(0), d(100)); // done at 100
        r.schedule(t(0), d(100)); // done at 200
        r.schedule(t(0), d(100)); // done at 300
        assert_eq!(r.queue_len(t(50)), 3);
        assert_eq!(r.queue_len(t(100)), 2);
        assert_eq!(r.queue_len(t(250)), 1);
        assert_eq!(r.queue_len(t(300)), 0);
    }

    #[test]
    fn unbounded_station_skips_backlog_tracking() {
        let mut r = FifoResource::new();
        r.schedule(t(0), d(100));
        r.schedule(t(0), d(100));
        assert_eq!(r.queue_len(t(50)), 0, "no tracking without a capacity");
        assert_eq!(r.next_admission(t(50)), None);
        assert_eq!(r.busy_time(), d(200), "stats still accumulate");
    }

    #[test]
    fn capacity_limits_admission() {
        let mut r = FifoResource::with_capacity(2);
        assert_eq!(r.next_admission(t(0)), None);
        r.schedule(t(0), d(100));
        assert_eq!(r.next_admission(t(0)), None);
        r.schedule(t(0), d(100));
        // Full: the next job waits for the first to finish.
        assert_eq!(r.next_admission(t(0)), Some(t(100)));
        assert_eq!(r.next_admission(t(100)), None);
        assert_eq!(r.schedule(t(100), d(100)), t(300));
    }

    #[test]
    fn busy_time_accumulates() {
        let mut r = FifoResource::new();
        r.schedule(t(0), d(30));
        r.schedule(t(100), d(70));
        assert_eq!(r.busy_time(), d(100));
        r.reset_stats();
        assert_eq!(r.busy_time(), SimDuration::ZERO);
        // In-flight state survives the reset.
        assert_eq!(r.free_at(), t(170));
    }

    #[test]
    fn utilization_is_busy_over_window() {
        let mut r = FifoResource::new();
        r.schedule(t(0), d(250));
        assert!((r.utilization(d(1000)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn utilization_clamps_to_one() {
        let mut r = FifoResource::new();
        r.schedule(t(0), d(500));
        r.schedule(t(0), d(600));
        assert_eq!(r.utilization(d(1000)), 1.0);
    }

    #[test]
    fn reset_in_flight_drops_backlog_and_unperformed_work() {
        let mut r = FifoResource::with_capacity(8);
        r.schedule(t(0), d(100)); // done at 100
        r.schedule(t(0), d(100)); // done at 200
        r.schedule(t(0), d(100)); // done at 300
                                  // Crash at 150: the first job finished, the second is half done,
                                  // the third never ran.
        r.reset_in_flight(t(150));
        assert_eq!(r.free_at(), t(150));
        assert_eq!(r.queue_len(t(150)), 0);
        assert_eq!(r.next_admission(t(150)), None);
        // 300 ns were accepted; 150 ns of server time were unperformed.
        assert_eq!(r.busy_time(), d(150));
        // The station schedules normally afterwards.
        assert_eq!(r.schedule(t(150), d(10)), t(160));
    }

    #[test]
    fn reset_in_flight_on_idle_station_is_inert() {
        let mut r = FifoResource::new();
        r.schedule(t(0), d(40));
        r.reset_in_flight(t(1000)); // long after completion
        assert_eq!(r.busy_time(), d(40));
        assert_eq!(r.free_at(), t(40), "past free_at untouched");
    }

    #[test]
    #[should_panic(expected = "capacity must hold at least one job")]
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn zero_capacity_rejected() {
        let _ = FifoResource::with_capacity(0);
    }

    #[test]
    fn delay_station_is_contention_free() {
        let s = DelayStation::new(d(1000));
        // Two simultaneous traversals both finish after exactly the delay.
        assert_eq!(s.traverse(t(5)), t(1005));
        assert_eq!(s.traverse(t(5)), t(1005));
    }

    #[test]
    fn completion_times_never_precede_submission() {
        let mut rng = l2s_util::DetRng::new(17);
        let mut r = FifoResource::new();
        let mut now = SimTime::ZERO;
        let mut last_done = SimTime::ZERO;
        for _ in 0..10_000 {
            now += d(rng.below(200));
            let service = d(rng.below(300) + 1);
            let done = r.schedule(now, service);
            assert!(done >= now + service, "done too early");
            assert!(done >= last_done, "FIFO order violated");
            last_done = done;
        }
    }
}
