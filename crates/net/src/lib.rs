//! The cluster's shared network fabric.
//!
//! Figure 1 of the paper: the nodes hang off a switched 1 Gbit/s network
//! that also connects, through a bridge/**router**, to the Internet. The
//! paper models the router as a contended resource (a Cisco 7576 moving
//! ~4 Gbit/s) but explicitly does *not* model contention inside the
//! switch fabric ("since we are simulating a very fast switched
//! network") — the switch is a pure 1 µs delay.
//!
//! Per-node network-interface and CPU messaging costs live with the node
//! hardware (`l2s-cluster`); this crate owns the *shared* pieces:
//!
//! * [`Fabric`] — the router (FIFO, with a finite admission buffer: the
//!   paper injects new client requests only while "the router and
//!   network interface buffers would accept them") plus the switch
//!   delay.
//! * [`NetConfig`] — bandwidth/latency knobs, scalable for the
//!   sensitivity study (E15 in DESIGN.md).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use l2s_devs::{DelayStation, FifoResource};
use l2s_util::{SimDuration, SimTime};

/// Size in KB of one inbound client request message, a typical
/// HTTP/1.0 GET: the router carries it in, and a hand-off carries it on.
pub const REQUEST_KB: f64 = 0.3;

/// Router admission buffer, in messages (client requests waiting to
/// enter the cluster).
const ROUTER_BUFFER: usize = 64;

/// Shared-network parameters. Defaults are the paper's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetConfig {
    /// Router throughput in KB/s (default 500 000 ≈ 4 Gbit/s).
    pub router_kb_per_s: f64,
    /// Switch traversal latency in seconds (default 1 µs).
    pub switch_s: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            router_kb_per_s: 500_000.0,
            switch_s: 0.000_001,
        }
    }
}

impl NetConfig {
    /// Scales link/router bandwidth by `factor` (sensitivity study).
    /// Errors unless `factor` is finite and positive — library code must
    /// not abort on bad caller input.
    pub fn scale_bandwidth(mut self, factor: f64) -> Result<Self, String> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(format!(
                "bandwidth scale factor must be positive, got {factor}"
            ));
        }
        self.router_kb_per_s *= factor;
        Ok(self)
    }

    /// Scales switch latency by `factor` (sensitivity study). Errors
    /// unless `factor` is finite and positive.
    pub fn scale_latency(mut self, factor: f64) -> Result<Self, String> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(format!(
                "latency scale factor must be positive, got {factor}"
            ));
        }
        self.switch_s *= factor;
        Ok(self)
    }

    /// Router service time for `kb` KB.
    #[inline]
    pub fn router_service(&self, kb: f64) -> SimDuration {
        SimDuration::from_secs_f64(kb / self.router_kb_per_s)
    }
}

/// The shared fabric: router with contention and admission buffer, plus
/// the contention-free switch.
#[derive(Clone, Debug)]
pub struct Fabric {
    router: FifoResource,
    switch: DelayStation,
}

impl Fabric {
    /// Builds the fabric from a configuration.
    pub fn new(config: NetConfig) -> Self {
        Fabric {
            router: FifoResource::with_capacity(ROUTER_BUFFER),
            switch: DelayStation::new(SimDuration::from_secs_f64(config.switch_s)),
        }
    }

    /// Earliest time the router could admit another inbound message, as
    /// a cacheable lower bound; `None` when it would accept one at
    /// `now`. See [`FifoResource::next_admission`] for why the bound
    /// survives later router traffic.
    pub fn next_admission(&self, now: SimTime) -> Option<SimTime> {
        self.router.next_admission(now)
    }

    /// Pushes a transfer needing `service` router time (the
    /// [`NetConfig::router_service`] of its size; the simulator caches
    /// these per file) through the router at `now`; returns the time it
    /// clears the router, under FIFO contention. Used for both inbound
    /// requests and outbound replies (the same box carries both
    /// directions, as in the paper's single `µr` station).
    #[inline]
    pub fn router_transit_service(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        self.router.schedule(now, service)
    }

    /// Crosses the switch at `now` (pure delay, no contention).
    #[inline]
    pub fn switch_transit(&self, now: SimTime) -> SimTime {
        self.switch.traverse(now)
    }

    /// Router utilization over a measurement window.
    pub fn router_utilization(&self, window: SimDuration) -> f64 {
        self.router.utilization(window)
    }

    /// Zeroes router statistics (after warm-up).
    pub fn reset_stats(&mut self) {
        self.router.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn default_config_matches_paper() {
        let c = NetConfig::default();
        assert_eq!(c.router_kb_per_s, 500_000.0);
        assert_eq!(c.switch_s, 0.000_001);
        assert_eq!(ROUTER_BUFFER, 64);
        // 500 KB through the router takes 1 ms.
        assert_eq!(c.router_service(500.0).as_nanos(), 1_000_000);
    }

    #[test]
    fn switch_adds_exactly_one_microsecond() {
        let f = Fabric::new(NetConfig::default());
        assert_eq!(f.switch_transit(t(500)), t(1_500));
    }

    #[test]
    fn router_contends_fifo() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(cfg);
        // Two 500 KB replies at once: second waits for the first.
        let first = f.router_transit_service(SimTime::ZERO, cfg.router_service(500.0));
        let second = f.router_transit_service(SimTime::ZERO, cfg.router_service(500.0));
        assert_eq!(first.as_nanos(), 1_000_000);
        assert_eq!(second.as_nanos(), 2_000_000);
    }

    #[test]
    fn admission_buffer_fills_and_drains() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(cfg);
        let svc = cfg.router_service(500.0); // 1 ms
        for _ in 0..ROUTER_BUFFER {
            assert_eq!(f.next_admission(SimTime::ZERO), None);
            f.router_transit_service(SimTime::ZERO, svc);
        }
        // Full until the first transfer clears; then there is room again.
        let later = SimTime::from_nanos(1_000_000);
        assert_eq!(f.next_admission(SimTime::ZERO), Some(later));
        assert_eq!(f.next_admission(later), None);
    }

    #[test]
    fn bandwidth_scaling_speeds_the_router() {
        let c = NetConfig::default().scale_bandwidth(2.0).unwrap();
        assert_eq!(c.router_service(500.0).as_nanos(), 500_000);
    }

    #[test]
    fn latency_scaling_slows_the_switch() {
        let c = NetConfig::default().scale_latency(10.0).unwrap();
        let f = Fabric::new(c);
        assert_eq!(f.switch_transit(SimTime::ZERO), t(10_000));
    }

    #[test]
    fn scaling_rejects_bad_factors() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(NetConfig::default().scale_bandwidth(bad).is_err());
            assert!(NetConfig::default().scale_latency(bad).is_err());
        }
    }

    #[test]
    fn next_admission_is_a_pure_query() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(cfg);
        // A full buffer whose first transfer clears at 1 ms.
        for _ in 0..ROUTER_BUFFER {
            f.router_transit_service(SimTime::ZERO, cfg.router_service(500.0));
        }
        let shared: &Fabric = &f;
        // Asking never mutates: repeated queries at the same instant agree.
        assert_eq!(shared.next_admission(t(500)), Some(t(1_000_000)));
        assert_eq!(shared.next_admission(t(500)), Some(t(1_000_000)));
        assert_eq!(shared.next_admission(t(1_000_000)), None);
        assert_eq!(
            shared.next_admission(t(500)),
            Some(t(1_000_000)),
            "query left state untouched"
        );
    }

    #[test]
    fn utilization_accounting() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(cfg);
        f.router_transit_service(SimTime::ZERO, cfg.router_service(500.0)); // 1 ms busy
        let window = SimDuration::from_millis(4);
        assert!((f.router_utilization(window) - 0.25).abs() < 1e-9);
        f.reset_stats();
        assert_eq!(f.router_utilization(window), 0.0);
    }
}
