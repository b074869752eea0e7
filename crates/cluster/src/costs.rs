//! Per-operation service times — Table 1 and the Section 5.1 M-VIA
//! message cost breakdown.

use l2s_util::SimDuration;

/// Every service time one node charges for request processing and
/// cluster messaging. Defaults are the paper's values.
///
/// Message costs follow the paper's M-VIA measurement: a 4-byte message
/// takes 19 µs one way — 3 µs of CPU on each end, 6 µs in each network
/// interface, and 1 µs in the switch, which belongs to the shared fabric
/// (`l2s_net::NetConfig::switch_s`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeCosts {
    /// `1/µp` — CPU time to read and parse one request (158.7 µs).
    pub parse_s: f64,
    /// `1/µf` — CPU time to forward (hand off) one request (100 µs).
    pub forward_s: f64,
    /// `µm` overhead — CPU time to start a reply from memory (100 µs).
    pub mem_overhead_s: f64,
    /// `µm` bandwidth — CPU-limited reply streaming rate (12 000 KB/s).
    pub mem_kb_per_s: f64,
    /// `µd` overhead — one disk access incl. directory (28 ms).
    pub disk_overhead_s: f64,
    /// `µd` bandwidth — disk transfer rate (10 000 KB/s).
    pub disk_kb_per_s: f64,
    /// `1/µi` — NI time to receive one client request (7.14 µs).
    pub ni_in_s: f64,
    /// `µo` overhead — NI per-message cost (3 µs).
    pub ni_out_overhead_s: f64,
    /// `µo` bandwidth — NI link rate (128 000 KB/s = 1 Gbit/s).
    pub ni_out_kb_per_s: f64,
    /// CPU cost to send or receive one small cluster message (3 µs).
    pub msg_cpu_s: f64,
    /// NI cost to send or receive one small cluster message (6 µs).
    pub msg_ni_s: f64,
}

impl Default for NodeCosts {
    fn default() -> Self {
        NodeCosts {
            parse_s: 1.0 / 6_300.0,
            forward_s: 1.0 / 10_000.0,
            mem_overhead_s: 0.0001,
            mem_kb_per_s: 12_000.0,
            disk_overhead_s: 0.028,
            disk_kb_per_s: 10_000.0,
            ni_in_s: 1.0 / 140_000.0,
            ni_out_overhead_s: 0.000_003,
            ni_out_kb_per_s: 128_000.0,
            msg_cpu_s: 0.000_003,
            msg_ni_s: 0.000_006,
        }
    }
}

impl NodeCosts {
    /// CPU time to stream a `kb`-KB reply from memory (`1/µm`).
    #[inline]
    pub fn mem_reply(&self, kb: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.mem_overhead_s + kb / self.mem_kb_per_s)
    }

    /// Disk time to read a `kb`-KB file (`1/µd`).
    #[inline]
    pub fn disk_read(&self, kb: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.disk_overhead_s + kb / self.disk_kb_per_s)
    }

    /// NI time to push `kb` KB onto the link (`1/µo`).
    #[inline]
    pub fn ni_out(&self, kb: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.ni_out_overhead_s + kb / self.ni_out_kb_per_s)
    }

    /// NI time to receive one client request (`1/µi`).
    #[inline]
    pub fn ni_in(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.ni_in_s)
    }

    /// CPU time to parse one request (`1/µp`).
    #[inline]
    pub fn parse(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.parse_s)
    }

    /// CPU time to hand a request off to another node (`1/µf`).
    #[inline]
    pub fn forward(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.forward_s)
    }

    /// CPU time to send or receive one small cluster message.
    #[inline]
    pub fn msg_cpu(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.msg_cpu_s)
    }

    /// NI time to send or receive one small cluster message.
    #[inline]
    pub fn msg_ni(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.msg_ni_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let c = NodeCosts::default();
        assert!((c.parse_s - 1.0 / 6300.0).abs() < 1e-12);
        assert!((c.forward_s - 0.0001).abs() < 1e-12);
        assert_eq!(c.disk_overhead_s, 0.028);
        assert_eq!(c.disk_kb_per_s, 10_000.0);
        assert_eq!(c.ni_out_kb_per_s, 128_000.0);
    }

    #[test]
    fn service_time_helpers() {
        let c = NodeCosts::default();
        // 12 KB from memory: 100 µs + 1 ms.
        assert_eq!(c.mem_reply(12.0).as_nanos(), 1_100_000);
        // 10 KB from disk: 28 ms + 1 ms.
        assert_eq!(c.disk_read(10.0).as_nanos(), 29_000_000);
        // 128 KB out the NI: 3 µs + 1 ms.
        assert_eq!(c.ni_out(128.0).as_nanos(), 1_003_000);
        // Request receipt: 1/140000 s ≈ 7.143 µs.
        assert_eq!(c.ni_in().as_nanos(), 7_143);
    }

    #[test]
    fn costs_scale_with_size() {
        let c = NodeCosts::default();
        assert!(c.mem_reply(100.0) > c.mem_reply(1.0));
        assert!(c.disk_read(100.0) > c.disk_read(1.0));
        assert!(c.ni_out(100.0) > c.ni_out(1.0));
    }
}
