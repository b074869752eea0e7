//! Per-operation service times — Table 1 and the Section 5.1 M-VIA
//! message cost breakdown.

use l2s_util::SimDuration;

// Table 1's service rates, which the Section 3 model reads too. The
// simulator charges the rates µp, µf and µi as their reciprocals.

/// `µp` — requests the CPU reads and parses per second.
pub const PARSE_RATE: f64 = 6_300.0;
/// `µf` — requests the CPU hands off to another node per second.
pub const FORWARD_RATE: f64 = 10_000.0;
/// `µi` — client requests the NI receives per second.
pub const NI_REQUEST_RATE: f64 = 140_000.0;
/// `µm` overhead — CPU seconds to start a reply from memory.
pub const MEM_OVERHEAD_S: f64 = 0.0001;
/// `µm` bandwidth — CPU-limited reply streaming rate in KB/s.
pub const MEM_KB_PER_S: f64 = 12_000.0;
/// `µd` overhead — seconds per disk access, the directory read included
/// (2 × 14 ms).
pub const DISK_OVERHEAD_S: f64 = 0.028;
/// `µd` bandwidth — disk transfer rate in KB/s.
pub const DISK_KB_PER_S: f64 = 10_000.0;
/// `µo` overhead — NI seconds per outbound message.
pub const NI_OUT_OVERHEAD_S: f64 = 0.000_003;

/// Every service time one node charges for request processing and
/// cluster messaging: Table 1's rates above, plus the three costs the
/// sensitivity study scales. Defaults are the paper's values.
///
/// Message costs follow the paper's M-VIA measurement: a 4-byte message
/// takes 19 µs one way — 3 µs of CPU on each end, 6 µs in each network
/// interface, and 1 µs in the switch, which belongs to the shared fabric
/// (`l2s_net::NetConfig::switch_s`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeCosts {
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
        SimDuration::from_secs_f64(MEM_OVERHEAD_S + kb / MEM_KB_PER_S)
    }

    /// Disk time to read a `kb`-KB file (`1/µd`).
    #[inline]
    pub fn disk_read(&self, kb: f64) -> SimDuration {
        SimDuration::from_secs_f64(DISK_OVERHEAD_S + kb / DISK_KB_PER_S)
    }

    /// NI time to push `kb` KB onto the link (`1/µo`).
    #[inline]
    pub fn ni_out(&self, kb: f64) -> SimDuration {
        SimDuration::from_secs_f64(NI_OUT_OVERHEAD_S + kb / self.ni_out_kb_per_s)
    }

    /// NI time to receive one client request (`1/µi`).
    #[inline]
    pub fn ni_in(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / NI_REQUEST_RATE)
    }

    /// CPU time to parse one request (`1/µp`).
    #[inline]
    pub fn parse(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / PARSE_RATE)
    }

    /// CPU time to hand a request off to another node (`1/µf`).
    #[inline]
    pub fn forward(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / FORWARD_RATE)
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
        assert_eq!(
            (PARSE_RATE, FORWARD_RATE, NI_REQUEST_RATE),
            (6_300.0, 10_000.0, 140_000.0)
        );
        assert_eq!((MEM_OVERHEAD_S, MEM_KB_PER_S), (0.0001, 12_000.0));
        assert_eq!((DISK_OVERHEAD_S, DISK_KB_PER_S), (0.028, 10_000.0));
        assert_eq!(NI_OUT_OVERHEAD_S, 0.000_003);
        let c = NodeCosts::default();
        assert_eq!(c.ni_out_kb_per_s, 128_000.0);
        assert_eq!((c.msg_cpu_s, c.msg_ni_s), (0.000_003, 0.000_006));
        // 1/µp ≈ 158.7 µs and 1/µf = 100 µs.
        assert_eq!(c.parse().as_nanos(), 158_730);
        assert_eq!(c.forward().as_nanos(), 100_000);
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
