//! Model parameters — the Table 1 values a caller varies, with their
//! defaults.

/// Which request-distribution discipline the model evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServerKind {
    /// Requests are load-balanced with no regard to cache contents; every
    /// node's memory independently caches the globally hottest files, so
    /// the effective cache is `C` bytes (`R = 1` in the paper's framing).
    LocalityOblivious,
    /// Requests are routed to the node caching the file; the cluster
    /// memories aggregate to `N(1-R)C + RC` bytes, at the price of
    /// forwarding a fraction `Q` of the requests.
    LocalityConscious,
}

/// The model's parameters: the five a caller varies. Defaults are the
/// paper's Table 1 values.
///
/// Table 1's service rates are not parameters: the model reads them
/// where the simulator charges them from, `l2s-cluster`'s cost
/// constants and `l2s-net`'s router rate and request size. Sizes are in
/// **KBytes** and rates in operations per second, matching the paper's
/// formulas (e.g. the reply rate `µm = (0.0001 + S/12000)^-1 ops/s`
/// with `S` in KB).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelParams {
    /// `N` — number of cluster nodes (default 16).
    pub nodes: usize,
    /// `R` — fraction of each memory devoted to replicating hot files
    /// (default 0).
    pub replication: f64,
    /// `α` — Zipf exponent of the file popularity law (default 1).
    pub alpha: f64,
    /// `C` — cache (main memory) size per node in KB (default 128 MB).
    pub cache_kb: f64,
    /// `S` — average size of requested files in KB (default 16 KB; the
    /// figures sweep this axis).
    pub avg_file_kb: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            nodes: 16,
            replication: 0.0,
            alpha: 1.0,
            cache_kb: 128.0 * 1024.0,
            avg_file_kb: 16.0,
        }
    }
}

impl ModelParams {
    /// Validates parameter sanity; called by [`crate::QueueModel::new`].
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.replication) {
            return Err("replication must be in [0, 1]".into());
        }
        if self.alpha < 0.0 {
            return Err("alpha must be non-negative".into());
        }
        for (name, v) in [
            ("cache_kb", self.cache_kb),
            ("avg_file_kb", self.avg_file_kb),
        ] {
            if v <= 0.0 || !v.is_finite() {
                return Err(format!("{name} must be positive and finite"));
            }
        }
        // Below one file `harmonic(x)` is `x`, so the hit-rate axis
        // would imply a population of less than one file.
        if self.cache_kb < self.avg_file_kb {
            return Err(format!(
                "cache_kb ({:?} KB) must hold at least one file of avg_file_kb ({:?} KB)",
                self.cache_kb, self.avg_file_kb
            ));
        }
        Ok(())
    }

    /// Total locality-conscious cache capacity in KB:
    /// `Clc = N(1-R)C + RC` (the replicated fraction holds the same hot
    /// files everywhere, so it counts only once).
    pub fn conscious_cache_kb(&self) -> f64 {
        let n = l2s_util::cast::len_f64(self.nodes);
        n * (1.0 - self.replication) * self.cache_kb + self.replication * self.cache_kb
    }

    /// Effective cache capacity in KB for a server kind
    /// (`Clo = C`, `Clc` as above).
    pub fn effective_cache_kb(&self, kind: ServerKind) -> f64 {
        match kind {
            ServerKind::LocalityOblivious => self.cache_kb,
            ServerKind::LocalityConscious => self.conscious_cache_kb(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = ModelParams::default();
        assert_eq!(p.nodes, 16);
        assert_eq!(p.replication, 0.0);
        assert_eq!(p.alpha, 1.0);
        assert_eq!(p.cache_kb, 131_072.0);
        assert_eq!(p.avg_file_kb, 16.0);
        p.validate().unwrap();
    }

    #[test]
    fn conscious_cache_aggregates_memories() {
        let mut p = ModelParams::default();
        assert_eq!(p.conscious_cache_kb(), 16.0 * 131_072.0);
        p.replication = 1.0;
        // Full replication degenerates to a single cache (the paper's
        // observation that R = 1 is the oblivious server).
        assert_eq!(p.conscious_cache_kb(), 131_072.0);
        p.replication = 0.15;
        let expect = 16.0 * 0.85 * 131_072.0 + 0.15 * 131_072.0;
        assert!((p.conscious_cache_kb() - expect).abs() < 1e-6);
    }

    #[test]
    fn effective_cache_by_kind() {
        let p = ModelParams::default();
        assert_eq!(
            p.effective_cache_kb(ServerKind::LocalityOblivious),
            p.cache_kb
        );
        assert_eq!(
            p.effective_cache_kb(ServerKind::LocalityConscious),
            p.conscious_cache_kb()
        );
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut p = ModelParams {
            nodes: 0,
            ..ModelParams::default()
        };
        assert!(p.validate().is_err());
        p.nodes = 4;
        p.replication = 1.5;
        assert!(p.validate().is_err());
        p.replication = 0.0;
        p.cache_kb = -1.0;
        assert!(p.validate().is_err());
        p.cache_kb = 1024.0;
        p.avg_file_kb = f64::NAN;
        assert!(p.validate().is_err());
        // A cache smaller than one file.
        p.avg_file_kb = 1025.0;
        assert!(p.validate().is_err());
        p.avg_file_kb = 1024.0;
        p.validate().unwrap();
    }
}
