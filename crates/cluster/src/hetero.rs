//! Heterogeneous cluster composition.
//!
//! The paper evaluates identical nodes; real clusters mix generations
//! of hardware. A [`HeteroSpec`] describes the mix as a small list of
//! node classes — each with a population weight, a CPU speed multiplier
//! and a cache scale factor — and expands deterministically
//! into per-node [`NodeProfile`]s for any cluster size. Van der Boor &
//! Comte's product-form analysis of load balancing on heterogeneous
//! clusters (see PAPERS.md) is the analytic companion: in the fluid
//! limit the saturation throughput of a CPU-bound heterogeneous cluster
//! depends on the *aggregate* speed `Σᵢ sᵢ`, which `crates/model`
//! validates the simulator against.
//!
//! Expansion assigns classes to contiguous node-id blocks by largest-
//! remainder apportionment, so the same spec yields the same profiles at
//! every cluster size and worker count — a prerequisite for the
//! simulator's byte-identical determinism contract.

use l2s_util::{cast, invariant};

/// One class of nodes in a heterogeneous cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeClass {
    /// Relative share of the cluster population (any positive scale;
    /// shares are normalized over the spec).
    pub weight: f64,
    /// CPU speed multiplier relative to the paper's 300 MHz baseline
    /// node: CPU service times divide by this factor.
    pub cpu_speed: f64,
    /// Main-memory cache scale factor applied to the configured per-node
    /// cache size.
    pub cache_factor: f64,
}

/// Concrete hardware of one node, expanded from a [`HeteroSpec`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeProfile {
    /// CPU speed multiplier (1.0 = the paper's baseline node).
    pub cpu_speed: f64,
    /// Cache capacity in KB.
    pub cache_kb: f64,
}

/// A validated description of a heterogeneous cluster as a mix of node
/// classes. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct HeteroSpec {
    classes: Vec<NodeClass>,
}

impl HeteroSpec {
    /// Builds a spec from a class mix, validating every parameter.
    pub fn new(classes: Vec<NodeClass>) -> Result<Self, String> {
        if classes.is_empty() {
            return Err("hetero spec needs at least one node class".into());
        }
        for (i, c) in classes.iter().enumerate() {
            if !(c.weight.is_finite() && c.weight > 0.0) {
                return Err(format!("class {i}: weight must be positive and finite"));
            }
            if !(c.cpu_speed.is_finite() && c.cpu_speed > 0.0) {
                return Err(format!("class {i}: cpu_speed must be positive and finite"));
            }
            if !(c.cache_factor.is_finite() && c.cache_factor > 0.0) {
                return Err(format!(
                    "class {i}: cache_factor must be positive and finite"
                ));
            }
        }
        Ok(HeteroSpec { classes })
    }

    /// A single-class spec at baseline speed — expands to exactly the
    /// homogeneous cluster the rest of the simulator builds by default.
    pub fn uniform() -> Self {
        HeteroSpec {
            classes: vec![NodeClass {
                weight: 1.0,
                cpu_speed: 1.0,
                cache_factor: 1.0,
            }],
        }
    }

    /// A mildly mixed cluster: half the nodes one hardware generation
    /// ahead (1.5× CPU, 1.5× memory), half one behind (0.75×/0.75×).
    /// Aggregate CPU capacity ≈ 1.125× the homogeneous cluster's.
    pub fn mild() -> Self {
        HeteroSpec {
            classes: vec![
                NodeClass {
                    weight: 1.0,
                    cpu_speed: 1.5,
                    cache_factor: 1.5,
                },
                NodeClass {
                    weight: 1.0,
                    cpu_speed: 0.75,
                    cache_factor: 0.75,
                },
            ],
        }
    }

    /// An extreme mix: one quarter big machines (4× CPU, 4× memory),
    /// three quarters half-speed stragglers — the
    /// few-fast-many-slow regime van der Boor & Comte's heterogeneous
    /// model targets. Aggregate CPU capacity ≈ 1.375× homogeneous.
    pub fn extreme() -> Self {
        HeteroSpec {
            classes: vec![
                NodeClass {
                    weight: 1.0,
                    cpu_speed: 4.0,
                    cache_factor: 4.0,
                },
                NodeClass {
                    weight: 3.0,
                    cpu_speed: 0.5,
                    cache_factor: 0.5,
                },
            ],
        }
    }

    /// The class mix.
    pub fn classes(&self) -> &[NodeClass] {
        &self.classes
    }

    /// How many of `n` nodes each class gets, by largest-remainder
    /// apportionment (ties to the earlier class). Every class with
    /// positive weight gets its share; totals always sum to `n`.
    fn class_counts(&self, n: usize) -> Vec<usize> {
        let total_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        let quotas: Vec<f64> = self
            .classes
            .iter()
            .map(|c| cast::len_f64(n) * c.weight / total_weight)
            .collect();
        let mut counts: Vec<usize> = quotas.iter().map(|&q| cast::floor_index(q)).collect();
        let assigned: usize = counts.iter().sum();
        // Hand the leftover seats to the largest fractional remainders;
        // the sort is by (remainder desc, class index asc) so the order
        // is total and platform-independent.
        let mut order: Vec<usize> = (0..self.classes.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = quotas[a] - cast::len_f64(counts[a]);
            let rb = quotas[b] - cast::len_f64(counts[b]);
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        for i in 0..n - assigned {
            counts[order[i % order.len()]] += 1;
        }
        counts
    }

    /// Expands the spec into one [`NodeProfile`] per node for an
    /// `n`-node cluster with `base_cache_kb` of cache on the baseline
    /// class. Classes occupy contiguous node-id blocks in declaration
    /// order.
    pub fn profiles(&self, n: usize, base_cache_kb: f64) -> Vec<NodeProfile> {
        invariant!(n >= 1, "need at least one node");
        let counts = self.class_counts(n);
        let mut profiles = Vec::with_capacity(n);
        for (class, &count) in self.classes.iter().zip(&counts) {
            for _ in 0..count {
                profiles.push(NodeProfile {
                    cpu_speed: class.cpu_speed,
                    cache_kb: base_cache_kb * class.cache_factor,
                });
            }
        }
        profiles
    }

    /// Per-node CPU speed multipliers for an `n`-node cluster (the
    /// cache size does not affect speeds).
    pub fn speeds(&self, n: usize) -> Vec<f64> {
        self.profiles(n, 1.0).iter().map(|p| p.cpu_speed).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_expands_to_the_homogeneous_cluster() {
        let profiles = HeteroSpec::uniform().profiles(4, 1000.0);
        assert_eq!(profiles.len(), 4);
        for p in &profiles {
            assert_eq!(p.cpu_speed, 1.0);
            assert_eq!(p.cache_kb, 1000.0);
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(HeteroSpec::new(vec![]).is_err());
        let bad = NodeClass {
            weight: 1.0,
            cpu_speed: 0.0,
            cache_factor: 1.0,
        };
        assert!(HeteroSpec::new(vec![bad]).is_err());
        let nan = NodeClass {
            weight: f64::NAN,
            cpu_speed: 1.0,
            cache_factor: 1.0,
        };
        assert!(HeteroSpec::new(vec![nan]).is_err());
        HeteroSpec::new(vec![NodeClass {
            weight: 2.0,
            cpu_speed: 1.5,
            cache_factor: 1.0,
        }])
        .unwrap();
    }

    #[test]
    fn apportionment_is_exact_and_deterministic() {
        let spec = HeteroSpec::extreme(); // weights 1 : 3
        for n in [1, 2, 4, 7, 8, 12, 16, 1024] {
            let profiles = spec.profiles(n, 100.0);
            assert_eq!(profiles.len(), n, "n={n}");
            let again = spec.profiles(n, 100.0);
            assert_eq!(profiles, again, "expansion must be deterministic");
        }
        // At 8 nodes, 1:3 gives exactly 2 fast and 6 slow.
        let p8 = spec.profiles(8, 100.0);
        assert_eq!(p8.iter().filter(|p| p.cpu_speed == 4.0).count(), 2);
        assert_eq!(p8.iter().filter(|p| p.cpu_speed == 0.5).count(), 6);
        // Fast nodes sit in a contiguous leading block.
        assert_eq!(p8[0].cpu_speed, 4.0);
        assert_eq!(p8[1].cpu_speed, 4.0);
        assert_eq!(p8[2].cpu_speed, 0.5);
    }

    #[test]
    fn factors_scale_cache() {
        let p = HeteroSpec::extreme().profiles(8, 1000.0);
        assert_eq!(p[0].cache_kb, 4000.0);
        assert_eq!(p[7].cache_kb, 500.0);
    }

    #[test]
    fn tiny_clusters_still_get_every_profile_count_right() {
        // 1 node under a 1:3 mix: the slow class has the larger quota.
        let p = HeteroSpec::extreme().profiles(1, 100.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].cpu_speed, 0.5);
    }

    #[test]
    fn aggregate_speed_matches_the_mix() {
        let spec = HeteroSpec::mild();
        // 8 nodes at 1:1 → 4 × 1.5 + 4 × 0.75 = 9.
        let speeds = spec.speeds(8);
        assert_eq!(speeds.len(), 8);
        assert!((speeds.iter().sum::<f64>() - 9.0).abs() < 1e-12);
    }
}
