//! The open queuing-network model and its two solution methods.

use crate::params::{ModelParams, ServerKind};
use crate::Mm1;
use l2s_cluster::{
    NodeCosts, DISK_KB_PER_S, DISK_OVERHEAD_S, FORWARD_RATE, MEM_KB_PER_S, MEM_OVERHEAD_S,
    NI_OUT_OVERHEAD_S, NI_REQUEST_RATE, PARSE_RATE,
};
use l2s_net::{NetConfig, REQUEST_KB};
use l2s_util::cast;
use l2s_zipf::ZipfLaw;

/// Service time in seconds of one reply from memory (`1/µm`).
fn mem_reply_s(file_kb: f64) -> f64 {
    MEM_OVERHEAD_S + file_kb / MEM_KB_PER_S
}

/// Service time in seconds of one disk read (`1/µd`), including the
/// directory access the paper folds into the overhead.
fn disk_read_s(file_kb: f64) -> f64 {
    DISK_OVERHEAD_S + file_kb / DISK_KB_PER_S
}

/// Service time in seconds of one outbound NI transfer (`1/µo`).
fn ni_out_s(kb: f64) -> f64 {
    NI_OUT_OVERHEAD_S + kb / NodeCosts::default().ni_out_kb_per_s
}

/// Service time in seconds of one router traversal (`1/µr`).
fn router_s(kb: f64) -> f64 {
    kb / NetConfig::default().router_kb_per_s
}

/// Hit-rate quantities derived from Table 1's definitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Derived {
    /// `H` — average cache hit rate of the server being modeled.
    pub hit_rate: f64,
    /// `h` — hit rate of the replicated (hottest) files; zero when `R = 0`
    /// or for the oblivious server.
    pub replicated_hit: f64,
    /// `Q` — fraction of requests forwarded to another node
    /// (`(N-1)(1-h)/N` for the conscious server, 0 for the oblivious one).
    pub forward_fraction: f64,
}

/// Cluster-wide resource demand of one request, in seconds of service
/// time per resource class. Node-level classes (`ni_in`, `cpu`, `disk`,
/// `ni_out`) aggregate the work done on *all* nodes a request touches;
/// the solver divides by `N` to get per-node load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Demands {
    /// Border router: inbound request plus outbound reply.
    pub router_s: f64,
    /// Inbound NI: initial receipt plus (if forwarded) receipt at the
    /// service node.
    pub ni_in_s: f64,
    /// CPU: parse, forwarding work, and the reply once memory-resident.
    pub cpu_s: f64,
    /// Disk: a full access (directory + data) on the miss fraction.
    pub disk_s: f64,
    /// Outbound NI: the reply, plus the forwarded request message.
    pub ni_out_s: f64,
}

impl Demands {
    /// The five demands as `(name, cluster_demand_s, station_count)`
    /// triples; `station_count` is how many physical copies of the
    /// resource exist (1 router, `N` of everything else).
    pub fn stations(&self, nodes: usize) -> [(&'static str, f64, usize); 5] {
        [
            ("router", self.router_s, 1),
            ("ni_in", self.ni_in_s, nodes),
            ("cpu", self.cpu_s, nodes),
            ("disk", self.disk_s, nodes),
            ("ni_out", self.ni_out_s, nodes),
        ]
    }
}

/// Load on one station class in a solved network.
#[derive(Clone, Debug, PartialEq)]
pub struct StationLoad {
    /// Station class name (`router`, `ni_in`, `cpu`, `disk`, `ni_out`).
    pub name: &'static str,
    /// Utilization `ρ` of each physical copy of the station.
    pub utilization: f64,
    /// Mean residence time (queueing + service) this class contributes to
    /// one request, in seconds.
    pub residence_s: f64,
}

/// A solved open network at a given arrival rate.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    /// Total arrival rate the network was solved at (requests/s).
    pub arrival_rate: f64,
    /// Per-class station loads.
    pub stations: Vec<StationLoad>,
    /// End-to-end mean response time of one request, in seconds.
    pub response_s: f64,
}

impl Solution {
    /// The busiest station class, or `None` for an empty network (the
    /// solver always produces at least one station, so callers of
    /// solver-built solutions can unwrap safely).
    pub fn bottleneck(&self) -> Option<&StationLoad> {
        self.stations
            .iter()
            .max_by(|a, b| a.utilization.total_cmp(&b.utilization))
    }
}

/// The paper's queuing model of an `N`-node cluster server.
#[derive(Clone, Copy, Debug)]
pub struct QueueModel {
    params: ModelParams,
}

impl QueueModel {
    /// Builds a model, validating the parameters.
    pub fn new(params: ModelParams) -> Result<Self, String> {
        params.validate()?;
        Ok(QueueModel { params })
    }

    /// Derives `H`, `h`, and `Q` from the *locality-oblivious* hit rate
    /// axis used throughout Section 3.
    ///
    /// The paper defines the axis implicitly: pick the file population `f`
    /// such that `z(Clo/S, f) = Hlo`, then evaluate the requested server's
    /// hit rate over that same population. Because `z(n, f) =
    /// H(n, α)/H(f, α)`, the population never needs to be materialized —
    /// the total popularity mass is `H(f, α) = H(Clo/S, α) / Hlo`, so any
    /// other cache capacity `n` hits with probability
    /// `min(1, Hlo · H(n, α)/H(Clo/S, α))`. (Materializing `f` is not even
    /// possible in floating point for small `Hlo` at `α = 1`, where `f`
    /// grows like `exp(H(n)/Hlo)`.)
    ///
    /// `hlo` is clamped into `[0, 1]`; 0 means an infinite working set.
    pub fn derived_from_hlo(&self, kind: ServerKind, hlo: f64) -> Derived {
        let p = &self.params;
        let hlo = hlo.clamp(0.0, 1.0);
        let mass_lo = l2s_zipf::harmonic(p.cache_kb / p.avg_file_kb, p.alpha);
        // z(n) over the implied population, without materializing it.
        let z = |cache_kb: f64| -> f64 {
            let mass = l2s_zipf::harmonic(cache_kb / p.avg_file_kb, p.alpha);
            (hlo * mass / mass_lo).min(1.0)
        };
        match kind {
            ServerKind::LocalityOblivious => Derived {
                hit_rate: hlo,
                replicated_hit: 0.0,
                forward_fraction: 0.0,
            },
            ServerKind::LocalityConscious => {
                let hit_rate = z(p.conscious_cache_kb());
                let h = z(p.replication * p.cache_kb);
                let n = cast::len_f64(p.nodes);
                Derived {
                    hit_rate,
                    replicated_hit: h,
                    forward_fraction: (n - 1.0) * (1.0 - h) / n,
                }
            }
        }
    }

    /// Derives `H`, `h`, and `Q` directly from a known file population
    /// `f` (used for the model lines of Figures 7–10, where the trace's
    /// population is known).
    pub fn derived_from_population(&self, kind: ServerKind, population: f64) -> Derived {
        let p = &self.params;
        let law = ZipfLaw::new(population, p.alpha);
        let cached_files = p.effective_cache_kb(kind) / p.avg_file_kb;
        let hit_rate = law.z(cached_files);
        match kind {
            ServerKind::LocalityOblivious => Derived {
                hit_rate,
                replicated_hit: 0.0,
                forward_fraction: 0.0,
            },
            ServerKind::LocalityConscious => {
                let replicated_files = p.replication * p.cache_kb / p.avg_file_kb;
                let h = law.z(replicated_files);
                let n = cast::len_f64(p.nodes);
                Derived {
                    hit_rate,
                    replicated_hit: h,
                    forward_fraction: (n - 1.0) * (1.0 - h) / n,
                }
            }
        }
    }

    /// Cluster-wide per-request demands for a server with the given
    /// derived hit-rate quantities.
    pub fn demands(&self, derived: &Derived) -> Demands {
        let p = &self.params;
        let s = p.avg_file_kb;
        let q = derived.forward_fraction;
        Demands {
            router_s: router_s(REQUEST_KB) + router_s(s),
            ni_in_s: (1.0 + q) / NI_REQUEST_RATE,
            // Parse at the initial node, hand-off work for the forwarded
            // fraction (Table 1 folds the whole hand-off into µf), and the
            // reply once the file is in memory (after the disk read on a
            // miss, so it is paid by every request).
            cpu_s: 1.0 / PARSE_RATE + q / FORWARD_RATE + mem_reply_s(s),
            disk_s: (1.0 - derived.hit_rate) * disk_read_s(s),
            ni_out_s: ni_out_s(s) + q * ni_out_s(REQUEST_KB),
        }
    }

    /// Closed-form throughput upper bound (requests/s): the arrival rate
    /// at which the busiest station saturates,
    /// `min_k (count_k / demand_k)`.
    pub fn max_throughput(&self, kind: ServerKind, hlo: f64) -> f64 {
        let derived = self.derived_from_hlo(kind, hlo);
        self.max_throughput_derived(&derived)
    }

    /// [`QueueModel::max_throughput`] for pre-computed derived quantities.
    pub fn max_throughput_derived(&self, derived: &Derived) -> f64 {
        self.bottleneck_bound(derived, cast::len_f64(self.params.nodes))
    }

    /// Closed-form saturation bound for a *heterogeneous* cluster whose
    /// node `i` runs its CPU at `speeds[i]` × the baseline node.
    ///
    /// Van der Boor & Comte's analysis of load balancing on
    /// heterogeneous clusters (see PAPERS.md) gives the fluid-limit
    /// result this encodes: under any work-conserving dispatcher that
    /// keeps fast nodes busy (least-loaded sampling, idle-queue, or
    /// speed-proportional size splitting), the CPU station saturates at
    /// the *aggregate* capacity `Σᵢ sᵢ`, not `n × min sᵢ`. Only CPU
    /// demands scale with speed — disk and NI hardware stay baseline —
    /// so the other stations keep their homogeneous capacities and the
    /// bound is still `min_k (capacity_k / demand_k)`. With all speeds
    /// 1.0 this is exactly [`QueueModel::max_throughput_derived`].
    pub fn max_throughput_hetero(&self, derived: &Derived, speeds: &[f64]) -> f64 {
        l2s_util::invariant!(
            speeds.len() == self.params.nodes,
            "need one CPU speed per node ({got} for {n})",
            got = speeds.len(),
            n = self.params.nodes
        );
        self.bottleneck_bound(derived, speeds.iter().sum())
    }

    /// `min_k (capacity_k / demand_k)` over the five station classes:
    /// the CPU class has `cpu_capacity` baseline nodes' worth of capacity
    /// (`N` on identical nodes), every other class its copy count.
    fn bottleneck_bound(&self, derived: &Derived, cpu_capacity: f64) -> f64 {
        self.demands(derived)
            .stations(self.params.nodes)
            .iter()
            .map(|&(name, d, count)| {
                if d <= 0.0 {
                    f64::INFINITY
                } else if name == "cpu" {
                    cpu_capacity / d
                } else {
                    cast::len_f64(count) / d
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Solves the full M/M/1 network at total arrival rate `lambda`
    /// requests/s, returning `None` if any station saturates.
    ///
    /// Multi-visit stations (e.g. the CPU, which serves parse, forward,
    /// and reply operations with different service times) are collapsed
    /// into one M/M/1 queue per physical resource whose mean service time
    /// is the demand per visit — the standard aggregation for open
    /// networks with class-independent FIFO service.
    pub fn solve(&self, kind: ServerKind, hlo: f64, lambda: f64) -> Option<Solution> {
        let derived = self.derived_from_hlo(kind, hlo);
        self.solve_derived(&derived, lambda)
    }

    /// [`QueueModel::solve`] for pre-computed derived quantities.
    pub fn solve_derived(&self, derived: &Derived, lambda: f64) -> Option<Solution> {
        l2s_util::invariant!(lambda >= 0.0, "arrival rate must be non-negative");
        let p = &self.params;
        let demands = self.demands(derived);
        let q = derived.forward_fraction;
        let miss = 1.0 - derived.hit_rate;

        // (class, cluster demand per request, copies, visits per request)
        let classes: [(&'static str, f64, usize, f64); 5] = [
            ("router", demands.router_s, 1, 2.0),
            ("ni_in", demands.ni_in_s, p.nodes, 1.0 + q),
            ("cpu", demands.cpu_s, p.nodes, 2.0 + q),
            ("disk", demands.disk_s, p.nodes, miss),
            ("ni_out", demands.ni_out_s, p.nodes, 1.0 + q),
        ];

        let mut stations = Vec::with_capacity(classes.len());
        let mut response = 0.0;
        for (name, demand, copies, visits) in classes {
            if demand <= 0.0 || visits <= 0.0 {
                stations.push(StationLoad {
                    name,
                    utilization: 0.0,
                    residence_s: 0.0,
                });
                continue;
            }
            // Per-copy arrival rate of visits and mean service per visit.
            let visit_rate = lambda * visits / cast::len_f64(copies);
            let mean_service = demand / visits;
            let queue = Mm1::new(visit_rate, 1.0 / mean_service);
            let per_visit = queue.mean_response()?;
            // Each request makes `visits` visits spread over all copies.
            let residence = per_visit * visits;
            stations.push(StationLoad {
                name,
                utilization: queue.utilization(),
                residence_s: residence,
            });
            response += residence;
        }
        Some(Solution {
            arrival_rate: lambda,
            stations,
            response_s: response,
        })
    }

    /// Recovers the saturation throughput by bisecting [`QueueModel::solve`]
    /// over `lambda`; used as a cross-check of
    /// [`QueueModel::max_throughput`] (they agree to the bisection
    /// tolerance).
    pub fn saturation_throughput(&self, kind: ServerKind, hlo: f64) -> f64 {
        let derived = self.derived_from_hlo(kind, hlo);
        let mut lo = 0.0;
        let mut hi = 1.0;
        while self.solve_derived(&derived, hi).is_some() {
            hi *= 2.0;
            if hi > 1e12 {
                return f64::INFINITY;
            }
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if self.solve_derived(&derived, mid).is_some() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> QueueModel {
        QueueModel::new(ModelParams::default()).unwrap()
    }

    #[test]
    fn service_time_formulas() {
        // µm at S = 12 KB: 0.0001 + 0.001 = 1.1 ms.
        assert!((mem_reply_s(12.0) - 0.0011).abs() < 1e-12);
        // µd at S = 10 KB: 0.028 + 0.001 = 29 ms.
        assert!((disk_read_s(10.0) - 0.029).abs() < 1e-12);
        // µo at S = 128 KB: 3 µs + 1 ms.
        assert!((ni_out_s(128.0) - 0.001_003).abs() < 1e-12);
        // Router at 500 KB: 1 ms.
        assert!((router_s(500.0) - 0.001).abs() < 1e-12);
    }

    /// Conscious over oblivious throughput bound at one oblivious hit
    /// rate: the quantity Figures 5 and 6 plot.
    fn locality_gain(m: &QueueModel, hlo: f64) -> f64 {
        m.max_throughput(ServerKind::LocalityConscious, hlo)
            / m.max_throughput(ServerKind::LocalityOblivious, hlo)
    }

    #[test]
    fn oblivious_hit_rate_round_trips_the_axis() {
        let m = model();
        for hlo in [0.1, 0.35, 0.6, 0.85, 0.99] {
            let d = m.derived_from_hlo(ServerKind::LocalityOblivious, hlo);
            assert!(
                (d.hit_rate - hlo).abs() < 1e-6,
                "hlo={hlo} -> H={}",
                d.hit_rate
            );
            assert_eq!(d.forward_fraction, 0.0);
        }
    }

    #[test]
    fn conscious_hit_rate_dominates_oblivious() {
        let m = model();
        for hlo in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let lo = m.derived_from_hlo(ServerKind::LocalityOblivious, hlo);
            let lc = m.derived_from_hlo(ServerKind::LocalityConscious, hlo);
            assert!(
                lc.hit_rate >= lo.hit_rate - 1e-9,
                "hlo={hlo}: lc={} < lo={}",
                lc.hit_rate,
                lo.hit_rate
            );
        }
    }

    #[test]
    fn forward_fraction_without_replication() {
        let m = model();
        let d = m.derived_from_hlo(ServerKind::LocalityConscious, 0.5);
        // R = 0 means h = 0, so Q = (N-1)/N.
        assert!((d.forward_fraction - 15.0 / 16.0).abs() < 1e-9);
        assert_eq!(d.replicated_hit, 0.0);
    }

    #[test]
    fn replication_reduces_forwarding() {
        let p = ModelParams {
            replication: 0.15,
            ..ModelParams::default()
        };
        let m = QueueModel::new(p).unwrap();
        let d = m.derived_from_hlo(ServerKind::LocalityConscious, 0.6);
        assert!(d.replicated_hit > 0.0);
        assert!(d.forward_fraction < 15.0 / 16.0);
        // Q = (N-1)(1-h)/N exactly.
        let expect = 15.0 * (1.0 - d.replicated_hit) / 16.0;
        assert!((d.forward_fraction - expect).abs() < 1e-12);
    }

    #[test]
    fn replication_cuts_forwarding_monotonically() {
        let q: Vec<f64> = [0.0, 0.15, 0.5, 1.0]
            .into_iter()
            .map(|replication| {
                let p = ModelParams {
                    replication,
                    ..ModelParams::default()
                };
                let m = QueueModel::new(p).unwrap();
                m.derived_from_hlo(ServerKind::LocalityConscious, 0.6)
                    .forward_fraction
            })
            .collect();
        for pair in q.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12, "Q should fall with R: {q:?}");
        }
        // R = 0: Q = 15/16; R = 1: the hottest files are everywhere, so
        // forwarding only happens for uncached files.
        assert!((q[0] - 15.0 / 16.0).abs() < 1e-9);
        assert!(q[3] < q[0]);
    }

    #[test]
    fn peak_locality_gain_is_several_fold() {
        // The headline modeling result: around Hlo ≈ 0.8 with small files
        // the conscious server wins by a large factor (the paper reports
        // up to ~7x on 16 nodes).
        let p = ModelParams {
            avg_file_kb: 4.0,
            ..ModelParams::default()
        };
        let m = QueueModel::new(p).unwrap();
        let gain = locality_gain(&m, 0.8);
        assert!(gain > 5.0, "gain = {gain}");
        assert!(gain < 12.0, "gain = {gain} suspiciously large");
    }

    #[test]
    fn gain_shrinks_at_high_hit_rates() {
        let p = ModelParams {
            avg_file_kb: 4.0,
            ..ModelParams::default()
        };
        let m = QueueModel::new(p).unwrap();
        let at_80 = locality_gain(&m, 0.8);
        let at_99 = locality_gain(&m, 0.99);
        assert!(at_99 < at_80 / 2.0, "at_80={at_80} at_99={at_99}");
    }

    #[test]
    fn forwarding_overhead_makes_gain_dip_below_one() {
        // Once the oblivious server caches everything, forwarding is pure
        // overhead: the ratio must drop (slightly) below 1.
        let p = ModelParams {
            avg_file_kb: 4.0,
            ..ModelParams::default()
        };
        let m = QueueModel::new(p).unwrap();
        let gain = locality_gain(&m, 1.0);
        assert!(gain < 1.0, "gain = {gain}");
        assert!(gain > 0.7, "gain = {gain} unreasonably low");
    }

    #[test]
    fn oblivious_server_is_disk_bound_at_moderate_hit_rates() {
        let m = model();
        let d = m.derived_from_hlo(ServerKind::LocalityOblivious, 0.6);
        let lambda = m.max_throughput_derived(&d) * 0.99;
        let sol = m.solve_derived(&d, lambda).unwrap();
        assert_eq!(sol.bottleneck().expect("stations").name, "disk");
    }

    #[test]
    fn bottleneck_shifts_to_cpu_when_everything_hits() {
        let m = model();
        let d = m.derived_from_hlo(ServerKind::LocalityOblivious, 1.0);
        let lambda = m.max_throughput_derived(&d) * 0.99;
        let sol = m.solve_derived(&d, lambda).unwrap();
        assert_eq!(sol.bottleneck().expect("stations").name, "cpu");
    }

    #[test]
    fn bisection_matches_bottleneck_formula() {
        let m = model();
        for kind in [ServerKind::LocalityOblivious, ServerKind::LocalityConscious] {
            for hlo in [0.3, 0.6, 0.9] {
                let closed = m.max_throughput(kind, hlo);
                let bisected = m.saturation_throughput(kind, hlo);
                assert!(
                    (closed / bisected - 1.0).abs() < 1e-6,
                    "{kind:?} hlo={hlo}: closed={closed} bisected={bisected}"
                );
            }
        }
    }

    #[test]
    fn solve_rejects_saturating_arrival_rates() {
        let m = model();
        let cap = m.max_throughput(ServerKind::LocalityOblivious, 0.5);
        assert!(m
            .solve(ServerKind::LocalityOblivious, 0.5, cap * 1.01)
            .is_none());
        assert!(m
            .solve(ServerKind::LocalityOblivious, 0.5, cap * 0.9)
            .is_some());
    }

    #[test]
    fn response_time_grows_with_load() {
        let m = model();
        let cap = m.max_throughput(ServerKind::LocalityConscious, 0.7);
        let light = m
            .solve(ServerKind::LocalityConscious, 0.7, cap * 0.1)
            .unwrap();
        let heavy = m
            .solve(ServerKind::LocalityConscious, 0.7, cap * 0.95)
            .unwrap();
        assert!(heavy.response_s > light.response_s);
    }

    #[test]
    fn throughput_scales_with_nodes() {
        // With node resources as the bottleneck, doubling nodes should
        // (nearly) double the bound until the shared router binds.
        let mut p = ModelParams {
            avg_file_kb: 16.0,
            ..ModelParams::default()
        };
        // Oblivious hit rates are independent of N, so the bound scales
        // linearly until the shared router binds.
        for n in [1usize, 2, 4, 8] {
            p.nodes = n;
            let small = QueueModel::new(p).unwrap();
            p.nodes = n * 2;
            let big = QueueModel::new(p).unwrap();
            let x_small = small.max_throughput(ServerKind::LocalityOblivious, 0.8);
            let x_big = big.max_throughput(ServerKind::LocalityOblivious, 0.8);
            let ratio = x_big / x_small;
            assert!(
                (ratio - 2.0).abs() < 1e-9,
                "n={n}: ratio = {ratio} (small={x_small}, big={x_big})"
            );
        }
    }

    #[test]
    fn larger_files_reduce_throughput() {
        let m = model();
        let mut prev = f64::INFINITY;
        for s in [4.0, 16.0, 64.0, 128.0] {
            let p = ModelParams {
                avg_file_kb: s,
                ..ModelParams::default()
            };
            let m2 = QueueModel::new(p).unwrap();
            let x = m2.max_throughput(ServerKind::LocalityConscious, 0.8);
            assert!(x < prev, "S={s}: {x} !< {prev}");
            prev = x;
        }
        // Original default model unused warning guard.
        let _ = m;
    }

    #[test]
    fn hetero_bound_collapses_to_homogeneous_at_unit_speeds() {
        let m = model();
        for hlo in [0.2, 0.6, 0.95] {
            let d = m.derived_from_hlo(ServerKind::LocalityOblivious, hlo);
            let homo = m.max_throughput_derived(&d);
            let hetero = m.max_throughput_hetero(&d, &vec![1.0; ModelParams::default().nodes]);
            assert_eq!(homo, hetero, "hlo={hlo}");
        }
    }

    #[test]
    fn hetero_bound_scales_cpu_capacity_by_aggregate_speed() {
        // Small files + perfect hit rate → the CPU is the bottleneck, so
        // the bound must scale exactly with Σ speeds.
        let p = ModelParams {
            avg_file_kb: 4.0,
            ..ModelParams::default()
        };
        let m = QueueModel::new(p).unwrap();
        let d = m.derived_from_hlo(ServerKind::LocalityOblivious, 1.0);
        let n = p.nodes;
        let base = m.max_throughput_hetero(&d, &vec![1.0; n]);
        // A 1:3 mix of 4× and 0.5× nodes: aggregate 1.375× capacity.
        let mut speeds = vec![0.5; n];
        for s in speeds.iter_mut().take(n / 4) {
            *s = 4.0;
        }
        let mixed = m.max_throughput_hetero(&d, &speeds);
        let agg: f64 = speeds.iter().sum::<f64>() / cast::len_f64(n);
        assert!(
            (mixed / base - agg).abs() < 1e-9,
            "mixed/base = {} expected {agg}",
            mixed / base
        );
    }

    #[test]
    fn hetero_bound_ignores_cpu_speed_when_disk_bound() {
        // At a moderate hit rate the oblivious server is disk-bound;
        // faster CPUs must not move the bound at all.
        let m = model();
        let d = m.derived_from_hlo(ServerKind::LocalityOblivious, 0.6);
        let n = ModelParams::default().nodes;
        let base = m.max_throughput_hetero(&d, &vec![1.0; n]);
        let fast = m.max_throughput_hetero(&d, &vec![8.0; n]);
        assert_eq!(base, fast, "disk-bound cluster is CPU-speed-insensitive");
    }

    #[test]
    fn zero_hit_rate_axis_is_handled() {
        let m = model();
        let d = m.derived_from_hlo(ServerKind::LocalityOblivious, 0.0);
        assert_eq!(d.hit_rate, 0.0);
        let x = m.max_throughput(ServerKind::LocalityOblivious, 0.0);
        assert!(x.is_finite() && x > 0.0);
    }
}
