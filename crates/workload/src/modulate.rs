//! Popularity modulation: flash crowds, working-set drift, and the
//! seeded state machine that applies a full [`WorkloadMod`] spec.

use crate::RateSchedule;
use l2s_util::{cast, invariant, DetRng};

/// Upper bound on the total probability mass flash crowds may redirect
/// at any instant. Overlapping crowds whose peak weights sum past this
/// are scaled down proportionally, so the base law always keeps some
/// share of the stream and per-file probabilities stay well defined.
pub const MAX_REDIRECT: f64 = 0.95;

/// A scheduled hot-object popularity spike.
///
/// From `start_s` the crowd's redirect weight ramps linearly to
/// `peak_weight` over `ramp_s`, holds for `hold_s`, and decays linearly
/// to zero over `decay_s`. While the weight is `q`, a fraction `q` of
/// all requests is redirected uniformly onto the crowd's hot set — the
/// `hot_files` consecutive ids starting at `first_id` (wrapping around
/// the population) — and the remaining `1 − q` follows the base law.
#[derive(Clone, Debug, PartialEq)]
pub struct FlashCrowd {
    /// When the spike begins, on the modulation clock (seconds).
    pub start_s: f64,
    /// Linear ramp-up length in seconds (0 = instantaneous onset).
    pub ramp_s: f64,
    /// Plateau length in seconds.
    pub hold_s: f64,
    /// Linear decay length in seconds (0 = instantaneous end).
    pub decay_s: f64,
    /// Redirect probability at the plateau, in `[0, 1)`.
    pub peak_weight: f64,
    /// Number of files in the hot set.
    pub hot_files: u32,
    /// First id of the hot set (the set wraps modulo the population).
    pub first_id: u32,
}

impl FlashCrowd {
    /// The crowd's redirect weight at clock time `t` (the trapezoid
    /// envelope described on the type).
    pub fn weight_at(&self, t: f64) -> f64 {
        let u = t - self.start_s;
        if u < 0.0 || self.peak_weight == 0.0 {
            return 0.0;
        }
        if u < self.ramp_s {
            return self.peak_weight * u / self.ramp_s;
        }
        let u = u - self.ramp_s;
        if u < self.hold_s {
            return self.peak_weight;
        }
        let u = u - self.hold_s;
        if u < self.decay_s {
            return self.peak_weight * (1.0 - u / self.decay_s);
        }
        0.0
    }

    /// Whether `id` belongs to the crowd's hot set in a population of
    /// `population` files.
    pub fn contains(&self, id: u32, population: u32) -> bool {
        let offset = (u64::from(id) + u64::from(population)
            - u64::from(self.first_id % population))
            % u64::from(population);
        offset < u64::from(self.hot_files)
    }

    fn validate(&self) -> Result<(), String> {
        let finite = self.start_s.is_finite()
            && self.ramp_s.is_finite()
            && self.hold_s.is_finite()
            && self.decay_s.is_finite();
        if !finite
            || self.start_s < 0.0
            || self.ramp_s < 0.0
            || self.hold_s < 0.0
            || self.decay_s < 0.0
        {
            return Err("flash crowd times must be finite and non-negative".into());
        }
        if self.ramp_s + self.hold_s + self.decay_s <= 0.0 {
            return Err("flash crowd must last longer than an instant".into());
        }
        if !(self.peak_weight.is_finite() && (0.0..1.0).contains(&self.peak_weight)) {
            return Err("flash crowd peak_weight must be in [0, 1)".into());
        }
        if self.hot_files == 0 {
            return Err("flash crowd needs at least one hot file".into());
        }
        Ok(())
    }
}

/// Working-set drift as a rank-rotation model: every `period_s` seconds
/// of the modulation clock, the popularity assignment rotates by `step`
/// ids — the file that held popularity rank *r* hands it to the file
/// `step` ids over, cyclically. The popularity *law* (and so every
/// aggregate of the stationary stream) is unchanged; only *which* files
/// are popular churns, at a rate of `step / period_s` ids per second.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftSpec {
    /// Seconds between rotations on the modulation clock.
    pub period_s: f64,
    /// Ids rotated per period (`0` disables churn — the identity).
    pub step: u32,
}

impl DriftSpec {
    fn validate(&self) -> Result<(), String> {
        if !(self.period_s.is_finite() && self.period_s > 0.0) {
            return Err("drift period_s must be positive and finite".into());
        }
        Ok(())
    }
}

/// The full modulation spec: each layer optional, the empty spec the
/// identity. `SimConfig` carries one of these; the default
/// [`WorkloadMod::none`] preserves stationary runs byte for byte.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct WorkloadMod {
    /// Arrival-intensity schedule. `None` leaves timing to the
    /// consumer (the simulator's own arrival mode) and gives the
    /// modulation clock a deterministic 1 request/s fluid time base.
    pub rate: Option<RateSchedule>,
    /// Scheduled flash crowds (may overlap; total redirected mass is
    /// capped at [`MAX_REDIRECT`]).
    pub flash: Vec<FlashCrowd>,
    /// Working-set drift.
    pub drift: Option<DriftSpec>,
}

impl WorkloadMod {
    /// The identity spec: no modulation at all.
    pub fn none() -> Self {
        WorkloadMod::default()
    }

    /// Whether this spec is the identity (no layers configured).
    pub fn is_none(&self) -> bool {
        self.rate.is_none() && self.flash.is_empty() && self.drift.is_none()
    }

    /// Validates every configured layer.
    pub fn validate(&self) -> Result<(), String> {
        for crowd in &self.flash {
            crowd.validate()?;
        }
        if let Some(drift) = &self.drift {
            drift.validate()?;
        }
        // RateSchedule construction already validates; re-validate the
        // segments to catch specs mutated through field access.
        if let Some(rate) = &self.rate {
            RateSchedule::new(rate.segments().to_vec())?;
        }
        Ok(())
    }

    /// The drift rotation offset at clock time `t` for a population of
    /// `population` files.
    pub fn rotation_at(&self, t: f64, population: u32) -> u32 {
        let Some(drift) = &self.drift else {
            return 0;
        };
        if drift.step == 0 || population == 0 {
            return 0;
        }
        let epochs = cast::len_u64(cast::floor_index(t / drift.period_s));
        let rotation = epochs
            .wrapping_mul(u64::from(drift.step))
            .rem_euclid(u64::from(population));
        cast::index_u32(cast::index_usize(rotation))
    }

    /// Writes each crowd's redirect weight at `t` into `out` (cleared
    /// first) and returns the total, with the proportional
    /// [`MAX_REDIRECT`] cap applied.
    pub fn flash_weights_at(&self, t: f64, out: &mut Vec<f64>) -> f64 {
        out.clear();
        let mut total = 0.0;
        for crowd in &self.flash {
            let w = crowd.weight_at(t);
            total += w;
            out.push(w);
        }
        if total > MAX_REDIRECT {
            let scale = MAX_REDIRECT / total;
            for w in out.iter_mut() {
                *w *= scale;
            }
            total = MAX_REDIRECT;
        }
        total
    }

    /// The probability that a request issued at clock time `t` is for
    /// file `id`, given the stationary per-id probabilities `base` of
    /// the underlying source. This is the analytic counterpart of
    /// [`Modulator::transform`]: the cache model integrates exactly
    /// this function.
    pub fn prob_at(&self, base: &[f64], t: f64, id: usize) -> f64 {
        let population = cast::index_u32(base.len());
        invariant!(population > 0, "prob_at needs a non-empty population");
        let id32 = cast::index_u32(id);
        invariant!(id32 < population, "prob_at id {id} out of population");
        // Drift relabels ids: the base id that maps *onto* `id` is the
        // inverse rotation.
        let rotation = self.rotation_at(t, population);
        let src = (u64::from(id32) + u64::from(population) - u64::from(rotation))
            .rem_euclid(u64::from(population));
        let base_p = base[cast::index_usize(src)];
        let mut weights = Vec::with_capacity(self.flash.len());
        let total = self.flash_weights_at(t, &mut weights);
        let mut p = (1.0 - total) * base_p;
        for (crowd, &w) in self.flash.iter().zip(&weights) {
            if w > 0.0 && crowd.contains(id32, population) {
                p += w / f64::from(crowd.hot_files.min(population));
            }
        }
        p
    }
}

/// The seeded state machine applying a [`WorkloadMod`] to a request
/// stream: it advances the modulation clock one request at a time and
/// maps each base id to its modulated id.
///
/// Determinism contract: all randomness comes from one forked
/// [`DetRng`] stream, and [`rewind`](Modulator::rewind) restores the
/// pristine state, so two laps replay byte-identically (the simulator's
/// warm-up pass depends on this). An identity spec consumes no
/// randomness in [`transform`](Modulator::transform), so the modulated
/// id sequence is bit-equal to the base sequence.
#[derive(Clone, Debug)]
pub struct Modulator {
    spec: WorkloadMod,
    population: u32,
    rng: DetRng,
    /// Pristine copy for `rewind`.
    rng0: DetRng,
    /// Running cumulative-rate target (unit exponential increments).
    cum: f64,
    /// Requests drawn this lap (drives the fluid clock when no
    /// schedule is configured).
    count: u64,
    /// Last emitted time (guards monotonicity against rounding in the
    /// schedule inversion).
    last_t: f64,
    weights: Vec<f64>,
}

impl Modulator {
    /// Builds the state machine for a population of `population` files.
    pub fn new(spec: WorkloadMod, population: u32, seed: u64) -> Self {
        invariant!(population > 0, "modulator needs a non-empty population");
        let rng = DetRng::new(seed ^ 0x0a0d_1af3_77c2_5e19_u64.rotate_left(17));
        Modulator {
            weights: Vec::with_capacity(spec.flash.len()),
            spec,
            population,
            rng0: rng.clone(),
            rng,
            cum: 0.0,
            count: 0,
            last_t: 0.0,
        }
    }

    /// Advances the modulation clock by one request and returns its
    /// arrival time in seconds.
    ///
    /// With a rate schedule: the running target grows by a unit
    /// exponential draw and is mapped through Λ⁻¹ — a non-homogeneous
    /// Poisson process with intensity λ(t). Without one: a
    /// deterministic fluid clock at 1 request/s (request *i* arrives at
    /// `i` seconds), which gives flash/drift layers a well-defined time
    /// base even under the simulator's closed loop, where wall timing
    /// is discarded anyway.
    pub fn next_time(&mut self) -> f64 {
        let t = match &self.spec.rate {
            Some(schedule) => {
                self.cum += self.rng.exponential(1.0);
                schedule.invert(self.cum).max(self.last_t)
            }
            None => cast::exact_f64(self.count),
        };
        self.count += 1;
        self.last_t = t;
        t
    }

    /// Maps a base-stream id to its modulated id at clock time `t`:
    /// drift rotates the id space, then any active flash crowd redirects
    /// with its current weight onto its hot set.
    pub fn transform(&mut self, t: f64, base_id: u32) -> u32 {
        invariant!(
            base_id < self.population,
            "base id {base_id} outside population {p}",
            p = self.population
        );
        let rotation = self.spec.rotation_at(t, self.population);
        let mut id = base_id;
        if rotation != 0 {
            id = cast::index_u32(cast::index_usize(
                (u64::from(id) + u64::from(rotation)).rem_euclid(u64::from(self.population)),
            ));
        }
        // Identity specs (and quiet instants) must consume no
        // randomness, so the output sequence stays bit-equal to the
        // base stream.
        if self.spec.flash.is_empty() {
            return id;
        }
        let total = self.spec.flash_weights_at(t, &mut self.weights);
        if total <= 0.0 {
            return id;
        }
        let mut u = self.rng.f64();
        if u >= total {
            return id;
        }
        for (crowd, &w) in self.spec.flash.iter().zip(&self.weights) {
            if u < w {
                let span = crowd.hot_files.min(self.population);
                let member = cast::index_u32(self.rng.index(cast::wide_usize(span)));
                return cast::index_u32(cast::index_usize(
                    (u64::from(crowd.first_id % self.population) + u64::from(member))
                        .rem_euclid(u64::from(self.population)),
                ));
            }
            u -= w;
        }
        id
    }

    /// Restores the pristine state: the next lap replays the identical
    /// times and transforms.
    pub fn rewind(&mut self) {
        self.rng = self.rng0.clone();
        self.cum = 0.0;
        self.count = 0;
        self.last_t = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crowd(start: f64, peak: f64) -> FlashCrowd {
        FlashCrowd {
            start_s: start,
            ramp_s: 10.0,
            hold_s: 20.0,
            decay_s: 10.0,
            peak_weight: peak,
            hot_files: 4,
            first_id: 100,
        }
    }

    #[test]
    fn flash_envelope_is_a_trapezoid() {
        let c = crowd(50.0, 0.4);
        assert_eq!(c.weight_at(0.0), 0.0);
        assert_eq!(c.weight_at(49.9), 0.0);
        assert!((c.weight_at(55.0) - 0.2).abs() < 1e-12, "mid-ramp");
        assert_eq!(c.weight_at(60.0), 0.4);
        assert_eq!(c.weight_at(75.0), 0.4);
        assert!((c.weight_at(85.0) - 0.2).abs() < 1e-12, "mid-decay");
        assert_eq!(c.weight_at(90.0), 0.0);
        assert_eq!(c.weight_at(1e9), 0.0);
    }

    #[test]
    fn hot_set_membership_wraps() {
        let c = FlashCrowd {
            first_id: 198,
            hot_files: 4,
            ..crowd(0.0, 0.3)
        };
        for id in [198, 199, 0, 1] {
            assert!(c.contains(id, 200), "{id} should be hot");
        }
        for id in [2, 100, 197] {
            assert!(!c.contains(id, 200), "{id} should be cold");
        }
    }

    #[test]
    fn overlapping_crowds_are_capped() {
        let spec = WorkloadMod {
            flash: vec![crowd(0.0, 0.7), crowd(0.0, 0.7)],
            ..WorkloadMod::none()
        };
        let mut w = Vec::new();
        let total = spec.flash_weights_at(15.0, &mut w);
        assert!((total - MAX_REDIRECT).abs() < 1e-12);
        assert!((w[0] - MAX_REDIRECT / 2.0).abs() < 1e-12);
    }

    #[test]
    fn drift_rotates_in_epochs() {
        let spec = WorkloadMod {
            drift: Some(DriftSpec {
                period_s: 10.0,
                step: 7,
            }),
            ..WorkloadMod::none()
        };
        assert_eq!(spec.rotation_at(0.0, 100), 0);
        assert_eq!(spec.rotation_at(9.999, 100), 0);
        assert_eq!(spec.rotation_at(10.0, 100), 7);
        assert_eq!(spec.rotation_at(35.0, 100), 21);
        // Rotation wraps the population.
        assert_eq!(spec.rotation_at(150.0, 100), 5);
    }

    #[test]
    fn identity_spec_transforms_are_the_identity_and_burn_no_rng() {
        let identity = WorkloadMod {
            rate: None,
            flash: vec![FlashCrowd {
                peak_weight: 0.0,
                ..crowd(0.0, 0.0)
            }],
            drift: Some(DriftSpec {
                period_s: 5.0,
                step: 0,
            }),
        };
        identity.validate().unwrap();
        let mut m = Modulator::new(identity, 500, 42);
        for i in 0..2_000_u32 {
            let t = m.next_time();
            let id = i % 500;
            assert_eq!(m.transform(t, id), id);
        }
    }

    #[test]
    fn fluid_clock_counts_requests() {
        let mut m = Modulator::new(WorkloadMod::none(), 10, 1);
        assert_eq!(m.next_time(), 0.0);
        assert_eq!(m.next_time(), 1.0);
        assert_eq!(m.next_time(), 2.0);
        m.rewind();
        assert_eq!(m.next_time(), 0.0);
    }

    #[test]
    fn scheduled_clock_is_monotone_and_replays_on_rewind() {
        let spec = WorkloadMod {
            rate: Some(RateSchedule::diurnal(300.0, 0.8, 120.0).unwrap()),
            ..WorkloadMod::none()
        };
        let mut m = Modulator::new(spec, 100, 9);
        let first: Vec<f64> = (0..5_000).map(|_| m.next_time()).collect();
        for pair in first.windows(2) {
            assert!(pair[1] >= pair[0], "arrival times must be monotone");
        }
        m.rewind();
        let second: Vec<f64> = (0..5_000).map(|_| m.next_time()).collect();
        assert_eq!(first, second, "rewind must replay the identical clock");
    }

    #[test]
    fn flash_crowd_concentrates_requests_on_the_hot_set() {
        let spec = WorkloadMod {
            flash: vec![FlashCrowd {
                start_s: 0.0,
                ramp_s: 0.0,
                hold_s: 1e6,
                decay_s: 0.0,
                peak_weight: 0.5,
                hot_files: 4,
                first_id: 10,
            }],
            ..WorkloadMod::none()
        };
        let mut m = Modulator::new(spec.clone(), 1_000, 7);
        let mut hot = 0u32;
        let n = 20_000u32;
        for i in 0..n {
            let t = m.next_time();
            // Base stream that never hits the hot set on its own.
            let id = m.transform(t, 500 + (i % 100));
            if spec.flash[0].contains(id, 1_000) {
                hot += 1;
            }
        }
        let frac = f64::from(hot) / f64::from(n);
        assert!((frac - 0.5).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn prob_at_matches_empirical_transform_frequencies() {
        // Uniform base law over 8 files; drift + flash active.
        let spec = WorkloadMod {
            rate: None,
            flash: vec![FlashCrowd {
                start_s: 0.0,
                ramp_s: 0.0,
                hold_s: 1e9,
                decay_s: 0.0,
                peak_weight: 0.3,
                hot_files: 2,
                first_id: 6,
            }],
            drift: Some(DriftSpec {
                period_s: 1e9, // one epoch: rotation fixed at 0
                step: 3,
            }),
        };
        let base = vec![0.125; 8];
        let mut m = Modulator::new(spec.clone(), 8, 3);
        let mut counts = [0u32; 8];
        let n = 200_000u32;
        for i in 0..n {
            let t = m.next_time();
            counts[cast::wide_usize(m.transform(t, i % 8))] += 1;
        }
        for (id, &count) in counts.iter().enumerate() {
            let want = spec.prob_at(&base, 0.0, id);
            let got = f64::from(count) / f64::from(n);
            assert!(
                (got - want).abs() < 0.01,
                "id {id}: empirical {got} vs analytic {want}"
            );
        }
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        let mut spec = WorkloadMod::none();
        assert!(spec.is_none());
        spec.validate().unwrap();
        spec.drift = Some(DriftSpec {
            period_s: 0.0,
            step: 1,
        });
        assert!(spec.validate().is_err());
        spec.drift = None;
        spec.flash = vec![FlashCrowd {
            peak_weight: 1.0,
            ..crowd(0.0, 0.0)
        }];
        assert!(spec.validate().is_err());
        spec.flash = vec![FlashCrowd {
            hot_files: 0,
            ..crowd(0.0, 0.2)
        }];
        assert!(spec.validate().is_err());
    }
}
