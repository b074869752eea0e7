//! Deterministic arrival-intensity schedules and their time inversion.

use l2s_util::invariant;

const TAU: f64 = std::f64::consts::TAU;

/// One phase of a [`RateSchedule`]: a flat base rate, optionally
/// carrying a sinusoidal swing. The instantaneous intensity at local
/// time `u ∈ [0, duration_s)` is
///
/// ```text
/// λ(u) = base_rps · (1 + amplitude · sin(2π u / period_s))
/// ```
///
/// so `amplitude = 0` is a flat phase and `amplitude ∈ (0, 1)` keeps
/// the intensity strictly positive (the cumulative rate then has a
/// well-defined inverse everywhere).
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Phase length in seconds.
    pub duration_s: f64,
    /// Base intensity in requests per second.
    pub base_rps: f64,
    /// Relative sinusoidal swing, in `[0, 1)`.
    pub amplitude: f64,
    /// Sinusoid period in seconds (ignored when `amplitude` is 0).
    pub period_s: f64,
}

impl Segment {
    /// Intensity at local time `u` (no range check; callers clamp).
    fn rate_at(&self, u: f64) -> f64 {
        if self.amplitude == 0.0 {
            return self.base_rps;
        }
        self.base_rps * (1.0 + self.amplitude * (TAU * u / self.period_s).sin())
    }

    /// Cumulative mass `∫₀ᵘ λ` in requests, closed form.
    fn mass_to(&self, u: f64) -> f64 {
        if self.amplitude == 0.0 {
            return self.base_rps * u;
        }
        let omega = TAU / self.period_s;
        self.base_rps * (u + self.amplitude / omega * (1.0 - (omega * u).cos()))
    }

    /// Local time `u` with `mass_to(u) = m`, for `m` in
    /// `[0, mass_to(duration_s)]`. Flat phases invert in closed form;
    /// sinusoidal phases bisect (the mass is strictly increasing
    /// because `amplitude < 1` keeps λ > 0).
    fn invert_mass(&self, m: f64) -> f64 {
        if self.amplitude == 0.0 {
            return (m / self.base_rps).clamp(0.0, self.duration_s);
        }
        let (mut lo, mut hi) = (0.0_f64, self.duration_s);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.mass_to(mid) < m {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err("segment duration_s must be positive and finite".into());
        }
        if !(self.base_rps.is_finite() && self.base_rps > 0.0) {
            return Err("segment base_rps must be positive and finite".into());
        }
        if !(self.amplitude.is_finite() && (0.0..1.0).contains(&self.amplitude)) {
            return Err("segment amplitude must be in [0, 1)".into());
        }
        if self.amplitude > 0.0 && !(self.period_s.is_finite() && self.period_s > 0.0) {
            return Err("segment period_s must be positive when amplitude > 0".into());
        }
        Ok(())
    }
}

/// A cyclic, deterministic intensity profile λ(t): a sequence of
/// [`Segment`]s that repeats forever (one cycle ≈ one "day").
///
/// The two derived quantities drive everything downstream:
///
/// * [`cumulative`](RateSchedule::cumulative) — Λ(t) = ∫₀ᵗ λ, the
///   expected request count by time `t`, with exact (closed-form)
///   phase boundaries: the value at a segment boundary is the exact
///   prefix sum of segment masses, so repeated cycles accumulate no
///   quadrature drift.
/// * [`invert`](RateSchedule::invert) — Λ⁻¹, mapping a cumulative
///   request count back to a time. Feeding it the running sum of unit
///   exponential draws yields arrival times of a non-homogeneous
///   Poisson process with intensity λ (the time-change construction).
#[derive(Clone, Debug, PartialEq)]
pub struct RateSchedule {
    segments: Vec<Segment>,
    /// `ends_s[i]` = end of segment `i` within the cycle, seconds.
    ends_s: Vec<f64>,
    /// `mass[i]` = Λ at `ends_s[i]` within the cycle, requests.
    mass: Vec<f64>,
    cycle_s: f64,
    cycle_mass: f64,
}

impl RateSchedule {
    /// Builds a schedule from its phases; rejects empty or degenerate
    /// ones.
    pub fn new(segments: Vec<Segment>) -> Result<Self, String> {
        if segments.is_empty() {
            return Err("rate schedule needs at least one segment".into());
        }
        let mut ends_s = Vec::with_capacity(segments.len());
        let mut mass = Vec::with_capacity(segments.len());
        let (mut t, mut m) = (0.0_f64, 0.0_f64);
        for seg in &segments {
            seg.validate()?;
            t += seg.duration_s;
            m += seg.mass_to(seg.duration_s);
            ends_s.push(t);
            mass.push(m);
        }
        if !(t.is_finite() && m.is_finite()) {
            return Err("rate schedule cycle overflows f64".into());
        }
        Ok(RateSchedule {
            segments,
            ends_s,
            mass,
            cycle_s: t,
            cycle_mass: m,
        })
    }

    /// A pure sinusoidal day: λ(t) = `base_rps` (1 + `amplitude`
    /// sin(2πt/`period_s`)).
    pub fn diurnal(base_rps: f64, amplitude: f64, period_s: f64) -> Result<Self, String> {
        Self::new(vec![Segment {
            duration_s: period_s,
            base_rps,
            amplitude,
            period_s,
        }])
    }

    /// The phases of one cycle.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Cycle length in seconds.
    pub fn cycle_s(&self) -> f64 {
        self.cycle_s
    }

    /// Expected requests per cycle (Λ over one cycle).
    pub fn cycle_mass(&self) -> f64 {
        self.cycle_mass
    }

    /// Splits `t ≥ 0` into whole cycles and a position inside the
    /// cycle, returning `(cycles, segment index, local time in the
    /// segment, segment start, mass before the segment)`.
    fn locate(&self, t: f64) -> (f64, usize, f64, f64, f64) {
        invariant!(
            t.is_finite() && t >= 0.0,
            "schedule time must be finite and non-negative, got {t}"
        );
        let cycles = (t / self.cycle_s).floor();
        let local = (t - cycles * self.cycle_s).clamp(0.0, self.cycle_s);
        let i = self
            .ends_s
            .partition_point(|&e| e <= local)
            .min(self.segments.len() - 1);
        let start = if i == 0 { 0.0 } else { self.ends_s[i - 1] };
        let before = if i == 0 { 0.0 } else { self.mass[i - 1] };
        let u = (local - start).clamp(0.0, self.segments[i].duration_s);
        (cycles, i, u, start, before)
    }

    /// Instantaneous intensity λ(t) in requests per second.
    pub fn rate_at(&self, t: f64) -> f64 {
        let (_, i, u, _, _) = self.locate(t);
        self.segments[i].rate_at(u)
    }

    /// Cumulative rate Λ(t) = ∫₀ᵗ λ in requests. Strictly increasing
    /// (every segment keeps λ > 0), with exact values at phase
    /// boundaries.
    pub fn cumulative(&self, t: f64) -> f64 {
        let (cycles, i, u, _, before) = self.locate(t);
        cycles * self.cycle_mass + before + self.segments[i].mass_to(u)
    }

    /// Time inversion: the `t` with Λ(t) = `target` (requests), for
    /// `target ≥ 0`. Monotone in `target`.
    pub fn invert(&self, target: f64) -> f64 {
        invariant!(
            target.is_finite() && target >= 0.0,
            "schedule inversion target must be finite and non-negative, got {target}"
        );
        let cycles = (target / self.cycle_mass).floor();
        let rem = (target - cycles * self.cycle_mass).clamp(0.0, self.cycle_mass);
        let i = self
            .mass
            .partition_point(|&m| m <= rem)
            .min(self.segments.len() - 1);
        let start = if i == 0 { 0.0 } else { self.ends_s[i - 1] };
        let before = if i == 0 { 0.0 } else { self.mass[i - 1] };
        let u = self.segments[i].invert_mass((rem - before).max(0.0));
        cycles * self.cycle_s + start + u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schedule of flat phases from `(duration_s, rps)` pairs.
    fn flat(phases: &[(f64, f64)]) -> Result<RateSchedule, String> {
        let segment = |(duration_s, base_rps)| Segment {
            duration_s,
            base_rps,
            amplitude: 0.0,
            period_s: 1.0,
        };
        RateSchedule::new(phases.iter().copied().map(segment).collect())
    }

    #[test]
    fn constant_schedule_is_linear() {
        let s = flat(&[(1.0, 250.0)]).unwrap();
        assert_eq!(s.rate_at(0.0), 250.0);
        assert_eq!(s.rate_at(17.3), 250.0);
        assert!((s.cumulative(4.0) - 1_000.0).abs() < 1e-9);
        assert!((s.invert(1_000.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn diurnal_schedule_swings_about_the_base() {
        let s = RateSchedule::diurnal(100.0, 0.5, 400.0).unwrap();
        // Quarter cycle: sin = 1 -> peak; three quarters: sin = -1.
        assert!((s.rate_at(100.0) - 150.0).abs() < 1e-9);
        assert!((s.rate_at(300.0) - 50.0).abs() < 1e-9);
        // The sinusoid integrates to zero over a full cycle.
        assert!((s.cycle_mass() - 100.0 * 400.0).abs() < 1e-6);
    }

    #[test]
    fn piecewise_boundaries_are_exact_prefix_sums() {
        let s = flat(&[(10.0, 50.0), (5.0, 400.0), (20.0, 10.0)]).unwrap();
        assert_eq!(s.cumulative(10.0), 500.0);
        assert_eq!(s.cumulative(15.0), 2_500.0);
        assert_eq!(s.cumulative(35.0), 2_700.0);
        // And across whole cycles, with no accumulated drift.
        let thousand_cycles = 1_000.0 * s.cycle_s();
        assert_eq!(
            s.cumulative(thousand_cycles + 15.0),
            1_000.0 * s.cycle_mass() + 2_500.0
        );
    }

    #[test]
    fn inversion_round_trips_and_is_monotone() {
        // A rush-hour day: overnight, shoulders, midday peak.
        let s = flat(&[
            (350.0, 40.0),
            (100.0, 470.0),
            (200.0, 900.0),
            (100.0, 470.0),
            (250.0, 40.0),
        ])
        .unwrap();
        let mut prev = -1.0;
        for k in 0..200 {
            let target = 37.0 * f64::from(k);
            let t = s.invert(target);
            assert!(t >= prev, "inversion not monotone at {target}");
            prev = t;
            assert!(
                (s.cumulative(t) - target).abs() < 1e-6 * target.max(1.0),
                "round trip failed at {target}: t={t}"
            );
        }
    }

    #[test]
    fn sinusoidal_inversion_round_trips() {
        let s = RateSchedule::diurnal(200.0, 0.9, 600.0).unwrap();
        for k in 1..50 {
            let target = 977.0 * f64::from(k);
            let t = s.invert(target);
            assert!(
                (s.cumulative(t) - target).abs() < 1e-6 * target,
                "round trip failed at {target}"
            );
        }
    }

    #[test]
    fn degenerate_schedules_are_rejected() {
        assert!(RateSchedule::new(vec![]).is_err());
        assert!(flat(&[(1.0, 0.0)]).is_err());
        assert!(flat(&[(1.0, f64::NAN)]).is_err());
        assert!(
            RateSchedule::diurnal(100.0, 1.0, 60.0).is_err(),
            "amplitude 1 stalls λ"
        );
        assert!(RateSchedule::diurnal(100.0, -0.1, 60.0).is_err());
        assert!(flat(&[(0.0, 10.0)]).is_err());
        assert!(RateSchedule::diurnal(100.0, 0.5, 0.0).is_err());
    }
}
