//! M/M/1 station mathematics.
//!
//! The paper's queuing network assumes every station is M/M/1. This module
//! holds the textbook formulas the full-network solution in
//! [`crate::QueueModel::solve`] uses.

/// An M/M/1 station with Poisson arrivals at rate `lambda` and
/// exponential service at rate `mu` (both per second).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mm1 {
    /// Arrival rate λ (jobs/s).
    pub lambda: f64,
    /// Service rate µ (jobs/s).
    pub mu: f64,
}

impl Mm1 {
    /// Creates a station. A negative arrival rate or non-positive
    /// service rate is rejected by `invariant!`.
    pub fn new(lambda: f64, mu: f64) -> Self {
        l2s_util::invariant!(lambda >= 0.0, "arrival rate must be non-negative");
        l2s_util::invariant!(mu > 0.0, "service rate must be positive");
        Mm1 { lambda, mu }
    }

    /// Utilization `ρ = λ/µ`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.lambda / self.mu
    }

    /// True when the queue is stable (`ρ < 1`).
    #[inline]
    pub fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }

    /// Mean time in system (waiting + service) `W = 1/(µ-λ)`, or `None`
    /// when saturated.
    pub fn mean_response(&self) -> Option<f64> {
        self.is_stable().then(|| 1.0 / (self.mu - self.lambda))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_example() {
        // λ = 3/s, µ = 4/s: ρ = 0.75, W = 1 s.
        let q = Mm1::new(3.0, 4.0);
        assert!((q.utilization() - 0.75).abs() < 1e-12);
        assert!(q.is_stable());
        assert!((q.mean_response().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn saturated_queue_has_no_steady_state() {
        let q = Mm1::new(5.0, 5.0);
        assert!(!q.is_stable());
        assert!(q.mean_response().is_none());
    }

    #[test]
    fn zero_arrivals_is_idle() {
        let q = Mm1::new(0.0, 3.0);
        assert_eq!(q.utilization(), 0.0);
        assert!((q.mean_response().unwrap() - (1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn response_time_diverges_near_saturation() {
        let w_low = Mm1::new(0.5, 1.0).mean_response().unwrap();
        let w_high = Mm1::new(0.999, 1.0).mean_response().unwrap();
        assert!(w_high > 100.0 * w_low);
    }
}
