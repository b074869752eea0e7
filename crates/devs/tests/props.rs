//! Property-based tests for the discrete-event kernel.

use l2s_devs::{DelayStation, EventQueue, FifoResource};
use l2s_util::{DetRng, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Pops are globally time-ordered and FIFO within a timestamp.
    #[test]
    fn queue_pops_sorted_stable(times in prop::collection::vec(0u64..500, 1..300)) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), seq);
        }
        let mut popped = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// A FIFO station is work-conserving: total busy time equals the sum
    /// of service times, and completions are ordered.
    #[test]
    fn resource_work_conservation(jobs in prop::collection::vec((0u64..10_000, 1u64..500), 1..200)) {
        let mut r = FifoResource::new();
        let mut arrivals: Vec<(u64, u64)> = jobs;
        arrivals.sort_by_key(|&(a, _)| a);
        let mut total = 0u64;
        let mut last_done = SimTime::ZERO;
        for &(arrive, service) in &arrivals {
            let done = r.schedule(SimTime::from_nanos(arrive), SimDuration::from_nanos(service));
            total += service;
            prop_assert!(done >= SimTime::from_nanos(arrive + service));
            prop_assert!(done >= last_done);
            last_done = done;
        }
        prop_assert_eq!(r.busy_time().as_nanos(), total);
        // Makespan is at least the total work.
        prop_assert!(last_done.as_nanos() >= total);
    }

    /// The admission discipline the simulator runs at the router: a
    /// gated job is submitted only while `next_admission(now)` is `None`,
    /// and then the station has room. A `Some(g)` bound is exact: the
    /// station stays full on `[now, g)` and has room at `g`. Jobs that
    /// skip admission (the router's outbound replies) are submitted
    /// regardless, and no later submission moves a bound taken earlier
    /// forward — which is what lets the engine cache it.
    #[test]
    fn next_admission_is_exact_and_survives_later_jobs(
        cap in 1usize..8,
        jobs in prop::collection::vec((0u64..300, 1u64..400, prop::bool::ANY), 1..200),
    ) {
        let t = SimTime::from_nanos;
        let mut r = FifoResource::with_capacity(cap);
        let mut now = 0u64;
        let mut bounds: Vec<u64> = Vec::new();
        for (gap, service, gated) in jobs {
            now += gap;
            bounds.retain(|&g| now < g);
            for &g in &bounds {
                prop_assert!(r.queue_len(t(now)) >= cap, "full before a cached bound");
                let fresh = r.next_admission(t(now)).map(SimTime::as_nanos);
                prop_assert!(fresh.is_some_and(|f| f >= g), "bound {g} moved to {fresh:?}");
            }
            let admit = match r.next_admission(t(now)) {
                None => {
                    prop_assert!(r.queue_len(t(now)) < cap);
                    true
                }
                Some(g) => {
                    let g = g.as_nanos();
                    prop_assert!(g > now);
                    for probe in [now, now + (g - now) / 2, g - 1] {
                        prop_assert!(r.queue_len(t(probe)) >= cap, "room at {probe} before {g}");
                    }
                    prop_assert!(r.queue_len(t(g)) < cap);
                    bounds.push(g);
                    false
                }
            };
            if admit || !gated {
                r.schedule(t(now), SimDuration::from_nanos(service));
            }
        }
    }

    /// Delay stations are pure: output = input + delay, independent of
    /// traffic.
    #[test]
    fn delay_station_is_pure(delay in 0u64..10_000, times in prop::collection::vec(0u64..1u64 << 40, 1..50)) {
        let s = DelayStation::new(SimDuration::from_nanos(delay));
        for &t in &times {
            prop_assert_eq!(
                s.traverse(SimTime::from_nanos(t)).as_nanos(),
                t + delay
            );
        }
    }

    /// Random interleavings of schedule/pop never break the clock's
    /// monotonicity.
    #[test]
    fn queue_clock_monotone_under_interleaving(seed in any::<u64>(), ops in 1usize..400) {
        let mut rng = DetRng::new(seed);
        let mut q = EventQueue::new();
        let mut last_now = SimTime::ZERO;
        for i in 0..ops {
            if rng.chance(0.6) || q.is_empty() {
                let at = q.now() + SimDuration::from_nanos(rng.below(1_000));
                q.schedule(at, i);
            } else {
                let (t, _) = q.pop().unwrap();
                prop_assert!(t >= last_now);
                last_now = t;
                prop_assert_eq!(q.now(), t);
            }
        }
    }
}
