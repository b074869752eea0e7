//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a fixed schedule of node crashes and recoveries,
//! resolved *before* the measured pass begins: every fault event is an
//! offset from the start of the measurement window. Plans are plain
//! data, built explicitly ([`FaultPlan::scheduled`],
//! [`FaultPlan::crash_recover`], [`FaultPlan::merged`]), so a run with a
//! given plan is exactly as deterministic as a healthy run: same seed,
//! same plan, same results, regardless of worker count.
//!
//! Crash semantics (enforced by the engine): the node's main memory is
//! wiped and all queued/in-flight station work is discarded; every
//! request whose next lifecycle step lands on the dead node is aborted
//! and either retried elsewhere or counted as failed. Recovery brings
//! the node back idle and cold; the policies re-admit it to their
//! candidate sets.

use l2s_util::{invariant, SimDuration};

/// What happens to a node at a fault event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The node dies: memory wiped, in-flight work lost.
    Crash,
    /// The node reboots: idle, cold cache, rejoins the cluster.
    Recover,
}

/// One scheduled fault, at an offset from the measurement start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires, relative to the start of the measurement
    /// window (the warm-up pass always runs on a healthy cluster).
    pub at: SimDuration,
    /// Which node it hits.
    pub node: usize,
    /// Crash or recovery.
    pub kind: FaultKind,
}

/// A deterministic schedule of crashes and recoveries. The empty plan
/// (the default) reproduces a healthy run byte-for-byte.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Sorted by `(at, Recover-before-Crash, node)` so simultaneous
    /// events resolve deterministically and recoveries free capacity
    /// before a same-instant crash consumes it.
    events: Vec<FaultEvent>,
}

/// Sort key: time, then recoveries before crashes, then node id.
fn order_key(e: &FaultEvent) -> (SimDuration, u8, usize) {
    (e.at, u8::from(e.kind == FaultKind::Crash), e.node)
}

impl FaultPlan {
    /// The empty plan: no faults, a healthy run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule, sorted by firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// A plan from an explicit event list (sorted into firing order).
    /// Call [`FaultPlan::validate`] to check it against a cluster size.
    pub fn scheduled(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(order_key);
        FaultPlan { events }
    }

    /// Convenience: `node` crashes `at_s` seconds into the measurement
    /// window and recovers at `until_s`.
    pub fn crash_recover(node: usize, at_s: f64, until_s: f64) -> Self {
        invariant!(
            at_s < until_s,
            "crash_recover needs the crash ({at_s}s) before the recovery ({until_s}s)"
        );
        Self::scheduled(vec![
            FaultEvent {
                at: SimDuration::from_secs_f64(at_s),
                node,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                at: SimDuration::from_secs_f64(until_s),
                node,
                kind: FaultKind::Recover,
            },
        ])
    }

    /// Merges two plans into one schedule.
    pub fn merged(self, other: FaultPlan) -> Self {
        let mut events = self.events;
        events.extend(other.events);
        Self::scheduled(events)
    }

    /// Checks the plan against a cluster of `nodes` nodes: every event
    /// in bounds, crashes and recoveries alternating per node. A plan
    /// may take the whole cluster down — policies reject arrivals while
    /// no node is live and the engine counts those requests as failed
    /// (total-outage behavior is itself under test; see the engine's
    /// all-down regression tests).
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        let mut alive = vec![true; nodes];
        let mut last = SimDuration::ZERO;
        for e in &self.events {
            if e.node >= nodes {
                return Err(format!(
                    "fault event targets node {} of a {}-node cluster",
                    e.node, nodes
                ));
            }
            if e.at < last {
                return Err("fault events out of order (use FaultPlan::scheduled)".into());
            }
            last = e.at;
            match e.kind {
                FaultKind::Crash => {
                    if !alive[e.node] {
                        return Err(format!("node {} crashes while already down", e.node));
                    }
                    alive[e.node] = false;
                }
                FaultKind::Recover => {
                    if alive[e.node] {
                        return Err(format!("node {} recovers while already up", e.node));
                    }
                    alive[e.node] = true;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_valid_and_empty() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.events(), &[]);
        p.validate(4).unwrap();
    }

    #[test]
    fn crash_recover_builds_an_ordered_pair() {
        let p = FaultPlan::crash_recover(2, 1.0, 3.0);
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.events()[0].kind, FaultKind::Crash);
        assert_eq!(p.events()[1].kind, FaultKind::Recover);
        assert_eq!(p.events()[0].node, 2);
        p.validate(4).unwrap();
    }

    #[test]
    fn scheduled_sorts_and_orders_recovery_first_at_ties() {
        let t = SimDuration::from_secs_f64(1.0);
        let p = FaultPlan::scheduled(vec![
            FaultEvent {
                at: t,
                node: 0,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                at: t,
                node: 1,
                kind: FaultKind::Recover,
            },
        ]);
        assert_eq!(p.events()[0].kind, FaultKind::Recover);
        assert_eq!(p.events()[1].kind, FaultKind::Crash);
    }

    #[test]
    fn validate_rejects_out_of_bounds_and_double_faults() {
        assert!(FaultPlan::crash_recover(7, 1.0, 2.0).validate(4).is_err());
        let double = FaultPlan::scheduled(vec![
            FaultEvent {
                at: SimDuration::from_secs_f64(1.0),
                node: 0,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                at: SimDuration::from_secs_f64(2.0),
                node: 0,
                kind: FaultKind::Crash,
            },
        ]);
        assert!(double.validate(4).is_err());
        // Recovering a node that never crashed is also malformed.
        let stray = FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_secs_f64(1.0),
            node: 0,
            kind: FaultKind::Recover,
        }]);
        assert!(stray.validate(4).is_err());
    }

    #[test]
    fn validate_accepts_killing_every_node() {
        // A total outage is a legal (and tested) scenario: the policies
        // reject arrivals and the engine counts them as failed.
        let p = FaultPlan::scheduled(vec![
            FaultEvent {
                at: SimDuration::from_secs_f64(1.0),
                node: 0,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                at: SimDuration::from_secs_f64(2.0),
                node: 1,
                kind: FaultKind::Crash,
            },
        ]);
        p.validate(2).unwrap();
        p.validate(3).unwrap();
    }

    #[test]
    fn merged_plans_interleave() {
        let p = FaultPlan::crash_recover(0, 2.0, 4.0).merged(FaultPlan::crash_recover(1, 1.0, 3.0));
        let nodes: Vec<usize> = p.events().iter().map(|e| e.node).collect();
        assert_eq!(nodes, vec![1, 0, 1, 0]);
        p.validate(3).unwrap();
    }
}
