//! Acknowledged delivery: retry with exponential backoff, and
//! exactly-once acceptance on the receiving side.
//!
//! Recommendation and injection deliveries matter too much to fire and
//! forget over a lossy wire. The engine registers each one as an
//! [`OutstandingDelivery`]; until the client acknowledges it, the
//! delivery is re-sent on a [`BackoffPolicy`] schedule (exponential
//! with deterministic jitter) up to a retry budget, after which it is
//! dead-lettered. On the receiving side a [`DeliveryTracker`] collapses
//! wire duplicates by sequence number so each delivery is applied at
//! most once.

use crate::bus::Envelope;
use crate::fault::ChaosRng;
use pphcr_geo::{TimePoint, TimeSpan};
use pphcr_obs::Registry;
use pphcr_userdata::UserId;
use std::collections::{HashMap, HashSet};

/// Exponential backoff with deterministic jitter and a retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub base: TimeSpan,
    /// Multiplier applied per further attempt.
    pub factor: f64,
    /// Ceiling on any single delay.
    pub max_delay: TimeSpan,
    /// Jitter as a fraction of the computed delay, in `[0, 1]`: the
    /// delay is scaled by a factor drawn from `[1 - jitter, 1]`.
    pub jitter_frac: f64,
    /// Maximum number of retries before the delivery is dead-lettered
    /// (the original send is not counted).
    pub budget: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: TimeSpan::seconds(5),
            factor: 2.0,
            max_delay: TimeSpan::minutes(2),
            jitter_frac: 0.25,
            budget: 4,
        }
    }
}

impl BackoffPolicy {
    /// The delay before retry number `attempt` (1-based), jittered
    /// from `rng`.
    ///
    /// The un-jittered delay is `base * factor^(attempt-1)` capped at
    /// `max_delay`; jitter only ever shortens it, so the jittered delay
    /// stays within `[(1 - jitter_frac) * delay, delay]` and never
    /// drops below one second.
    #[must_use]
    pub fn delay_for(&self, attempt: u32, rng: &mut ChaosRng) -> TimeSpan {
        let exponent = attempt.saturating_sub(1).min(63);
        let raw = self.base.as_seconds() as f64 * self.factor.powi(exponent as i32);
        let capped = raw.min(self.max_delay.as_seconds() as f64);
        let jitter = self.jitter_frac.clamp(0.0, 1.0) * rng.unit_f64();
        let jittered = capped * (1.0 - jitter);
        TimeSpan::seconds((jittered.round() as u64).max(1))
    }
}

/// A delivery the engine is still waiting to have acknowledged.
#[derive(Debug, Clone, PartialEq)]
pub struct OutstandingDelivery {
    /// The target listener.
    pub user: UserId,
    /// The envelope to re-send verbatim (same seq) on retry.
    pub envelope: Envelope,
    /// Retries performed so far.
    pub attempts: u32,
    /// When the next retry fires.
    pub next_retry_at: TimePoint,
}

/// The engine-side ledger of unacknowledged deliveries plus the
/// receiver-side duplicate filter.
#[derive(Debug, Clone, Default)]
pub struct DeliveryTracker {
    pub(crate) outstanding: HashMap<u64, OutstandingDelivery>,
    pub(crate) seen: HashSet<u64>,
    pub(crate) retries: u64,
    pub(crate) exhausted: u64,
    pub(crate) duplicates: u64,
}

impl DeliveryTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        DeliveryTracker::default()
    }

    /// Registers a freshly sent delivery awaiting acknowledgement. The
    /// (deterministically jittered) backoff wait is observed into
    /// `obs` as `retry.backoff_wait_s`.
    pub fn register(
        &mut self,
        user: UserId,
        envelope: Envelope,
        sent_at: TimePoint,
        policy: &BackoffPolicy,
        rng: &mut ChaosRng,
        obs: &mut Registry,
    ) {
        let delay = policy.delay_for(1, rng);
        obs.inc("retry.registered");
        obs.observe("retry.backoff_wait_s", delay.as_seconds());
        self.outstanding.insert(
            envelope.seq,
            OutstandingDelivery {
                user,
                envelope,
                attempts: 0,
                next_retry_at: sent_at.advance(delay),
            },
        );
    }

    /// Whether a sequence number has already been applied (read-only;
    /// use [`DeliveryTracker::mark_delivered`] to record one).
    #[must_use]
    pub fn seen(&self, seq: u64) -> bool {
        self.seen.contains(&seq)
    }

    /// Counts one wire duplicate filtered on the receive path.
    pub fn note_duplicate(&mut self) {
        self.duplicates += 1;
    }

    /// Records a successful delivery: marks the sequence number as
    /// applied and acknowledges it out of the retry ledger. A delivery
    /// is only marked once actually applied, so a failed fetch leaves
    /// its retries eligible rather than filtered as duplicates.
    pub fn mark_delivered(&mut self, seq: u64) {
        self.seen.insert(seq);
        self.outstanding.remove(&seq);
    }

    /// Unacknowledged deliveries currently in the ledger.
    #[must_use]
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Deliveries whose retry timer has fired at `now`.
    ///
    /// Each returned delivery has been re-armed with its next backoff
    /// delay (attempts incremented); the caller re-sends its envelope.
    /// Deliveries past `policy.budget` are instead removed and returned
    /// in the second list for dead-lettering.
    // lint: allow(reach-hash-iter) — due sequence numbers are collected then sorted before the sweep
    pub fn due_retries(
        &mut self,
        now: TimePoint,
        policy: &BackoffPolicy,
        rng: &mut ChaosRng,
        obs: &mut Registry,
    ) -> (Vec<OutstandingDelivery>, Vec<OutstandingDelivery>) {
        let mut due: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, d)| d.next_retry_at <= now)
            .map(|(&seq, _)| seq)
            .collect();
        // Deterministic sweep order regardless of hash-map iteration.
        due.sort_unstable();
        let mut to_retry = Vec::new();
        let mut to_dead_letter = Vec::new();
        for seq in due {
            let Some(d) = self.outstanding.get_mut(&seq) else { continue };
            if d.attempts >= policy.budget {
                if let Some(dead) = self.outstanding.remove(&seq) {
                    self.exhausted += 1;
                    obs.inc("retry.exhausted");
                    to_dead_letter.push(dead);
                }
            } else {
                d.attempts += 1;
                self.retries += 1;
                let delay = policy.delay_for(d.attempts + 1, rng);
                obs.inc("retry.resent");
                obs.observe("retry.backoff_wait_s", delay.as_seconds());
                d.next_retry_at = now.advance(delay);
                to_retry.push(d.clone());
            }
        }
        (to_retry, to_dead_letter)
    }

    /// Total retries performed.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Wire duplicates filtered on the receive path.
    #[must_use]
    pub fn duplicates_filtered(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusMessage;
    use pphcr_catalog::ServiceIndex;

    fn env(seq: u64) -> Envelope {
        Envelope {
            message: BusMessage::Tuned { user: UserId(1), service: ServiceIndex(0) },
            published_at: TimePoint(0),
            hops: 1,
            seq,
        }
    }

    #[test]
    fn backoff_grows_then_caps() {
        let policy = BackoffPolicy { jitter_frac: 0.0, ..BackoffPolicy::default() };
        let mut rng = ChaosRng::new(0);
        let d1 = policy.delay_for(1, &mut rng);
        let d2 = policy.delay_for(2, &mut rng);
        let d5 = policy.delay_for(5, &mut rng);
        let d9 = policy.delay_for(9, &mut rng);
        assert_eq!(d1, TimeSpan::seconds(5));
        assert_eq!(d2, TimeSpan::seconds(10));
        assert_eq!(d5, TimeSpan::seconds(80));
        assert_eq!(d9, policy.max_delay, "capped");
    }

    #[test]
    fn jitter_only_shortens() {
        let policy = BackoffPolicy { jitter_frac: 0.5, ..BackoffPolicy::default() };
        let mut rng = ChaosRng::new(9);
        for attempt in 1..8 {
            let full = BackoffPolicy { jitter_frac: 0.0, ..policy.clone() }
                .delay_for(attempt, &mut ChaosRng::new(0));
            let jittered = policy.delay_for(attempt, &mut rng);
            assert!(jittered <= full);
            assert!(jittered.as_seconds() * 2 + 1 >= full.as_seconds(), "within jitter band");
        }
    }

    #[test]
    fn mark_delivered_filters_duplicates() {
        let mut t = DeliveryTracker::new();
        assert!(!t.seen(7));
        t.mark_delivered(7);
        assert!(t.seen(7));
        assert!(!t.seen(8));
        t.note_duplicate();
        assert_eq!(t.duplicates_filtered(), 1);
    }

    #[test]
    fn unacked_delivery_retries_then_exhausts() {
        let policy = BackoffPolicy {
            base: TimeSpan::seconds(10),
            factor: 1.0,
            max_delay: TimeSpan::seconds(10),
            jitter_frac: 0.0,
            budget: 2,
        };
        let mut rng = ChaosRng::new(1);
        let mut obs = Registry::new();
        let mut t = DeliveryTracker::new();
        t.register(UserId(1), env(5), TimePoint(0), &policy, &mut rng, &mut obs);

        let (retry, dead) = t.due_retries(TimePoint(5), &policy, &mut rng, &mut obs);
        assert!(retry.is_empty() && dead.is_empty(), "timer not fired yet");

        let (retry, dead) = t.due_retries(TimePoint(10), &policy, &mut rng, &mut obs);
        assert_eq!((retry.len(), dead.len()), (1, 0));
        assert_eq!(retry[0].attempts, 1);

        let (retry, dead) = t.due_retries(TimePoint(20), &policy, &mut rng, &mut obs);
        assert_eq!((retry.len(), dead.len()), (1, 0));

        let (retry, dead) = t.due_retries(TimePoint(30), &policy, &mut rng, &mut obs);
        assert_eq!((retry.len(), dead.len()), (0, 1), "budget of 2 exhausted");
        assert_eq!(t.exhausted, 1);
        assert_eq!(t.outstanding_count(), 0);
        assert_eq!(t.retries(), 2, "budget never exceeded");
        assert_eq!(obs.counter("retry.registered"), 1);
        assert_eq!(obs.counter("retry.resent"), 2);
        assert_eq!(obs.counter("retry.exhausted"), 1);
        let (_, waits) =
            obs.histograms().find(|(k, _)| *k == "retry.backoff_wait_s").expect("waits observed");
        assert_eq!(waits.count(), 3, "initial arm plus two re-arms");
        assert_eq!(waits.sum(), 30, "constant 10 s backoff, no jitter");
    }

    #[test]
    fn mark_delivered_stops_retries() {
        let policy = BackoffPolicy::default();
        let mut rng = ChaosRng::new(2);
        let mut obs = Registry::new();
        let mut t = DeliveryTracker::new();
        t.register(UserId(1), env(9), TimePoint(0), &policy, &mut rng, &mut obs);
        assert_eq!(t.outstanding_count(), 1);
        t.mark_delivered(9);
        assert_eq!(t.outstanding_count(), 0);
        let (retry, dead) = t.due_retries(TimePoint(10_000), &policy, &mut rng, &mut obs);
        assert!(retry.is_empty() && dead.is_empty());
    }
}
