//! Fault injection for the delivery path.
//!
//! The paper's platform ships recommendations over `RabbitMQ` and fetches
//! personalized clips over the mobile Internet — links that lose,
//! duplicate, delay and reorder messages in the field. This module
//! makes that a first-class, *deterministic* platform capability: a
//! pluggable [`Transport`] sits behind the [`crate::bus::Bus`], and the
//! seeded [`FaultyTransport`] perturbs traffic according to a
//! [`FaultProfile`] while [`PerfectTransport`] (the default) preserves
//! the original loss-free in-process semantics bit for bit.

use crate::bus::{Envelope, Topic};
use pphcr_geo::{TimePoint, TimeSpan};
use std::collections::{HashMap, VecDeque};

/// Deterministic `SplitMix64` generator used by all chaos machinery.
///
/// Self-contained so core stays dependency-free; the same seed yields
/// the same fault sequence on every platform, which the chaos suite
/// relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    /// The generator's current internal state, for persistence.
    #[must_use]
    pub fn state(&self) -> u64 {
        self.0
    }

    /// Rebuilds a generator mid-stream from a persisted state word.
    /// `from_state(r.state())` continues exactly where `r` was.
    #[must_use]
    pub fn from_state(state: u64) -> Self {
        ChaosRng(state)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Do not consume randomness for impossible events: a profile
            // with all-zero rates must leave the stream untouched.
            return false;
        }
        self.unit_f64() < p
    }

    /// Uniform integer in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }
}

/// Fault rates and shaping parameters for a [`FaultyTransport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability a sent message is silently lost.
    pub drop_rate: f64,
    /// Probability a sent message arrives twice.
    pub duplicate_rate: f64,
    /// Probability a sent message is reordered with earlier traffic.
    pub reorder_rate: f64,
    /// Probability a sent message is delayed before arrival.
    pub delay_rate: f64,
    /// Maximum delay applied to delayed messages.
    pub max_delay: TimeSpan,
    /// Per-topic bandwidth caps: at most this many messages are
    /// released per receive call; the rest stay in flight.
    pub bandwidth_caps: HashMap<Topic, usize>,
}

impl FaultProfile {
    /// A profile with every fault disabled. A [`FaultyTransport`] built
    /// from it behaves identically to [`PerfectTransport`].
    #[must_use]
    pub fn none() -> Self {
        FaultProfile {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            delay_rate: 0.0,
            max_delay: TimeSpan::ZERO,
            bandwidth_caps: HashMap::new(),
        }
    }

    /// The chaos-suite reference profile: a flaky cellular link with
    /// 20 % loss, 10 % duplication and heavy reordering.
    #[must_use]
    pub fn lossy_mobile() -> Self {
        FaultProfile {
            drop_rate: 0.20,
            duplicate_rate: 0.10,
            reorder_rate: 0.30,
            delay_rate: 0.25,
            max_delay: TimeSpan::seconds(45),
            bandwidth_caps: HashMap::new(),
        }
    }

    /// True when every fault is disabled and no caps are set.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.drop_rate <= 0.0
            && self.duplicate_rate <= 0.0
            && self.reorder_rate <= 0.0
            && self.delay_rate <= 0.0
            && self.bandwidth_caps.is_empty()
    }
}

/// Cumulative fault counters of a transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Messages dropped on the wire.
    pub dropped: u64,
    /// Extra copies created by duplication.
    pub duplicated: u64,
    /// Messages that were reordered.
    pub reordered: u64,
    /// Messages that were delayed.
    pub delayed: u64,
}

/// A transport's complete wire state, exported for persistence and
/// rebuilt with [`transport_from_state`]. Per-topic collections are
/// sorted by a stable topic order so the encoding is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportState {
    /// State of a [`PerfectTransport`]: queued envelopes per topic.
    Perfect {
        /// Per-topic queues in wire order.
        queues: Vec<(Topic, Vec<Envelope>)>,
    },
    /// State of a [`FaultyTransport`].
    Faulty {
        /// The fault profile.
        profile: FaultProfile,
        /// Internal state word of the seeded generator.
        rng_state: u64,
        /// Per-topic in-flight messages with their arrival instants,
        /// in wire order.
        in_flight: Vec<(Topic, Vec<(Envelope, TimePoint)>)>,
        /// Cumulative fault counters.
        stats: WireStats,
    },
}

/// Stable topic order used when exporting per-topic transport state.
pub(crate) const TOPIC_ORDER: [Topic; 5] =
    [Topic::Tracking, Topic::Feedback, Topic::Recommendation, Topic::Editorial, Topic::Ingest];

/// Rebuilds a boxed transport from an exported [`TransportState`].
#[must_use]
// lint: allow(reach-hash-iter) — `queues`/`in_flight` here are the state's Vec fields in wire order, not the transport's maps
pub fn transport_from_state(state: TransportState) -> Box<dyn Transport> {
    match state {
        TransportState::Perfect { queues } => {
            let mut t = PerfectTransport::new();
            for (topic, envelopes) in queues {
                t.queues.insert(topic, envelopes.into());
            }
            Box::new(t)
        }
        TransportState::Faulty { profile, rng_state, in_flight, stats } => {
            let mut t = FaultyTransport::new(profile, 0);
            t.rng = ChaosRng::from_state(rng_state);
            t.stats = stats;
            for (topic, flights) in in_flight {
                t.in_flight.insert(
                    topic,
                    flights
                        .into_iter()
                        .map(|(envelope, arrives_at)| Flight { envelope, arrives_at })
                        .collect(),
                );
            }
            Box::new(t)
        }
    }
}

/// The wire between publishers and topic queues.
///
/// `send` accepts a message at `now`; `receive` returns the messages
/// that have arrived by `now`, in wire order. Implementations decide
/// what the wire does in between. `Send + Sync` keeps the engine that
/// owns the wire shareable with the batch tick's warm workers.
pub trait Transport: std::fmt::Debug + Send + Sync {
    /// Accepts a message for delivery on `topic` at `now`.
    fn send(&mut self, topic: Topic, envelope: Envelope, now: TimePoint);

    /// Releases every message that has arrived on `topic` by `now`.
    fn receive(&mut self, topic: Topic, now: TimePoint) -> Vec<Envelope>;

    /// Messages still in flight on `topic`.
    fn in_flight(&self, topic: Topic) -> usize;

    /// Cumulative fault counters.
    fn stats(&self) -> WireStats;

    /// Clones the transport behind the object-safe interface.
    fn boxed_clone(&self) -> Box<dyn Transport>;

    /// Exports the transport's state for persistence. `None` (the
    /// default) marks a transport the durability layer cannot
    /// serialize; snapshotting an engine over such a wire fails with a
    /// typed error rather than silently losing in-flight traffic.
    fn export_state(&self) -> Option<TransportState> {
        None
    }
}

impl Clone for Box<dyn Transport> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// The loss-free, latency-free in-process wire (the default).
#[derive(Debug, Clone, Default)]
pub struct PerfectTransport {
    queues: HashMap<Topic, VecDeque<Envelope>>,
}

impl PerfectTransport {
    /// Creates an empty perfect transport.
    #[must_use]
    pub fn new() -> Self {
        PerfectTransport::default()
    }
}

impl Transport for PerfectTransport {
    fn send(&mut self, topic: Topic, envelope: Envelope, _now: TimePoint) {
        self.queues.entry(topic).or_default().push_back(envelope);
    }

    fn receive(&mut self, topic: Topic, _now: TimePoint) -> Vec<Envelope> {
        self.queues.get_mut(&topic).map(|q| q.drain(..).collect()).unwrap_or_default()
    }

    fn in_flight(&self, topic: Topic) -> usize {
        self.queues.get(&topic).map_or(0, VecDeque::len)
    }

    fn stats(&self) -> WireStats {
        WireStats::default()
    }

    fn boxed_clone(&self) -> Box<dyn Transport> {
        Box::new(self.clone())
    }

    fn export_state(&self) -> Option<TransportState> {
        let queues = TOPIC_ORDER
            .iter()
            .filter_map(|topic| {
                let q = self.queues.get(topic)?;
                (!q.is_empty()).then(|| (*topic, q.iter().cloned().collect()))
            })
            .collect();
        Some(TransportState::Perfect { queues })
    }
}

/// One message travelling on the faulty wire.
#[derive(Debug, Clone)]
struct Flight {
    envelope: Envelope,
    arrives_at: TimePoint,
}

/// A deterministic, seeded faulty wire.
///
/// Faults are decided per message from the seeded [`ChaosRng`], so two
/// runs with the same seed and traffic see identical drops, duplicates,
/// delays and reorderings.
#[derive(Debug, Clone)]
pub struct FaultyTransport {
    profile: FaultProfile,
    rng: ChaosRng,
    in_flight: HashMap<Topic, Vec<Flight>>,
    stats: WireStats,
}

impl FaultyTransport {
    /// Creates a faulty wire with `profile`, seeded by `seed`.
    #[must_use]
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultyTransport {
            profile,
            rng: ChaosRng::new(seed),
            in_flight: HashMap::new(),
            stats: WireStats::default(),
        }
    }

    fn arrival_time(&mut self, now: TimePoint) -> TimePoint {
        if self.profile.delay_rate > 0.0 && self.rng.chance(self.profile.delay_rate) {
            self.stats.delayed += 1;
            let max = self.profile.max_delay.as_seconds().max(1);
            now.advance(TimeSpan::seconds(1 + self.rng.below(max)))
        } else {
            now
        }
    }
}

impl Transport for FaultyTransport {
    fn send(&mut self, topic: Topic, envelope: Envelope, now: TimePoint) {
        if self.rng.chance(self.profile.drop_rate) {
            self.stats.dropped += 1;
            return;
        }
        let duplicate = self.rng.chance(self.profile.duplicate_rate);
        let arrives_at = self.arrival_time(now);
        let dup_arrives_at = if duplicate {
            self.stats.duplicated += 1;
            Some(self.arrival_time(now))
        } else {
            None
        };
        let len_after = self.in_flight.get(&topic).map_or(0, Vec::len) + 1 + usize::from(duplicate);
        let swap_with = if len_after > 1 && self.rng.chance(self.profile.reorder_rate) {
            self.stats.reordered += 1;
            Some(self.rng.below(len_after as u64 - 1) as usize)
        } else {
            None
        };
        let flights = self.in_flight.entry(topic).or_default();
        flights.push(Flight { envelope: envelope.clone(), arrives_at });
        if let Some(arrives_at) = dup_arrives_at {
            flights.push(Flight { envelope, arrives_at });
        }
        // Reordering swaps the newest flight with a random earlier one.
        if let Some(other) = swap_with {
            let last = flights.len() - 1;
            flights.swap(other, last);
        }
    }

    fn receive(&mut self, topic: Topic, now: TimePoint) -> Vec<Envelope> {
        let Some(flights) = self.in_flight.get_mut(&topic) else { return Vec::new() };
        let cap = self.profile.bandwidth_caps.get(&topic).copied().unwrap_or(usize::MAX);
        let mut released = Vec::new();
        let mut kept = Vec::with_capacity(flights.len());
        for flight in flights.drain(..) {
            if flight.arrives_at <= now && released.len() < cap {
                released.push(flight.envelope);
            } else {
                kept.push(flight);
            }
        }
        *flights = kept;
        released
    }

    fn in_flight(&self, topic: Topic) -> usize {
        self.in_flight.get(&topic).map_or(0, Vec::len)
    }

    fn stats(&self) -> WireStats {
        self.stats
    }

    fn boxed_clone(&self) -> Box<dyn Transport> {
        Box::new(self.clone())
    }

    fn export_state(&self) -> Option<TransportState> {
        let in_flight = TOPIC_ORDER
            .iter()
            .filter_map(|topic| {
                let flights = self.in_flight.get(topic)?;
                (!flights.is_empty()).then(|| {
                    (*topic, flights.iter().map(|f| (f.envelope.clone(), f.arrives_at)).collect())
                })
            })
            .collect();
        Some(TransportState::Faulty {
            profile: self.profile.clone(),
            rng_state: self.rng.state(),
            in_flight,
            stats: self.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusMessage;
    use pphcr_catalog::ServiceIndex;
    use pphcr_userdata::UserId;

    fn env(seq: u64) -> Envelope {
        Envelope {
            message: BusMessage::Tuned { user: UserId(seq), service: ServiceIndex(0) },
            published_at: TimePoint(seq),
            hops: 1,
            seq,
        }
    }

    #[test]
    fn zero_rate_profile_is_transparent() {
        let mut t = FaultyTransport::new(FaultProfile::none(), 7);
        for i in 0..50 {
            t.send(Topic::Tracking, env(i), TimePoint(i));
        }
        let got = t.receive(Topic::Tracking, TimePoint(50));
        assert_eq!(got.len(), 50);
        assert!((0..50).all(|i| got[i as usize].seq == i), "order preserved");
        assert_eq!(t.stats(), WireStats::default());
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let run = |seed| {
            let mut t =
                FaultyTransport::new(FaultProfile { drop_rate: 0.5, ..FaultProfile::none() }, seed);
            for i in 0..100 {
                t.send(Topic::Tracking, env(i), TimePoint(i));
            }
            t.receive(Topic::Tracking, TimePoint(1_000)).iter().map(|e| e.seq).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1), "same seed, same losses");
        assert_ne!(run(1), run(2), "different seed, different losses");
        let survivors = run(1).len();
        assert!((20..80).contains(&survivors), "~50% loss, got {survivors}");
    }

    #[test]
    fn duplicates_share_the_sequence_number() {
        let profile = FaultProfile { duplicate_rate: 1.0, ..FaultProfile::none() };
        let mut t = FaultyTransport::new(profile, 3);
        t.send(Topic::Recommendation, env(9), TimePoint(0));
        let got = t.receive(Topic::Recommendation, TimePoint(0));
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|e| e.seq == 9));
        assert_eq!(t.stats().duplicated, 1);
    }

    #[test]
    fn delayed_messages_arrive_later() {
        let profile = FaultProfile {
            delay_rate: 1.0,
            max_delay: TimeSpan::seconds(30),
            ..FaultProfile::none()
        };
        let mut t = FaultyTransport::new(profile, 11);
        t.send(Topic::Recommendation, env(1), TimePoint(100));
        assert!(t.receive(Topic::Recommendation, TimePoint(100)).is_empty(), "still in flight");
        assert_eq!(t.in_flight(Topic::Recommendation), 1);
        let got = t.receive(Topic::Recommendation, TimePoint(200));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn bandwidth_cap_throttles_release() {
        let mut profile = FaultProfile::none();
        profile.bandwidth_caps.insert(Topic::Tracking, 3);
        let mut t = FaultyTransport::new(profile, 0);
        for i in 0..10 {
            t.send(Topic::Tracking, env(i), TimePoint(0));
        }
        assert_eq!(t.receive(Topic::Tracking, TimePoint(1)).len(), 3);
        assert_eq!(t.receive(Topic::Tracking, TimePoint(2)).len(), 3);
        assert_eq!(t.in_flight(Topic::Tracking), 4);
    }

    #[test]
    fn reordering_changes_order_not_content() {
        let profile = FaultProfile { reorder_rate: 1.0, ..FaultProfile::none() };
        let mut t = FaultyTransport::new(profile, 5);
        for i in 0..20 {
            t.send(Topic::Tracking, env(i), TimePoint(0));
        }
        let got: Vec<u64> =
            t.receive(Topic::Tracking, TimePoint(1)).iter().map(|e| e.seq).collect();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>(), "nothing lost or invented");
        assert_ne!(got, sorted, "order was perturbed");
    }
}
