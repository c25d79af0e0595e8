//! The in-process message bus.
//!
//! The paper's server uses `RabbitMQ` between the REST frontend, user
//! management, the recommender and the clients (Fig. 3). For a
//! deterministic reproduction we replace it with a typed in-process
//! bus: published messages are queued per topic, consumers drain them
//! explicitly, and every message carries a hop count so delivery paths
//! (e.g. editorial injection → client, experiment E6) are measurable.
//!
//! Since the chaos-hardening work the bus is built from two layers:
//!
//! * a pluggable [`Transport`] — the wire. [`PerfectTransport`] (the
//!   default) delivers instantly and losslessly; a seeded
//!   [`crate::fault::FaultyTransport`] drops, duplicates, delays and
//!   reorders according to a [`crate::fault::FaultProfile`];
//! * bounded per-topic queues with an explicit [`OverflowPolicy`].
//!   High-volume telemetry topics shed load oldest-first; the
//!   editorial topic rejects new work instead, so an editor's push is
//!   never silently discarded. Everything shed or rejected lands in a
//!   [`DeadLetter`] store with a reason, never on the floor.
//!
//! Every envelope also carries a bus-unique sequence number, which the
//! engine's delivery tracker uses to collapse wire duplicates back to
//! exactly-once application.

use crate::fault::{PerfectTransport, Transport, WireStats};
use pphcr_audio::ClipId;
use pphcr_catalog::ServiceIndex;
use pphcr_geo::TimePoint;
use pphcr_recommender::SlotSchedule;
use pphcr_trajectory::GpsFix;
use pphcr_userdata::{FeedbackEvent, UserId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Message topics (one queue per topic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topic {
    /// Device → platform: GPS fixes.
    Tracking,
    /// Device → platform: feedback events.
    Feedback,
    /// Platform → device: recommendation deliveries.
    Recommendation,
    /// Dashboard → platform: editorial injections.
    Editorial,
    /// Platform internal: clips ingested/classified.
    Ingest,
}

/// A bus message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BusMessage {
    /// A GPS fix from a device.
    Fix {
        /// The listener.
        user: UserId,
        /// The fix.
        fix: GpsFix,
    },
    /// A feedback event from a device.
    Feedback(FeedbackEvent),
    /// A recommendation schedule delivered to a device.
    Delivery {
        /// The listener.
        user: UserId,
        /// The packed schedule.
        schedule: SlotSchedule,
    },
    /// An editor pushes a clip to one listener (Fig. 6).
    Inject {
        /// Target listener.
        user: UserId,
        /// The clip to deliver.
        clip: ClipId,
        /// When the editor submitted it.
        at: TimePoint,
    },
    /// A clip finished ingest and classification.
    Ingested {
        /// The clip.
        clip: ClipId,
        /// Classifier confidence.
        confidence: f64,
    },
    /// A device tuned to a service.
    Tuned {
        /// The listener.
        user: UserId,
        /// The service.
        service: ServiceIndex,
    },
}

/// An enqueued message with delivery metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// The payload.
    pub message: BusMessage,
    /// Publication instant.
    pub published_at: TimePoint,
    /// Hops this message has taken (publish = 1, each forward +1).
    pub hops: u32,
    /// Bus-unique sequence number, preserved across forwards and wire
    /// duplication; consumers deduplicate on it.
    pub seq: u64,
}

/// What a bounded topic queue does when it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Evict the oldest queued message to make room (telemetry topics:
    /// a fresher fix is worth more than a stale one).
    DropOldest,
    /// Refuse the new message (editorial topic: a push must fail
    /// loudly, not evict another editor's work).
    Reject,
}

/// Capacity and overflow behaviour of one topic queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueuePolicy {
    /// Maximum queued messages.
    pub capacity: usize,
    /// What happens beyond `capacity`.
    pub overflow: OverflowPolicy,
}

impl QueuePolicy {
    fn for_topic(topic: Topic) -> Self {
        match topic {
            Topic::Tracking | Topic::Feedback | Topic::Ingest => {
                QueuePolicy { capacity: 65_536, overflow: OverflowPolicy::DropOldest }
            }
            Topic::Recommendation => {
                QueuePolicy { capacity: 4_096, overflow: OverflowPolicy::DropOldest }
            }
            Topic::Editorial => QueuePolicy { capacity: 256, overflow: OverflowPolicy::Reject },
        }
    }
}

/// Why a message ended up in the dead-letter store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeadLetterReason {
    /// Evicted from a full queue under [`OverflowPolicy::DropOldest`].
    Overflow,
    /// Refused by a full queue under [`OverflowPolicy::Reject`].
    Rejected,
    /// A tracked delivery exhausted its retry budget.
    RetryBudgetExhausted,
}

impl std::fmt::Display for DeadLetterReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeadLetterReason::Overflow => "overflow",
            DeadLetterReason::Rejected => "rejected",
            DeadLetterReason::RetryBudgetExhausted => "retry-budget-exhausted",
        })
    }
}

/// A message the bus gave up on, kept for the operator instead of
/// being silently discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// The topic the message was travelling on.
    pub topic: Topic,
    /// The message itself.
    pub envelope: Envelope,
    /// Why it was dead-lettered.
    pub reason: DeadLetterReason,
    /// When it was dead-lettered (bus clock).
    pub at: TimePoint,
}

/// Error returned by [`Bus::publish_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishError {
    /// The topic's bounded queue is full and its policy is
    /// [`OverflowPolicy::Reject`].
    QueueFull {
        /// The full topic.
        topic: Topic,
        /// Its configured capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::QueueFull { topic, capacity } => {
                write!(f, "topic {topic:?} rejected publish: queue full ({capacity} messages)")
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// The bus.
#[derive(Debug, Clone)]
pub struct Bus {
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) queues: HashMap<Topic, VecDeque<Envelope>>,
    pub(crate) dead_letters: Vec<DeadLetter>,
    pub(crate) published: u64,
    pub(crate) delivered: u64,
    pub(crate) overflowed: u64,
    pub(crate) rejected: u64,
    pub(crate) next_seq: u64,
    pub(crate) clock: TimePoint,
}

impl Default for Bus {
    fn default() -> Self {
        Bus {
            transport: Box::new(PerfectTransport::new()),
            queues: HashMap::new(),
            dead_letters: Vec::new(),
            published: 0,
            delivered: 0,
            overflowed: 0,
            rejected: 0,
            next_seq: 1,
            clock: TimePoint::EPOCH,
        }
    }
}

impl Bus {
    /// Creates an empty bus over the loss-free default transport.
    #[must_use]
    pub fn new() -> Self {
        Bus::default()
    }

    /// Replaces the wire under the bus. Messages already in flight on
    /// the old transport are discarded.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    /// Advances the bus clock (monotonic; earlier instants are
    /// ignored). The clock stamps dead letters and tells the transport
    /// which in-flight messages have arrived.
    pub fn advance_clock(&mut self, now: TimePoint) {
        self.clock = self.clock.max(now);
    }

    /// Publishes a message on a topic, returning its sequence number.
    ///
    /// Infallible from the caller's view: if the topic's queue is full
    /// under a [`OverflowPolicy::Reject`] policy the message is
    /// dead-lettered rather than delivered, which
    /// [`Bus::publish_checked`] reports explicitly.
    pub fn publish(&mut self, topic: Topic, message: BusMessage, now: TimePoint) -> u64 {
        self.publish_checked(topic, message, now).map_or(0, |e| e.seq)
    }

    /// Publishes a message on a topic, failing when the topic's
    /// bounded queue rejects it.
    ///
    /// On success returns a copy of the sent envelope (callers that
    /// track acknowledged deliveries keep it for re-sends).
    ///
    /// # Errors
    /// [`PublishError::QueueFull`] when the topic is at capacity and
    /// its policy is [`OverflowPolicy::Reject`]; the message is
    /// dead-lettered with [`DeadLetterReason::Rejected`].
    pub fn publish_checked(
        &mut self,
        topic: Topic,
        message: BusMessage,
        now: TimePoint,
    ) -> Result<Envelope, PublishError> {
        self.advance_clock(now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let envelope = Envelope { message, published_at: now, hops: 1, seq };
        let policy = QueuePolicy::for_topic(topic);
        if policy.overflow == OverflowPolicy::Reject && self.pending(topic) >= policy.capacity {
            self.rejected += 1;
            self.dead_letters.push(DeadLetter {
                topic,
                envelope,
                reason: DeadLetterReason::Rejected,
                at: self.clock,
            });
            return Err(PublishError::QueueFull { topic, capacity: policy.capacity });
        }
        self.transport.send(topic, envelope.clone(), now);
        self.published += 1;
        Ok(envelope)
    }

    /// Re-sends an envelope on a topic without counting a new
    /// publication (the retry path: same seq, same hops).
    pub fn resend(&mut self, topic: Topic, envelope: Envelope, now: TimePoint) {
        self.advance_clock(now);
        self.transport.send(topic, envelope, now);
    }

    /// Moves messages that have arrived on the wire into the topic's
    /// bounded queue, applying the overflow policy.
    fn pump(&mut self, topic: Topic) {
        let arrived = self.transport.receive(topic, self.clock);
        if arrived.is_empty() {
            return;
        }
        let policy = QueuePolicy::for_topic(topic);
        let queue = self.queues.entry(topic).or_default();
        for envelope in arrived {
            if queue.len() >= policy.capacity {
                match policy.overflow {
                    OverflowPolicy::DropOldest => {
                        if let Some(oldest) = queue.pop_front() {
                            self.overflowed += 1;
                            self.dead_letters.push(DeadLetter {
                                topic,
                                envelope: oldest,
                                reason: DeadLetterReason::Overflow,
                                at: self.clock,
                            });
                        }
                    }
                    OverflowPolicy::Reject => {
                        self.rejected += 1;
                        self.dead_letters.push(DeadLetter {
                            topic,
                            envelope,
                            reason: DeadLetterReason::Rejected,
                            at: self.clock,
                        });
                        continue;
                    }
                }
            }
            queue.push_back(envelope);
        }
    }

    /// Drains every message that has arrived on a topic, FIFO.
    pub fn drain(&mut self, topic: Topic) -> Vec<Envelope> {
        self.pump(topic);
        let out: Vec<Envelope> =
            self.queues.get_mut(&topic).map(|q| q.drain(..).collect()).unwrap_or_default();
        self.delivered += out.len() as u64;
        out
    }

    /// Messages waiting on a topic (queued or still on the wire).
    #[must_use]
    pub fn pending(&self, topic: Topic) -> usize {
        self.queues.get(&topic).map_or(0, VecDeque::len) + self.transport.in_flight(topic)
    }

    /// Total messages published since start.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Total messages drained since start.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages evicted from full queues (`DropOldest` overflows).
    #[must_use]
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Messages refused by full Reject queues.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The dead-letter store: everything the bus gave up on, with
    /// reasons.
    #[must_use]
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead_letters
    }

    /// Records a delivery the engine gave up on after exhausting its
    /// retry budget.
    pub fn dead_letter_exhausted(&mut self, topic: Topic, envelope: Envelope, at: TimePoint) {
        self.advance_clock(at);
        self.dead_letters.push(DeadLetter {
            topic,
            envelope,
            reason: DeadLetterReason::RetryBudgetExhausted,
            at: self.clock,
        });
    }

    /// Cumulative fault counters of the underlying wire.
    #[must_use]
    pub fn wire_stats(&self) -> WireStats {
        self.transport.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultProfile, FaultyTransport};

    fn tuned(user: u64) -> BusMessage {
        BusMessage::Tuned { user: UserId(user), service: ServiceIndex(0) }
    }

    #[test]
    fn publish_drain_fifo() {
        let mut bus = Bus::new();
        let t = TimePoint(10);
        bus.publish(Topic::Tracking, tuned(1), t);
        bus.publish(Topic::Tracking, tuned(2), t);
        let msgs = bus.drain(Topic::Tracking);
        assert_eq!(msgs.len(), 2);
        assert!(matches!(msgs[0].message, BusMessage::Tuned { user: UserId(1), .. }));
        assert!(matches!(msgs[1].message, BusMessage::Tuned { user: UserId(2), .. }));
        assert_eq!(bus.pending(Topic::Tracking), 0);
    }

    #[test]
    fn topics_are_isolated() {
        let mut bus = Bus::new();
        bus.publish(Topic::Feedback, tuned(1), TimePoint(0));
        assert_eq!(bus.pending(Topic::Tracking), 0);
        assert_eq!(bus.pending(Topic::Feedback), 1);
        assert!(bus.drain(Topic::Tracking).is_empty());
    }

    #[test]
    fn counters_track_volume() {
        let mut bus = Bus::new();
        for i in 0..5 {
            bus.publish(Topic::Tracking, tuned(i), TimePoint(i));
        }
        bus.drain(Topic::Tracking);
        assert_eq!(bus.published(), 5);
        assert_eq!(bus.delivered(), 5);
    }

    #[test]
    fn sequence_numbers_are_unique() {
        let mut bus = Bus::new();
        let a = bus.publish(Topic::Editorial, tuned(1), TimePoint(0));
        let b = bus.publish(Topic::Editorial, tuned(2), TimePoint(0));
        assert_ne!(a, b);
    }

    #[test]
    fn drop_oldest_topic_sheds_load_into_dead_letters() {
        let mut bus = Bus::new();
        for i in 0..65_538 {
            bus.publish(Topic::Tracking, tuned(i), TimePoint(i));
        }
        let msgs = bus.drain(Topic::Tracking);
        assert_eq!(msgs.len(), 65_536, "queue bounded at capacity");
        assert!(
            matches!(msgs[0].message, BusMessage::Tuned { user: UserId(2), .. }),
            "oldest messages were evicted"
        );
        assert_eq!(bus.overflowed(), 2);
        assert_eq!(bus.dead_letters().len(), 2);
        assert!(bus
            .dead_letters()
            .iter()
            .all(|d| d.reason == DeadLetterReason::Overflow && d.topic == Topic::Tracking));
    }

    #[test]
    fn editorial_topic_rejects_when_full() {
        let mut bus = Bus::new();
        for i in 0..256 {
            assert!(bus.publish_checked(Topic::Editorial, tuned(i), TimePoint(0)).is_ok());
        }
        let err = bus.publish_checked(Topic::Editorial, tuned(256), TimePoint(1));
        assert_eq!(err, Err(PublishError::QueueFull { topic: Topic::Editorial, capacity: 256 }));
        assert_eq!(bus.rejected(), 1);
        assert_eq!(bus.dead_letters().len(), 1);
        assert_eq!(bus.dead_letters()[0].reason, DeadLetterReason::Rejected);
        // The accepted messages are intact.
        assert_eq!(bus.drain(Topic::Editorial).len(), 256);
    }

    #[test]
    fn faulty_transport_holds_delayed_messages_until_clock_advances() {
        let profile = FaultProfile {
            delay_rate: 1.0,
            max_delay: pphcr_geo::TimeSpan::seconds(20),
            ..FaultProfile::none()
        };
        let mut bus = Bus::new();
        bus.set_transport(Box::new(FaultyTransport::new(profile, 42)));
        bus.publish(Topic::Recommendation, tuned(1), TimePoint(100));
        assert!(bus.drain(Topic::Recommendation).is_empty(), "still in flight");
        assert_eq!(bus.pending(Topic::Recommendation), 1);
        bus.advance_clock(TimePoint(140));
        assert_eq!(bus.drain(Topic::Recommendation).len(), 1);
    }
}
