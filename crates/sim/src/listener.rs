//! The listener behaviour model.
//!
//! Closes the simulation loop: given a commuter's ground-truth tastes
//! and a played item, decide what the human would do — listen through,
//! like, skip, or give up and change channel. The paper's stated goal
//! ("decreasing their propensity to channel-surf") becomes measurable:
//! run the same morning with and without personalization and compare
//! skip/surf counts (experiments E4, E9).

use crate::population::Commuter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What the simulated listener did with one item.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ListeningOutcome {
    /// Heard it to the end and pressed like.
    LikedIt,
    /// Heard it to the end.
    ListenedThrough,
    /// Skipped after hearing `fraction` of it.
    Skipped {
        /// Fraction heard before skipping, in `(0, 1)`.
        fraction: f64,
    },
    /// Frustration boiled over: changed channel.
    Surfed,
}

/// The behaviour model.
#[derive(Debug, Clone)]
pub struct ListenerModel {
    /// Taste above which the listener likes explicitly.
    pub like_threshold: f64,
    /// Taste below which the listener skips.
    pub skip_threshold: f64,
    /// Consecutive skips after which the listener surfs away.
    pub surf_after_skips: u32,
    consecutive_skips: u32,
    rng: StdRng,
}

impl ListenerModel {
    /// Creates a model with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ListenerModel {
            like_threshold: 0.6,
            skip_threshold: -0.05,
            surf_after_skips: 3,
            consecutive_skips: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Simulates the commuter hearing an item of category `category`.
    pub fn outcome(&mut self, commuter: &Commuter, category: u16) -> ListeningOutcome {
        let taste = commuter.taste(category);
        // Small idiosyncratic wobble so behaviour is not a step function.
        let effective = taste + self.rng.gen_range(-0.15..0.15);
        if effective < self.skip_threshold {
            self.consecutive_skips += 1;
            if self.consecutive_skips >= self.surf_after_skips {
                self.consecutive_skips = 0;
                return ListeningOutcome::Surfed;
            }
            return ListeningOutcome::Skipped { fraction: self.rng.gen_range(0.05..0.4) };
        }
        self.consecutive_skips = 0;
        if effective > self.like_threshold {
            ListeningOutcome::LikedIt
        } else {
            ListeningOutcome::ListenedThrough
        }
    }

    /// Resets frustration (new session).
    pub fn reset(&mut self) {
        self.consecutive_skips = 0;
    }
}

/// Aggregate behaviour metrics over a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionMetrics {
    /// Items played.
    pub items: u32,
    /// Items heard to the end.
    pub finished: u32,
    /// Skips.
    pub skips: u32,
    /// Explicit likes.
    pub likes: u32,
    /// Channel surfs.
    pub surfs: u32,
}

impl SessionMetrics {
    /// Records one outcome.
    pub fn record(&mut self, outcome: ListeningOutcome) {
        self.items += 1;
        match outcome {
            ListeningOutcome::LikedIt => {
                self.finished += 1;
                self.likes += 1;
            }
            ListeningOutcome::ListenedThrough => self.finished += 1,
            ListeningOutcome::Skipped { .. } => self.skips += 1,
            ListeningOutcome::Surfed => self.surfs += 1,
        }
    }

    /// Skip rate (skips + surfs over items), in `[0, 1]`.
    #[must_use]
    pub fn skip_rate(&self) -> f64 {
        if self.items == 0 {
            return 0.0;
        }
        f64::from(self.skips + self.surfs) / f64::from(self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_catalog::ServiceIndex;
    use pphcr_geo::NodeId;

    fn commuter_with_tastes(tastes: Vec<f64>) -> Commuter {
        Commuter {
            index: 0,
            home: NodeId(0),
            work: NodeId(1),
            departure_out_s: 8 * 3_600,
            departure_back_s: 18 * 3_600,
            service: ServiceIndex(0),
            tastes,
        }
    }

    #[test]
    fn loved_content_is_finished_and_often_liked() {
        let mut tastes = vec![0.0; 30];
        tastes[8] = 0.95;
        let c = commuter_with_tastes(tastes);
        let mut model = ListenerModel::new(1);
        let mut metrics = SessionMetrics::default();
        for _ in 0..50 {
            metrics.record(model.outcome(&c, 8));
        }
        assert!(metrics.finished >= 48, "{metrics:?}");
        assert!(metrics.likes > 20, "{metrics:?}");
        assert_eq!(metrics.surfs, 0);
    }

    #[test]
    fn hated_content_is_skipped_and_surfed() {
        let mut tastes = vec![0.0; 30];
        tastes[5] = -0.9;
        let c = commuter_with_tastes(tastes);
        let mut model = ListenerModel::new(2);
        let mut metrics = SessionMetrics::default();
        for _ in 0..30 {
            metrics.record(model.outcome(&c, 5));
        }
        assert!(metrics.skip_rate() > 0.9, "{metrics:?}");
        assert!(metrics.surfs > 0, "every third skip surfs: {metrics:?}");
    }

    #[test]
    fn surf_fires_after_consecutive_skips() {
        let mut tastes = vec![0.0; 30];
        tastes[5] = -1.0;
        tastes[8] = 1.0;
        let c = commuter_with_tastes(tastes);
        let mut model = ListenerModel::new(3);
        let a = model.outcome(&c, 5);
        let b = model.outcome(&c, 5);
        assert!(matches!(a, ListeningOutcome::Skipped { .. }));
        assert!(matches!(b, ListeningOutcome::Skipped { .. }));
        let third = model.outcome(&c, 5);
        assert_eq!(third, ListeningOutcome::Surfed);
        // A good item in between resets frustration.
        model.outcome(&c, 5);
        model.outcome(&c, 8);
        assert_eq!(model.consecutive_skips, 0);
    }

    #[test]
    fn metrics_aggregate_correctly() {
        let mut m = SessionMetrics::default();
        m.record(ListeningOutcome::LikedIt);
        m.record(ListeningOutcome::Skipped { fraction: 0.2 });
        m.record(ListeningOutcome::ListenedThrough);
        m.record(ListeningOutcome::Surfed);
        assert_eq!(m.items, 4);
        assert_eq!(m.finished, 2);
        assert_eq!(m.likes, 1);
        assert_eq!(m.skips, 1);
        assert_eq!(m.surfs, 1);
        assert!((m.skip_rate() - 0.5).abs() < 1e-12);
        assert_eq!(SessionMetrics::default().skip_rate(), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut tastes = vec![0.0; 30];
        tastes[2] = 0.3;
        let c = commuter_with_tastes(tastes);
        let seq = |seed| {
            let mut m = ListenerModel::new(seed);
            (0..20).map(|_| m.outcome(&c, 2)).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
    }
}
