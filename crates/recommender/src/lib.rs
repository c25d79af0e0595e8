//! The context-aware proactive recommender — the paper's core
//! contribution.
//!
//! Paper §1.2: *"For each user the recommender filters a candidate set
//! of media items using content-based relevance based on past
//! listener's feedbacks. Then a compound relevance score is calculated
//! through weighted combination of the content-based relevance and the
//! context-based relevance (location, trajectory, speed and time
//! information). The recommender system then uses this score to
//! identify the recommendation set of content to be delivered to the
//! listener according to a relevance objective function and temporal
//! scheduling and presentation constraints, taking into account driving
//! conditions as well as driver's projected distraction levels at
//! intersections and roundabouts at user's projected driving path."*
//!
//! Module map (each sentence above → one module):
//!
//! * [`context`] — the listener context handed to the recommender,
//! * [`score`] — content-based, context-based and compound relevance,
//! * [`candidates`] — candidate filtering from the repository,
//! * [`scheduler`] — the ΔT slot scheduler (relevance-maximizing
//!   selection under temporal and distraction constraints, Fig. 2),
//! * [`proactive`] — the two-phase proactivity model (decide *when*,
//!   then *what*),
//! * [`baselines`] — popularity / random baselines used by the
//!   evaluation harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod candidates;
pub mod context;
pub mod ensemble;
pub mod proactive;
pub mod scheduler;
pub mod score;

pub use candidates::{sanitize_score, CandidateFilter, RetrievalStats, ScoredClip};
pub use context::{Activity, Ambient, DriveContext, ListenerContext, Weather};
pub use ensemble::{category_entropy, diversify, ensemble_similarity};
pub use proactive::{ProactivityModel, Trigger};
pub use scheduler::{ScheduledItem, SchedulerConfig, SlotSchedule};
pub use score::ScoringWeights;

use pphcr_catalog::ContentRepository;
use pphcr_userdata::{FeedbackStore, UserId};
use std::collections::HashSet;

/// The recommender's configuration (weights, filter, scheduler) and its
/// ranking step: filter → score. Callers pack the ranked list with
/// [`SchedulerConfig::pack`].
#[derive(Debug, Clone, Default)]
pub struct Recommender {
    /// Relevance weights.
    pub weights: ScoringWeights,
    /// Candidate filtering parameters.
    pub filter: CandidateFilter,
    /// Slot scheduling parameters.
    pub scheduler: SchedulerConfig,
}

impl Recommender {
    /// Ranks candidate clips for a listener in context (no scheduling).
    /// Returns clips sorted by descending compound score.
    #[must_use]
    pub fn rank(
        &self,
        repo: &ContentRepository,
        feedback: &FeedbackStore,
        user: UserId,
        ctx: &ListenerContext,
    ) -> Vec<ScoredClip> {
        let prefs = feedback.preferences(user, ctx.now);
        let none_heard = HashSet::new();
        self.filter
            .candidates_indexed_excluding_stats(repo, &prefs, ctx, &self.weights, &none_heard)
            .0
    }
}
