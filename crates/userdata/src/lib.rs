//! User data stores for PPHCR.
//!
//! The paper's user-management component (Fig. 3) keeps three stores,
//! all reproduced here:
//!
//! * the **profiles DB** ("the user's demographic details") —
//!   [`profile`],
//! * the **feedbacks DB** ("content navigation logs sent by the
//!   listener's app together with the implicit or explicit rating") —
//!   [`feedback`], including the decayed per-category preference model
//!   the recommender reads,
//! * the **tracking data DB** ("a `PostGIS` based spatial DB with the
//!   listener's geographical information") — [`tracking`], wrapping the
//!   trajectory analytics of `pphcr-trajectory`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod feedback;
pub mod profile;
pub mod tracking;

pub use feedback::{FeedbackEvent, FeedbackKind, FeedbackStore, PreferenceVector};
pub use profile::{AgeBand, ProfileStore, UserId, UserProfile};
pub use tracking::TrackingStore;
