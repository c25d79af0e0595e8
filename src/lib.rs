//! # PPHCR — Proactive Personalized Hybrid Content Radio
//!
//! A from-scratch Rust reproduction of *Context-Aware Proactive
//! Personalization of Linear Audio Content* (Casagranda, Sapino,
//! Candan — EDBT 2017): a platform that enriches linear broadcast radio
//! by proactively replacing parts of the live stream with audio clips
//! relevant to the listener's context — location, trajectory, speed,
//! time and learned preferences.
//!
//! This crate is the facade: it re-exports the platform crates under
//! one roof. Start with [`core::Engine`] for the integrated platform,
//! or use the layers directly:
//!
//! * [`geo`] — coordinates, spatial index, road networks,
//! * [`trajectory`] — DBSCAN staying points, RDP simplification,
//!   destination & ΔT prediction,
//! * [`audio`] — deterministic PCM substrate: splicing, time-shift,
//! * [`nlp`] — naive Bayes classifier, simulated ASR,
//! * [`catalog`] — services, EPG, clip metadata, content repository,
//! * [`userdata`] — profiles, feedback learning, tracking store,
//! * [`recommender`] — compound scoring, the proactivity model, the ΔT
//!   slot scheduler,
//! * [`obs`] — deterministic counters, histograms, spans and the
//!   decision trace,
//! * [`core`] — the engine, replacement planner, player, injection,
//!   network-cost model, dashboard,
//! * [`sim`] — the synthetic world and the experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use pphcr::core::{Engine, EngineConfig};
//! use pphcr::catalog::{CategoryId, ClipKind, ServiceIndex};
//! use pphcr::geo::{TimePoint, TimeSpan};
//! use pphcr::userdata::{AgeBand, UserId, UserProfile};
//!
//! let mut engine = Engine::new(EngineConfig::default());
//! let now = TimePoint::at(0, 9, 0, 0);
//! engine.register_user(
//!     UserProfile {
//!         id: UserId(1),
//!         name: "Greg".into(),
//!         age_band: AgeBand::Adult,
//!         favourite_service: ServiceIndex(0),
//!     },
//!     now,
//! );
//! let (clip, _) = engine.ingest_clip(
//!     "Tech news",
//!     ClipKind::Podcast,
//!     TimeSpan::minutes(5),
//!     now,
//!     None,
//!     &[],
//!     Some(CategoryId::from_name("technology").unwrap()),
//! );
//! // Greg skips the live football talk: the platform reacts with a
//! // personalized clip instead of losing him to another station.
//! let events = engine.skip(UserId(1), now);
//! assert!(!events.is_empty());
//! assert!(engine.heard(UserId(1)).contains(&clip));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use pphcr_audio as audio;
pub use pphcr_catalog as catalog;
pub use pphcr_core as core;
pub use pphcr_geo as geo;
pub use pphcr_nlp as nlp;
pub use pphcr_obs as obs;
pub use pphcr_recommender as recommender;
pub use pphcr_sim as sim;
pub use pphcr_trajectory as trajectory;
pub use pphcr_userdata as userdata;
