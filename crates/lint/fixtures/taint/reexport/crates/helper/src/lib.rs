//! Re-exports `pipeline::parse` as `pphcr_helper::parse`.
pub mod pipeline;

pub use pipeline::parse;
