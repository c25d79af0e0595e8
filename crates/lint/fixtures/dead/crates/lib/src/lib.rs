//! Dead-rule fixture library.
pub mod agent;
pub mod parts;

pub use agent::serve;
