//! Text analytics for PPHCR: naive Bayes classification and a
//! simulated speech recognizer.
//!
//! Paper §1.2: *"News programs, including large parts of speech, are
//! analyzed using an automatic speech recognizer trained with the
//! Italian language. The extracted text is then classified with a
//! Bayesian classifier trained with a set of news, according to a set
//! of 30 categories spacing from art to culture, music, economics."*
//!
//! The real ASR is proprietary; [`asr`] simulates one as a noisy channel
//! with a configurable word-error rate so classification robustness can
//! be swept (experiment E8 in `DESIGN.md`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asr;
pub mod bayes;
pub mod vocab;

pub use asr::{word_error_rate, AsrConfig, SimulatedAsr};
pub use bayes::{NaiveBayes, Prediction};
pub use vocab::Vocabulary;
