//! A simulated automatic speech recognizer.
//!
//! The paper's news pipeline transcribes speech with "an automatic
//! speech recognizer trained with the Italian language". We do not have
//! Rai's ASR (or its audio); per the substitution rules in `DESIGN.md`
//! we model what the ASR *does to the downstream classifier*: it turns a
//! ground-truth script into a token stream corrupted at a configurable
//! word-error rate (WER), split between substitutions, deletions and
//! insertions as real recognizers are scored. Experiment E8 sweeps the
//! WER and measures classification degradation — the property that
//! actually matters to PPHCR.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the simulated recognizer.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AsrConfig {
    /// Overall word-error rate in `[0, 1)`: the expected fraction of
    /// words affected by an error.
    pub wer: f64,
    /// Fraction of errors that are substitutions (the rest split evenly
    /// between deletions and insertions). Real ASR error profiles are
    /// substitution-heavy.
    pub substitution_share: f64,
    /// RNG seed — the recognizer is deterministic per seed.
    pub seed: u64,
}

impl Default for AsrConfig {
    fn default() -> Self {
        // ~15 % WER: a realistic figure for broadcast Italian in 2017.
        AsrConfig { wer: 0.15, substitution_share: 0.6, seed: 7 }
    }
}

/// The simulated recognizer.
#[derive(Debug, Clone)]
pub struct SimulatedAsr {
    config: AsrConfig,
    rng: StdRng,
}

impl SimulatedAsr {
    /// Creates a recognizer.
    ///
    /// # Panics
    /// Panics if `wer` is outside `[0, 1)` or `substitution_share`
    /// outside `[0, 1]`.
    #[must_use]
    pub fn new(config: AsrConfig) -> Self {
        assert!((0.0..1.0).contains(&config.wer), "wer must be in [0, 1)");
        assert!(
            (0.0..=1.0).contains(&config.substitution_share),
            "substitution share must be in [0, 1]"
        );
        SimulatedAsr { config, rng: StdRng::seed_from_u64(config.seed) }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> AsrConfig {
        self.config
    }

    /// "Transcribes" a ground-truth script: returns the script's tokens
    /// with WER-distributed errors applied.
    ///
    /// Substituted and inserted tokens are drawn from `confusion_pool`
    /// (the recognizer's language-model vocabulary — in the simulation,
    /// a sample of corpus tokens). With an empty pool, substitutions
    /// garble the token in place and insertions duplicate neighbours,
    /// so the WER contract holds regardless.
    pub fn transcribe(&mut self, script: &[String], confusion_pool: &[String]) -> Vec<String> {
        let mut out = Vec::with_capacity(script.len());
        let share_sub = self.config.substitution_share;
        for token in script {
            if self.rng.gen::<f64>() >= self.config.wer {
                out.push(token.clone());
                continue;
            }
            let kind = self.rng.gen::<f64>();
            if kind < share_sub {
                // Substitution.
                out.push(self.confused_token(token, confusion_pool));
            } else if kind < share_sub + (1.0 - share_sub) / 2.0 {
                // Deletion: emit nothing.
            } else {
                // Insertion: keep the word and add a spurious one.
                out.push(token.clone());
                out.push(self.confused_token(token, confusion_pool));
            }
        }
        out
    }

    fn confused_token(&mut self, original: &str, pool: &[String]) -> String {
        if pool.is_empty() {
            // Garble deterministically: reverse the characters.
            original.chars().rev().collect()
        } else {
            pool[self.rng.gen_range(0..pool.len())].clone()
        }
    }
}

/// Word error rate between a reference script and a hypothesis:
/// `(S + D + I) / N` via Levenshtein alignment on tokens.
#[must_use]
// lint: allow(dead) — tests/properties.rs::asr_wer_calibrated checks SimulatedAsr's WER through it
pub fn word_error_rate(reference: &[String], hypothesis: &[String]) -> f64 {
    if reference.is_empty() {
        return if hypothesis.is_empty() { 0.0 } else { 1.0 };
    }
    let n = reference.len();
    let m = hypothesis.len();
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let sub = prev[j - 1] + usize::from(reference[i - 1] != hypothesis[j - 1]);
            cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m] as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("parola{i}")).collect()
    }

    fn pool() -> Vec<String> {
        (0..50).map(|i| format!("confusa{i}")).collect()
    }

    #[test]
    fn zero_wer_is_identity() {
        let mut asr = SimulatedAsr::new(AsrConfig { wer: 0.0, ..Default::default() });
        let s = script(100);
        assert_eq!(asr.transcribe(&s, &pool()), s);
    }

    #[test]
    fn measured_wer_tracks_configured_wer() {
        for target in [0.05, 0.15, 0.35] {
            let mut asr =
                SimulatedAsr::new(AsrConfig { wer: target, seed: 42, ..Default::default() });
            let s = script(5_000);
            let h = asr.transcribe(&s, &pool());
            let measured = word_error_rate(&s, &h);
            assert!((measured - target).abs() < 0.03, "target {target}, measured {measured}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = AsrConfig { wer: 0.3, seed: 9, ..Default::default() };
        let s = script(200);
        let a = SimulatedAsr::new(cfg).transcribe(&s, &pool());
        let b = SimulatedAsr::new(cfg).transcribe(&s, &pool());
        assert_eq!(a, b);
        let c = SimulatedAsr::new(AsrConfig { seed: 10, ..cfg }).transcribe(&s, &pool());
        assert_ne!(a, c);
    }

    #[test]
    fn empty_pool_still_meets_wer() {
        let mut asr = SimulatedAsr::new(AsrConfig { wer: 0.2, seed: 3, ..Default::default() });
        let s = script(2_000);
        let h = asr.transcribe(&s, &[]);
        let measured = word_error_rate(&s, &h);
        assert!((measured - 0.2).abs() < 0.04, "measured {measured}");
    }

    #[test]
    fn wer_metric_basics() {
        let r: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(word_error_rate(&r, &r), 0.0);
        // One substitution.
        let h: Vec<String> = ["a", "x", "c"].iter().map(|s| s.to_string()).collect();
        assert!((word_error_rate(&r, &h) - 1.0 / 3.0).abs() < 1e-12);
        // One deletion.
        let h: Vec<String> = ["a", "c"].iter().map(|s| s.to_string()).collect();
        assert!((word_error_rate(&r, &h) - 1.0 / 3.0).abs() < 1e-12);
        // One insertion.
        let h: Vec<String> = ["a", "b", "x", "c"].iter().map(|s| s.to_string()).collect();
        assert!((word_error_rate(&r, &h) - 1.0 / 3.0).abs() < 1e-12);
        // Degenerate references.
        assert_eq!(word_error_rate(&[], &[]), 0.0);
        assert_eq!(word_error_rate(&[], &h), 1.0);
    }

    #[test]
    fn empty_script_transcribes_empty() {
        let mut asr = SimulatedAsr::new(AsrConfig::default());
        assert!(asr.transcribe(&[], &pool()).is_empty());
    }

    #[test]
    #[should_panic(expected = "wer must be in [0, 1)")]
    fn invalid_wer_panics() {
        let _ = SimulatedAsr::new(AsrConfig { wer: 1.0, ..Default::default() });
    }
}
