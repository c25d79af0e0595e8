//! Property-based tests for the text pipeline.

use pphcr_nlp::{word_error_rate, AsrConfig, NaiveBayes, SimulatedAsr, Vocabulary};
use proptest::prelude::*;

fn arb_words(max: usize) -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z]{2,10}", 0..max)
}

proptest! {
    /// Interning assigns stable dense ids.
    #[test]
    fn vocabulary_ids_dense_and_stable(words in arb_words(60)) {
        let mut v = Vocabulary::new();
        let ids = v.intern_all(&words);
        prop_assert_eq!(ids.len(), words.len());
        for (w, id) in words.iter().zip(&ids) {
            prop_assert_eq!(v.get(w), Some(*id));
            prop_assert_eq!(v.token(*id), Some(w.as_str()));
        }
        prop_assert!(v.len() <= words.len().max(1));
        // Re-interning changes nothing.
        let ids2 = v.intern_all(&words);
        prop_assert_eq!(ids, ids2);
    }

    /// WER is 0 exactly on identical sequences, and never negative;
    /// against an empty hypothesis it equals 1 (all deletions).
    #[test]
    fn wer_basic_properties(words in arb_words(40)) {
        prop_assert_eq!(word_error_rate(&words, &words), 0.0);
        if !words.is_empty() {
            prop_assert_eq!(word_error_rate(&words, &[]), 1.0);
        }
    }

    /// The simulated recognizer's measured WER tracks its configured
    /// WER on long scripts.
    #[test]
    fn asr_wer_calibrated(wer in 0.0f64..0.6, seed in 0u64..1_000) {
        let script: Vec<String> = (0..2_000).map(|i| format!("w{i}")).collect();
        let pool: Vec<String> = (0..50).map(|i| format!("p{i}")).collect();
        let mut asr = SimulatedAsr::new(AsrConfig { wer, seed, ..Default::default() });
        let out = asr.transcribe(&script, &pool);
        let measured = word_error_rate(&script, &out);
        prop_assert!((measured - wer).abs() < 0.06, "target {} measured {}", wer, measured);
    }

    /// Naive Bayes posteriors always form a distribution, and training
    /// on a token makes its class (weakly) more likely.
    #[test]
    fn bayes_posterior_is_distribution(
        docs in prop::collection::vec((0u32..5, prop::collection::vec(0u32..40, 1..20)), 1..30),
        query in prop::collection::vec(0u32..40, 0..20),
    ) {
        let mut nb = NaiveBayes::new(5, 1.0);
        for (cat, tokens) in &docs {
            nb.train(*cat, tokens);
        }
        let pred = nb.predict(&query).unwrap();
        let sum: f64 = pred.posterior.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(pred.posterior.iter().all(|&p| (0.0..=1.0).contains(&p)));
        prop_assert!(pred.category < 5);
    }
}
