//! Multinomial naive Bayes classification.
//!
//! The paper classifies ASR transcripts "with a Bayesian classifier
//! trained with a set of news, according to a set of 30 categories".
//! This is that classifier: multinomial naive Bayes with Laplace
//! smoothing, computed in log space, with incremental training (the
//! clip-data-management component retrains as each day's podcasts
//! arrive).

use crate::vocab::Vocabulary;
use serde::{Deserialize, Serialize};

/// A classification result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Winning category index.
    pub category: u32,
    /// Normalized posterior of the winner, in `(0, 1]`.
    pub confidence: f64,
    /// Posterior per category (sums to 1), indexed by category.
    pub posterior: Vec<f64>,
}

/// Multinomial naive Bayes over interned tokens.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NaiveBayes {
    n_categories: u32,
    /// Documents seen per category.
    doc_counts: Vec<u64>,
    /// token id → per-category token counts (dense per token).
    token_counts: Vec<Vec<u64>>,
    /// Total tokens per category.
    category_tokens: Vec<u64>,
    total_docs: u64,
    /// Laplace smoothing constant.
    alpha: f64,
}

impl NaiveBayes {
    /// Creates an untrained classifier over `n_categories` categories
    /// with Laplace constant `alpha`.
    ///
    /// # Panics
    /// Panics if `n_categories` is zero or `alpha` is not positive.
    #[must_use]
    pub fn new(n_categories: u32, alpha: f64) -> Self {
        assert!(n_categories > 0, "need at least one category");
        assert!(alpha > 0.0, "smoothing constant must be positive");
        NaiveBayes {
            n_categories,
            doc_counts: vec![0; n_categories as usize],
            token_counts: Vec::new(),
            category_tokens: vec![0; n_categories as usize],
            total_docs: 0,
            alpha,
        }
    }

    /// Number of categories.
    #[must_use]
    pub fn n_categories(&self) -> u32 {
        self.n_categories
    }

    /// Adds one training document.
    ///
    /// # Panics
    /// Panics if `category` is out of range.
    pub fn train(&mut self, category: u32, token_ids: &[u32]) {
        assert!(category < self.n_categories, "category {category} out of range");
        self.doc_counts[category as usize] += 1;
        self.total_docs += 1;
        for &t in token_ids {
            let t = t as usize;
            if t >= self.token_counts.len() {
                self.token_counts.resize_with(t + 1, || vec![0; self.n_categories as usize]);
            }
            self.token_counts[t][category as usize] += 1;
            self.category_tokens[category as usize] += 1;
        }
    }

    /// Classifies a document. Returns `None` when the classifier has
    /// seen no training documents.
    #[must_use]
    pub fn predict(&self, token_ids: &[u32]) -> Option<Prediction> {
        if self.total_docs == 0 {
            return None;
        }
        let v = self.token_counts.len() as f64;
        let mut log_scores = vec![0.0f64; self.n_categories as usize];
        for (c, score) in log_scores.iter_mut().enumerate() {
            // Smoothed class prior.
            *score = ((self.doc_counts[c] as f64 + self.alpha)
                / (self.total_docs as f64 + self.alpha * f64::from(self.n_categories)))
            .ln();
            let denom = self.category_tokens[c] as f64 + self.alpha * v.max(1.0);
            for &t in token_ids {
                let count = self.token_counts.get(t as usize).map_or(0, |row| row[c]);
                *score += ((count as f64 + self.alpha) / denom).ln();
            }
        }
        // Log-sum-exp normalization.
        let max = log_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut posterior: Vec<f64> = log_scores.iter().map(|s| (s - max).exp()).collect();
        let sum: f64 = posterior.iter().sum();
        for p in &mut posterior {
            *p /= sum;
        }
        let (category, &confidence) =
            posterior.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
        Some(Prediction { category: category as u32, confidence, posterior })
    }

    /// Convenience: tokenize with `vocab` (without interning new
    /// tokens) and classify. Unknown tokens are skipped.
    #[must_use]
    pub fn predict_tokens(&self, vocab: &Vocabulary, tokens: &[String]) -> Option<Prediction> {
        let ids: Vec<u32> = tokens.iter().filter_map(|t| vocab.get(t)).collect();
        self.predict(&ids)
    }

    /// The smoothing constant the classifier was built with.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Raw training counts, for persistence: `(doc_counts,
    /// category_tokens, token_counts)`. `token_counts[t][c]` is the
    /// count of token `t` in category `c`.
    #[must_use]
    pub fn export_raw_counts(&self) -> (&[u64], &[u64], &[Vec<u64>]) {
        (&self.doc_counts, &self.category_tokens, &self.token_counts)
    }

    /// Rebuilds a classifier from raw counts previously obtained via
    /// [`NaiveBayes::export_raw_counts`]. Unlike [`NaiveBayes::new`]
    /// this never panics: invalid shapes or parameters yield `None`,
    /// so corrupt persisted state surfaces as a decode error instead
    /// of a crash.
    #[must_use]
    pub fn from_raw_counts(
        n_categories: u32,
        alpha: f64,
        doc_counts: Vec<u64>,
        category_tokens: Vec<u64>,
        token_counts: Vec<Vec<u64>>,
    ) -> Option<Self> {
        if n_categories == 0 || !alpha.is_finite() || alpha <= 0.0 {
            return None;
        }
        let n = n_categories as usize;
        if doc_counts.len() != n || category_tokens.len() != n {
            return None;
        }
        if token_counts.iter().any(|row| row.len() != n) {
            return None;
        }
        let total_docs: u64 = doc_counts.iter().sum();
        Some(NaiveBayes {
            n_categories,
            doc_counts,
            token_counts,
            category_tokens,
            total_docs,
            alpha,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    /// Three tiny categories: football, wine, markets.
    fn trained() -> (NaiveBayes, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let mut nb = NaiveBayes::new(3, 1.0);
        let docs: &[(u32, &str)] = &[
            (0, "partita calcio goal campionato juventus arbitro"),
            (0, "goal rigore calcio squadra stadio derby"),
            (0, "campionato classifica calcio allenatore partita"),
            (1, "vino champagne prosecco cava degustazione cantina"),
            (1, "prosecco vigneto uva vendemmia vino bianco"),
            (1, "champagne bollicine degustazione vino francese"),
            (2, "borsa mercati spread inflazione banca tassi"),
            (2, "tassi bce inflazione economia mercati euro"),
            (2, "banca bilancio utili mercati borsa titoli"),
        ];
        for (cat, text) in docs {
            let toks = tokenize(text);
            let ids = vocab.intern_all(&toks);
            nb.train(*cat, &ids);
        }
        (nb, vocab)
    }

    #[test]
    fn classifies_each_topic() {
        let (nb, vocab) = trained();
        let cases = [
            ("il goal decisivo della partita", 0),
            ("una degustazione di prosecco in cantina", 1),
            ("lo spread e i tassi della banca centrale", 2),
        ];
        for (text, expected) in cases {
            let pred = nb.predict_tokens(&vocab, &tokenize(text)).unwrap();
            assert_eq!(pred.category, expected, "{text}");
            assert!(pred.confidence > 0.5, "{text}: {}", pred.confidence);
        }
    }

    #[test]
    fn posterior_is_a_distribution() {
        let (nb, vocab) = trained();
        let pred = nb.predict_tokens(&vocab, &tokenize("vino e mercati")).unwrap();
        let sum: f64 = pred.posterior.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(pred.posterior.iter().all(|&p| p >= 0.0));
        assert_eq!(pred.posterior.len(), 3);
    }

    #[test]
    fn unknown_tokens_fall_back_to_priors() {
        let (mut nb, vocab) = trained();
        // Skew priors: retrain class 0 with many extra docs.
        for _ in 0..20 {
            nb.train(0, &[]);
        }
        let pred = nb.predict_tokens(&vocab, &tokenize("parola sconosciuta misteriosa")).unwrap();
        assert_eq!(pred.category, 0, "prior-dominated prediction");
    }

    #[test]
    fn empty_document_uses_priors() {
        let (nb, _) = trained();
        let pred = nb.predict(&[]).unwrap();
        // Uniform training → near-uniform posterior.
        assert!((pred.confidence - 1.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn untrained_returns_none() {
        let nb = NaiveBayes::new(5, 1.0);
        assert!(nb.predict(&[1, 2, 3]).is_none());
    }

    #[test]
    fn single_category_argmax_is_total() {
        // Regression: P4 witness `apply_record → ingest_clip →
        // predict` — the argmax over the posterior used to `.expect`
        // non-emptiness instead of propagating `None`. The degenerate
        // one-class posterior exercises the argmax boundary.
        let mut nb = NaiveBayes::new(1, 1.0);
        nb.train(0, &[0]);
        let pred = nb.predict(&[0]).unwrap();
        assert_eq!(pred.category, 0);
        assert!((pred.confidence - 1.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_training_shifts_decision() {
        let mut vocab = Vocabulary::new();
        let mut nb = NaiveBayes::new(2, 1.0);
        let amb = vocab.intern("ambiguo");
        nb.train(0, &[amb]);
        nb.train(1, &[amb]);
        // Tie so far; more evidence for class 1 flips it.
        for _ in 0..5 {
            nb.train(1, &[amb]);
        }
        let pred = nb.predict(&[amb]).unwrap();
        assert_eq!(pred.category, 1);
    }

    #[test]
    fn repeated_tokens_strengthen_evidence() {
        let (nb, vocab) = trained();
        let once = nb.predict_tokens(&vocab, &tokenize("calcio mercati")).unwrap();
        let stressed =
            nb.predict_tokens(&vocab, &tokenize("calcio calcio calcio calcio mercati")).unwrap();
        assert_eq!(stressed.category, 0);
        assert!(stressed.posterior[0] > once.posterior[0]);
    }

    #[test]
    #[should_panic(expected = "category 9 out of range")]
    fn out_of_range_category_panics() {
        let mut nb = NaiveBayes::new(3, 1.0);
        nb.train(9, &[0]);
    }

    #[test]
    fn thirty_categories_scale() {
        // Paper scale: 30 categories; distinctive vocabulary per class.
        let mut nb = NaiveBayes::new(30, 1.0);
        for c in 0..30u32 {
            for d in 0..5u32 {
                // Tokens 10c..10c+9 belong to class c, plus shared noise
                // tokens 1000..1004.
                let mut doc: Vec<u32> = (0..10).map(|k| c * 10 + k).collect();
                doc.push(1_000 + d % 5);
                nb.train(c, &doc);
            }
        }
        for c in 0..30u32 {
            let doc: Vec<u32> = (0..5).map(|k| c * 10 + k).collect();
            let pred = nb.predict(&doc).unwrap();
            assert_eq!(pred.category, c);
        }
    }
}
