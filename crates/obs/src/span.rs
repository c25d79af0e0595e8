//! Stage spans: wall-clock timing that satisfies the determinism
//! lints.
//!
//! A [`Span`] wraps one pipeline stage. It reads the clock only
//! through [`timing::stopwatch`](crate::timing::stopwatch) (the single
//! D1-allowlisted module), and its measurement lands in the
//! [`Registry`] timing table, which is **reported only** — span
//! durations never reach an `ObsSnapshot`, so snapshots stay
//! bit-identical while dashboards still see where wall time goes.

use crate::registry::Registry;
use crate::timing::{stopwatch, Stopwatch};

/// An in-flight stage measurement; create with [`Span::enter`], close
/// with [`Span::finish`].
///
/// The span does not borrow the registry while open, so stage code is
/// free to bump counters on the same registry in between.
#[derive(Debug)]
pub struct Span {
    stage: &'static str,
    watch: Stopwatch,
}

impl Span {
    /// Starts timing a stage.
    #[must_use]
    pub fn enter(stage: &'static str) -> Span {
        Span { stage, watch: stopwatch() }
    }

    /// Stops the span and records its wall time into `registry`.
    pub fn finish(self, registry: &mut Registry) {
        registry.record_span(self.stage, self.watch.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_span_lands_in_the_timing_table() {
        let mut reg = Registry::new();
        let span = Span::enter("tick.commit");
        span.finish(&mut reg);
        let stat = reg.timing("tick.commit").unwrap();
        assert_eq!(stat.count, 1);
        assert!(stat.max_ns <= stat.total_ns || stat.total_ns == 0);
    }

    #[test]
    fn spans_on_a_disabled_registry_are_dropped() {
        let mut reg = Registry::disabled();
        Span::enter("tick.commit").finish(&mut reg);
        assert!(reg.timing("tick.commit").is_none());
    }
}
