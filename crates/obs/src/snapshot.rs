//! `ObsSnapshot`: a stable, self-contained export of everything the
//! observability layer knows.
//!
//! The snapshot captures counters, gauges, histogram buckets and the
//! decision trace — all exact integers, all in name order — and
//! deliberately **excludes** the span-timing table (wall time is not
//! replayable). Two engines that processed the same seeded inputs
//! therefore produce byte-identical `to_json()` output, regardless of
//! worker count; the cross-worker test and the golden-file test both
//! pin that property.
//!
//! The JSON goes through the crate's one [`JsonWriter`], in the
//! two-space pretty style of every other artifact, so it diffs cleanly
//! in CI.

use crate::json::JsonWriter;
use crate::registry::{Histogram, Registry};
use crate::trace::{DecisionTrace, DecisionTraceEntry};

/// Exact bucket counts of one histogram at capture time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Exact (saturating) sum of observed values.
    pub sum: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending. Bucket 0
    /// holds the value 0; bucket `i` holds `[2^(i-1), 2^i)`.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    fn capture(h: &Histogram) -> Self {
        HistogramSnapshot { count: h.count(), sum: h.sum(), buckets: h.nonzero_buckets().collect() }
    }
}

/// A point-in-time export of a [`Registry`] plus [`DecisionTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// `(name, value)` counters, name-ascending.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, name-ascending.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` pairs, name-ascending.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// The decision trace's fixed bound.
    pub trace_capacity: u64,
    /// Entries the trace evicted to stay within its bound.
    pub trace_dropped: u64,
    /// Retained decisions, oldest first.
    pub trace: Vec<DecisionTraceEntry>,
}

impl ObsSnapshot {
    /// Captures a registry and decision trace into a snapshot.
    #[must_use]
    pub fn capture(registry: &Registry, trace: &DecisionTrace) -> Self {
        ObsSnapshot {
            counters: registry.counters().map(|(k, v)| (k.to_string(), v)).collect(),
            gauges: registry.gauges().map(|(k, v)| (k.to_string(), v)).collect(),
            histograms: registry
                .histograms()
                .map(|(k, h)| (k.to_string(), HistogramSnapshot::capture(h)))
                .collect(),
            trace_capacity: trace.capacity() as u64,
            trace_dropped: trace.dropped(),
            trace: trace.entries().cloned().collect(),
        }
    }

    /// Inserts or replaces a gauge, keeping name order — used by
    /// embedders to attach platform-level gauges (bus totals, health
    /// counts, catalog epoch) at capture time.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        match self.gauges.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => {
                if let Some(slot) = self.gauges.get_mut(i) {
                    slot.1 = value;
                }
            }
            Err(i) => self.gauges.insert(i, (name.to_string(), value)),
        }
    }

    /// Value of a captured counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .and_then(|i| self.counters.get(i))
            .map_or(0, |(_, v)| *v)
    }

    /// Value of a captured gauge, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .and_then(|i| self.gauges.get(i))
            .map(|(_, v)| *v)
    }

    /// Stable pretty-JSON encoding of the snapshot.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.begin_named_object("counters");
        for (name, value) in &self.counters {
            w.field_u64(name, *value);
        }
        w.end_object();
        w.begin_named_object("gauges");
        for (name, value) in &self.gauges {
            w.field_i64(name, *value);
        }
        w.end_object();
        w.begin_named_object("histograms");
        for (name, h) in &self.histograms {
            w.begin_named_object(name);
            w.field_u64("count", h.count).field_u64("sum", h.sum);
            w.begin_named_object("buckets");
            for (bucket, count) in &h.buckets {
                w.field_u64(&format!("b{bucket}"), *count);
            }
            w.end_object();
            w.end_object();
        }
        w.end_object();
        w.begin_named_object("trace");
        w.field_u64("capacity", self.trace_capacity).field_u64("dropped", self.trace_dropped);
        w.begin_named_array("entries");
        for e in &self.trace {
            w.begin_object();
            w.field_u64("user", e.user)
                .field_u64("at_s", e.at_s)
                .field_str("trigger", e.trigger)
                .field_u64("considered", e.considered)
                .field_u64("cut_freshness", e.cut_freshness)
                .field_u64("cut_preference", e.cut_preference)
                .field_u64("cut_geo", e.cut_geo)
                .field_u64("cut_heard", e.cut_heard)
                .field_u64("scored", e.scored)
                .field_u64("scheduled", e.scheduled)
                .field_opt_u64("top_clip", e.top_clip)
                .field_i64("top_content_micro", e.top_content_micro)
                .field_i64("top_context_micro", e.top_context_micro)
                .field_i64("top_total_micro", e.top_total_micro)
                .field_str("verdict", e.verdict.as_str());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.end_object();
        let mut doc = w.finish();
        doc.push('\n');
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Verdict;

    fn sample() -> ObsSnapshot {
        let mut reg = Registry::new();
        reg.add("bus.published", 3);
        reg.inc("tick.users");
        reg.gauge("health.healthy", 2);
        reg.observe("retry.backoff_wait_s", 4);
        reg.observe("retry.backoff_wait_s", 9);
        let mut trace = DecisionTrace::with_capacity(8);
        trace.push(DecisionTraceEntry {
            user: 1,
            at_s: 25_200,
            trigger: "drive-predicted",
            considered: 10,
            cut_freshness: 2,
            cut_preference: 3,
            cut_geo: 4,
            cut_heard: 1,
            scored: 4,
            scheduled: 3,
            top_clip: Some(7),
            top_content_micro: 550_000,
            top_context_micro: 210_000,
            top_total_micro: 760_000,
            verdict: Verdict::Scheduled,
        });
        ObsSnapshot::capture(&reg, &trace)
    }

    #[test]
    fn capture_orders_names_and_reads_back() {
        let snap = sample();
        assert_eq!(snap.counter("bus.published"), 3);
        assert_eq!(snap.counter("tick.users"), 1);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauge("health.healthy"), Some(2));
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["bus.published", "tick.users"]);
    }

    #[test]
    fn set_gauge_keeps_name_order() {
        let mut snap = sample();
        snap.set_gauge("a.first", 1);
        snap.set_gauge("z.last", 9);
        snap.set_gauge("health.healthy", 5);
        let names: Vec<&str> = snap.gauges.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a.first", "health.healthy", "z.last"]);
        assert_eq!(snap.gauge("health.healthy"), Some(5));
    }

    #[test]
    fn json_is_stable_and_structured() {
        // Cases the golden files lack: a null top clip, a negative
        // gauge and a name that needs escaping.
        let mut snap = sample();
        snap.set_gauge("clock.skew_s", -3);
        snap.set_gauge("odd \"name\"\\", 1);
        let mut unscheduled = snap.trace[0].clone();
        unscheduled.user = 2;
        unscheduled.trigger = "skip";
        unscheduled.scored = 0;
        unscheduled.scheduled = 0;
        unscheduled.top_clip = None;
        unscheduled.top_content_micro = 0;
        unscheduled.top_context_micro = -40_000;
        unscheduled.top_total_micro = -40_000;
        unscheduled.verdict = Verdict::NoCandidates;
        snap.trace.push(unscheduled);
        let json = snap.to_json();
        assert_eq!(json, snap.to_json());
        assert_eq!(json, OBS_JSON);
    }

    /// `to_json` of the `json_is_stable_and_structured` snapshot, byte
    /// for byte.
    const OBS_JSON: &str = r#"{
  "counters": {
    "bus.published": 3,
    "tick.users": 1
  },
  "gauges": {
    "clock.skew_s": -3,
    "health.healthy": 2,
    "odd \"name\"\\": 1
  },
  "histograms": {
    "retry.backoff_wait_s": {
      "count": 2,
      "sum": 13,
      "buckets": {
        "b3": 1,
        "b4": 1
      }
    }
  },
  "trace": {
    "capacity": 8,
    "dropped": 0,
    "entries": [
      {
        "user": 1,
        "at_s": 25200,
        "trigger": "drive-predicted",
        "considered": 10,
        "cut_freshness": 2,
        "cut_preference": 3,
        "cut_geo": 4,
        "cut_heard": 1,
        "scored": 4,
        "scheduled": 3,
        "top_clip": 7,
        "top_content_micro": 550000,
        "top_context_micro": 210000,
        "top_total_micro": 760000,
        "verdict": "scheduled"
      },
      {
        "user": 2,
        "at_s": 25200,
        "trigger": "skip",
        "considered": 10,
        "cut_freshness": 2,
        "cut_preference": 3,
        "cut_geo": 4,
        "cut_heard": 1,
        "scored": 0,
        "scheduled": 0,
        "top_clip": null,
        "top_content_micro": 0,
        "top_context_micro": -40000,
        "top_total_micro": -40000,
        "verdict": "no-candidates"
      }
    ]
  }
}
"#;

    #[test]
    fn empty_sections_render_as_empty_objects() {
        let snap = ObsSnapshot::capture(&Registry::new(), &DecisionTrace::with_capacity(4));
        let json = snap.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
        assert!(json.contains("\"entries\": []"));
    }
}
