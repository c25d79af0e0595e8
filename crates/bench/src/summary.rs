//! The one result schema of `pphcr-bench`. Every measurement is an
//! [`Entry`] — `{suite, name, outcome, metrics}`, in the agentlab
//! style — and a gated entry also carries its [`Gate`]: the metric it
//! read, the value, the comparison and the bound. [`summary_json`]
//! writes the entries into one document.

use crate::gates::Gate;
use crate::harness::AgentSummary;
use pphcr_obs::json::JsonWriter;

/// One metric value of an entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An exact count.
    U64(u64),
    /// A measurement.
    F64(f64),
    /// A yes/no fact.
    Bool(bool),
}

/// One result of a run: an A/B cell or suite rollup, an E13 row or an
/// E16 point.
#[derive(Debug, Clone)]
pub struct Entry {
    /// `"A"`, `"B"`, `"E13"` or `"E16"`.
    pub suite: String,
    /// The result's name, unique within its suite.
    pub name: String,
    /// The gate this entry is held to, if any.
    pub gate: Option<Gate>,
    /// Named values, in the order they are written.
    pub metrics: Vec<(&'static str, Value)>,
}

impl Entry {
    /// An ungated entry with no metrics yet.
    #[must_use]
    pub fn new(suite: impl Into<String>, name: impl Into<String>) -> Self {
        Entry { suite: suite.into(), name: name.into(), gate: None, metrics: Vec::new() }
    }

    /// Adds a count.
    #[must_use]
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.metrics.push((key, Value::U64(value)));
        self
    }

    /// Adds a measurement.
    #[must_use]
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.metrics.push((key, Value::F64(value)));
        self
    }

    /// Adds a yes/no fact.
    #[must_use]
    pub fn flag(mut self, key: &'static str, value: bool) -> Self {
        self.metrics.push((key, Value::Bool(value)));
        self
    }

    /// Holds the entry to `gate`.
    #[must_use]
    pub fn gated(mut self, gate: Gate) -> Self {
        self.gate = Some(gate);
        self
    }

    /// An ungated entry passes; a gated one passes when its gate does.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.gate.as_ref().is_none_or(|g| g.pass)
    }

    /// `"success"` or `"failure"`.
    #[must_use]
    pub fn outcome(&self) -> &'static str {
        outcome(self.passed())
    }
}

fn outcome(passed: bool) -> &'static str {
    if passed {
        "success"
    } else {
        "failure"
    }
}

/// Renders the pretty `summary.json` document: the run's spec, the
/// host's cores, the agents' seeds, the overall outcome, and every
/// entry in run order.
#[must_use]
pub fn summary_json(
    spec: &str,
    host_cores: usize,
    agents: &[AgentSummary],
    entries: &[Entry],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "pphcr-bench")
        .field_str("spec", spec)
        .field_u64("host_cores", host_cores as u64)
        .field_u64("agents", agents.len() as u64);
    w.begin_named_array("agent_seeds");
    for a in agents {
        w.item_u64(a.seed);
    }
    w.end_array();
    w.field_str("outcome", outcome(entries.iter().all(Entry::passed)));
    w.begin_named_array("results");
    for e in entries {
        w.begin_object();
        w.field_str("suite", &e.suite).field_str("name", &e.name).field_str("outcome", e.outcome());
        if let Some(g) = &e.gate {
            w.begin_named_object("gate");
            w.field_str("metric", g.metric)
                .field_f64("value", g.value)
                .field_str("cmp", g.cmp.symbol())
                .field_f64("bound", g.bound);
            w.end_object();
        }
        w.begin_named_object("metrics");
        for (key, value) in &e.metrics {
            match value {
                Value::U64(v) => w.field_u64(key, *v),
                Value::F64(v) => w.field_f64(key, *v),
                Value::Bool(v) => w.field_bool(key, *v),
            };
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    doc
}
