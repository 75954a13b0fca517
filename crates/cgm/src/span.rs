//! Hierarchical spans on the virtual clock.
//!
//! A span is a named, attributed interval of one virtual processor's
//! timeline: opened with [`crate::Proc::span`], closed with
//! [`crate::Proc::span_end`] (strictly LIFO — spans nest). Opening and
//! closing a span never charges the virtual clock, so enabling spans
//! ([`crate::MachineConfig::spans`]) cannot perturb a run's virtual times;
//! they are pure observation.
//!
//! Each record captures the span's start/end clock values and the delta of
//! the processor's [`Counters`] over the span (inclusive of nested child
//! spans). With [`crate::MachineConfig::record`] on, every open and close
//! is also an event of the recorded DAG, so replay knows the innermost
//! span open at each event (see [`crate::ReplayOutput::span`]) — which is
//! what the exporters in [`crate::export`] use to attribute work.

use crate::counters::Counters;

/// A span attribute: static key, integer value (node ids, tree levels,
/// task counts — everything the instrumentation needs fits in an `i64`).
pub type SpanAttr = (&'static str, i64);

/// One closed (or still open, while the run is in flight) span on a rank's
/// timeline. Returned in [`crate::ProcStats::spans`], indexed in open
/// order, so a parent always precedes its children.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name; dotted-hierarchy names by convention (`"pclouds.stats"`,
    /// `"cgm.allreduce"`).
    pub name: &'static str,
    /// Attributes supplied at open.
    pub attrs: Vec<SpanAttr>,
    /// Index of the enclosing span in the same rank's span list, if any.
    pub parent: Option<u32>,
    /// Nesting depth (0 = top level).
    pub depth: u32,
    /// Virtual time at open, seconds.
    pub start: f64,
    /// Virtual time at close, seconds.
    pub end: f64,
    /// [`Counters`] delta over the span, inclusive of child spans.
    ///
    /// While the span is still open this field holds the counter snapshot
    /// taken at open (an implementation detail — it is replaced by the
    /// delta when the span closes, and only closed spans are observable).
    pub delta: Counters,
}

impl SpanRecord {
    /// Inclusive duration of the span, seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Proof that a span was opened; consumed by [`crate::Proc::span_end`].
/// Tokens make unbalanced instrumentation a compile-time nuisance and a
/// runtime panic instead of silently corrupt rollups.
#[must_use = "close the span by passing this token to Proc::span_end"]
#[derive(Debug)]
pub struct SpanToken {
    pub(crate) index: u32,
}

/// Sentinel index used when spans are disabled: `span()` hands out inert
/// tokens and `span_end` ignores them, keeping the disabled path free of
/// any bookkeeping.
pub(crate) const SPAN_DISABLED: u32 = u32::MAX;
