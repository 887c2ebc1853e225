//! Span guards: paired start/end events with monotone sequence ids.
//!
//! A [`Span`] emits a [`SpanStart`](crate::ObsEvent::SpanStart) when entered and the
//! matching [`SpanEnd`](crate::ObsEvent::SpanEnd) — carrying the start record's
//! sequence id — when dropped, so consumers can nest and time phases without any
//! thread-local context. Entering a span while observability is inactive costs one
//! relaxed load and emits nothing, including at drop time.

use crate::event::ObsEvent;
use crate::sink::{emit, emit_with, obs_active};

/// A guard that brackets a region of work with `span_start` / `span_end` events.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start_seq: Option<u64>,
}

impl Span {
    /// Opens a span named `name`, emitting its start event if observability is
    /// active. The name should be a stable dotted path, e.g. `"phase.regional"`.
    pub fn enter(name: &'static str) -> Self {
        let start_seq = emit_with(|| ObsEvent::SpanStart { name: name.into() });
        Self { name, start_seq }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The sequence id of the start event, when one was emitted.
    pub fn start_seq(&self) -> Option<u64> {
        self.start_seq
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // Only spans that actually announced themselves get an end event: if
        // observability was activated mid-span, an unmatched `span_end` would be
        // noise rather than signal.
        if let Some(start_seq) = self.start_seq {
            if obs_active() {
                emit(ObsEvent::SpanEnd {
                    name: self.name.into(),
                    start_seq,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{install_sink, remove_sink, RingSink};
    use std::sync::Arc;

    #[test]
    fn spans_pair_start_and_end_by_sequence_id() {
        let _guard = crate::test_sink_lock();
        let ring = Arc::new(RingSink::new(16));
        let id = install_sink(ring.clone());
        {
            let span = Span::enter("phase.test");
            assert_eq!(span.name(), "phase.test");
            assert!(span.start_seq().is_some());
        }
        remove_sink(id);
        let records = ring.drain();
        assert_eq!(records.len(), 2);
        let start_seq = records[0].seq;
        match &records[1].event {
            ObsEvent::SpanEnd { name, start_seq: s } => {
                assert_eq!(name, "phase.test");
                assert_eq!(*s, start_seq);
            }
            other => panic!("expected span_end, got {other:?}"),
        }
    }

    #[test]
    fn inactive_spans_emit_nothing_even_at_drop() {
        let _guard = crate::test_sink_lock();
        let span = Span::enter("phase.silent");
        assert_eq!(span.start_seq(), None);
        drop(span);
    }
}
