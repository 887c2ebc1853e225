//! The global event bus and the pluggable sinks it feeds.
//!
//! Instrumented code calls [`emit_with`] with a closure; while the bus is *active* —
//! at least one sink is installed — the closure builds the event, the bus stamps it
//! with a process-wide monotone sequence id, and every installed [`EventSink`]
//! receives the record. When inactive the call is one relaxed atomic load: the
//! closure never runs, nothing allocates, and the instrumented code is
//! indistinguishable from bare code. Instrumentation never changes *results* — it is a
//! pure side channel, and the differential batteries pin that reports stay
//! byte-identical with sinks installed or not.
//!
//! Two sinks ship here: [`JsonlSink`] appends each record as one canonical-JSON line
//! to a file, and [`RingSink`] keeps the most recent records in a bounded in-memory
//! ring (counting what it dropped) for tests, benches, and live progress consumers.

use crate::event::{ObsEvent, ObsRecord};
use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A consumer of emitted records. Implementations must tolerate concurrent calls
/// from multiple worker threads.
pub trait EventSink: Send + Sync {
    /// Receives one emitted record.
    fn record(&self, record: &ObsRecord);
}

/// Handle returned by [`install_sink`]; pass it to [`remove_sink`] to detach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkId(u64);

static SINKS: RwLock<Vec<(SinkId, Arc<dyn EventSink>)>> = RwLock::new(Vec::new());
static NEXT_SINK: AtomicU64 = AtomicU64::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Whether [`SINKS`] is non-empty, cached so the hot path stays a single relaxed
/// load. Only written under the registry's write lock.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// True when events currently flow: at least one sink is installed. This is the one
/// check instrumented hot paths pay when observability is off.
#[inline]
pub fn obs_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Attaches `sink` to the bus; it receives every record emitted from now on.
pub fn install_sink(sink: Arc<dyn EventSink>) -> SinkId {
    let id = SinkId(NEXT_SINK.fetch_add(1, Ordering::Relaxed));
    let mut sinks = SINKS.write().expect("sink registry poisoned");
    sinks.push((id, sink));
    ACTIVE.store(true, Ordering::Relaxed);
    id
}

/// Detaches a sink. Returns whether it was still installed.
pub fn remove_sink(id: SinkId) -> bool {
    let mut sinks = SINKS.write().expect("sink registry poisoned");
    let before = sinks.len();
    sinks.retain(|(sink_id, _)| *sink_id != id);
    ACTIVE.store(!sinks.is_empty(), Ordering::Relaxed);
    sinks.len() != before
}

/// Number of installed sinks.
pub fn sink_count() -> usize {
    SINKS.read().expect("sink registry poisoned").len()
}

/// Emits `event` to every installed sink, returning the sequence id it was stamped
/// with — or `None` when observability is inactive. Prefer [`emit_with`] on hot
/// paths so the event is not even constructed when inactive.
pub fn emit(event: ObsEvent) -> Option<u64> {
    if !obs_active() {
        return None;
    }
    let sinks = SINKS.read().expect("sink registry poisoned");
    if sinks.is_empty() {
        return None;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let record = ObsRecord { seq, event };
    for (_, sink) in sinks.iter() {
        sink.record(&record);
    }
    Some(seq)
}

/// Builds and emits an event only when observability is active. The inactive cost is
/// one relaxed load; `build` runs only on the active path.
#[inline]
pub fn emit_with(build: impl FnOnce() -> ObsEvent) -> Option<u64> {
    if !obs_active() {
        return None;
    }
    emit(build())
}

/// A sink appending each record as one canonical-JSON line to a buffered file.
///
/// Lines are flushed when the sink is dropped (or on [`flush`](Self::flush)); a
/// write error panics, matching the workspace's artifact writers — observability
/// files are developer-requested outputs, not best-effort logs.
pub struct JsonlSink {
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self {
            writer: Mutex::new(std::io::BufWriter::new(file)),
        })
    }

    /// Flushes buffered lines to disk.
    pub fn flush(&self) {
        self.writer
            .lock()
            .expect("jsonl writer poisoned")
            .flush()
            .expect("flush observability JSONL");
    }
}

impl EventSink for JsonlSink {
    fn record(&self, record: &ObsRecord) {
        let mut writer = self.writer.lock().expect("jsonl writer poisoned");
        writer
            .write_all(record.to_json().as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .expect("write observability JSONL");
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(writer) = self.writer.get_mut() {
            let _ = writer.flush();
        }
    }
}

/// A bounded in-memory ring of the most recent records.
///
/// When full, the oldest record is dropped and counted — the ring never blocks or
/// grows, so it is safe to leave installed across a large campaign.
pub struct RingSink {
    capacity: usize,
    buffer: Mutex<VecDeque<ObsRecord>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// A ring holding at most `capacity` records (at least one).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            buffer: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Removes and returns the buffered records, oldest first.
    pub fn drain(&self) -> Vec<ObsRecord> {
        self.buffer
            .lock()
            .expect("ring buffer poisoned")
            .drain(..)
            .collect()
    }

    /// Number of buffered (undrained) records.
    pub fn len(&self) -> usize {
        self.buffer.lock().expect("ring buffer poisoned").len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl EventSink for RingSink {
    fn record(&self, record: &ObsRecord) {
        let mut buffer = self.buffer.lock().expect("ring buffer poisoned");
        if buffer.len() == self.capacity {
            buffer.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buffer.push_back(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_bus_never_builds_events() {
        let _guard = crate::test_sink_lock();
        assert!(!obs_active(), "no sink is installed");
        let built = std::cell::Cell::new(false);
        let seq = emit_with(|| {
            built.set(true);
            ObsEvent::SpanStart { name: "x".into() }
        });
        assert_eq!(seq, None);
        assert!(!built.get(), "closure must not run while inactive");
    }

    #[test]
    fn ring_records_and_bounds() {
        let _guard = crate::test_sink_lock();
        let ring = Arc::new(RingSink::new(2));
        let id = install_sink(ring.clone());
        assert!(obs_active());
        for round in 0..3 {
            emit(ObsEvent::Round {
                phase: "regional",
                round,
                games: 1,
            });
        }
        assert!(remove_sink(id));
        assert!(!remove_sink(id), "second removal is a no-op");
        assert!(!obs_active(), "removing the last sink deactivates the bus");
        assert_eq!(ring.dropped(), 1);
        let records = ring.drain();
        assert_eq!(records.len(), 2);
        assert!(records[0].seq < records[1].seq, "sequence ids are monotone");
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let path = std::env::temp_dir().join(format!("dg-obs-test-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("create JSONL");
        sink.record(&ObsRecord {
            seq: 0,
            event: ObsEvent::SpanStart { name: "a".into() },
        });
        sink.record(&ObsRecord {
            seq: 1,
            event: ObsEvent::SpanEnd {
                name: "a".into(),
                start_seq: 0,
            },
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,\"type\":\"span_start\""));
        assert!(lines[1].contains("\"start_seq\":0"));
        drop(sink);
        let _ = std::fs::remove_file(&path);
    }
}
