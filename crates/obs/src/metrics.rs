//! The unified metrics registry: named counters, gauges, and histograms with one
//! canonical-JSON [`MetricsSnapshot`] export.
//!
//! This absorbs the ad-hoc globals that accumulated across the workspace —
//! `dg_exec::sim_ops()` and `process_launches()` — behind one naming scheme
//! (`exec.sim_ops`, `exec.process_launches`, …) while the original free functions
//! stay as thin shims over their registry counters.
//!
//! Counters track **two** readings: a process-wide total and a per-thread count.
//! The per-thread reading is what `sim_ops()` has always exposed (replay tests use
//! it to prove a replay touched the simulator zero times *on this thread*, immune
//! to concurrent workers), so the unification preserves those semantics exactly.
//!
//! Metrics are always-on — an increment is a relaxed atomic add plus a
//! thread-local add, the same order of cost as the scattered counters they
//! replaced — only *event* emission waits for an installed sink
//! ([`obs_active`](crate::obs_active)).

use crate::json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

thread_local! {
    /// Per-thread counter values, indexed by each counter's registry slot.
    static THREAD_COUNTS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
struct CounterInner {
    name: String,
    slot: usize,
    total: AtomicU64,
}

/// A named monotone counter. Handles are cheap clones of one shared counter; get one
/// with [`counter`] and cache it (e.g. in a `OnceLock`) on hot paths.
#[derive(Debug, Clone)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    /// Adds `n` to both the process-wide total and this thread's count.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.total.fetch_add(n, Ordering::Relaxed);
        THREAD_COUNTS.with(|counts| {
            let mut counts = counts.borrow_mut();
            if counts.len() <= self.0.slot {
                counts.resize(self.0.slot + 1, 0);
            }
            counts[self.0.slot] += n;
        });
    }

    /// Adds one.
    #[inline]
    pub fn increment(&self) {
        self.add(1);
    }

    /// The process-wide total.
    pub fn value(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// The calling thread's contribution to the total.
    pub fn thread_value(&self) -> u64 {
        THREAD_COUNTS.with(|counts| counts.borrow().get(self.0.slot).copied().unwrap_or(0))
    }

    /// The counter's registered name.
    pub fn name(&self) -> &str {
        &self.0.name
    }
}

#[derive(Debug)]
struct GaugeInner {
    name: String,
    bits: AtomicU64,
}

/// A named last-value gauge holding one `f64`.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Stores `value`.
    pub fn set(&self, value: f64) {
        self.0.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The last stored value (0.0 before the first [`set`](Self::set)).
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.bits.load(Ordering::Relaxed))
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &str {
        &self.0.name
    }
}

/// Upper bounds of the histogram buckets, in the recorded unit (typically seconds).
/// A final implicit overflow bucket catches everything above the last bound.
pub const HISTOGRAM_BOUNDS: [f64; 7] = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0];

#[derive(Debug, Default, Clone, Copy)]
struct HistogramState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
}

#[derive(Debug)]
struct HistogramInner {
    name: String,
    state: Mutex<HistogramState>,
}

/// A named histogram over fixed decade buckets ([`HISTOGRAM_BOUNDS`]).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: f64) {
        let mut state = self.0.state.lock().expect("histogram poisoned");
        if state.count == 0 {
            state.min = value;
            state.max = value;
        } else {
            state.min = state.min.min(value);
            state.max = state.max.max(value);
        }
        state.count += 1;
        state.sum += value;
        let bucket = HISTOGRAM_BOUNDS
            .iter()
            .position(|bound| value <= *bound)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        state.buckets[bucket] += 1;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.state.lock().expect("histogram poisoned").count
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        self.0.state.lock().expect("histogram poisoned").sum
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &str {
        &self.0.name
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<Vec<Counter>>,
    gauges: Mutex<Vec<Gauge>>,
    histograms: Mutex<Vec<Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter registered under `name`, creating it on first use. Names are dotted
/// paths, e.g. `"exec.sim_ops"`.
pub fn counter(name: &str) -> Counter {
    let mut counters = registry()
        .counters
        .lock()
        .expect("metrics registry poisoned");
    if let Some(existing) = counters.iter().find(|c| c.name() == name) {
        return existing.clone();
    }
    let created = Counter(Arc::new(CounterInner {
        name: name.to_string(),
        slot: counters.len(),
        total: AtomicU64::new(0),
    }));
    counters.push(created.clone());
    created
}

/// The gauge registered under `name`, creating it on first use.
pub fn gauge(name: &str) -> Gauge {
    let mut gauges = registry().gauges.lock().expect("metrics registry poisoned");
    if let Some(existing) = gauges.iter().find(|g| g.name() == name) {
        return existing.clone();
    }
    let created = Gauge(Arc::new(GaugeInner {
        name: name.to_string(),
        bits: AtomicU64::new(0.0_f64.to_bits()),
    }));
    gauges.push(created.clone());
    created
}

/// The histogram registered under `name`, creating it on first use.
pub fn histogram(name: &str) -> Histogram {
    let mut histograms = registry()
        .histograms
        .lock()
        .expect("metrics registry poisoned");
    if let Some(existing) = histograms.iter().find(|h| h.name() == name) {
        return existing.clone();
    }
    let created = Histogram(Arc::new(HistogramInner {
        name: name.to_string(),
        state: Mutex::new(HistogramState::default()),
    }));
    histograms.push(created.clone());
    created
}

/// A histogram's captured state inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
    /// Per-bucket counts: one per [`HISTOGRAM_BOUNDS`] entry plus the overflow
    /// bucket.
    pub buckets: Vec<u64>,
}

/// A point-in-time capture of every registered metric, sorted by name so the
/// canonical JSON form is deterministic for a deterministic workload.
///
/// # JSON format
///
/// [`to_json`](Self::to_json) writes three objects keyed by metric name: `counters`
/// (exact totals), `gauges` (last values), and `histograms`, each with its `count`,
/// `sum`, `min`, `max` and one `buckets` entry per [`HISTOGRAM_BOUNDS`] bound plus the
/// overflow bucket, whose bound `le` is `"inf"`.
///
/// ```
/// use dg_obs::{HistogramSnapshot, MetricsSnapshot};
///
/// let snapshot = MetricsSnapshot {
///     counters: vec![("exec.sim_ops".into(), 1200)],
///     gauges: vec![("campaign.eta_s".into(), 2.5)],
///     histograms: vec![HistogramSnapshot {
///         name: "cell.seconds".into(),
///         count: 2,
///         sum: 12.5,
///         min: 0.5,
///         max: 12.0,
///         buckets: vec![0, 0, 0, 1, 0, 1, 0, 0],
///     }],
/// };
/// assert_eq!(
///     snapshot.to_json(),
///     concat!(
///         r#"{"counters":{"exec.sim_ops":1200},"gauges":{"campaign.eta_s":2.5},"#,
///         r#""histograms":{"cell.seconds":{"count":2,"sum":12.5,"min":0.5,"max":12,"#,
///         r#""buckets":[{"le":0.001,"count":0},{"le":0.01,"count":0},{"le":0.1,"count":0},"#,
///         r#"{"le":1,"count":1},{"le":10,"count":0},{"le":100,"count":1},"#,
///         r#"{"le":1000,"count":0},{"le":"inf","count":0}]}}}"#,
///     )
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, process-wide total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, last value)` per gauge.
    pub gauges: Vec<(String, f64)>,
    /// Captured histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Captures every registered metric right now.
    pub fn capture() -> Self {
        let reg = registry();
        let mut counters: Vec<(String, u64)> = reg
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|c| (c.name().to_string(), c.value()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, f64)> = reg
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|g| (g.name().to_string(), g.value()))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<HistogramSnapshot> = reg
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|h| {
                let state = *h.0.state.lock().expect("histogram poisoned");
                HistogramSnapshot {
                    name: h.name().to_string(),
                    count: state.count,
                    sum: state.sum,
                    min: state.min,
                    max: state.max,
                    buckets: state.buckets.to_vec(),
                }
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        Self {
            counters,
            gauges,
            histograms,
        }
    }

    /// The canonical JSON form:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}` with names sorted.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.object("counters", |counters| {
                for (name, value) in &self.counters {
                    counters.field(name, value);
                }
            })
            .object("gauges", |gauges| {
                for (name, value) in &self.gauges {
                    gauges.field(name, value);
                }
            })
            .object("histograms", |histograms| {
                for hist in &self.histograms {
                    histograms.object(&hist.name, |h| {
                        h.field("count", &hist.count)
                            .field("sum", &hist.sum)
                            .field("min", &hist.min)
                            .field("max", &hist.max)
                            .array("buckets", |buckets| {
                                // The overflow bucket's bound is written as "inf".
                                let bounds = HISTOGRAM_BOUNDS.iter().chain([&f64::INFINITY]);
                                for (bound, count) in bounds.zip(&hist.buckets) {
                                    buckets.object(|b| {
                                        b.field("le", bound).field("count", count);
                                    });
                                }
                            });
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_global_and_thread_totals() {
        let c = counter("test.metrics.counter_a");
        let before_global = c.value();
        let before_thread = c.thread_value();
        c.increment();
        c.add(2);
        assert_eq!(c.value(), before_global + 3);
        assert_eq!(c.thread_value(), before_thread + 3);
        let handle = c.clone();
        let thread_total = std::thread::spawn(move || {
            handle.add(5);
            handle.thread_value()
        })
        .join()
        .expect("counter thread");
        assert_eq!(thread_total, 5, "fresh thread starts at zero");
        assert_eq!(c.value(), before_global + 8, "global total sums threads");
        assert_eq!(
            c.thread_value(),
            before_thread + 3,
            "this thread unaffected"
        );
    }

    #[test]
    fn registry_returns_the_same_counter_per_name() {
        let a = counter("test.metrics.shared");
        let b = counter("test.metrics.shared");
        a.increment();
        assert_eq!(b.value(), a.value());
    }

    #[test]
    fn gauges_hold_the_last_value() {
        let g = gauge("test.metrics.gauge");
        assert_eq!(g.value(), 0.0);
        g.set(2.5);
        assert_eq!(g.value(), 2.5);
        g.set(-1.0);
        assert_eq!(gauge("test.metrics.gauge").value(), -1.0);
    }

    #[test]
    fn histograms_bucket_by_decade() {
        let h = histogram("test.metrics.hist");
        for value in [0.0005, 0.5, 0.7, 5000.0] {
            h.record(value);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 5001.2005).abs() < 1e-9);
        let snapshot = MetricsSnapshot::capture();
        let hist = snapshot
            .histograms
            .iter()
            .find(|h| h.name == "test.metrics.hist")
            .expect("captured");
        assert_eq!(hist.min, 0.0005);
        assert_eq!(hist.max, 5000.0);
        assert_eq!(hist.buckets[0], 1, "sub-millisecond bucket");
        assert_eq!(hist.buckets[3], 2, "(0.1, 1.0] bucket");
        assert_eq!(hist.buckets[HISTOGRAM_BOUNDS.len()], 1, "overflow bucket");
    }

    #[test]
    fn snapshot_json_is_canonical_and_sorted() {
        counter("test.metrics.zz").increment();
        counter("test.metrics.aa").increment();
        let snapshot = MetricsSnapshot::capture();
        let json = snapshot.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"gauges\":{"));
        assert!(json.contains("\"histograms\":{"));
        let aa = json.find("test.metrics.aa").expect("aa present");
        let zz = json.find("test.metrics.zz").expect("zz present");
        assert!(aa < zz, "counters sorted by name");
        assert!(!json.contains(' '), "no whitespace in canonical form");
        assert_eq!(snapshot.to_json(), json, "capture is stable");
    }
}
