//! Observability overhead gate — `dg-obs` must be free when off and cheap when on.
//!
//! Runs the Figure 15 VM sweep (the campaign `BENCH_fig15.json` records, via
//! [`dg_bench::fig15_sweep_spec`]) on one worker, in two legs:
//!
//! * **disabled** — no sinks, no decorator: exactly the configuration
//!   `fig15_vm_sweep` runs first, so this leg's report fingerprint must equal the one
//!   in the reference `BENCH_fig15.json` (same process shape, same campaign);
//! * **instrumented** — a counting sink installed, and every cell's
//!   backend wrapped in [`ObsBackend`] via [`ObsProvider`]: campaign, cell, phase,
//!   round, and game events all constructed and delivered.
//!
//! The gate demands the instrumented report **byte-identical** to the disabled one
//! and the wall-clock overhead **< 2 %** at full scale. The overhead is the median,
//! over 41 pairs, of the ratio of the two legs of a pair. The legs of a pair run back
//! to back, disabled first in even pairs and instrumented first in odd ones, so a
//! change in the host's speed between pairs moves both legs of a pair alike, and
//! neither leg always runs first. The smoke sweep finishes in tens of milliseconds
//! with ~2.6× the event density per unit of work, so its bound is a looser **< 10 %**
//! — the pinned claim is the full-scale one. Results land in `BENCH_obs_overhead.json`
//! (pinned at the repo root in full mode).
//!
//! Run with `cargo bench --bench obs_overhead`. `DG_SMOKE=1` shrinks to the
//! CI smoke sweep; `DG_OBS_BASELINE=<path>` points the fingerprint cross-check at a
//! specific `BENCH_fig15.json` (CI generates a smoke one first); `DG_OBS_OUT=<path>`
//! overrides the output path.
//!
//! # `BENCH_obs_overhead.json`
//!
//! The two `_seconds` fields are medians over the pairs, and `events` counts one
//! instrumented sweep's events:
//!
//! ```text
//! {"bench":"obs_overhead","mode":"full"|"smoke","cells":usize,"pairs":usize,
//!  "disabled_seconds":f64,"instrumented_seconds":f64,"overhead_percent":f64,
//!  "events":u64,"campaign_fingerprint":u64}
//! ```

use dg_campaign::{Campaign, CampaignReport};
use dg_exec::json::{self, fnv1a, FromJson, Node, ReadError};
use dg_exec::{ObsProvider, SimProvider};
use dg_obs::{install_sink, remove_sink, EventSink, ObsRecord};
use dg_stats::median;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An O(1)-per-event sink: the instrumented leg must pay for event construction and
/// delivery, not for a growing buffer.
#[derive(Default)]
struct CountingSink {
    events: AtomicU64,
}

impl EventSink for CountingSink {
    fn record(&self, _record: &ObsRecord) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs the sweep once on one worker and returns its report, its wall-clock seconds
/// and the events delivered: bare, with no sink installed, or instrumented, with a
/// counting sink installed for the run and every backend wrapped in [`ObsBackend`].
fn sweep(campaign: &Campaign, instrumented: bool) -> (CampaignReport, f64, u64) {
    if !instrumented {
        let start = Instant::now();
        let report = campaign.run_with_workers(1);
        return (report, start.elapsed().as_secs_f64(), 0);
    }
    let sink = Arc::new(CountingSink::default());
    let sink_id = install_sink(sink.clone());
    let start = Instant::now();
    let provider = ObsProvider::new(Box::new(SimProvider));
    let report = campaign.run_with_provider(&provider, 1);
    let seconds = start.elapsed().as_secs_f64();
    remove_sink(sink_id);
    (report, seconds, sink.events.load(Ordering::Relaxed))
}

/// The two keys of a `BENCH_fig15.json` record this gate checks.
struct Fig15Baseline {
    mode: String,
    campaign_fingerprint: u64,
}

impl FromJson for Fig15Baseline {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        Ok(Fig15Baseline {
            mode: node.read("mode")?,
            campaign_fingerprint: node.read("campaign_fingerprint")?,
        })
    }
}

fn main() {
    let smoke = dg_campaign::smoke_requested();
    let spec = dg_bench::fig15_sweep_spec(smoke);
    let campaign = Campaign::new(spec);
    let pairs = 41;

    println!("=== dg-obs overhead gate (Fig. 15 sweep, 1 worker, {pairs} pairs) ===\n");

    // Warm-up pass, and the correctness gate: live instrumentation must not change a
    // byte of the report. The disabled leg is the exact configuration fig15_vm_sweep
    // records.
    let (disabled_report, _, _) = sweep(&campaign, false);
    let reference = disabled_report.to_json();
    let fingerprint = fnv1a(&reference);
    let (instrumented_report, _, events) = sweep(&campaign, true);
    assert_eq!(
        instrumented_report.to_json(),
        reference,
        "instrumentation must be invisible in the canonical report"
    );
    assert!(events > 0, "the instrumented leg must actually emit events");

    let mut disabled_times = Vec::with_capacity(pairs);
    let mut instrumented_times = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let legs = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut seconds = [0.0; 2];
        for instrumented in legs {
            let (report, elapsed, _) = sweep(&campaign, instrumented);
            assert_eq!(
                report.to_json(),
                reference,
                "repeated sweeps must be byte-identical"
            );
            seconds[usize::from(instrumented)] = elapsed;
        }
        disabled_times.push(seconds[0]);
        instrumented_times.push(seconds[1]);
        ratios.push(seconds[1] / seconds[0]);
    }
    let disabled_seconds = median(&disabled_times);
    let instrumented_seconds = median(&instrumented_times);
    let overhead_percent = 100.0 * (median(&ratios) - 1.0);

    println!(
        "disabled:     {disabled_seconds:>8.3} s  (median of {pairs}, fingerprint {fingerprint})"
    );
    println!(
        "instrumented: {instrumented_seconds:>8.3} s  (median of {pairs}, {events} events per sweep; median pair {overhead_percent:+.2} % vs disabled, byte-identical report)"
    );
    // The smoke sweep is ~30 ms with ~2.6× the event density per unit of work, so
    // a flat 2 % bound would trip on fixed per-event costs and timer noise there.
    let max_overhead = if smoke { 10.0 } else { 2.0 };
    assert!(
        overhead_percent < max_overhead,
        "live instrumentation must cost < {max_overhead} % on the fig15 sweep (measured {overhead_percent:+.2} %)"
    );

    // Cross-check against the fig15 artifact: same campaign, same report. The
    // reference is DG_OBS_BASELINE when set (CI points it at a freshly generated
    // smoke artifact); full mode falls back to the pinned repo-root file.
    let baseline_path = std::env::var("DG_OBS_BASELINE").unwrap_or_else(|_| {
        if smoke {
            String::new()
        } else {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig15.json").into()
        }
    });
    if baseline_path.is_empty() {
        println!("baseline:     skipped (no DG_OBS_BASELINE and not in full mode)");
    } else {
        let baseline: Fig15Baseline = std::fs::read_to_string(&baseline_path)
            .map_err(|err| err.to_string())
            .and_then(|text| json::decode(&text))
            .unwrap_or_else(|err| panic!("unreadable fig15 baseline at {baseline_path}: {err}"));
        assert_eq!(
            baseline.mode,
            if smoke { "smoke" } else { "full" },
            "the fig15 baseline at {baseline_path} was produced at a different scale"
        );
        assert_eq!(
            fingerprint, baseline.campaign_fingerprint,
            "disabled-mode sweep diverged from the fig15 baseline at {baseline_path}"
        );
        println!("baseline:     fingerprint matches {baseline_path}");
    }

    let json = json::object(|o| {
        o.field("bench", "obs_overhead")
            .field("mode", if smoke { "smoke" } else { "full" })
            .field("cells", &campaign.spec().grid_size())
            .field("pairs", &pairs)
            .field("disabled_seconds", &disabled_seconds)
            .field("instrumented_seconds", &instrumented_seconds)
            .field("overhead_percent", &overhead_percent)
            .field("events", &events)
            .field("campaign_fingerprint", &fingerprint);
    });
    println!("\n{json}");

    // Full runs refresh the pinned repo-root artifact by default; smoke runs only
    // write when CI points them somewhere explicitly.
    let default_path = if smoke {
        String::new()
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs_overhead.json").into()
    };
    let path = std::env::var("DG_OBS_OUT").unwrap_or(default_path);
    if !path.is_empty() {
        std::fs::write(&path, &json).expect("write obs overhead report");
        println!("report written to {path}");
    }
}
