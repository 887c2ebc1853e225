//! Live campaign progress over the `dg-obs` event stream.
//!
//! The campaign executor stamps every `cell_start` / `cell_finish` event with its
//! deterministic **claim sequence** (the cell's position in schedule order, identical
//! for every worker count), so a progress stream recorded from a parallel run can be
//! replayed in exactly the order a serial run would have produced. This example:
//!
//! 1. installs a live progress sink (a [`ProgressMeter`] behind an [`EventSink`])
//!    and runs the same campaign on 1 worker and on N workers;
//! 2. records both event streams, normalises them by claim sequence, and asserts
//!    they are identical — and that the two reports are byte-identical;
//! 3. does the same for a 2-way sharded run (per shard, 1 vs N workers), merging
//!    the shards back into the whole-campaign report.
//!
//! Environment knobs:
//!
//! * `DG_PROGRESS_OUT=<path>` — write the final campaign report JSON there (CI runs
//!   the example twice and byte-diffs the two files);
//! * `DG_PROGRESS_JSONL=<path>` — additionally record the raw event stream as JSONL.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example campaign_progress
//! ```

use darwingame::prelude::*;
use std::sync::{Arc, Mutex};

/// One normalised progress event: claim sequence, kind rank (start = 0, finish = 1),
/// and the cell's stable grid index. Sorting by the first two fields reproduces the
/// serial schedule order from any worker count's interleaving.
type SeqEvent = (u64, u8, usize);

/// An [`EventSink`] that folds cell events into a [`ProgressMeter`] (printing a live
/// progress line per finished cell) while recording the normalised sequence.
struct ProgressSink {
    label: &'static str,
    quiet: bool,
    meter: Mutex<ProgressMeter>,
    events: Mutex<Vec<SeqEvent>>,
}

impl ProgressSink {
    fn new(label: &'static str, spec: &CampaignSpec, quiet: bool) -> Self {
        Self {
            label,
            quiet,
            meter: Mutex::new(ProgressMeter::for_spec(spec)),
            events: Mutex::new(Vec::new()),
        }
    }

    fn sequence(&self) -> Vec<SeqEvent> {
        let mut events = self.events.lock().expect("progress sink poisoned").clone();
        events.sort_unstable();
        events
    }
}

impl EventSink for ProgressSink {
    fn record(&self, record: &ObsRecord) {
        let (cell_seq, kind, index) = match &record.event {
            ObsEvent::CellStart {
                cell_seq, index, ..
            } => (*cell_seq, 0, *index),
            ObsEvent::CellFinish {
                cell_seq, index, ..
            } => (*cell_seq, 1, *index),
            _ => return,
        };
        self.events
            .lock()
            .expect("progress sink poisoned")
            .push((cell_seq, kind, index));
        let mut meter = self.meter.lock().expect("progress meter poisoned");
        if let Some(update) = meter.observe(&record.event) {
            if !self.quiet {
                let eta = update
                    .eta_seconds
                    .map(|s| format!("{s:.1}s"))
                    .unwrap_or_else(|| "?".into());
                println!(
                    "  [{}] cell {:>2} done  {:>3}/{} cells  {:>5.1}%  eta {}",
                    self.label,
                    update.index,
                    update.completed_cells,
                    update.total_cells,
                    update.fraction * 100.0,
                    eta,
                );
            }
        }
    }
}

/// Runs `run` with a fresh progress sink installed, returning the result and the
/// normalised event sequence the run produced.
fn observed<T>(
    label: &'static str,
    spec: &CampaignSpec,
    quiet: bool,
    run: impl FnOnce() -> T,
) -> (T, Vec<SeqEvent>) {
    let sink = Arc::new(ProgressSink::new(label, spec, quiet));
    let id = install_sink(sink.clone());
    let result = run();
    remove_sink(id);
    (result, sink.sequence())
}

fn main() {
    let jsonl = std::env::var("DG_PROGRESS_JSONL")
        .ok()
        .map(|path| install_sink(Arc::new(JsonlSink::create(&path).expect("open JSONL sink"))));

    let mut spec = CampaignSpec::single("campaign-progress", "DarwinGame", 4);
    spec.scale = ExperimentScale::smoke();
    spec.tuners = vec!["DarwinGame".into(), "RandomSearch".into()];
    spec.base_seed = 7;
    let campaign = Campaign::new(spec.clone());
    let workers = default_workers().max(2);
    let total_cost: f64 = cell_cost_estimates(&spec).iter().sum();
    println!(
        "campaign `{}`: {} cells, {:.0} budgeted evaluations, {} workers\n",
        spec.name,
        spec.cells().len(),
        total_cost,
        workers,
    );

    // -------- Whole-campaign run: 1 worker vs N workers --------
    println!("running on 1 worker:");
    let (serial, serial_seq) = observed("1w", &spec, false, || campaign.run_with_workers(1));
    println!("running on {workers} workers:");
    let (parallel, parallel_seq) =
        observed("Nw", &spec, false, || campaign.run_with_workers(workers));
    assert_eq!(
        serial_seq, parallel_seq,
        "normalised progress sequences must match across worker counts"
    );
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "reports must be byte-identical across worker counts"
    );
    println!(
        "\n1-vs-{workers}-worker: {} events replay identically, reports byte-identical",
        serial_seq.len(),
    );

    // -------- Sharded run: per shard, 1 worker vs N workers --------
    let plan = ShardPlan::new(&spec, 2, ShardStrategy::CostBalanced);
    let mut shards = Vec::new();
    for shard in 0..plan.shard_count() {
        let (one, one_seq) = observed("shard/1w", &spec, true, || {
            campaign.run_shard_with_workers(&plan, shard, 1)
        });
        let (many, many_seq) = observed("shard/Nw", &spec, true, || {
            campaign.run_shard_with_workers(&plan, shard, workers)
        });
        assert_eq!(
            one_seq, many_seq,
            "shard {shard}: progress sequences must match across worker counts"
        );
        assert_eq!(
            one.to_json(),
            many.to_json(),
            "shard {shard}: reports must be byte-identical across worker counts"
        );
        println!(
            "shard {shard}: {} cells, {} events replay identically on 1 vs {workers} workers",
            one.cells.len(),
            one_seq.len(),
        );
        shards.push(one);
    }
    let merged = CampaignReport::merge(shards).expect("shards merge");
    assert_eq!(
        merged.to_json(),
        serial.to_json(),
        "merged shard report must equal the single-host report"
    );
    println!("merged 2-shard report is byte-identical to the single-host report");

    if let Some(id) = jsonl {
        remove_sink(id);
    }
    if let Ok(path) = std::env::var("DG_PROGRESS_OUT") {
        std::fs::write(&path, serial.to_json()).expect("write DG_PROGRESS_OUT");
        println!("final report written to {path}");
    }
    println!(
        "\nmetrics snapshot:\n{}",
        darwingame::obs::MetricsSnapshot::capture().to_json()
    );
}
