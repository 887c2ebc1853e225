//! Figure 15 — DarwinGame's effectiveness across VM classes and sizes.
//!
//! The Redis workload is tuned with DarwinGame on every VM type of the paper's sweep
//! (m5.large … m5.24xlarge, c5.9xlarge, r5.8xlarge, i3.8xlarge), two seeds per VM — a
//! 16-cell campaign. The sweep runs four ways, and every report must be byte-identical
//! to the first: on one worker, on all cores, *sharded* (K ∈ {2, 4} shards run
//! independently, round-tripped through the shard-report JSON wire format, then
//! merged), and *replayed* from a recorded execution trace with zero simulator
//! operations. The bench times nothing: perfbench's `vm_sweep` workload times this
//! campaign over repeated fresh-process runs.
//!
//! Run with `cargo bench --bench fig15_vm_sweep`. Set `DG_SMOKE=1` to shrink the
//! grid to a CI-sized smoke sweep (used by the `replay-smoke` CI job).
//!
//! # `BENCH_fig15.json`
//!
//! The record holds no timings, so a full run reproduces the committed file byte for
//! byte (CI checks it with `cmp`):
//!
//! | key | meaning |
//! |---|---|
//! | `bench`, `mode`, `cells` | `"fig15_vm_sweep"`, `"smoke"` or `"full"`, the campaign grid size |
//! | `trace_events` | events in the recorded trace the bench replays |
//! | `campaign_fingerprint` | FNV-1a hash of the canonical campaign report JSON (`u64`) |
//! | `vms[]` | per VM: `vm`, `vcpus`, `oracle_seconds`, `darwin_seconds`, `cov_percent` (the Fig. 15 curve) |

use dg_campaign::{
    default_workers, Campaign, CampaignReport, ExecutionTrace, ShardPlan, ShardReport,
    ShardStrategy,
};
use dg_cloudsim::VmType;
use dg_exec::json::{self, fnv1a};
use dg_exec::sim_ops;
use dg_stats::{Column, Table};
use dg_tuners::OracleTuner;
use dg_workloads::{Application, Workload};

fn main() {
    let smoke = dg_campaign::smoke_requested();
    // Shared with the `obs_overhead` bench, which gates its overhead measurement on
    // this exact sweep and proves it via the report fingerprint.
    let spec = dg_bench::fig15_sweep_spec(smoke);
    let workload = Workload::scaled(Application::Redis, spec.scale.space_size);
    let campaign = Campaign::new(spec);
    let workers = default_workers();

    println!("=== Figure 15: DarwinGame vs Oracle across VM types (Redis) ===\n");
    println!(
        "campaign grid: {} cells (8 VM types x 2 seeds)",
        campaign.spec().grid_size()
    );

    let serial_report = campaign.run_with_workers(1);
    let parallel_report = campaign.run_with_workers(workers);
    assert_eq!(
        serial_report.to_json(),
        parallel_report.to_json(),
        "1-worker and {workers}-worker campaigns must be byte-identical"
    );
    println!("1 worker vs {workers} workers: byte-identical reports");

    // The sharded variant: split the same 16-cell grid into K independent shard runs
    // (each round-tripped through the canonical shard-report JSON, the way real shard
    // processes hand results around), merge, and demand byte-identity with the serial
    // report.
    for (shards, strategy) in [
        (2, ShardStrategy::Contiguous),
        (4, ShardStrategy::CostBalanced),
    ] {
        let plan = ShardPlan::new(campaign.spec(), shards, strategy);
        let reports: Vec<ShardReport> = (0..plan.shard_count())
            .map(|shard| {
                let report = campaign.run_shard_with_workers(&plan, shard, workers);
                ShardReport::from_json(&report.to_json()).expect("canonical round trip")
            })
            .collect();
        let merged = CampaignReport::merge(reports).expect("plan shards merge");
        assert_eq!(
            merged.to_json(),
            serial_report.to_json(),
            "{shards}-shard ({strategy}) merged report must be byte-identical to the serial run"
        );
        println!("sharded (K={shards}, {strategy}): merged report byte-identical");
    }

    // The replay variant: record the sweep once (trace round-tripped through its
    // canonical JSON wire format, the way a stored artifact travels), then replay it
    // with zero simulator operations and demand byte-identity with the serial report.
    let (recorded_report, trace) = campaign.record();
    assert_eq!(
        recorded_report.to_json(),
        serial_report.to_json(),
        "recording must not change the report"
    );
    let trace = ExecutionTrace::from_json(&trace.to_json()).expect("canonical traces round-trip");
    let trace_events = trace.events_total();
    // Single-worker replay runs on this thread, so the thread-local simulator-op
    // counter proves zero resimulation exactly.
    let ops_before = sim_ops();
    let replayed_report = campaign
        .replay_with_workers(trace, 1)
        .expect("trace matches its own spec");
    assert_eq!(sim_ops(), ops_before, "replay must not touch the simulator");
    assert_eq!(
        replayed_report.to_json(),
        serial_report.to_json(),
        "replayed report must be byte-identical to the serial run"
    );
    println!(
        "recorded {trace_events} trace events; replay: 0 simulator ops, byte-identical report\n"
    );

    let mut table = Table::new(vec![
        Column::left("VM type"),
        Column::right("vCPUs"),
        Column::right("Oracle (s)"),
        Column::right("DarwinGame (s)"),
        Column::right("gap (%)"),
        Column::right("CoV (%)"),
    ]);
    for (group, vm) in parallel_report.groups.iter().zip(VmType::ALL.iter()) {
        let oracle = OracleTuner::new().optimal_time(&workload, *vm);
        table.push_row(vec![
            group.vm.clone(),
            format!("{}", vm.vcpus()),
            format!("{oracle:.1}"),
            format!("{:.1}", group.mean_time),
            format!("{:.1}", dg_stats::percent_change(group.mean_time, oracle)),
            format!("{:.2}", group.mean_cov_percent),
        ]);
    }
    println!("{}", table.render());
    println!("(paper: DarwinGame stays within ~10 % of the Oracle on every VM type, with");
    println!(" CoV below 0.5 %; smaller VMs see more interference, larger ones less)");

    // The machine-readable record (BENCH_fig15.json at the repo root is this, re-emitted
    // in full mode). `campaign_fingerprint` hashes the canonical report JSON so separate
    // processes (e.g. the obs_overhead bench) can prove they computed the very same
    // campaign.
    let json = json::object(|o| {
        o.field("bench", "fig15_vm_sweep")
            .field("mode", if smoke { "smoke" } else { "full" })
            .field("cells", &campaign.spec().grid_size())
            .field("trace_events", &trace_events)
            .field("campaign_fingerprint", &fnv1a(&serial_report.to_json()))
            .array("vms", |vms| {
                for (group, vm) in parallel_report.groups.iter().zip(VmType::ALL.iter()) {
                    vms.object(|row| {
                        row.field("vm", &group.vm)
                            .field("vcpus", &vm.vcpus())
                            .field(
                                "oracle_seconds",
                                &OracleTuner::new().optimal_time(&workload, *vm),
                            )
                            .field("darwin_seconds", &group.mean_time)
                            .field("cov_percent", &group.mean_cov_percent);
                    });
                }
            });
    });
    println!("\n{json}");
    // Full runs refresh the pinned repo-root artifact by default; smoke runs only
    // write when CI points them somewhere explicitly, so a quick local smoke never
    // clobbers the committed full-mode record.
    let default_path = if smoke {
        String::new()
    } else {
        // Anchor at the workspace root (cargo runs benches from the package dir).
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig15.json").into()
    };
    let path = std::env::var("DG_FIG15_OUT").unwrap_or(default_path);
    if !path.is_empty() {
        std::fs::write(&path, &json).expect("write fig15 bench report");
        println!("report written to {path}");
    }
}
