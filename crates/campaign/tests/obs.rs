//! The `dg-obs` campaign neutrality battery.
//!
//! Observability must never perturb canonical artifacts: with a sink installed
//! (every event constructed and delivered), campaign, shard, and replay
//! reports must stay **byte-identical** to a bare run — across worker counts. The
//! vendored proptest harness runs 64 deterministic cases per property, rotating
//! through the three report kinds.
//!
//! The second battery pins the claim-sequence contract: cell events recorded from a
//! parallel run, ordered by their `cell_seq` stamps, replay to exactly the sequence a
//! 1-worker run produces.
//!
//! The global sink registry is process-wide, so everything serializes on a shared
//! mutex and removes its sink before releasing it.

use dg_campaign::{Campaign, CampaignSpec, ExperimentScale, ShardPlan, ShardStrategy};
use dg_cloudsim::{InterferenceProfile, VmType};
use dg_obs::{install_sink, remove_sink, ObsEvent, ObsRecord, RingSink};
use dg_workloads::Application;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the battery: the sink registry is process-global.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` with observability fully live (a bounded ring installed) and removes the
/// ring afterwards, returning the result and the ring.
fn with_live_obs<T>(f: impl FnOnce() -> T) -> (T, Arc<RingSink>) {
    let ring = Arc::new(RingSink::new(65_536));
    let id = install_sink(ring.clone());
    let result = f();
    remove_sink(id);
    (result, ring)
}

/// A deliberately tiny per-cell scale so 64 differential cases stay fast.
fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        space_size: 400,
        regions: 4,
        players_per_game: 4,
        baseline_budget: 6,
        exhaustive_budget: 24,
        evaluation_runs: 4,
        evaluation_spacing: 600.0,
        tuning_repeats: 1,
    }
}

/// Builds a randomized small grid from the sampled axis sizes.
fn random_spec(tuner_count: usize, seed_count: u64, base_seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("obs-differential");
    let tuner_pool = ["RandomSearch", "OpenTuner", "ActiveHarmony"];
    spec.tuners = tuner_pool[..tuner_count]
        .iter()
        .map(|t| t.to_string())
        .collect();
    spec.applications = vec![Application::Redis];
    spec.vm_types = vec![VmType::M5_8xlarge];
    spec.profiles = vec![InterferenceProfile::typical()];
    spec.seeds = (0..seed_count).collect();
    spec.scale = tiny_scale();
    spec.base_seed = base_seed;
    spec
}

/// The normalised form of one cell event: claim sequence, kind rank (start = 0,
/// finish = 1), and the cell's stable grid index.
fn cell_sequence(records: &[ObsRecord]) -> Vec<(u64, u8, usize)> {
    let mut events: Vec<(u64, u8, usize)> = records
        .iter()
        .filter_map(|r| match &r.event {
            ObsEvent::CellStart {
                cell_seq, index, ..
            } => Some((*cell_seq, 0, *index)),
            ObsEvent::CellFinish {
                cell_seq, index, ..
            } => Some((*cell_seq, 1, *index)),
            _ => None,
        })
        .collect();
    events.sort_unstable();
    events
}

proptest! {
    /// The differential property: with observability live, every canonical report —
    /// whole-campaign, per-shard, and replayed-from-trace — is byte-identical to the
    /// bare 1-worker run, regardless of the instrumented run's worker count.
    #[test]
    fn instrumented_reports_are_byte_identical_to_bare(
        tuner_count in 1usize..3,
        seed_count in 1u64..3,
        base_seed in 0u64..1_000_000,
        workers in 2usize..5,
        mode in 0usize..3,
    ) {
        let _guard = obs_lock();
        let spec = random_spec(tuner_count, seed_count, base_seed);
        let campaign = Campaign::new(spec.clone());
        match mode {
            0 => {
                let bare = campaign.run_with_workers(1);
                let (instrumented, ring) =
                    with_live_obs(|| campaign.run_with_workers(workers));
                prop_assert_eq!(
                    bare.to_json(),
                    instrumented.to_json(),
                    "live instrumentation perturbed the campaign report"
                );
                prop_assert!(!ring.is_empty(), "live obs produced no events");
            }
            1 => {
                let plan = ShardPlan::new(&spec, 2, ShardStrategy::CostBalanced);
                for shard in 0..plan.shard_count() {
                    let bare = campaign.run_shard_with_workers(&plan, shard, 1);
                    let (instrumented, _ring) = with_live_obs(|| {
                        campaign.run_shard_with_workers(&plan, shard, workers)
                    });
                    prop_assert_eq!(
                        bare.to_json(),
                        instrumented.to_json(),
                        "live instrumentation perturbed shard {}", shard
                    );
                }
            }
            _ => {
                let (recorded, trace) = campaign.record_with_workers(1);
                let (replayed, _ring) = with_live_obs(|| {
                    campaign
                        .replay_with_workers(trace, workers)
                        .expect("instrumented replay succeeds")
                });
                prop_assert_eq!(
                    recorded.to_json(),
                    replayed.to_json(),
                    "live instrumentation perturbed the replayed report"
                );
            }
        }
    }

    /// The claim-sequence contract: cell events from an N-worker run, ordered by
    /// their deterministic `cell_seq` stamps, are exactly the 1-worker sequence —
    /// one start and one finish per scheduled cell, indices in schedule order.
    #[test]
    fn claim_sequences_replay_identically_across_worker_counts(
        tuner_count in 1usize..3,
        seed_count in 1u64..3,
        base_seed in 0u64..1_000_000,
        workers in 2usize..5,
    ) {
        let _guard = obs_lock();
        let spec = random_spec(tuner_count, seed_count, base_seed);
        let campaign = Campaign::new(spec.clone());
        let (_report, serial_ring) = with_live_obs(|| campaign.run_with_workers(1));
        let (_report, parallel_ring) =
            with_live_obs(|| campaign.run_with_workers(workers));
        let serial = cell_sequence(&serial_ring.drain());
        let parallel = cell_sequence(&parallel_ring.drain());
        prop_assert_eq!(
            &serial, &parallel,
            "normalised cell-event sequences diverged across worker counts"
        );
        let cells = spec.cells().len();
        prop_assert_eq!(serial.len(), 2 * cells, "one start and one finish per cell");
        for (cell, chunk) in serial.chunks(2).enumerate() {
            prop_assert_eq!(chunk[0], (cell as u64, 0, cell), "start stamps claim order");
            prop_assert_eq!(chunk[1], (cell as u64, 1, cell), "finish stamps claim order");
        }
    }
}
