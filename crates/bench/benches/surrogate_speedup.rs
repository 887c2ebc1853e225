//! Surrogate-model speedup on a grid-heavy sweep (the tentpole's headline number).
//!
//! The claim being verified: a [`SurrogateBackend`] serving confident repeat
//! evaluations from its n-tuple model finds an **equal-or-better champion** than the
//! direct simulator sweep while committing **at least 10x fewer simulator
//! operations**. The workload is the exhaustive-ish sweep tuners like Exhaustive and
//! NTBEA lean on: every sampled configuration evaluated `passes` times under each
//! scenario of the built-in pack, champion = lowest mean observed time. The direct
//! leg pays `passes` simulations per configuration; the surrogate leg pays for the
//! first `min_samples` (which train the model) and serves the rest, so the expected
//! reduction is `passes / min_samples`.
//!
//! Champion *quality* is judged by the workload's true `base_time` of each leg's
//! champion — the ground truth the simulator perturbs — aggregated across the
//! scenario pack.
//!
//! Run with `cargo bench --bench surrogate_speedup`. Set `DG_SMOKE=1`
//! for the CI-sized sweep and `DG_SURROGATE_OUT=/path/report.json` to write the
//! machine-readable results (the same JSON always goes to stdout).

use dg_cloudsim::{CloudEnvironment, InterferenceProfile, SimTime, VmType};
use dg_exec::json;
use dg_exec::{sim_ops, ExecutionBackend, SurrogateBackend, SurrogateConfig};
use dg_scenario::{ScenarioBackend, ScenarioSpec};
use dg_workloads::{Application, ConfigId, Workload};

const VM: VmType = VmType::M5_8xlarge;

/// The tuned gate: two real samples train each configuration, everything after is
/// served. `bins` is set so fine that the low-order tuples are effectively
/// per-configuration too — coarse cross-config blends would otherwise start serving
/// during the very first pass, starving most configurations of any real sample and
/// skewing the champion under time-varying scenarios.
fn surrogate_config() -> SurrogateConfig {
    SurrogateConfig {
        fraction: 1.0,
        min_samples: 2,
        max_rel_std: 0.35,
        bins: 4096,
    }
}

/// Passes start on day boundaries: a nightly sweep, each configuration always
/// evaluated at the same time of day. Without this, a config's position in the pass
/// order correlates with the diurnal phase it is sampled at, and the two legs (which
/// sample each config a different number of times) would face differently-biased
/// objectives.
const DAY: f64 = 86_400.0;

/// One leg: evaluate every configuration `passes` times, pass-major (the order a
/// sweeping tuner issues them), and crown the lowest mean. Returns the champion and
/// the simulator operations the leg committed.
fn sweep(
    mut exec: Box<dyn ExecutionBackend>,
    workload: &Workload,
    configs: &[ConfigId],
    passes: u64,
) -> (ConfigId, u64) {
    let before = sim_ops();
    let mut sums = vec![0.0_f64; configs.len()];
    for _ in 0..passes {
        let day = (exec.clock().as_seconds() / DAY).floor() + 1.0;
        exec.set_clock(SimTime::from_seconds(day * DAY));
        for (slot, id) in configs.iter().enumerate() {
            sums[slot] += exec.run_single(workload.spec(*id)).observed_time;
        }
    }
    let champion = sums
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
        .map(|(slot, _)| configs[slot])
        .expect("at least one configuration");
    (champion, sim_ops() - before)
}

struct ScenarioRow {
    name: String,
    direct_ops: u64,
    surrogate_ops: u64,
    model_evals: u64,
    direct_quality: f64,
    surrogate_quality: f64,
}

fn main() {
    let smoke = dg_campaign::smoke_requested();
    let (config_count, passes) = if smoke {
        (24usize, 24u64)
    } else {
        (96usize, 40u64)
    };

    let workload = Workload::scaled(Application::Redis, 20_000);
    let stride = (workload.size() / config_count as u64).max(1);
    let configs: Vec<ConfigId> = (0..config_count as u64)
        .map(|i| (i * stride) % workload.size())
        .collect();

    let scenarios = ScenarioSpec::pack();
    println!(
        "=== Surrogate speedup: {} configs x {passes} passes x {} scenarios ({}) ===\n",
        configs.len(),
        scenarios.len(),
        if smoke { "smoke" } else { "full" },
    );

    let mut rows: Vec<ScenarioRow> = Vec::with_capacity(scenarios.len());
    for (index, scenario) in scenarios.iter().enumerate() {
        let seed = 0xbead + index as u64;
        let backend = |seed: u64| -> Box<dyn ExecutionBackend> {
            let sim = Box::new(CloudEnvironment::new(
                VM,
                InterferenceProfile::typical(),
                seed,
            ));
            if scenario.is_passthrough() {
                sim
            } else {
                Box::new(ScenarioBackend::new(sim, scenario.clone(), seed))
            }
        };

        let (direct_champion, direct_ops) = sweep(backend(seed), &workload, &configs, passes);
        let surrogate = SurrogateBackend::new(backend(seed), surrogate_config());
        let stats = surrogate.stats().clone();
        let (surrogate_champion, surrogate_ops) =
            sweep(Box::new(surrogate), &workload, &configs, passes);

        rows.push(ScenarioRow {
            name: scenario.name.clone(),
            direct_ops,
            surrogate_ops,
            model_evals: stats.model_served(),
            direct_quality: workload.base_time(direct_champion),
            surrogate_quality: workload.base_time(surrogate_champion),
        });
    }

    println!(
        "{:<20} {:>11} {:>13} {:>7} {:>13} {:>15}",
        "scenario", "direct ops", "surrogate ops", "ratio", "direct champ", "surrogate champ"
    );
    for row in &rows {
        println!(
            "{:<20} {:>11} {:>13} {:>6.1}x {:>11.2} s {:>13.2} s",
            row.name,
            row.direct_ops,
            row.surrogate_ops,
            row.direct_ops as f64 / row.surrogate_ops as f64,
            row.direct_quality,
            row.surrogate_quality,
        );
    }

    let direct_total: u64 = rows.iter().map(|r| r.direct_ops).sum();
    let surrogate_total: u64 = rows.iter().map(|r| r.surrogate_ops).sum();
    let ops_ratio = direct_total as f64 / surrogate_total as f64;
    let direct_quality: f64 = rows.iter().map(|r| r.direct_quality).sum();
    let surrogate_quality: f64 = rows.iter().map(|r| r.surrogate_quality).sum();
    let quality_ratio = surrogate_quality / direct_quality;
    println!(
        "\ntotal: {direct_total} direct ops vs {surrogate_total} surrogate ops \
         ({ops_ratio:.1}x fewer), champion quality ratio {quality_ratio:.4} \
         (surrogate/direct, lower is better)"
    );

    // The machine-readable record, to stdout and (optionally) a file.
    let json = json::object(|o| {
        o.field("bench", "surrogate_speedup")
            .field("mode", if smoke { "smoke" } else { "full" })
            .field("configs", &config_count)
            .field("passes", &passes)
            .field("direct_sim_ops", &direct_total)
            .field("surrogate_sim_ops", &surrogate_total)
            .field("sim_ops_ratio", &ops_ratio)
            .field("quality_ratio", &quality_ratio)
            .array("scenarios", |scenarios| {
                for row in &rows {
                    scenarios.object(|o| {
                        o.field("scenario", &row.name)
                            .field("direct_sim_ops", &row.direct_ops)
                            .field("surrogate_sim_ops", &row.surrogate_ops)
                            .field("model_evals", &row.model_evals)
                            .field("direct_champion_base_time", &row.direct_quality)
                            .field("surrogate_champion_base_time", &row.surrogate_quality);
                    });
                }
            });
    });
    println!("\n{json}");
    if let Ok(path) = std::env::var("DG_SURROGATE_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, &json).expect("write surrogate bench report");
            println!("report written to {path}");
        }
    }

    assert!(
        ops_ratio >= 10.0,
        "the surrogate must commit at least 10x fewer sim ops (measured {ops_ratio:.1}x)"
    );
    assert!(
        quality_ratio <= 1.0 + 1e-9,
        "the surrogate's champions must be equal-or-better in aggregate \
         (quality ratio {quality_ratio:.4})"
    );
}
