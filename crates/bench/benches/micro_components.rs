//! Micro-benchmarks (Criterion) of the implementation's hot paths.
//!
//! These do not reproduce a paper figure; they track the performance of the simulator and
//! tournament building blocks so that regressions in the reproduction's own code are
//! visible: surface evaluation (on a scaled space and on the full one, where every
//! lookup computes the surface), one paper-scale region's candidate sampling,
//! interference sampling, a single co-located game of 16 and of 5 players, one
//! 16-player game's normal draws, a solo run, one and a hundred consecutive paper-scale
//! regions of the regional phase, the GP surrogate fit and refit, the pool's best pick
//! (BLISS's and the hybrid strategy's path), one NTBEA session, and a small end-to-end
//! tournament.
//!
//! Run with `cargo bench --bench micro_components`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use darwin_core::{run_region, DarwinGame, TournamentConfig};
use dg_cloudsim::{CloudEnvironment, InterferenceProfile, SimRng, VmType};
use dg_exec::{ExecutionBackend, GameBatchItem, GameRules};
use dg_scenario::{ScenarioEvent, ScenarioSpec};
use dg_tuners::{GaussianProcess, Ntbea, Tuner, TuningBudget};
use dg_workloads::{Application, IndexPartition, Workload};
use std::cell::Cell;
use std::hint::black_box;

fn bench_surface_evaluation(c: &mut Criterion) {
    let workload = Workload::scaled(Application::Redis, 100_000);
    c.bench_function("surface_spec_lookup", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id = (id + 7919) % workload.size();
            black_box(workload.surface().spec(id))
        })
    });
    // The paper-scale lookup: fixed random ids of the full 5.3M-config Redis space.
    let full = Workload::full(Application::Redis);
    let mut rng = SimRng::new(23);
    let ids: Vec<u64> = (0..4_096)
        .map(|_| rng.index(full.size() as usize) as u64)
        .collect();
    c.bench_function("surface_spec_lookup_full_redis", |b| {
        let mut next = 0;
        b.iter(|| {
            next = (next + 1) % ids.len();
            black_box(full.spec(black_box(ids[next])))
        })
    });
}

fn bench_candidate_sampling(c: &mut Criterion) {
    // A paper-scale region's candidate pool: 72 distinct configurations (P = 16 over
    // the default round cap) from one of the 531-config regions of the full Redis space
    // cut into 10,000 regions.
    let partition = IndexPartition::new(Workload::full(Application::Redis).size(), 10_000);
    let region = 4_321;
    assert_eq!(partition.part_size(region), 531);
    let mut rng = SimRng::new(29);
    c.bench_function("sample_distinct_72_of_531", |b| {
        b.iter(|| black_box(partition.sample_distinct(region, 72, &mut rng)))
    });
}

fn bench_interference_sampling(c: &mut Criterion) {
    let sampler = InterferenceProfile::typical().sampler(42);
    c.bench_function("interference_sampler_level", |b| {
        let mut t = 0.0f64;
        b.iter(|| {
            t += 13.7;
            black_box(sampler.level_at_seconds(t))
        })
    });
}

fn bench_timeline_lookups(c: &mut Criterion) {
    // A timeline with every kind of structure: shifts, storms, a diurnal curve,
    // preemptions, and price steps — the load/price lookups sit on the scenario
    // engine's per-operation hot path.
    let mut spec = ScenarioSpec::new("micro");
    spec.events = vec![
        ScenarioEvent::LoadShift {
            at: 500.0,
            factor: 1.6,
        },
        ScenarioEvent::StormFront {
            start: 0.0,
            period: 400.0,
            chance: 0.5,
            duration: 60.0,
            factor: 1.8,
            windows: 24,
        },
        ScenarioEvent::Diurnal {
            period: 3_600.0,
            amplitude: 0.5,
            phase: 0.3,
        },
        ScenarioEvent::Preemptions {
            start: 0.0,
            mean_interval: 900.0,
            downtime: 30.0,
            count: 8,
        },
        ScenarioEvent::PriceChange {
            at: 1_000.0,
            factor: 0.6,
        },
    ];
    let timeline = spec.timeline(7);
    c.bench_function("timeline_load_factor", |b| {
        let mut t = 0.0f64;
        b.iter(|| {
            t += 37.3;
            black_box(timeline.load_factor(t))
        })
    });
    c.bench_function("timeline_price_factor", |b| {
        let mut t = 0.0f64;
        b.iter(|| {
            t += 37.3;
            black_box(timeline.price_factor(t))
        })
    });
}

fn bench_single_game(c: &mut Criterion) {
    let workload = Workload::scaled(Application::Redis, 50_000);
    let env = || CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 3);
    // 16 players, the paper-scale width, and 5, a narrow game of the fig15 sweep.
    for players in [16, 5] {
        let configs: Vec<u64> = (0..players)
            .map(|i| i * (workload.size() / (players + 1)))
            .collect();
        c.bench_function(&format!("colocated_game_{players}_players"), |b| {
            b.iter_batched(
                env,
                |mut cloud| {
                    let specs: Vec<_> = configs.iter().map(|id| workload.spec(*id)).collect();
                    black_box(cloud.play_game(&specs, &GameRules::default()))
                },
                BatchSize::SmallInput,
            )
        });
    }
    // One committed solo run, the baselines' only simulator call.
    let spec = workload.spec(workload.size() / 3);
    c.bench_function("solo_run", |b| {
        b.iter_batched(
            env,
            |mut cloud| black_box(cloud.run_single(spec)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_normal_draws(c: &mut Criterion) {
    // One 16-player game's normal draws, as the engine makes them: every player's
    // contention jitter (standard deviation 0.15, clamped to [0.6, 1.4]), then every
    // player's measurement noise (0.003, clamped to [0.99, 1.01]).
    let mut rng = SimRng::new(5);
    c.bench_function("normal_draws_32", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for _ in 0..16 {
                sum += rng.normal_with(1.0, 0.15).clamp(0.6, 1.4);
            }
            for _ in 0..16 {
                sum += rng.normal_with(1.0, 0.003).clamp(0.99, 1.01);
            }
            black_box(sum)
        })
    });
}

fn bench_batched_round(c: &mut Criterion) {
    // One tournament round (four 8-player games) evaluated game by game vs handed to
    // the backend as a single batch. On the bare simulator a batch is the same
    // per-game loop, so the two should time the same.
    let workload = Workload::scaled(Application::Redis, 50_000);
    let round: Vec<Vec<u64>> = (0..4)
        .map(|g| {
            (0..8)
                .map(|i| ((g * 8 + i) as u64 * (workload.size() / 33)).min(workload.size() - 1))
                .collect()
        })
        .collect();
    let env = || CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 3);
    c.bench_function("round_4x8_single_games", |b| {
        b.iter_batched(
            env,
            |mut cloud| {
                for configs in &round {
                    let specs: Vec<_> = configs.iter().map(|id| workload.spec(*id)).collect();
                    black_box(cloud.play_game(&specs, &GameRules::default()));
                }
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("round_4x8_batched_games", |b| {
        b.iter_batched(
            env,
            |mut cloud| {
                let specs: Vec<Vec<_>> = round
                    .iter()
                    .map(|configs| configs.iter().map(|id| workload.spec(*id)).collect())
                    .collect();
                let items: Vec<GameBatchItem<'_>> =
                    specs.iter().map(|specs| GameBatchItem { specs }).collect();
                black_box(cloud.play_games_batch(&items, &GameRules::default()))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_paper_scale_region(c: &mut Criterion) {
    // One region of the regional phase at the paper's scale: the full Redis space
    // cut into 10,000 regions, 16 players per game, on a fresh fork of
    // the region's backend per iteration, so every iteration plays the same games.
    let workload = Workload::full(Application::Redis);
    let partition = IndexPartition::new(workload.size(), 10_000);
    let config = TournamentConfig {
        players_per_game: Some(16),
        ..TournamentConfig::default()
    };
    let region = 4_321;
    let mut main = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 9);
    c.bench_function("regional_phase_one_region_full_redis", |b| {
        b.iter_batched(
            || ExecutionBackend::fork(&mut main, region as u64),
            |mut exec| {
                black_box(run_region(
                    &workload,
                    &partition,
                    region,
                    0,
                    exec.as_mut(),
                    &config,
                ))
            },
            BatchSize::SmallInput,
        )
    });
    // A hundred consecutive regions on one thread, as a one-worker regional phase plays
    // them, keeping every outcome: each region's set-up and the buffers it takes over
    // from the region before are timed with its games. The backends are forked in the
    // set-up.
    c.bench_function("regional_phase_100_regions_full_redis", |b| {
        b.iter_batched(
            || {
                (region..region + 100)
                    .map(|r| ExecutionBackend::fork(&mut main, r as u64))
                    .collect::<Vec<_>>()
            },
            |backends| {
                (region..)
                    .zip(backends)
                    .map(|(r, mut exec)| {
                        run_region(&workload, &partition, r, 0, exec.as_mut(), &config)
                    })
                    .collect::<Vec<_>>()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_gp_fit(c: &mut Criterion) {
    let points: Vec<Vec<f64>> = (0..96)
        .map(|i| vec![(i % 10) as f64 / 9.0, (i / 10) as f64 / 9.0])
        .collect();
    let targets: Vec<f64> = points
        .iter()
        .map(|p| 300.0 + 100.0 * (p[0] - p[1]))
        .collect();
    c.bench_function("gp_fit_96_points", |b| {
        b.iter(|| {
            let mut gp = GaussianProcess::new(0.2, 1e-3);
            gp.fit(black_box(&points), black_box(&targets));
            black_box(gp.predict(&[0.5, 0.5]))
        })
    });
}

fn bench_gp_window(c: &mut Criterion) {
    // BLISS's inner step: a model is fit to a full 120-observation window, then picks
    // from a pool of 193 candidates (192 random configurations plus the incumbent's
    // perturbation). The space is Redis at the campaigns' default scale: 12 free
    // dimensions of 36. At the 0.08 length scale most kernel values are tiny: nearly
    // every candidate is a far query, whose variance needs no solve, and over half of
    // the fit's solve products fall below the smallest normal f64, each of which costs
    // the processor a slow assist. 0.35 does the same work without tiny values, and
    // the pick solves only the candidates whose bound reaches the best improvement
    // found. A model's kernel memo outlives its fits, so the pick runs twice: with the
    // memo a fresh fit leaves (cold), and again with the pool's squared distances
    // already looked up (warm), as a BLISS model picked again has most of them.
    let workload = Workload::scaled(Application::Redis, 160_000);
    let space = workload.space();
    let normalised = |id: u64| -> Vec<f64> {
        space
            .point_of(id)
            .iter()
            .zip(space.parameters())
            .map(|(level, parameter)| match parameter.level_count() {
                0 | 1 => 0.0,
                levels => *level as f64 / (levels - 1) as f64,
            })
            .collect()
    };
    let mut rng = SimRng::new(17);
    let mut draw = || rng.index(workload.size() as usize) as u64;
    let mut observed: Vec<u64> = (0..120).map(|_| draw()).collect();
    let pool: Vec<Vec<f64>> = (0..193).map(|_| normalised(draw())).collect();
    // One observation more, for a window one row later.
    observed.push(draw());
    let inputs: Vec<Vec<f64>> = observed.iter().map(|&id| normalised(id)).collect();
    let targets: Vec<f64> = observed.iter().map(|&id| workload.base_time(id)).collect();
    let best = targets[..120].iter().copied().fold(f64::INFINITY, f64::min);
    for length_scale in [0.08, 0.35] {
        // A refit keeps the factor rows of a window whose first rows it shares, so the
        // fit alternates between two windows one row apart, each of which is factored
        // afresh, as a sliding window is.
        let mut gp = GaussianProcess::new(length_scale, 1e-3);
        let mut offset = 0;
        c.bench_function(&format!("gp_fit_120_points_l{length_scale}"), |b| {
            b.iter(|| {
                offset = 1 - offset;
                gp.fit(
                    black_box(&inputs[offset..offset + 120]),
                    black_box(&targets[offset..offset + 120]),
                )
            })
        });
        // Each sample picks through a model fit afresh; the last one is dropped in the
        // next set-up, outside the timing.
        let picked = Cell::new(None);
        c.bench_function(
            &format!("gp_best_of_193_of_120_points_l{length_scale}_cold"),
            |b| {
                b.iter_batched(
                    || {
                        picked.take();
                        let mut gp = GaussianProcess::new(length_scale, 1e-3);
                        gp.fit(&inputs[..120], &targets[..120]);
                        gp
                    },
                    |gp| {
                        let pick = gp.best_expected_improvement(black_box(&pool), best);
                        picked.set(Some(gp));
                        pick
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        gp.fit(&inputs[..120], &targets[..120]);
        c.bench_function(
            &format!("gp_best_of_193_of_120_points_l{length_scale}_warm"),
            |b| b.iter(|| black_box(gp.best_expected_improvement(black_box(&pool), best))),
        );
    }
    // A growing window: the model is fit at 119 observations in the set-up and refit at
    // 120 in the timing, so it factors one new row and re-solves `alpha`. One model
    // goes back and forth, so nothing is cloned or dropped in the timing.
    let grown = Cell::new(Some(GaussianProcess::new(0.08, 1e-3)));
    c.bench_function("gp_refit_growing_window", |b| {
        b.iter_batched(
            || {
                let mut gp = grown.take().expect("the model is back");
                gp.fit(&inputs[..119], &targets[..119]);
                gp
            },
            |mut gp| {
                gp.fit(black_box(&inputs[..120]), black_box(&targets[..120]));
                grown.set(Some(gp));
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_ntbea_session(c: &mut Criterion) {
    // One NTBEA session at the default budget on Redis at the campaigns' default scale:
    // 200 solo runs, and a UCB score of 16 candidates over 667 n-tuples per step.
    let workload = Workload::scaled(Application::Redis, 160_000);
    c.bench_function("ntbea_session_redis_200", |b| {
        b.iter_batched(
            || CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 46),
            |mut cloud| {
                black_box(Ntbea::new(3).tune(&workload, &mut cloud, TuningBudget::evaluations(200)))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_small_tournament(c: &mut Criterion) {
    let workload = Workload::scaled(Application::Redis, 8_000);
    c.bench_function("tournament_16_regions", |b| {
        b.iter_batched(
            || {
                let mut config = TournamentConfig::scaled(16, 1);
                config.players_per_game = Some(8);
                config.parallel_regions = false;
                (
                    DarwinGame::new(config),
                    CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 9),
                )
            },
            |(game, mut cloud)| black_box(game.run(&workload, &mut cloud)),
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_surface_evaluation,
        bench_candidate_sampling,
        bench_interference_sampling,
        bench_timeline_lookups,
        bench_single_game,
        bench_normal_draws,
        bench_batched_round,
        bench_paper_scale_region,
        bench_gp_fit,
        bench_gp_window,
        bench_ntbea_session,
        bench_small_tournament
);
criterion_main!(micro);
