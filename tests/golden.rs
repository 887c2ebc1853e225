//! Golden-seed regression tests.
//!
//! The full tournament pipeline — region partitioning, Swiss regionals, double
//! elimination, barrage playoffs, and every RNG stream feeding them — is pinned here
//! for three fixed seeds at two region counts, and as whole-report digests for every
//! Fig. 16 ablation variant and for one run on the full Redis space. The BLISS hybrid
//! of Figs. 13 and 14, whose outer loop picks subspaces by a Gaussian process's
//! expected improvement, is pinned as digests of its outcomes. Any accidental
//! change to the RNG discipline, the game ordering, or the cost accounting moves at
//! least one of the pinned values and fails this suite loudly; an *intentional* change
//! must regenerate the constants (the tuple layout below is exactly what a
//! regeneration run prints; a failing digest prints the report it hashed).
//!
//! The values were generated with the committed simulator sources on x86-64
//! Linux/glibc (the CI platform); debug and release builds produce identical results
//! there. The pipeline does call libm transcendentals (`cos`, `exp`, `ln`, `powf`),
//! which are not guaranteed correctly rounded, so a different platform's libm could
//! shift results by ULPs — if this suite fails on an otherwise unchanged tree on a new
//! platform, regenerate the constants there rather than assuming a regression.

use darwingame::prelude::*;

/// `(regions, seed, champion, games_played, core_hours)` for the pinned configuration
/// under the `Typical` interference profile.
const GOLDEN: [(usize, u64, u64, usize, f64); 6] = [
    (8, 1, 4185, 42, 177.344563369),
    (8, 2, 8126, 42, 164.517757898),
    (8, 3, 4622, 34, 114.829806997),
    (16, 1, 1454, 82, 429.086304487),
    (16, 2, 1030, 72, 273.885680407),
    (16, 3, 193, 63, 246.729156735),
];

/// The same pinned configuration under the `Heavy` profile (environment seeds offset
/// to `2000 + ...` so the two suites never share a noise realisation). Heavier
/// interference changes game lengths, early-termination decisions, and therefore the
/// whole downstream RNG/cost stream — pinning it guards the noise-model half of the
/// pipeline, which the `Typical`-only suite left uncovered.
const GOLDEN_HEAVY: [(usize, u64, u64, usize, f64); 6] = [
    (8, 1, 4185, 43, 191.660051348),
    (8, 2, 8126, 41, 184.918885112),
    (8, 3, 4622, 40, 166.378233188),
    (16, 1, 6637, 79, 446.665001582),
    (16, 2, 1030, 78, 317.732739680),
    (16, 3, 193, 73, 334.369622077),
];

/// `(variant, digest)` of the whole report of the pinned configuration at 16 regions
/// and seed 6 under the `Typical` profile, for every `AblationConfig::paper_variants()`
/// entry in its order. The golden tables above pin only the full design; these cover
/// every branch an ablation switches: the Swiss and single-game regionals, a single
/// regional winner, no regional or global phase, no loser bracket, either global
/// ranking criterion off, 2-player games, and no early termination. Seed 6 is the
/// first from 4 up where all eleven reports differ: at seeds 4 and 5 dropping a
/// ranking criterion leaves every group winner, and so the whole report, as the full
/// design has it.
const ABLATION_PINS: [(&str, u64); 11] = [
    ("full DarwinGame", 1_974_421_544_244_878_070),
    ("w/o regional", 3_691_095_299_235_638_748),
    ("one-win regional", 17_669_695_234_370_734_911),
    ("w/o Swiss", 5_771_929_894_004_624_565),
    ("w/o global", 792_715_577_154_226_975),
    ("w/o double elimination", 2_354_916_330_489_340_210),
    ("w/o barrage", 17_799_645_907_852_342_064),
    ("w/o consistency score", 13_217_356_632_303_338_284),
    ("w/o execution score", 9_146_826_783_522_088_563),
    ("all 2-player games", 14_279_902_934_798_037_660),
    ("w/o early termination", 15_369_306_113_758_469_273),
];

/// Digest of a 16-player tournament over the full Redis space (5.3M configurations),
/// the scale of the paper's own spaces.
const FULL_REDIS_PIN: u64 = 3_556_879_906_502_776_845;

/// Digest of a tournament in the benchmark's `paper_scale` shape: the full Redis space
/// cut into the paper's 10,000 regions, 16 players per game, m5.8xlarge, the typical
/// profile, regions played in order.
const PAPER_SCALE_PIN: u64 = 4_365_740_498_270_770_904;

/// `(subspaces, explorations, seed, digest)` of `HybridDarwinGame::bliss` outcomes on
/// Redis at 10,000 configurations: the default shape of 16 subspaces and 6
/// explorations, and a longer search whose Gaussian process is fit to 2 to 11 explored
/// subspaces and scores the 30 to 21 unexplored ones.
const BLISS_HYBRID_PINS: [(usize, usize, u64, u64); 3] = [
    (16, 6, 3, 16_966_057_705_651_776_264),
    (16, 6, 8, 5_500_172_295_260_578_703),
    (32, 12, 5, 5_752_123_129_960_803_940),
];

/// The pinned tournament shape: Redis at 10,000 configurations, 8 players per game and
/// at most 4 Swiss rounds per region, regions played in order.
fn pinned_config(regions: usize, seed: u64) -> TournamentConfig {
    let mut config = TournamentConfig::scaled(regions, seed);
    config.players_per_game = Some(8);
    config.max_regional_rounds = 4;
    config.parallel_regions = false;
    config
}

fn run_config(
    config: TournamentConfig,
    profile: InterferenceProfile,
    env_base: u64,
) -> TournamentReport {
    let workload = Workload::scaled(Application::Redis, 10_000);
    let env_seed = env_base + config.seed * 10 + config.regions as u64;
    let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, profile, env_seed);
    DarwinGame::new(config).run(&workload, &mut cloud)
}

fn run_pinned_with(
    profile: InterferenceProfile,
    env_base: u64,
    regions: usize,
    seed: u64,
) -> TournamentReport {
    run_config(pinned_config(regions, seed), profile, env_base)
}

fn run_pinned(regions: usize, seed: u64) -> TournamentReport {
    run_pinned_with(InterferenceProfile::typical(), 1000, regions, seed)
}

fn run_pinned_heavy(regions: usize, seed: u64) -> TournamentReport {
    run_pinned_with(InterferenceProfile::heavy(), 2000, regions, seed)
}

#[test]
fn tournament_outputs_match_golden_values() {
    for (regions, seed, champion, games, core_hours) in GOLDEN {
        let report = run_pinned(regions, seed);
        let label = format!("regions {regions}, seed {seed}");
        assert_phases_never_create_players(&report, &label);
        assert_eq!(
            report.champion, champion,
            "{label}: champion drifted — the RNG stream or game ordering changed"
        );
        assert_eq!(
            report.games_played, games,
            "{label}: game count drifted — the tournament structure changed"
        );
        assert!(
            (report.core_hours - core_hours).abs() < 1e-6,
            "{label}: core-hours drifted from {core_hours} to {}",
            report.core_hours
        );
    }
}

#[test]
fn heavy_profile_tournament_outputs_match_golden_values() {
    for (regions, seed, champion, games, core_hours) in GOLDEN_HEAVY {
        let report = run_pinned_heavy(regions, seed);
        let label = format!("heavy profile, regions {regions}, seed {seed}");
        assert_phases_never_create_players(&report, &label);
        assert_eq!(
            report.champion, champion,
            "{label}: champion drifted — the RNG stream or game ordering changed"
        );
        assert_eq!(
            report.games_played, games,
            "{label}: game count drifted — the tournament structure changed"
        );
        assert!(
            (report.core_hours - core_hours).abs() < 1e-6,
            "{label}: core-hours drifted from {core_hours} to {}",
            report.core_hours
        );
    }
}

#[test]
fn golden_runs_are_reproducible_within_a_process() {
    // The pinned values above also guard against cross-run drift; this guards against
    // hidden global state inside one process (statics, caches keyed on first use).
    let first = run_pinned(8, 1);
    let second = run_pinned(8, 1);
    assert_eq!(first.champion, second.champion);
    assert_eq!(first.games_played, second.games_played);
    assert_eq!(first.core_hours.to_bits(), second.core_hours.to_bits());
}

/// No phase lets out more players than it took in. The regional phase takes in the
/// configurations that played a regional game (or, without regional games, the
/// entrants drawn for the global phase). A region puts `P/2` more into play each round
/// after the first and may advance more than `P`, so counting `P` per region would
/// understate it.
fn assert_phases_never_create_players(report: &TournamentReport, label: &str) {
    for phase in &report.phases {
        assert!(
            phase.players_in >= phase.players_out,
            "{label}: the {} phase took in {} players and let out {}",
            phase.name,
            phase.players_in,
            phase.players_out
        );
    }
}

/// FNV-1a over every field of a report as little-endian 64-bit words, floats as their
/// bits and phase names byte by byte. The regional phase's `players_in` is left out:
/// it counts the configurations that played a regional game, which
/// `assert_phases_never_create_players` checks instead.
fn report_digest(report: &TournamentReport) -> u64 {
    let mut words = vec![
        report.champion,
        u64::from(report.runner_up.is_some()),
        report.runner_up.unwrap_or(0),
        report.champion_observed_time.to_bits(),
        report.regional_winners as u64,
        report.games_played as u64,
        report.core_hours.to_bits(),
        report.wall_clock_seconds.to_bits(),
        report.phases.len() as u64,
    ];
    for (index, phase) in report.phases.iter().enumerate() {
        words.push(phase.name.len() as u64);
        words.extend(phase.name.bytes().map(u64::from));
        if index > 0 {
            words.push(phase.players_in as u64);
        }
        words.push(phase.players_out as u64);
        words.push(phase.games as u64);
        words.push(phase.core_hours.to_bits());
    }
    fnv1a(&words)
}

/// FNV-1a over a tuning outcome's fields as little-endian 64-bit words: the chosen
/// configuration, the sample count, the bits of the cost totals and of the believed
/// time, and every `(config, observed time)` of the history.
fn outcome_digest(outcome: &TuningOutcome) -> u64 {
    let mut words = vec![
        outcome.chosen,
        outcome.believed_time.to_bits(),
        outcome.samples as u64,
        outcome.core_hours.to_bits(),
        outcome.wall_clock_seconds.to_bits(),
    ];
    for record in &outcome.history {
        words.push(record.config);
        words.push(record.observed_time.to_bits());
    }
    fnv1a(&words)
}

fn fnv1a(words: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn every_ablation_variant_matches_its_pinned_report() {
    let variants = AblationConfig::paper_variants();
    assert_eq!(variants.len(), ABLATION_PINS.len());
    let distinct: std::collections::BTreeSet<u64> =
        ABLATION_PINS.iter().map(|(_, pin)| *pin).collect();
    assert_eq!(
        distinct.len(),
        ABLATION_PINS.len(),
        "two variants share a report"
    );
    for ((name, ablation), (pinned_name, pinned)) in variants.into_iter().zip(ABLATION_PINS) {
        assert_eq!(name, pinned_name, "paper_variants() changed order");
        let mut config = pinned_config(16, 6);
        config.ablation = ablation;
        let report = run_config(config, InterferenceProfile::typical(), 1000);
        assert_phases_never_create_players(&report, name);
        assert_eq!(
            report_digest(&report),
            pinned,
            "{name}: the report moved: {report:?}"
        );
    }
}

#[test]
fn full_redis_tournament_matches_its_pinned_report() {
    let workload = Workload::full(Application::Redis);
    let mut config = TournamentConfig::scaled(24, 5);
    config.players_per_game = Some(16);
    config.parallel_regions = false;
    let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 53);
    let report = DarwinGame::new(config).run(&workload, &mut cloud);
    assert_phases_never_create_players(&report, "full Redis");
    assert_eq!(
        report_digest(&report),
        FULL_REDIS_PIN,
        "the report moved: {report:?}"
    );
}

#[test]
fn paper_scale_tournament_matches_its_pinned_report() {
    let workload = Workload::full(Application::Redis);
    let mut config = TournamentConfig::scaled(10_000, 7);
    config.players_per_game = Some(16);
    config.parallel_regions = false;
    let mut cloud = CloudEnvironment::new(VmType::M5_8xlarge, InterferenceProfile::typical(), 59);
    let report = DarwinGame::new(config).run(&workload, &mut cloud);
    assert_phases_never_create_players(&report, "paper scale");
    // Every region plays at least one game.
    assert!(report.phases[0].games >= 10_000, "{:?}", report.phases[0]);
    assert_eq!(
        report_digest(&report),
        PAPER_SCALE_PIN,
        "the report moved: {report:?}"
    );
}

#[test]
fn bliss_hybrid_outcomes_match_their_pinned_digests() {
    let workload = Workload::scaled(Application::Redis, 10_000);
    for (subspaces, explorations, seed, pinned) in BLISS_HYBRID_PINS {
        let mut tuner = HybridDarwinGame::bliss(seed)
            .with_subspaces(subspaces)
            .with_explorations(explorations);
        let mut cloud = CloudEnvironment::new(
            VmType::M5_8xlarge,
            InterferenceProfile::typical(),
            90 + seed,
        );
        let outcome = tuner.tune(&workload, &mut cloud, TuningBudget::default());
        assert_eq!(outcome.history.len(), explorations);
        assert_eq!(
            outcome_digest(&outcome),
            pinned,
            "{subspaces} subspaces, {explorations} explorations, seed {seed}: the outcome \
             moved: {outcome:?}"
        );
    }
}
