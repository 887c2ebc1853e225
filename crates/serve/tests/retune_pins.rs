//! Pins of the retune sweep's identity and output.
//!
//! `RetuneSpec::fingerprint` encodes every policy value, so the spec pins hold the
//! loop's and the detector's settings: the default spec, the gauntlet, and the full
//! and smoke gauntlets under the names the `retune_regret` bench and the
//! `retune_gauntlet` example give them (the bench's full spec is the one
//! `BENCH_retune.json` records). The report pin hashes the canonical JSON of a small
//! smoke sweep, a steady column and a `regime-shift` column whose cells detect,
//! retune and switch, so a change to the monitor, the detector or the loop that moves
//! any number fails it.

use dg_exec::json::fnv1a;
use dg_serve::{RetuneSpec, RetuneSweep};

/// The gauntlet the bench and the example run at full size.
fn full_gauntlet(name: &str) -> RetuneSpec {
    let mut spec = RetuneSpec::gauntlet(name, 12);
    spec.base_seed = 0x5e21;
    spec
}

/// The gauntlet the bench and the example run with `DG_SMOKE=1`.
fn smoke_gauntlet(name: &str) -> RetuneSpec {
    let mut spec = RetuneSpec::gauntlet(name, 6);
    spec.space_size = 500;
    spec.policy.initial_budget = 16;
    spec.policy.max_retunes = 3;
    spec.policy.deploy_steps = 96;
    spec.base_seed = 0x5e21;
    spec
}

#[test]
fn retune_spec_fingerprints_are_pinned() {
    assert_eq!(RetuneSpec::new("pin").fingerprint(), 12042343608284340748);
    assert_eq!(
        RetuneSpec::gauntlet("pin", 12).fingerprint(),
        18225521624922499429
    );
    assert_eq!(
        full_gauntlet("retune-regret").fingerprint(),
        1962433146824426492
    );
    assert_eq!(
        full_gauntlet("retune-gauntlet").fingerprint(),
        9051060107539462663
    );
    assert_eq!(
        smoke_gauntlet("retune-regret").fingerprint(),
        16530419252359248173
    );
    assert_eq!(
        smoke_gauntlet("retune-gauntlet").fingerprint(),
        4284602243477932518
    );
}

#[test]
fn smoke_sweep_report_bytes_are_pinned() {
    let mut spec = smoke_gauntlet("retune-pin");
    spec.scenarios.truncate(2);
    spec.seeds = vec![0, 1];
    let report = RetuneSweep::new(spec).run_with_workers(1);
    let steady = report.scenario("steady").expect("steady column");
    assert_eq!(steady.detections, 0);
    let shift = report
        .scenario("regime-shift")
        .expect("regime-shift column");
    assert_eq!((shift.detections, shift.retunes, shift.switches), (2, 2, 2));
    assert_eq!(fnv1a(&report.to_json()), 8318832390323790274);
}

#[test]
fn the_bench_and_example_gauntlets_are_the_pinned_specs() {
    for name in ["retune-regret", "retune-gauntlet"] {
        assert_eq!(
            RetuneSpec::regret_gauntlet(name, false),
            full_gauntlet(name)
        );
        assert_eq!(
            RetuneSpec::regret_gauntlet(name, true),
            smoke_gauntlet(name)
        );
    }
}
