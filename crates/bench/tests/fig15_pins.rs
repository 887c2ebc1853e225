//! Pins the Figure 15 VM sweep end to end: the smoke and full campaigns, each run on one
//! worker, must reproduce their report fingerprints bit for bit. The full value is the
//! `campaign_fingerprint` recorded in `BENCH_fig15.json`. A change to the simulator,
//! the tournament, or the report that moves any reported number (a champion, a cost, a
//! re-measured time) fails here; the `dg-cloudsim` batteries check the game engine
//! itself bit for bit against the crate's test-only one-call-per-step reference.

use dg_campaign::Campaign;
use dg_exec::json::fnv1a;

/// FNV-1a of the canonical report JSON of the Figure 15 sweep on one worker.
fn fig15_fingerprint(smoke: bool) -> u64 {
    let report = Campaign::new(dg_bench::fig15_sweep_spec(smoke)).run_with_workers(1);
    fnv1a(&report.to_json())
}

#[test]
fn fig15_smoke_sweep_fingerprint_is_pinned() {
    assert_eq!(fig15_fingerprint(true), 10091545178327740503);
}

#[test]
fn fig15_full_sweep_fingerprint_is_pinned() {
    assert_eq!(fig15_fingerprint(false), 255963129071380612);
}
