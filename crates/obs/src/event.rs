//! The typed event vocabulary of the tracing layer.
//!
//! Every instrumented seam in the workspace — backend operations, tournament phases,
//! campaign cells, retune detections, scenario timelines — emits one of these
//! variants through the global bus ([`emit`](crate::emit)). Events are pure side
//! channel: they carry copies of values the instrumented code already computed, never
//! references back into it, so emitting (or not emitting) them cannot perturb
//! results.
//!
//! On the wire an event travels as one canonical-JSON line (see
//! [`ObsRecord::to_json`]): fixed key order, no whitespace, shortest-round-trip
//! floats — the same discipline as every other wire format in the workspace, so two
//! runs that emit the same events produce byte-identical JSONL.

use crate::json;

/// One observability event, as emitted at an instrumented seam.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A campaign executor started running a set of cells.
    CampaignStart {
        /// Campaign name from the spec.
        campaign: String,
        /// Number of cells scheduled for this run (a shard or lab session may run a
        /// subset of the grid).
        cells: usize,
        /// Total estimated cost of the scheduled cells, in budgeted evaluations —
        /// the same per-cell estimates `ShardPlan` balances on.
        total_cost: f64,
    },
    /// A campaign executor finished.
    CampaignFinish {
        /// Campaign name from the spec.
        campaign: String,
        /// Cells that completed.
        completed: usize,
    },
    /// A worker claimed a cell and started tuning it.
    CellStart {
        /// Campaign name from the spec.
        campaign: String,
        /// Monotone claim sequence of this cell within the run (0-based schedule
        /// order, identical for every worker count).
        cell_seq: u64,
        /// The cell's stable grid index.
        index: usize,
        /// Tuner axis value.
        tuner: String,
        /// VM axis value.
        vm: String,
        /// Estimated cost of the cell, in budgeted evaluations.
        est_cost: f64,
    },
    /// A cell completed (possibly with a latched backend failure).
    CellFinish {
        /// Campaign name from the spec.
        campaign: String,
        /// The same claim sequence its `CellStart` carried.
        cell_seq: u64,
        /// The cell's stable grid index.
        index: usize,
        /// Core-hours the cell actually consumed.
        core_hours: f64,
        /// Mean re-measured execution time of the chosen configuration, seconds.
        mean_time: f64,
        /// Whether the cell's backend latched a permanent failure.
        failed: bool,
    },
    /// A lab session resumed a campaign from disk.
    LabSession {
        /// Campaign name from the spec.
        campaign: String,
        /// Completed cells loaded from the lab.
        loaded: usize,
        /// Missing cells this session will run.
        fresh: usize,
        /// Corrupt or foreign cell files discarded on load.
        discarded: usize,
    },
    /// A named span opened (see [`Span`](crate::Span)); tournament phases use these.
    SpanStart {
        /// Span name, e.g. `"phase.regional"`.
        name: String,
    },
    /// The span that opened at `start_seq` closed.
    SpanEnd {
        /// Span name, matching its `SpanStart`.
        name: String,
        /// Sequence id of the matching `SpanStart` record.
        start_seq: u64,
    },
    /// One round of a tournament phase played.
    Round {
        /// Phase name, e.g. `"regional"` or `"global"`.
        phase: &'static str,
        /// Round number within the phase, 0-based.
        round: usize,
        /// Games played in the round.
        games: usize,
    },
    /// A co-located game crossed the backend seam ([`ObsBackend`] decorates it).
    ///
    /// [`ObsBackend`]: https://docs.rs/dg-exec
    Game {
        /// Players in the game.
        players: usize,
        /// Simulated start time, seconds.
        start: f64,
        /// Wall-clock seconds the game occupied its node.
        elapsed: f64,
        /// Whether the early-termination rule stopped it.
        early_terminated: bool,
    },
    /// A committed solo evaluation crossed the backend seam.
    Solo {
        /// Simulated start time, seconds.
        start: f64,
        /// The observed execution time, seconds.
        observed_time: f64,
    },
    /// A cost-free probe crossed the backend seam.
    Probe {
        /// Simulated start time, seconds.
        start: f64,
        /// The observed execution time, seconds.
        observed_time: f64,
    },
    /// A serving loop's drift monitor confirmed a regime change.
    RetuneDetection {
        /// Deployment step at which the detection fired.
        step: usize,
        /// Simulated time of the detection, seconds.
        at: f64,
        /// Drift direction: `"up"` (slowdown) or `"down"`.
        direction: String,
    },
    /// A serving loop ran a mini-tournament (or cost-free reselection) in response.
    Retune {
        /// Deployment step at which it ran.
        step: usize,
        /// `"retune"` for a mini-tournament, `"reselect"` for a hall-of-fame probe.
        kind: String,
        /// Whether the candidate replaced the incumbent champion.
        accepted: bool,
    },
    /// A scenario timeline wrapped a backend (emitted once at construction).
    ScenarioTimeline {
        /// Scenario name from the spec.
        scenario: String,
        /// Preemption windows expanded onto the timeline.
        preemptions: usize,
    },
    /// A preemption window actually struck an operation (the span was stretched).
    PreemptionStrike {
        /// Simulated time the preemption hit, seconds.
        at: f64,
        /// Seconds of outage inserted into the operation's span.
        outage: f64,
    },
}

impl ObsEvent {
    /// The event's wire name (`"type"` field of its JSONL form).
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::CampaignStart { .. } => "campaign_start",
            ObsEvent::CampaignFinish { .. } => "campaign_finish",
            ObsEvent::CellStart { .. } => "cell_start",
            ObsEvent::CellFinish { .. } => "cell_finish",
            ObsEvent::LabSession { .. } => "lab_session",
            ObsEvent::SpanStart { .. } => "span_start",
            ObsEvent::SpanEnd { .. } => "span_end",
            ObsEvent::Round { .. } => "round",
            ObsEvent::Game { .. } => "game",
            ObsEvent::Solo { .. } => "solo",
            ObsEvent::Probe { .. } => "probe",
            ObsEvent::RetuneDetection { .. } => "retune_detection",
            ObsEvent::Retune { .. } => "retune",
            ObsEvent::ScenarioTimeline { .. } => "scenario_timeline",
            ObsEvent::PreemptionStrike { .. } => "preemption_strike",
        }
    }
}

/// One emitted event plus the monotone sequence id the bus stamped on it.
///
/// # JSON line format
///
/// [`JsonlSink`](crate::JsonlSink) writes one object per line: `seq`, `type` (the
/// event's [`kind`](ObsEvent::kind)), then the event's fields in declaration order.
/// Span names are `phase.regional`, `phase.global` and `phase.playoffs`.
///
/// ```
/// use dg_obs::{ObsEvent, ObsRecord};
///
/// let c = || "smoke".to_string();
/// for (event, line) in [
///     (ObsEvent::CampaignStart { campaign: c(), cells: 16, total_cost: 1536.5 },
///      r#""campaign_start","campaign":"smoke","cells":16,"total_cost":1536.5"#),
///     (ObsEvent::CellStart { campaign: c(), cell_seq: 3, index: 5, tuner: "DarwinGame".into(), vm: "m5.large".into(), est_cost: 96.0 },
///      r#""cell_start","campaign":"smoke","cell_seq":3,"index":5,"tuner":"DarwinGame","vm":"m5.large","est_cost":96"#),
///     (ObsEvent::CellFinish { campaign: c(), cell_seq: 3, index: 5, core_hours: 0.5, mean_time: f64::INFINITY, failed: true },
///      r#""cell_finish","campaign":"smoke","cell_seq":3,"index":5,"core_hours":0.5,"mean_time":"inf","failed":true"#),
///     (ObsEvent::CampaignFinish { campaign: c(), completed: 16 }, r#""campaign_finish","campaign":"smoke","completed":16"#),
///     (ObsEvent::LabSession { campaign: c(), loaded: 4, fresh: 12, discarded: 1 },
///      r#""lab_session","campaign":"smoke","loaded":4,"fresh":12,"discarded":1"#),
///     (ObsEvent::SpanStart { name: "phase.global".into() }, r#""span_start","name":"phase.global""#),
///     (ObsEvent::SpanEnd { name: "phase.global".into(), start_seq: 6 }, r#""span_end","name":"phase.global","start_seq":6"#),
///     (ObsEvent::Round { phase: "regional", round: 2, games: 8 }, r#""round","phase":"regional","round":2,"games":8"#),
///     (ObsEvent::Game { players: 4, start: 1800.0, elapsed: 245.25, early_terminated: false },
///      r#""game","players":4,"start":1800,"elapsed":245.25,"early_terminated":false"#),
///     (ObsEvent::Solo { start: 0.0, observed_time: 244.1 }, r#""solo","start":0,"observed_time":244.1"#),
///     (ObsEvent::Probe { start: 3600.0, observed_time: 244.9 }, r#""probe","start":3600,"observed_time":244.9"#),
///     (ObsEvent::RetuneDetection { step: 40, at: 72000.0, direction: "up".into() },
///      r#""retune_detection","step":40,"at":72000,"direction":"up""#),
///     (ObsEvent::Retune { step: 41, kind: "reselect".into(), accepted: true }, r#""retune","step":41,"kind":"reselect","accepted":true"#),
///     (ObsEvent::ScenarioTimeline { scenario: "diurnal".into(), preemptions: 0 },
///      r#""scenario_timeline","scenario":"diurnal","preemptions":0"#),
///     (ObsEvent::PreemptionStrike { at: 9000.0, outage: 420.0 }, r#""preemption_strike","at":9000,"outage":420"#),
/// ] {
///     assert_eq!(ObsRecord { seq: 7, event }.to_json(), format!(r#"{{"seq":7,"type":{line}}}"#));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRecord {
    /// Process-wide monotone sequence id (gaps never occur; interleaving across
    /// concurrent workers is scheduling-dependent, so progress consumers order by
    /// the deterministic `cell_seq` instead).
    pub seq: u64,
    /// The event itself.
    pub event: ObsEvent,
}

impl ObsRecord {
    /// The canonical one-line JSON form: `{"seq":N,"type":"...",...}` with the
    /// event's fields in declaration order.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("seq", &self.seq).field("type", self.event.kind());
            match &self.event {
                ObsEvent::CampaignStart {
                    campaign,
                    cells,
                    total_cost,
                } => o
                    .field("campaign", campaign)
                    .field("cells", cells)
                    .field("total_cost", total_cost),
                ObsEvent::CampaignFinish {
                    campaign,
                    completed,
                } => o.field("campaign", campaign).field("completed", completed),
                ObsEvent::CellStart {
                    campaign,
                    cell_seq,
                    index,
                    tuner,
                    vm,
                    est_cost,
                } => o
                    .field("campaign", campaign)
                    .field("cell_seq", cell_seq)
                    .field("index", index)
                    .field("tuner", tuner)
                    .field("vm", vm)
                    .field("est_cost", est_cost),
                ObsEvent::CellFinish {
                    campaign,
                    cell_seq,
                    index,
                    core_hours,
                    mean_time,
                    failed,
                } => o
                    .field("campaign", campaign)
                    .field("cell_seq", cell_seq)
                    .field("index", index)
                    .field("core_hours", core_hours)
                    .field("mean_time", mean_time)
                    .field("failed", failed),
                ObsEvent::LabSession {
                    campaign,
                    loaded,
                    fresh,
                    discarded,
                } => o
                    .field("campaign", campaign)
                    .field("loaded", loaded)
                    .field("fresh", fresh)
                    .field("discarded", discarded),
                ObsEvent::SpanStart { name } => o.field("name", name),
                ObsEvent::SpanEnd { name, start_seq } => {
                    o.field("name", name).field("start_seq", start_seq)
                }
                ObsEvent::Round {
                    phase,
                    round,
                    games,
                } => o
                    .field("phase", *phase)
                    .field("round", round)
                    .field("games", games),
                ObsEvent::Game {
                    players,
                    start,
                    elapsed,
                    early_terminated,
                } => o
                    .field("players", players)
                    .field("start", start)
                    .field("elapsed", elapsed)
                    .field("early_terminated", early_terminated),
                ObsEvent::Solo {
                    start,
                    observed_time,
                }
                | ObsEvent::Probe {
                    start,
                    observed_time,
                } => o
                    .field("start", start)
                    .field("observed_time", observed_time),
                ObsEvent::RetuneDetection {
                    step,
                    at,
                    direction,
                } => o
                    .field("step", step)
                    .field("at", at)
                    .field("direction", direction),
                ObsEvent::Retune {
                    step,
                    kind,
                    accepted,
                } => o
                    .field("step", step)
                    .field("kind", kind)
                    .field("accepted", accepted),
                ObsEvent::ScenarioTimeline {
                    scenario,
                    preemptions,
                } => o
                    .field("scenario", scenario)
                    .field("preemptions", preemptions),
                ObsEvent::PreemptionStrike { at, outage } => {
                    o.field("at", at).field("outage", outage)
                }
            };
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_serialize_to_one_canonical_line() {
        let record = ObsRecord {
            seq: 7,
            event: ObsEvent::CellStart {
                campaign: "smoke".into(),
                cell_seq: 3,
                index: 5,
                tuner: "DarwinGame".into(),
                vm: "m5.8xlarge".into(),
                est_cost: 120.0,
            },
        };
        assert_eq!(
            record.to_json(),
            "{\"seq\":7,\"type\":\"cell_start\",\"campaign\":\"smoke\",\"cell_seq\":3,\
             \"index\":5,\"tuner\":\"DarwinGame\",\"vm\":\"m5.8xlarge\",\"est_cost\":120}"
        );
        assert!(!record.to_json().contains('\n'));
    }

    #[test]
    fn every_variant_has_a_distinct_kind() {
        let kinds = [
            ObsEvent::SpanStart { name: "x".into() }.kind(),
            ObsEvent::SpanEnd {
                name: "x".into(),
                start_seq: 0,
            }
            .kind(),
            ObsEvent::Game {
                players: 2,
                start: 0.0,
                elapsed: 1.0,
                early_terminated: false,
            }
            .kind(),
            ObsEvent::Solo {
                start: 0.0,
                observed_time: 1.0,
            }
            .kind(),
            ObsEvent::Probe {
                start: 0.0,
                observed_time: 1.0,
            }
            .kind(),
        ];
        let mut unique = kinds.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), kinds.len());
    }
}
