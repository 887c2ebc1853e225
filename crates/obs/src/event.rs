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

use crate::json::{push_f64, push_key, push_str_literal};

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
        let mut out = String::from("{");
        let mut first = true;
        push_key(&mut out, &mut first, "seq");
        out.push_str(&self.seq.to_string());
        push_key(&mut out, &mut first, "type");
        push_str_literal(&mut out, self.event.kind());
        let f = &mut first;
        let o = &mut out;
        match &self.event {
            ObsEvent::CampaignStart {
                campaign,
                cells,
                total_cost,
            } => {
                push_key(o, f, "campaign");
                push_str_literal(o, campaign);
                push_key(o, f, "cells");
                o.push_str(&cells.to_string());
                push_key(o, f, "total_cost");
                push_f64(o, *total_cost);
            }
            ObsEvent::CampaignFinish {
                campaign,
                completed,
            } => {
                push_key(o, f, "campaign");
                push_str_literal(o, campaign);
                push_key(o, f, "completed");
                o.push_str(&completed.to_string());
            }
            ObsEvent::CellStart {
                campaign,
                cell_seq,
                index,
                tuner,
                vm,
                est_cost,
            } => {
                push_key(o, f, "campaign");
                push_str_literal(o, campaign);
                push_key(o, f, "cell_seq");
                o.push_str(&cell_seq.to_string());
                push_key(o, f, "index");
                o.push_str(&index.to_string());
                push_key(o, f, "tuner");
                push_str_literal(o, tuner);
                push_key(o, f, "vm");
                push_str_literal(o, vm);
                push_key(o, f, "est_cost");
                push_f64(o, *est_cost);
            }
            ObsEvent::CellFinish {
                campaign,
                cell_seq,
                index,
                core_hours,
                mean_time,
                failed,
            } => {
                push_key(o, f, "campaign");
                push_str_literal(o, campaign);
                push_key(o, f, "cell_seq");
                o.push_str(&cell_seq.to_string());
                push_key(o, f, "index");
                o.push_str(&index.to_string());
                push_key(o, f, "core_hours");
                push_f64(o, *core_hours);
                push_key(o, f, "mean_time");
                push_f64(o, *mean_time);
                push_key(o, f, "failed");
                o.push_str(if *failed { "true" } else { "false" });
            }
            ObsEvent::LabSession {
                campaign,
                loaded,
                fresh,
                discarded,
            } => {
                push_key(o, f, "campaign");
                push_str_literal(o, campaign);
                push_key(o, f, "loaded");
                o.push_str(&loaded.to_string());
                push_key(o, f, "fresh");
                o.push_str(&fresh.to_string());
                push_key(o, f, "discarded");
                o.push_str(&discarded.to_string());
            }
            ObsEvent::SpanStart { name } => {
                push_key(o, f, "name");
                push_str_literal(o, name);
            }
            ObsEvent::SpanEnd { name, start_seq } => {
                push_key(o, f, "name");
                push_str_literal(o, name);
                push_key(o, f, "start_seq");
                o.push_str(&start_seq.to_string());
            }
            ObsEvent::Round {
                phase,
                round,
                games,
            } => {
                push_key(o, f, "phase");
                push_str_literal(o, phase);
                push_key(o, f, "round");
                o.push_str(&round.to_string());
                push_key(o, f, "games");
                o.push_str(&games.to_string());
            }
            ObsEvent::Game {
                players,
                start,
                elapsed,
                early_terminated,
            } => {
                push_key(o, f, "players");
                o.push_str(&players.to_string());
                push_key(o, f, "start");
                push_f64(o, *start);
                push_key(o, f, "elapsed");
                push_f64(o, *elapsed);
                push_key(o, f, "early_terminated");
                o.push_str(if *early_terminated { "true" } else { "false" });
            }
            ObsEvent::Solo {
                start,
                observed_time,
            }
            | ObsEvent::Probe {
                start,
                observed_time,
            } => {
                push_key(o, f, "start");
                push_f64(o, *start);
                push_key(o, f, "observed_time");
                push_f64(o, *observed_time);
            }
            ObsEvent::RetuneDetection {
                step,
                at,
                direction,
            } => {
                push_key(o, f, "step");
                o.push_str(&step.to_string());
                push_key(o, f, "at");
                push_f64(o, *at);
                push_key(o, f, "direction");
                push_str_literal(o, direction);
            }
            ObsEvent::Retune {
                step,
                kind,
                accepted,
            } => {
                push_key(o, f, "step");
                o.push_str(&step.to_string());
                push_key(o, f, "kind");
                push_str_literal(o, kind);
                push_key(o, f, "accepted");
                o.push_str(if *accepted { "true" } else { "false" });
            }
            ObsEvent::ScenarioTimeline {
                scenario,
                preemptions,
            } => {
                push_key(o, f, "scenario");
                push_str_literal(o, scenario);
                push_key(o, f, "preemptions");
                o.push_str(&preemptions.to_string());
            }
            ObsEvent::PreemptionStrike { at, outage } => {
                push_key(o, f, "at");
                push_f64(o, *at);
                push_key(o, f, "outage");
                push_f64(o, *outage);
            }
        }
        out.push('}');
        out
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
