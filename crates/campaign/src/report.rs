//! Campaign results: per-cell records, per-group streaming aggregates, JSON emission,
//! and compact text summaries.

use dg_exec::json::{push_f64, push_key, push_str_literal};
use dg_stats::{Column, EmpiricalCdf, OnlineStats, Table};

/// The result of one completed campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Position in the campaign grid.
    pub index: usize,
    /// Tuner-axis name (the registry name, which may differ from the tuner's own
    /// display name for registered variants).
    pub tuner: String,
    /// Application name.
    pub application: String,
    /// VM-type name.
    pub vm: String,
    /// Interference-profile label.
    pub profile: String,
    /// Scenario name (`"steady"` for the default pass-through scenario).
    pub scenario: String,
    /// Seed-axis value (replicate id).
    pub seed: u64,
    /// The configuration the tuner selected.
    pub chosen: u64,
    /// Mean execution time of the chosen configuration over the repeated later
    /// measurements (seconds).
    pub mean_time: f64,
    /// Coefficient of variation of those measurements (%).
    pub cov_percent: f64,
    /// Number of configuration evaluations the tuner performed.
    pub samples: usize,
    /// Core-hours consumed by tuning this cell.
    pub core_hours: f64,
    /// Simulated wall-clock seconds of tuning this cell.
    pub wall_clock_seconds: f64,
    /// Evaluations answered by the cell's surrogate model (see
    /// `dg_exec::SurrogateBackend`) instead of the real backend: cost-free model
    /// serves of solo evaluations plus observations. `0` for cells run without an
    /// active surrogate, which serialize without a `model_evals` key — pre-surrogate
    /// reports stay byte-identical.
    pub model_evals: u64,
    /// The execution backend's permanent failure, if the cell's backend hit one (see
    /// `ExecutionBackend::failure`) — real-process cells whose command crashed, timed
    /// out, or skipped its completion marker land here with `f64::INFINITY`-poisoned
    /// metrics instead of being dropped, so resumed campaigns skip them. `None` cells
    /// serialize without a `failure` key (pre-ProcessBackend byte compatibility).
    pub failure: Option<String>,
}

/// The scenario label of the default pass-through scenario. Cells and groups carrying
/// it serialize without a `scenario` key, so default-axis reports stay byte-identical
/// to reports produced before the scenario axis existed; parsers treat a missing key
/// as this label.
pub(crate) const STEADY_SCENARIO: &str = "steady";

impl CellResult {
    fn group_key(&self) -> (&str, &str, &str, &str, &str) {
        (
            &self.tuner,
            &self.application,
            &self.vm,
            &self.profile,
            &self.scenario,
        )
    }

    pub(crate) fn to_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        push_key(out, &mut first, "index");
        let _ = std::fmt::Write::write_fmt(out, format_args!("{}", self.index));
        push_key(out, &mut first, "tuner");
        push_str_literal(out, &self.tuner);
        push_key(out, &mut first, "application");
        push_str_literal(out, &self.application);
        push_key(out, &mut first, "vm");
        push_str_literal(out, &self.vm);
        push_key(out, &mut first, "profile");
        push_str_literal(out, &self.profile);
        if self.scenario != STEADY_SCENARIO {
            push_key(out, &mut first, "scenario");
            push_str_literal(out, &self.scenario);
        }
        push_key(out, &mut first, "seed");
        let _ = std::fmt::Write::write_fmt(out, format_args!("{}", self.seed));
        push_key(out, &mut first, "chosen");
        let _ = std::fmt::Write::write_fmt(out, format_args!("{}", self.chosen));
        push_key(out, &mut first, "mean_time");
        push_f64(out, self.mean_time);
        push_key(out, &mut first, "cov_percent");
        push_f64(out, self.cov_percent);
        push_key(out, &mut first, "samples");
        let _ = std::fmt::Write::write_fmt(out, format_args!("{}", self.samples));
        push_key(out, &mut first, "core_hours");
        push_f64(out, self.core_hours);
        push_key(out, &mut first, "wall_clock_seconds");
        push_f64(out, self.wall_clock_seconds);
        if self.model_evals > 0 {
            push_key(out, &mut first, "model_evals");
            let _ = std::fmt::Write::write_fmt(out, format_args!("{}", self.model_evals));
        }
        if let Some(failure) = &self.failure {
            push_key(out, &mut first, "failure");
            push_str_literal(out, failure);
        }
        out.push('}');
    }
}

/// Streaming aggregate over all completed cells that share a `(tuner, application, vm,
/// profile, scenario)` coordinate — i.e. over the seed axis.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Tuner-axis name.
    pub tuner: String,
    /// Application name.
    pub application: String,
    /// VM-type name.
    pub vm: String,
    /// Interference-profile label.
    pub profile: String,
    /// Scenario name (`"steady"` for the default pass-through scenario).
    pub scenario: String,
    /// Number of completed cells in the group.
    pub cells: usize,
    /// Mean over the group's per-cell mean execution times (seconds).
    pub mean_time: f64,
    /// Coefficient of variation across the group's per-cell mean times (%): run-to-run
    /// tuner instability, the quantity behind Fig. 3.
    pub across_seed_cov_percent: f64,
    /// Mean of the per-cell CoV (%): within-choice measurement variability.
    pub mean_cov_percent: f64,
    /// Median of the per-cell mean times (seconds).
    pub p50_time: f64,
    /// 90th percentile of the per-cell mean times (seconds).
    pub p90_time: f64,
    /// Total tuning core-hours of the group.
    pub core_hours: f64,
}

impl GroupSummary {
    fn to_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        push_key(out, &mut first, "tuner");
        push_str_literal(out, &self.tuner);
        push_key(out, &mut first, "application");
        push_str_literal(out, &self.application);
        push_key(out, &mut first, "vm");
        push_str_literal(out, &self.vm);
        push_key(out, &mut first, "profile");
        push_str_literal(out, &self.profile);
        if self.scenario != STEADY_SCENARIO {
            push_key(out, &mut first, "scenario");
            push_str_literal(out, &self.scenario);
        }
        push_key(out, &mut first, "cells");
        let _ = std::fmt::Write::write_fmt(out, format_args!("{}", self.cells));
        push_key(out, &mut first, "mean_time");
        push_f64(out, self.mean_time);
        push_key(out, &mut first, "across_seed_cov_percent");
        push_f64(out, self.across_seed_cov_percent);
        push_key(out, &mut first, "mean_cov_percent");
        push_f64(out, self.mean_cov_percent);
        push_key(out, &mut first, "p50_time");
        push_f64(out, self.p50_time);
        push_key(out, &mut first, "p90_time");
        push_f64(out, self.p90_time);
        push_key(out, &mut first, "core_hours");
        push_f64(out, self.core_hours);
        out.push('}');
    }
}

/// One-pass accumulator behind a [`GroupSummary`].
struct GroupAccumulator {
    tuner: String,
    application: String,
    vm: String,
    profile: String,
    scenario: String,
    times: OnlineStats,
    covs: OnlineStats,
    hours_sum: f64,
    mean_times: Vec<f64>,
}

impl GroupAccumulator {
    fn new(cell: &CellResult) -> Self {
        Self {
            tuner: cell.tuner.clone(),
            application: cell.application.clone(),
            vm: cell.vm.clone(),
            profile: cell.profile.clone(),
            scenario: cell.scenario.clone(),
            times: OnlineStats::new(),
            covs: OnlineStats::new(),
            hours_sum: 0.0,
            mean_times: Vec::new(),
        }
    }

    fn push(&mut self, cell: &CellResult) {
        self.times.push(cell.mean_time);
        self.covs.push(cell.cov_percent);
        self.hours_sum += cell.core_hours;
        self.mean_times.push(cell.mean_time);
    }

    fn finish(self) -> GroupSummary {
        let cdf = EmpiricalCdf::from_samples(&self.mean_times);
        GroupSummary {
            tuner: self.tuner,
            application: self.application,
            vm: self.vm,
            profile: self.profile,
            scenario: self.scenario,
            cells: self.times.count() as usize,
            mean_time: self.times.mean(),
            across_seed_cov_percent: self.times.coefficient_of_variation(),
            mean_cov_percent: self.covs.mean(),
            p50_time: cdf.quantile(0.5),
            p90_time: cdf.quantile(0.9),
            core_hours: self.hours_sum,
        }
    }
}

/// The full result of one campaign run.
///
/// The report deliberately records nothing about the host — no worker count, no host
/// wall-clock — so a spec serializes to byte-identical JSON whether it ran on one
/// worker or thirty-two.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name, copied from the spec.
    pub name: String,
    /// Size of the cross-product grid.
    pub grid_cells: usize,
    /// Total tuning core-hours over all completed cells.
    pub total_core_hours: f64,
    /// Every completed cell, in stable grid order.
    pub cells: Vec<CellResult>,
    /// Per-`(tuner, application, vm, profile, scenario)` aggregates over the seed
    /// axis, in first-appearance (grid) order.
    pub groups: Vec<GroupSummary>,
}

impl CampaignReport {
    /// Assembles a report from completed cells (already in stable grid order).
    pub(crate) fn from_cells(name: String, grid_cells: usize, cells: Vec<CellResult>) -> Self {
        let mut accumulators: Vec<GroupAccumulator> = Vec::new();
        let mut total_core_hours = 0.0;
        for cell in &cells {
            total_core_hours += cell.core_hours;
            match accumulators.iter_mut().find(|a| {
                (
                    a.tuner.as_str(),
                    a.application.as_str(),
                    a.vm.as_str(),
                    a.profile.as_str(),
                    a.scenario.as_str(),
                ) == cell.group_key()
            }) {
                Some(accumulator) => accumulator.push(cell),
                None => {
                    let mut accumulator = GroupAccumulator::new(cell);
                    accumulator.push(cell);
                    accumulators.push(accumulator);
                }
            }
        }
        Self {
            name,
            grid_cells,
            total_core_hours,
            cells,
            groups: accumulators
                .into_iter()
                .map(GroupAccumulator::finish)
                .collect(),
        }
    }

    /// Number of completed cells.
    pub fn completed_cells(&self) -> usize {
        self.cells.len()
    }

    /// Canonical JSON serialization: fixed key order, no whitespace, shortest
    /// round-trip float rendering. Byte-identical for identical reports.
    ///
    /// Two keys stay from when runs could be capped, so reports keep their bytes:
    /// `scheduled_cells` repeats `grid_cells`, and the cap flag after `completed_cells`
    /// is always `false`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.cells.len() * 256);
        out.push('{');
        let mut first = true;
        push_key(&mut out, &mut first, "name");
        push_str_literal(&mut out, &self.name);
        push_key(&mut out, &mut first, "grid_cells");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.grid_cells));
        push_key(&mut out, &mut first, "scheduled_cells");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.grid_cells));
        push_key(&mut out, &mut first, "completed_cells");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.cells.len()));
        push_key(&mut out, &mut first, "budget_exhausted");
        out.push_str("false");
        push_key(&mut out, &mut first, "total_core_hours");
        push_f64(&mut out, self.total_core_hours);
        push_key(&mut out, &mut first, "cells");
        out.push('[');
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            cell.to_json(&mut out);
        }
        out.push(']');
        push_key(&mut out, &mut first, "groups");
        out.push('[');
        for (i, group) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            group.to_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// A compact text table over the group aggregates, one row per group.
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(vec![
            Column::left("tuner"),
            Column::left("application"),
            Column::left("VM"),
            Column::left("profile"),
            Column::left("scenario"),
            Column::right("cells"),
            Column::right("mean time (s)"),
            Column::right("seed CoV (%)"),
            Column::right("meas. CoV (%)"),
            Column::right("core-hours"),
        ]);
        for group in &self.groups {
            table.push_row(vec![
                group.tuner.clone(),
                group.application.clone(),
                group.vm.clone(),
                group.profile.clone(),
                group.scenario.clone(),
                format!("{}", group.cells),
                format!("{:.1}", group.mean_time),
                format!("{:.2}", group.across_seed_cov_percent),
                format!("{:.2}", group.mean_cov_percent),
                format!("{:.1}", group.core_hours),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(index: usize, tuner: &str, seed: u64, mean_time: f64) -> CellResult {
        CellResult {
            index,
            tuner: tuner.into(),
            application: "Redis".into(),
            vm: "m5.8xlarge".into(),
            profile: "typical".into(),
            scenario: STEADY_SCENARIO.into(),
            seed,
            chosen: 42,
            mean_time,
            cov_percent: 1.0,
            samples: 10,
            core_hours: 2.0,
            wall_clock_seconds: 600.0,
            model_evals: 0,
            failure: None,
        }
    }

    fn report() -> CampaignReport {
        CampaignReport::from_cells(
            "unit".into(),
            4,
            vec![
                cell(0, "Random", 0, 100.0),
                cell(1, "Random", 1, 110.0),
                cell(2, "BLISS", 0, 90.0),
                cell(3, "BLISS", 1, 95.0),
            ],
        )
    }

    #[test]
    fn groups_aggregate_over_the_seed_axis() {
        let report = report();
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.groups[0].tuner, "Random");
        assert_eq!(report.groups[0].cells, 2);
        assert!((report.groups[0].mean_time - 105.0).abs() < 1e-9);
        assert!(report.groups[0].across_seed_cov_percent > 0.0);
        assert!((report.groups[1].mean_time - 92.5).abs() < 1e-9);
        assert!((report.total_core_hours - 8.0).abs() < 1e-12);
        assert!((report.groups[0].core_hours - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_come_from_the_group_cdf() {
        let report = report();
        let g = &report.groups[0];
        assert_eq!(g.p50_time.min(g.p90_time), g.p50_time);
        assert!(g.p50_time >= 100.0 && g.p90_time <= 110.0);
    }

    #[test]
    fn json_is_stable_and_contains_every_section() {
        let a = report().to_json();
        let b = report().to_json();
        assert_eq!(a, b, "identical reports must serialize identically");
        assert!(a.starts_with('{') && a.ends_with('}'));
        for key in [
            "\"name\":\"unit\"",
            "\"grid_cells\":4",
            "\"completed_cells\":4",
            "\"budget_exhausted\":false",
            "\"cells\":[",
            "\"groups\":[",
            "\"tuner\":\"Random\"",
        ] {
            assert!(a.contains(key), "missing {key} in {a}");
        }
    }

    #[test]
    fn scenarios_split_groups_and_only_non_steady_labels_serialize() {
        let mut shifted = cell(2, "Random", 0, 130.0);
        shifted.scenario = "regime-shift".into();
        let report = CampaignReport::from_cells(
            "scenario-split".into(),
            3,
            vec![
                cell(0, "Random", 0, 100.0),
                cell(1, "Random", 1, 110.0),
                shifted,
            ],
        );
        assert_eq!(
            report.groups.len(),
            2,
            "different scenarios must not share a group"
        );
        assert_eq!(report.groups[0].scenario, "steady");
        assert_eq!(report.groups[1].scenario, "regime-shift");
        let json = report.to_json();
        assert_eq!(
            json.matches("\"scenario\":\"regime-shift\"").count(),
            2,
            "one cell + one group carry the label"
        );
        assert!(
            !json.contains("\"scenario\":\"steady\""),
            "steady cells serialize without a scenario key (pre-axis byte compatibility)"
        );
    }

    #[test]
    fn model_evals_serialize_only_when_present() {
        let plain = cell(0, "Random", 0, 100.0);
        let mut out = String::new();
        plain.to_json(&mut out);
        assert!(
            !out.contains("model_evals"),
            "surrogate-less cells must keep the pre-surrogate schema: {out}"
        );

        let mut served = cell(1, "NTBEA", 0, 90.0);
        served.model_evals = 17;
        let mut out = String::new();
        served.to_json(&mut out);
        assert!(
            out.contains("\"wall_clock_seconds\":600,\"model_evals\":17}"),
            "model_evals sits after wall_clock_seconds: {out}"
        );
    }

    #[test]
    fn summary_table_has_one_row_per_group() {
        let report = report();
        let table = report.summary_table();
        assert_eq!(table.len(), 2);
        let rendered = table.render();
        assert!(rendered.contains("Random") && rendered.contains("BLISS"));
    }

    #[test]
    fn empty_report_is_valid() {
        let report = CampaignReport::from_cells("empty".into(), 4, Vec::new());
        assert_eq!(report.completed_cells(), 0);
        assert!(report.groups.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"cells\":[]"));
    }
}
