//! Campaign results: per-cell records, per-group streaming aggregates, JSON emission,
//! and compact text summaries.

use dg_exec::json::{self, FromJson, Node, Object, ReadError, ToJson};
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
}

impl ToJson for CellResult {
    fn write_json(&self, out: &mut String) {
        Object::write(out, |o| {
            o.field("index", &self.index)
                .field("tuner", &self.tuner)
                .field("application", &self.application)
                .field("vm", &self.vm)
                .field("profile", &self.profile);
            if self.scenario != STEADY_SCENARIO {
                o.field("scenario", &self.scenario);
            }
            o.field("seed", &self.seed)
                .field("chosen", &self.chosen)
                .field("mean_time", &self.mean_time)
                .field("cov_percent", &self.cov_percent)
                .field("samples", &self.samples)
                .field("core_hours", &self.core_hours)
                .field("wall_clock_seconds", &self.wall_clock_seconds);
            if let Some(failure) = &self.failure {
                o.field("failure", failure);
            }
        });
    }
}

/// The optional keys read as the values that leave them out: `scenario` as
/// `"steady"` and `failure` as `None`, so reports written before each key existed
/// still parse.
impl FromJson for CellResult {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        // A failed cell's mean is +inf; a NaN would poison its group's CDF.
        let mean_time = node.get("mean_time")?;
        let time = f64::from_node(mean_time)?;
        if time.is_nan() || time < 0.0 {
            return Err(mean_time.error(format_args!(
                "expected a non-negative time or \"inf\", found {time}"
            )));
        }
        Ok(CellResult {
            index: node.read("index")?,
            tuner: node.read("tuner")?,
            application: node.read("application")?,
            vm: node.read("vm")?,
            profile: node.read("profile")?,
            scenario: node
                .read_opt("scenario")?
                .unwrap_or_else(|| STEADY_SCENARIO.to_string()),
            seed: node.read("seed")?,
            chosen: node.read("chosen")?,
            mean_time: time,
            cov_percent: node.read("cov_percent")?,
            samples: node.read("samples")?,
            core_hours: node.read("core_hours")?,
            wall_clock_seconds: node.read("wall_clock_seconds")?,
            failure: node.read_opt("failure")?,
        })
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

impl ToJson for GroupSummary {
    fn write_json(&self, out: &mut String) {
        Object::write(out, |o| {
            o.field("tuner", &self.tuner)
                .field("application", &self.application)
                .field("vm", &self.vm)
                .field("profile", &self.profile);
            if self.scenario != STEADY_SCENARIO {
                o.field("scenario", &self.scenario);
            }
            o.field("cells", &self.cells)
                .field("mean_time", &self.mean_time)
                .field("across_seed_cov_percent", &self.across_seed_cov_percent)
                .field("mean_cov_percent", &self.mean_cov_percent)
                .field("p50_time", &self.p50_time)
                .field("p90_time", &self.p90_time)
                .field("core_hours", &self.core_hours);
        });
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
///
/// # JSON format
///
/// [`to_json`](Self::to_json) writes `name`, `grid_cells`, `scheduled_cells` (equal to
/// `grid_cells`), `completed_cells`, `budget_exhausted` (always `false`; both keys
/// stay from when runs could be capped), `total_core_hours`, then the `cells` in grid
/// order and the `groups` in first-appearance order. A cell holds the [`CellResult`]
/// fields in declaration order; `scenario` is left out for `"steady"` and `failure`
/// when there is none, so reports written before each existed keep their bytes. A
/// group holds the [`GroupSummary`] fields, `scenario` left out the same way.
/// Non-finite floats are written `"inf"`, `"-inf"` and `"nan"`.
///
/// ```
/// use dg_campaign::{CampaignReport, ShardReport};
///
/// let cell = concat!(
///     r#"{"index":0,"tuner":"DarwinGame","application":"Redis","vm":"m5.large","#,
///     r#""profile":"typical","seed":0,"chosen":4242,"mean_time":245.5,"#,
///     r#""cov_percent":0.25,"samples":96,"core_hours":1.5,"wall_clock_seconds":3600}"#,
/// );
/// let shard = format!(
///     r#"{{"campaign":"fig15","fingerprint":"0000000000000001","shard":0,"shard_count":1,"strategy":"contiguous","grid_cells":1,"scheduled_cells":1,"assigned":[0],"cells":[{cell}]}}"#
/// );
/// let report = CampaignReport::merge(vec![ShardReport::from_json(&shard).unwrap()]).unwrap();
/// assert_eq!(
///     report.to_json(),
///     format!(concat!(
///         r#"{{"name":"fig15","grid_cells":1,"scheduled_cells":1,"completed_cells":1,"#,
///         r#""budget_exhausted":false,"total_core_hours":1.5,"cells":[{}],"groups":["#,
///         r#"{{"tuner":"DarwinGame","application":"Redis","vm":"m5.large","profile":"typical","#,
///         r#""cells":1,"mean_time":245.5,"across_seed_cov_percent":0,"mean_cov_percent":0.25,"#,
///         r#""p50_time":245.5,"p90_time":245.5,"core_hours":1.5}}]}}"#,
///     ), cell)
/// );
/// ```
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
        json::object(|o| {
            o.field("name", &self.name)
                .field("grid_cells", &self.grid_cells)
                .field("scheduled_cells", &self.grid_cells)
                .field("completed_cells", &self.cells.len())
                .field("budget_exhausted", &false)
                .field("total_core_hours", &self.total_core_hours)
                .field("cells", &self.cells)
                .field("groups", &self.groups);
        })
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
