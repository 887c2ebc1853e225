//! Distributed campaign sharding: partition a campaign grid across processes/hosts and
//! merge the per-shard results back into one report.
//!
//! PR 2's executor saturates one host; the paper-scale grids (tuners × apps × VMs ×
//! profiles × seeds) want sweeps that span hosts, the way ExpoCloud distributes
//! parameter-space exploration across cloud workers. Cells are independent and derive
//! every RNG stream from their stable grid index, so the protocol is small:
//!
//! 1. every participant builds the same [`ShardPlan`] from the shared
//!    [`CampaignSpec`] — a deterministic partition of the grid's cell indices into
//!    `K` shards under a [`ShardStrategy`];
//! 2. shard `k` runs its slice ([`Campaign::run_shard`](crate::Campaign::run_shard))
//!    and emits a [`ShardReport`] as canonical JSON (a file, a blob, a message — any
//!    byte transport works);
//! 3. one process parses the K reports ([`ShardReport::from_json`]) and calls
//!    [`CampaignReport::merge`], which validates compatibility (spec fingerprints,
//!    disjoint exhaustive coverage), reassembles cells in stable grid order, and
//!    recomputes the group aggregates through the same streamed `dg-stats`
//!    accumulators the single-host path uses.
//!
//! Because every cell's result is a pure function of the spec and its grid index, the
//! merged report is **byte-identical** to the report a single host would have produced
//! (`cargo bench --bench fig15_vm_sweep` and `crates/campaign/tests/sharding.rs` pin
//! this). Incompatible inputs — overlapping shards, missing shards, reports from a
//! different spec — are rejected with typed [`MergeError`]s instead of corrupting the
//! output.

use crate::report::{CampaignReport, CellResult};
use crate::spec::CampaignSpec;
use dg_exec::json::{self, FromJson, Node, ReadError, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How a [`ShardPlan`] distributes cell indices across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Balanced contiguous index ranges (shard sizes differ by at most one cell).
    /// Best cache/locality story when neighbouring cells share workload surfaces.
    Contiguous,
    /// Round-robin: shard `k` takes every index `i` with `i % K == k`. Spreads any
    /// axis-correlated cost gradient evenly without needing a cost model.
    Strided,
    /// Greedy longest-processing-time balancing on per-cell cost estimates (the
    /// tuner's evaluation budget, [`CampaignSpec::budget_for`]): cells are assigned,
    /// most expensive first, to the currently cheapest shard. Guarantees no shard
    /// exceeds `total/K + max_cell` estimated cost.
    CostBalanced,
}

impl ShardStrategy {
    /// Every strategy, in a stable order (useful for sweeps and property tests).
    pub const ALL: [ShardStrategy; 3] = [
        ShardStrategy::Contiguous,
        ShardStrategy::Strided,
        ShardStrategy::CostBalanced,
    ];

    /// The canonical lowercase name used in shard-report JSON and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            ShardStrategy::Contiguous => "contiguous",
            ShardStrategy::Strided => "strided",
            ShardStrategy::CostBalanced => "cost-balanced",
        }
    }

    /// Parses a canonical name back into a strategy.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for ShardStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic partition of a campaign's cell indices into `K` shards.
///
/// The plan is a pure function of `(spec, K, strategy)`: every participant in a
/// distributed run rebuilds it locally and gets the same assignment, so no coordinator
/// is needed. Shards disjointly cover the index space `0..grid_cells` (some shards may
/// be empty when `K` exceeds the cell count).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    fingerprint: u64,
    strategy: ShardStrategy,
    grid_cells: usize,
    assignments: Vec<Vec<usize>>,
    costs: Vec<u64>,
}

impl ShardPlan {
    /// Builds the plan for `spec` split into `shards` parts under `strategy`, costing
    /// cells by their tuner evaluation budgets ([`CampaignSpec::budget_for`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or the spec is invalid.
    pub fn new(spec: &CampaignSpec, shards: usize, strategy: ShardStrategy) -> Self {
        assert!(shards > 0, "a shard plan needs at least one shard");
        spec.validate();
        let cell_costs: Vec<u64> = spec
            .cells()
            .iter()
            .map(|cell| spec.budget_for(&cell.tuner) as u64)
            .collect();
        let cells = cell_costs.len();
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); shards];
        match strategy {
            ShardStrategy::Contiguous => {
                // Balanced contiguous ranges, same arithmetic as the workloads crate's
                // `IndexPartition` but tolerating more shards than cells (trailing
                // shards simply stay empty).
                let base = cells / shards;
                let remainder = cells % shards;
                for (shard, assignment) in assignments.iter_mut().enumerate() {
                    let start = shard * base + shard.min(remainder);
                    let len = base + usize::from(shard < remainder);
                    assignment.extend(start..start + len);
                }
            }
            ShardStrategy::Strided => {
                for index in 0..cells {
                    assignments[index % shards].push(index);
                }
            }
            ShardStrategy::CostBalanced => {
                // Greedy LPT: most expensive cells first, each onto the currently
                // cheapest shard; ties go to the lower index and the lower shard id
                // (a stable sort and `min_by_key` both keep the first), so the plan is
                // deterministic.
                let mut order: Vec<usize> = (0..cells).collect();
                order.sort_by_key(|&index| std::cmp::Reverse(cell_costs[index]));
                let mut loads = vec![0u64; shards];
                for index in order {
                    let target = (0..shards)
                        .min_by_key(|&shard| loads[shard])
                        .expect("shards > 0");
                    loads[target] += cell_costs[index];
                    assignments[target].push(index);
                }
                for assignment in &mut assignments {
                    assignment.sort_unstable();
                }
            }
        }

        let costs = assignments
            .iter()
            .map(|assignment| assignment.iter().map(|i| cell_costs[*i]).sum())
            .collect();
        Self {
            fingerprint: spec.fingerprint(),
            strategy,
            grid_cells: cells,
            assignments,
            costs,
        }
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.assignments.len()
    }

    /// Fingerprint of the spec the plan was built from ([`CampaignSpec::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The assignment strategy.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Size of the cross-product grid: the number of cells the plan covers.
    pub fn grid_cells(&self) -> usize {
        self.grid_cells
    }

    /// The cell indices assigned to `shard`, in ascending (grid) order.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn indices(&self, shard: usize) -> &[usize] {
        assert!(
            shard < self.assignments.len(),
            "shard {shard} out of range (plan has {} shards)",
            self.assignments.len()
        );
        &self.assignments[shard]
    }

    /// Estimated cost of `shard`: the summed tuner evaluation budgets of its cells.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn estimated_cost(&self, shard: usize) -> u64 {
        assert!(shard < self.costs.len(), "shard {shard} out of range");
        self.costs[shard]
    }
}

/// The result of running one shard of a campaign: the completed cells plus everything
/// the merge needs to validate compatibility and coverage.
///
/// Serializes to canonical JSON ([`to_json`](Self::to_json)) and parses back
/// losslessly ([`from_json`](Self::from_json)), so OS processes (or hosts) can hand
/// reports around as plain files.
///
/// # JSON format
///
/// `campaign`; `fingerprint`, the spec's `CampaignSpec::fingerprint` as 16 hex digits
/// so that readers which parse numbers as `f64` keep every bit; `shard` and
/// `shard_count`; `strategy` (a [`ShardStrategy`] name, or `"lab"` for a lab cell
/// file); `grid_cells`; `scheduled_cells`, which must repeat `grid_cells`; the
/// `assigned` cell indices, ascending; and the completed `cells`, each in the cell
/// format of [`CampaignReport`]. Keys the format does not name are ignored, so
/// reports written before the caps were removed, which carry
/// `"budget_exhausted":false`, still parse and merge. Floats round-trip bit for bit,
/// and a legacy `null` reads as NaN where NaN is allowed; a cell's `mean_time` must be
/// a non-negative time or `"inf"`.
///
/// ```
/// use dg_campaign::ShardReport;
///
/// let text = concat!(
///     r#"{"campaign":"fig15-vm-sweep","fingerprint":"a2c7b7d0e3c5f1f2","shard":1,"#,
///     r#""shard_count":2,"strategy":"contiguous","grid_cells":2,"scheduled_cells":2,"#,
///     r#""assigned":[1],"cells":[{"index":1,"tuner":"DarwinGame","application":"Redis","#,
///     r#""vm":"m5.large","profile":"typical","scenario":"regime-shift","seed":1,"#,
///     r#""chosen":4242,"mean_time":"inf","cov_percent":"nan","samples":96,"#,
///     r#""core_hours":1.25,"wall_clock_seconds":3600.5,"#,
///     r#""failure":"process exited with status 7"}]}"#,
/// );
/// let report = ShardReport::from_json(text).unwrap();
/// assert_eq!(report.fingerprint, 0xa2c7_b7d0_e3c5_f1f2);
/// assert_eq!(report.to_json(), text);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Campaign name, from the spec.
    pub campaign: String,
    /// Fingerprint of the producing spec ([`CampaignSpec::fingerprint`]).
    pub fingerprint: u64,
    /// This shard's index, `0..shard_count`.
    pub shard: usize,
    /// Total number of shards in the plan.
    pub shard_count: usize,
    /// Canonical name of the plan's [`ShardStrategy`].
    pub strategy: String,
    /// Size of the full cross-product grid, which the shards cover between them.
    pub grid_cells: usize,
    /// The cell indices this shard was assigned, ascending.
    pub assigned: Vec<usize>,
    /// The completed cells, in stable grid order.
    pub cells: Vec<CellResult>,
}

impl ShardReport {
    /// Canonical JSON serialization (see the format above).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("campaign", &self.campaign)
                .field("fingerprint", &HexFingerprint(self.fingerprint))
                .field("shard", &self.shard)
                .field("shard_count", &self.shard_count)
                .field("strategy", &self.strategy)
                .field("grid_cells", &self.grid_cells)
                // The shards cover the whole grid; the key keeps the documents' bytes.
                .field("scheduled_cells", &self.grid_cells)
                .field("assigned", &self.assigned)
                .field("cells", &self.cells);
        })
    }

    /// Parses a shard report from its canonical JSON form, losslessly (see the
    /// format above).
    pub fn from_json(text: &str) -> Result<Self, ShardParseError> {
        json::decode(text).map_err(|message| ShardParseError { message })
    }
}

/// A spec fingerprint written as 16 hex digits, so that it keeps every bit in JSON
/// readers that parse numbers as `f64`. Shard reports, lab manifests and retune
/// reports carry one.
pub(crate) struct HexFingerprint(pub(crate) u64);

impl ToJson for HexFingerprint {
    fn write_json(&self, out: &mut String) {
        format!("{:016x}", self.0).write_json(out);
    }
}

impl FromJson for HexFingerprint {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        let hex = node.str()?;
        u64::from_str_radix(hex, 16)
            .map(HexFingerprint)
            .map_err(|_| node.error(format_args!("invalid fingerprint {hex:?}")))
    }
}

impl FromJson for ShardReport {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        let grid_cells = node.read("grid_cells")?;
        let scheduled_cells: usize = node.read("scheduled_cells")?;
        if scheduled_cells != grid_cells {
            return Err(node.error(format_args!(
                "field \"scheduled_cells\" is {scheduled_cells}, not grid_cells {grid_cells}"
            )));
        }
        Ok(Self {
            campaign: node.read("campaign")?,
            fingerprint: node.read::<HexFingerprint>("fingerprint")?.0,
            shard: node.read("shard")?,
            shard_count: node.read("shard_count")?,
            strategy: node.read("strategy")?,
            grid_cells,
            assigned: node.read("assigned")?,
            cells: node.read("cells")?,
        })
    }
}

/// A malformed shard-report document (syntax error, missing field, wrong type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardParseError {
    message: String,
}

impl fmt::Display for ShardParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid shard report: {}", self.message)
    }
}

impl std::error::Error for ShardParseError {}

/// Why a set of shard reports cannot be merged into a campaign report.
///
/// Every variant is a *rejection*: `merge` never silently drops, deduplicates, or
/// invents cells — incompatible inputs fail loudly so a distributed run can retry the
/// offending shard instead of publishing a corrupt report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No shard reports were supplied.
    NoShards,
    /// Two reports disagree on a spec-level field (fingerprint, grid size, shard
    /// count, strategy, campaign name).
    SpecMismatch {
        /// Which field disagreed.
        field: &'static str,
        /// The value of the first report.
        expected: String,
        /// The conflicting value.
        found: String,
    },
    /// A report's shard index is not below its declared shard count.
    ShardIndexOutOfRange {
        /// The offending shard index.
        shard: usize,
        /// The declared shard count.
        shard_count: usize,
    },
    /// Two reports claim the same shard index.
    DuplicateShard {
        /// The duplicated shard index.
        shard: usize,
    },
    /// Fewer reports than the declared shard count; `shard` is the first absent one.
    MissingShard {
        /// The first missing shard index.
        shard: usize,
    },
    /// A cell index is assigned to more than one shard.
    OverlappingCell {
        /// The multiply-assigned cell index.
        index: usize,
    },
    /// A grid cell index is assigned to no shard.
    UncoveredCell {
        /// The unassigned cell index.
        index: usize,
    },
    /// An assigned cell index is outside the grid.
    CellIndexOutOfRange {
        /// The offending cell index.
        index: usize,
        /// The number of grid cells.
        grid_cells: usize,
    },
    /// A shard reports a completed cell it was never assigned.
    ForeignCell {
        /// The shard reporting the cell.
        shard: usize,
        /// The unassigned cell index it reported.
        index: usize,
    },
    /// A shard reports the same completed cell more than once — its report is corrupt
    /// (and would otherwise mask a dropped cell, since only counts are compared).
    DuplicateCell {
        /// The shard reporting the cell.
        shard: usize,
        /// The repeated cell index.
        index: usize,
    },
    /// A shard completed fewer cells than assigned — its report is truncated or
    /// corrupt.
    IncompleteShard {
        /// The offending shard index.
        shard: usize,
        /// How many cells it was assigned.
        assigned: usize,
        /// How many it reported complete.
        completed: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "no shard reports to merge"),
            MergeError::SpecMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "shard reports disagree on {field}: {expected:?} vs {found:?}"
            ),
            MergeError::ShardIndexOutOfRange { shard, shard_count } => {
                write!(f, "shard index {shard} out of range (count {shard_count})")
            }
            MergeError::DuplicateShard { shard } => {
                write!(f, "shard {shard} appears more than once")
            }
            MergeError::MissingShard { shard } => write!(f, "shard {shard} is missing"),
            MergeError::OverlappingCell { index } => {
                write!(f, "cell {index} is assigned to more than one shard")
            }
            MergeError::UncoveredCell { index } => {
                write!(f, "cell {index} is assigned to no shard")
            }
            MergeError::CellIndexOutOfRange { index, grid_cells } => {
                write!(
                    f,
                    "cell index {index} outside the grid ({grid_cells} cells)"
                )
            }
            MergeError::ForeignCell { shard, index } => {
                write!(
                    f,
                    "shard {shard} reports cell {index} it was never assigned"
                )
            }
            MergeError::DuplicateCell { shard, index } => {
                write!(f, "shard {shard} reports cell {index} more than once")
            }
            MergeError::IncompleteShard {
                shard,
                assigned,
                completed,
            } => write!(
                f,
                "shard {shard} completed {completed} of {assigned} assigned cells"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

impl CampaignReport {
    /// Merges the reports of a sharded campaign back into one [`CampaignReport`].
    ///
    /// Validates that the reports come from one plan over one spec (fingerprints,
    /// shard count, strategy), that every shard is present exactly once, that the
    /// declared assignments disjointly cover the whole index space, and that every
    /// shard completed exactly its assigned cells; then reassembles the cells in stable
    /// grid order and recomputes the per-group aggregates through the same streamed
    /// `dg-stats` accumulators the single-host executor uses. The result is
    /// byte-identical (in its [`to_json`](Self::to_json) form) to a single-host run of
    /// the same spec.
    ///
    /// Memory stays proportional to the documents: nothing is sized by the declared
    /// `shard_count` or `grid_cells` until the documents are shown to cover them.
    pub fn merge(shards: Vec<ShardReport>) -> Result<CampaignReport, MergeError> {
        let first = shards.first().ok_or(MergeError::NoShards)?;
        let (name, fingerprint) = (first.campaign.clone(), first.fingerprint);
        let (shard_count, strategy) = (first.shard_count, first.strategy.clone());
        let grid_cells = first.grid_cells;
        for shard in &shards {
            let mismatch =
                |field: &'static str, expected: &dyn fmt::Display, found: &dyn fmt::Display| {
                    MergeError::SpecMismatch {
                        field,
                        expected: expected.to_string(),
                        found: found.to_string(),
                    }
                };
            if shard.fingerprint != fingerprint {
                return Err(mismatch(
                    "fingerprint",
                    &format!("{fingerprint:016x}"),
                    &format!("{:016x}", shard.fingerprint),
                ));
            }
            if shard.campaign != name {
                return Err(mismatch("campaign", &name, &shard.campaign));
            }
            if shard.shard_count != shard_count {
                return Err(mismatch("shard_count", &shard_count, &shard.shard_count));
            }
            if shard.strategy != strategy {
                return Err(mismatch("strategy", &strategy, &shard.strategy));
            }
            if shard.grid_cells != grid_cells {
                return Err(mismatch("grid_cells", &grid_cells, &shard.grid_cells));
            }
        }

        // Every shard exactly once.
        let mut seen_shards = BTreeSet::new();
        for shard in &shards {
            if shard.shard >= shard_count {
                return Err(MergeError::ShardIndexOutOfRange {
                    shard: shard.shard,
                    shard_count,
                });
            }
            if !seen_shards.insert(shard.shard) {
                return Err(MergeError::DuplicateShard { shard: shard.shard });
            }
        }
        if let Some(missing) = first_gap(seen_shards.iter().copied(), shard_count) {
            return Err(MergeError::MissingShard { shard: missing });
        }

        // Assignments disjointly cover 0..grid_cells.
        let mut owner: BTreeMap<usize, usize> = BTreeMap::new();
        for shard in &shards {
            for index in &shard.assigned {
                if *index >= grid_cells {
                    return Err(MergeError::CellIndexOutOfRange {
                        index: *index,
                        grid_cells,
                    });
                }
                if owner.insert(*index, shard.shard).is_some() {
                    return Err(MergeError::OverlappingCell { index: *index });
                }
            }
        }
        if let Some(uncovered) = first_gap(owner.keys().copied(), grid_cells) {
            return Err(MergeError::UncoveredCell { index: uncovered });
        }

        // Completed cells belong to their shard's assignment, appear at most once
        // (a duplicate would otherwise mask a dropped cell, since only counts are
        // compared below), and every shard completed everything it was assigned.
        // Coverage passed, so `grid_cells` is now bounded by the documents.
        let mut completed_once = vec![false; grid_cells];
        for shard in &shards {
            for cell in &shard.cells {
                if owner.get(&cell.index) != Some(&shard.shard) {
                    return Err(MergeError::ForeignCell {
                        shard: shard.shard,
                        index: cell.index,
                    });
                }
                if completed_once[cell.index] {
                    return Err(MergeError::DuplicateCell {
                        shard: shard.shard,
                        index: cell.index,
                    });
                }
                completed_once[cell.index] = true;
            }
            if shard.cells.len() != shard.assigned.len() {
                return Err(MergeError::IncompleteShard {
                    shard: shard.shard,
                    assigned: shard.assigned.len(),
                    completed: shard.cells.len(),
                });
            }
        }

        let mut cells: Vec<CellResult> = shards
            .into_iter()
            .flat_map(|shard| shard.cells.into_iter())
            .collect();
        cells.sort_by_key(|cell| cell.index);
        Ok(CampaignReport::from_cells(name, grid_cells, cells))
    }
}

/// The smallest index in `0..len` missing from `present`, an ascending run of distinct
/// indices below `len`; `None` when every index is present.
fn first_gap(present: impl Iterator<Item = usize>, len: usize) -> Option<usize> {
    let mut expected = 0;
    for index in present {
        if index != expected {
            return Some(expected);
        }
        expected += 1;
    }
    (expected < len).then_some(expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    fn spec() -> CampaignSpec {
        let mut spec = CampaignSpec::single("shard-unit", "RandomSearch", 5);
        spec.tuners = vec!["RandomSearch".into(), "Exhaustive".into()];
        spec.scale = ExperimentScale::smoke();
        spec
    }

    #[test]
    fn plans_disjointly_cover_the_index_space() {
        let spec = spec();
        for strategy in ShardStrategy::ALL {
            for shards in [1, 2, 3, 7, 15] {
                let plan = ShardPlan::new(&spec, shards, strategy);
                let mut seen = vec![false; plan.grid_cells()];
                for shard in 0..plan.shard_count() {
                    for index in plan.indices(shard) {
                        assert!(!seen[*index], "{strategy}: cell {index} assigned twice");
                        seen[*index] = true;
                    }
                }
                assert!(
                    seen.iter().all(|covered| *covered),
                    "{strategy}/{shards}: some cell is unassigned"
                );
            }
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let spec = spec();
        for strategy in ShardStrategy::ALL {
            assert_eq!(
                ShardPlan::new(&spec, 4, strategy),
                ShardPlan::new(&spec, 4, strategy)
            );
        }
    }

    #[test]
    fn strided_assignment_is_round_robin() {
        let plan = ShardPlan::new(&spec(), 3, ShardStrategy::Strided);
        assert!(plan.indices(0).iter().all(|i| i % 3 == 0));
        assert!(plan.indices(1).iter().all(|i| i % 3 == 1));
        assert!(plan.indices(2).iter().all(|i| i % 3 == 2));
    }

    #[test]
    fn cost_balanced_respects_the_lpt_bound() {
        // Exhaustive's budget dwarfs RandomSearch's, so naive contiguous splitting
        // would be badly unbalanced; LPT must stay within total/K + max_cell.
        let spec = spec();
        let plan = ShardPlan::new(&spec, 3, ShardStrategy::CostBalanced);
        let total: u64 = (0..plan.shard_count())
            .map(|s| plan.estimated_cost(s))
            .sum();
        let max_cell = spec
            .cells()
            .iter()
            .map(|c| spec.budget_for(&c.tuner) as u64)
            .max()
            .unwrap();
        for shard in 0..plan.shard_count() {
            assert!(
                plan.estimated_cost(shard) <= total / 3 + max_cell,
                "shard {shard} exceeds the LPT bound"
            );
        }
    }

    #[test]
    fn more_shards_than_cells_leaves_empty_shards() {
        let mut small = spec();
        small.tuners = vec!["RandomSearch".into()];
        small.seeds = vec![0, 1];
        for strategy in ShardStrategy::ALL {
            let plan = ShardPlan::new(&small, 5, strategy);
            let assigned: usize = (0..5).map(|s| plan.indices(s).len()).sum();
            assert_eq!(assigned, 2);
        }
    }

    #[test]
    fn strategy_names_round_trip() {
        for strategy in ShardStrategy::ALL {
            assert_eq!(ShardStrategy::from_name(strategy.name()), Some(strategy));
        }
        assert_eq!(ShardStrategy::from_name("bogus"), None);
    }

    fn cell(index: usize) -> CellResult {
        CellResult {
            index,
            tuner: "RandomSearch".into(),
            application: "Redis".into(),
            vm: "m5.8xlarge".into(),
            profile: "typical".into(),
            scenario: "steady".into(),
            seed: index as u64,
            chosen: 7,
            mean_time: 100.0 + index as f64,
            cov_percent: 0.5,
            samples: 4,
            core_hours: 1.0,
            wall_clock_seconds: 60.0,
            failure: None,
        }
    }

    fn shard_report(shard: usize, shard_count: usize, assigned: Vec<usize>) -> ShardReport {
        ShardReport {
            campaign: "shard-unit".into(),
            fingerprint: 0xfeed,
            shard,
            shard_count,
            strategy: "contiguous".into(),
            grid_cells: 4,
            cells: assigned.iter().map(|i| cell(*i)).collect(),
            assigned,
        }
    }

    #[test]
    fn merge_reassembles_cells_in_grid_order() {
        let merged = CampaignReport::merge(vec![
            shard_report(1, 2, vec![1, 3]),
            shard_report(0, 2, vec![0, 2]),
        ])
        .expect("valid shards");
        let indices: Vec<usize> = merged.cells.iter().map(|c| c.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        assert_eq!(merged.grid_cells, 4);
    }

    #[test]
    fn merge_rejects_empty_input() {
        assert_eq!(CampaignReport::merge(Vec::new()), Err(MergeError::NoShards));
    }

    #[test]
    fn merge_rejects_overlapping_shards() {
        let result = CampaignReport::merge(vec![
            shard_report(0, 2, vec![0, 1, 2]),
            shard_report(1, 2, vec![2, 3]),
        ]);
        assert_eq!(result, Err(MergeError::OverlappingCell { index: 2 }));
    }

    #[test]
    fn merge_rejects_missing_shards() {
        let result = CampaignReport::merge(vec![shard_report(0, 2, vec![0, 1])]);
        assert_eq!(result, Err(MergeError::MissingShard { shard: 1 }));
    }

    #[test]
    fn merge_rejects_uncovered_cells() {
        let result = CampaignReport::merge(vec![
            shard_report(0, 2, vec![0, 1]),
            shard_report(1, 2, vec![3]),
        ]);
        assert_eq!(result, Err(MergeError::UncoveredCell { index: 2 }));
    }

    #[test]
    fn merge_rejects_mismatched_fingerprints() {
        let mut other = shard_report(1, 2, vec![2, 3]);
        other.fingerprint = 0xdead;
        let result = CampaignReport::merge(vec![shard_report(0, 2, vec![0, 1]), other]);
        assert!(matches!(
            result,
            Err(MergeError::SpecMismatch {
                field: "fingerprint",
                ..
            })
        ));
    }

    #[test]
    fn merge_rejects_duplicate_shards() {
        let result = CampaignReport::merge(vec![
            shard_report(0, 2, vec![0, 1]),
            shard_report(0, 2, vec![2, 3]),
        ]);
        assert_eq!(result, Err(MergeError::DuplicateShard { shard: 0 }));
    }

    #[test]
    fn merge_rejects_foreign_cells() {
        let mut bad = shard_report(1, 2, vec![2, 3]);
        bad.cells.push(cell(0)); // completed a cell assigned to shard 0
        let result = CampaignReport::merge(vec![shard_report(0, 2, vec![0, 1]), bad]);
        assert_eq!(result, Err(MergeError::ForeignCell { shard: 1, index: 0 }));
    }

    #[test]
    fn merge_rejects_duplicated_cells_within_a_shard() {
        // A corrupt shard that lists cell 2 twice and drops cell 3 keeps its cell
        // *count* consistent with its assignment; only per-index tracking catches it.
        let mut corrupt = shard_report(1, 2, vec![2, 3]);
        corrupt.cells = vec![cell(2), cell(2)];
        let result = CampaignReport::merge(vec![shard_report(0, 2, vec![0, 1]), corrupt]);
        assert_eq!(
            result,
            Err(MergeError::DuplicateCell { shard: 1, index: 2 })
        );
    }

    #[test]
    fn merge_rejects_silently_truncated_shards() {
        let mut truncated = shard_report(1, 2, vec![2, 3]);
        truncated.cells.pop();
        let result = CampaignReport::merge(vec![shard_report(0, 2, vec![0, 1]), truncated]);
        assert_eq!(
            result,
            Err(MergeError::IncompleteShard {
                shard: 1,
                assigned: 2,
                completed: 1
            })
        );
    }

    #[test]
    fn merge_rejects_shards_that_cover_less_than_the_grid() {
        // A document whose shards would cover less than its grid does not parse, so
        // it never reaches the merge.
        let partial = shard_report(0, 1, vec![0, 1])
            .to_json()
            .replace("\"scheduled_cells\":4", "\"scheduled_cells\":2");
        let err = ShardReport::from_json(&partial).expect_err("a partial schedule must fail");
        assert_eq!(
            err.to_string(),
            "invalid shard report: field \"scheduled_cells\" is 2, not grid_cells 4"
        );
    }

    #[test]
    fn merge_rejects_oversized_counts_without_allocating_them() {
        // Sizes come from the documents; the merge must answer from what the documents
        // hold, never allocate what they claim. The document is in the older writer's
        // format, with its retired flag, which the parser skips.
        let empty = r#"{"campaign":"x","fingerprint":"0000000000000000","shard":0,"shard_count":1,"strategy":"contiguous","grid_cells":0,"scheduled_cells":0,"assigned":[],"budget_exhausted":false,"cells":[]}"#;
        let huge = usize::MAX.to_string();
        let parse = |text: String| ShardReport::from_json(&text).expect("document parses");
        let many_shards =
            parse(empty.replace("\"shard_count\":1", &format!("\"shard_count\":{huge}")));
        assert_eq!(
            CampaignReport::merge(vec![many_shards]),
            Err(MergeError::MissingShard { shard: 1 })
        );
        let many_cells = parse(
            empty
                .replace("\"grid_cells\":0", &format!("\"grid_cells\":{huge}"))
                .replace(
                    "\"scheduled_cells\":0",
                    &format!("\"scheduled_cells\":{huge}"),
                ),
        );
        assert_eq!(
            CampaignReport::merge(vec![many_cells]),
            Err(MergeError::UncoveredCell { index: 0 })
        );
        // A huge schedule over a small grid is rejected before it reaches the merge.
        let many_scheduled = empty.replace(
            "\"scheduled_cells\":0",
            &format!("\"scheduled_cells\":{huge}"),
        );
        let err = ShardReport::from_json(&many_scheduled).expect_err("must not parse");
        assert!(err.to_string().contains("\"scheduled_cells\""), "{err}");
    }

    #[test]
    fn shard_report_json_round_trips() {
        let mut report = shard_report(1, 3, vec![1, 3]);
        report.fingerprint = u64::MAX;
        report.cells[0].mean_time = 0.1 + 0.2; // a value whose shortest form matters
        report.cells[1].cov_percent = f64::NAN; // serializes to "nan", parses to NaN
        let json = report.to_json();
        let parsed = ShardReport::from_json(&json).expect("own output parses");
        assert_eq!(parsed.campaign, report.campaign);
        assert_eq!(parsed.fingerprint, report.fingerprint);
        assert_eq!(parsed.assigned, report.assigned);
        assert_eq!(
            parsed.cells[0].mean_time.to_bits(),
            report.cells[0].mean_time.to_bits()
        );
        assert!(parsed.cells[1].cov_percent.is_nan());
        // Re-serializing the parsed report reproduces the exact bytes.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn non_finite_shard_floats_round_trip_bit_for_bit() {
        let mut report = shard_report(0, 2, vec![0, 2]);
        report.cells[0].mean_time = f64::INFINITY; // a failed cell's sentinel
        report.cells[0].wall_clock_seconds = f64::NEG_INFINITY;
        report.cells[0].cov_percent = f64::NAN;
        report.cells[0].failure = Some("process exited with status 7".to_string());
        let json = report.to_json();
        assert!(json.contains("\"mean_time\":\"inf\""));
        assert!(json.contains("\"wall_clock_seconds\":\"-inf\""));
        assert!(json.contains("\"cov_percent\":\"nan\""));
        assert!(json.contains("\"failure\":\"process exited with status 7\""));
        let parsed = ShardReport::from_json(&json).expect("own output parses");
        assert_eq!(parsed.cells[0].mean_time.to_bits(), f64::INFINITY.to_bits());
        assert_eq!(
            parsed.cells[0].wall_clock_seconds.to_bits(),
            f64::NEG_INFINITY.to_bits()
        );
        assert!(parsed.cells[0].cov_percent.is_nan());
        assert_eq!(parsed.cells[0].failure, report.cells[0].failure);
        assert_eq!(parsed.to_json(), json);
        // The legacy encoding (a bare `null`) still parses as NaN.
        let legacy = json.replace("\"cov_percent\":\"nan\"", "\"cov_percent\":null");
        let parsed = ShardReport::from_json(&legacy).expect("legacy null parses");
        assert!(parsed.cells[0].cov_percent.is_nan());
    }

    #[test]
    fn shard_report_parse_errors_are_typed() {
        assert!(ShardReport::from_json("not json").is_err());
        assert!(ShardReport::from_json("{}").is_err());
        let mut report = shard_report(0, 1, vec![0, 1, 2, 3]);
        report.strategy = "contiguous".into();
        let broken = report
            .to_json()
            .replace("\"shard\":0", "\"shard\":\"zero\"");
        assert!(ShardReport::from_json(&broken).is_err());
        // A repeated key is an error, not a silent first-one-wins read.
        let doubled = report.to_json().replacen(
            "\"fingerprint\":",
            "\"fingerprint\":\"0\",\"fingerprint\":",
            1,
        );
        let err = ShardReport::from_json(&doubled).expect_err("a repeated key must fail");
        assert!(
            err.to_string().contains("duplicate key \"fingerprint\""),
            "{err}"
        );
    }
}
