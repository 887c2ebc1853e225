//! Incremental, resumable campaign labs: a persistent on-disk home for a campaign.
//!
//! A **lab** is a directory that accumulates a campaign's results one cell at a time.
//! Each completed cell is flushed immediately — before the run finishes — as a
//! *single-cell [`ShardReport`]* in canonical JSON, so killing the process at any
//! point loses at most the cells still in flight. Reopening the lab and running again
//! skips every completed cell (real-process backends launch **zero** processes for
//! them) and the final merged [`CampaignReport`] is byte-identical to one produced by
//! an uninterrupted run.
//!
//! # Layout
//!
//! ```text
//! lab/
//!   manifest.json          # campaign name, spec fingerprint, grid/scheduled sizes
//!   cells/
//!     cell-0.json          # single-cell ShardReport for scheduled cell 0
//!     cell-7.json
//!     ...
//! ```
//!
//! The cell files *are* the persistence format — no bespoke encoding. Cell `i` is
//! stored as the shard report `{shard: i, shard_count: scheduled_cells, strategy:
//! "lab", assigned: [i], budget_exhausted: false, cells: [<result>]}`, which makes
//! [`CampaignReport::merge`]'s coverage validation the completeness check: the merge
//! succeeds exactly when every scheduled cell is on disk, and reassembles the report
//! byte-identically to a single-host run.
//!
//! Writes are atomic (write to `*.tmp`, then rename), and loading discards — rather
//! than trusting — any cell file that is truncated, unparsable, or belongs to a
//! different spec fingerprint; discarded cells are simply re-run and overwritten.

use crate::report::{CampaignReport, CellResult};
use crate::shard::{MergeError, ShardReport};
use crate::spec::CampaignSpec;
use dg_exec::json::{self, push_key, push_str_literal, JsonValue};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The strategy name recorded in lab cell files (one shard per cell).
const LAB_STRATEGY: &str = "lab";

/// Why a lab could not be opened, written, or merged.
#[derive(Debug)]
pub enum LabError {
    /// A filesystem operation failed.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying error, rendered.
        message: String,
    },
    /// The lab's `manifest.json` exists but cannot be parsed.
    Manifest(String),
    /// The lab belongs to a campaign with a different name.
    CampaignMismatch {
        /// The name the caller's spec declares.
        expected: String,
        /// The name recorded in the lab manifest.
        found: String,
    },
    /// The lab was created from a spec with a different fingerprint — its cells would
    /// silently poison the merged report, so resuming is refused.
    FingerprintMismatch {
        /// The caller's [`CampaignSpec::fingerprint`].
        expected: u64,
        /// The fingerprint recorded in the lab manifest.
        found: u64,
    },
    /// The completed cell files cannot be merged (should be unreachable for a lab
    /// whose files all validated; kept typed rather than panicking).
    Merge(MergeError),
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabError::Io { path, message } => {
                write!(f, "lab I/O error at {}: {message}", path.display())
            }
            LabError::Manifest(detail) => write!(f, "invalid lab manifest: {detail}"),
            LabError::CampaignMismatch { expected, found } => {
                write!(f, "lab belongs to campaign {found:?}, not {expected:?}")
            }
            LabError::FingerprintMismatch { expected, found } => write!(
                f,
                "lab fingerprint {found:016x} does not match the spec's {expected:016x}"
            ),
            LabError::Merge(error) => write!(f, "lab cells failed to merge: {error}"),
        }
    }
}

impl std::error::Error for LabError {}

impl LabError {
    fn io(path: &Path, error: impl fmt::Display) -> Self {
        LabError::Io {
            path: path.to_path_buf(),
            message: error.to_string(),
        }
    }
}

/// What a lab session accomplished.
#[derive(Debug)]
pub struct LabOutcome {
    /// The merged campaign report — `Some` exactly when every scheduled cell is on
    /// disk (byte-identical to an uninterrupted run), `None` when the session was
    /// capped before completing the grid.
    pub report: Option<CampaignReport>,
    /// Completed cells loaded from disk at the start of the session (skipped, not
    /// re-run).
    pub loaded_cells: usize,
    /// Cells actually executed (and flushed) by this session.
    pub fresh_cells: usize,
    /// Cell files found on disk but discarded as corrupt, truncated, or belonging to
    /// a different spec; their cells were re-run.
    pub discarded_cells: usize,
}

/// A persistent campaign lab directory: a `manifest.json` and one single-cell
/// [`ShardReport`] per completed cell under `cells/`. Reopening a lab skips its
/// completed cells and re-runs any cell whose file is corrupt or belongs to another
/// spec.
#[derive(Debug)]
pub struct CampaignLab {
    dir: PathBuf,
    campaign: String,
    fingerprint: u64,
    grid_cells: usize,
    scheduled_cells: usize,
}

impl CampaignLab {
    /// Opens (creating if necessary) the lab at `dir` for `spec`.
    ///
    /// A fresh directory gets a `manifest.json` recording the campaign name, the
    /// [`CampaignSpec::fingerprint`], and the grid/scheduled cell counts. An existing
    /// manifest is validated against `spec`: a name or fingerprint mismatch is a typed
    /// error, never a silent mixing of two campaigns' cells.
    pub fn open(dir: impl Into<PathBuf>, spec: &CampaignSpec) -> Result<Self, LabError> {
        spec.validate();
        let dir = dir.into();
        let cells_dir = dir.join("cells");
        fs::create_dir_all(&cells_dir).map_err(|e| LabError::io(&cells_dir, e))?;
        let lab = Self {
            dir,
            campaign: spec.name.clone(),
            fingerprint: spec.fingerprint(),
            grid_cells: spec.grid_size(),
            scheduled_cells: spec.cells().len(),
        };
        let manifest = lab.dir.join("manifest.json");
        match fs::read_to_string(&manifest) {
            Ok(text) => lab.check_manifest(&text)?,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                write_atomic(&manifest, &lab.manifest_json())?;
            }
            Err(error) => return Err(LabError::io(&manifest, error)),
        }
        Ok(lab)
    }

    /// The lab's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of cells the campaign schedules (the lab is complete when this many
    /// cell files are on disk).
    pub fn scheduled_cells(&self) -> usize {
        self.scheduled_cells
    }

    /// The fingerprint of the spec this lab was opened for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn manifest_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push('{');
        let mut first = true;
        push_key(&mut out, &mut first, "campaign");
        push_str_literal(&mut out, &self.campaign);
        push_key(&mut out, &mut first, "fingerprint");
        push_str_literal(&mut out, &format!("{:016x}", self.fingerprint));
        push_key(&mut out, &mut first, "grid_cells");
        out.push_str(&self.grid_cells.to_string());
        push_key(&mut out, &mut first, "scheduled_cells");
        out.push_str(&self.scheduled_cells.to_string());
        out.push('}');
        out
    }

    fn check_manifest(&self, text: &str) -> Result<(), LabError> {
        let root = json::parse(text).map_err(LabError::Manifest)?;
        let campaign = root
            .get("campaign")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| LabError::Manifest("missing field \"campaign\"".into()))?;
        let fingerprint_hex = root
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| LabError::Manifest("missing field \"fingerprint\"".into()))?;
        let fingerprint = u64::from_str_radix(fingerprint_hex, 16)
            .map_err(|_| LabError::Manifest(format!("invalid fingerprint {fingerprint_hex:?}")))?;
        if campaign != self.campaign {
            return Err(LabError::CampaignMismatch {
                expected: self.campaign.clone(),
                found: campaign.to_string(),
            });
        }
        if fingerprint != self.fingerprint {
            return Err(LabError::FingerprintMismatch {
                expected: self.fingerprint,
                found: fingerprint,
            });
        }
        Ok(())
    }

    /// Path of the cell file for scheduled cell `index`.
    pub fn cell_path(&self, index: usize) -> PathBuf {
        self.dir.join("cells").join(format!("cell-{index}.json"))
    }

    /// Flushes one completed cell to disk as a single-cell [`ShardReport`], atomically
    /// (write `*.tmp`, rename). Called from worker threads as cells finish.
    pub fn flush_cell(&self, result: &CellResult) -> Result<(), LabError> {
        let report = self.cell_shard(result.clone());
        write_atomic(&self.cell_path(result.index), &report.to_json())
    }

    /// Wraps one cell result in the lab's single-cell shard framing.
    fn cell_shard(&self, result: CellResult) -> ShardReport {
        ShardReport {
            campaign: self.campaign.clone(),
            fingerprint: self.fingerprint,
            shard: result.index,
            shard_count: self.scheduled_cells,
            strategy: LAB_STRATEGY.to_string(),
            grid_cells: self.grid_cells,
            scheduled_cells: self.scheduled_cells,
            assigned: vec![result.index],
            budget_exhausted: false,
            cells: vec![result],
        }
    }

    /// Loads every valid completed cell from disk, keyed by scheduled index, plus the
    /// number of files discarded as corrupt or foreign.
    ///
    /// A file is accepted only when it parses as a [`ShardReport`] whose framing
    /// matches this lab exactly (fingerprint, campaign, sizes, the single-cell shape).
    /// Anything else — a truncated write that lost the rename race, a file from an
    /// older spec revision, a hand-edited report — is counted and ignored; its cell
    /// simply re-runs and overwrites the file.
    pub fn load_cells(&self) -> Result<(BTreeMap<usize, ShardReport>, usize), LabError> {
        let cells_dir = self.dir.join("cells");
        let mut cells = BTreeMap::new();
        let mut discarded = 0usize;
        let entries = fs::read_dir(&cells_dir).map_err(|e| LabError::io(&cells_dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| LabError::io(&cells_dir, e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("cell-") || !name.ends_with(".json") {
                continue; // `.tmp` leftovers from a killed writer, editor droppings
            }
            let Ok(text) = fs::read_to_string(&path) else {
                discarded += 1;
                continue;
            };
            let Ok(report) = ShardReport::from_json(&text) else {
                discarded += 1;
                continue;
            };
            if self.validate_cell_shard(&report) {
                cells.insert(report.shard, report);
            } else {
                discarded += 1;
            }
        }
        Ok((cells, discarded))
    }

    /// True when `report` is a well-formed single-cell shard of *this* lab.
    fn validate_cell_shard(&self, report: &ShardReport) -> bool {
        report.fingerprint == self.fingerprint
            && report.campaign == self.campaign
            && report.strategy == LAB_STRATEGY
            && report.grid_cells == self.grid_cells
            && report.scheduled_cells == self.scheduled_cells
            && report.shard_count == self.scheduled_cells
            && report.shard < self.scheduled_cells
            && report.assigned == [report.shard]
            && !report.budget_exhausted
            && report.cells.len() == 1
            && report.cells[0].index == report.shard
    }

    /// Merges the on-disk cells into a [`CampaignReport`] if — and only if — every
    /// scheduled cell is present. Returns `Ok(None)` for an incomplete lab.
    pub fn merge_if_complete(&self) -> Result<Option<CampaignReport>, LabError> {
        let (cells, _discarded) = self.load_cells()?;
        if cells.len() < self.scheduled_cells {
            return Ok(None);
        }
        let shards: Vec<ShardReport> = cells.into_values().collect();
        CampaignReport::merge(shards)
            .map(Some)
            .map_err(LabError::Merge)
    }
}

/// Writes `text` to `path` atomically: the bytes land in `path.tmp` first and are
/// renamed into place, so readers (and resumed sessions) never observe a torn file.
fn write_atomic(path: &Path, text: &str) -> Result<(), LabError> {
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, text).map_err(|e| LabError::io(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| LabError::io(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    fn lab_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::single("lab-unit", "RandomSearch", 2);
        spec.scale = ExperimentScale::smoke();
        spec.base_seed = 5;
        spec
    }

    fn sample_cell(index: usize) -> CellResult {
        CellResult {
            index,
            tuner: "RandomSearch".into(),
            application: "wordcount".into(),
            vm: "m5.8xlarge".into(),
            profile: "typical".into(),
            scenario: "steady".into(),
            seed: 0,
            chosen: 3,
            mean_time: 100.0 + index as f64,
            cov_percent: 4.5,
            samples: 40,
            core_hours: 1.25,
            wall_clock_seconds: 300.0,
            model_evals: 0,
            failure: None,
        }
    }

    #[test]
    fn open_writes_manifest_and_reopen_validates_it() {
        let dir = std::env::temp_dir().join("dg-lab-unit-manifest");
        let _ = fs::remove_dir_all(&dir);
        let spec = lab_spec();
        let lab = CampaignLab::open(&dir, &spec).expect("fresh lab opens");
        assert_eq!(lab.scheduled_cells(), 2);
        // Reopening with the same spec succeeds; a different spec is refused.
        CampaignLab::open(&dir, &spec).expect("reopen with same spec");
        let mut other = lab_spec();
        other.base_seed = 99;
        match CampaignLab::open(&dir, &other) {
            Err(LabError::FingerprintMismatch { .. }) => {}
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_load_and_merge_round_trip() {
        let dir = std::env::temp_dir().join("dg-lab-unit-flush");
        let _ = fs::remove_dir_all(&dir);
        let spec = lab_spec();
        let lab = CampaignLab::open(&dir, &spec).expect("lab opens");
        lab.flush_cell(&sample_cell(0)).expect("cell 0 flushes");
        let (cells, discarded) = lab.load_cells().expect("load succeeds");
        assert_eq!(cells.len(), 1);
        assert_eq!(discarded, 0);
        assert!(lab.merge_if_complete().expect("merge runs").is_none());
        lab.flush_cell(&sample_cell(1)).expect("cell 1 flushes");
        let report = lab
            .merge_if_complete()
            .expect("merge runs")
            .expect("lab complete");
        assert_eq!(report.completed_cells(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_foreign_cell_files_are_discarded() {
        let dir = std::env::temp_dir().join("dg-lab-unit-corrupt");
        let _ = fs::remove_dir_all(&dir);
        let spec = lab_spec();
        let lab = CampaignLab::open(&dir, &spec).expect("lab opens");
        lab.flush_cell(&sample_cell(0)).expect("cell 0 flushes");
        // Truncate cell 0 mid-token and drop a foreign-fingerprint report at cell 1.
        let good = fs::read_to_string(lab.cell_path(0)).expect("cell file readable");
        fs::write(lab.cell_path(0), &good[..good.len() / 2]).expect("truncate");
        let mut foreign = lab.cell_shard(sample_cell(1));
        foreign.fingerprint ^= 1;
        fs::write(lab.cell_path(1), foreign.to_json()).expect("write foreign");
        let (cells, discarded) = lab.load_cells().expect("load succeeds");
        assert!(cells.is_empty());
        assert_eq!(discarded, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
