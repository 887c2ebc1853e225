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
//!   manifest.json          # campaign name, spec fingerprint, grid size
//!   cells/
//!     cell-0.json          # single-cell ShardReport for cell 0
//!     cell-7.json
//!     ...
//! ```
//!
//! The cell files *are* the persistence format — no bespoke encoding. Cell `i` is
//! stored as the shard report `{shard: i, shard_count: grid_cells, strategy: "lab",
//! scheduled_cells: grid_cells, assigned: [i], cells: [<result>]}`, which makes
//! [`CampaignReport::merge`]'s coverage validation the completeness check: the merge
//! succeeds exactly when every cell is on disk, and reassembles the report
//! byte-identically to a single-host run.
//!
//! Writes are atomic (write to `*.tmp`, then rename), and loading discards — rather
//! than trusting — any cell file that is truncated, unparsable, or belongs to a
//! different spec fingerprint; discarded cells are simply re-run and overwritten.
//!
//! # File formats
//!
//! The manifest holds the campaign name, the spec fingerprint as 16 hex digits, and
//! the grid size twice (`grid_cells`, then `scheduled_cells`). A reopened lab checks
//! the name and the fingerprint. A cell file is a [`ShardReport`] in the framing
//! above; files written before the caps were removed also carry
//! `"budget_exhausted":false`, which the reader skips, so older labs resume unchanged.
//!
//! ```
//! use dg_campaign::{CampaignLab, CampaignSpec, CellResult};
//!
//! let dir = std::env::temp_dir().join("dg-lab-format-doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let spec = CampaignSpec::single("lab-doc", "RandomSearch", 2);
//! let lab = CampaignLab::open(&dir, &spec).unwrap();
//! let fingerprint = format!("{:016x}", spec.fingerprint());
//! let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
//! assert_eq!(
//!     manifest,
//!     format!(r#"{{"campaign":"lab-doc","fingerprint":"{fingerprint}","grid_cells":2,"scheduled_cells":2}}"#)
//! );
//!
//! lab.flush_cell(&CellResult {
//!     index: 1, tuner: "RandomSearch".into(), application: "Redis".into(),
//!     vm: "m5.8xlarge".into(), profile: "typical".into(), scenario: "steady".into(),
//!     seed: 1, chosen: 17, mean_time: 250.5, cov_percent: 1.5, samples: 40,
//!     core_hours: 0.75, wall_clock_seconds: 600.0, failure: None,
//! })
//! .unwrap();
//! let cell = std::fs::read_to_string(lab.cell_path(1)).unwrap();
//! assert_eq!(
//!     cell,
//!     format!(concat!(
//!         r#"{{"campaign":"lab-doc","fingerprint":"{}","shard":1,"shard_count":2,"#,
//!         r#""strategy":"lab","grid_cells":2,"scheduled_cells":2,"assigned":[1],"#,
//!         r#""cells":[{{"index":1,"tuner":"RandomSearch","application":"Redis","#,
//!         r#""vm":"m5.8xlarge","profile":"typical","seed":1,"chosen":17,"#,
//!         r#""mean_time":250.5,"cov_percent":1.5,"samples":40,"core_hours":0.75,"#,
//!         r#""wall_clock_seconds":600}}]}}"#,
//!     ), fingerprint)
//! );
//! let _ = std::fs::remove_dir_all(&dir);
//! ```

use crate::report::{CampaignReport, CellResult};
use crate::shard::{HexFingerprint, MergeError, ShardReport};
use crate::spec::CampaignSpec;
use dg_exec::json::{self, FromJson, Node, ReadError};
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
    /// The merged campaign report — `Some` exactly when every cell is on
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
}

impl CampaignLab {
    /// Opens (creating if necessary) the lab at `dir` for `spec`.
    ///
    /// A fresh directory gets a `manifest.json` recording the campaign name, the
    /// [`CampaignSpec::fingerprint`], and the grid size. An existing
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

    /// Number of cells in the campaign grid (the lab is complete when this many cell
    /// files are on disk).
    pub fn grid_cells(&self) -> usize {
        self.grid_cells
    }

    /// The fingerprint of the spec this lab was opened for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn manifest_json(&self) -> String {
        json::object(|o| {
            o.field("campaign", &self.campaign)
                .field("fingerprint", &HexFingerprint(self.fingerprint))
                // `scheduled_cells` repeats the grid size, so manifests keep their bytes.
                .field("grid_cells", &self.grid_cells)
                .field("scheduled_cells", &self.grid_cells);
        })
    }

    fn check_manifest(&self, text: &str) -> Result<(), LabError> {
        let Manifest {
            campaign,
            fingerprint: HexFingerprint(fingerprint),
        } = json::decode(text).map_err(LabError::Manifest)?;
        if campaign != self.campaign {
            return Err(LabError::CampaignMismatch {
                expected: self.campaign.clone(),
                found: campaign,
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

    /// Path of the cell file for cell `index`.
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
            shard_count: self.grid_cells,
            strategy: LAB_STRATEGY.to_string(),
            grid_cells: self.grid_cells,
            assigned: vec![result.index],
            cells: vec![result],
        }
    }

    /// Loads every valid completed cell from disk, keyed by grid index, plus the
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
            && report.shard_count == self.grid_cells
            && report.shard < self.grid_cells
            && report.assigned == [report.shard]
            && report.cells.len() == 1
            && report.cells[0].index == report.shard
    }

    /// Merges the on-disk cells into a [`CampaignReport`] if — and only if — every
    /// cell is present. Returns `Ok(None)` for an incomplete lab.
    pub fn merge_if_complete(&self) -> Result<Option<CampaignReport>, LabError> {
        let (cells, _discarded) = self.load_cells()?;
        if cells.len() < self.grid_cells {
            return Ok(None);
        }
        let shards: Vec<ShardReport> = cells.into_values().collect();
        CampaignReport::merge(shards)
            .map(Some)
            .map_err(LabError::Merge)
    }
}

/// The manifest keys a reopened lab is checked against; `grid_cells` and
/// `scheduled_cells` follow from the spec's fingerprint.
struct Manifest {
    campaign: String,
    fingerprint: HexFingerprint,
}

impl FromJson for Manifest {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        Ok(Manifest {
            campaign: node.read("campaign")?,
            fingerprint: node.read("fingerprint")?,
        })
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
            failure: None,
        }
    }

    #[test]
    fn open_writes_manifest_and_reopen_validates_it() {
        let dir = std::env::temp_dir().join("dg-lab-unit-manifest");
        let _ = fs::remove_dir_all(&dir);
        let spec = lab_spec();
        let lab = CampaignLab::open(&dir, &spec).expect("fresh lab opens");
        assert_eq!(lab.grid_cells(), 2);
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
