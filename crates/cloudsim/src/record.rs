//! A lightweight audit log of committed runs.
//!
//! The log is not needed for the tuning algorithms themselves; it exists so that tests,
//! examples, and the experiment harnesses can introspect *how* a tuner spent its budget
//! (how many games, of what size, at which simulated times).

use crate::time::SimTime;
use crate::vm::VmType;

/// The kind of run that was committed to the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// One configuration running alone on the node.
    Single,
    /// Several configurations co-located in a game.
    Colocated,
}

/// One committed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRecord {
    /// Single or co-located.
    pub kind: RunKind,
    /// Number of co-located players.
    pub players: usize,
    /// VM the run occupied.
    pub vm: VmType,
    /// Simulated time at which the run started.
    pub start: SimTime,
    /// Wall-clock seconds the node was occupied.
    pub elapsed: f64,
}

/// An append-only collection of [`RunRecord`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    records: Vec<RunRecord>,
}

impl RunLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: RunRecord) {
        self.records.push(record);
    }

    /// All records in commit order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Number of committed runs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of player-executions across all runs (a proxy for "samples taken").
    pub fn total_player_executions(&self) -> usize {
        self.records.iter().map(|r| r.players).sum()
    }

    /// Number of runs of the given kind.
    pub fn count_kind(&self, kind: RunKind) -> usize {
        self.records.iter().filter(|r| r.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: RunKind, players: usize) -> RunRecord {
        RunRecord {
            kind,
            players,
            vm: VmType::M5_8xlarge,
            start: SimTime::ZERO,
            elapsed: 10.0,
        }
    }

    #[test]
    fn push_and_count() {
        let mut log = RunLog::new();
        assert!(log.is_empty());
        log.push(record(RunKind::Single, 1));
        log.push(record(RunKind::Colocated, 32));
        log.push(record(RunKind::Colocated, 8));
        assert_eq!(log.len(), 3);
        assert_eq!(log.count_kind(RunKind::Colocated), 2);
        assert_eq!(log.total_player_executions(), 41);
    }

    #[test]
    fn records_preserve_order() {
        let mut log = RunLog::new();
        log.push(record(RunKind::Single, 1));
        log.push(record(RunKind::Colocated, 4));
        assert_eq!(log.records()[0].kind, RunKind::Single);
        assert_eq!(log.records()[1].players, 4);
    }
}
