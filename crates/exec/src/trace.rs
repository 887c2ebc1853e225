//! Record/replay execution backends and the canonical execution-trace format.
//!
//! Recording wraps any [`BackendProvider`] and writes every non-deterministic outcome
//! the inner backends produce — games, solo evaluations, observations, forks — into an
//! [`ExecutionTrace`], keyed by execution stream. Replaying turns the trace back into
//! backends that answer every request from the recorded events, with **zero**
//! resimulation: a recorded campaign replays byte-identical to the live run (the cost
//! arithmetic is re-applied to the recorded elapsed times through the exact code path
//! the simulator uses), at a tiny fraction of the cost.
//!
//! Traces serialize to canonical JSON through [`crate::json`] (fixed key order, no
//! whitespace, shortest round-trip floats, non-finite floats as `"inf"`, `"-inf"` and
//! `"nan"`), so a trace file is a stable, diffable artifact. [`ExecutionTrace`]
//! documents the format.
//!
//! Replay is strict: each stream's events must be consumed in order by the same
//! operations with the same arguments, and the trace's spec fingerprint must match the
//! campaign it is replayed against (typed [`TraceError`]s for the campaign-level
//! checks, descriptive panics for mid-stream divergence, which can only be reached by
//! driving a backend differently than it was recorded).

use crate::backend::{forward_to_inner, BackendProvider, ExecutionBackend};
use crate::json::{self, FromJson, Node, Object, ReadError, ToJson};
use dg_cloudsim::{
    CostTracker, ExecutionSpec, GamePlay, GameRules, InterferenceProfile, ObservedRun, SimTime,
    VmType,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A short, human-readable label for an interference profile, used in trace stream
/// headers, campaign cell results, group keys, and JSON output.
///
/// The label is injective over the profile's parameters (distinct `Constant`/`Custom`
/// profiles get distinct labels), because it doubles as part of report group keys and
/// trace-header validation.
pub fn profile_label(profile: &InterferenceProfile) -> String {
    match profile {
        InterferenceProfile::Dedicated => "dedicated".to_string(),
        InterferenceProfile::Constant(level) => format!("constant({level})"),
        InterferenceProfile::Typical => "typical".to_string(),
        InterferenceProfile::Heavy => "heavy".to_string(),
        InterferenceProfile::Custom {
            base,
            value_amplitude,
            regime_scale,
            burst_magnitude,
        } => format!("custom({base},{value_amplitude},{regime_scale},{burst_magnitude})"),
    }
}

/// One recorded backend operation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A co-located game ([`ExecutionBackend::play_game`]).
    Game {
        /// The specs that played, in player order.
        specs: Vec<ExecutionSpec>,
        /// The rules the game was driven under.
        rules: GameRules,
        /// The recorded result.
        play: GamePlay,
    },
    /// A committed solo evaluation ([`ExecutionBackend::run_single`]).
    Single {
        /// The evaluated spec.
        spec: ExecutionSpec,
        /// The recorded observation (including the charged `elapsed`).
        run: ObservedRun,
    },
    /// A cost-free observation ([`ExecutionBackend::observe_single_at`]).
    Observe {
        /// The observed spec.
        spec: ExecutionSpec,
        /// The requested start time.
        start: SimTime,
        /// The requested decorrelation salt.
        salt: u64,
        /// The recorded observation.
        time: f64,
    },
    /// A sub-environment fork ([`ExecutionBackend::fork`]); the child's events live in
    /// their own stream keyed `<parent>/<ordinal>`.
    Fork {
        /// The seed the child was forked with.
        seed: u64,
    },
}

impl TraceEvent {
    fn op(&self) -> &'static str {
        match self {
            TraceEvent::Game { .. } => "game",
            TraceEvent::Single { .. } => "single",
            TraceEvent::Observe { .. } => "observe",
            TraceEvent::Fork { .. } => "fork",
        }
    }
}

/// The recorded event sequence of one execution stream (a campaign cell, a standalone
/// backend, or a forked sub-environment).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStream {
    /// Stream key: the provider-supplied label for root streams, `<parent>/<ordinal>`
    /// for forked sub-environments.
    pub key: String,
    /// Name of the VM type the stream executed on (header validation at replay).
    pub vm: String,
    /// Label of the interference profile (header validation at replay).
    pub profile: String,
    /// Root seed of the stream's backend.
    pub seed: u64,
    /// The permanent failure the stream's backend reported at the end of recording
    /// ([`ExecutionBackend::failure`]), if any. Replayed backends report it back, so
    /// failed real-process cells replay exactly as they ran.
    pub failure: Option<String>,
    /// The recorded operations, in execution order.
    pub events: Vec<TraceEvent>,
}

/// A full recorded execution: every stream of one campaign (or standalone run),
/// plus the identity of the spec it was recorded from.
///
/// # JSON format
///
/// One object: `campaign` (string), `fingerprint` (the recorded spec's
/// `CampaignSpec::fingerprint`, an exact `u64`) and `streams`, sorted by key. A stream
/// carries its header — `key` (`cell-<index>` for a campaign cell,
/// `<parent>/<ordinal>` for a forked sub-environment), `vm`, `profile` (a
/// [`profile_label`]), `seed`, and `failure` only when its backend latched one — and
/// its `events` in execution order, each an object whose `op` is one of:
///
/// - `game`: `specs` (`[base_time, sensitivity]` per player), `rules`
///   (`[early_termination, work_done_deviation, min_leader_progress]`), `start`,
///   `elapsed`, `times` and `scores` per player, and `early`;
/// - `single`: `spec`, `time` (the observation), `start` and `elapsed`;
/// - `observe`: `spec`, `at`, `salt` and `time`;
/// - `fork`: the child's `seed`; its events live in the stream `<parent>/<ordinal>`.
///
/// Instants and elapsed times must be finite and non-negative, the rules' numbers
/// too, and every fork needs its child stream with the parent's VM and profile and
/// the fork's seed: a replay could not use anything else. This document round-trips
/// byte for byte:
///
/// ```
/// use dg_exec::ExecutionTrace;
///
/// let text = concat!(
///     r#"{"campaign":"fig15-vm-sweep","fingerprint":11730536390177712370,"streams":["#,
///     r#"{"key":"cell-0","vm":"m5.8xlarge","profile":"typical","seed":42,"events":["#,
///     r#"{"op":"game","specs":[[230.5,0.8],[400,0.2]],"rules":[true,0.1,0.25],"#,
///     r#""start":0,"elapsed":410.9,"times":[244.1,410.9],"scores":[1,0.59],"early":false},"#,
///     r#"{"op":"single","spec":[230.5,0.8],"time":244.1,"start":410.9,"elapsed":244.1},"#,
///     r#"{"op":"observe","spec":[230.5,0.8],"at":1800,"salt":3,"time":"inf"},"#,
///     r#"{"op":"fork","seed":777}]},"#,
///     r#"{"key":"cell-0/0","vm":"m5.8xlarge","profile":"typical","seed":777,"#,
///     r#""failure":"process exited with status 7","events":[]}]}"#,
/// );
/// let trace = ExecutionTrace::from_json(text).unwrap();
/// assert_eq!(trace.events_total(), 4);
/// assert_eq!(trace.to_json(), text);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    /// Name of the campaign (or driver) the trace was recorded from.
    pub campaign: String,
    /// Fingerprint of the campaign spec (see `CampaignSpec::fingerprint`); replay
    /// refuses traces whose fingerprint disagrees with the target spec.
    pub fingerprint: u64,
    streams: Vec<TraceStream>,
}

impl ExecutionTrace {
    /// The recorded streams, always sorted by key (replay relies on the order for
    /// binary-search lookups).
    pub fn streams(&self) -> &[TraceStream] {
        &self.streams
    }

    /// Looks up a stream by key.
    pub fn stream(&self, key: &str) -> Option<&TraceStream> {
        self.stream_index(key).map(|i| &self.streams[i])
    }

    fn stream_index(&self, key: &str) -> Option<usize> {
        self.streams
            .binary_search_by(|s| s.key.as_str().cmp(key))
            .ok()
    }

    /// Checks that the trace was recorded from the spec a replay is about to run: the
    /// spec's `fingerprint` first, then its `campaign` name.
    ///
    /// # Errors
    ///
    /// [`TraceError::FingerprintMismatch`] or [`TraceError::CampaignMismatch`].
    pub fn check_origin(&self, campaign: &str, fingerprint: u64) -> Result<(), TraceError> {
        if self.fingerprint != fingerprint {
            return Err(TraceError::FingerprintMismatch {
                expected: fingerprint,
                found: self.fingerprint,
            });
        }
        if self.campaign != campaign {
            return Err(TraceError::CampaignMismatch {
                expected: campaign.to_string(),
                found: self.campaign.clone(),
            });
        }
        Ok(())
    }

    /// Checks that stream `key` can replay a backend opened on `vm` under `profile`
    /// with `seed`: the stream exists, and its header records that VM, that profile's
    /// [`profile_label`] and that seed. Returns the stream's position in
    /// [`streams`](Self::streams). Replay drivers run it for every root stream before
    /// any backend opens; [`TraceReplayer`] runs it again as each backend, forks
    /// included, opens.
    ///
    /// # Errors
    ///
    /// [`TraceError::MissingStream`] or [`TraceError::StreamMismatch`].
    pub fn check_stream(
        &self,
        key: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Result<usize, TraceError> {
        let index = self
            .stream_index(key)
            .ok_or_else(|| TraceError::MissingStream {
                stream: key.to_string(),
            })?;
        let header = &self.streams[index];
        let mismatch = |field, recorded: String, requested: String| {
            Err(TraceError::StreamMismatch {
                stream: key.to_string(),
                field,
                recorded,
                requested,
            })
        };
        if header.vm != vm.name() {
            return mismatch("vm", header.vm.clone(), vm.name().to_string());
        }
        let label = profile_label(profile);
        if header.profile != label {
            return mismatch("profile", header.profile.clone(), label);
        }
        if header.seed != seed {
            return mismatch("seed", header.seed.to_string(), seed.to_string());
        }
        Ok(index)
    }

    /// Total number of recorded events across all streams.
    pub fn events_total(&self) -> usize {
        self.streams.iter().map(|s| s.events.len()).sum()
    }

    /// Canonical JSON serialization: fixed key order, no whitespace, shortest
    /// round-trip float rendering. Byte-identical for identical traces.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("campaign", &self.campaign)
                .field("fingerprint", &self.fingerprint)
                .field("streams", &self.streams);
        })
    }

    /// Parses a trace from its canonical JSON form.
    pub fn from_json(text: &str) -> Result<Self, TraceError> {
        json::decode(text).map_err(TraceError::Parse)
    }
}

impl FromJson for ExecutionTrace {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        let mut streams: Vec<TraceStream> = node.read("streams")?;
        // Canonicalize: streams are key-sorted (the writer always emits them sorted;
        // sorting here keeps hand-edited documents working and lookups O(log n)).
        streams.sort_by(|a, b| a.key.cmp(&b.key));
        if let Some(pair) = streams.windows(2).find(|w| w[0].key == w[1].key) {
            let message = format!("duplicate stream key {:?}", pair[0].key);
            return Err(node.get("streams")?.error(message));
        }
        // Replay opens the stream `<parent>/<ordinal>` of each fork with the parent's
        // VM and profile and the fork's seed.
        for parent in &streams {
            let forks = parent.events.iter().filter_map(|event| match event {
                TraceEvent::Fork { seed } => Some(*seed),
                _ => None,
            });
            for (ordinal, seed) in forks.enumerate() {
                let key = format!("{}/{ordinal}", parent.key);
                let child = streams
                    .binary_search_by(|s| s.key.as_str().cmp(&key))
                    .map(|i| &streams[i]);
                if !child.is_ok_and(|c| {
                    (&c.vm, &c.profile, c.seed) == (&parent.vm, &parent.profile, seed)
                }) {
                    return Err(node.get("streams")?.error(format_args!(
                        "no stream {key:?} on {:?} under {:?} with seed {seed} for a fork of {:?}",
                        parent.vm, parent.profile, parent.key
                    )));
                }
            }
        }
        Ok(Self {
            campaign: node.read("campaign")?,
            fingerprint: node.read("fingerprint")?,
            streams,
        })
    }
}

impl ToJson for TraceStream {
    fn write_json(&self, out: &mut String) {
        Object::write(out, |o| {
            o.field("key", &self.key)
                .field("vm", &self.vm)
                .field("profile", &self.profile)
                .field("seed", &self.seed);
            if let Some(failure) = &self.failure {
                o.field("failure", failure);
            }
            o.field("events", &self.events);
        });
    }
}

impl FromJson for TraceStream {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        let events: Vec<TraceEvent> = node.read("events")?;
        // A replay adds every charged duration to its clock, which must stay finite.
        let charged: f64 = events
            .iter()
            .map(|event| match event {
                TraceEvent::Game { play, .. } => play.elapsed,
                TraceEvent::Single { run, .. } => run.elapsed,
                _ => 0.0,
            })
            .sum();
        if !charged.is_finite() {
            return Err(node
                .get("events")?
                .error("the elapsed times overflow the clock"));
        }
        Ok(Self {
            key: node.read("key")?,
            vm: node.read("vm")?,
            profile: node.read("profile")?,
            seed: node.read("seed")?,
            failure: node.read_opt("failure")?,
            events,
        })
    }
}

impl ToJson for TraceEvent {
    fn write_json(&self, out: &mut String) {
        Object::write(out, |o| {
            o.field("op", self.op());
            match self {
                TraceEvent::Game { specs, rules, play } => o
                    .field("specs", specs)
                    .array("rules", |a| {
                        a.push(&rules.early_termination)
                            .push(&rules.work_done_deviation)
                            .push(&rules.min_leader_progress);
                    })
                    .field("start", &play.start)
                    .field("elapsed", &play.elapsed)
                    .field("times", &play.observed_times)
                    .field("scores", &play.execution_scores)
                    .field("early", &play.early_terminated),
                TraceEvent::Single { spec, run } => o
                    .field("spec", spec)
                    .field("time", &run.observed_time)
                    .field("start", &run.started_at)
                    .field("elapsed", &run.elapsed),
                TraceEvent::Observe {
                    spec,
                    start,
                    salt,
                    time,
                } => o
                    .field("spec", spec)
                    .field("at", start)
                    .field("salt", salt)
                    .field("time", time),
                TraceEvent::Fork { seed } => o.field("seed", seed),
            };
        });
    }
}

impl FromJson for TraceEvent {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        let op = node.get("op")?;
        match op.str()? {
            "game" => {
                let specs: Vec<ExecutionSpec> = node.read("specs")?;
                let rules = node.get("rules")?;
                let [early_termination, work_done_deviation, min_leader_progress] = rules
                    .elements("[early_termination, work_done_deviation, min_leader_progress]")?;
                let rules = GameRules {
                    early_termination: bool::from_node(early_termination)?,
                    work_done_deviation: work_done_deviation.non_negative()?,
                    min_leader_progress: min_leader_progress.non_negative()?,
                };
                let play = GamePlay {
                    start: node.read("start")?,
                    elapsed: node.get("elapsed")?.non_negative()?,
                    observed_times: node.read("times")?,
                    execution_scores: node.read("scores")?,
                    early_terminated: node.read("early")?,
                };
                if play.observed_times.len() != specs.len()
                    || play.execution_scores.len() != specs.len()
                {
                    return Err(node.error("game player counts are inconsistent"));
                }
                Ok(TraceEvent::Game { specs, rules, play })
            }
            "single" => Ok(TraceEvent::Single {
                spec: node.read("spec")?,
                run: ObservedRun {
                    observed_time: node.read("time")?,
                    started_at: node.read("start")?,
                    elapsed: node.get("elapsed")?.non_negative()?,
                },
            }),
            "observe" => Ok(TraceEvent::Observe {
                spec: node.read("spec")?,
                start: node.read("at")?,
                salt: node.read("salt")?,
                time: node.read("time")?,
            }),
            "fork" => Ok(TraceEvent::Fork {
                seed: node.read("seed")?,
            }),
            other => Err(op.error(format_args!("unknown trace op {other:?}"))),
        }
    }
}

/// Errors surfaced when parsing a trace or preparing a replay.
///
/// Mid-stream divergence (driving a replayed backend with different operations than
/// were recorded) panics with a descriptive message instead, because it indicates a
/// logic error rather than bad input.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The trace document is not valid canonical trace JSON.
    Parse(String),
    /// The trace was recorded from a spec with a different fingerprint than the one it
    /// is being replayed against.
    FingerprintMismatch {
        /// Fingerprint of the spec the replay was requested for.
        expected: u64,
        /// Fingerprint carried by the trace.
        found: u64,
    },
    /// The trace was recorded from a campaign with a different name.
    CampaignMismatch {
        /// Name of the campaign the replay was requested for.
        expected: String,
        /// Name carried by the trace.
        found: String,
    },
    /// The trace has no stream for an execution the replay needs.
    MissingStream {
        /// Key of the missing stream.
        stream: String,
    },
    /// A stream's header disagrees with the backend the replay needs from it.
    StreamMismatch {
        /// Key of the stream.
        stream: String,
        /// The disagreeing header field: `vm`, `profile` or `seed`.
        field: &'static str,
        /// The value the trace recorded.
        recorded: String,
        /// The value the replay requested.
        requested: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse(detail) => write!(f, "trace parse error: {detail}"),
            TraceError::FingerprintMismatch { expected, found } => write!(
                f,
                "trace fingerprint {found:#018x} does not match the target spec's \
                 {expected:#018x}; the trace was recorded from a different campaign spec"
            ),
            TraceError::CampaignMismatch { expected, found } => write!(
                f,
                "trace was recorded from campaign {found:?}, not {expected:?}"
            ),
            TraceError::MissingStream { stream } => {
                write!(f, "trace has no stream {stream:?}")
            }
            TraceError::StreamMismatch {
                stream,
                field,
                recorded,
                requested,
            } => write!(
                f,
                "stream {stream:?} was recorded with {field} {recorded}, replay requested \
                 {requested}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

// ---------- recording ----------

type TraceSink = Arc<Mutex<BTreeMap<String, TraceStream>>>;

/// A [`BackendProvider`] that records everything the backends of an inner provider
/// produce into an [`ExecutionTrace`].
///
/// Each stream records into its own event list, so recording is deterministic even when
/// streams execute on concurrent worker threads; serialization orders streams by key.
pub struct TraceRecorder {
    inner: Box<dyn BackendProvider>,
    campaign: String,
    fingerprint: u64,
    sink: TraceSink,
}

impl TraceRecorder {
    /// Records the backends of `inner`, stamping the trace with the recorded campaign's
    /// name and spec fingerprint.
    pub fn new(
        inner: Box<dyn BackendProvider>,
        campaign: impl Into<String>,
        fingerprint: u64,
    ) -> Self {
        Self {
            inner,
            campaign: campaign.into(),
            fingerprint,
            sink: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Finishes recording and assembles the trace (streams sorted by key).
    pub fn finish(self) -> ExecutionTrace {
        let streams = std::mem::take(&mut *self.sink.lock().expect("trace sink poisoned"));
        ExecutionTrace {
            campaign: self.campaign,
            fingerprint: self.fingerprint,
            streams: streams.into_values().collect(),
        }
    }
}

fn register_stream(
    sink: &TraceSink,
    key: &str,
    vm: VmType,
    profile: &InterferenceProfile,
    seed: u64,
) {
    let mut streams = sink.lock().expect("trace sink poisoned");
    let previous = streams.insert(
        key.to_string(),
        TraceStream {
            key: key.to_string(),
            vm: vm.name().to_string(),
            profile: profile_label(profile),
            seed,
            failure: None,
            events: Vec::new(),
        },
    );
    assert!(
        previous.is_none(),
        "execution stream {key:?} was recorded twice; stream keys must be unique"
    );
}

impl BackendProvider for TraceRecorder {
    fn backend(
        &self,
        stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend> {
        register_stream(&self.sink, stream, vm, profile, seed);
        Box::new(RecordingBackend {
            inner: self.inner.backend(stream, vm, profile, seed),
            sink: Arc::clone(&self.sink),
            key: stream.to_string(),
            events: Vec::new(),
            forks: 0,
        })
    }
}

/// An [`ExecutionBackend`] that delegates to an inner backend and records every
/// outcome. Created by [`TraceRecorder`].
///
/// Events buffer in the backend itself (each stream has exactly one owner, so no lock
/// is needed per event) and flush into the shared sink when the backend is dropped —
/// which is why [`TraceRecorder::finish`] must only be called after every backend is
/// gone (campaign executors drop each cell's backend at the end of the cell).
pub struct RecordingBackend {
    inner: Box<dyn ExecutionBackend>,
    sink: TraceSink,
    key: String,
    events: Vec<TraceEvent>,
    forks: usize,
}

impl RecordingBackend {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

impl Drop for RecordingBackend {
    fn drop(&mut self) {
        if let Ok(mut streams) = self.sink.lock() {
            // The stream is registered at construction; it is only absent when the
            // recorder was finished while this backend was still alive, in which case
            // the events have nowhere to go (never panic in a destructor).
            if let Some(stream) = streams.get_mut(&self.key) {
                stream.events = std::mem::take(&mut self.events);
                stream.failure = self.inner.failure();
            }
        }
    }
}

impl ExecutionBackend for RecordingBackend {
    forward_to_inner!(vm, profile, seed, clock, set_clock, cost);
    forward_to_inner!(commit, commit_parallel, failure);

    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        let play = self.inner.play_game(specs, rules);
        self.record(TraceEvent::Game {
            specs: specs.to_vec(),
            rules: *rules,
            play: play.clone(),
        });
        play
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        let run = self.inner.run_single(spec);
        self.record(TraceEvent::Single { spec, run });
        run
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        let time = self.inner.observe_single_at(spec, start, salt);
        self.record(TraceEvent::Observe {
            spec,
            start,
            salt,
            time,
        });
        time
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        let child_key = format!("{}/{}", self.key, self.forks);
        self.forks += 1;
        self.record(TraceEvent::Fork { seed });
        let inner = self.inner.fork(seed);
        register_stream(&self.sink, &child_key, inner.vm(), inner.profile(), seed);
        Box::new(RecordingBackend {
            inner,
            sink: Arc::clone(&self.sink),
            key: child_key,
            events: Vec::new(),
            forks: 0,
        })
    }
}

// ---------- replay ----------

/// A [`BackendProvider`] that replays a recorded [`ExecutionTrace`] with zero
/// resimulation.
///
/// Campaign-level compatibility (fingerprint, campaign name, and every root stream's
/// [`check_stream`](ExecutionTrace::check_stream)) should be validated up front —
/// `dg-campaign`'s `Campaign::replay` does — because provider methods cannot return
/// errors; a request for a stream the trace lacks, or whose header disagrees, panics.
pub struct TraceReplayer {
    trace: Arc<ExecutionTrace>,
}

impl TraceReplayer {
    /// Creates a replayer over a trace (pass an `Arc<ExecutionTrace>` to share one
    /// parsed trace across repeated replays without copying it).
    pub fn new(trace: impl Into<Arc<ExecutionTrace>>) -> Self {
        Self {
            trace: trace.into(),
        }
    }

    /// The replayed trace.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }
}

impl BackendProvider for TraceReplayer {
    fn backend(
        &self,
        stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend> {
        Box::new(ReplayBackend::open(
            Arc::clone(&self.trace),
            stream,
            vm,
            profile.clone(),
            seed,
        ))
    }
}

/// An [`ExecutionBackend`] that answers every request from a recorded stream. Created
/// by [`TraceReplayer`].
///
/// # Panics
///
/// Every trait method panics with a descriptive message when the requested operation
/// (or its arguments) diverges from what the stream recorded — replaying is only valid
/// for the exact execution that was recorded.
pub struct ReplayBackend {
    trace: Arc<ExecutionTrace>,
    stream: usize,
    cursor: usize,
    vm: VmType,
    profile: InterferenceProfile,
    seed: u64,
    clock: SimTime,
    cost: CostTracker,
    forks: usize,
}

impl ReplayBackend {
    fn open(
        trace: Arc<ExecutionTrace>,
        key: &str,
        vm: VmType,
        profile: InterferenceProfile,
        seed: u64,
    ) -> Self {
        let stream = trace
            .check_stream(key, vm, &profile, seed)
            .unwrap_or_else(|err| panic!("{err}; was the trace recorded from the same spec?"));
        Self {
            trace,
            stream,
            cursor: 0,
            vm,
            profile,
            seed,
            clock: SimTime::ZERO,
            cost: CostTracker::new(),
            forks: 0,
        }
    }

    fn key(&self) -> &str {
        &self.trace.streams[self.stream].key
    }

    /// Checks that the next recorded event is an `op`, advances the cursor, and
    /// returns the event's index (callers borrow the event itself from the trace, so
    /// replay never deep-clones event payloads it only validates against).
    fn expect_op(&mut self, op: &str) -> usize {
        let index = self.cursor;
        {
            let stream = &self.trace.streams[self.stream];
            let event = stream.events.get(index).unwrap_or_else(|| {
                panic!(
                    "replay diverged on stream {:?}: trace ended after {index} events but a \
                     {op:?} operation was requested",
                    stream.key
                )
            });
            assert_eq!(
                event.op(),
                op,
                "replay diverged on stream {:?} at event {index}: trace recorded a {:?} \
                 operation but a {op:?} operation was requested",
                stream.key,
                event.op()
            );
        }
        self.cursor = index + 1;
        index
    }

    fn assert_spec(&self, index: usize, expected: &ExecutionSpec, got: &ExecutionSpec) {
        assert!(
            expected.base_time().to_bits() == got.base_time().to_bits()
                && expected.sensitivity().to_bits() == got.sensitivity().to_bits(),
            "replay diverged on stream {:?} at event {}: recorded spec {expected:?}, \
             requested {got:?}",
            self.key(),
            index,
        );
    }
}

impl ExecutionBackend for ReplayBackend {
    fn vm(&self) -> VmType {
        self.vm
    }

    fn profile(&self) -> &InterferenceProfile {
        &self.profile
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn clock(&self) -> SimTime {
        self.clock
    }

    fn set_clock(&mut self, t: SimTime) {
        assert!(
            t.as_seconds() >= self.clock.as_seconds(),
            "the simulated clock cannot move backwards"
        );
        self.clock = t;
    }

    fn cost(&self) -> &CostTracker {
        &self.cost
    }

    fn play_game(&mut self, specs: &[ExecutionSpec], rules: &GameRules) -> GamePlay {
        let index = self.expect_op("game");
        let trace = Arc::clone(&self.trace);
        let TraceEvent::Game {
            specs: recorded,
            rules: recorded_rules,
            play,
        } = &trace.streams[self.stream].events[index]
        else {
            unreachable!("expect_op checked the op")
        };
        assert_eq!(
            recorded.len(),
            specs.len(),
            "replay diverged on stream {:?} at event {index}: player counts differ",
            self.key()
        );
        for (expected, got) in recorded.iter().zip(specs) {
            self.assert_spec(index, expected, got);
        }
        assert_eq!(
            recorded_rules,
            rules,
            "replay diverged on stream {:?} at event {index}: game rules differ",
            self.key()
        );
        play.clone()
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        let index = self.expect_op("single");
        let trace = Arc::clone(&self.trace);
        let TraceEvent::Single {
            spec: recorded,
            run,
        } = &trace.streams[self.stream].events[index]
        else {
            unreachable!("expect_op checked the op")
        };
        self.assert_spec(index, recorded, &spec);
        let run = *run;
        // Re-apply the exact accounting a live run_single performs.
        self.cost.charge_serial(self.vm, run.elapsed);
        self.clock += run.elapsed;
        run
    }

    fn observe_single_at(&mut self, spec: ExecutionSpec, start: SimTime, salt: u64) -> f64 {
        let index = self.expect_op("observe");
        let trace = Arc::clone(&self.trace);
        let TraceEvent::Observe {
            spec: recorded,
            start: recorded_start,
            salt: recorded_salt,
            time,
        } = &trace.streams[self.stream].events[index]
        else {
            unreachable!("expect_op checked the op")
        };
        self.assert_spec(index, recorded, &spec);
        assert!(
            recorded_start.as_seconds().to_bits() == start.as_seconds().to_bits()
                && *recorded_salt == salt,
            "replay diverged on stream {:?} at event {index}: observation request differs",
            self.key()
        );
        *time
    }

    fn commit(&mut self, play: &GamePlay) {
        self.cost.charge_serial(self.vm, play.elapsed);
        self.clock += play.elapsed;
    }

    fn commit_parallel(&mut self, plays: &[GamePlay]) {
        if plays.is_empty() {
            return;
        }
        let elapsed: Vec<f64> = plays.iter().map(|p| p.elapsed).collect();
        self.cost.charge_parallel(self.vm, &elapsed);
        let max_elapsed = elapsed.iter().copied().fold(0.0_f64, f64::max);
        self.clock += max_elapsed;
    }

    fn fork(&mut self, seed: u64) -> Box<dyn ExecutionBackend> {
        let index = self.expect_op("fork");
        let TraceEvent::Fork { seed: recorded } = self.trace.streams[self.stream].events[index]
        else {
            unreachable!("expect_op checked the op")
        };
        assert_eq!(
            recorded,
            seed,
            "replay diverged on stream {:?} at event {index}: fork seeds differ",
            self.key()
        );
        let child_key = format!("{}/{}", self.key(), self.forks);
        self.forks += 1;
        Box::new(ReplayBackend::open(
            Arc::clone(&self.trace),
            &child_key,
            self.vm,
            self.profile.clone(),
            seed,
        ))
    }

    fn failure(&self) -> Option<String> {
        self.trace.streams[self.stream].failure.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{sim_ops, SimProvider};

    const VM: VmType = VmType::M5_8xlarge;

    fn drive(exec: &mut dyn ExecutionBackend) -> (Vec<f64>, f64, f64) {
        let fast = ExecutionSpec::new(100.0, 0.3);
        let slow = ExecutionSpec::new(220.0, 0.9);
        let play = exec.play_game(&[fast, slow], &GameRules::default());
        exec.commit(&play);
        let run = exec.run_single(fast);
        let observations = exec.observe_repeated(slow, 3, 900.0);
        let mut fork = exec.fork(4242);
        let fork_run = fork.run_single(slow);
        let mut times = play.observed_times.clone();
        times.push(run.observed_time);
        times.push(fork_run.observed_time);
        times.extend(observations);
        (times, exec.cost().core_hours(), exec.clock().as_seconds())
    }

    fn record_one() -> ((Vec<f64>, f64, f64), ExecutionTrace) {
        let recorder = TraceRecorder::new(Box::new(SimProvider), "unit", 0xfeed);
        let profile = InterferenceProfile::typical();
        let mut exec = recorder.backend("root", VM, &profile, 7);
        let live = drive(exec.as_mut());
        drop(exec);
        (live, recorder.finish())
    }

    #[test]
    fn record_then_replay_reproduces_everything_without_simulation() {
        let (live, trace) = record_one();
        assert_eq!(trace.campaign, "unit");
        assert_eq!(trace.streams().len(), 2, "root + one fork");
        assert!(trace.stream("root/0").is_some());

        let replayer = TraceReplayer::new(trace);
        let before = sim_ops();
        let mut exec = replayer.backend("root", VM, &InterferenceProfile::typical(), 7);
        let replayed = drive(exec.as_mut());
        assert_eq!(sim_ops(), before, "replay must not touch the simulator");
        assert_eq!(live.0, replayed.0);
        assert_eq!(live.1.to_bits(), replayed.1.to_bits(), "cost accounting");
        assert_eq!(live.2.to_bits(), replayed.2.to_bits(), "clock");
    }

    #[test]
    fn traces_round_trip_through_canonical_json() {
        let (_, trace) = record_one();
        let json = trace.to_json();
        let parsed = ExecutionTrace::from_json(&json).expect("canonical traces parse");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_json(), json, "byte-identical re-serialization");
    }

    #[test]
    fn non_finite_floats_survive_the_wire_format() {
        let round_trip = |value: f64| {
            let mut out = String::new();
            value.write_json(&mut out);
            json::decode::<f64>(&out).unwrap()
        };
        for v in [f64::INFINITY, f64::NEG_INFINITY, 1.5, -0.0] {
            assert_eq!(round_trip(v).to_bits(), v.to_bits());
        }
        assert!(round_trip(f64::NAN).is_nan());
    }

    #[test]
    fn malformed_traces_are_rejected_with_parse_errors() {
        for bad in [
            "{",
            "{\"campaign\":\"x\"}",
            "{\"campaign\":\"x\",\"fingerprint\":1,\"streams\":[{\"key\":\"a\"}]}",
            "{\"campaign\":\"x\",\"fingerprint\":1,\"streams\":[{\"key\":\"a\",\"vm\":\"m\",\
             \"profile\":\"p\",\"seed\":1,\"events\":[{\"op\":\"warp\"}]}]}",
        ] {
            assert!(
                matches!(ExecutionTrace::from_json(bad), Err(TraceError::Parse(_))),
                "{bad:?} must fail to parse"
            );
        }
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn replaying_a_different_operation_panics() {
        let (_, trace) = record_one();
        let replayer = TraceReplayer::new(trace);
        let mut exec = replayer.backend("root", VM, &InterferenceProfile::typical(), 7);
        // The trace starts with a game; requesting a solo run must fail loudly.
        let _ = exec.run_single(ExecutionSpec::new(100.0, 0.3));
    }

    #[test]
    #[should_panic(expected = "no stream")]
    fn replaying_a_missing_stream_panics() {
        let (_, trace) = record_one();
        let replayer = TraceReplayer::new(trace);
        let _ = replayer.backend("nope", VM, &InterferenceProfile::typical(), 7);
    }

    #[test]
    fn error_display_is_descriptive() {
        let err = TraceError::FingerprintMismatch {
            expected: 1,
            found: 2,
        };
        assert!(err.to_string().contains("different campaign spec"));
        let err = TraceError::MissingStream {
            stream: "cell-3".into(),
        };
        assert!(err.to_string().contains("cell-3"));
    }
}
