//! Real-process execution: [`ProcessBackend`] runs actual OS programs as workload
//! evaluations.
//!
//! This is the seam the `ExecutionBackend` trait was built for: the same tuners,
//! tournament phases, and campaign executors that drive the simulator can drive real
//! programs. Each evaluation renders a [`CommandTemplate`] for the configuration's
//! [`ExecutionSpec`], launches the process with stdout/stderr captured into a fresh
//! per-job directory, waits under a configurable timeout, and checks the completion
//! marker the workload wrote (`SUCCESS` / `FAIL` in `<job dir>/status`).
//!
//! # Failure discipline
//!
//! Real processes crash, hang, and disappear; none of the `ExecutionBackend` methods
//! can return an error. The backend therefore *latches* the first [`ProcessError`] it
//! hits, returns `f64::INFINITY` for that observation, and short-circuits every later
//! evaluation (no more launches) so a broken workload fails one cell quickly instead
//! of grinding through its whole budget. Campaign executors read the latched error
//! through [`ExecutionBackend::failure`] and persist it in the cell result: a failed
//! cell is recorded as failed — and a resumed campaign skips it — rather than being
//! silently dropped or retried forever.
//!
//! # Timing
//!
//! [`TimingSource::WallClock`] (the default) observes the process's real wall-clock
//! duration — the TUNA-style measurement for actual tuning runs, inherently noisy and
//! machine-dependent. [`TimingSource::Reported`] instead requires the workload to
//! print `DG_TIME=<seconds>` on stdout and uses that value as both the observation
//! and the charged elapsed time, which makes reports a pure function of the workload's
//! own output — the mode the byte-identical resume and record/replay guarantees are
//! exercised under in CI.
//!
//! # Determinism & replay
//!
//! The backend composes with [`TraceRecorder`](crate::TraceRecorder) like any other:
//! record a real-process campaign once and every observation (and the latched failure,
//! if any) lands in the trace, so the campaign replays bit-for-bit afterwards with
//! **zero** process launches — [`process_launches`] is the proof hook.

use crate::backend::{BackendProvider, ExecutionBackend};
use dg_cloudsim::{
    CostTracker, ExecutionSpec, GamePlay, GameRules, InterferenceProfile, ObservedRun, SimTime,
    VmType,
};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often a waiting backend polls a child process for completion.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// The registry counter behind [`process_launches`]: `exec.process_launches` in the
/// `dg-obs` metrics registry.
fn process_launches_counter() -> &'static dg_obs::Counter {
    static COUNTER: std::sync::OnceLock<dg_obs::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| dg_obs::metrics::counter("exec.process_launches"))
}

/// Number of OS processes launched so far by every [`ProcessBackend`] in this process.
///
/// The analogue of [`sim_ops`](crate::sim_ops) for real execution, but global rather
/// than thread-local because campaign workers spawn processes from many threads and
/// the interesting questions ("did the resumed campaign launch anything?", "did the
/// replay launch anything?") are fleet-wide. Read it before and after an operation
/// and compare.
pub fn process_launches() -> u64 {
    process_launches_counter().value()
}

/// The failure modes a real process evaluation can hit, each latched by the backend
/// and surfaced through [`ExecutionBackend::failure`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProcessError {
    /// The OS refused to start the process (missing binary, permissions, ...).
    Spawn {
        /// The rendered command that failed to start.
        command: String,
        /// The OS error message.
        message: String,
    },
    /// The process exited with a non-success status.
    NonZeroExit {
        /// The rendered command that failed.
        command: String,
        /// The exit status, as reported by the OS.
        status: String,
    },
    /// The process outlived the configured timeout and was killed.
    Timeout {
        /// The rendered command that was killed.
        command: String,
        /// The timeout that was exceeded, in seconds.
        limit_seconds: f64,
    },
    /// The process exited successfully but never wrote a recognizable completion
    /// marker to `<job dir>/status`.
    MarkerMissing {
        /// The job directory that was inspected.
        job_dir: String,
    },
    /// The workload itself reported failure (`FAIL` in `<job dir>/status`).
    MarkerFail {
        /// The job directory carrying the marker.
        job_dir: String,
    },
    /// Reported timing was requested but the process printed no parseable
    /// `DG_TIME=<seconds>` line on stdout.
    BadTimeReport {
        /// The job directory whose stdout was inspected.
        job_dir: String,
        /// What was wrong with the report.
        detail: String,
    },
}

impl fmt::Display for ProcessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessError::Spawn { command, message } => {
                write!(f, "failed to spawn {command}: {message}")
            }
            ProcessError::NonZeroExit { command, status } => {
                write!(f, "{command} exited with {status}")
            }
            ProcessError::Timeout {
                command,
                limit_seconds,
            } => write!(
                f,
                "{command} exceeded the {limit_seconds}s timeout and was killed"
            ),
            ProcessError::MarkerMissing { job_dir } => {
                write!(f, "no SUCCESS/FAIL completion marker in {job_dir}/status")
            }
            ProcessError::MarkerFail { job_dir } => {
                write!(f, "workload reported FAIL in {job_dir}/status")
            }
            ProcessError::BadTimeReport { job_dir, detail } => {
                write!(f, "bad DG_TIME report in {job_dir}/stdout.log: {detail}")
            }
        }
    }
}

impl std::error::Error for ProcessError {}

/// Where an observation's duration comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingSource {
    /// Real wall-clock time between spawn and exit. Noisy and machine-dependent —
    /// what actual tuning measures.
    WallClock,
    /// The workload's own `DG_TIME=<seconds>` line on stdout (last one wins). Fully
    /// deterministic when the workload's report is; required for the byte-identical
    /// resume/replay guarantees.
    Reported,
}

/// A command line with placeholders, rendered once per evaluation.
///
/// Recognized placeholders in any argument (and the program itself):
///
/// | placeholder      | value                                               |
/// |------------------|-----------------------------------------------------|
/// | `{base_time}`    | the spec's base execution time, shortest-round-trip |
/// | `{sensitivity}`  | the spec's interference sensitivity                 |
/// | `{job_dir}`      | the per-job output directory                        |
/// | `{salt}`         | the observation's decorrelation salt                |
/// | `{seed}`         | the backend's root seed                             |
///
/// The child additionally receives the environment variables `DG_JOB_DIR`,
/// `DG_BASE_TIME`, `DG_SENSITIVITY`, `DG_SALT`, and `DG_SEED` with the same values,
/// so wrapper scripts need no argument plumbing at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandTemplate {
    program: String,
    args: Vec<String>,
}

impl CommandTemplate {
    /// Creates a template from a program and its argument list.
    pub fn new<P, I, A>(program: P, args: I) -> Self
    where
        P: Into<String>,
        I: IntoIterator<Item = A>,
        A: Into<String>,
    {
        Self {
            program: program.into(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// The program to execute (placeholders allowed).
    pub fn program(&self) -> &str {
        &self.program
    }

    /// The argument templates.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    fn substitute(text: &str, spec: &ExecutionSpec, job_dir: &str, salt: u64, seed: u64) -> String {
        text.replace("{base_time}", &format!("{}", spec.base_time()))
            .replace("{sensitivity}", &format!("{}", spec.sensitivity()))
            .replace("{job_dir}", job_dir)
            .replace("{salt}", &salt.to_string())
            .replace("{seed}", &seed.to_string())
    }

    /// Renders `(program, args)` for one evaluation.
    pub fn render(
        &self,
        spec: &ExecutionSpec,
        job_dir: &Path,
        salt: u64,
        seed: u64,
    ) -> (String, Vec<String>) {
        let dir = job_dir.display().to_string();
        let program = Self::substitute(&self.program, spec, &dir, salt, seed);
        let args = self
            .args
            .iter()
            .map(|a| Self::substitute(a, spec, &dir, salt, seed))
            .collect();
        (program, args)
    }
}

/// One spawned, not-yet-reaped evaluation.
struct LaunchedJob {
    child: Child,
    job_dir: PathBuf,
    command: String,
    started: Instant,
}

/// An [`ExecutionBackend`] that evaluates configurations by running real OS processes.
///
/// Each evaluation renders the [`CommandTemplate`], runs the process and reads its
/// completion marker. The first [`ProcessError`] latches into
/// [`ExecutionBackend::failure`] and stops every later launch, and [`TimingSource`]
/// picks how a run's time is measured. Job artifacts land under the backend's directory
/// as `job-<n>/{stdout.log,stderr.log,status}`; forked sub-environments nest under
/// `fork-<n>/` and share the parent's failure latch (a failed region fails its cell).
pub struct ProcessBackend {
    template: CommandTemplate,
    dir: PathBuf,
    timing: TimingSource,
    timeout: Duration,
    vm: VmType,
    profile: InterferenceProfile,
    seed: u64,
    clock: SimTime,
    cost: CostTracker,
    jobs: usize,
    forks: usize,
    error: Arc<Mutex<Option<ProcessError>>>,
}

impl ProcessBackend {
    /// Creates a backend that renders `template` per evaluation and writes job
    /// artifacts under `dir`. Defaults: wall-clock timing, 1 hour timeout.
    pub fn new(
        template: CommandTemplate,
        dir: impl Into<PathBuf>,
        vm: VmType,
        profile: InterferenceProfile,
        seed: u64,
    ) -> Self {
        Self {
            template,
            dir: dir.into(),
            timing: TimingSource::WallClock,
            timeout: Duration::from_secs(3600),
            vm,
            profile,
            seed,
            clock: SimTime::ZERO,
            cost: CostTracker::new(),
            jobs: 0,
            forks: 0,
            error: Arc::new(Mutex::new(None)),
        }
    }

    /// Sets the timing source (builder-style).
    pub fn with_timing(mut self, timing: TimingSource) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the per-process timeout (builder-style).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The first process error this backend (or any of its forks) hit, if any.
    pub fn last_error(&self) -> Option<ProcessError> {
        self.error
            .lock()
            .expect("process error latch poisoned")
            .clone()
    }

    fn failed(&self) -> bool {
        self.error
            .lock()
            .expect("process error latch poisoned")
            .is_some()
    }

    fn record_error(&self, error: ProcessError) {
        let mut slot = self.error.lock().expect("process error latch poisoned");
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    /// Spawns one evaluation in a fresh `job-<n>` directory.
    fn launch(&mut self, spec: ExecutionSpec, salt: u64) -> Result<LaunchedJob, ProcessError> {
        let ordinal = self.jobs;
        self.jobs += 1;
        let job_dir = self.dir.join(format!("job-{ordinal}"));
        let (program, args) = self.template.render(&spec, &job_dir, salt, self.seed);
        let command = if args.is_empty() {
            program.clone()
        } else {
            format!("{program} {}", args.join(" "))
        };
        let io_error = |message: std::io::Error| ProcessError::Spawn {
            command: command.clone(),
            message: message.to_string(),
        };
        fs::create_dir_all(&job_dir).map_err(io_error)?;
        let stdout = fs::File::create(job_dir.join("stdout.log")).map_err(io_error)?;
        let stderr = fs::File::create(job_dir.join("stderr.log")).map_err(io_error)?;
        let child = Command::new(&program)
            .args(&args)
            .env("DG_JOB_DIR", &job_dir)
            .env("DG_BASE_TIME", format!("{}", spec.base_time()))
            .env("DG_SENSITIVITY", format!("{}", spec.sensitivity()))
            .env("DG_SALT", salt.to_string())
            .env("DG_SEED", self.seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::from(stdout))
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(io_error)?;
        process_launches_counter().increment();
        Ok(LaunchedJob {
            child,
            job_dir,
            command,
            started: Instant::now(),
        })
    }

    /// Waits for a launched job (under the timeout), checks its completion marker,
    /// and extracts the observed duration.
    fn finish(&self, mut job: LaunchedJob) -> Result<f64, ProcessError> {
        let deadline = job.started + self.timeout;
        let status = loop {
            match job.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {
                    if Instant::now() >= deadline {
                        let _ = job.child.kill();
                        let _ = job.child.wait();
                        return Err(ProcessError::Timeout {
                            command: job.command,
                            limit_seconds: self.timeout.as_secs_f64(),
                        });
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) => {
                    return Err(ProcessError::Spawn {
                        command: job.command,
                        message: format!("wait failed: {e}"),
                    })
                }
            }
        };
        let wall_seconds = job.started.elapsed().as_secs_f64();
        if !status.success() {
            return Err(ProcessError::NonZeroExit {
                command: job.command,
                status: status.to_string(),
            });
        }
        let job_dir = job.job_dir.display().to_string();
        let marker = fs::read_to_string(job.job_dir.join("status")).unwrap_or_default();
        let marker = marker.trim();
        if marker.starts_with("FAIL") {
            return Err(ProcessError::MarkerFail { job_dir });
        }
        if !marker.starts_with("SUCCESS") {
            return Err(ProcessError::MarkerMissing { job_dir });
        }
        match self.timing {
            TimingSource::WallClock => Ok(wall_seconds),
            TimingSource::Reported => {
                let stdout = fs::read_to_string(job.job_dir.join("stdout.log")).unwrap_or_default();
                let reported = stdout
                    .lines()
                    .filter_map(|line| line.trim().strip_prefix("DG_TIME="))
                    .next_back()
                    .ok_or_else(|| ProcessError::BadTimeReport {
                        job_dir: job_dir.clone(),
                        detail: "no DG_TIME=<seconds> line on stdout".to_string(),
                    })?;
                let seconds: f64 =
                    reported
                        .trim()
                        .parse()
                        .map_err(|_| ProcessError::BadTimeReport {
                            job_dir: job_dir.clone(),
                            detail: format!("unparseable DG_TIME value {reported:?}"),
                        })?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(ProcessError::BadTimeReport {
                        job_dir,
                        detail: format!("DG_TIME must be finite and non-negative, got {seconds}"),
                    });
                }
                Ok(seconds)
            }
        }
    }

    /// Runs one evaluation end to end. Returns the observed duration, or
    /// `f64::INFINITY` after latching the error — and launches nothing at all once an
    /// error is already latched.
    fn run_job(&mut self, spec: ExecutionSpec, salt: u64) -> f64 {
        if self.failed() {
            return f64::INFINITY;
        }
        match self.launch(spec, salt).and_then(|job| self.finish(job)) {
            Ok(seconds) => seconds,
            Err(error) => {
                self.record_error(error);
                f64::INFINITY
            }
        }
    }
}

impl ExecutionBackend for ProcessBackend {
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
            "the clock cannot move backwards"
        );
        self.clock = t;
    }

    fn cost(&self) -> &CostTracker {
        &self.cost
    }

    /// Plays a game by launching every player's process concurrently — real
    /// co-location on the host. Early-termination rules cannot be applied to opaque
    /// processes, so every player runs to completion (`early_terminated` is always
    /// `false`); execution scores are the usual fastest-relative work fractions.
    fn play_game(&mut self, specs: &[ExecutionSpec], _rules: &GameRules) -> GamePlay {
        assert!(!specs.is_empty(), "a game needs at least one player");
        let start = self.clock;
        let mut times = vec![f64::INFINITY; specs.len()];
        if !self.failed() {
            let mut launched = Vec::with_capacity(specs.len());
            for (player, spec) in specs.iter().enumerate() {
                match self.launch(*spec, player as u64) {
                    Ok(job) => launched.push((player, job)),
                    Err(error) => {
                        self.record_error(error);
                        break;
                    }
                }
            }
            for (player, job) in launched {
                match self.finish(job) {
                    Ok(seconds) => times[player] = seconds,
                    Err(error) => self.record_error(error),
                }
            }
        }
        let best = times
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .fold(f64::INFINITY, f64::min);
        let slowest = times
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .fold(0.0_f64, f64::max);
        let scores = times
            .iter()
            .map(|&t| {
                if t.is_finite() && t > 0.0 && best.is_finite() {
                    (best / t).min(1.0)
                } else if t.is_finite() && best.is_finite() && best == 0.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        GamePlay {
            start,
            elapsed: slowest,
            observed_times: times,
            execution_scores: scores,
            early_terminated: false,
        }
    }

    fn run_single(&mut self, spec: ExecutionSpec) -> ObservedRun {
        let salt = self.jobs as u64;
        let started_at = self.clock;
        let observed = self.run_job(spec, salt);
        // A failed run charges nothing (elapsed 0), exactly what replay re-applies.
        let elapsed = if observed.is_finite() { observed } else { 0.0 };
        self.cost.charge_serial(self.vm, elapsed);
        self.clock += elapsed;
        ObservedRun {
            observed_time: observed,
            started_at,
            elapsed,
        }
    }

    /// Observes one run without accounting. Real time does not jump, so `start` only
    /// decorrelates the observation through the job ordinal; the process runs now.
    fn observe_single_at(&mut self, spec: ExecutionSpec, _start: SimTime, salt: u64) -> f64 {
        self.run_job(spec, salt)
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
        let ordinal = self.forks;
        self.forks += 1;
        Box::new(ProcessBackend {
            template: self.template.clone(),
            dir: self.dir.join(format!("fork-{ordinal}")),
            timing: self.timing,
            timeout: self.timeout,
            vm: self.vm,
            profile: self.profile.clone(),
            seed,
            clock: SimTime::ZERO,
            cost: CostTracker::new(),
            jobs: 0,
            forks: 0,
            // Shared latch: a failure anywhere in the cell fails the whole cell.
            error: Arc::clone(&self.error),
        })
    }

    fn failure(&self) -> Option<String> {
        self.last_error().map(|e| e.to_string())
    }
}

/// A [`BackendProvider`] that gives every execution stream its own
/// [`ProcessBackend`] rooted at `<root>/<stream>/`.
///
/// Campaign executors name streams `cell-<index>`, so a campaign run against this
/// provider leaves a browsable `jobs/cell-3/job-17/stdout.log`-style tree behind.
pub struct ProcessProvider {
    template: CommandTemplate,
    root: PathBuf,
    timing: TimingSource,
    timeout: Duration,
}

impl ProcessProvider {
    /// Creates a provider rendering `template` with job trees under `root`.
    /// Defaults: wall-clock timing, 1 hour timeout.
    pub fn new(template: CommandTemplate, root: impl Into<PathBuf>) -> Self {
        Self {
            template,
            root: root.into(),
            timing: TimingSource::WallClock,
            timeout: Duration::from_secs(3600),
        }
    }

    /// Sets the timing source (builder-style).
    pub fn with_timing(mut self, timing: TimingSource) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the per-process timeout (builder-style).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }
}

impl BackendProvider for ProcessProvider {
    fn backend(
        &self,
        stream: &str,
        vm: VmType,
        profile: &InterferenceProfile,
        seed: u64,
    ) -> Box<dyn ExecutionBackend> {
        Box::new(
            ProcessBackend::new(
                self.template.clone(),
                self.root.join(stream),
                vm,
                profile.clone(),
                seed,
            )
            .with_timing(self.timing)
            .with_timeout(self.timeout),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_render_all_placeholders() {
        let template = CommandTemplate::new(
            "/bin/echo",
            [
                "{base_time}",
                "{sensitivity}",
                "{job_dir}/x",
                "{salt}-{seed}",
            ],
        );
        let spec = ExecutionSpec::new(245.3, 0.8);
        let (program, args) = template.render(&spec, Path::new("/tmp/j"), 3, 42);
        assert_eq!(program, "/bin/echo");
        assert_eq!(args, vec!["245.3", "0.8", "/tmp/j/x", "3-42"]);
    }

    #[test]
    fn error_display_names_the_command() {
        let err = ProcessError::Timeout {
            command: "/bin/sleep 30".into(),
            limit_seconds: 0.5,
        };
        assert!(err.to_string().contains("/bin/sleep 30"));
        assert!(err.to_string().contains("0.5"));
        let err = ProcessError::MarkerMissing {
            job_dir: "/tmp/job-0".into(),
        };
        assert!(err.to_string().contains("/tmp/job-0/status"));
    }
}
