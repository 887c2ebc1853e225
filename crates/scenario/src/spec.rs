//! Declarative scenario specifications and the built-in scenario pack.

use crate::timeline::Timeline;
use dg_cloudsim::{InterferenceProfile, VmType};
use dg_exec::json::{
    self, fnv1a, parse_profile, push_f64, push_key, push_profile, push_str_literal, JsonValue,
};
use std::fmt::Write as _;

/// One entry of a scenario's event timeline.
///
/// Point events carry absolute simulated-time anchors (`at`, seconds). Generator events
/// (`Preemptions`, `StormFront`) expand into point events deterministically per backend
/// seed when the [`Timeline`](crate::Timeline) is built, so two backends with the same
/// scenario but different seeds see *individually reproducible but distinct* incident
/// schedules — the way two tenants of the same cloud do. `Diurnal` is a continuous
/// curve rather than an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// Co-tenant arrival/departure: from `at` on, the ambient load level is `factor`
    /// (an absolute multiplier on observed times; `1.0` is the unperturbed node, values
    /// below `1.0` model departures that leave the node quieter than at start).
    LoadShift {
        /// Seconds at which the shift takes effect.
        at: f64,
        /// The new persistent load factor.
        factor: f64,
    },
    /// A transient slowdown storm: for `duration` seconds starting at `at`, observed
    /// times are additionally multiplied by `factor`.
    Storm {
        /// Seconds at which the storm begins.
        at: f64,
        /// Storm length in seconds.
        duration: f64,
        /// Multiplicative slowdown while the storm is active.
        factor: f64,
    },
    /// A seeded storm generator: each of the `windows` consecutive windows of `period`
    /// seconds (starting at `start`) contains, with probability `chance`, one storm of
    /// the given `duration` and `factor` at a pseudo-random offset.
    StormFront {
        /// Seconds at which the first window opens.
        start: f64,
        /// Window length in seconds.
        period: f64,
        /// Per-window storm probability, in `[0, 1]`.
        chance: f64,
        /// Storm length in seconds.
        duration: f64,
        /// Multiplicative slowdown while a storm is active.
        factor: f64,
        /// Number of windows to draw.
        windows: u32,
    },
    /// A spot-instance preemption at `at`: the operation in progress loses its work,
    /// the node is down for `downtime` seconds, and the operation restarts from
    /// scratch. A preemption whose time passes while the node is idle is skipped.
    Preemption {
        /// Seconds at which the instance is reclaimed.
        at: f64,
        /// Seconds until a replacement instance is up.
        downtime: f64,
    },
    /// A seeded preemption generator: `count` preemptions whose gaps are drawn
    /// uniformly from `[0.25, 1.75] × mean_interval` starting at `start`.
    Preemptions {
        /// Seconds before the first gap begins.
        start: f64,
        /// Mean seconds between consecutive preemptions.
        mean_interval: f64,
        /// Seconds until a replacement instance is up, per preemption.
        downtime: f64,
        /// Number of preemptions to draw.
        count: u32,
    },
    /// A spot-market price change: from `at` on, every committed core-hour is billed at
    /// `factor` times the VM's on-demand price
    /// (see [`ScenarioBackend::billed_dollars`](crate::ScenarioBackend::billed_dollars)).
    PriceChange {
        /// Seconds at which the new price takes effect.
        at: f64,
        /// Price multiplier relative to the on-demand hourly price.
        factor: f64,
    },
    /// A diurnal load curve: observed times are continuously multiplied by
    /// `1 + amplitude × (1 − cos(2π(t/period + phase)))/2`, peaking mid-period.
    Diurnal {
        /// Curve period in seconds (e.g. `86_400` for a daily cycle).
        period: f64,
        /// Peak extra slowdown at the top of the curve.
        amplitude: f64,
        /// Phase offset in periods (`0.5` starts at the peak).
        phase: f64,
    },
}

impl ScenarioEvent {
    /// The event with its time anchor shifted `dt` seconds later (used by
    /// [`ScenarioSpec::then`]). Diurnal curves shift phase so the shifted curve
    /// evaluates at `t` what the original evaluated at `t − dt`.
    fn shifted(&self, dt: f64) -> ScenarioEvent {
        let mut event = self.clone();
        match &mut event {
            ScenarioEvent::LoadShift { at, .. }
            | ScenarioEvent::Storm { at, .. }
            | ScenarioEvent::Preemption { at, .. }
            | ScenarioEvent::PriceChange { at, .. } => *at += dt,
            ScenarioEvent::StormFront { start, .. } | ScenarioEvent::Preemptions { start, .. } => {
                *start += dt
            }
            ScenarioEvent::Diurnal { period, phase, .. } => *phase -= dt / *period,
        }
        event
    }

    /// The event with its time axis stretched by `k` (used by [`ScenarioSpec::scale`]):
    /// anchors, durations, periods, and intervals all multiply; factors, probabilities,
    /// and counts are untouched.
    fn time_scaled(&self, k: f64) -> ScenarioEvent {
        let mut event = self.clone();
        match &mut event {
            ScenarioEvent::LoadShift { at, .. } | ScenarioEvent::PriceChange { at, .. } => *at *= k,
            ScenarioEvent::Storm { at, duration, .. } => {
                *at *= k;
                *duration *= k;
            }
            ScenarioEvent::StormFront {
                start,
                period,
                duration,
                ..
            } => {
                *start *= k;
                *period *= k;
                *duration *= k;
            }
            ScenarioEvent::Preemption { at, downtime } => {
                *at *= k;
                *downtime *= k;
            }
            ScenarioEvent::Preemptions {
                start,
                mean_interval,
                downtime,
                ..
            } => {
                *start *= k;
                *mean_interval *= k;
                *downtime *= k;
            }
            ScenarioEvent::Diurnal { period, .. } => *period *= k,
        }
        event
    }

    /// Checks one event: every time anchor is finite and `>= 0`, every
    /// duration/period/interval finite and `> 0`, every factor finite and `> 0`, every
    /// downtime finite and `>= 0`, and every probability in `[0, 1]`.
    fn check(&self) -> Result<(), String> {
        let anchor = |at: f64| require(at.is_finite() && at >= 0.0, "event time must be >= 0");
        let span = |d: f64| require(d.is_finite() && d > 0.0, "durations/periods must be > 0");
        let load = |f: f64| require(f.is_finite() && f > 0.0, "factors must be finite and > 0");
        let outage = |d: f64| require(d.is_finite() && d >= 0.0, "downtime must be >= 0");
        match self {
            ScenarioEvent::LoadShift { at, factor } | ScenarioEvent::PriceChange { at, factor } => {
                anchor(*at)?;
                load(*factor)
            }
            ScenarioEvent::Storm {
                at,
                duration,
                factor,
            } => {
                anchor(*at)?;
                span(*duration)?;
                load(*factor)
            }
            ScenarioEvent::StormFront {
                start,
                period,
                chance,
                duration,
                factor,
                ..
            } => {
                anchor(*start)?;
                span(*period)?;
                span(*duration)?;
                load(*factor)?;
                require(
                    (0.0..=1.0).contains(chance),
                    "storm chance must be in [0, 1]",
                )
            }
            ScenarioEvent::Preemption { at, downtime } => {
                anchor(*at)?;
                outage(*downtime)
            }
            ScenarioEvent::Preemptions {
                start,
                mean_interval,
                downtime,
                ..
            } => {
                anchor(*start)?;
                span(*mean_interval)?;
                outage(*downtime)
            }
            ScenarioEvent::Diurnal {
                period,
                amplitude,
                phase,
            } => {
                span(*period)?;
                require(
                    amplitude.is_finite() && *amplitude >= 0.0,
                    "amplitude must be >= 0",
                )?;
                require(phase.is_finite(), "phase must be finite")
            }
        }
    }

    fn op(&self) -> &'static str {
        match self {
            ScenarioEvent::LoadShift { .. } => "load",
            ScenarioEvent::Storm { .. } => "storm",
            ScenarioEvent::StormFront { .. } => "storm_front",
            ScenarioEvent::Preemption { .. } => "preempt",
            ScenarioEvent::Preemptions { .. } => "preemptions",
            ScenarioEvent::PriceChange { .. } => "price",
            ScenarioEvent::Diurnal { .. } => "diurnal",
        }
    }

    fn to_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        push_key(out, &mut first, "op");
        push_str_literal(out, self.op());
        let num = |out: &mut String, first: &mut bool, key: &str, value: f64| {
            push_key(out, first, key);
            push_f64(out, value);
        };
        match self {
            ScenarioEvent::LoadShift { at, factor } | ScenarioEvent::PriceChange { at, factor } => {
                num(out, &mut first, "at", *at);
                num(out, &mut first, "factor", *factor);
            }
            ScenarioEvent::Storm {
                at,
                duration,
                factor,
            } => {
                num(out, &mut first, "at", *at);
                num(out, &mut first, "duration", *duration);
                num(out, &mut first, "factor", *factor);
            }
            ScenarioEvent::StormFront {
                start,
                period,
                chance,
                duration,
                factor,
                windows,
            } => {
                num(out, &mut first, "start", *start);
                num(out, &mut first, "period", *period);
                num(out, &mut first, "chance", *chance);
                num(out, &mut first, "duration", *duration);
                num(out, &mut first, "factor", *factor);
                push_key(out, &mut first, "windows");
                let _ = write!(out, "{windows}");
            }
            ScenarioEvent::Preemption { at, downtime } => {
                num(out, &mut first, "at", *at);
                num(out, &mut first, "downtime", *downtime);
            }
            ScenarioEvent::Preemptions {
                start,
                mean_interval,
                downtime,
                count,
            } => {
                num(out, &mut first, "start", *start);
                num(out, &mut first, "mean_interval", *mean_interval);
                num(out, &mut first, "downtime", *downtime);
                push_key(out, &mut first, "count");
                let _ = write!(out, "{count}");
            }
            ScenarioEvent::Diurnal {
                period,
                amplitude,
                phase,
            } => {
                num(out, &mut first, "period", *period);
                num(out, &mut first, "amplitude", *amplitude);
                num(out, &mut first, "phase", *phase);
            }
        }
        out.push('}');
    }

    fn from_value(value: &JsonValue) -> Result<ScenarioEvent, String> {
        let num = |key: &str| -> Result<f64, String> {
            value
                .get(key)
                .and_then(JsonValue::number_token)
                .and_then(|t| t.parse::<f64>().ok())
                .ok_or_else(|| format!("event field {key:?} is not a number"))
        };
        let int = |key: &str| -> Result<u32, String> {
            value
                .get(key)
                .and_then(JsonValue::number_token)
                .and_then(|t| t.parse::<u32>().ok())
                .ok_or_else(|| format!("event field {key:?} is not a u32"))
        };
        let op = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "event has no \"op\"".to_string())?;
        let event = match op {
            "load" => ScenarioEvent::LoadShift {
                at: num("at")?,
                factor: num("factor")?,
            },
            "storm" => ScenarioEvent::Storm {
                at: num("at")?,
                duration: num("duration")?,
                factor: num("factor")?,
            },
            "storm_front" => ScenarioEvent::StormFront {
                start: num("start")?,
                period: num("period")?,
                chance: num("chance")?,
                duration: num("duration")?,
                factor: num("factor")?,
                windows: int("windows")?,
            },
            "preempt" => ScenarioEvent::Preemption {
                at: num("at")?,
                downtime: num("downtime")?,
            },
            "preemptions" => ScenarioEvent::Preemptions {
                start: num("start")?,
                mean_interval: num("mean_interval")?,
                downtime: num("downtime")?,
                count: int("count")?,
            },
            "price" => ScenarioEvent::PriceChange {
                at: num("at")?,
                factor: num("factor")?,
            },
            "diurnal" => ScenarioEvent::Diurnal {
                period: num("period")?,
                amplitude: num("amplitude")?,
                phase: num("phase")?,
            },
            other => return Err(format!("unknown scenario event op {other:?}")),
        };
        Ok(event)
    }
}

/// `Ok` when `ok` holds, otherwise the constraint's `message` as the error.
fn require(ok: bool, message: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message.to_string())
    }
}

/// A declarative, composable description of a cloud scenario: an optional base
/// interference-profile override, a VM fleet for forked sub-environments, and a
/// deterministic event timeline.
///
/// Scenarios are pure data — canonical-JSON serializable ([`to_json`](Self::to_json) /
/// [`from_json`](Self::from_json)) with a stable [`fingerprint`](Self::fingerprint),
/// like `CampaignSpec`. Execution semantics live in
/// [`ScenarioBackend`](crate::ScenarioBackend), which applies the timeline over any
/// inner [`ExecutionBackend`](dg_exec::ExecutionBackend). The built-in
/// [`pack`](Self::pack) names the standard scenarios; the [`then`](Self::then) /
/// [`overlay`](Self::overlay) / [`scale`](Self::scale) combinators synthesize new ones.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name: the label cells and reports carry (`"steady"` is the default
    /// pass-through scenario).
    pub name: String,
    /// When set, backends run under this interference profile instead of the one the
    /// caller (e.g. the campaign cell's profile axis) requested.
    pub profile: Option<InterferenceProfile>,
    /// Heterogeneous fleet: forked sub-environment `j` (a tournament region) runs at
    /// the relative hardware speed of `fleet[j % len]` instead of the root VM's. Empty
    /// means a homogeneous fleet.
    pub fleet: Vec<VmType>,
    /// The event timeline (order irrelevant; expansion sorts by time).
    pub events: Vec<ScenarioEvent>,
    /// When `true`, long operations are scaled by the load factor *integrated
    /// piecewise* over `[start, start + duration)` instead of by the factor sampled
    /// once at `start` — so an operation straddling a `LoadShift`/`Storm` boundary
    /// feels the new regime for exactly the fraction of its span it overlaps. Off by
    /// default: the sampled-at-start behaviour (and its byte-identical goldens and
    /// fingerprints) is preserved, and the flag is only serialized when set.
    pub integrate_load: bool,
    /// How strongly the load factor bites through each configuration's interference
    /// *sensitivity* instead of uniformly, in `[0, 1]`. At `0.0` (the default) load is
    /// a pure machine-level multiplier: every configuration slows down by the same
    /// factor, so a regime change can never reorder the configuration space. At `c`,
    /// an operation by a spec with sensitivity `s` is scaled by
    /// `load^((1 - c) + c * s / 0.6)` — robust configurations (low `s`) shrug storms
    /// off while fragile ones are amplified, so high-load regimes genuinely favour
    /// different champions than quiet ones (the non-stationary reordering TUNA
    /// observes on real co-located nodes). Only serialized when non-zero, so
    /// pre-existing canonical forms and fingerprints stay byte-identical.
    pub load_coupling: f64,
}

impl ScenarioSpec {
    /// A named scenario with no profile override, a homogeneous fleet, and an empty
    /// timeline — extend it by pushing events.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            profile: None,
            fleet: Vec::new(),
            events: Vec::new(),
            integrate_load: false,
            load_coupling: 0.0,
        }
    }

    /// The same scenario with piecewise load-factor integration enabled (see
    /// [`integrate_load`](Self::integrate_load)).
    pub fn with_integrated_load(mut self) -> Self {
        self.integrate_load = true;
        self
    }

    /// The same scenario with sensitivity-coupled load (see
    /// [`load_coupling`](Self::load_coupling)).
    ///
    /// # Panics
    ///
    /// Panics if `coupling` is outside `[0, 1]`.
    pub fn with_load_coupling(mut self, coupling: f64) -> Self {
        assert!(
            coupling.is_finite() && (0.0..=1.0).contains(&coupling),
            "load coupling must be in [0, 1], got {coupling}"
        );
        self.load_coupling = coupling;
        self
    }

    /// The default scenario: an unperturbed node. [`is_passthrough`](Self::is_passthrough)
    /// holds, so backends run unwrapped and results are byte-identical to scenario-less
    /// execution.
    pub fn steady() -> Self {
        Self::new("steady")
    }

    /// True when the scenario changes nothing: no profile override, no fleet, no
    /// events. Pass-through scenarios execute without a wrapper at all.
    pub fn is_passthrough(&self) -> bool {
        self.profile.is_none() && self.fleet.is_empty() && self.events.is_empty()
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty, the load coupling is outside `[0, 1]`, or any event
    /// is invalid (see [`ScenarioEvent`] field docs for the constraints).
    pub fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }

    /// The constraints [`validate`](Self::validate) enforces and
    /// [`from_value`](Self::from_value) reports, naming the first one violated.
    fn check(&self) -> Result<(), String> {
        require(!self.name.is_empty(), "scenario needs a name")?;
        if !(self.load_coupling.is_finite() && (0.0..=1.0).contains(&self.load_coupling)) {
            return Err(format!(
                "load coupling must be in [0, 1], got {}",
                self.load_coupling
            ));
        }
        self.events.iter().try_for_each(ScenarioEvent::check)
    }

    /// Sequencing combinator: this scenario's full timeline overlaid with `next`'s
    /// shifted `at` seconds later. Profile and fleet come from `self` unless unset/empty,
    /// in which case `next`'s apply.
    pub fn then(&self, at: f64, next: &ScenarioSpec) -> ScenarioSpec {
        assert!(at.is_finite() && at >= 0.0, "`then` offset must be >= 0");
        let mut combined = self.overlay(next);
        combined.name = format!("{}-then-{}", self.name, next.name);
        combined.events = self.events.clone();
        combined
            .events
            .extend(next.events.iter().map(|e| e.shifted(at)));
        combined
    }

    /// Parallel-composition combinator: both timelines apply simultaneously
    /// (load factors multiply where they overlap). Profile and fleet come from `self`
    /// unless unset/empty.
    pub fn overlay(&self, other: &ScenarioSpec) -> ScenarioSpec {
        let mut events = self.events.clone();
        events.extend(other.events.iter().cloned());
        ScenarioSpec {
            name: format!("{}+{}", self.name, other.name),
            profile: self.profile.clone().or_else(|| other.profile.clone()),
            fleet: if self.fleet.is_empty() {
                other.fleet.clone()
            } else {
                self.fleet.clone()
            },
            events,
            integrate_load: self.integrate_load || other.integrate_load,
            load_coupling: self.load_coupling.max(other.load_coupling),
        }
    }

    /// Delay combinator: the same scenario with every event arriving `dt` seconds
    /// later — the "neighbour moves in mid-flight" variant of a timeline. Unlike
    /// [`then`](Self::then) the name, profile, and fleet are preserved, so a delayed
    /// pack scenario keeps its report column.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and non-negative.
    pub fn delayed(&self, dt: f64) -> ScenarioSpec {
        assert!(dt.is_finite() && dt >= 0.0, "delay must be >= 0");
        ScenarioSpec {
            events: self.events.iter().map(|e| e.shifted(dt)).collect(),
            ..self.clone()
        }
    }

    /// Time-stretching combinator: every anchor, duration, period, and interval is
    /// multiplied by `k` (`k > 1` slows the scenario down, `k < 1` compresses it).
    /// Factors and probabilities are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not finite and strictly positive.
    pub fn scale(&self, k: f64) -> ScenarioSpec {
        assert!(k.is_finite() && k > 0.0, "time scale must be > 0");
        ScenarioSpec {
            name: format!("{}x{k}", self.name),
            profile: self.profile.clone(),
            fleet: self.fleet.clone(),
            events: self.events.iter().map(|e| e.time_scaled(k)).collect(),
            integrate_load: self.integrate_load,
            load_coupling: self.load_coupling,
        }
    }

    /// Expands the timeline for one backend's `seed` (see [`Timeline`]).
    pub fn timeline(&self, seed: u64) -> Timeline {
        Timeline::expand(self, seed)
    }

    /// The built-in scenario pack, in stable order. `steady` is first; the rest
    /// exercise the dynamic regimes TUNA and ExpoCloud identify as the hard cases:
    /// diurnal cycles, bursty neighbours, mid-run regime escalation, preemption-heavy
    /// spot fleets, heterogeneous hardware, and the two price/noise trade-off corners.
    pub fn pack() -> Vec<ScenarioSpec> {
        let mut diurnal = ScenarioSpec::new("diurnal");
        diurnal.events.push(ScenarioEvent::Diurnal {
            period: 21_600.0,
            amplitude: 0.8,
            phase: 0.0,
        });

        let mut bursty = ScenarioSpec::new("bursty-neighbor");
        bursty.events.push(ScenarioEvent::StormFront {
            start: 0.0,
            period: 3_600.0,
            chance: 0.45,
            duration: 900.0,
            factor: 1.7,
            windows: 48,
        });

        let mut regime_shift = ScenarioSpec::new("regime-shift");
        regime_shift.events.push(ScenarioEvent::LoadShift {
            at: 3_600.0,
            factor: 1.6,
        });
        regime_shift.events.push(ScenarioEvent::LoadShift {
            at: 14_400.0,
            factor: 2.2,
        });

        let mut preemption_heavy = ScenarioSpec::new("preemption-heavy");
        preemption_heavy.events.push(ScenarioEvent::Preemptions {
            start: 1_800.0,
            mean_interval: 7_200.0,
            downtime: 420.0,
            count: 24,
        });

        let mut hetero = ScenarioSpec::new("hetero-fleet");
        hetero.fleet = vec![
            VmType::M5_8xlarge,
            VmType::C5_9xlarge,
            VmType::M5Large,
            VmType::R5_8xlarge,
        ];

        let mut noisy_cheap = ScenarioSpec::new("noisy-cheap");
        noisy_cheap.profile = Some(InterferenceProfile::Heavy);
        noisy_cheap.events.push(ScenarioEvent::PriceChange {
            at: 0.0,
            factor: 0.4,
        });

        let mut quiet_expensive = ScenarioSpec::new("quiet-expensive");
        quiet_expensive.profile = Some(InterferenceProfile::Constant(0.05));
        quiet_expensive.events.push(ScenarioEvent::PriceChange {
            at: 0.0,
            factor: 2.5,
        });

        vec![
            ScenarioSpec::steady(),
            diurnal,
            bursty,
            regime_shift,
            preemption_heavy,
            hetero,
            noisy_cheap,
            quiet_expensive,
        ]
    }

    /// Looks a scenario up in the built-in [`pack`](Self::pack) by name.
    pub fn by_name(name: &str) -> Option<ScenarioSpec> {
        Self::pack().into_iter().find(|s| s.name == name)
    }

    /// Canonical JSON serialization: fixed key order, no whitespace, shortest
    /// round-trip floats. Byte-identical for identical specs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 64);
        out.push('{');
        let mut first = true;
        push_key(&mut out, &mut first, "name");
        push_str_literal(&mut out, &self.name);
        push_key(&mut out, &mut first, "profile");
        match &self.profile {
            Some(profile) => push_profile(&mut out, profile),
            None => out.push_str("null"),
        }
        push_key(&mut out, &mut first, "fleet");
        out.push('[');
        for (i, vm) in self.fleet.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_literal(&mut out, vm.name());
        }
        out.push(']');
        push_key(&mut out, &mut first, "events");
        out.push('[');
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            event.to_json(&mut out);
        }
        out.push(']');
        // Only serialized when set, so pre-existing canonical forms (and every
        // fingerprint derived from them) stay byte-identical for the default.
        if self.integrate_load {
            push_key(&mut out, &mut first, "integrate_load");
            out.push_str("true");
        }
        if self.load_coupling != 0.0 {
            push_key(&mut out, &mut first, "load_coupling");
            push_f64(&mut out, self.load_coupling);
        }
        out.push('}');
        out
    }

    /// Parses a scenario from its canonical JSON form.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, String> {
        let root = json::parse(text)?;
        Self::from_value(&root)
    }

    /// Parses a scenario from an already-parsed JSON value (used when specs embed
    /// scenarios in larger documents). A scenario that parses but breaks a constraint
    /// of [`validate`](Self::validate) is an error too.
    pub fn from_value(root: &JsonValue) -> Result<ScenarioSpec, String> {
        let name = root
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "scenario has no \"name\"".to_string())?
            .to_string();
        let profile = match root.get("profile") {
            None | Some(JsonValue::Null) => None,
            Some(value) => Some(parse_profile(value)?),
        };
        let mut fleet = Vec::new();
        for entry in root
            .get("fleet")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "scenario \"fleet\" is not an array".to_string())?
        {
            let vm_name = entry
                .as_str()
                .ok_or_else(|| "fleet entries must be VM names".to_string())?;
            fleet
                .push(VmType::from_name(vm_name).ok_or_else(|| format!("unknown VM {vm_name:?}"))?);
        }
        let mut events = Vec::new();
        for entry in root
            .get("events")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "scenario \"events\" is not an array".to_string())?
        {
            events.push(ScenarioEvent::from_value(entry)?);
        }
        let integrate_load = match root.get("integrate_load") {
            None => false,
            Some(value) => value
                .as_bool()
                .ok_or_else(|| "scenario \"integrate_load\" is not a bool".to_string())?,
        };
        let load_coupling = match root.get("load_coupling") {
            None => 0.0,
            Some(value) => value
                .number_token()
                .and_then(|t| t.parse::<f64>().ok())
                .ok_or_else(|| "scenario \"load_coupling\" is not a number".to_string())?,
        };
        let spec = ScenarioSpec {
            name,
            profile,
            fleet,
            events,
            integrate_load,
            load_coupling,
        };
        spec.check()?;
        Ok(spec)
    }

    /// A stable 64-bit fingerprint: FNV-1a over the canonical JSON form, so two specs
    /// fingerprint equal exactly when their canonical serializations are byte-identical.
    /// `CampaignSpec::fingerprint` folds these in when a campaign carries a non-default
    /// scenario axis.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_has_the_advertised_scenarios() {
        let pack = ScenarioSpec::pack();
        assert!(pack.len() >= 8, "the pack promises at least 8 scenarios");
        let names: Vec<&str> = pack.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "steady",
            "diurnal",
            "bursty-neighbor",
            "regime-shift",
            "preemption-heavy",
            "hetero-fleet",
            "noisy-cheap",
            "quiet-expensive",
        ] {
            assert!(names.contains(&expected), "pack is missing {expected}");
        }
        for scenario in &pack {
            scenario.validate();
        }
        assert!(pack[0].is_passthrough(), "steady must be pass-through");
        assert!(pack[1..].iter().all(|s| !s.is_passthrough()));
    }

    #[test]
    fn pack_scenarios_round_trip_through_canonical_json() {
        for scenario in ScenarioSpec::pack() {
            let json = scenario.to_json();
            let parsed = ScenarioSpec::from_json(&json).expect("canonical scenarios parse");
            assert_eq!(parsed, scenario);
            assert_eq!(parsed.to_json(), json, "byte-identical re-serialization");
        }
    }

    #[test]
    fn fingerprints_distinguish_the_pack() {
        let pack = ScenarioSpec::pack();
        let mut prints: Vec<u64> = pack.iter().map(ScenarioSpec::fingerprint).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), pack.len(), "pack fingerprints must be unique");
        assert_eq!(
            ScenarioSpec::steady().fingerprint(),
            ScenarioSpec::steady().fingerprint()
        );
    }

    #[test]
    fn by_name_finds_pack_members() {
        assert_eq!(
            ScenarioSpec::by_name("regime-shift").map(|s| s.name),
            Some("regime-shift".to_string())
        );
        assert_eq!(ScenarioSpec::by_name("no-such-scenario"), None);
    }

    #[test]
    fn then_shifts_the_second_timeline() {
        let a = ScenarioSpec::by_name("regime-shift").unwrap();
        let b = ScenarioSpec::by_name("preemption-heavy").unwrap();
        let combined = a.then(1_000.0, &b);
        assert_eq!(combined.name, "regime-shift-then-preemption-heavy");
        assert_eq!(combined.events.len(), a.events.len() + b.events.len());
        match combined.events.last().unwrap() {
            ScenarioEvent::Preemptions { start, .. } => assert_eq!(*start, 1_800.0 + 1_000.0),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn overlay_merges_profile_fleet_and_events() {
        let noisy = ScenarioSpec::by_name("noisy-cheap").unwrap();
        let fleet = ScenarioSpec::by_name("hetero-fleet").unwrap();
        let combined = noisy.overlay(&fleet);
        assert_eq!(combined.name, "noisy-cheap+hetero-fleet");
        assert_eq!(combined.profile, Some(InterferenceProfile::Heavy));
        assert_eq!(combined.fleet, fleet.fleet);
        assert_eq!(combined.events.len(), noisy.events.len());
    }

    #[test]
    fn scale_stretches_the_time_axis_only() {
        let scenario = ScenarioSpec::by_name("bursty-neighbor").unwrap();
        let stretched = scenario.scale(2.0);
        assert_eq!(stretched.name, "bursty-neighborx2");
        match (&scenario.events[0], &stretched.events[0]) {
            (
                ScenarioEvent::StormFront {
                    period, duration, ..
                },
                ScenarioEvent::StormFront {
                    period: period2,
                    duration: duration2,
                    chance,
                    factor,
                    ..
                },
            ) => {
                assert_eq!(*period2, period * 2.0);
                assert_eq!(*duration2, duration * 2.0);
                assert_eq!(*chance, 0.45);
                assert_eq!(*factor, 1.7);
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn shifted_diurnal_evaluates_the_original_curve_with_a_delay() {
        let diurnal = ScenarioEvent::Diurnal {
            period: 100.0,
            amplitude: 1.0,
            phase: 0.25,
        };
        let shifted = diurnal.shifted(30.0);
        match shifted {
            ScenarioEvent::Diurnal { phase, .. } => assert!((phase - (0.25 - 0.3)).abs() < 1e-12),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "factors must be finite and > 0")]
    fn zero_factor_rejected() {
        let mut scenario = ScenarioSpec::new("bad");
        scenario.events.push(ScenarioEvent::LoadShift {
            at: 0.0,
            factor: 0.0,
        });
        scenario.validate();
    }

    #[test]
    fn integrate_load_round_trips_and_defaults_stay_byte_identical() {
        // Off (the default): the canonical form must not mention the flag at all, so
        // every pre-existing golden and fingerprint stays byte-identical.
        let plain = ScenarioSpec::by_name("regime-shift").unwrap();
        assert!(!plain.integrate_load);
        assert!(!plain.to_json().contains("integrate_load"));

        // On: the flag round-trips through canonical JSON and changes the fingerprint.
        let flagged = plain.clone().with_integrated_load();
        assert!(flagged.integrate_load);
        let json = flagged.to_json();
        assert!(json.ends_with("\"integrate_load\":true}"), "{json}");
        let parsed = ScenarioSpec::from_json(&json).expect("flagged scenario parses");
        assert_eq!(parsed, flagged);
        assert_eq!(parsed.to_json(), json, "byte-identical re-serialization");
        assert_ne!(plain.fingerprint(), flagged.fingerprint());

        // The flag survives composition: overlay ORs it, scale copies it.
        let steady = ScenarioSpec::steady();
        assert!(steady.overlay(&flagged).integrate_load);
        assert!(flagged.overlay(&steady).integrate_load);
        assert!(flagged.scale(2.0).integrate_load);
        assert!(!plain.scale(2.0).integrate_load);
    }

    #[test]
    fn malformed_scenarios_are_rejected() {
        for bad in [
            "{}",
            "{\"name\":\"x\"}",
            "{\"name\":\"x\",\"profile\":null,\"fleet\":[\"t2.nano\"],\"events\":[]}",
            "{\"name\":\"x\",\"profile\":null,\"fleet\":[],\"events\":[{\"op\":\"warp\"}]}",
            "{\"name\":\"x\",\"profile\":\"mystery\",\"fleet\":[],\"events\":[]}",
            "{\"name\":\"x\",\"profile\":null,\"fleet\":[],\"events\":[],\"integrate_load\":\"yes\"}",
            // Well-formed JSON that breaks a `validate()` constraint.
            "{\"name\":\"x\",\"fleet\":[],\"events\":[{\"op\":\"load\",\"at\":-5,\"factor\":0}]}",
            "{\"name\":\"\",\"fleet\":[],\"events\":[]}",
            "{\"name\":\"x\",\"fleet\":[],\"events\":[{\"op\":\"storm\",\"at\":1e999,\"duration\":60,\"factor\":2}]}",
            "{\"name\":\"x\",\"fleet\":[],\"events\":[{\"op\":\"preempt\",\"at\":10,\"downtime\":-1}]}",
            "{\"name\":\"x\",\"fleet\":[],\"events\":[],\"load_coupling\":1.5}",
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "{bad:?} must fail");
        }
    }
}
