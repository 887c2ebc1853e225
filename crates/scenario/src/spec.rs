//! Declarative scenario specifications and the built-in scenario pack.

use crate::timeline::Timeline;
use dg_cloudsim::{InterferenceProfile, VmType};
use dg_exec::json::{self, fnv1a, FromJson, Node, Object, ReadError, ToJson};

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
        /// Number of windows to draw, at most 10,000.
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
        /// Number of preemptions to draw, at most 10,000.
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
    /// [`ScenarioSpec::delayed`]). Diurnal curves shift phase so the shifted curve
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

    /// Checks one event: every time anchor is finite and `>= 0`, every
    /// duration/period/interval finite and `> 0`, every factor in `(0, MAX_FACTOR]`,
    /// every diurnal amplitude in `[0, MAX_FACTOR]`, every downtime in
    /// `[0, MAX_DOWNTIME]`, every probability in `[0, 1]`, and every generator count at
    /// most [`MAX_GENERATOR_DRAWS`].
    fn check(&self) -> Result<(), String> {
        let anchor = |at: f64| require(at.is_finite() && at >= 0.0, "event time must be >= 0");
        let span = |d: f64| require(d.is_finite() && d > 0.0, "durations/periods must be > 0");
        let load = |f: f64| {
            require(
                f > 0.0 && f <= MAX_FACTOR,
                "factors must be finite and > 0, and at most 100",
            )
        };
        let outage = |d: f64| {
            require(
                (0.0..=MAX_DOWNTIME).contains(&d),
                "downtime must be >= 0, and at most 10^7 s",
            )
        };
        let draws = |n: u32| match n {
            0..=MAX_GENERATOR_DRAWS => Ok(()),
            _ => Err(format!(
                "generator counts must be <= {MAX_GENERATOR_DRAWS}, got {n}"
            )),
        };
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
                windows,
            } => {
                anchor(*start)?;
                span(*period)?;
                span(*duration)?;
                load(*factor)?;
                draws(*windows)?;
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
                count,
            } => {
                anchor(*start)?;
                span(*mean_interval)?;
                outage(*downtime)?;
                draws(*count)
            }
            ScenarioEvent::Diurnal {
                period,
                amplitude,
                phase,
            } => {
                span(*period)?;
                require(
                    (0.0..=MAX_FACTOR).contains(amplitude),
                    "amplitude must be >= 0, and at most 100",
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
}

impl ToJson for ScenarioEvent {
    fn write_json(&self, out: &mut String) {
        Object::write(out, |o| {
            o.field("op", self.op());
            match self {
                ScenarioEvent::LoadShift { at, factor }
                | ScenarioEvent::PriceChange { at, factor } => {
                    o.field("at", at).field("factor", factor)
                }
                ScenarioEvent::Storm {
                    at,
                    duration,
                    factor,
                } => o
                    .field("at", at)
                    .field("duration", duration)
                    .field("factor", factor),
                ScenarioEvent::StormFront {
                    start,
                    period,
                    chance,
                    duration,
                    factor,
                    windows,
                } => o
                    .field("start", start)
                    .field("period", period)
                    .field("chance", chance)
                    .field("duration", duration)
                    .field("factor", factor)
                    .field("windows", windows),
                ScenarioEvent::Preemption { at, downtime } => {
                    o.field("at", at).field("downtime", downtime)
                }
                ScenarioEvent::Preemptions {
                    start,
                    mean_interval,
                    downtime,
                    count,
                } => o
                    .field("start", start)
                    .field("mean_interval", mean_interval)
                    .field("downtime", downtime)
                    .field("count", count),
                ScenarioEvent::Diurnal {
                    period,
                    amplitude,
                    phase,
                } => o
                    .field("period", period)
                    .field("amplitude", amplitude)
                    .field("phase", phase),
            };
        });
    }
}

/// Each op names the keys it carries, so a stray or misspelt field is an error
/// instead of being dropped.
impl FromJson for ScenarioEvent {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        let op = node.get("op")?;
        let (event, keys): (ScenarioEvent, &[&str]) = match op.str()? {
            "load" => (
                ScenarioEvent::LoadShift {
                    at: node.read("at")?,
                    factor: node.read("factor")?,
                },
                &["op", "at", "factor"],
            ),
            "storm" => (
                ScenarioEvent::Storm {
                    at: node.read("at")?,
                    duration: node.read("duration")?,
                    factor: node.read("factor")?,
                },
                &["op", "at", "duration", "factor"],
            ),
            "storm_front" => (
                ScenarioEvent::StormFront {
                    start: node.read("start")?,
                    period: node.read("period")?,
                    chance: node.read("chance")?,
                    duration: node.read("duration")?,
                    factor: node.read("factor")?,
                    windows: node.read("windows")?,
                },
                &[
                    "op", "start", "period", "chance", "duration", "factor", "windows",
                ],
            ),
            "preempt" => (
                ScenarioEvent::Preemption {
                    at: node.read("at")?,
                    downtime: node.read("downtime")?,
                },
                &["op", "at", "downtime"],
            ),
            "preemptions" => (
                ScenarioEvent::Preemptions {
                    start: node.read("start")?,
                    mean_interval: node.read("mean_interval")?,
                    downtime: node.read("downtime")?,
                    count: node.read("count")?,
                },
                &["op", "start", "mean_interval", "downtime", "count"],
            ),
            "price" => (
                ScenarioEvent::PriceChange {
                    at: node.read("at")?,
                    factor: node.read("factor")?,
                },
                &["op", "at", "factor"],
            ),
            "diurnal" => (
                ScenarioEvent::Diurnal {
                    period: node.read("period")?,
                    amplitude: node.read("amplitude")?,
                    phase: node.read("phase")?,
                },
                &["op", "period", "amplitude", "phase"],
            ),
            other => return Err(op.error(format_args!("unknown scenario event op {other:?}"))),
        };
        node.only_keys(keys)?;
        event.check().map_err(|message| node.error(message))?;
        Ok(event)
    }
}

/// The most windows a `StormFront`, or preemptions a `Preemptions`, generator may
/// draw: 200x the pack's largest generator (48 windows). Every backend and every fork
/// expands its own timeline, so an unbounded count read from a stored scenario could
/// exhaust memory.
const MAX_GENERATOR_DRAWS: u32 = 10_000;

/// The largest load or price factor, and diurnal amplitude, a scenario may carry:
/// about 45x the pack's largest (2.2). Factors scale every observed and elapsed
/// time, and the simulator cannot step a game that starts at a clock so large that
/// adding one integration piece leaves it unchanged.
const MAX_FACTOR: f64 = 100.0;

/// The longest outage one preemption may insert, in seconds: about 115 days, for the
/// same reason as [`MAX_FACTOR`]. With at most [`MAX_GENERATOR_DRAWS`] preemptions a
/// timeline adds at most 10^11 s to the clock.
const MAX_DOWNTIME: f64 = 1e7;

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
/// [`pack`](Self::pack) names the standard scenarios; [`delayed`](Self::delayed) and
/// [`with_load_coupling`](Self::with_load_coupling) derive variants of them.
///
/// # JSON format
///
/// `name`; `profile`, a base-profile override or `null` (profiles are written as
/// `"typical"`, `"heavy"`, `"dedicated"`, `{"constant":level}` or
/// `{"custom":[base,value_amplitude,regime_scale,burst_magnitude]}`); `fleet`, VM
/// names for forked sub-environments (`[]` is homogeneous); `events`, each an object
/// whose `op` names a [`ScenarioEvent`] and whose other keys are its fields in
/// declaration order; and `load_coupling`, written only when non-zero. A key the
/// format does not name, in the scenario or in an event, is an error, and so is a
/// scenario that breaks a constraint of [`validate`](Self::validate): among them, a
/// factor or a diurnal amplitude above 100, a downtime above 10^7 s, or a generator
/// that draws more than 10,000 windows or preemptions.
///
/// ```
/// use dg_scenario::ScenarioSpec;
///
/// let text = concat!(
///     r#"{"name":"storm-season","profile":{"custom":[0.05,0.25,1,0.9]},"#,
///     r#""fleet":["m5.8xlarge","c5.9xlarge"],"events":["#,
///     r#"{"op":"load","at":3600,"factor":1.6},"#,
///     r#"{"op":"storm","at":7200,"duration":900,"factor":1.7},"#,
///     r#"{"op":"storm_front","start":0,"period":3600,"chance":0.45,"duration":900,"#,
///     r#""factor":1.7,"windows":48},"#,
///     r#"{"op":"preempt","at":1800,"downtime":420},"#,
///     r#"{"op":"preemptions","start":1800,"mean_interval":7200,"downtime":420,"count":24},"#,
///     r#"{"op":"price","at":0,"factor":0.4},"#,
///     r#"{"op":"diurnal","period":21600,"amplitude":0.8,"phase":0}],"#,
///     r#""load_coupling":0.7}"#,
/// );
/// let scenario = ScenarioSpec::from_json(text).unwrap();
/// assert_eq!(scenario.events.len(), 7);
/// assert_eq!(scenario.to_json(), text);
/// assert!(ScenarioSpec::from_json(&text.replace("\"chance\"", "\"odds\"")).is_err());
/// ```
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
            load_coupling: 0.0,
        }
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
    /// [`from_json`](Self::from_json) reports, naming the first one violated.
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

    /// Delay combinator: the same scenario with every event arriving `dt` seconds
    /// later — the "neighbour moves in mid-flight" variant of a timeline. The name,
    /// profile, and fleet are preserved, so a delayed pack scenario keeps its report
    /// column.
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
        json::object(|o| {
            o.field("name", &self.name)
                .field("profile", &self.profile)
                .array("fleet", |fleet| {
                    for vm in &self.fleet {
                        fleet.push(vm.name());
                    }
                })
                .field("events", &self.events);
            if self.load_coupling != 0.0 {
                o.field("load_coupling", &self.load_coupling);
            }
        })
    }

    /// Parses a scenario from its canonical JSON form.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, String> {
        json::decode(text)
    }

    /// A stable 64-bit fingerprint: FNV-1a over the canonical JSON form, so two specs
    /// fingerprint equal exactly when their canonical serializations are byte-identical.
    /// `CampaignSpec::fingerprint` folds these in when a campaign carries a non-default
    /// scenario axis.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.to_json())
    }
}

/// A key the schema does not name, in the scenario or in an event, is an error, and
/// so is a scenario that parses but breaks a constraint of
/// [`validate`](ScenarioSpec::validate).
impl FromJson for ScenarioSpec {
    fn from_node(node: Node<'_, '_>) -> Result<Self, ReadError> {
        node.only_keys(&["name", "profile", "fleet", "events", "load_coupling"])?;
        let fleet = node.get("fleet")?;
        let spec = ScenarioSpec {
            name: node.read("name")?,
            profile: node.read_opt::<Option<_>>("profile")?.flatten(),
            fleet: fleet
                .items()?
                .map(|entry| {
                    let name = entry.str()?;
                    VmType::from_name(name)
                        .ok_or_else(|| entry.error(format_args!("unknown VM {name:?}")))
                })
                .collect::<Result<_, _>>()?,
            events: node.read("events")?,
            load_coupling: node.read_opt("load_coupling")?.unwrap_or(0.0),
        };
        spec.check().map_err(|message| node.error(message))?;
        Ok(spec)
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
    fn delayed_shifts_generator_starts_and_keeps_the_name() {
        let spot = ScenarioSpec::by_name("preemption-heavy").unwrap();
        let late = spot.delayed(1_000.0);
        assert_eq!(late.name, spot.name);
        assert_eq!(late.events.len(), spot.events.len());
        match late.events.last().unwrap() {
            ScenarioEvent::Preemptions { start, .. } => assert_eq!(*start, 1_800.0 + 1_000.0),
            other => panic!("unexpected event {other:?}"),
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
    fn malformed_scenarios_are_rejected() {
        // Keys the schema does not name — a typo, the retired `integrate_load` option, a
        // field of another op — and a repeated key: each error names the key.
        for (bad, key) in [
            (
                "{\"name\":\"x\",\"fleet\":[],\"events\":[],\"integrate_laod\":true}",
                "integrate_laod",
            ),
            (
                "{\"name\":\"x\",\"fleet\":[],\"events\":[],\"integrate_load\":true}",
                "integrate_load",
            ),
            (
                "{\"name\":\"x\",\"fleet\":[],\"events\":[{\"op\":\"load\",\"at\":0,\"factor\":2,\"duration\":9}]}",
                "duration",
            ),
            (
                "{\"name\":\"a\",\"name\":\"b\",\"fleet\":[],\"events\":[]}",
                "name",
            ),
        ] {
            let err = ScenarioSpec::from_json(bad).expect_err(bad);
            assert!(err.contains(key), "{bad:?} failed with {err:?}");
        }
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
            // Generators past the draw bound.
            "{\"name\":\"x\",\"fleet\":[],\"events\":[{\"op\":\"preemptions\",\"start\":0,\"mean_interval\":60,\"downtime\":5,\"count\":4294967295}]}",
            "{\"name\":\"x\",\"fleet\":[],\"events\":[{\"op\":\"storm_front\",\"start\":0,\"period\":60,\"chance\":0.5,\"duration\":10,\"factor\":2,\"windows\":10001}]}",
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "{bad:?} must fail");
        }
        let at_bound = "{\"name\":\"x\",\"fleet\":[],\"events\":[{\"op\":\"storm_front\",\"start\":0,\"period\":60,\"chance\":0.5,\"duration\":10,\"factor\":2,\"windows\":10000}]}";
        assert!(ScenarioSpec::from_json(at_bound).is_ok());
    }
}
