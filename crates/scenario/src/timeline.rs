//! Deterministic expansion of a scenario's event timeline for one backend seed.

use crate::spec::{ScenarioEvent, ScenarioSpec};
use dg_cloudsim::{hash_unit, mix};

/// A storm interval: `[at, at + duration)` multiplies observed times by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StormWindow {
    at: f64,
    duration: f64,
    factor: f64,
}

/// A diurnal curve (see [`ScenarioEvent::Diurnal`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct DiurnalCurve {
    period: f64,
    amplitude: f64,
    phase: f64,
}

/// The concrete, per-seed realisation of a [`ScenarioSpec`]'s timeline.
///
/// Expansion is a pure function of `(spec, seed)`: generator events draw their
/// schedules from [`hash_unit`]/[`mix`] streams keyed by the seed and the event's
/// position, so the same scenario yields the same incidents on the same backend every
/// run, and *different* incidents on backends with different seeds (two regions of one
/// tournament fail independently, the way distinct spot instances do).
///
/// The load factor ([`load_factor`](Self::load_factor)) and price factor
/// ([`price_factor`](Self::price_factor)) are pure functions of time; preemptions are
/// the one stateful part and are consumed by
/// [`ScenarioBackend`](crate::ScenarioBackend) as its clock advances.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// `(at, factor)`, sorted by time: the persistent load level from `at` on.
    shifts: Vec<(f64, f64)>,
    storms: Vec<StormWindow>,
    diurnals: Vec<DiurnalCurve>,
    /// `(at, downtime)`, sorted by time.
    preemptions: Vec<(f64, f64)>,
    /// `(at, factor)`, sorted by time: the billing multiplier from `at` on.
    prices: Vec<(f64, f64)>,
}

/// Domain-separation tags for the generator streams.
const TAG_PREEMPT_GAP: u64 = 0x9e37_0001;
const TAG_STORM_HIT: u64 = 0x9e37_0002;
const TAG_STORM_OFFSET: u64 = 0x9e37_0003;

impl Timeline {
    /// Expands `spec` for one backend seed. Generator events at position `i` in the
    /// spec draw from streams keyed `mix(mix(seed, i), tag)`, so reordering unrelated
    /// events does not perturb a generator's schedule.
    pub fn expand(spec: &ScenarioSpec, seed: u64) -> Timeline {
        let mut timeline = Timeline {
            shifts: Vec::new(),
            storms: Vec::new(),
            diurnals: Vec::new(),
            preemptions: Vec::new(),
            prices: Vec::new(),
        };
        for (position, event) in spec.events.iter().enumerate() {
            let stream = mix(seed, position as u64);
            match event {
                ScenarioEvent::LoadShift { at, factor } => timeline.shifts.push((*at, *factor)),
                ScenarioEvent::Storm {
                    at,
                    duration,
                    factor,
                } => timeline.storms.push(StormWindow {
                    at: *at,
                    duration: *duration,
                    factor: *factor,
                }),
                ScenarioEvent::StormFront {
                    start,
                    period,
                    chance,
                    duration,
                    factor,
                    windows,
                } => {
                    for window in 0..u64::from(*windows) {
                        if hash_unit(mix(stream, TAG_STORM_HIT), window) < *chance {
                            let slack = (period - duration).max(0.0);
                            let offset = hash_unit(mix(stream, TAG_STORM_OFFSET), window) * slack;
                            timeline.storms.push(StormWindow {
                                at: start + window as f64 * period + offset,
                                duration: *duration,
                                factor: *factor,
                            });
                        }
                    }
                }
                ScenarioEvent::Preemption { at, downtime } => {
                    timeline.preemptions.push((*at, *downtime))
                }
                ScenarioEvent::Preemptions {
                    start,
                    mean_interval,
                    downtime,
                    count,
                } => {
                    let mut t = *start;
                    for draw in 0..u64::from(*count) {
                        // Gaps are uniform on [0.25, 1.75] x mean_interval, so the mean
                        // gap is exactly mean_interval.
                        let gap = mean_interval
                            * (0.25 + 1.5 * hash_unit(mix(stream, TAG_PREEMPT_GAP), draw));
                        t += gap;
                        timeline.preemptions.push((t, *downtime));
                    }
                }
                ScenarioEvent::PriceChange { at, factor } => timeline.prices.push((*at, *factor)),
                ScenarioEvent::Diurnal {
                    period,
                    amplitude,
                    phase,
                } => timeline.diurnals.push(DiurnalCurve {
                    period: *period,
                    amplitude: *amplitude,
                    phase: *phase,
                }),
            }
        }
        timeline.shifts.sort_by(|a, b| a.0.total_cmp(&b.0));
        timeline.storms.sort_by(|a, b| a.at.total_cmp(&b.at));
        timeline.preemptions.sort_by(|a, b| a.0.total_cmp(&b.0));
        timeline.prices.sort_by(|a, b| a.0.total_cmp(&b.0));
        timeline
    }

    /// True when the timeline modifies nothing at any time.
    pub fn is_empty(&self) -> bool {
        self.shifts.is_empty()
            && self.storms.is_empty()
            && self.diurnals.is_empty()
            && self.preemptions.is_empty()
            && self.prices.is_empty()
    }

    /// The ambient load factor at time `t` (seconds): the persistent level of the last
    /// load shift at or before `t` (default `1.0`), times every active storm's factor,
    /// times every diurnal curve. Observed execution times scale by this factor.
    pub fn load_factor(&self, t: f64) -> f64 {
        let mut factor = last_level(&self.shifts, t);
        for storm in &self.storms {
            if t >= storm.at && t < storm.at + storm.duration {
                factor *= storm.factor;
            }
        }
        for curve in &self.diurnals {
            let angle = 2.0 * std::f64::consts::PI * (t / curve.period + curve.phase);
            factor *= 1.0 + curve.amplitude * (1.0 - angle.cos()) / 2.0;
        }
        factor
    }

    /// The billing multiplier at time `t`: the factor of the last price change at or
    /// before `t` (default `1.0`).
    pub fn price_factor(&self, t: f64) -> f64 {
        last_level(&self.prices, t)
    }

    /// The expanded preemption schedule, `(at, downtime)` sorted by time.
    pub fn preemptions(&self) -> &[(f64, f64)] {
        &self.preemptions
    }
}

/// The level of the last `(at, level)` step at or before `t`; `1.0` before the first.
fn last_level(steps: &[(f64, f64)], t: f64) -> f64 {
    let next = steps.partition_point(|(at, _)| *at <= t);
    if next == 0 {
        1.0
    } else {
        steps[next - 1].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with(events: Vec<ScenarioEvent>) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("unit");
        spec.events = events;
        spec
    }

    #[test]
    fn empty_scenario_is_the_identity() {
        let timeline = Timeline::expand(&ScenarioSpec::steady(), 7);
        assert!(timeline.is_empty());
        for t in [0.0, 10.0, 1e6] {
            assert_eq!(timeline.load_factor(t), 1.0);
            assert_eq!(timeline.price_factor(t), 1.0);
        }
    }

    #[test]
    fn load_shifts_step_the_persistent_level() {
        let timeline = Timeline::expand(
            &spec_with(vec![
                ScenarioEvent::LoadShift {
                    at: 100.0,
                    factor: 1.5,
                },
                ScenarioEvent::LoadShift {
                    at: 200.0,
                    factor: 2.0,
                },
            ]),
            1,
        );
        assert_eq!(timeline.load_factor(99.0), 1.0);
        assert_eq!(timeline.load_factor(100.0), 1.5);
        assert_eq!(timeline.load_factor(199.0), 1.5);
        assert_eq!(timeline.load_factor(5000.0), 2.0);
    }

    #[test]
    fn storms_apply_only_inside_their_window() {
        let timeline = Timeline::expand(
            &spec_with(vec![ScenarioEvent::Storm {
                at: 50.0,
                duration: 10.0,
                factor: 3.0,
            }]),
            1,
        );
        assert_eq!(timeline.load_factor(49.0), 1.0);
        assert_eq!(timeline.load_factor(50.0), 3.0);
        assert_eq!(timeline.load_factor(59.9), 3.0);
        assert_eq!(timeline.load_factor(60.0), 1.0);
    }

    #[test]
    fn diurnal_curve_peaks_mid_period_and_returns_to_baseline() {
        let timeline = Timeline::expand(
            &spec_with(vec![ScenarioEvent::Diurnal {
                period: 100.0,
                amplitude: 1.0,
                phase: 0.0,
            }]),
            1,
        );
        assert!((timeline.load_factor(0.0) - 1.0).abs() < 1e-12);
        assert!((timeline.load_factor(50.0) - 2.0).abs() < 1e-12);
        assert!((timeline.load_factor(100.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn price_changes_step_the_billing_multiplier() {
        let timeline = Timeline::expand(
            &spec_with(vec![ScenarioEvent::PriceChange {
                at: 10.0,
                factor: 0.4,
            }]),
            1,
        );
        assert_eq!(timeline.price_factor(0.0), 1.0);
        assert_eq!(timeline.price_factor(10.0), 0.4);
        // Prices never leak into the load factor.
        assert_eq!(timeline.load_factor(20.0), 1.0);
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        let spec = spec_with(vec![ScenarioEvent::Preemptions {
            start: 0.0,
            mean_interval: 100.0,
            downtime: 5.0,
            count: 16,
        }]);
        let a = Timeline::expand(&spec, 11);
        let b = Timeline::expand(&spec, 11);
        assert_eq!(a, b, "same (spec, seed) must expand identically");
        let c = Timeline::expand(&spec, 12);
        assert_ne!(
            a.preemptions(),
            c.preemptions(),
            "different seeds must draw different schedules"
        );
        assert_eq!(a.preemptions().len(), 16);
        // Sorted, positive gaps within the documented envelope.
        let gaps: Vec<f64> = a
            .preemptions()
            .windows(2)
            .map(|w| w[1].0 - w[0].0)
            .collect();
        assert!(gaps.iter().all(|g| *g >= 25.0 - 1e-9 && *g <= 175.0 + 1e-9));
    }

    #[test]
    fn storm_front_respects_chance_bounds() {
        let always = spec_with(vec![ScenarioEvent::StormFront {
            start: 0.0,
            period: 100.0,
            chance: 1.0,
            duration: 10.0,
            factor: 2.0,
            windows: 8,
        }]);
        assert_eq!(Timeline::expand(&always, 3).storms.len(), 8);
        let never = spec_with(vec![ScenarioEvent::StormFront {
            start: 0.0,
            period: 100.0,
            chance: 0.0,
            duration: 10.0,
            factor: 2.0,
            windows: 8,
        }]);
        assert!(Timeline::expand(&never, 3).storms.is_empty());
    }
}
