//! Process-wide toggle for event emission.
//!
//! Observability is **off** by default: a bare run pays exactly one relaxed atomic
//! load per would-be event (see [`obs_active`](crate::obs_active)) and constructs
//! nothing. Two switches turn it on:
//!
//! * `DG_OBS=1` in the environment starts the process with emission enabled;
//! * [`set_obs_enabled`] flips the mode at runtime, letting benches time both modes
//!   in-process and letting tests scope instrumentation to themselves.
//!
//! Enabling the gate is necessary but not sufficient: events only flow once a sink is
//! installed too, so an enabled process with no consumer still skips all event
//! construction. Either way the gate never changes *results* — instrumentation is a
//! pure side channel, and the differential batteries pin that reports stay
//! byte-identical with it on or off.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

fn flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let on = std::env::var("DG_OBS")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        AtomicBool::new(on)
    })
}

/// True when event emission is enabled (off unless `DG_OBS=1` is set or
/// [`set_obs_enabled`]`(true)` was called). Events additionally require an installed
/// sink to flow; hot paths should check [`obs_active`](crate::obs_active) instead,
/// which folds both conditions into one load.
#[inline]
pub fn obs_enabled() -> bool {
    flag().load(Ordering::Relaxed)
}

/// Enables or disables event emission for the whole process.
///
/// Safe to flip at any point: instrumentation never changes results, so concurrent
/// readers only ever observe more or fewer events.
pub fn set_obs_enabled(enabled: bool) {
    flag().store(enabled, Ordering::Relaxed);
    crate::sink::refresh_active();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_round_trips() {
        let _guard = crate::test_gate_lock();
        let initial = obs_enabled();
        set_obs_enabled(true);
        assert!(obs_enabled());
        set_obs_enabled(false);
        assert!(!obs_enabled());
        set_obs_enabled(initial);
    }
}
