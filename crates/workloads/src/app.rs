//! The four evaluated applications and their Table 1 parameter spaces.

use crate::param::ParameterSpace;
use crate::surface::SurfaceConfig;
use std::fmt;

/// The system-level parameters shared by every application (Table 1, right column).
pub const SYSTEM_LEVEL_PARAMETERS: [&str; 18] = [
    "processor-affinity",
    "io-scheduler",
    "read-ahead",
    "vm.swappiness",
    "vm.dirty_ratio",
    "vm.overcommit_memory",
    "vm.overcommit_ratio",
    "vm.dirty_background_ratio",
    "vm.dirty_expire_centisecs",
    "kernel.sched_migration_cost_ns",
    "kernel.timer_migration",
    "kernel.sched_autogroup_enabled",
    "kernel.sched_min_granularity_ns",
    "kernel.sched_wakeup_granularity_ns",
    "kernel.sched_rr_timeslice_ms",
    "kernel.sched_rt_period_us",
    "kernel.sched_rt_runtime_us",
    "kernel.sched_latency_ns",
];

/// Redis application-level parameters (Table 1).
pub const REDIS_PARAMETERS: [&str; 18] = [
    "tcp-backlog",
    "rdbcompression",
    "rdbchecksum",
    "maxmemory",
    "maxmemory-policy",
    "appendonly",
    "appendfsync",
    "no-appendfsync-on-rewrite",
    "auto-aof-rewrite-percentage",
    "auto-aof-rewrite-min-size",
    "lazyfree-lazy-eviction",
    "lazyfree-lazy-expire",
    "lazyfree-lazy-server-del",
    "hz",
    "dynamic-hz",
    "active-defrag",
    "active-defrag-threshold-upper",
    "active-defrag-cycle-max",
];

/// GROMACS application-level parameters (Table 1).
pub const GROMACS_PARAMETERS: [&str; 6] = [
    "integrator",
    "nstlist",
    "ns_type",
    "fourier_spacing",
    "cutoff-scheme",
    "coulombtype",
];

/// FFmpeg application-level (compilation) parameters (Table 1).
pub const FFMPEG_PARAMETERS: [&str; 14] = [
    "opt-level",
    "function-inlining",
    "vectorization",
    "vectorization-cost",
    "prefetching",
    "loop-unrolling",
    "link-time-optimization",
    "stack-realignment",
    "ffast-math",
    "fomit-frame-pointer",
    "fstrict-aliasing",
    "floop-block",
    "floop-interchange",
    "floop-strip-mine",
];

/// LAMMPS application-level parameters (Table 1).
pub const LAMMPS_PARAMETERS: [&str; 6] = [
    "neighbor-skin-distance",
    "neighbor-list-build-frequency",
    "timestep",
    "output-frequency",
    "integrator",
    "cutoff-distance",
];

/// One of the four applications evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Application {
    /// Redis 6.0 serving one million requests.
    Redis,
    /// GROMACS with the water-cut benchmark.
    Gromacs,
    /// FFmpeg transcoding a 10 GB H.264 video (compilation-flag tuning).
    Ffmpeg,
    /// LAMMPS molecular dynamics.
    Lammps,
}

impl Application {
    /// All evaluated applications, in the order the paper's figures use.
    pub const ALL: [Application; 4] = [
        Application::Redis,
        Application::Gromacs,
        Application::Ffmpeg,
        Application::Lammps,
    ];

    /// The application name as printed in figures.
    pub fn name(&self) -> &'static str {
        match self {
            Application::Redis => "Redis",
            Application::Gromacs => "GROMACS",
            Application::Ffmpeg => "FFmpeg",
            Application::Lammps => "LAMMPS",
        }
    }

    /// The search-space size reported in Table 1.
    pub fn paper_search_space_size(&self) -> u64 {
        match self {
            Application::Redis => 7_800_000,
            Application::Gromacs => 3_800_000,
            Application::Ffmpeg => 6_100_000,
            Application::Lammps => 4_400_000,
        }
    }

    /// Application-level parameter names from Table 1.
    pub fn application_parameters(&self) -> &'static [&'static str] {
        match self {
            Application::Redis => &REDIS_PARAMETERS,
            Application::Gromacs => &GROMACS_PARAMETERS,
            Application::Ffmpeg => &FFMPEG_PARAMETERS,
            Application::Lammps => &LAMMPS_PARAMETERS,
        }
    }

    /// Builds the full Table 1 parameter space (application-level + system-level
    /// parameters) with a total size close to the paper's reported size.
    pub fn parameter_space(&self) -> ParameterSpace {
        let mut names: Vec<&str> = self.application_parameters().to_vec();
        names.extend_from_slice(&SYSTEM_LEVEL_PARAMETERS);
        ParameterSpace::with_target_size(&names, &[4, 2, 3, 2], self.paper_search_space_size())
    }

    /// Reduced-scale parameter space for fast experiments: same parameter names, but the
    /// size is capped at `max_size`. Used by the benchmark harnesses so that a full
    /// tournament finishes in seconds rather than hours.
    pub fn scaled_parameter_space(&self, max_size: u64) -> ParameterSpace {
        let mut names: Vec<&str> = self.application_parameters().to_vec();
        names.extend_from_slice(&SYSTEM_LEVEL_PARAMETERS);
        ParameterSpace::with_target_size(
            &names,
            &[4, 2, 3, 2],
            max_size.min(self.paper_search_space_size()),
        )
    }

    /// Default performance-surface knobs for this application.
    ///
    /// The `best_time`/`worst_time` bounds are read off the paper's figures (Fig. 1 for
    /// Redis; Fig. 10's axes for the others); they set the scale of every reproduced
    /// experiment.
    pub fn surface_config(&self) -> SurfaceConfig {
        match self {
            Application::Redis => SurfaceConfig {
                best_time: 230.0,
                worst_time: 792.0,
                fast_fraction: 0.05,
                cluster_fraction: 0.003,
                max_sensitivity: 1.1,
                min_sensitivity: 0.15,
                robust_fraction: 0.02,
            },
            Application::Gromacs => SurfaceConfig {
                best_time: 1350.0,
                worst_time: 4200.0,
                fast_fraction: 0.04,
                cluster_fraction: 0.003,
                max_sensitivity: 1.0,
                min_sensitivity: 0.12,
                robust_fraction: 0.02,
            },
            Application::Ffmpeg => SurfaceConfig {
                best_time: 195.0,
                worst_time: 640.0,
                fast_fraction: 0.05,
                cluster_fraction: 0.003,
                max_sensitivity: 1.2,
                min_sensitivity: 0.18,
                robust_fraction: 0.02,
            },
            Application::Lammps => SurfaceConfig {
                best_time: 1080.0,
                worst_time: 3400.0,
                fast_fraction: 0.04,
                cluster_fraction: 0.003,
                max_sensitivity: 1.0,
                min_sensitivity: 0.14,
                robust_fraction: 0.02,
            },
        }
    }

    /// The deterministic seed used to generate this application's surface, so that every
    /// crate and bench sees the same synthetic application.
    pub fn surface_seed(&self) -> u64 {
        match self {
            Application::Redis => 0x4ed1,
            Application::Gromacs => 0x6410,
            Application::Ffmpeg => 0x0ff3,
            Application::Lammps => 0x1a33,
        }
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_applications() {
        assert_eq!(Application::ALL.len(), 4);
        assert_eq!(Application::Redis.name(), "Redis");
    }

    #[test]
    fn full_spaces_approach_paper_sizes() {
        for app in Application::ALL {
            let space = app.parameter_space();
            let size = space.size();
            let target = app.paper_search_space_size();
            assert!(size <= target, "{app}: {size} > {target}");
            assert!(
                size as f64 >= target as f64 * 0.2,
                "{app}: generated size {size} too far below the paper's {target}"
            );
        }
    }

    #[test]
    fn spaces_include_system_parameters() {
        let space = Application::Redis.parameter_space();
        let names: Vec<&str> = space.parameters().iter().map(|p| p.name()).collect();
        assert!(names.contains(&"vm.swappiness"));
        assert!(names.contains(&"hz"));
        assert_eq!(names.len(), 18 + 18);
    }

    #[test]
    fn scaled_space_respects_cap() {
        let space = Application::Gromacs.scaled_parameter_space(50_000);
        assert!(space.size() <= 50_000);
        assert!(space.size() > 5_000);
    }

    #[test]
    fn surface_configs_are_valid() {
        for app in Application::ALL {
            app.surface_config().validate();
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Application::Lammps.to_string(), "LAMMPS");
    }
}
