//! Tournament configuration and ablation switches.

/// Which design elements of the tournament are enabled.
///
/// Every switch corresponds to one bar of the Fig. 16 ablation study; the default is the
/// full DarwinGame design. The ablation benchmark drives these flags against the *same*
/// tournament code rather than separate re-implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationConfig {
    /// Play the regional phase at all (`w/o regional` when false: the global phase starts
    /// from one random player per region).
    pub regional_phase: bool,
    /// Promote only a single winner per region (`one-win regional` when true).
    pub single_regional_winner: bool,
    /// Play the regional phase in Swiss style (`w/o Swiss` when false: a single game per
    /// region decides its winners).
    pub swiss_regional: bool,
    /// Play the global phase at all (`w/o global` when false: one game among all regional
    /// winners selects the playoff players).
    pub global_phase: bool,
    /// Keep a loser bracket in the global phase (`w/o double eli.` when false).
    pub double_elimination: bool,
    /// Play the playoffs in barrage style (`w/o barrage` when false: a single game ranks
    /// the playoff players).
    pub barrage_playoffs: bool,
    /// Use the consistency score when ranking global-phase games (`w/o consistency score`
    /// when false).
    pub consistency_score: bool,
    /// Use the execution score when ranking global-phase games (`w/o exe. score` when
    /// false).
    pub execution_score: bool,
    /// Allow more than two players per game in the early phases (`all 2-player games`
    /// when false).
    pub multiplayer_games: bool,
    /// Allow early termination of games (`w/o early termination` when false).
    pub early_termination: bool,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            regional_phase: true,
            single_regional_winner: false,
            swiss_regional: true,
            global_phase: true,
            double_elimination: true,
            barrage_playoffs: true,
            consistency_score: true,
            execution_score: true,
            multiplayer_games: true,
            early_termination: true,
        }
    }
}

impl AblationConfig {
    /// The full DarwinGame design.
    pub fn full() -> Self {
        Self::default()
    }

    /// The full design followed by the ten single-element ablations of Fig. 16, each
    /// with its display name, in the paper's order. The single source of truth for the
    /// ablation example and the Fig. 16 bench, so the two can never drift apart.
    pub fn paper_variants() -> Vec<(&'static str, AblationConfig)> {
        let full = Self::full();
        vec![
            ("full DarwinGame", full),
            (
                "w/o regional",
                AblationConfig {
                    regional_phase: false,
                    ..full
                },
            ),
            (
                "one-win regional",
                AblationConfig {
                    single_regional_winner: true,
                    ..full
                },
            ),
            (
                "w/o Swiss",
                AblationConfig {
                    swiss_regional: false,
                    ..full
                },
            ),
            (
                "w/o global",
                AblationConfig {
                    global_phase: false,
                    ..full
                },
            ),
            (
                "w/o double elimination",
                AblationConfig {
                    double_elimination: false,
                    ..full
                },
            ),
            (
                "w/o barrage",
                AblationConfig {
                    barrage_playoffs: false,
                    ..full
                },
            ),
            (
                "w/o consistency score",
                AblationConfig {
                    consistency_score: false,
                    ..full
                },
            ),
            (
                "w/o execution score",
                AblationConfig {
                    execution_score: false,
                    ..full
                },
            ),
            (
                "all 2-player games",
                AblationConfig {
                    multiplayer_games: false,
                    ..full
                },
            ),
            (
                "w/o early termination",
                AblationConfig {
                    early_termination: false,
                    ..full
                },
            ),
        ]
    }
}

/// All knobs of a DarwinGame tournament.
///
/// The Fig. 5 rule's parameters are not knobs: every phase plays by
/// [`GameRules::default`] (`d` = [`WORK_DONE_DEVIATION`], the leader at
/// [`MIN_LEADER_PROGRESS`] of its work), with early termination as the ablation sets it
/// in the regional and global phases and off in the playoffs ([`GameRules::playoff`]),
/// and a region advances every player within `d` of its best.
///
/// [`GameRules::default`]: dg_exec::GameRules
/// [`GameRules::playoff`]: dg_exec::GameRules::playoff
/// [`WORK_DONE_DEVIATION`]: dg_cloudsim::WORK_DONE_DEVIATION
/// [`MIN_LEADER_PROGRESS`]: dg_cloudsim::MIN_LEADER_PROGRESS
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TournamentConfig {
    /// Number of regions the search space is divided into (`n_r`, Sec. 3.3). The paper
    /// uses 10,000 on multi-million-point spaces; reduced-scale experiments use
    /// proportionally fewer.
    pub regions: usize,
    /// Number of players that play a game together in the regional and global phases
    /// (`P`). `None` uses the VM's vCPU count, as in the paper.
    pub players_per_game: Option<usize>,
    /// Maximum number of Swiss rounds per region; a safety cap in addition to the
    /// paper's termination conditions.
    pub max_regional_rounds: usize,
    /// The global phase ends when the main bracket has at most this many players
    /// (default 3).
    pub main_bracket_target: usize,
    /// Seed controlling every random decision of the tournament.
    pub seed: u64,
    /// Run regional tournaments on parallel worker threads (one simulated VM per region
    /// either way; this only affects host-side wall-clock, not results).
    pub parallel_regions: bool,
    /// Restrict the tournament to the half-open configuration-index range
    /// `[start, end)`. `None` plays over the whole search space. Used by the hybrid
    /// integration (Sec. 3.6), where an outer tuner assigns DarwinGame one subspace at a
    /// time.
    pub search_range: Option<(u64, u64)>,
    /// Enabled/disabled design elements.
    pub ablation: AblationConfig,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        Self {
            regions: 10_000,
            players_per_game: None,
            max_regional_rounds: 8,
            main_bracket_target: 3,
            seed: 0x0da2,
            parallel_regions: true,
            search_range: None,
            ablation: AblationConfig::default(),
        }
    }
}

impl TournamentConfig {
    /// A configuration sized for reduced-scale experiments: `regions` regions and the
    /// given seed, everything else at paper defaults.
    pub fn scaled(regions: usize, seed: u64) -> Self {
        Self {
            regions,
            seed,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of its meaningful range.
    pub fn validate(&self) {
        assert!(self.regions > 0, "at least one region is required");
        assert!(self.max_regional_rounds > 0, "at least one regional round");
        assert!(
            self.main_bracket_target >= 1,
            "the main bracket must keep at least one player"
        );
        if let Some(p) = self.players_per_game {
            assert!(p >= 2, "games need at least two players");
        }
        if let Some((start, end)) = self.search_range {
            assert!(
                start < end,
                "search_range must be a non-empty half-open range"
            );
        }
    }

    /// The effective number of players per game for a VM with `vcpus` cores, honouring
    /// the `multiplayer_games` ablation.
    pub fn effective_players_per_game(&self, vcpus: usize) -> usize {
        if !self.ablation.multiplayer_games {
            return 2;
        }
        self.players_per_game.unwrap_or(vcpus).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let config = TournamentConfig::default();
        assert_eq!(config.regions, 10_000);
        assert_eq!(config.main_bracket_target, 3);
        config.validate();
    }

    #[test]
    fn effective_players_defaults_to_vcpus() {
        let config = TournamentConfig::default();
        assert_eq!(config.effective_players_per_game(32), 32);
        let mut two_player = config;
        two_player.ablation.multiplayer_games = false;
        assert_eq!(two_player.effective_players_per_game(32), 2);
        let mut fixed = config;
        fixed.players_per_game = Some(8);
        assert_eq!(fixed.effective_players_per_game(32), 8);
    }

    #[test]
    fn scaled_overrides_regions_and_seed() {
        let config = TournamentConfig::scaled(64, 99);
        assert_eq!(config.regions, 64);
        assert_eq!(config.seed, 99);
        config.validate();
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn zero_regions_rejected() {
        let config = TournamentConfig {
            regions: 0,
            ..TournamentConfig::default()
        };
        config.validate();
    }

    #[test]
    #[should_panic(expected = "at least two players")]
    fn one_player_games_rejected() {
        let config = TournamentConfig {
            players_per_game: Some(1),
            ..TournamentConfig::default()
        };
        config.validate();
    }

    #[test]
    fn full_ablation_enables_everything() {
        let ablation = AblationConfig::full();
        assert!(ablation.regional_phase && ablation.global_phase);
        assert!(ablation.consistency_score && ablation.execution_score);
        assert!(ablation.early_termination);
    }

    #[test]
    fn paper_variants_cover_every_switch_exactly_once() {
        let variants = AblationConfig::paper_variants();
        assert_eq!(variants.len(), 11, "full design + 10 ablations");
        assert_eq!(variants[0].0, "full DarwinGame");
        assert_eq!(variants[0].1, AblationConfig::full());
        // Every non-full variant differs from the full design, and all names are unique.
        let mut names: Vec<&str> = variants.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
        for (name, ablation) in variants.iter().skip(1) {
            assert_ne!(
                *ablation,
                AblationConfig::full(),
                "{name} must disable something"
            );
        }
    }
}
