//! Tunable parameters, parameter spaces, and configuration indexing.
//!
//! A *tunable parameter* can take one of a small number of discrete values ("levels").
//! The cross product of all parameters forms the *tuning search space*; one point of that
//! space is a *tuning configuration*. Following Sec. 3.3 of the paper, every point of the
//! n-dimensional space is mapped to a one-dimensional index (mixed-radix encoding), which
//! is what regions, subspaces, and the tuners operate on.

use std::fmt;

/// One tunable parameter: a name plus its discrete levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parameter {
    name: String,
    levels: Vec<String>,
}

impl Parameter {
    /// Creates a parameter with explicitly named levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn new(name: impl Into<String>, levels: Vec<String>) -> Self {
        assert!(!levels.is_empty(), "a parameter needs at least one level");
        Self {
            name: name.into(),
            levels,
        }
    }

    /// Creates a parameter with `count` generically named levels (`v0`, `v1`, …).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn with_level_count(name: impl Into<String>, count: usize) -> Self {
        assert!(count > 0, "a parameter needs at least one level");
        Self::new(name, (0..count).map(|i| format!("v{i}")).collect())
    }

    /// The parameter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of levels this parameter can take.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The textual label of level `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn level_name(&self, i: usize) -> &str {
        &self.levels[i]
    }

    /// Whether the parameter is pinned to a single value (it contributes no choice).
    pub fn is_pinned(&self) -> bool {
        self.levels.len() == 1
    }
}

impl fmt::Display for Parameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} levels)", self.name, self.levels.len())
    }
}

/// A point in the search space: one chosen level index per parameter.
pub type ConfigPoint = Vec<usize>;

/// A one-dimensional configuration index into the search space.
pub type ConfigId = u64;

/// The cross product of a set of parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParameterSpace {
    parameters: Vec<Parameter>,
}

impl ParameterSpace {
    /// Creates a space from its parameters.
    ///
    /// # Panics
    ///
    /// Panics if `parameters` is empty or if the total size overflows `u64`.
    pub fn new(parameters: Vec<Parameter>) -> Self {
        assert!(
            !parameters.is_empty(),
            "a space needs at least one parameter"
        );
        let mut size: u128 = 1;
        for p in &parameters {
            size *= p.level_count() as u128;
            assert!(
                size <= u64::MAX as u128,
                "search-space size overflows u64; reduce level counts"
            );
        }
        Self { parameters }
    }

    /// The parameters, in dimension order.
    pub fn parameters(&self) -> &[Parameter] {
        &self.parameters
    }

    /// Number of dimensions (including pinned parameters).
    pub fn dimensions(&self) -> usize {
        self.parameters.len()
    }

    /// Number of dimensions with more than one level.
    pub fn free_dimensions(&self) -> usize {
        self.parameters.iter().filter(|p| !p.is_pinned()).count()
    }

    /// Total number of configurations (the search-space size of Table 1).
    pub fn size(&self) -> u64 {
        self.parameters
            .iter()
            .map(|p| p.level_count() as u64)
            .product()
    }

    /// Decodes a 1-D index into a configuration point (mixed-radix, least significant
    /// dimension first).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.size()`.
    pub fn point_of(&self, index: ConfigId) -> ConfigPoint {
        assert!(index < self.size(), "configuration index out of range");
        let mut rest = index;
        let mut point = Vec::with_capacity(self.parameters.len());
        for p in &self.parameters {
            let base = p.level_count() as u64;
            point.push((rest % base) as usize);
            rest /= base;
        }
        point
    }

    /// Encodes a configuration point into its 1-D index.
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimensionality or any level is out of range.
    pub fn index_of(&self, point: &[usize]) -> ConfigId {
        assert_eq!(
            point.len(),
            self.parameters.len(),
            "point dimensionality mismatch"
        );
        let mut index: u64 = 0;
        let mut stride: u64 = 1;
        for (level, param) in point.iter().zip(self.parameters.iter()) {
            assert!(
                *level < param.level_count(),
                "level {} out of range for parameter {}",
                level,
                param.name()
            );
            index += *level as u64 * stride;
            stride *= param.level_count() as u64;
        }
        index
    }

    /// Human-readable description of a configuration (parameter=value pairs), skipping
    /// pinned parameters.
    pub fn describe(&self, index: ConfigId) -> String {
        let point = self.point_of(index);
        self.parameters
            .iter()
            .zip(point.iter())
            .filter(|(p, _)| !p.is_pinned())
            .map(|(p, l)| format!("{}={}", p.name(), p.level_name(*l)))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Builds a space over the given parameter names whose size approximates
    /// `target_size`.
    ///
    /// Level counts are assigned round-robin from `level_pattern` while the running
    /// product stays below the target; remaining parameters are pinned to a single level
    /// (their default value). This mirrors how the paper's search spaces combine many
    /// parameters but report a specific total size.
    ///
    /// # Panics
    ///
    /// Panics if `names` or `level_pattern` is empty, or `target_size == 0`.
    pub fn with_target_size(names: &[&str], level_pattern: &[usize], target_size: u64) -> Self {
        assert!(!names.is_empty(), "at least one parameter name required");
        assert!(!level_pattern.is_empty(), "level pattern must not be empty");
        assert!(target_size > 0, "target size must be positive");
        let mut parameters = Vec::with_capacity(names.len());
        let mut product: u64 = 1;
        for (i, name) in names.iter().enumerate() {
            let desired = level_pattern[i % level_pattern.len()].max(1) as u64;
            // Greedily take the desired level count while we remain under the target;
            // otherwise take the largest count that keeps us at or below it.
            let count = if product * desired <= target_size {
                desired
            } else {
                (target_size / product).max(1).min(desired)
            };
            product *= count;
            parameters.push(Parameter::with_level_count(*name, count as usize));
        }
        Self::new(parameters)
    }
}

impl fmt::Display for ParameterSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} parameters, {} free, {} configurations",
            self.dimensions(),
            self.free_dimensions(),
            self.size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> ParameterSpace {
        ParameterSpace::new(vec![
            Parameter::with_level_count("a", 3),
            Parameter::with_level_count("b", 2),
            Parameter::with_level_count("c", 4),
        ])
    }

    #[test]
    fn size_is_product_of_levels() {
        assert_eq!(small_space().size(), 24);
        assert_eq!(small_space().dimensions(), 3);
    }

    #[test]
    fn index_point_round_trip() {
        let space = small_space();
        for index in 0..space.size() {
            let point = space.point_of(index);
            assert_eq!(space.index_of(&point), index);
        }
    }

    #[test]
    fn points_are_unique() {
        let space = small_space();
        let mut seen = std::collections::HashSet::new();
        for index in 0..space.size() {
            assert!(seen.insert(space.point_of(index)));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        small_space().point_of(24);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dimension_point_panics() {
        small_space().index_of(&[0, 1]);
    }

    #[test]
    fn describe_skips_pinned_parameters() {
        let space = ParameterSpace::new(vec![
            Parameter::with_level_count("free", 2),
            Parameter::with_level_count("pinned", 1),
        ]);
        let description = space.describe(1);
        assert!(description.contains("free=v1"));
        assert!(!description.contains("pinned"));
    }

    #[test]
    fn with_target_size_lands_near_target() {
        let names: Vec<&str> = (0..20).map(|_| "p").collect();
        let space = ParameterSpace::with_target_size(&names, &[4, 3, 3, 2], 1_000_000);
        let size = space.size();
        assert!(
            (250_000..=1_000_000).contains(&size),
            "size {size} too far from target"
        );
        assert_eq!(space.dimensions(), 20);
    }

    #[test]
    fn with_target_size_never_exceeds_target() {
        let names: Vec<&str> = (0..30).map(|_| "p").collect();
        for target in [100u64, 5_000, 7_800_000] {
            let space = ParameterSpace::with_target_size(&names, &[4, 2, 3], target);
            assert!(space.size() <= target);
        }
    }

    #[test]
    fn parameter_display_and_levels() {
        let p = Parameter::with_level_count("hz", 4);
        assert_eq!(p.level_count(), 4);
        assert_eq!(p.level_name(2), "v2");
        assert!(!p.is_pinned());
        assert_eq!(p.to_string(), "hz (4 levels)");
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_levels_rejected() {
        Parameter::new("x", Vec::new());
    }
}
