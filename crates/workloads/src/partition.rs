//! Partitioning of the 1-D configuration index space into regions and subspaces.
//!
//! DarwinGame's regional phase divides the search space into `n_r` regions of equal size
//! (Sec. 3.3); the hybrid integration of Sec. 3.6 divides it into coarser *subspaces*
//! that an outer tuner navigates. Both are contiguous partitions of the index space and
//! share this implementation.

use crate::param::ConfigId;
use dg_cloudsim::SimRng;
use std::ops::Range;

/// A contiguous, equal-sized partition of the configuration index space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexPartition {
    total: u64,
    parts: usize,
}

impl IndexPartition {
    /// Partitions `total` configurations into `parts` contiguous pieces.
    ///
    /// If `parts > total`, the number of parts is clamped to `total` so that no part is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0` or `parts == 0`.
    pub fn new(total: u64, parts: usize) -> Self {
        assert!(total > 0, "cannot partition an empty space");
        assert!(parts > 0, "at least one part is required");
        let parts = (parts as u64).min(total) as usize;
        Self { total, parts }
    }

    /// Total number of configurations covered.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The index range covered by part `i`.
    ///
    /// Parts differ in size by at most one configuration.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.parts()`.
    pub fn range(&self, i: usize) -> Range<ConfigId> {
        assert!(i < self.parts, "part index out of range");
        let parts = self.parts as u64;
        let i = i as u64;
        let base = self.total / parts;
        let remainder = self.total % parts;
        // The first `remainder` parts get one extra element.
        let start = i * base + i.min(remainder);
        let len = base + u64::from(i < remainder);
        start..start + len
    }

    /// Number of configurations in part `i`.
    pub fn part_size(&self, i: usize) -> u64 {
        let r = self.range(i);
        r.end - r.start
    }

    /// The part that contains configuration `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total()`.
    pub fn part_of(&self, index: ConfigId) -> usize {
        assert!(index < self.total, "configuration index out of range");
        let parts = self.parts as u64;
        let base = self.total / parts;
        let remainder = self.total % parts;
        let big_region_span = (base + 1) * remainder;
        let part = if index < big_region_span {
            index / (base + 1)
        } else {
            remainder + (index - big_region_span) / base
        };
        part as usize
    }

    /// Draws a uniformly random configuration index from part `i`.
    pub fn sample(&self, i: usize, rng: &mut SimRng) -> ConfigId {
        let range = self.range(i);
        let span = range.end - range.start;
        range.start + (rng.uniform() * span as f64) as u64
    }

    /// Draws `count` distinct configuration indices from part `i` (or the whole part if
    /// it has fewer than `count` configurations).
    ///
    /// Indices are drawn uniformly with rejection of repeats and come back in ascending
    /// order. The part holds more than `count` configurations, so while fewer than
    /// `count` are picked one is still free and the rejection loop ends. Repeats are
    /// rejected with a bitset over the part, one bit per configuration, which is read out
    /// in ascending order at the end: `span / 64` words, 9 for a 531-config region of the
    /// full Redis space cut into 10,000 regions, and 83k for a one-region tournament on
    /// that whole space.
    pub fn sample_distinct(&self, i: usize, count: usize, rng: &mut SimRng) -> Vec<ConfigId> {
        let range = self.range(i);
        let span = range.end - range.start;
        if span <= count as u64 {
            return range.collect();
        }
        let mut taken = vec![0u64; span.div_ceil(64) as usize];
        let mut picked = 0usize;
        while picked < count {
            // `sample`'s draw, relative to the part's start.
            let offset = (rng.uniform() * span as f64) as u64;
            let (word, bit) = ((offset / 64) as usize, 1 << (offset % 64));
            if taken[word] & bit == 0 {
                taken[word] |= bit;
                picked += 1;
            }
        }
        let mut chosen: Vec<ConfigId> = Vec::with_capacity(count);
        for (word, bits) in (0u64..).zip(&taken) {
            let mut bits = *bits;
            while bits != 0 {
                chosen.push(range.start + word * 64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_space_without_overlap() {
        let partition = IndexPartition::new(103, 10);
        let mut covered = 0u64;
        let mut previous_end = 0u64;
        for i in 0..partition.parts() {
            let r = partition.range(i);
            assert_eq!(r.start, previous_end, "parts must be contiguous");
            covered += r.end - r.start;
            previous_end = r.end;
        }
        assert_eq!(covered, 103);
        assert_eq!(previous_end, 103);
    }

    #[test]
    fn part_sizes_differ_by_at_most_one() {
        let partition = IndexPartition::new(1_000_003, 97);
        let sizes: Vec<u64> = (0..97).map(|i| partition.part_size(i)).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn part_of_is_inverse_of_range() {
        let partition = IndexPartition::new(517, 13);
        for i in 0..partition.parts() {
            for index in partition.range(i) {
                assert_eq!(partition.part_of(index), i, "index {index}");
            }
        }
    }

    #[test]
    fn more_parts_than_elements_is_clamped() {
        let partition = IndexPartition::new(5, 20);
        assert_eq!(partition.parts(), 5);
        for i in 0..5 {
            assert_eq!(partition.part_size(i), 1);
        }
    }

    #[test]
    fn samples_stay_inside_part() {
        let partition = IndexPartition::new(10_000, 25);
        let mut rng = SimRng::new(3);
        for i in [0usize, 7, 24] {
            let range = partition.range(i);
            for _ in 0..200 {
                let s = partition.sample(i, &mut rng);
                assert!(range.contains(&s));
            }
        }
    }

    #[test]
    fn sample_distinct_returns_unique_indices() {
        let partition = IndexPartition::new(10_000, 10);
        let mut rng = SimRng::new(4);
        let samples = partition.sample_distinct(3, 32, &mut rng);
        assert_eq!(samples.len(), 32);
        let unique: std::collections::BTreeSet<_> = samples.iter().collect();
        assert_eq!(unique.len(), 32);
        let range = partition.range(3);
        assert!(samples.iter().all(|s| range.contains(s)));
    }

    #[test]
    fn sample_distinct_small_part_returns_everything() {
        let partition = IndexPartition::new(64, 16); // 4 configs per part
        let mut rng = SimRng::new(5);
        let samples = partition.sample_distinct(2, 10, &mut rng);
        assert_eq!(samples.len(), 4);
    }

    /// `sample_distinct` as a textbook: the same rejection sampling into a `BTreeSet`.
    fn sample_distinct_with_a_set(
        partition: &IndexPartition,
        i: usize,
        count: usize,
        rng: &mut SimRng,
    ) -> Vec<ConfigId> {
        let range = partition.range(i);
        let span = (range.end - range.start) as usize;
        if span <= count {
            return range.collect();
        }
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < count {
            chosen.insert(partition.sample(i, rng));
        }
        chosen.into_iter().collect()
    }

    /// Asserts `sample_distinct` and the set version pick the same indices from part
    /// `part` of `partition` and make the same number of draws.
    fn assert_sampling_matches_the_set_version(
        partition: &IndexPartition,
        part: usize,
        count: usize,
        seed: u64,
        label: &str,
    ) {
        let (mut bitset_rng, mut set_rng) = (SimRng::new(seed), SimRng::new(seed));
        let got = partition.sample_distinct(part, count, &mut bitset_rng);
        let want = sample_distinct_with_a_set(partition, part, count, &mut set_rng);
        assert_eq!(got, want, "{label}");
        assert_eq!(
            bitset_rng.next_u64(),
            set_rng.next_u64(),
            "{label}: the two made different numbers of draws"
        );
    }

    #[test]
    fn bitset_sampling_matches_the_set_version() {
        let mut picker = SimRng::new(0x6a).derive("sample-distinct-battery");
        for case in 0..2_000 {
            let count = 1 + picker.index(72);
            // Parts from just one configuration more than `count` up to ~10^4 times it,
            // log-uniformly, so near-full parts with many rejections are common.
            let span = ((count + 1) as f64 * 1e4f64.powf(picker.uniform())) as u64;
            let parts = 1 + picker.index(4);
            let partition = IndexPartition::new(span * parts as u64, parts);
            let part = picker.index(parts);
            let label = format!("case {case}: count {count}, span {span}");
            assert_sampling_matches_the_set_version(
                &partition,
                part,
                count,
                picker.next_u64(),
                &label,
            );
        }
        // Every small span, asking for one fewer than the part holds, all of it and one
        // more; the middle part of three, so the part does not start at 0.
        for span in 1..=200u64 {
            let partition = IndexPartition::new(3 * span, 3);
            for count in [span - 1, span, span + 1] {
                let label = format!("span {span}, count {count}");
                let seed = picker.next_u64();
                assert_sampling_matches_the_set_version(
                    &partition,
                    1,
                    count as usize,
                    seed,
                    &label,
                );
            }
        }
        // The paper's regions: the full 5,308,416-config Redis space cut into 10,000
        // regions of 531 and 530 configurations, 72 candidates each.
        let partition = IndexPartition::new(5_308_416, 10_000);
        assert_eq!(partition.part_size(0), 531);
        assert_eq!(partition.part_size(9_999), 530);
        for region in (0..10_000).step_by(7).chain([9_999]) {
            let label = format!("paper region {region}");
            let seed = picker.next_u64();
            assert_sampling_matches_the_set_version(&partition, region, 72, seed, &label);
        }
    }

    #[test]
    #[should_panic(expected = "empty space")]
    fn empty_space_rejected() {
        IndexPartition::new(0, 4);
    }
}
