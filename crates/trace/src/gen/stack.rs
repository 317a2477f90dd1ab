//! LRU-stack data-reference generator.

use crate::gen::PowerLawSampler;
use crate::record::{AccessKind, TraceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`StackModel`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StackConfig {
    /// Size in bytes of one memory region (the granularity of the LRU
    /// stack). Must be a power of two and at least `access_size`.
    pub region_size: u64,
    /// Size in bytes of one access (word size). Must be a power of two.
    pub access_size: u64,
    /// Probability that a reference touches a brand-new region (compulsory
    /// traffic) rather than re-visiting the stack.
    pub p_new_region: f64,
    /// Probability that consecutive references within a region continue a
    /// sequential run rather than jumping to a random offset.
    pub p_sequential: f64,
    /// Power-law exponent for the stack-distance distribution.
    pub theta: f64,
    /// Maximum number of regions remembered on the stack; older regions fall
    /// off the end (they can only return as "new" allocations).
    pub max_stack: usize,
    /// Fraction of data references that are writes.
    pub write_fraction: f64,
    /// Probability that a new region is allocated adjacent to the previous
    /// allocation (sequential data structures) rather than at a random
    /// location in the data segment.
    pub p_adjacent_alloc: f64,
    /// Size in bytes of the process data segment from which random
    /// allocations are drawn.
    pub data_segment: u64,
}

impl StackConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.region_size.is_power_of_two() {
            return Err(format!(
                "region_size {} is not a power of two",
                self.region_size
            ));
        }
        if !self.access_size.is_power_of_two() {
            return Err(format!(
                "access_size {} is not a power of two",
                self.access_size
            ));
        }
        if self.access_size > self.region_size {
            return Err("access_size exceeds region_size".into());
        }
        for (name, p) in [
            ("p_new_region", self.p_new_region),
            ("p_sequential", self.p_sequential),
            ("write_fraction", self.write_fraction),
            ("p_adjacent_alloc", self.p_adjacent_alloc),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} is not a probability"));
            }
        }
        if self.max_stack == 0 {
            return Err("max_stack must be positive".into());
        }
        if self.data_segment < self.region_size {
            return Err("data_segment smaller than one region".into());
        }
        Ok(())
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            region_size: 64,
            access_size: 4,
            p_new_region: 0.005,
            p_sequential: 0.72,
            theta: 1.95,
            max_stack: 8192,
            write_fraction: 0.32,
            p_adjacent_alloc: 0.6,
            data_segment: 1 << 24,
        }
    }
}

/// Generates data references with power-law temporal locality and
/// run-based spatial locality.
///
/// The model keeps an explicit LRU stack of recently touched regions. Each
/// reference either allocates a new region (with probability
/// `p_new_region`) or re-references the region at a power-law-distributed
/// stack depth, moving it to the top. Within the current region, references
/// form sequential word runs with random restarts.
///
/// A re-reference costs O(sampled depth) plus the one `powf` of its depth
/// draw (see [`PowerLawSampler`]): moving the entry at depth `d` to the top
/// shifts only the `d - 1` entries above it, and with the paper-like
/// exponents the sampled depth is almost always below ten. A new region
/// costs O(stack length), for the scan that keeps the stack duplicate-free
/// and the shift that puts it on top, but new regions are a small fraction
/// (`p_new_region`) of references.
///
/// # Example
///
/// ```
/// use seta_trace::gen::{StackConfig, StackModel};
///
/// let mut model = StackModel::new(StackConfig::default(), 0x1000_0000, 7).unwrap();
/// let r = model.next_record();
/// assert!(r.addr >= 0x1000_0000);
/// ```
#[derive(Debug)]
pub struct StackModel {
    config: StackConfig,
    base: u64,
    rng: StdRng,
    sampler: PowerLawSampler,
    /// LRU stack of `(region number, resume offset)` pairs (regions
    /// relative to `base`), most recent first, never longer than
    /// `max_stack`. The offset remembers where the last sequential run
    /// through the region stopped, so returning to a region re-touches the
    /// same words — real data structures are re-read from the same fields,
    /// which is what gives programs their word-level (not just
    /// region-level) reuse.
    stack: Vec<(u64, u64)>,
    /// Next sequential region number to allocate.
    alloc_cursor: u64,
    /// Current offset within the top-of-stack region for sequential runs.
    run_offset: u64,
}

impl StackModel {
    /// Creates a model with its own deterministic RNG.
    ///
    /// `base` is the lowest address of the process data segment.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid (see
    /// [`StackConfig::validate`]).
    pub fn new(config: StackConfig, base: u64, seed: u64) -> Result<Self, String> {
        config.validate()?;
        let sampler = PowerLawSampler::new(config.theta);
        Ok(StackModel {
            config,
            base,
            rng: StdRng::seed_from_u64(seed),
            sampler,
            stack: Vec::new(),
            alloc_cursor: 0,
            run_offset: 0,
        })
    }

    /// The configuration this model runs with.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Number of distinct regions currently remembered.
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }

    fn regions_in_segment(&self) -> u64 {
        self.config.data_segment / self.config.region_size
    }

    fn allocate_region(&mut self) -> u64 {
        let region = if self.alloc_cursor == 0 || !self.rng.gen_bool(self.config.p_adjacent_alloc) {
            self.rng.gen_range(0..self.regions_in_segment())
        } else {
            (self.alloc_cursor + 1) % self.regions_in_segment()
        };
        self.alloc_cursor = region;
        region
    }

    /// Puts `entry` on top of the stack in place of the entry at `pos`,
    /// shifting the `pos` entries above it down one place: O(`pos`), not
    /// O(stack length).
    fn move_to_front(&mut self, pos: usize, entry: (u64, u64)) {
        self.stack.copy_within(..pos, 1);
        self.stack[0] = entry;
    }

    /// Produces the next data reference.
    pub fn next_record(&mut self) -> TraceRecord {
        let take_new = self.stack.is_empty() || self.rng.gen_bool(self.config.p_new_region);
        let region = if take_new {
            let r = self.allocate_region();
            // A "new" region may coincidentally already be on the stack
            // (regions wrap around the data segment); promote that entry so
            // the stack stays a set. Otherwise the region enters at the
            // bottom, displacing the oldest entry once the stack is full.
            let pos = match self.stack.iter().position(|&(x, _)| x == r) {
                Some(pos) => pos,
                None if self.stack.len() < self.config.max_stack => {
                    self.stack.push((r, 0));
                    self.stack.len() - 1
                }
                None => self.stack.len() - 1,
            };
            self.move_to_front(pos, (r, 0));
            self.run_offset = 0;
            r
        } else {
            let depth = self.sampler.sample(&mut self.rng, self.stack.len());
            let (r, resume) = self.stack[depth - 1];
            self.move_to_front(depth - 1, (r, resume));
            if depth != 1 {
                // Returning to an older region resumes its run where it
                // stopped, re-touching the words it used before.
                self.run_offset = resume;
            }
            r
        };

        // Advance the sequential run within the region, or restart it.
        // Both sizes are validated powers of two: a shift divides and a
        // mask takes the remainder.
        if !self.rng.gen_bool(self.config.p_sequential) {
            let words = self.config.region_size >> self.config.access_size.trailing_zeros();
            self.run_offset = self.rng.gen_range(0..words) * self.config.access_size;
        }
        let addr = self.base + region * self.config.region_size + self.run_offset;
        self.run_offset =
            (self.run_offset + self.config.access_size) & (self.config.region_size - 1);
        self.stack[0].1 = self.run_offset;

        let kind = if self.rng.gen_bool(self.config.write_fraction) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        TraceRecord::new(addr, kind)
    }
}

impl Iterator for StackModel {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn model(seed: u64) -> StackModel {
        StackModel::new(StackConfig::default(), 0x4000_0000, seed).unwrap()
    }

    #[test]
    fn addresses_stay_in_data_segment() {
        let mut m = model(1);
        let cfg = m.config().clone();
        for _ in 0..10_000 {
            let r = m.next_record();
            assert!(r.addr >= 0x4000_0000);
            assert!(r.addr < 0x4000_0000 + cfg.data_segment);
            assert_eq!(r.addr % cfg.access_size, 0, "addresses are word aligned");
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut m = model(2);
        let writes = (0..20_000)
            .filter(|_| m.next_record().kind.is_write())
            .count();
        let frac = writes as f64 / 20_000.0;
        assert!((frac - 0.32).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn exhibits_temporal_locality() {
        // Most references should land in a small set of hot regions.
        let mut m = model(3);
        let region = |a: u64| a / 64;
        let refs: Vec<u64> = (0..20_000).map(|_| region(m.next_record().addr)).collect();
        let unique: HashSet<_> = refs.iter().collect();
        assert!(
            unique.len() < refs.len() / 5,
            "{} unique regions out of {}",
            unique.len(),
            refs.len()
        );
    }

    #[test]
    fn exhibits_spatial_locality() {
        let mut m = model(4);
        let mut prev = m.next_record().addr;
        let mut near = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let a = m.next_record().addr;
            if a.abs_diff(prev) <= 64 {
                near += 1;
            }
            prev = a;
        }
        // Depth-1 re-references plus in-region runs should make a sizable
        // fraction of references land near the previous one.
        assert!(
            near as f64 / n as f64 > 0.25,
            "only {near}/{n} near-previous references"
        );
    }

    #[test]
    fn stack_never_exceeds_max() {
        let cfg = StackConfig {
            max_stack: 16,
            p_new_region: 0.5,
            ..StackConfig::default()
        };
        let mut m = StackModel::new(cfg, 0, 5).unwrap();
        for _ in 0..2_000 {
            m.next_record();
            assert!(m.stack_len() <= 16);
        }
    }

    #[test]
    fn stack_holds_distinct_regions() {
        // A tiny data segment forces wrap-around collisions.
        let cfg = StackConfig {
            data_segment: 1 << 12,
            p_new_region: 0.3,
            ..StackConfig::default()
        };
        let mut m = StackModel::new(cfg, 0, 6).unwrap();
        for _ in 0..5_000 {
            m.next_record();
            let set: HashSet<_> = m.stack.iter().map(|&(r, _)| r).collect();
            assert_eq!(set.len(), m.stack.len(), "stack contains duplicates");
        }
    }

    /// The textbook LRU-stack update, kept as an oracle: remove the entry,
    /// re-insert it at the top, truncate to `max_stack`. Draws from its RNG
    /// in the same order as [`StackModel::next_record`].
    struct Reference {
        config: StackConfig,
        base: u64,
        rng: StdRng,
        sampler: PowerLawSampler,
        stack: Vec<(u64, u64)>,
        alloc_cursor: u64,
        run_offset: u64,
    }

    impl Reference {
        fn new(config: StackConfig, base: u64, seed: u64) -> Self {
            Reference {
                sampler: PowerLawSampler::new(config.theta),
                config,
                base,
                rng: StdRng::seed_from_u64(seed),
                stack: Vec::new(),
                alloc_cursor: 0,
                run_offset: 0,
            }
        }

        fn next_record(&mut self) -> TraceRecord {
            let c = &self.config;
            let take_new = self.stack.is_empty() || self.rng.gen_bool(c.p_new_region);
            let region = if take_new {
                let regions = c.data_segment / c.region_size;
                let r = if self.alloc_cursor == 0 || !self.rng.gen_bool(c.p_adjacent_alloc) {
                    self.rng.gen_range(0..regions)
                } else {
                    (self.alloc_cursor + 1) % regions
                };
                self.alloc_cursor = r;
                if let Some(pos) = self.stack.iter().position(|&(x, _)| x == r) {
                    self.stack.remove(pos);
                }
                self.stack.insert(0, (r, 0));
                self.run_offset = 0;
                r
            } else {
                let depth = self.sampler.sample(&mut self.rng, self.stack.len());
                let (r, resume) = self.stack.remove(depth - 1);
                self.stack.insert(0, (r, resume));
                if depth != 1 {
                    self.run_offset = resume;
                }
                r
            };
            self.stack.truncate(c.max_stack);
            if !self.rng.gen_bool(c.p_sequential) {
                let words = c.region_size / c.access_size;
                self.run_offset = self.rng.gen_range(0..words) * c.access_size;
            }
            let addr = self.base + region * c.region_size + self.run_offset;
            self.run_offset = (self.run_offset + c.access_size) % c.region_size;
            self.stack[0].1 = self.run_offset;
            let kind = if self.rng.gen_bool(c.write_fraction) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            TraceRecord::new(addr, kind)
        }
    }

    #[test]
    fn move_to_front_matches_remove_insert_reference() {
        // A 16-region segment under an 8-entry stack: allocations collide
        // with resident regions (the promote path) and overflow the stack
        // (the displace-the-oldest path) constantly.
        for (seed, theta) in [(1u64, 1.95), (2, 1.0), (3, 0.3)] {
            let cfg = StackConfig {
                data_segment: 16 * 64,
                max_stack: 8,
                p_new_region: 0.4,
                theta,
                ..StackConfig::default()
            };
            let mut model = StackModel::new(cfg.clone(), 0x100, seed).unwrap();
            let mut oracle = Reference::new(cfg, 0x100, seed);
            for step in 0..20_000 {
                assert_eq!(model.next_record(), oracle.next_record(), "step {step}");
                assert_eq!(model.stack, oracle.stack, "step {step}");
                assert!(model.stack_len() <= 8);
                let set: HashSet<_> = model.stack.iter().map(|&(r, _)| r).collect();
                assert_eq!(set.len(), model.stack_len(), "duplicate at step {step}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<_> = model(9).take(500).collect();
        let b: Vec<_> = model(9).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = StackConfig {
            region_size: 48,
            ..StackConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StackConfig {
            write_fraction: 1.5,
            ..StackConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StackConfig {
            max_stack: 0,
            ..StackConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StackConfig {
            access_size: 128,
            region_size: 64,
            ..StackConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StackConfig {
            data_segment: 32,
            ..StackConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
