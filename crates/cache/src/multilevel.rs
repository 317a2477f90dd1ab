//! N-level write-back hierarchies.
//!
//! The paper's abstract targets "level two **(or higher)** caches in a
//! cache hierarchy"; its simulations stop at two levels only because the
//! traces were too short for multi-megabyte third levels. This module
//! generalizes [`TwoLevel`](crate::TwoLevel) to any depth: level 0
//! services the processor, and every miss at level `i` becomes a read-in
//! at level `i+1`, followed (per the paper's Table 3 ordering) by a
//! write-back of the dirty victim it displaced. Write-backs that miss
//! allocate in place, as in the two-level hierarchy.
//!
//! An observer sees every request below level 0 with the pre-access set
//! state, so the lookup strategies can be priced at whichever level the
//! study targets (typically the last).

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::hierarchy::{L2RequestKind, L2RequestView};
use serde::{Deserialize, Serialize};
use seta_trace::{TraceEvent, TraceRecord};

/// Traffic counters for one level's incoming requests (levels below 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelTraffic {
    /// Read-in requests received from the level above.
    pub read_ins: u64,
    /// Read-ins that hit.
    pub read_in_hits: u64,
    /// Write-back requests received from the level above.
    pub write_backs: u64,
    /// Write-backs that hit.
    pub write_back_hits: u64,
}

impl LevelTraffic {
    /// Fraction of requests (read-ins + write-backs) that miss.
    pub fn local_miss_ratio(&self) -> f64 {
        let reqs = self.read_ins + self.write_backs;
        if reqs == 0 {
            0.0
        } else {
            let misses =
                (self.read_ins - self.read_in_hits) + (self.write_backs - self.write_back_hits);
            misses as f64 / reqs as f64
        }
    }

    /// Total requests received.
    pub fn requests(&self) -> u64 {
        self.read_ins + self.write_backs
    }
}

/// Receives every request below level 0, tagged with its target level
/// (1-based: level 1 is the first cache below the processor-facing one).
pub trait MultiLevelObserver {
    /// Called once per request, before the target level is mutated.
    fn on_request(&mut self, level: usize, req: &L2RequestView<'_>);
}

/// The do-nothing observer.
impl MultiLevelObserver for () {
    fn on_request(&mut self, _level: usize, _req: &L2RequestView<'_>) {}
}

impl<F: FnMut(usize, &L2RequestView<'_>)> MultiLevelObserver for F {
    fn on_request(&mut self, level: usize, req: &L2RequestView<'_>) {
        self(level, req)
    }
}

/// Errors from constructing a [`MultiLevel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiLevelError {
    /// At least one level is required.
    Empty,
    /// Block sizes must be non-decreasing toward memory, so one upper-level
    /// block always fits inside one lower-level block.
    BlockSizeShrinks {
        /// The level whose block size is smaller than the one above it.
        level: usize,
    },
}

impl std::fmt::Display for MultiLevelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiLevelError::Empty => f.write_str("a hierarchy needs at least one level"),
            MultiLevelError::BlockSizeShrinks { level } => write!(
                f,
                "level {level} has a smaller block size than the level above it"
            ),
        }
    }
}

impl std::error::Error for MultiLevelError {}

/// A write-back cache hierarchy of any depth.
///
/// # Example
///
/// A three-level hierarchy (the paper's "or higher" case):
///
/// ```
/// use seta_cache::{CacheConfig, MultiLevel};
/// use seta_trace::TraceRecord;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut h = MultiLevel::new(vec![
///     CacheConfig::direct_mapped(4 * 1024, 16)?,
///     CacheConfig::new(64 * 1024, 32, 4)?,
///     CacheConfig::new(512 * 1024, 64, 8)?,
/// ])?;
/// h.step(&TraceRecord::read(0x1234), &mut ());
/// assert_eq!(h.traffic(1).read_ins, 1, "missed L1, read from L2");
/// assert_eq!(h.traffic(2).read_ins, 1, "missed L2, read from L3");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiLevel {
    levels: Vec<Cache>,
    traffic: Vec<LevelTraffic>,
    processor_refs: u64,
    flushes: u64,
}

impl MultiLevel {
    /// Creates an empty hierarchy from processor-facing to memory-facing
    /// configurations. All levels use LRU replacement.
    ///
    /// # Errors
    ///
    /// Returns an error if `configs` is empty or block sizes shrink going
    /// down the hierarchy.
    pub fn new(configs: Vec<CacheConfig>) -> Result<Self, MultiLevelError> {
        if configs.is_empty() {
            return Err(MultiLevelError::Empty);
        }
        for (i, pair) in configs.windows(2).enumerate() {
            if pair[1].block_size() < pair[0].block_size() {
                return Err(MultiLevelError::BlockSizeShrinks { level: i + 1 });
            }
        }
        let traffic = vec![LevelTraffic::default(); configs.len()];
        Ok(MultiLevel {
            levels: configs.into_iter().map(Cache::new).collect(),
            traffic,
            processor_refs: 0,
            flushes: 0,
        })
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The cache at `level` (0 = processor-facing).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level(&self, level: usize) -> &Cache {
        &self.levels[level]
    }

    /// Incoming-request counters for `level` (level 0's "requests" are the
    /// processor references; see [`processor_refs`](Self::processor_refs)).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn traffic(&self, level: usize) -> &LevelTraffic {
        &self.traffic[level]
    }

    /// Processor references serviced.
    pub fn processor_refs(&self) -> u64 {
        self.processor_refs
    }

    /// Flush events processed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Fraction of processor references that miss every level.
    pub fn global_miss_ratio(&self) -> f64 {
        if self.processor_refs == 0 {
            0.0
        } else {
            let last = self.traffic.last().expect("at least one level");
            (last.read_ins - last.read_in_hits) as f64 / self.processor_refs as f64
        }
    }

    /// Issues a request to `level`, cascading misses and write-backs
    /// downstream. Like the two-level hierarchy, it locates the block
    /// once and applies the access from that one search.
    fn request<O: MultiLevelObserver>(
        &mut self,
        level: usize,
        kind: L2RequestKind,
        addr: u64,
        observer: &mut O,
    ) {
        if level >= self.levels.len() {
            return; // memory absorbs everything
        }
        let cache = &self.levels[level];
        let set = cache.mapper().set_of(addr);
        let tag = cache.mapper().tag_of(addr);
        let found = cache.locate(set, tag);
        let view = L2RequestView {
            kind,
            addr,
            set,
            tag,
            hit: found.is_some(),
            hit_way: found.map(|(way, _)| way),
            mru_distance: found.map(|(_, pos)| pos),
            frames: cache.set_frames(set),
            order: cache.set_order(set),
            hint_correct: None,
            lanes: cache.lane_view(set),
        };
        observer.on_request(level, &view);

        let is_write = kind == L2RequestKind::WriteBack;
        let result = self.levels[level].apply(set, tag, is_write, found);
        let t = &mut self.traffic[level];
        let hit = u64::from(result.hit);
        match kind {
            L2RequestKind::ReadIn => {
                t.read_ins += 1;
                t.read_in_hits += hit;
            }
            L2RequestKind::WriteBack => {
                t.write_backs += 1;
                t.write_back_hits += hit;
            }
        }

        if !result.hit {
            // Fetch the containing block from below (read-ins only —
            // write-back misses allocate in place, as in TwoLevel)...
            if kind == L2RequestKind::ReadIn && level + 1 < self.levels.len() {
                let down_addr = addr & !(self.levels[level + 1].config().block_size() - 1);
                self.request(level + 1, L2RequestKind::ReadIn, down_addr, observer);
            }
            // ...then push the dirty victim down.
            if let Some(victim) = result.evicted {
                if victim.dirty {
                    self.request(level + 1, L2RequestKind::WriteBack, victim.addr, observer);
                }
            }
        }
    }

    /// Services one processor reference.
    pub fn step<O: MultiLevelObserver>(&mut self, record: &TraceRecord, observer: &mut O) {
        self.processor_refs += 1;
        let is_write = record.kind.is_write();
        let r = self.levels[0].access(record.addr, is_write);
        let t = &mut self.traffic[0];
        t.read_ins += 1;
        if r.hit {
            t.read_in_hits += 1;
            return;
        }
        if self.levels.len() > 1 {
            let down_addr = record.addr & !(self.levels[1].config().block_size() - 1);
            self.request(1, L2RequestKind::ReadIn, down_addr, observer);
        }
        if let Some(victim) = r.evicted {
            if victim.dirty {
                self.request(1, L2RequestKind::WriteBack, victim.addr, observer);
            }
        }
    }

    /// Flushes every level.
    pub fn flush(&mut self) {
        for c in &mut self.levels {
            c.flush();
        }
        self.flushes += 1;
    }

    /// Processes one trace event.
    pub fn process<O: MultiLevelObserver>(&mut self, event: &TraceEvent, observer: &mut O) {
        match event {
            TraceEvent::Ref(r) => self.step(r, observer),
            TraceEvent::Flush => self.flush(),
        }
    }

    /// Drives an entire event stream.
    pub fn run<I, O>(&mut self, events: I, observer: &mut O)
    where
        I: IntoIterator<Item = TraceEvent>,
        O: MultiLevelObserver,
    {
        for e in events {
            self.process(&e, observer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::TwoLevel;
    use proptest::prelude::*;

    fn three_level() -> MultiLevel {
        MultiLevel::new(vec![
            CacheConfig::direct_mapped(256, 16).unwrap(),
            CacheConfig::new(1024, 16, 2).unwrap(),
            CacheConfig::new(4096, 32, 4).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn cold_miss_cascades_to_every_level() {
        let mut h = three_level();
        h.step(&TraceRecord::read(0x40), &mut ());
        assert_eq!(h.traffic(0).read_ins, 1);
        assert_eq!(h.traffic(1).read_ins, 1);
        assert_eq!(h.traffic(2).read_ins, 1);
        assert_eq!(h.global_miss_ratio(), 1.0);
    }

    #[test]
    fn l2_hit_stops_the_cascade() {
        let mut h = three_level();
        h.step(&TraceRecord::read(0x000), &mut ());
        h.step(&TraceRecord::read(0x100), &mut ()); // evicts 0x000 from L1
        h.step(&TraceRecord::read(0x000), &mut ()); // L1 miss, L2 hit
        assert_eq!(h.traffic(1).read_ins, 3);
        assert_eq!(h.traffic(1).read_in_hits, 1);
        assert_eq!(h.traffic(2).read_ins, 2, "the L2 hit never reached L3");
    }

    #[test]
    fn dirty_victims_cascade_as_write_backs() {
        let mut h = three_level();
        h.step(&TraceRecord::write(0x000), &mut ());
        h.step(&TraceRecord::read(0x100), &mut ());
        assert_eq!(h.traffic(1).write_backs, 1);
        // The write-back hits in L2 (the block was just read in there).
        assert_eq!(h.traffic(1).write_back_hits, 1);
    }

    #[test]
    fn observer_sees_levels() {
        let mut h = three_level();
        let mut seen = Vec::new();
        let mut obs = |level: usize, req: &L2RequestView<'_>| {
            seen.push((level, req.kind, req.addr));
        };
        h.step(&TraceRecord::read(0x40), &mut obs);
        assert_eq!(
            seen,
            vec![
                (1, L2RequestKind::ReadIn, 0x40),
                (2, L2RequestKind::ReadIn, 0x40)
            ]
        );
    }

    #[test]
    fn block_alignment_follows_each_level() {
        let mut h = three_level();
        let mut seen = Vec::new();
        let mut obs = |level: usize, req: &L2RequestView<'_>| seen.push((level, req.addr));
        h.step(&TraceRecord::read(0x7B), &mut obs);
        // L2 has 16 B blocks → 0x70; L3 has 32 B blocks → 0x60.
        assert_eq!(seen, vec![(1, 0x70), (2, 0x60)]);
    }

    #[test]
    fn flush_clears_every_level() {
        let mut h = three_level();
        h.step(&TraceRecord::write(0x40), &mut ());
        h.flush();
        for level in 0..h.depth() {
            assert_eq!(h.level(level).resident_blocks(), 0, "level {level}");
        }
        assert_eq!(h.flushes(), 1);
    }

    #[test]
    fn single_level_hierarchy_works() {
        let mut h = MultiLevel::new(vec![CacheConfig::direct_mapped(256, 16).unwrap()]).unwrap();
        h.step(&TraceRecord::read(0x40), &mut ());
        h.step(&TraceRecord::read(0x40), &mut ());
        assert_eq!(h.traffic(0).read_ins, 2);
        assert_eq!(h.traffic(0).read_in_hits, 1);
        assert!((h.global_miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_geometries() {
        assert_eq!(MultiLevel::new(vec![]).unwrap_err(), MultiLevelError::Empty);
        let err = MultiLevel::new(vec![
            CacheConfig::direct_mapped(256, 32).unwrap(),
            CacheConfig::new(1024, 16, 2).unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err, MultiLevelError::BlockSizeShrinks { level: 1 });
        assert!(err.to_string().contains("block size"));
    }

    proptest! {
        /// A two-level MultiLevel agrees with TwoLevel exactly on every
        /// traffic counter, for arbitrary reference streams.
        #[test]
        fn two_level_special_case_matches_twolevel(
            raw in proptest::collection::vec((0u64..0x4000, 0u8..4), 1..300)
        ) {
            let events: Vec<TraceEvent> = raw
                .into_iter()
                .map(|(addr, k)| match k {
                    0 => TraceEvent::Ref(TraceRecord::read(addr)),
                    1 => TraceEvent::Ref(TraceRecord::write(addr)),
                    2 => TraceEvent::Ref(TraceRecord::ifetch(addr)),
                    _ => TraceEvent::Flush,
                })
                .collect();
            let l1 = CacheConfig::direct_mapped(256, 16).unwrap();
            let l2 = CacheConfig::new(1024, 32, 4).unwrap();

            let mut reference = TwoLevel::new(l1, l2).unwrap();
            reference.run(events.iter().copied(), &mut ());

            let mut general = MultiLevel::new(vec![l1, l2]).unwrap();
            general.run(events.iter().copied(), &mut ());

            let r = reference.stats();
            prop_assert_eq!(general.processor_refs(), r.processor_refs);
            prop_assert_eq!(general.traffic(1).read_ins, r.read_ins);
            prop_assert_eq!(general.traffic(1).read_in_hits, r.read_in_hits);
            prop_assert_eq!(general.traffic(1).write_backs, r.write_backs);
            prop_assert_eq!(general.traffic(1).write_back_hits, r.write_back_hits);
            prop_assert!((general.global_miss_ratio() - r.global_miss_ratio()).abs() < 1e-12);
        }

        /// Traffic shrinks monotonically down the hierarchy (each level
        /// filters the stream for the next).
        #[test]
        fn traffic_is_filtered_downward(
            addrs in proptest::collection::vec(0u64..0x4000, 1..300)
        ) {
            let mut h = three_level();
            for &a in &addrs {
                h.step(&TraceRecord::read(a), &mut ());
            }
            prop_assert!(h.traffic(1).read_ins <= h.processor_refs());
            prop_assert!(h.traffic(2).read_ins <= h.traffic(1).read_ins);
        }
    }
}
