//! The paper's two-level write-back hierarchy.
//!
//! A direct-mapped write-back level-one cache services processor references
//! and sends two kinds of requests to the set-associative write-back
//! level-two cache:
//!
//! * **read-in** — on an L1 miss, the missing block is fetched from L2;
//! * **write-back** — if the L1 miss displaced a dirty block, that block is
//!   then written to L2 (after the read-in, per the paper's Table 3).
//!
//! Every L2 request is exposed to an [`L2Observer`] *before* it mutates the
//! L2, with a view of the target set's frames and recency order. That
//! pre-state is exactly what the lookup strategies in `seta-core` need to
//! price the lookup, so one simulation pass can score every implementation
//! of set-associativity at once.
//!
//! The hierarchy also maintains the paper's **write-back optimization**
//! state: when a block is read into L1, the L1 remembers which way of the
//! L2 set supplied it (a `log2 a`-bit *position hint*). On a write-back the
//! hint lets the L2 skip tag probes entirely; the hierarchy reports whether
//! each hint was still correct so simulations can quantify the optimization
//! even though multi-level inclusion is not enforced.

use crate::bank::SetFrames;
use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::stats::CacheStats;
use serde::{Deserialize, Serialize};
use seta_core::PricedSet;
use seta_trace::{TraceEvent, TraceRecord};

/// The kind of a level-two request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum L2RequestKind {
    /// Fetch a block that missed in L1.
    ReadIn,
    /// Write a dirty block displaced from L1.
    WriteBack,
}

impl std::fmt::Display for L2RequestKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            L2RequestKind::ReadIn => f.write_str("read-in"),
            L2RequestKind::WriteBack => f.write_str("write-back"),
        }
    }
}

/// A level-two request together with the pre-access state of its target
/// set. Handed to [`L2Observer::on_l2_request`] before the L2 is updated.
#[derive(Debug)]
pub struct L2RequestView<'a> {
    /// Read-in or write-back.
    pub kind: L2RequestKind,
    /// Block-aligned address of the request.
    pub addr: u64,
    /// Target set index in the L2.
    pub set: u64,
    /// Full-width tag of the request in the L2 geometry.
    pub tag: u64,
    /// Whether the request will hit.
    pub hit: bool,
    /// The way holding the block, when `hit`.
    pub hit_way: Option<u8>,
    /// Pre-access recency position of the hit way (0 = MRU), when `hit`.
    pub mru_distance: Option<usize>,
    /// The target set's frames (pre-access), borrowed from the cache's
    /// tag/flag store: [`SetFrames::tags`] lends the stored tags without a
    /// copy, and [`SetFrames::iter`] yields each way's [`Frame`](crate::Frame)
    /// by value.
    pub frames: SetFrames<'a>,
    /// The target set's recency order, MRU first (pre-access).
    pub order: &'a [u8],
    /// For write-backs: whether the L1's position hint still names the way
    /// where the block resides. `None` for read-ins.
    pub hint_correct: Option<bool>,
    /// The target set's packed tag lanes (pre-access), when the cache
    /// maintains them (see [`Cache::enable_partial_lanes`]). Lets the
    /// partial-compare pricer skip per-request packing (see
    /// [`seta_core::StrategyKind::price`]).
    pub lanes: Option<seta_core::packed::LaneView<'a>>,
}

impl L2RequestView<'_> {
    /// The request as the pricer reads it: the hit facts and the borrowed
    /// pre-access set, with no copy (see [`StrategyKind::price`]).
    ///
    /// [`StrategyKind::price`]: seta_core::StrategyKind::price
    #[inline]
    pub fn priced(&self) -> PricedSet<'_> {
        PricedSet {
            tag: self.tag,
            hit_way: self.hit_way,
            mru_distance: self.mru_distance,
            tags: self.frames.tags(),
            valid: self.frames.valid_mask(),
            order: self.order,
            lanes: self.lanes,
        }
    }
}

/// Receives every level-two request during a simulation.
pub trait L2Observer {
    /// Called once per L2 request, before the L2 is mutated.
    fn on_l2_request(&mut self, req: &L2RequestView<'_>);
}

/// The do-nothing observer, for runs that only need miss ratios.
impl L2Observer for () {
    fn on_l2_request(&mut self, _req: &L2RequestView<'_>) {}
}

impl<F: FnMut(&L2RequestView<'_>)> L2Observer for F {
    fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
        self(req)
    }
}

/// Hierarchy-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoLevelStats {
    /// Processor references serviced.
    pub processor_refs: u64,
    /// Flush events processed.
    pub flushes: u64,
    /// Read-in requests sent to L2.
    pub read_ins: u64,
    /// Read-ins that hit in L2.
    pub read_in_hits: u64,
    /// Write-back requests sent to L2.
    pub write_backs: u64,
    /// Write-backs that hit in L2.
    pub write_back_hits: u64,
    /// Write-backs whose position hint was checked (all of them).
    pub hint_checks: u64,
    /// Write-backs whose position hint was still correct.
    pub hint_correct: u64,
}

impl TwoLevelStats {
    /// Fraction of processor references that miss in both levels
    /// (the paper's *global miss ratio*).
    pub fn global_miss_ratio(&self) -> f64 {
        if self.processor_refs == 0 {
            0.0
        } else {
            (self.read_ins - self.read_in_hits) as f64 / self.processor_refs as f64
        }
    }

    /// Fraction of L2 requests (read-ins and write-backs) that miss in L2
    /// (the paper's *local miss ratio* of the level-two cache).
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

    /// Fraction of L2 requests that are write-backs (Table 4's
    /// "Fraction Write-Back").
    pub fn write_back_fraction(&self) -> f64 {
        let reqs = self.read_ins + self.write_backs;
        if reqs == 0 {
            0.0
        } else {
            self.write_backs as f64 / reqs as f64
        }
    }

    /// Fraction of processor references that miss in L1.
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.processor_refs == 0 {
            0.0
        } else {
            self.read_ins as f64 / self.processor_refs as f64
        }
    }

    /// Fraction of write-backs whose position hint was still correct.
    pub fn hint_accuracy(&self) -> f64 {
        if self.hint_checks == 0 {
            0.0
        } else {
            self.hint_correct as f64 / self.hint_checks as f64
        }
    }

    /// Total L2 requests.
    pub fn l2_requests(&self) -> u64 {
        self.read_ins + self.write_backs
    }
}

/// Merges counters from two disjoint event streams — the ratios of the sum
/// are the ratios of the combined run. This is what lets a sharded sweep
/// runner simulate independent cold-start trace segments in parallel and
/// fold their hierarchy statistics back together.
impl std::ops::AddAssign for TwoLevelStats {
    fn add_assign(&mut self, other: TwoLevelStats) {
        self.processor_refs += other.processor_refs;
        self.flushes += other.flushes;
        self.read_ins += other.read_ins;
        self.read_in_hits += other.read_in_hits;
        self.write_backs += other.write_backs;
        self.write_back_hits += other.write_back_hits;
        self.hint_checks += other.hint_checks;
        self.hint_correct += other.hint_correct;
    }
}

impl std::iter::Sum for TwoLevelStats {
    fn sum<I: Iterator<Item = TwoLevelStats>>(iter: I) -> TwoLevelStats {
        iter.fold(TwoLevelStats::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

/// One L1 miss, as the L1 half hands it to the level below: everything the
/// L2 needs to issue the miss's read-in and, if the displaced block was
/// dirty, its write-back.
///
/// The L1's miss stream does not depend on the L2 (the hierarchy does not
/// enforce inclusion), so one [`L1Half`] can feed the same `L1Miss` to
/// any number of [`L2Half`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Miss {
    /// Index of the L1 frame the missing block now occupies
    /// (`set · assoc + way`), which keys the L2 half's position hints.
    pub frame: usize,
    /// Block-aligned (in the L1 geometry) address to read in.
    pub addr: u64,
    /// Block address of the dirty victim to write back, if any.
    pub write_back: Option<u64>,
}

impl L1Miss {
    /// The L2 requests this miss issues, in issue order. Per Table 3, "the
    /// new block is first obtained via a read-in request, then a
    /// write-back is issued".
    #[inline]
    pub fn requests(&self) -> impl Iterator<Item = (L2RequestKind, u64)> {
        std::iter::once((L2RequestKind::ReadIn, self.addr))
            .chain(self.write_back.map(|a| (L2RequestKind::WriteBack, a)))
    }
}

/// The processor-facing half of the hierarchy: the L1 cache and the
/// reference and flush counts. [`access`](Self::access) turns each
/// processor reference into at most one [`L1Miss`].
#[derive(Debug, Clone)]
pub struct L1Half {
    cache: Cache,
    processor_refs: u64,
    flushes: u64,
}

impl L1Half {
    /// An empty L1 (LRU, should the configuration be set-associative).
    pub fn new(config: CacheConfig) -> Self {
        L1Half {
            cache: Cache::new(config),
            processor_refs: 0,
            flushes: 0,
        }
    }

    /// The level-one cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Processor references serviced.
    pub fn processor_refs(&self) -> u64 {
        self.processor_refs
    }

    /// Services one processor reference: counts it and accesses the L1.
    /// Returns the miss the L2 must serve, or `None` on an L1 hit.
    // The drivers in other crates call this once per reference; without a
    // type parameter it is only inlined there when marked so.
    #[inline]
    pub fn access(&mut self, record: &TraceRecord) -> Option<L1Miss> {
        self.processor_refs += 1;
        let set = self.cache.mapper().set_of(record.addr);
        let tag = self.cache.mapper().tag_of(record.addr);
        let found = self.cache.locate(set, tag);
        let r = self.cache.apply(set, tag, record.kind.is_write(), found);
        if r.hit {
            return None;
        }
        let assoc = self.cache.config().associativity() as usize;
        Some(L1Miss {
            frame: set as usize * assoc + r.way as usize,
            addr: self.cache.mapper().block_addr(tag, set),
            write_back: r.evicted.filter(|v| v.dirty).map(|v| v.addr),
        })
    }

    /// Flushes the L1 (contents discarded) and counts the flush.
    pub fn flush(&mut self) {
        self.cache.flush();
        self.flushes += 1;
    }
}

/// The memory-facing half of the hierarchy: the L2 cache, the per-L1-frame
/// position hints, and the read-in, write-back and hint counters.
/// [`serve`](Self::serve) issues one [`L1Miss`]'s requests.
#[derive(Debug, Clone)]
pub struct L2Half {
    cache: Cache,
    /// Per-L1-frame hint: the L2 way the frame's block was loaded from.
    hints: Vec<Option<u8>>,
    /// This half's counters. `processor_refs` is the L1 half's to count;
    /// see [`stats`](Self::stats).
    stats: TwoLevelStats,
}

impl L2Half {
    /// An empty L2 with the given replacement policy, holding one position
    /// hint per frame of `l1`. `seed` feeds [`Policy::Random`](crate::Policy)
    /// and is ignored by the deterministic policies.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::BlockSizeMismatch`] if the L1 block size
    /// exceeds the L2 block size.
    pub fn new(
        l1: &CacheConfig,
        l2: CacheConfig,
        policy: crate::Policy,
        seed: u64,
    ) -> Result<Self, HierarchyError> {
        if l1.block_size() > l2.block_size() {
            return Err(HierarchyError::BlockSizeMismatch {
                l1: l1.block_size(),
                l2: l2.block_size(),
            });
        }
        Ok(L2Half {
            cache: Cache::with_policy(l2, policy, seed),
            hints: vec![None; l1.num_frames() as usize],
            stats: TwoLevelStats::default(),
        })
    }

    /// The level-two cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Starts maintaining packed tag lanes on the L2 (see
    /// [`Cache::enable_partial_lanes`]).
    pub fn enable_partial_lanes(&mut self, spec: seta_core::packed::LaneSpec) -> bool {
        self.cache.enable_partial_lanes(spec)
    }

    /// The hierarchy counters of this L2 behind `l1`: the reference and
    /// flush counts are the L1 half's, everything else this half's own.
    pub fn stats(&self, l1: &L1Half) -> TwoLevelStats {
        TwoLevelStats {
            processor_refs: l1.processor_refs,
            flushes: l1.flushes,
            ..self.stats
        }
    }

    /// Serves one L1 miss: reads the victim frame's hint, issues the
    /// read-in, records where the block landed as the frame's new hint,
    /// then issues the dirty victim's write-back checked against the old
    /// hint. `observer` sees every request before it mutates the L2.
    pub fn serve<O: L2Observer>(&mut self, miss: &L1Miss, observer: &mut O) {
        // Remember the victim's hint before overwriting the frame's hint
        // with the incoming block's L2 position.
        let victim_hint = self.hints[miss.frame];
        // Internal iteration runs the two requests as straight-line code.
        miss.requests().for_each(|(kind, addr)| {
            let hint = match kind {
                L2RequestKind::ReadIn => None,
                L2RequestKind::WriteBack => victim_hint,
            };
            let way = self.issue(kind, addr, hint, observer);
            if kind == L2RequestKind::ReadIn {
                self.hints[miss.frame] = Some(way);
            }
        });
    }

    /// Issues one L2 request: locates the block once, shows `observer` the
    /// pre-access set with that result, then applies the access from the
    /// same result without searching the set again. Returns the way the
    /// block occupies afterwards.
    fn issue<O: L2Observer>(
        &mut self,
        kind: L2RequestKind,
        addr: u64,
        hint: Option<u8>,
        observer: &mut O,
    ) -> u8 {
        let set = self.cache.mapper().set_of(addr);
        let tag = self.cache.mapper().tag_of(addr);
        let found = self.cache.locate(set, tag);
        let hit_way = found.map(|(way, _)| way);
        let mru_distance = found.map(|(_, pos)| pos);
        let hint_correct = match kind {
            L2RequestKind::ReadIn => None,
            L2RequestKind::WriteBack => Some(hint.is_some() && hint == hit_way),
        };
        let view = L2RequestView {
            kind,
            addr,
            set,
            tag,
            hit: found.is_some(),
            hit_way,
            mru_distance,
            frames: self.cache.set_frames(set),
            order: self.cache.set_order(set),
            hint_correct,
            lanes: self.cache.lane_view(set),
        };
        observer.on_l2_request(&view);

        let is_write = kind == L2RequestKind::WriteBack;
        let result = self.cache.apply(set, tag, is_write, found);
        let hit = u64::from(result.hit);
        match kind {
            L2RequestKind::ReadIn => {
                self.stats.read_ins += 1;
                self.stats.read_in_hits += hit;
            }
            L2RequestKind::WriteBack => {
                self.stats.write_backs += 1;
                self.stats.write_back_hits += hit;
                self.stats.hint_checks += 1;
                self.stats.hint_correct += u64::from(hint_correct == Some(true));
            }
        }
        result.way
    }

    /// Flushes the L2 and the hints (contents discarded) and counts the
    /// flush.
    pub fn flush(&mut self) {
        self.cache.flush();
        self.hints.fill(None);
        self.stats.flushes += 1;
    }
}

/// The two-level write-back hierarchy: one [`L1Half`] feeding one
/// [`L2Half`].
///
/// # Example
///
/// ```
/// use seta_cache::{CacheConfig, TwoLevel};
/// use seta_trace::TraceRecord;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let l1 = CacheConfig::direct_mapped(4 * 1024, 16)?;
/// let l2 = CacheConfig::new(64 * 1024, 32, 4)?;
/// let mut h = TwoLevel::new(l1, l2)?;
/// h.step(&TraceRecord::read(0x1234), &mut ());
/// assert_eq!(h.stats().read_ins, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevel {
    l1: L1Half,
    /// The L2 half, whose counter block doubles as the hierarchy's: it
    /// mirrors the L1 half's reference count after every step.
    l2: L2Half,
}

/// Errors from constructing a [`TwoLevel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// The L1 block size must not exceed the L2 block size (a single L1
    /// block must fit in one L2 block for read-ins and write-backs to be
    /// single requests).
    BlockSizeMismatch {
        /// L1 block size in bytes.
        l1: u64,
        /// L2 block size in bytes.
        l2: u64,
    },
}

impl std::fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyError::BlockSizeMismatch { l1, l2 } => write!(
                f,
                "L1 block size {l1} exceeds L2 block size {l2}; read-ins would span L2 blocks"
            ),
        }
    }
}

impl std::error::Error for HierarchyError {}

impl TwoLevel {
    /// Creates an empty hierarchy. Both caches use LRU replacement.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::BlockSizeMismatch`] if the L1 block size
    /// exceeds the L2 block size.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Result<Self, HierarchyError> {
        Self::with_l2_policy(l1, l2, crate::Policy::Lru, 0)
    }

    /// Creates an empty hierarchy with an explicit L2 replacement policy
    /// (the L1, being direct-mapped in the paper's setup, has no
    /// replacement choice to make; it still accepts wider configurations
    /// and then uses LRU). `seed` feeds [`Policy::Random`](crate::Policy)
    /// and is ignored by the deterministic policies.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::BlockSizeMismatch`] if the L1 block size
    /// exceeds the L2 block size.
    pub fn with_l2_policy(
        l1: CacheConfig,
        l2: CacheConfig,
        l2_policy: crate::Policy,
        seed: u64,
    ) -> Result<Self, HierarchyError> {
        let l2 = L2Half::new(&l1, l2, l2_policy, seed)?;
        Ok(TwoLevel {
            l1: L1Half::new(l1),
            l2,
        })
    }

    /// The level-one cache.
    pub fn l1(&self) -> &Cache {
        self.l1.cache()
    }

    /// The level-two cache.
    pub fn l2(&self) -> &Cache {
        self.l2.cache()
    }

    /// Starts maintaining packed tag lanes on the level-two cache, so every
    /// [`L2RequestView`] carries the set's lanes for SWAR partial compares.
    /// Returns `false` if `spec` does not match the L2's associativity
    /// (see [`Cache::enable_partial_lanes`]).
    pub fn enable_partial_lanes(&mut self, spec: seta_core::packed::LaneSpec) -> bool {
        self.l2.enable_partial_lanes(spec)
    }

    /// Hierarchy-level counters.
    pub fn stats(&self) -> &TwoLevelStats {
        &self.l2.stats
    }

    /// Per-level access statistics `(l1, l2)`.
    pub fn level_stats(&self) -> (CacheStats, CacheStats) {
        (*self.l1().stats(), *self.l2().stats())
    }

    /// Services one processor reference, notifying `observer` of every L2
    /// request it generates: the L1 half's access, then, on a miss, the L2
    /// half's service of it.
    pub fn step<O: L2Observer>(&mut self, record: &TraceRecord, observer: &mut O) {
        let miss = self.l1.access(record);
        self.l2.stats.processor_refs = self.l1.processor_refs;
        if let Some(miss) = miss {
            self.l2.serve(&miss, observer);
        }
    }

    /// Flushes both levels (contents discarded, hints cleared), as at the
    /// cold-start boundaries between trace segments.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }

    /// Processes one trace event.
    pub fn process<O: L2Observer>(&mut self, event: &TraceEvent, observer: &mut O) {
        match event {
            TraceEvent::Ref(r) => self.step(r, observer),
            TraceEvent::Flush => self.flush(),
        }
    }

    /// Drives an entire event stream.
    pub fn run<I, O>(&mut self, events: I, observer: &mut O)
    where
        I: IntoIterator<Item = TraceEvent>,
        O: L2Observer,
    {
        for e in events {
            self.process(&e, observer);
        }
    }

    /// Applies a coherency invalidation for the block holding `addr`:
    /// drops it from both levels (another processor took exclusive
    /// ownership). Returns `(invalidated_in_l1, invalidated_in_l2)`.
    ///
    /// This is the stand-in for the multiprocessor coherency traffic of
    /// the paper's footnote 1; the freed L2 frame is preferentially reused
    /// by the next miss to its set.
    pub fn invalidate_block(&mut self, addr: u64) -> (bool, bool) {
        let in_l1 = self.l1.cache.invalidate(addr);
        if in_l1 {
            // The hint for that frame is now meaningless.
            let set = self.l1.cache.mapper().set_of(addr);
            let assoc = self.l1.cache.config().associativity() as usize;
            let base = set as usize * assoc;
            self.l2.hints[base..base + assoc].fill(None);
        }
        let in_l2 = self.l2.cache.invalidate(addr);
        (in_l1, in_l2)
    }

    /// Number of valid L1 blocks whose data is *not* resident in L2 —
    /// multi-level-inclusion violations. The paper does not enforce
    /// inclusion but monitors how close the hierarchy stays to it.
    pub fn inclusion_violations(&self) -> usize {
        self.l1()
            .resident_addrs()
            .filter(|&a| self.l2().probe(a).is_none())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seta_trace::AccessKind;

    fn hierarchy() -> TwoLevel {
        TwoLevel::new(
            CacheConfig::direct_mapped(256, 16).unwrap(),
            CacheConfig::new(1024, 16, 4).unwrap(),
        )
        .unwrap()
    }

    /// Collects every observed request for assertions.
    #[derive(Default)]
    struct Recorder {
        events: Vec<(L2RequestKind, u64, bool, Option<bool>)>,
    }

    impl L2Observer for Recorder {
        fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
            self.events
                .push((req.kind, req.addr, req.hit, req.hint_correct));
        }
    }

    #[test]
    fn l1_hit_generates_no_l2_traffic() {
        let mut h = hierarchy();
        let mut rec = Recorder::default();
        h.step(&TraceRecord::read(0x40), &mut rec);
        h.step(&TraceRecord::read(0x44), &mut rec);
        assert_eq!(rec.events.len(), 1, "second access hits in L1");
        assert_eq!(h.stats().read_ins, 1);
    }

    #[test]
    fn dirty_l1_victim_generates_write_back_after_read_in() {
        let mut h = hierarchy();
        let mut rec = Recorder::default();
        h.step(&TraceRecord::write(0x000), &mut rec); // miss, dirty in L1
        h.step(&TraceRecord::read(0x100), &mut rec); // same L1 set → evicts dirty 0x000
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.events[0].0, L2RequestKind::ReadIn);
        assert_eq!(rec.events[1].0, L2RequestKind::ReadIn);
        assert_eq!(rec.events[1].1, 0x100);
        assert_eq!(rec.events[2].0, L2RequestKind::WriteBack);
        assert_eq!(rec.events[2].1, 0x000);
        assert_eq!(h.stats().write_backs, 1);
    }

    #[test]
    fn clean_l1_victim_generates_no_write_back() {
        let mut h = hierarchy();
        let mut rec = Recorder::default();
        h.step(&TraceRecord::read(0x000), &mut rec);
        h.step(&TraceRecord::read(0x100), &mut rec);
        assert!(rec.events.iter().all(|(k, ..)| *k == L2RequestKind::ReadIn));
    }

    #[test]
    fn write_back_hits_and_hint_is_correct() {
        let mut h = hierarchy();
        let mut rec = Recorder::default();
        h.step(&TraceRecord::write(0x000), &mut rec);
        h.step(&TraceRecord::read(0x100), &mut rec);
        // The write-back of 0x000 finds the block still in L2 where the
        // read-in loaded it.
        let wb = rec
            .events
            .iter()
            .find(|(k, ..)| *k == L2RequestKind::WriteBack)
            .unwrap();
        assert!(wb.2, "write-back hits");
        assert_eq!(wb.3, Some(true), "hint still correct");
        assert_eq!(h.stats().hint_accuracy(), 1.0);
        assert_eq!(h.stats().write_back_hits, 1);
    }

    #[test]
    fn global_and_local_miss_ratios() {
        let mut h = hierarchy();
        // 4 processor refs, all L1 misses (different L1 sets), all L2 misses.
        for i in 0..4u64 {
            h.step(&TraceRecord::read(i * 16), &mut ());
        }
        let s = h.stats();
        assert_eq!(s.processor_refs, 4);
        assert_eq!(s.read_ins, 4);
        assert_eq!(s.global_miss_ratio(), 1.0);
        assert_eq!(s.local_miss_ratio(), 1.0);
        // Re-reference: L1 hits, nothing reaches L2.
        for i in 0..4u64 {
            h.step(&TraceRecord::read(i * 16), &mut ());
        }
        let s = h.stats();
        assert_eq!(s.processor_refs, 8);
        assert!((s.global_miss_ratio() - 0.5).abs() < 1e-12);
        assert!((s.l1_miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn l1_miss_l2_hit_counts_as_global_hit() {
        let mut h = hierarchy();
        h.step(&TraceRecord::read(0x000), &mut ());
        h.step(&TraceRecord::read(0x400), &mut ()); // same L1 set (256 B L1), different L2 set? 0x400/16=64, L2 has 16 sets → set 0 again
                                                    // Evict 0x000 from L1 (clean), then re-read it: L1 miss, L2 hit.
        h.step(&TraceRecord::read(0x000), &mut ());
        let s = h.stats();
        assert_eq!(s.read_ins, 3);
        assert_eq!(s.read_in_hits, 1);
    }

    #[test]
    fn flush_clears_both_levels_and_hints() {
        let mut h = hierarchy();
        h.step(&TraceRecord::write(0x000), &mut ());
        h.flush();
        assert_eq!(h.l1().resident_blocks(), 0);
        assert_eq!(h.l2().resident_blocks(), 0);
        assert_eq!(h.stats().flushes, 1);
        // After the flush the same reference misses again.
        h.step(&TraceRecord::read(0x000), &mut ());
        assert_eq!(h.stats().read_ins, 2);
        assert_eq!(h.stats().read_in_hits, 0);
    }

    #[test]
    fn run_handles_flush_events() {
        let mut h = hierarchy();
        let events = vec![
            TraceEvent::Ref(TraceRecord::read(0x00)),
            TraceEvent::Flush,
            TraceEvent::Ref(TraceRecord::read(0x00)),
        ];
        h.run(events, &mut ());
        assert_eq!(h.stats().read_ins, 2, "flush forces the second miss");
    }

    #[test]
    fn larger_l2_blocks_are_supported() {
        let mut h = TwoLevel::new(
            CacheConfig::direct_mapped(256, 16).unwrap(),
            CacheConfig::new(1024, 64, 4).unwrap(),
        )
        .unwrap();
        let mut rec = Recorder::default();
        h.step(&TraceRecord::write(0x010), &mut rec);
        // Read-in is for the 16 B L1 block; L2 sees its 64 B container.
        h.step(&TraceRecord::read(0x020), &mut rec); // L1 set differs? 0x20/16=2 → different L1 set, miss
                                                     // Second read-in falls in the same 64 B L2 block → L2 hit.
        assert_eq!(h.stats().read_ins, 2);
        assert_eq!(h.stats().read_in_hits, 1);
    }

    #[test]
    fn mismatched_block_sizes_are_rejected() {
        let err = TwoLevel::new(
            CacheConfig::direct_mapped(256, 64).unwrap(),
            CacheConfig::new(1024, 16, 4).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, HierarchyError::BlockSizeMismatch { .. }));
        assert!(err.to_string().contains("block size"));
    }

    #[test]
    fn observer_sees_pre_access_state() {
        let mut h = hierarchy();
        let mut first_view_hit = None;
        let mut obs = |req: &L2RequestView<'_>| {
            if first_view_hit.is_none() {
                first_view_hit = Some((req.hit, req.frames.iter().any(|f| f.valid)));
            }
        };
        h.step(&TraceRecord::read(0x40), &mut obs);
        assert_eq!(
            first_view_hit,
            Some((false, false)),
            "first request sees an empty pre-access set"
        );
    }

    #[test]
    fn inclusion_violations_start_at_zero() {
        let mut h = hierarchy();
        for i in 0..32u64 {
            h.step(&TraceRecord::read(i * 16), &mut ());
        }
        // L2 (1024 B) is larger than L1 (256 B) and nothing was evicted
        // from L2 yet that is still live in L1 — violations possible but
        // should be rare; with this footprint (512 B) L2 holds everything.
        assert_eq!(h.inclusion_violations(), 0);
    }

    #[test]
    fn invalidation_drops_block_from_both_levels() {
        let mut h = hierarchy();
        h.step(&TraceRecord::write(0x40), &mut ());
        assert!(h.l1().probe(0x40).is_some());
        assert!(h.l2().probe(0x40).is_some());
        let (l1, l2) = h.invalidate_block(0x40);
        assert!(l1 && l2);
        assert!(h.l1().probe(0x40).is_none());
        assert!(h.l2().probe(0x40).is_none());
        // The next access misses all the way down.
        let before = h.stats().read_ins;
        h.step(&TraceRecord::read(0x40), &mut ());
        assert_eq!(h.stats().read_ins, before + 1);
        assert_eq!(h.stats().read_in_hits, 0);
    }

    #[test]
    fn invalidation_of_absent_block_is_a_no_op() {
        let mut h = hierarchy();
        assert_eq!(h.invalidate_block(0x1234), (false, false));
    }

    #[test]
    fn stats_ratios_empty_hierarchy() {
        let s = TwoLevelStats::default();
        assert_eq!(s.global_miss_ratio(), 0.0);
        assert_eq!(s.local_miss_ratio(), 0.0);
        assert_eq!(s.write_back_fraction(), 0.0);
        assert_eq!(s.hint_accuracy(), 0.0);
    }

    #[test]
    fn ifetch_is_not_a_write() {
        let mut h = hierarchy();
        h.step(&TraceRecord::new(0x40, AccessKind::InstrFetch), &mut ());
        h.step(&TraceRecord::read(0x140), &mut ()); // evict clean block
        assert_eq!(h.stats().write_backs, 0);
    }

    #[test]
    fn stats_merge_counts_componentwise() {
        // Two streams whose segments both start with a flush: running them
        // through separate hierarchies and summing must equal running the
        // concatenation through one hierarchy.
        let stream = |base: u64| {
            let mut v = vec![TraceEvent::Flush];
            v.extend((0..100u64).map(|i| TraceEvent::Ref(TraceRecord::read(base + (i % 23) * 64))));
            v
        };
        let mut whole = hierarchy();
        whole.run(stream(0), &mut ());
        whole.run(stream(0x10000), &mut ());

        let mut a = hierarchy();
        a.run(stream(0), &mut ());
        let mut b = hierarchy();
        b.run(stream(0x10000), &mut ());

        let merged: TwoLevelStats = [*a.stats(), *b.stats()].into_iter().sum();
        assert_eq!(&merged, whole.stats());
    }
}
