//! The sharded concurrent set-associative cache.
//!
//! "Limited Associativity Makes Concurrent Software Caches a Breeze"
//! observes that bounded ways per set are exactly what makes lock-cheap
//! concurrent caches practical: every operation touches one set, so a
//! stripe of sets behind one mutex is a complete critical section with no
//! cross-stripe ordering to get wrong. [`ConcurrentCache`] applies that to
//! this repo's core: the set-local state is the same [`SetBank`] the
//! sequential [`Cache`](seta_cache::Cache) uses, partitioned into
//! contiguous stripes, each behind its own [`Mutex`]. Lookup *cost* is
//! priced by the same closed forms the sweep runner uses
//! ([`StrategyKind::price`]), from what the bank's access reports — the
//! hit way and MRU distance — so the critical section is the set access
//! and no set snapshot.

use seta_cache::{AddressMapper, CacheConfig, CacheStats, Policy, SetBank};
use seta_core::{PricedSet, ProbeStats, StrategyKind, MAX_ASSOC};
use seta_obs::{ContentionObserver, NoContention};
use std::sync::Mutex;
use std::time::Instant;

/// Outcome of one [`ConcurrentCache`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Whether the block was resident.
    pub hit: bool,
    /// The way the block now occupies.
    pub way: u8,
    /// Tag probes the configured lookup strategy spent finding (or missing)
    /// the block. Zero for write-backs under the write-back optimization.
    pub probes: u32,
    /// Whether a dirty victim was displaced by this fill.
    pub evicted_dirty: bool,
    /// The lock stripe that served this request.
    pub stripe: usize,
}

/// One stripe: a contiguous range of sets behind one lock, with its own
/// probe accounting.
#[derive(Debug)]
struct Stripe {
    bank: SetBank,
    probes: ProbeStats,
}

/// A sharded concurrent set-associative write-back cache.
///
/// Shared by reference across client threads (`&ConcurrentCache` is
/// `Send + Sync`); every request locks exactly one stripe, so requests to
/// different stripes proceed in parallel and there is never more than one
/// lock held — no lock-ordering discipline, hence no deadlock.
///
/// # Example
///
/// ```
/// use seta_cache::CacheConfig;
/// use seta_core::lookup::Mru;
/// use seta_core::StrategyKind;
/// use seta_serve::ConcurrentCache;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cache = ConcurrentCache::new(
///     CacheConfig::new(64 * 1024, 32, 4)?,
///     StrategyKind::Mru(Mru::full()),
///     8,
/// );
/// assert!(!cache.get(0x1000).hit); // cold miss fills
/// assert!(cache.get(0x1000).hit);
/// assert_eq!(cache.stats().accesses(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConcurrentCache {
    config: CacheConfig,
    mapper: AddressMapper,
    strategy: StrategyKind,
    /// Whether pricing a read-in reads the set's contents before the
    /// access (see [`StrategyKind::scans`]).
    scans: bool,
    sets_per_stripe: u64,
    stripes: Vec<Mutex<Stripe>>,
}

impl ConcurrentCache {
    /// An empty concurrent cache with LRU replacement, striped into (at
    /// most) `stripes` locks. The stripe count is clamped to the set count
    /// and rounded down to a power of two so every stripe spans the same
    /// number of sets. Partial-compare strategies with a realizable lane
    /// spec get packed lanes maintained automatically, exactly like
    /// [`simulate`](seta_sim::runner::simulate) does for the sweep.
    ///
    /// # Panics
    ///
    /// Panics if `config` has more than [`MAX_ASSOC`] ways: the lookups
    /// are defined over sets of at most that many.
    pub fn new(config: CacheConfig, strategy: StrategyKind, stripes: usize) -> Self {
        let num_sets = config.num_sets();
        let assoc = config.associativity() as usize;
        assert!(
            assoc <= MAX_ASSOC,
            "lookups price sets of at most {MAX_ASSOC} ways, not {assoc}"
        );
        let stripes = Self::effective_stripes(&config, stripes) as u64;
        let sets_per_stripe = num_sets / stripes;
        let lane_spec = match strategy {
            StrategyKind::Partial(p) => p.lane_spec(assoc),
            _ => None,
        };
        let stripe_vec = (0..stripes)
            .map(|_| {
                let mut bank = SetBank::new(sets_per_stripe as usize, assoc, Policy::Lru, 0);
                if let Some(spec) = lane_spec {
                    bank.enable_partial_lanes(spec);
                }
                Mutex::new(Stripe {
                    bank,
                    probes: ProbeStats::new(),
                })
            })
            .collect();
        ConcurrentCache {
            config,
            mapper: AddressMapper::new(config.block_size(), num_sets),
            strategy,
            scans: strategy.scans(assoc),
            sets_per_stripe,
            stripes: stripe_vec,
        }
    }

    /// The stripe count [`new`](Self::new) would actually use for this
    /// geometry: `stripes` clamped to the set count and rounded to a
    /// power of two. `num_sets` is itself a power of two (enforced by
    /// [`CacheConfig`]), so any such count divides it evenly.
    pub fn effective_stripes(config: &CacheConfig, stripes: usize) -> usize {
        (stripes.max(1) as u64)
            .next_power_of_two()
            .min(config.num_sets()) as usize
    }

    /// The geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The lookup strategy pricing every request.
    pub fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// Number of lock stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// A read-in request: the service's `get`. Prices the lookup, then
    /// fills on a miss (evicting if needed).
    pub fn read_in(&self, addr: u64) -> Response {
        self.request(addr, false, &mut NoContention)
    }

    /// A write-back request: the service's `insert`. Under the write-back
    /// optimization it costs zero probes — the L1's position hint replaces
    /// the search — but still counts as an access.
    pub fn write_back(&self, addr: u64) -> Response {
        self.request(addr, true, &mut NoContention)
    }

    /// Alias for [`read_in`](Self::read_in) in service terms.
    pub fn get(&self, key: u64) -> Response {
        self.read_in(key)
    }

    /// Alias for [`write_back`](Self::write_back) in service terms.
    pub fn insert(&self, key: u64) -> Response {
        self.write_back(key)
    }

    /// [`read_in`](Self::read_in) with contention attribution: when the
    /// observer's `ENABLED` constant is true, the lock wait and hold are
    /// timed and reported to it once per request (after the lock drops).
    /// With [`NoContention`] this monomorphizes to exactly the plain
    /// request path — no clock reads, no observer calls — so contents,
    /// statistics and probes are bit-identical with any observer.
    pub fn read_in_observed<O: ContentionObserver>(&self, addr: u64, obs: &mut O) -> Response {
        self.request(addr, false, obs)
    }

    /// [`write_back`](Self::write_back) with contention attribution.
    pub fn write_back_observed<O: ContentionObserver>(&self, addr: u64, obs: &mut O) -> Response {
        self.request(addr, true, obs)
    }

    fn request<O: ContentionObserver>(
        &self,
        addr: u64,
        is_write_back: bool,
        obs: &mut O,
    ) -> Response {
        let set = self.mapper.set_of(addr);
        let tag = self.mapper.tag_of(addr);
        let stripe_idx = (set / self.sets_per_stripe) as usize;
        let local = (set % self.sets_per_stripe) as usize;

        // Both clock reads vanish when the observer is disabled: the
        // branch is on a monomorphized associated constant.
        let requested = if O::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let mut guard = self.stripes[stripe_idx].lock().expect("stripe poisoned");
        let acquired = if O::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let stripe = &mut *guard;

        // Write-backs cost no probes under the write-back optimization,
        // so they skip pricing. A read-in's price follows from the hit way
        // and MRU distance the access reports; only a partial compare's
        // step one and a truncated MRU list read the set's contents, and
        // they read them here, before the access changes them.
        let scanned = if self.scans && !is_write_back {
            let frames = stripe.bank.frames(local);
            self.strategy.scan(&PricedSet {
                tag,
                hit_way: None,
                mru_distance: None,
                tags: frames.tags(),
                valid: frames.valid_mask(),
                order: stripe.bank.order(local),
                lanes: stripe.bank.lane_view(local),
            })
        } else {
            0
        };
        // Debug builds also run the serial search on the pre-access set,
        // the pricer's oracle, and check the price against it below.
        #[cfg(debug_assertions)]
        let serial = (!is_write_back).then(|| {
            let frames = stripe.bank.frames(local);
            let order = stripe.bank.order(local);
            let view =
                seta_core::SetView::from_valid_mask(frames.tags(), frames.valid_mask(), order);
            self.strategy.lookup_observed(&view, tag, &mut ())
        });

        let r = stripe.bank.access(local, tag, is_write_back);
        let probes = if is_write_back {
            stripe.probes.record_write_back(0);
            0
        } else {
            let hit_way = r.hit.then_some(r.way);
            let probes =
                self.strategy
                    .price_scanned(stripe.bank.assoc(), hit_way, r.mru_distance, scanned);
            #[cfg(debug_assertions)]
            assert_eq!(
                serial,
                Some(seta_core::Lookup { hit_way, probes }),
                "{} priced a read-in unlike its serial search",
                self.strategy.name()
            );
            if r.hit {
                stripe.probes.record_hit(probes);
            } else {
                stripe.probes.record_miss(probes);
            }
            probes
        };
        let response = Response {
            hit: r.hit,
            way: r.way,
            probes,
            evicted_dirty: r.evicted.is_some_and(|(_, dirty)| dirty),
            stripe: stripe_idx,
        };
        if O::ENABLED {
            // Hold ends here, just before the guard drops; the observer
            // runs outside the lock so attribution never adds contention.
            let hold_ns = acquired.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let wait_ns = match (requested, acquired) {
                (Some(req), Some(acq)) => acq.duration_since(req).as_nanos() as u64,
                _ => 0,
            };
            drop(guard);
            obs.on_request(stripe_idx, wait_ns, hold_ns, response.hit);
        }
        response
    }

    /// Merged access statistics across all stripes.
    pub fn stats(&self) -> CacheStats {
        self.stripes
            .iter()
            .map(|s| *s.lock().expect("stripe poisoned").bank.stats())
            .sum()
    }

    /// Merged probe statistics across all stripes.
    pub fn probe_stats(&self) -> ProbeStats {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe poisoned").probes)
            .fold(ProbeStats::new(), |a, b| a + b)
    }

    /// Valid blocks in one set (for occupancy comparisons).
    pub fn occupancy(&self, set: u64) -> usize {
        let stripe_idx = (set / self.sets_per_stripe) as usize;
        let local = (set % self.sets_per_stripe) as usize;
        self.stripes[stripe_idx]
            .lock()
            .expect("stripe poisoned")
            .bank
            .occupancy(local)
    }

    /// Valid blocks across all sets of one lock stripe (for the
    /// contention report's per-stripe occupancy column).
    pub fn stripe_occupancy(&self, stripe: usize) -> usize {
        self.stripes[stripe]
            .lock()
            .expect("stripe poisoned")
            .bank
            .resident_blocks()
    }

    /// Valid blocks across the whole cache.
    pub fn resident_blocks(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe poisoned").bank.resident_blocks())
            .sum()
    }

    /// Block-aligned addresses of all resident blocks, in no particular
    /// order across stripes.
    pub fn resident_addrs(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (i, stripe) in self.stripes.iter().enumerate() {
            let guard = stripe.lock().expect("stripe poisoned");
            let base = i as u64 * self.sets_per_stripe;
            out.extend(
                guard
                    .bank
                    .resident_tags()
                    .map(|(set, tag)| self.mapper.block_addr(tag, base + set as u64)),
            );
        }
        out
    }

    /// Invalidates every block and resets recency lists (statistics are
    /// kept). Stripes are flushed one at a time — concurrent requests
    /// observe each stripe either before or after its flush, never mid-set.
    pub fn flush(&self) {
        for stripe in &self.stripes {
            stripe.lock().expect("stripe poisoned").bank.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seta_core::lookup::Mru;

    fn assert_send_sync<T: Send + Sync>() {}

    fn small(stripes: usize) -> ConcurrentCache {
        // 16 sets x 2 ways x 16 B.
        ConcurrentCache::new(
            CacheConfig::new(512, 16, 2).unwrap(),
            StrategyKind::Mru(Mru::full()),
            stripes,
        )
    }

    #[test]
    fn shared_reference_is_send_and_sync() {
        assert_send_sync::<ConcurrentCache>();
        assert_send_sync::<&ConcurrentCache>();
    }

    #[test]
    #[should_panic(expected = "at most 32 ways, not 64")]
    fn a_set_wider_than_max_assoc_is_refused() {
        ConcurrentCache::new(
            CacheConfig::new(64 * 64 * 16, 16, 64).unwrap(),
            StrategyKind::Mru(Mru::truncated(4)),
            2,
        );
    }

    #[test]
    fn stripe_count_divides_sets() {
        for req in [1, 2, 3, 5, 8, 16, 64] {
            let c = small(req);
            assert_eq!(16 % c.num_stripes() as u64, 0, "requested {req}");
            assert!(c.num_stripes() <= 16);
        }
    }

    #[test]
    fn get_insert_round_trip_with_probe_accounting() {
        let c = small(4);
        let miss = c.get(0x1000);
        assert!(!miss.hit);
        assert!(miss.probes >= 1, "misses probe the set");
        let hit = c.get(0x1000);
        assert!(hit.hit);
        let wb = c.insert(0x1000);
        assert!(wb.hit);
        assert_eq!(wb.probes, 0, "write-back optimization");
        let s = c.stats();
        assert_eq!((s.accesses(), s.hits(), s.misses()), (3, 2, 1));
        let p = c.probe_stats();
        assert_eq!(p.hits.count, 1);
        assert_eq!(p.misses.count, 1);
        assert_eq!(p.write_backs.count, 1);
        assert_eq!(p.write_backs.probes, 0);
    }

    #[test]
    fn dirty_eviction_is_reported() {
        let c = small(1);
        c.insert(0x0000); // set 0, dirty
        c.get(0x0200); // set 0, second way
        let r = c.get(0x0400); // set 0 again: evicts dirty LRU
        assert!(r.evicted_dirty);
    }

    #[test]
    fn striping_is_invisible_to_contents() {
        // The same request stream against 1 stripe and 8 stripes must
        // leave identical contents and statistics: striping only changes
        // locking, never set mapping or replacement.
        let one = small(1);
        let many = small(8);
        let addrs: Vec<u64> = (0..200u64).map(|i| (i * 7919) % 0x2000).collect();
        for &a in &addrs {
            one.get(a);
            many.get(a);
        }
        assert_eq!(one.stats(), many.stats());
        assert_eq!(one.probe_stats(), many.probe_stats());
        let mut ra = one.resident_addrs();
        let mut rb = many.resident_addrs();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb);
    }

    #[test]
    fn observed_requests_attribute_to_the_serving_stripe() {
        use seta_obs::StripeContention;
        let c = small(4);
        let mut obs = StripeContention::new(c.num_stripes());
        for i in 0..64u64 {
            let before: Vec<u64> = obs.stripes().iter().map(|s| s.accesses).collect();
            let r = c.read_in_observed(i * 16, &mut obs);
            assert!(r.stripe < c.num_stripes());
            // The response names the stripe whose tally advanced.
            assert_eq!(obs.stripes()[r.stripe].accesses, before[r.stripe] + 1);
        }
        assert_eq!(obs.total_accesses(), 64, "one observation per request");
        assert_eq!(obs.total_acquisitions(), 64);
        assert_eq!(obs.total_hits(), c.stats().hits());
        let per_stripe: u64 = (0..c.num_stripes())
            .map(|i| obs.stripes()[i].accesses)
            .sum();
        assert_eq!(per_stripe, c.stats().accesses());
        let occ: usize = (0..c.num_stripes()).map(|i| c.stripe_occupancy(i)).sum();
        assert_eq!(occ, c.resident_blocks());
    }

    #[test]
    fn observation_is_content_invisible() {
        use seta_obs::StripeContention;
        let plain = small(4);
        let observed = small(4);
        let mut obs = StripeContention::new(observed.num_stripes());
        let addrs: Vec<u64> = (0..300u64).map(|i| (i * 7919) % 0x2000).collect();
        for &a in &addrs {
            let rp = if a % 3 == 0 {
                plain.insert(a)
            } else {
                plain.get(a)
            };
            let ro = if a % 3 == 0 {
                observed.write_back_observed(a, &mut obs)
            } else {
                observed.read_in_observed(a, &mut obs)
            };
            assert_eq!((rp.hit, rp.way, rp.probes), (ro.hit, ro.way, ro.probes));
        }
        assert_eq!(plain.stats(), observed.stats());
        assert_eq!(plain.probe_stats(), observed.probe_stats());
    }

    #[test]
    fn flush_empties_and_keeps_stats() {
        let c = small(4);
        for a in (0..64u64).map(|i| i * 32) {
            c.get(a);
        }
        assert!(c.resident_blocks() > 0);
        c.flush();
        assert_eq!(c.resident_blocks(), 0);
        assert_eq!(c.stats().accesses(), 64);
    }

    #[test]
    fn partial_strategy_uses_packed_lanes() {
        use seta_core::lookup::{PartialCompare, TransformKind};
        let strategy = StrategyKind::Partial(PartialCompare::new(16, 2, TransformKind::XorFold));
        let packed = ConcurrentCache::new(CacheConfig::new(512, 16, 2).unwrap(), strategy, 4);
        assert!(packed.scans, "partial compare reads the set before access");
        let bank_spec = packed.stripes[0].lock().unwrap().bank.lane_spec();
        assert!(bank_spec.is_some(), "lanes maintained for partial");
        // Same probe pricing as an unpacked reference? The packed path is
        // an internal fast path; contents and probes must match a cache
        // whose bank happens not to maintain lanes (simulated by Mru for
        // contents and by construction for probes being strategy-defined).
        for a in (0..128u64).map(|i| (i * 4091) % 0x4000) {
            packed.get(a);
        }
        let s = packed.stats();
        assert_eq!(s.accesses(), 128);
        assert_eq!(s.hits() + s.misses(), 128);
    }
}
