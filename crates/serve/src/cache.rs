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
//!
//! **MRU hits take no lock.** The paper's MRU scheme pays off because
//! most hits land on the set's most-recently-used block, and a hit there
//! changes nothing: under LRU the block is already first, and a
//! write-back to a block that is already dirty sets no bit. So each set
//! also has one [`AtomicU64`], its *MRU word*, packing the MRU frame's
//! tag, way, dirty and valid bits. A request whose tag matches the word
//! (and, for a write-back, finds it dirty) is answered from that one
//! `Acquire` load, priced at MRU distance 0, and counted into its
//! client's lock-free tally with `Relaxed` adds. Every other request —
//! a miss, a hit below the MRU, the first write-back to a clean block, a
//! tag too wide to pack, and every request priced by partial compare,
//! whose distance-0 price reads the set — locks its stripe, and after the
//! access stores the set's new MRU word with `Release` if it changed.
//!
//! This is linearizable: a lock-free request reads one word and writes no
//! set state, and the word equals the bank's MRU frame whenever the lock
//! is free. So it takes effect at its load, before or after the locked
//! access that republishes the word.
//!
//! A locked request writes the mutex word, its set, its set's MRU word
//! when that changes, and its own client's counters; a lock-free one
//! writes only its client's counters. The bank counts nothing; each
//! stripe keeps one tally per client slot for locked requests, the cache
//! keeps one per client slot for lock-free ones, each in its own 128
//! bytes, and the stripe's fields start on a line after the mutex word's. With one shared tally per
//! stripe, next to the mutex word, those lines moved between cores on
//! nearly every request, and two clients at 16 stripes ran no faster than
//! one.

use seta_cache::{AddressMapper, CacheConfig, CacheStats, Frame, Policy, SetBank};
use seta_core::{PricedSet, ProbeStats, StrategyKind, MAX_ASSOC};
use seta_obs::{ContentionObserver, NoContention};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
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

/// MRU word bit: the word names a block (0 names none).
const WORD_VALID: u64 = 1;
/// MRU word bit: the block is dirty.
const WORD_DIRTY: u64 = 2;
/// The way sits in bits 2..7: five bits, enough for [`MAX_ASSOC`] ways.
const WAY_SHIFT: u32 = 2;
/// The tag sits above the way.
const TAG_SHIFT: u32 = 7;
const _: () = assert!(MAX_ASSOC <= 1 << (TAG_SHIFT - WAY_SHIFT));

/// The MRU word of a set whose MRU frame is `frame`, in way `way`: 0 if
/// the frame is empty or its tag does not fit beside the 7 low bits.
#[inline]
fn mru_word(frame: Frame, way: u8) -> u64 {
    if !frame.valid || frame.tag >> (u64::BITS - TAG_SHIFT) != 0 {
        return 0;
    }
    (frame.tag << TAG_SHIFT)
        | (u64::from(way) << WAY_SHIFT)
        | (u64::from(frame.dirty) * WORD_DIRTY)
        | WORD_VALID
}

/// Set `set` of `bank`'s MRU frame: the way first on its recency list,
/// and that way's frame.
#[cfg(any(debug_assertions, test))]
fn mru_of(bank: &SetBank, set: usize) -> (u8, Frame) {
    let way = bank.order(set)[0];
    let frame = bank.frames(set).get(usize::from(way));
    (way, frame.expect("the recency list names a way of the set"))
}

/// The way `word` names if a request for `tag` hits there and changes
/// nothing: the tag matches, and for a write-back the block is already
/// dirty. Comparing `word >> TAG_SHIFT` with the whole tag means a tag too
/// wide to pack never matches.
#[inline]
fn mru_hit(word: u64, tag: u64, is_write_back: bool) -> Option<u8> {
    let need = WORD_VALID | (u64::from(is_write_back) * WORD_DIRTY);
    (word >> TAG_SHIFT == tag && word & need == need)
        .then_some((word >> WAY_SHIFT) as u8 & (MAX_ASSOC as u8 - 1))
}

/// What one client's locked requests to one stripe counted: the accesses
/// and what the lookup strategy spent on them. Aligned to 128 bytes, a
/// pair of cache lines, so that no two clients' tallies share a line, nor
/// does a tally share one with the adjacent-line prefetcher's partner.
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
struct ClientTally {
    stats: CacheStats,
    probes: ProbeStats,
}

/// What one client's lock-free requests counted, across all stripes: each
/// one a hit at MRU distance 0. Written with `Relaxed` adds, outside any
/// lock, and aligned like [`ClientTally`] so that only this client writes
/// its lines (the public request methods share slot 0, which the adds keep
/// exact).
#[derive(Debug, Default)]
#[repr(align(128))]
struct LockFreeTally {
    read_in_hits: AtomicU64,
    read_in_probes: AtomicU64,
    write_back_hits: AtomicU64,
}

impl LockFreeTally {
    /// Adds these counts to `total`.
    fn add_to(&self, total: &mut ClientTally) {
        let read_in_hits = self.read_in_hits.load(Ordering::Relaxed);
        let write_back_hits = self.write_back_hits.load(Ordering::Relaxed);
        total
            .stats
            .record_hits(read_in_hits + write_back_hits, write_back_hits);
        total.probes.hits.count += read_in_hits;
        total.probes.hits.probes += self.read_in_probes.load(Ordering::Relaxed);
        total.probes.write_backs.count += write_back_hits;
    }
}

/// Whether a request priced by `strategy` may be answered from its set's
/// MRU word, without the lock: true for every strategy but partial
/// compare, whose price at MRU distance 0 still depends on the set's
/// contents. A truncated MRU list always names the MRU way, so its
/// distance-0 price does not.
#[inline]
pub(crate) fn answers_mru_hits_lock_free(strategy: StrategyKind) -> bool {
    !matches!(strategy, StrategyKind::Partial(_))
}

/// One stripe: a contiguous range of sets behind one lock, with one tally
/// per client slot.
///
/// Aligned to 128 bytes, so inside its `Mutex` the stripe starts on a line
/// of its own, after the mutex word's. A client that waits for the lock
/// writes that word; were the bank's and tallies' pointers on the same
/// line, every such write would take away the line the holder reads them
/// from, in the middle of its critical section.
#[derive(Debug)]
#[repr(align(128))]
struct Stripe {
    bank: SetBank,
    tallies: Box<[ClientTally]>,
}

/// A locked stripe, with the MRU words of its sets.
///
/// Dropped during a panic, it zeroes those words before the lock is
/// released poisoned: a panic may leave a set half updated and its word
/// stale, and a zero word sends every later request for the stripe's sets
/// to the lock, which refuses them (see [`ConcurrentCache::stripe`]).
struct StripeGuard<'a> {
    stripe: MutexGuard<'a, Stripe>,
    mru: &'a [AtomicU64],
}

impl Deref for StripeGuard<'_> {
    type Target = Stripe;

    #[inline]
    fn deref(&self) -> &Stripe {
        &self.stripe
    }
}

impl DerefMut for StripeGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Stripe {
        &mut self.stripe
    }
}

impl Drop for StripeGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if std::thread::panicking() {
            for word in self.mru {
                word.store(0, Ordering::Release);
            }
        }
    }
}

/// A sharded concurrent set-associative write-back cache.
///
/// Shared by reference across client threads (`&ConcurrentCache` is
/// `Send + Sync`); a request locks at most one stripe, and one that hits
/// its set's MRU block locks none, so requests to different stripes
/// proceed in parallel and there is never more than one lock held — no
/// lock-ordering discipline, hence no deadlock.
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
/// assert!(cache.get(0x1000).hit); // an MRU hit, answered without the lock
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
    /// Whether an MRU-word hit may answer a request without the lock (see
    /// [`answers_mru_hits_lock_free`]).
    lock_free: bool,
    sets_per_stripe: u64,
    /// Tally slots per stripe.
    clients: usize,
    stripes: Vec<Mutex<Stripe>>,
    /// One MRU word per set, indexed by set.
    mru: Box<[AtomicU64]>,
    /// One lock-free tally per client slot.
    lock_free_tallies: Box<[LockFreeTally]>,
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
        Self::with_clients(config, strategy, stripes, 1)
    }

    /// [`new`](Self::new) with `clients` tally slots in every stripe. A
    /// request made through [`request`](Self::request) as client `c`
    /// counts into slot `c`; the public request methods count into
    /// slot 0.
    pub(crate) fn with_clients(
        config: CacheConfig,
        strategy: StrategyKind,
        stripes: usize,
        clients: usize,
    ) -> Self {
        let num_sets = config.num_sets();
        let assoc = config.associativity() as usize;
        assert!(
            assoc <= MAX_ASSOC,
            "lookups price sets of at most {MAX_ASSOC} ways, not {assoc}"
        );
        let stripes = Self::effective_stripes(&config, stripes) as u64;
        let sets_per_stripe = num_sets / stripes;
        let clients = clients.max(1);
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
                    tallies: vec![ClientTally::default(); clients].into(),
                })
            })
            .collect();
        ConcurrentCache {
            config,
            mapper: AddressMapper::new(config.block_size(), num_sets),
            strategy,
            scans: strategy.scans(assoc),
            lock_free: answers_mru_hits_lock_free(strategy),
            sets_per_stripe,
            clients,
            stripes: stripe_vec,
            mru: (0..num_sets).map(|_| AtomicU64::new(0)).collect(),
            lock_free_tallies: (0..clients).map(|_| LockFreeTally::default()).collect(),
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
    #[inline]
    pub fn read_in(&self, addr: u64) -> Response {
        self.request(0, addr, false, &mut NoContention)
    }

    /// A write-back request: the service's `insert`. Under the write-back
    /// optimization it costs zero probes — the L1's position hint replaces
    /// the search — but still counts as an access.
    #[inline]
    pub fn write_back(&self, addr: u64) -> Response {
        self.request(0, addr, true, &mut NoContention)
    }

    /// Alias for [`read_in`](Self::read_in) in service terms.
    #[inline]
    pub fn get(&self, key: u64) -> Response {
        self.read_in(key)
    }

    /// Alias for [`write_back`](Self::write_back) in service terms.
    #[inline]
    pub fn insert(&self, key: u64) -> Response {
        self.write_back(key)
    }

    /// [`read_in`](Self::read_in) with contention attribution: when the
    /// observer's `ENABLED` constant is true, a locked request's lock
    /// wait and hold are timed and reported to it once (after the lock
    /// drops), and a lock-free one is reported as such. With
    /// [`NoContention`] this monomorphizes to exactly the plain request
    /// path — no clock reads, no observer calls — so contents, statistics
    /// and probes are bit-identical with any observer.
    pub fn read_in_observed<O: ContentionObserver>(&self, addr: u64, obs: &mut O) -> Response {
        self.request(0, addr, false, obs)
    }

    /// [`write_back`](Self::write_back) with contention attribution.
    pub fn write_back_observed<O: ContentionObserver>(&self, addr: u64, obs: &mut O) -> Response {
        self.request(0, addr, true, obs)
    }

    /// One request as client `client`: a write-back if `is_write_back`,
    /// else a read-in, counted into that client's tally slots of the
    /// serving stripe. Answered from the set's MRU word when that word
    /// shows a hit that changes nothing; otherwise under the stripe lock.
    ///
    /// # Panics
    ///
    /// Panics if `client` is not below the slot count the cache was built
    /// with ([`with_clients`](Self::with_clients)).
    #[inline]
    pub(crate) fn request<O: ContentionObserver>(
        &self,
        client: usize,
        addr: u64,
        is_write_back: bool,
        obs: &mut O,
    ) -> Response {
        assert!(
            client < self.clients,
            "client slot {client} of {}",
            self.clients
        );
        let set = self.mapper.set_of(addr);
        let tag = self.mapper.tag_of(addr);
        let stripe = (set / self.sets_per_stripe) as usize;
        if self.lock_free {
            let word = self.mru[set as usize].load(Ordering::Acquire);
            if let Some(way) = mru_hit(word, tag, is_write_back) {
                return self.lock_free_hit(client, stripe, way, is_write_back, obs);
            }
        }
        self.locked(client, set, tag, is_write_back, obs)
    }

    /// A hit at MRU distance 0 that the set's MRU word answered: priced
    /// and counted exactly as the locked path would, into the client's
    /// lock-free tally, with no lock and no store to set state.
    #[inline]
    fn lock_free_hit<O: ContentionObserver>(
        &self,
        client: usize,
        stripe: usize,
        way: u8,
        is_write_back: bool,
        obs: &mut O,
    ) -> Response {
        let tally = &self.lock_free_tallies[client];
        let probes = if is_write_back {
            tally.write_back_hits.fetch_add(1, Ordering::Relaxed);
            0
        } else {
            let assoc = self.config.associativity() as usize;
            let probes = self.strategy.price_scanned(assoc, Some(way), Some(0), 0);
            tally.read_in_hits.fetch_add(1, Ordering::Relaxed);
            tally
                .read_in_probes
                .fetch_add(u64::from(probes), Ordering::Relaxed);
            probes
        };
        if O::ENABLED {
            obs.on_lock_free(stripe, true);
        }
        Response {
            hit: true,
            way,
            probes,
            evicted_dirty: false,
            stripe,
        }
    }

    /// A request under the stripe lock: the set access, its pricing and
    /// counting, and the set's new MRU word.
    fn locked<O: ContentionObserver>(
        &self,
        client: usize,
        set: u64,
        tag: u64,
        is_write_back: bool,
        obs: &mut O,
    ) -> Response {
        let stripe_idx = (set / self.sets_per_stripe) as usize;
        let local = (set % self.sets_per_stripe) as usize;

        // Both clock reads vanish when the observer is disabled: the
        // branch is on a monomorphized associated constant.
        let requested = if O::ENABLED {
            Some(Instant::now())
        } else {
            None
        };
        let mut guard = self.stripe(stripe_idx);
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
        // Under LRU the accessed block is now the set's MRU; publish it
        // only if the word changes, so that a hit that changes nothing
        // writes no line another client reads. The load can be `Relaxed`:
        // only lock holders store the word, so the lock orders the last
        // store before it. The `Release` store pairs with the lock-free
        // path's `Acquire` load.
        let frame = stripe.bank.frames(local).get(usize::from(r.way));
        let word = mru_word(frame.unwrap_or_default(), r.way);
        let slot = &self.mru[set as usize];
        if slot.load(Ordering::Relaxed) != word {
            slot.store(word, Ordering::Release);
        }
        #[cfg(debug_assertions)]
        {
            let (way, frame) = mru_of(&stripe.bank, local);
            assert_eq!(
                slot.load(Ordering::Relaxed),
                mru_word(frame, way),
                "set {set}'s MRU word differs from its MRU frame"
            );
        }

        let tally = &mut stripe.tallies[client];
        tally.stats.record(&r, is_write_back);
        let probes = if is_write_back {
            tally.probes.record_write_back(0);
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
                tally.probes.record_hit(probes);
            } else {
                tally.probes.record_miss(probes);
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

    /// Locks stripe `i`: the one way anything reaches a stripe.
    ///
    /// Poisoning policy: fail stop, one stripe at a time. A request that
    /// panics while it holds a stripe (a failed debug check of the
    /// pricer, say) may leave a set half updated, since a fill writes the
    /// tag, then its flags, then the packed lanes. So no one reads that
    /// stripe again: the guard zeroes the stripe's MRU words as the panic
    /// unwinds through it, so no request is answered without the lock, and
    /// every later lock of it, by a request, a statistics or occupancy
    /// read, or a flush, panics and names the stripe. The other stripes
    /// keep serving, and a replay re-raises the panic when it joins the
    /// client that hit it.
    #[inline]
    fn stripe(&self, i: usize) -> StripeGuard<'_> {
        let stripe = self.stripes[i].lock().unwrap_or_else(|_| {
            panic!("stripe {i} poisoned: a request panicked while holding it, so its sets may be half updated")
        });
        let sets = self.sets_per_stripe as usize;
        StripeGuard {
            stripe,
            mru: &self.mru[i * sets..(i + 1) * sets],
        }
    }

    /// Every stripe's client tallies and every lock-free tally, summed.
    fn total(&self) -> ClientTally {
        let mut total = ClientTally::default();
        for i in 0..self.stripes.len() {
            for t in self.stripe(i).tallies.iter() {
                total.stats += t.stats;
                total.probes = total.probes + t.probes;
            }
        }
        for free in self.lock_free_tallies.iter() {
            free.add_to(&mut total);
        }
        total
    }

    /// Merged access statistics across all stripes and client slots.
    pub fn stats(&self) -> CacheStats {
        self.total().stats
    }

    /// Merged probe statistics across all stripes and client slots.
    pub fn probe_stats(&self) -> ProbeStats {
        self.total().probes
    }

    /// Valid blocks in one set (for occupancy comparisons).
    pub fn occupancy(&self, set: u64) -> usize {
        let stripe_idx = (set / self.sets_per_stripe) as usize;
        let local = (set % self.sets_per_stripe) as usize;
        self.stripe(stripe_idx).bank.occupancy(local)
    }

    /// Valid blocks across all sets of one lock stripe (for the
    /// contention report's per-stripe occupancy column).
    pub fn stripe_occupancy(&self, stripe: usize) -> usize {
        self.stripe(stripe).bank.resident_blocks()
    }

    /// Valid blocks across the whole cache.
    pub fn resident_blocks(&self) -> usize {
        (0..self.stripes.len())
            .map(|i| self.stripe_occupancy(i))
            .sum()
    }

    /// Block-aligned addresses of all resident blocks, in no particular
    /// order across stripes.
    pub fn resident_addrs(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for i in 0..self.stripes.len() {
            let guard = self.stripe(i);
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
    /// A flushed set has no MRU block, so its MRU word is zeroed too.
    pub fn flush(&self) {
        for i in 0..self.stripes.len() {
            let mut guard = self.stripe(i);
            guard.bank.flush();
            for word in guard.mru {
                word.store(0, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
    fn client_slots_sum_to_the_one_slot_counts() {
        // The same stream, spread over three clients' tally slots, counts
        // what one slot counts: slots split the counting, never the cache.
        let one = small(4);
        let three = ConcurrentCache::with_clients(*one.config(), one.strategy(), 4, 3);
        for i in 0..300u64 {
            let (addr, write_back) = ((i * 7919) % 0x2000, i % 3 == 0);
            let a = one.request(0, addr, write_back, &mut NoContention);
            let b = three.request((i % 3) as usize, addr, write_back, &mut NoContention);
            assert_eq!(a, b, "request {i}");
        }
        assert_eq!(one.stats(), three.stats());
        assert_eq!(one.probe_stats(), three.probe_stats());
        let slot = |c: &ConcurrentCache, i: usize| -> u64 {
            let mut total = ClientTally::default();
            for s in 0..c.num_stripes() {
                total.stats += c.stripe(s).tallies[i].stats;
            }
            c.lock_free_tallies[i].add_to(&mut total);
            total.stats.accesses()
        };
        assert_eq!([0, 1, 2].map(|i| slot(&three, i)), [100; 3]);
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
    fn a_poisoned_stripe_fails_stop_while_the_others_serve() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // 16 sets in 4 stripes: sets 0..4 in stripe 0, sets 4..8 in stripe 1.
        let c = small(4);
        let (in_0, in_1) = (0x000, 4 * 16);
        c.get(in_0);
        let word = || c.mru[0].load(Ordering::Acquire);
        assert_ne!(word(), 0, "an MRU hit takes no lock");
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = c.stripe(0);
                panic!("a request fails while it holds stripe 0");
            });
            assert!(holder.join().is_err());
        });
        let refusal = |f: &dyn Fn()| {
            let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("stripe 0 is refused");
            payload.downcast::<String>().map(|m| *m).unwrap_or_default()
        };
        assert_eq!(word(), 0, "the guard zeroed the words");
        for message in [
            // The block is stripe 0's MRU, so only the zeroed word sends
            // this request to the lock that refuses it.
            refusal(&|| {
                c.get(in_0);
            }),
            refusal(&|| {
                c.stats();
            }),
            refusal(&|| c.flush()),
        ] {
            assert!(message.starts_with("stripe 0 poisoned"), "{message}");
        }
        assert!(!c.get(in_1).hit, "stripe 1 still serves");
        assert!(c.get(in_1).hit);
        assert_eq!(c.stripe_occupancy(1), 1);
    }

    #[test]
    fn mru_word_packs_and_matches() {
        let frame = |tag, dirty| Frame {
            valid: true,
            dirty,
            tag,
        };
        let clean = mru_word(frame(0x1234, false), 31);
        assert_eq!(mru_hit(clean, 0x1234, false), Some(31));
        assert_eq!(mru_hit(clean, 0x1234, true), None, "a clean block");
        assert_eq!(mru_hit(clean, 0x1235, false), None);
        let dirty = mru_word(frame(0x1234, true), 5);
        assert_eq!(mru_hit(dirty, 0x1234, true), Some(5));
        assert_eq!(mru_hit(dirty, 0x1234, false), Some(5));
        assert_eq!(mru_word(Frame::empty(), 0), 0);
        assert_eq!(mru_hit(0, 0, false), None, "a zero word names no block");
        let widest = (1u64 << 57) - 1;
        assert_eq!(
            mru_hit(mru_word(frame(widest, false), 0), widest, false),
            Some(0)
        );
        let too_wide = 1u64 << 57;
        assert_eq!(mru_word(frame(too_wide, true), 3), 0);
        // The wide tag's low 57 bits are 0: a packed tag 0 never stands
        // in for it.
        assert_eq!(mru_hit(mru_word(frame(0, true), 3), too_wide, false), None);
    }

    #[test]
    fn mru_hits_take_no_lock_and_count_like_locked_ones() {
        use seta_obs::StripeContention;
        let c = small(4);
        let mut obs = StripeContention::new(c.num_stripes());
        assert!(!c.read_in_observed(0x40, &mut obs).hit);
        let hit = c.read_in_observed(0x40, &mut obs);
        assert_eq!((hit.hit, hit.probes), (true, 2), "MRU at distance 0");
        // A write-back to the clean MRU block locks to set its dirty bit;
        // the next one finds it dirty and does not.
        assert!(c.write_back_observed(0x40, &mut obs).hit);
        assert!(c.write_back_observed(0x40, &mut obs).hit);
        assert_eq!(obs.total_accesses(), 4);
        assert_eq!(obs.total_acquisitions(), 2);
        assert_eq!(obs.total_hits(), 3);
        let s = c.stats();
        assert_eq!((s.accesses(), s.hits(), s.write_hits()), (4, 3, 2));
        let p = c.probe_stats();
        assert_eq!(
            (p.hits.count, p.hits.probes, p.write_backs.count),
            (1, 2, 2)
        );
        c.flush();
        assert!(!c.get(0x40).hit, "a flush zeroes the MRU words");
    }

    #[test]
    fn a_tag_too_wide_to_pack_takes_the_lock() {
        use seta_obs::StripeContention;
        // One set of 2 ways and 1-byte blocks: the tag is the address.
        let c = ConcurrentCache::new(
            CacheConfig::new(2, 1, 2).unwrap(),
            StrategyKind::Mru(Mru::full()),
            1,
        );
        let mut obs = StripeContention::new(1);
        for _ in 0..3 {
            c.read_in_observed(u64::MAX, &mut obs);
        }
        assert_eq!(c.mru[0].load(Ordering::Relaxed), 0, "unpackable");
        assert_eq!(obs.total_acquisitions(), 3);
        assert_eq!(c.stats().hits(), 2);
    }

    /// Every kind of lookup strategy, with a truncated MRU list and a
    /// partial compare among them.
    fn every_kind() -> [StrategyKind; 6] {
        use seta_core::lookup::{
            Banked, Naive, PartialCompare, ScanOrder, Traditional, TransformKind,
        };
        [
            StrategyKind::Traditional(Traditional),
            StrategyKind::Naive(Naive),
            StrategyKind::Mru(Mru::full()),
            StrategyKind::Mru(Mru::truncated(2)),
            StrategyKind::Partial(PartialCompare::new(16, 2, TransformKind::XorFold)),
            StrategyKind::Banked(Banked::new(2, ScanOrder::Mru)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// After any sequence of read-ins, write-backs and flushes, at 1,
        /// 2 and 16 stripes, every set's MRU word is the one its bank's
        /// MRU frame packs into.
        #[test]
        fn mru_words_name_every_sets_mru_frame(
            ops in proptest::collection::vec((0u64..0x2000, 0u8..16), 1..300),
            kind_idx in 0usize..6,
        ) {
            // 16 sets of 4 ways, 32-byte blocks: 8 tags a set.
            let config = CacheConfig::new(2 * 1024, 32, 4).unwrap();
            let kind = every_kind()[kind_idx];
            for stripes in [1usize, 2, 16] {
                let cache = ConcurrentCache::new(config, kind, stripes);
                let sets = cache.sets_per_stripe as usize;
                for &(addr, op) in &ops {
                    match op {
                        0 => cache.flush(),
                        1..=5 => {
                            cache.write_back(addr);
                        }
                        _ => {
                            cache.read_in(addr);
                        }
                    }
                    for set in 0..config.num_sets() as usize {
                        let (way, frame) = mru_of(&cache.stripe(set / sets).bank, set % sets);
                        prop_assert_eq!(
                            cache.mru[set].load(Ordering::Acquire),
                            mru_word(frame, way),
                            "set {} at {} stripes",
                            set,
                            stripes
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partial_strategy_uses_packed_lanes() {
        use seta_core::lookup::{PartialCompare, TransformKind};
        let strategy = StrategyKind::Partial(PartialCompare::new(16, 2, TransformKind::XorFold));
        let packed = ConcurrentCache::new(CacheConfig::new(512, 16, 2).unwrap(), strategy, 4);
        assert!(packed.scans, "partial compare reads the set before access");
        let bank_spec = packed.stripe(0).bank.lane_spec();
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
