//! Host-speed-adjusted timing.
//!
//! On a shared host a core's speed is not steady. On the shared 2-core Xeon
//! VM the bounds were measured on, each core switched between a fast state
//! and a slow one every few seconds, independently of the other core, and a
//! whole 15-second run could see only the slow state. No statistic over
//! such a run recovers the fast speed. So the benchmark times its work in
//! units of tens to hundreds of milliseconds and brackets every unit with a
//! fixed reference computation of its own, run on as many threads as the
//! unit. A unit's time is scaled by a power of the reference's nominal time
//! over its mean measured time before and after the unit. The reference is
//! the benchmark's own code, so no change to the library moves it.
//!
//! The power is a property of the code timed, measured by the caller (see
//! `Workload::slowdown_exponent`). In the slow state the reference ran
//! 1.25–1.35× slower, and so did trace generation and the serve replay,
//! but `simulate` on one thread ran 1.5–1.8× slower: about the square of
//! the reference's slowdown. No small kernel tried as a reference (cache
//! models, indirect calls, a large code footprint, text parsing,
//! streaming) slowed more than 1.35×.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// References the reference computation makes per thread: 2–3 ms.
const REFERENCE_REFS: usize = 150_000;
/// The reference's work is shared out in chunks of this many references,
/// as the sweep runner and the serve replay share out theirs.
const CHUNK_REFS: usize = 10_000;
/// Seconds the reference computation takes in the fast state of the host
/// the bounds were measured on; adjusted times are times on that host.
const NOMINAL_S: f64 = 1.9e-3;
/// Blocks of the reference's L1 and sets of its L2; powers of two.
const L1_BLOCKS: usize = 1024;
const L2_SETS: usize = 2048;

/// The reference computation: a direct-mapped L1 of 1024 blocks over an
/// 8-way LRU L2 of 2048 sets, fed by a pseudo-random stream of sequential
/// instruction fetches and data references in two regions. It is the same
/// kind of work as the simulator's, in a few kilobytes of code.
struct Reference {
    l1: Vec<u64>,
    l2: Vec<u64>,
    x: u64,
    pc: u64,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            l1: vec![u64::MAX; L1_BLOCKS],
            l2: vec![u64::MAX; L2_SETS * 8],
            x: 0x9E37_79B9_7F4A_7C15,
            pc: 0,
        }
    }

    fn run(&mut self, refs: usize) {
        let mut misses = 0u64;
        for _ in 0..refs {
            let mut x = self.x;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.x = x;
            let addr = match x & 7 {
                0..=4 => {
                    self.pc += 4;
                    if x & 0x3f0 == 0 {
                        self.pc = (x >> 20) & 0xf_ffff;
                    }
                    self.pc
                }
                5 | 6 => 0x100_0000 + ((x >> 12) & 0x3_ffff),
                _ => 0x200_0000 + ((x >> 12) & 0xff_ffff),
            };
            let block = addr >> 4;
            let line = (block as usize) & (L1_BLOCKS - 1);
            if self.l1[line] == block {
                continue;
            }
            self.l1[line] = block;
            misses += 1;
            let block = addr >> 5;
            let set = (block as usize) & (L2_SETS - 1);
            let ways = &mut self.l2[set * 8..set * 8 + 8];
            match ways.iter().position(|&t| t == block) {
                Some(w) => ways[..=w].rotate_right(1),
                None => {
                    ways.rotate_right(1);
                    ways[0] = block;
                }
            }
        }
        black_box(misses);
    }
}

/// One timed unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Wall seconds the unit took.
    pub wall_s: f64,
    /// Mean wall seconds of the reference computation before and after it.
    pub reference_s: f64,
}

impl Unit {
    /// The unit's time on the nominal host, for code whose slowdown is the
    /// reference's to the power `exponent`.
    pub fn adjusted_s(&self, exponent: i32) -> f64 {
        self.wall_s * (NOMINAL_S / self.reference_s).powi(exponent)
    }
}

/// Times work as a sequence of units, each between two runs of the
/// reference computation.
pub struct Stopwatch {
    references: Vec<Reference>,
    units: Vec<Unit>,
    started: Instant,
    before_s: f64,
}

impl Stopwatch {
    /// A stopwatch for work on `threads` threads; the reference runs on as
    /// many.
    pub fn new(threads: usize) -> Stopwatch {
        Stopwatch {
            references: (0..threads.max(1)).map(|_| Reference::new()).collect(),
            units: Vec::new(),
            started: Instant::now(),
            before_s: 0.0,
        }
    }

    /// Wall seconds of `REFERENCE_REFS` references per thread, shared out
    /// in chunks among this thread and the others it spawns.
    fn reference(&mut self) -> f64 {
        let chunks = self.references.len() * REFERENCE_REFS / CHUNK_REFS;
        let next = AtomicUsize::new(0);
        // Relaxed: the counter only hands out chunk numbers.
        let share = |r: &mut Reference| {
            while next.fetch_add(1, Ordering::Relaxed) < chunks {
                r.run(CHUNK_REFS);
            }
        };
        let share = &share;
        let (own, others) = self
            .references
            .split_first_mut()
            .expect("a stopwatch has at least one thread");
        let started = Instant::now();
        std::thread::scope(|scope| {
            for r in others {
                scope.spawn(move || share(r));
            }
            share(own);
        });
        started.elapsed().as_secs_f64()
    }

    /// Starts the first unit.
    pub fn start(&mut self) {
        self.units.clear();
        self.before_s = self.reference();
        self.started = Instant::now();
    }

    fn end_unit(&mut self) {
        let wall_s = self.started.elapsed().as_secs_f64();
        let after_s = self.reference();
        self.units.push(Unit {
            wall_s,
            reference_s: (self.before_s + after_s) / 2.0,
        });
        self.before_s = after_s;
    }

    /// Ends the current unit and starts the next.
    pub fn lap(&mut self) {
        self.end_unit();
        self.started = Instant::now();
    }

    /// Ends the last unit and returns every unit since [`start`](Self::start).
    pub fn finish(&mut self) -> Vec<Unit> {
        self.end_unit();
        std::mem::take(&mut self.units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lap_ends_a_unit() {
        for threads in [1, 2] {
            let mut watch = Stopwatch::new(threads);
            watch.start();
            watch.lap();
            watch.lap();
            let units = watch.finish();
            assert_eq!(units.len(), 3);
            for u in units {
                assert!(u.wall_s >= 0.0 && u.reference_s > 0.0, "{u:?}");
                assert!(u.adjusted_s(2).is_finite());
            }
        }
    }
}
