//! Packed-lane tag storage and the SWAR step-one compare.
//!
//! The partial-compare scheme's step one (§2.2) reads a `k`-bit slice of
//! every stored tag in a subset and compares all of them against the
//! corresponding slices of the incoming tag *in one probe*. That is an
//! inherently data-parallel bitmask operation, so this module evaluates it
//! as one: the `a/s` slices of a subset are packed contiguously into a
//! single `u64` **lane word** (slot `i` occupies bits `[i·k, (i+1)·k)`),
//! and one XOR plus a carry-free zero-field detect answers every slot's
//! compare at once — SWAR ("SIMD within a register"), no nightly
//! `std::simd`, MSRV 1.75.
//!
//! # Layout
//!
//! For a `PartialCompare` configured with `t`-bit tags, `s` subsets and an
//! `a`-way set, `k = ⌊t·s/a⌋` and each subset holds `n = a/s` slots. The
//! lane word of subset `j` is
//!
//! ```text
//! word[j] = Σ_slot  slice(T(tag[j·n + slot]), slot)  <<  slot·k
//! ```
//!
//! where `T` is the configured [`TransformKind`] applied **at store time**
//! (the scalar path re-transforms every stored tag on every lookup), and
//! `slice(x, i)` is bits `[i·k, (i+1)·k)` of `x` — except under
//! [`TransformKind::Swap`], where every slot contributes bits `[0, k)`.
//! Because slot `i`'s slice already sits at bit `i·k` of the transformed
//! tag, non-swap packing is a mask-and-OR per way; swap packing shifts the
//! low field into place.
//!
//! The incoming tag packs the same way: `T(tag)` masked to the lane region
//! for the slice schemes, or the low field broadcast to every slot (one
//! multiply by the lane ladder) for swap.
//!
//! # The zero-field detect
//!
//! With both sides packed, `x = word ^ incoming` has an all-zero field
//! exactly where a slot's partial compare passes. Fields are flagged
//! without inter-field carries using the classic SWAR trick: let `L` be
//! the *ladder* `Σ 2^{i·k}`, `H = L << (k−1)` the per-field top bits, and
//! `C = H − L` (each field holds `2^{k−1} − 1`). Then
//!
//! ```text
//! match = !( ((x & !H) + C) | x ) & H
//! ```
//!
//! has field `i`'s top bit set iff field `i` of `x` is zero: the add can
//! only carry *within* a field (at most `(2^{k−1}−1) + (2^{k−1}−1) <
//! 2^k`), and it sets the top bit iff the low `k−1` bits were non-zero;
//! OR-ing `x` back in folds in the field's own top bit.
//!
//! Validity is applied at match time — a lane word retains the slice of
//! whatever tag a frame last held (mirroring stale tag RAM), and flagged
//! slots whose valid bit is clear are discarded before the step-two full
//! compare, so they can never produce a candidate probe.
//!
//! # Coherence
//!
//! [`PackedLanes`] is the incremental store a cache maintains alongside
//! its frames. Its invariant: **every lane word equals the word
//! [`rebuild`](PackedLanes::rebuild_set) would compute from the current
//! frame tags**, valid or not. The cache must call
//! [`on_fill`](PackedLanes::on_fill) whenever it writes a frame's tag;
//! invalidation and flush keep tags in place, so no lane update is needed
//! (validity is the [`SetView`](crate::SetView)'s concern). Debug builds
//! should assert the invariant at every mutation site via
//! [`assert_coherent`](PackedLanes::assert_coherent).

use crate::lookup::{Lookup, TransformKind};
use crate::set_view::MAX_ASSOC;
use crate::transform::tag_mask;

/// `Σ_{shift = start, start+step, …} 2^shift` for `shift < limit`.
fn spread(start: u32, step: u32, limit: u32) -> u64 {
    debug_assert!(step >= 1 && limit <= 64);
    let mut out = 0u64;
    let mut shift = start;
    while shift < limit {
        out |= 1u64 << shift;
        shift += step;
    }
    out
}

/// Precomputed constants for one `(t, k, n, transform)` lane geometry.
///
/// Built once per lookup on the view-only path, or once per cache when a
/// [`PackedLanes`] store is registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneCodec {
    tag_bits: u32,
    k: u32,
    per_subset: u32,
    transform: TransformKind,
    /// `Σ_{i<n} 2^{i·k}` — LSB of every field.
    ladder: u64,
    /// `ladder << (k−1)` — top bit of every field.
    high: u64,
    /// `high − ladder` — `2^{k−1} − 1` in every field.
    carry: u64,
    /// Low `n·k` bits — the lane region.
    region: u64,
    /// Transform broadcast constant (`XorFold`: fields ≥ 1; `Improved`:
    /// fields ≥ 2; otherwise unused).
    tspread: u64,
    /// `⌊2^16 / k⌋ + 1` — lets [`slot_of`](Self::slot_of) divide by `k`
    /// with a multiply and shift. Exact for every dividend below 64: the
    /// reciprocal's excess is at most `k`, so the error term
    /// `bit_pos · excess` stays under `2^16`.
    slot_recip: u64,
}

impl LaneCodec {
    pub(crate) fn new(tag_bits: u32, k: u32, per_subset: u32, transform: TransformKind) -> Self {
        debug_assert!((1..=64).contains(&tag_bits));
        debug_assert!(k >= 1 && per_subset >= 1 && per_subset * k <= 64);
        let ladder = spread(0, k, per_subset * k);
        let high = ladder << (k - 1);
        let tspread = match transform {
            TransformKind::None | TransformKind::Swap => 0,
            TransformKind::XorFold => spread(k, k, tag_bits),
            TransformKind::Improved => spread(2 * k, k, tag_bits),
        };
        LaneCodec {
            tag_bits,
            k,
            per_subset,
            transform,
            ladder,
            high,
            carry: high - ladder,
            region: tag_mask(per_subset * k),
            tspread,
            slot_recip: (1u64 << 16) / k as u64 + 1,
        }
    }

    /// The configured transform, evaluated in O(1): the per-field XOR
    /// patterns of `XorFold`/`Improved` are low-field broadcasts, and a
    /// `k`-bit value times the ladder-of-shifts constant IS that broadcast
    /// (the partial products land in disjoint fields, so their sum is
    /// their OR; bits past 63 truncate exactly as the scalar shifts do).
    #[inline]
    pub(crate) fn forward(&self, tag: u64) -> u64 {
        let t = tag & tag_mask(self.tag_bits);
        let k = self.k;
        match self.transform {
            TransformKind::None | TransformKind::Swap => t,
            TransformKind::XorFold => {
                let p0 = t & tag_mask(k);
                (t ^ p0.wrapping_mul(self.tspread)) & tag_mask(self.tag_bits)
            }
            TransformKind::Improved => {
                let p0 = t & tag_mask(k);
                let (p1, second) = if k < self.tag_bits {
                    ((t >> k) & tag_mask(k), p0 << k)
                } else {
                    (0, 0)
                };
                (t ^ second ^ (p0 ^ p1).wrapping_mul(self.tspread)) & tag_mask(self.tag_bits)
            }
        }
    }

    /// The lane-word contribution of storing `tag` in slot `slot`.
    #[inline]
    pub(crate) fn store_field(&self, tag: u64, slot: u32) -> u64 {
        debug_assert!(slot < self.per_subset);
        let fwd = self.forward(tag);
        match self.transform {
            // Every slot contributes its own low k bits.
            TransformKind::Swap => (fwd & tag_mask(self.k)) << (slot * self.k),
            // Slot i contributes field i, which already sits at bit i·k.
            _ => fwd & (tag_mask(self.k) << (slot * self.k)),
        }
    }

    /// The packed incoming-tag lanes every subset word is compared against.
    #[inline]
    pub(crate) fn encode_incoming(&self, tag: u64) -> u64 {
        match self.transform {
            // Broadcast the low field into every slot in one multiply.
            TransformKind::Swap => {
                (tag & tag_mask(self.tag_bits) & tag_mask(self.k)).wrapping_mul(self.ladder)
            }
            _ => self.forward(tag) & self.region,
        }
    }

    /// Top-of-field bitmask flagging every slot whose packed slice equals
    /// the incoming slice (see the module docs for the carry-free detect).
    #[inline]
    pub(crate) fn match_mask(&self, word: u64, incoming: u64) -> u64 {
        let x = (word ^ incoming) & self.region;
        !(((x & !self.high) + self.carry) | x) & self.high
    }

    /// The slot whose field-top bit sits at `bit_pos`. Division-free:
    /// `bit_pos` is always under 64, where the precomputed reciprocal is
    /// exact (see [`slot_recip`](Self::slot_recip)).
    #[inline]
    pub(crate) fn slot_of(&self, bit_pos: u32) -> u32 {
        debug_assert!(bit_pos < 64);
        ((bit_pos as u64 * self.slot_recip) >> 16) as u32
    }

    /// Step one as a way bitmask: bit `subset·n + slot` set iff that
    /// slot's packed slice equals the incoming tag's and its way is valid,
    /// over the subsets up to the one holding way `through`. A stale slice
    /// of an invalid way is dropped here, as the scalar walk skips invalid
    /// ways.
    #[inline]
    pub(crate) fn candidates(&self, words: &[u64], valid: u32, tag: u64, through: u32) -> u32 {
        let incoming = self.encode_incoming(tag);
        let mut ways = 0u32;
        for (subset, &word) in words.iter().enumerate() {
            let base = subset as u32 * self.per_subset;
            if base > through {
                break;
            }
            let mut m = self.match_mask(word, incoming);
            while m != 0 {
                ways |= 1 << (base + self.slot_of(m.trailing_zeros()));
                m &= m - 1;
            }
        }
        ways & valid
    }

    /// The SWAR lookup over caller-maintained lane words: step one is one
    /// [`match_mask`](Self::match_mask) per subset word, step two serially
    /// full-compares the flagged slots in ascending order — probe- and
    /// result-identical to the scalar partial-compare walk. Everything the
    /// loop needs is precomputed in the codec, so the per-access cost is
    /// pure ALU work: no divisions, no table rebuilds.
    #[inline]
    pub(crate) fn swar_lookup(&self, words: &[u64], tags: &[u64], valid: u32, tag: u64) -> Lookup {
        let incoming = self.encode_incoming(tag);
        let n = self.per_subset as usize;
        let mut probes = 0u32;
        let mut hit_way = None;
        'subsets: for (subset, &word) in words.iter().enumerate() {
            probes += 1; // step one: the concurrent partial compare
            let base = subset * n;
            let mut m = self.match_mask(word, incoming);
            // Step two: serial full compares of the partial matchers, in
            // ascending slot order exactly like the scalar loop. A lane
            // word retains the slice of whatever tag a frame last held, so
            // stale invalid slices can appear in `m`; validity is checked
            // per flagged slot — matchers are rare, so this is far cheaper
            // than building a per-subset validity mask up front, and the
            // scalar walk likewise skips invalid ways before the partial
            // compare, so the probe count is unchanged.
            while m != 0 {
                let slot = self.slot_of(m.trailing_zeros());
                m &= m - 1;
                let w = base + slot as usize;
                if (valid >> w) & 1 == 0 {
                    continue;
                }
                probes += 1;
                if tags[w] == tag {
                    hit_way = Some(w as u8);
                    break 'subsets;
                }
            }
        }
        Lookup { hit_way, probes }
    }
}

/// The lane geometry of one cache ↔ strategy pairing: tag width, subset
/// count, transform, and the (fixed) associativity of the cache's sets.
///
/// A spec exists only for geometries the packed representation supports:
/// at least two ways, `subsets` dividing `ways`, and a non-zero `k`.
/// One-way sets are direct-mapped lookups that never consult lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneSpec {
    tag_bits: u32,
    subsets: u32,
    transform: TransformKind,
    ways: u32,
}

impl LaneSpec {
    /// Builds the spec, or `None` when the geometry has no packed form
    /// (`ways < 2`, `ways > MAX_ASSOC`, `subsets` not dividing `ways`, or
    /// tags too narrow for `ways/subsets` concurrent compares).
    pub fn try_new(
        tag_bits: u32,
        subsets: u32,
        transform: TransformKind,
        ways: u32,
    ) -> Option<Self> {
        if !(1..=64).contains(&tag_bits) || subsets == 0 {
            return None;
        }
        if ways < 2 || ways as usize > MAX_ASSOC || ways % subsets != 0 {
            return None;
        }
        let per_subset = ways / subsets;
        if tag_bits / per_subset == 0 {
            return None;
        }
        Some(LaneSpec {
            tag_bits,
            subsets,
            transform,
            ways,
        })
    }

    /// Stored-tag width `t`.
    pub fn tag_bits(&self) -> u32 {
        self.tag_bits
    }

    /// Number of subsets `s`.
    pub fn subsets(&self) -> u32 {
        self.subsets
    }

    /// The transform applied at store time.
    pub fn transform(&self) -> TransformKind {
        self.transform
    }

    /// The associativity the lanes are packed for.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Partial-compare width `k = ⌊t·s/a⌋`.
    pub fn k(&self) -> u32 {
        self.tag_bits / self.per_subset()
    }

    /// Slots per subset, `a/s`.
    pub fn per_subset(&self) -> u32 {
        self.ways / self.subsets
    }

    /// Lane words per set (one per subset).
    #[inline]
    pub fn words_per_set(&self) -> usize {
        self.subsets as usize
    }

    pub(crate) fn codec(&self) -> LaneCodec {
        LaneCodec::new(self.tag_bits, self.k(), self.per_subset(), self.transform)
    }
}

/// Incrementally maintained packed-lane storage for every set of a cache.
///
/// See the module docs for the coherence contract: the owning cache calls
/// [`on_fill`](Self::on_fill) at every frame-tag write and leaves lanes
/// alone on invalidate/flush (which keep tags in place).
#[derive(Debug, Clone)]
pub struct PackedLanes {
    spec: LaneSpec,
    codec: LaneCodec,
    sets: usize,
    /// `sets × subsets` lane words, set-major.
    words: Vec<u64>,
}

impl PackedLanes {
    /// Zeroed lanes for `sets` sets — coherent with an all-zero-tag cache
    /// (a fresh cache's frames hold tag 0).
    pub fn new(spec: LaneSpec, sets: usize) -> Self {
        PackedLanes {
            spec,
            codec: spec.codec(),
            sets,
            words: vec![0; sets * spec.words_per_set()],
        }
    }

    /// The geometry these lanes are packed for.
    pub fn spec(&self) -> LaneSpec {
        self.spec
    }

    /// Number of sets covered.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Updates the one lane field affected by storing `tag` in `way` of
    /// `set`. O(1): a mask and an OR on a single word.
    pub fn on_fill(&mut self, set: usize, way: usize, tag: u64) {
        let n = self.spec.per_subset() as usize;
        let subset = way / n;
        let slot = (way % n) as u32;
        let k = self.spec.k();
        let field_mask = tag_mask(k) << (slot * k);
        let word = &mut self.words[set * self.spec.words_per_set() + subset];
        *word = (*word & !field_mask) | self.codec.store_field(tag, slot);
    }

    /// Recomputes every lane word of `set` from `tags` (one per way).
    /// O(ways); used for bulk (re)initialization and coherence checks.
    pub fn rebuild_set(&mut self, set: usize, tags: &[u64]) {
        assert_eq!(tags.len(), self.spec.ways() as usize, "tag count mismatch");
        let n = self.spec.per_subset() as usize;
        let base = set * self.spec.words_per_set();
        for subset in 0..self.spec.words_per_set() {
            let mut word = 0u64;
            for slot in 0..n {
                word |= self.codec.store_field(tags[subset * n + slot], slot as u32);
            }
            self.words[base + subset] = word;
        }
    }

    /// The lane words of `set`, one per subset.
    #[inline]
    pub fn set_words(&self, set: usize) -> &[u64] {
        let base = set * self.spec.words_per_set();
        &self.words[base..base + self.spec.words_per_set()]
    }

    /// A borrowed view of `set`'s lanes for a lookup.
    #[inline]
    pub fn view(&self, set: usize) -> LaneView<'_> {
        LaneView {
            spec: self.spec,
            codec: &self.codec,
            words: self.set_words(set),
        }
    }

    /// Panics unless `set`'s lane words match what `rebuild_set` would
    /// compute from `tags` — the coherence invariant. Debug-build helper
    /// for cache mutation sites.
    pub fn assert_coherent(&self, set: usize, tags: &[u64]) {
        assert_eq!(tags.len(), self.spec.ways() as usize, "tag count mismatch");
        let n = self.spec.per_subset() as usize;
        for (subset, &word) in self.set_words(set).iter().enumerate() {
            let mut expect = 0u64;
            for slot in 0..n {
                expect |= self.codec.store_field(tags[subset * n + slot], slot as u32);
            }
            assert_eq!(
                word, expect,
                "lane word for set {set} subset {subset} is stale (have {word:#x}, tags imply {expect:#x})"
            );
        }
    }
}

/// One set's packed lanes, borrowed for the duration of a lookup.
///
/// The codec is borrowed, not copied: a view is built on every lookup of
/// the fast path, and the codec's precomputed constants are several words
/// wide.
#[derive(Debug, Clone, Copy)]
pub struct LaneView<'a> {
    pub(crate) spec: LaneSpec,
    pub(crate) codec: &'a LaneCodec,
    pub(crate) words: &'a [u64],
}

impl LaneView<'_> {
    /// The geometry these lanes are packed for.
    pub fn spec(&self) -> LaneSpec {
        self.spec
    }

    /// The lane words, one per subset.
    pub fn words(&self) -> &[u64] {
        self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{Improved, TagTransform, XorFold};

    fn ref_transform(kind: TransformKind, t: u32, k: u32, tag: u64) -> u64 {
        let masked = tag & tag_mask(t);
        match kind {
            TransformKind::None | TransformKind::Swap => masked,
            TransformKind::XorFold => XorFold::new(t, k).forward(masked),
            TransformKind::Improved => Improved::new(t, k).forward(masked),
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn fast_forward_matches_reference_transforms() {
        let mut s = 0x1234_5678_9ABC_DEF0u64;
        for t in 1..=64u32 {
            for k in 1..=t {
                for kind in [
                    TransformKind::None,
                    TransformKind::XorFold,
                    TransformKind::Improved,
                    TransformKind::Swap,
                ] {
                    // per_subset chosen so n·k ≤ 64 (codec precondition).
                    let n = (64 / k).clamp(1, 4);
                    let codec = LaneCodec::new(t, k, n, kind);
                    for _ in 0..8 {
                        let x = xorshift(&mut s);
                        assert_eq!(
                            codec.forward(x),
                            ref_transform(kind, t, k, x),
                            "t={t} k={k} {kind:?} x={x:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn match_mask_flags_exactly_the_equal_fields() {
        let mut s = 0xDEAD_BEEF_0BAD_F00Du64;
        for k in 1..=64u32 {
            let n = 64 / k;
            if n == 0 {
                continue;
            }
            let codec = LaneCodec::new(64.min(n * k), k, n, TransformKind::None);
            for _ in 0..64 {
                let a = xorshift(&mut s) & codec.region;
                let mut b = xorshift(&mut s) & codec.region;
                // Force a few fields equal so matches actually occur.
                for slot in 0..n {
                    if xorshift(&mut s) & 1 == 0 {
                        let fm = tag_mask(k) << (slot * k);
                        b = (b & !fm) | (a & fm);
                    }
                }
                let m = codec.match_mask(a, b);
                for slot in 0..n {
                    let fm = tag_mask(k) << (slot * k);
                    let expect = (a & fm) == (b & fm);
                    let flagged = m & (1u64 << (slot * k + k - 1)) != 0;
                    assert_eq!(flagged, expect, "k={k} slot={slot} a={a:#x} b={b:#x}");
                }
            }
        }
    }

    #[test]
    fn slot_of_reciprocal_is_exact_for_every_bit_position() {
        for k in 1..=64u32 {
            let n = (64 / k).max(1);
            let codec = LaneCodec::new(64.min(n * k), k, n, TransformKind::None);
            for bit_pos in 0..64u32 {
                assert_eq!(codec.slot_of(bit_pos), bit_pos / k, "k={k} pos={bit_pos}");
            }
        }
    }

    #[test]
    fn lane_spec_rejects_impossible_geometries() {
        use TransformKind::None as N;
        assert!(LaneSpec::try_new(16, 1, N, 1).is_none(), "one way");
        assert!(LaneSpec::try_new(16, 3, N, 8).is_none(), "s ∤ a");
        assert!(LaneSpec::try_new(8, 1, N, 16).is_none(), "k = 0");
        assert!(LaneSpec::try_new(16, 1, N, 64).is_none(), "> MAX_ASSOC");
        assert!(LaneSpec::try_new(0, 1, N, 8).is_none(), "zero-width tags");
        let s = LaneSpec::try_new(16, 2, N, 8).unwrap();
        assert_eq!((s.k(), s.per_subset(), s.words_per_set()), (4, 4, 2));
    }

    #[test]
    fn on_fill_matches_rebuild() {
        let spec = LaneSpec::try_new(16, 2, TransformKind::XorFold, 8).unwrap();
        let mut incremental = PackedLanes::new(spec, 4);
        let mut bulk = PackedLanes::new(spec, 4);
        let mut tags = vec![[0u64; 8]; 4];
        let mut s = 0x0F1E_2D3C_4B5A_6978u64;
        for _ in 0..200 {
            let set = (xorshift(&mut s) % 4) as usize;
            let way = (xorshift(&mut s) % 8) as usize;
            let tag = xorshift(&mut s) & 0xFFFF;
            tags[set][way] = tag;
            incremental.on_fill(set, way, tag);
            bulk.rebuild_set(set, &tags[set]);
            assert_eq!(incremental.set_words(set), bulk.set_words(set));
            incremental.assert_coherent(set, &tags[set]);
        }
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn assert_coherent_catches_missed_fills() {
        let spec = LaneSpec::try_new(16, 1, TransformKind::None, 4).unwrap();
        let lanes = PackedLanes::new(spec, 1);
        // Tags claim way 0 holds 0xBEEF but the lanes were never updated.
        lanes.assert_coherent(0, &[0xBEEF, 0, 0, 0]);
    }
}
