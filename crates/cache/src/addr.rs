//! Address decomposition: offset / set-index / tag.

use serde::{Deserialize, Serialize};

/// Splits byte addresses into (tag, set index, block offset) for a cache
/// geometry, and recomposes block addresses from (tag, set).
///
/// The decomposition is the standard one:
///
/// ```text
///  63                     ...                    0
/// +---------------------+-----------+------------+
/// |         tag         | set index | blk offset |
/// +---------------------+-----------+------------+
///          t bits         log2(sets)  log2(block)
/// ```
///
/// # Example
///
/// ```
/// use seta_cache::AddressMapper;
///
/// let m = AddressMapper::new(32, 512); // 32 B blocks, 512 sets
/// let addr = 0xABCD_E123;
/// let set = m.set_of(addr);
/// let tag = m.tag_of(addr);
/// assert_eq!(m.block_addr(tag, set), addr & !31);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddressMapper {
    offset_bits: u32,
    index_bits: u32,
}

impl AddressMapper {
    /// Creates a mapper for the given block size and set count.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not a power of two, or if the combined
    /// offset and index widths exceed 64 bits.
    pub fn new(block_size: u64, num_sets: u64) -> Self {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two, got {block_size}"
        );
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two, got {num_sets}"
        );
        let offset_bits = block_size.trailing_zeros();
        let index_bits = num_sets.trailing_zeros();
        assert!(
            offset_bits + index_bits < 64,
            "offset ({offset_bits}) + index ({index_bits}) bits exceed the address width"
        );
        AddressMapper {
            offset_bits,
            index_bits,
        }
    }

    /// Number of low-order bits consumed by the block offset.
    pub fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Number of bits consumed by the set index.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Number of sets this mapper indexes.
    #[inline]
    pub fn num_sets(&self) -> u64 {
        1u64 << self.index_bits
    }

    /// The set index of an address.
    #[inline]
    pub fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.offset_bits) & (self.num_sets() - 1)
    }

    /// The (full-width) tag of an address.
    #[inline]
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.offset_bits + self.index_bits)
    }

    /// The byte offset within the block.
    pub fn offset_of(&self, addr: u64) -> u64 {
        addr & ((1u64 << self.offset_bits) - 1)
    }

    /// Recomposes the block-aligned address identified by (tag, set).
    #[inline]
    pub fn block_addr(&self, tag: u64, set: u64) -> u64 {
        debug_assert!(set < self.num_sets(), "set {set} out of range");
        (tag << (self.offset_bits + self.index_bits)) | (set << self.offset_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decomposition_of_known_address() {
        // 16 B blocks (4 offset bits), 256 sets (8 index bits).
        let m = AddressMapper::new(16, 256);
        let addr = 0x0012_3456u64;
        assert_eq!(m.offset_of(addr), 0x6);
        assert_eq!(m.set_of(addr), 0x45);
        assert_eq!(m.tag_of(addr), 0x123);
    }

    #[test]
    fn single_set_consumes_no_index_bits() {
        let m = AddressMapper::new(64, 1);
        assert_eq!(m.index_bits(), 0);
        assert_eq!(m.set_of(u64::MAX), 0);
        assert_eq!(m.tag_of(0xFFC0), 0xFFC0 >> 6);
    }

    #[test]
    fn fields_are_disjoint_and_complete() {
        let m = AddressMapper::new(32, 128);
        let addr = 0xDEAD_BEEF_u64;
        let rebuilt = m.block_addr(m.tag_of(addr), m.set_of(addr)) | m.offset_of(addr);
        assert_eq!(rebuilt, addr);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_block() {
        AddressMapper::new(48, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        AddressMapper::new(16, 48);
    }

    proptest! {
        #[test]
        fn round_trips_for_arbitrary_geometry(
            addr in any::<u64>(),
            block_pow in 2u32..8,
            sets_pow in 0u32..16,
        ) {
            let m = AddressMapper::new(1 << block_pow, 1 << sets_pow);
            let rebuilt = m.block_addr(m.tag_of(addr), m.set_of(addr)) | m.offset_of(addr);
            prop_assert_eq!(rebuilt, addr);
            prop_assert!(m.set_of(addr) < m.num_sets());
            prop_assert!(m.offset_of(addr) < (1 << block_pow));
        }

        #[test]
        fn same_block_same_decomposition(addr in any::<u64>(), delta in 0u64..16) {
            let m = AddressMapper::new(16, 64);
            let base = addr & !15;
            prop_assert_eq!(m.set_of(base), m.set_of(base | delta));
            prop_assert_eq!(m.tag_of(base), m.tag_of(base | delta));
        }
    }
}
