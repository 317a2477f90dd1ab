//! Work-partitioning helpers shared by the sharded sweep runner and the
//! concurrent serve load generator.
//!
//! Both consumers follow the same pattern: split a queue of work into
//! contiguous chunks, then let `N` workers pull chunks off an atomic
//! cursor. [`chunk_ranges`] produces the balanced contiguous split;
//! [`available_threads`] is the default worker count callers pass when
//! the user names none.

use std::ops::Range;

/// Splits `0..len` into at most `chunks` contiguous, balanced, non-empty
/// ranges covering every index exactly once. The first `len % chunks`
/// ranges are one element longer, so sizes never differ by more than one.
/// Fewer than `chunks` ranges are returned when `len < chunks`; zero when
/// `len == 0`.
///
/// # Example
///
/// ```
/// use seta_sim::partition::chunk_ranges;
///
/// assert_eq!(chunk_ranges(7, 3), vec![0..3, 3..5, 5..7]);
/// assert_eq!(chunk_ranges(2, 4).len(), 2);
/// assert!(chunk_ranges(0, 4).is_empty());
/// ```
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1).min(len);
    let mut out = Vec::with_capacity(chunks);
    if len == 0 {
        return out;
    }
    let base = len / chunks;
    let extra = len % chunks;
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// The machine's available parallelism, or 1 when it cannot be read: the
/// worker count to pass a sweep when the user names none. The sweep itself
/// clamps it to its shard count.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_exactly_once() {
        for len in 0..40 {
            for chunks in 1..10 {
                let ranges = chunk_ranges(len, chunks);
                let mut covered = 0;
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor, "contiguous from the left");
                    assert!(r.end > r.start, "no empty ranges");
                    covered += r.end - r.start;
                    cursor = r.end;
                }
                assert_eq!(covered, len, "len={len} chunks={chunks}");
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        for len in 1..64 {
            for chunks in 1..9 {
                let sizes: Vec<usize> = chunk_ranges(len, chunks).iter().map(|r| r.len()).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len={len} chunks={chunks} sizes={sizes:?}");
            }
        }
    }
}
