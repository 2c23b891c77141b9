//! An uncompressed bitmap over a fixed id range `0..n`.
//!
//! Roaring containers pay a chunk lookup per probe and a sort + build to
//! materialize a set; scratch sets that live for one kernel call (marks,
//! visited sets) want neither. [`DenseBits`] is a plain `Vec<u64>`: O(1)
//! insert and probe, O(n / 64) reset that reuses the allocation, and an
//! ascending scan that hands out values already sorted.

use crate::Bitset;

/// A dense bitmap over `0..n`, meant to be held as reusable scratch.
#[derive(Clone, Default)]
pub struct DenseBits {
    words: Vec<u64>,
}

impl DenseBits {
    /// Creates an empty bitmap; call [`DenseBits::reset`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every bit and sizes the bitmap for ids `0..n`, reusing the
    /// existing allocation when it is large enough.
    pub fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    /// Sets bit `i`; returns true iff it was clear. `i` must be below the
    /// `n` of the last [`DenseBits::reset`].
    #[inline]
    pub fn insert(&mut self, i: u32) -> bool {
        let w = &mut self.words[(i >> 6) as usize];
        let bit = 1u64 << (i & 63);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// True iff bit `i` is set (false for ids beyond the sized range).
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        self.words.get((i >> 6) as usize).is_some_and(|w| w & (1 << (i & 63)) != 0)
    }

    /// Set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros();
                w &= w - 1;
                Some((wi as u32) << 6 | b)
            })
        })
    }

    /// The set bits as a compressed [`Bitset`].
    pub fn to_bitset(&self) -> Bitset {
        let values: Vec<u32> = self.iter().collect();
        Bitset::from_sorted_dedup(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_iter_and_reset() {
        let mut d = DenseBits::new();
        d.reset(200);
        assert!(d.insert(3));
        assert!(!d.insert(3));
        assert!(d.insert(64));
        assert!(d.insert(199));
        assert!(d.contains(64));
        assert!(!d.contains(65));
        assert!(!d.contains(10_000), "out of range probes are false");
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![3, 64, 199]);
        assert_eq!(d.to_bitset().to_vec(), vec![3, 64, 199]);
        d.reset(70);
        assert_eq!(d.iter().count(), 0);
        assert!(!d.contains(3));
    }
}
