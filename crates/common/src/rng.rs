//! A tiny deterministic generator (SplitMix64) for hot paths.
//!
//! Backup selection, workload generation and partitioner jitter all need
//! cheap pseudo-randomness that is reproducible given a seed; SplitMix64 is
//! a single multiply-xorshift pipeline with excellent statistical quality
//! for these purposes and no dependencies.

/// The SplitMix64 finalizer: a stateless, bijective 64-bit mix.
/// [`SplitMix64`] applies it to a running counter; hashing callers apply
/// it to a key directly.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `0..bound` (Lemire's multiply-shift reduction; the
    /// modulo bias is negligible for the bounds used here).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let v = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&v[..rem.len()]);
        }
    }

    /// Chooses `k` distinct indices out of `0..n` (partial Fisher–Yates);
    /// used for picking distinct backups per virtual segment.
    pub fn choose_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} distinct of {n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.next_below((n - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SplitMix64::new(12345);
        let mut b = SplitMix64::new(12345);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference values for seed 0 (Vigna's splitmix64.c).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(r.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(r.next_u64(), 0x06c45d188009454f);
    }

    #[test]
    fn bounded_values_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn bounded_values_cover_range() {
        let mut r = SplitMix64::new(99);
        let seen: HashSet<u64> = (0..1000).map(|_| r.next_below(8)).collect();
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut r = SplitMix64::new(1);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }

    #[test]
    fn choose_distinct_is_distinct_and_in_range() {
        let mut r = SplitMix64::new(42);
        for _ in 0..100 {
            let picks = r.choose_distinct(10, 4);
            assert_eq!(picks.len(), 4);
            let set: HashSet<_> = picks.iter().copied().collect();
            assert_eq!(set.len(), 4);
            assert!(picks.iter().all(|&p| p < 10));
        }
    }

    #[test]
    fn choose_distinct_full_permutation() {
        let mut r = SplitMix64::new(3);
        let picks = r.choose_distinct(5, 5);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn choose_distinct_rejects_oversized_k() {
        SplitMix64::new(0).choose_distinct(3, 4);
    }
}
