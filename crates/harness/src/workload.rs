//! Synthetic workload generation (paper §V-A).
//!
//! "The source thread of each producer creates up to 100 million
//! non-keyed records of 100 bytes ... We use synthetic data similar to
//! the open messaging stream benchmark." Records are pre-generated
//! pseudo-random payloads reused round-robin, so generation cost stays
//! negligible next to the ingestion path being measured.

use kera_common::rng::SplitMix64;

/// A pool of pre-generated record payloads.
pub struct RecordPool {
    payloads: Vec<Vec<u8>>,
    next: usize,
}

impl RecordPool {
    /// `count` distinct payloads of `size` bytes, seeded deterministically.
    pub fn new(count: usize, size: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let payloads = (0..count.max(1))
            .map(|_| {
                let mut p = vec![0u8; size];
                rng.fill_bytes(&mut p);
                p
            })
            .collect();
        Self { payloads, next: 0 }
    }

    /// Next payload (round-robin over the pool), for the caller to stamp
    /// in place. Not an `Iterator`: returns a borrow of the pool, never
    /// exhausts.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> &mut [u8] {
        let i = self.next;
        self.next = (i + 1) % self.payloads.len();
        &mut self.payloads[i]
    }

    pub fn record_size(&self) -> usize {
        self.payloads[0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_cycles_and_sizes() {
        let mut p = RecordPool::new(3, 100, 42);
        assert_eq!(p.record_size(), 100);
        let a = p.next().to_vec();
        let b = p.next().to_vec();
        let c = p.next().to_vec();
        let a2 = p.next().to_vec();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut x = RecordPool::new(2, 16, 7);
        let mut y = RecordPool::new(2, 16, 7);
        assert_eq!(x.next(), y.next());
    }

    #[test]
    fn zero_count_clamps_to_one() {
        let mut p = RecordPool::new(0, 8, 1);
        let _ = p.next();
    }
}
