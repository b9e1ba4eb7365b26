//! Seeded input generator. Every input the program receives is drawn
//! from a stream derived from `--seed`; the program itself never sees
//! the seed.

/// Splitmix64: tiny, fast, and good enough to spread keys and op mixes.
#[derive(Clone, Debug)]
pub struct Gen(u64);

impl Gen {
    /// An independent stream for one consumer (a connection, a thread):
    /// the same `(seed, tag)` always yields the same stream.
    pub fn fork(seed: u64, tag: u64) -> Gen {
        let mut g = Gen(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        Gen(g.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = {
            let mut g = Gen::fork(42, 1);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = Gen::fork(42, 1);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = Gen::fork(42, 2);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut g = Gen::fork(43, 1);
            (0..8).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn below_stays_in_range() {
        let mut g = Gen::fork(7, 0);
        assert!((0..10_000).all(|_| g.below(13) < 13));
    }
}
