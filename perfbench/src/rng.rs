//! The benchmark's own seeded generator (SplitMix64), independent of the
//! program's `rand` so a change there cannot change the benchmark's inputs.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for item `index` of stream `stream` under `seed`: every
    /// operation draws from its own generator, so operation `i` is the same
    /// whatever number of operations ran before it.
    pub fn derive(seed: u64, stream: &str, index: u64) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for byte in stream.bytes() {
            state = Rng(state ^ u64::from(byte)).next_u64();
        }
        Rng(Rng(state ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, "x", 3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::derive(7, "x", 3).next_u64(),
            Rng::derive(7, "x", 4).next_u64()
        );
        assert_ne!(
            Rng::derive(7, "x", 3).next_u64(),
            Rng::derive(8, "x", 3).next_u64()
        );
        assert_ne!(
            Rng::derive(7, "x", 3).next_u64(),
            Rng::derive(7, "y", 3).next_u64()
        );
    }

    #[test]
    fn unit_stays_in_range() {
        let mut rng = Rng::derive(1, "unit", 0);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
