//! Deterministic random number generation.
//!
//! Workload reproducibility matters more than cryptographic quality here, so
//! we use a PCG-XSH-RR 64/32 generator (O'Neill 2014) seeded explicitly by
//! every caller. Re-implementing it (rather than pulling `rand`) pins the
//! exact sequences across toolchain upgrades.

/// PCG-XSH-RR 64/32: 64-bit state, 32-bit output, extended here to produce
/// 64-bit values from two draws.
#[derive(Clone, Debug)]
pub struct Pcg64 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg64 {
    /// Create a generator from a seed and stream id.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg64 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Convenience constructor with a fixed stream.
    pub fn seeded(seed: u64) -> Self {
        Self::new(seed, 0xda3e39cb94b95bdb)
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform in `[0, bound)`. Uses Lemire's multiply-shift rejection.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // 128-bit multiply keeps the distribution unbiased enough for
        // workload generation (rejection on the low word).
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo);
        lo + self.next_below(hi - lo)
    }

    /// Fill a byte slice with random data.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let val = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&val[..rem.len()]);
        }
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcg_is_deterministic() {
        let mut a = Pcg64::seeded(42);
        let mut b = Pcg64::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Pcg64::seeded(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_below_stays_in_bounds() {
        let mut rng = Pcg64::seeded(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Pcg64::seeded(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn fill_bytes_covers_all_lengths() {
        let mut rng = Pcg64::seeded(1);
        for len in 0..20 {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len}");
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg64::seeded(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle changed order");
    }
}
