//! Input generation: everything the program is fed comes from
//! `--seed` through this module's own RNG, zipf sampler and a true
//! permutation, so the engine only ever sees inputs.

pub const KEY_LEN: usize = 14;
pub const VALUE_LEN: usize = 100;
/// Bytes of seeded noise inside a value (the rest is id, stamp, zeros).
pub const VALUE_NOISE: usize = 34;

/// xoshiro256** seeded through splitmix64.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// An independent stream for one purpose (`salt`) of one seed.
    pub fn stream(seed: u64, salt: u64) -> Rng {
        Rng::new(seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (multiply-shift; bias is below 2^-32 for the
    /// domains used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// A true permutation of `0..n` (the old `i.wrapping_mul(0x9e37…) % n`
/// idiom is not a bijection): the ids of `stripes` equal contiguous
/// ranges (the engine's numeric range partitions; the last takes the
/// remainder), each Fisher–Yates shuffled, dealt round-robin. It is the
/// preload order and the rank → key map, so consecutive ranks land in
/// different partitions and how the hot keys divide among partitions
/// does not depend on the seed: against one shuffle of all ids this cut
/// `read_hot`'s seed-to-seed spread of `allocs_per_op` from 4% to 1%.
pub fn striped_permutation(n: u32, stripes: u32, rng: &mut Rng) -> Vec<u32> {
    let stripes = stripes.clamp(1, n.max(1));
    let step = n / stripes;
    let mut ranges: Vec<Vec<u32>> = (0..stripes)
        .map(|p| {
            let end = if p + 1 == stripes { n } else { (p + 1) * step };
            let mut ids: Vec<u32> = (p * step..end).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.below(i as u64 + 1) as usize);
            }
            ids
        })
        .collect();
    let mut out = Vec::with_capacity(n as usize);
    while out.len() < n as usize {
        for range in &mut ranges {
            out.extend(range.pop());
        }
    }
    out
}

/// Zipfian ranks in `0..n` (rank 0 most popular), after Gray et al.,
/// "Quickly generating billion-record synthetic databases" — the YCSB
/// generator. Needs `0 < theta < 1`.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Write `user{id:010}` into `buf` without allocating.
#[inline]
pub fn write_key(buf: &mut [u8; KEY_LEN], id: u32) {
    buf[..4].copy_from_slice(b"user");
    let mut rest = id;
    for slot in buf[4..].iter_mut().rev() {
        *slot = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
}

pub fn key_of(id: u32) -> [u8; KEY_LEN] {
    let mut buf = [0u8; KEY_LEN];
    write_key(&mut buf, id);
    buf
}

/// The id inside a `user{id:010}` key, if it is one.
pub fn key_id(key: &[u8]) -> Option<u32> {
    let digits = key.strip_prefix(b"user")?;
    if digits.len() != KEY_LEN - 4 {
        return None;
    }
    digits.iter().try_fold(0u32, |acc, &b| {
        b.is_ascii_digit()
            .then(|| acc.checked_mul(10)?.checked_add((b - b'0') as u32))
            .flatten()
    })
}

/// Fill a 100 B value: 8 B key id, 8 B version stamp, 34 B of noise,
/// 50 zero bytes (so the value is about half compressible).
#[inline]
pub fn write_value(buf: &mut [u8; VALUE_LEN], id: u32, stamp: u64, noise: &[u8]) {
    buf[..8].copy_from_slice(&(id as u64).to_le_bytes());
    buf[8..16].copy_from_slice(&stamp.to_le_bytes());
    buf[16..16 + VALUE_NOISE].copy_from_slice(&noise[..VALUE_NOISE]);
}

/// `(key id, version stamp)` read back from a value.
pub fn value_stamp(value: &[u8]) -> Option<(u64, u64)> {
    if value.len() != VALUE_LEN {
        return None;
    }
    Some((
        u64::from_le_bytes(value[..8].try_into().ok()?),
        u64::from_le_bytes(value[8..16].try_into().ok()?),
    ))
}

/// A pool of seeded noise that values take their 34 random bytes from,
/// so the timed loop copies instead of running the RNG.
pub struct NoisePool {
    bytes: Vec<u8>,
}

impl NoisePool {
    pub fn new(rng: &mut Rng) -> NoisePool {
        let mut bytes = vec![0u8; 1 << 16];
        rng.fill(&mut bytes);
        NoisePool { bytes }
    }

    #[inline]
    pub fn at(&self, stamp: u64) -> &[u8] {
        let span = self.bytes.len() - VALUE_NOISE;
        let off = (stamp.wrapping_mul(31) as usize) % span;
        &self.bytes[off..off + VALUE_NOISE]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_permutation_is_a_bijection_dealt_round_robin() {
        for (n, stripes) in [(1u32, 8u32), (7, 8), (1000, 8), (180_000, 8), (1003, 8)] {
            let p = striped_permutation(n, stripes, &mut Rng::new(9));
            let mut seen = vec![false; n as usize];
            for &x in &p {
                assert!(!std::mem::replace(&mut seen[x as usize], true), "{x} twice");
            }
            assert_eq!(p.len(), n as usize);
        }
        let p = striped_permutation(180_000, 8, &mut Rng::new(9));
        for window in p[..8_000].chunks(8) {
            let mut stripes: Vec<u32> = window.iter().map(|id| id / 22_500).collect();
            stripes.sort_unstable();
            assert_eq!(stripes, (0..8).collect::<Vec<_>>());
        }
        // The idiom it replaces leaves ids out.
        let n = 180_000u64;
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            seen[(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % n) as usize] = true;
        }
        assert!(seen.iter().any(|&s| !s), "the old idiom is not a bijection");
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(180_000, 0.9);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..10_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let a = draw(7);
        assert!(a.iter().all(|&r| r < 180_000));
        let head = a.iter().filter(|&&r| r < 1_800).count();
        assert!(head > 4_000, "top 1% of ranks draw {head} of 10000");
    }

    #[test]
    fn keys_and_values_round_trip() {
        for id in [0u32, 7, 179_999, u32::MAX] {
            let key = key_of(id);
            assert_eq!(key.to_vec(), format!("user{id:010}").into_bytes());
            assert_eq!(key_id(&key), Some(id));
        }
        assert_eq!(key_id(b"user00000000x1"), None);
        assert_eq!(key_id(b"user1"), None);
        let mut value = [0u8; VALUE_LEN];
        write_value(&mut value, 42, 99, &[7u8; VALUE_NOISE]);
        assert_eq!(value_stamp(&value), Some((42, 99)));
        assert_eq!(&value[50..], &[0u8; 50]);
    }
}
