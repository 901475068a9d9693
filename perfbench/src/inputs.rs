//! The benchmark's own seeded input generator.
//!
//! Everything the program receives — which block each I/O touches, whether
//! it reads or writes, and every payload byte — is derived from the
//! `--seed` argument here, never from the simulator's RNG, so the inputs
//! of a run are a pure function of the seed. A payload is a function of
//! `(seed, block, generation)`: the generation counts writes to that block,
//! so the expected content of any block can be rebuilt for verification
//! without keeping a copy of what was written.

use bytes::Bytes;

/// SplitMix64: tiny, fast and good enough for workload inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The key of the payload written to `block` the `generation`-th time.
pub fn payload_key(seed: u64, block: u64, generation: u32) -> u64 {
    mix(mix(seed ^ 0x5EED_DA7A) ^ mix(block.wrapping_add(1)) ^ u64::from(generation) << 48)
}

/// Fills `buf` with the pseudo-random byte stream of `key`.
pub fn fill(key: u64, buf: &mut [u8]) {
    let mut g = SplitMix::new(key);
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&g.next_u64().to_le_bytes());
    }
    let tail = chunks.into_remainder();
    let last = g.next_u64().to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// How write payloads are shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Incompressible, unique bytes: what an encrypting tenant writes.
    Random,
    /// Data-reduction mix: half the writes repeat one of a 16-payload
    /// pool (dedup hits), half are a unique random first half followed
    /// by zeros (compressible, no dedup hit).
    Reduce,
}

/// Number of distinct payloads the [`PayloadKind::Reduce`] pool holds.
pub const POOL: usize = 16;

/// Builds payloads and rebuilds expected block contents.
#[derive(Debug)]
pub struct PayloadGen {
    seed: u64,
    kind: PayloadKind,
    len: usize,
    pool: Vec<Bytes>,
    scratch: Vec<u8>,
}

impl PayloadGen {
    /// A generator of `len`-byte payloads. The reduce pool is built here,
    /// before any timed window.
    pub fn new(seed: u64, kind: PayloadKind, len: usize) -> Self {
        let pool = match kind {
            PayloadKind::Random => Vec::new(),
            PayloadKind::Reduce => (0..POOL as u64)
                .map(|i| {
                    let mut p = vec![0u8; len];
                    fill(mix(seed ^ 0x9001_0000 ^ i), &mut p);
                    Bytes::from(p)
                })
                .collect(),
        };
        PayloadGen {
            seed,
            kind,
            len,
            pool,
            scratch: vec![0u8; len],
        }
    }

    /// The payload for `(block, generation)`.
    pub fn payload(&self, block: u64, generation: u32) -> Bytes {
        let key = payload_key(self.seed, block, generation);
        if let Some(p) = self.pooled(key) {
            return p.clone();
        }
        let mut buf = vec![0u8; self.len];
        self.fill_unique(key, &mut buf);
        Bytes::from(buf)
    }

    /// Whether `data` is exactly the payload for `(block, generation)`.
    pub fn matches(&mut self, block: u64, generation: u32, data: &[u8]) -> bool {
        let key = payload_key(self.seed, block, generation);
        if let Some(p) = self.pooled(key) {
            return p[..] == *data;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        self.fill_unique(key, &mut scratch);
        let ok = scratch[..] == *data;
        self.scratch = scratch;
        ok
    }

    fn pooled(&self, key: u64) -> Option<&Bytes> {
        match self.kind {
            PayloadKind::Reduce if key & 1 == 0 => Some(&self.pool[(key >> 1) as usize % POOL]),
            _ => None,
        }
    }

    fn fill_unique(&self, key: u64, buf: &mut [u8]) {
        match self.kind {
            PayloadKind::Random => fill(key, buf),
            PayloadKind::Reduce => {
                let half = buf.len() / 2;
                fill(key, &mut buf[..half]);
                buf[half..].fill(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_a_function_of_seed_block_and_generation() {
        let mut g = PayloadGen::new(7, PayloadKind::Random, 4096);
        let a = g.payload(3, 1);
        assert_eq!(a, g.payload(3, 1));
        assert_ne!(a, g.payload(3, 2));
        assert_ne!(a, g.payload(4, 1));
        assert_ne!(
            a,
            PayloadGen::new(8, PayloadKind::Random, 4096).payload(3, 1)
        );
        assert!(g.matches(3, 1, &a));
        assert!(!g.matches(3, 2, &a));
    }

    #[test]
    fn reduce_mix_is_half_pooled_half_half_zero() {
        let mut g = PayloadGen::new(11, PayloadKind::Reduce, 65536);
        let (mut pooled, mut half_zero) = (0, 0);
        for block in 0..400 {
            let p = g.payload(block, 1);
            assert!(g.matches(block, 1, &p));
            if g.pool.contains(&p) {
                pooled += 1;
            } else {
                assert!(p[32768..].iter().all(|&b| b == 0));
                half_zero += 1;
            }
        }
        assert!((150..250).contains(&pooled), "{pooled} pooled of 400");
        assert_eq!(pooled + half_zero, 400);
    }
}
