//! The AES block cipher (FIPS-197), 128- and 256-bit keys.
//!
//! The S-box is derived at first use from its definition (multiplicative
//! inverse in GF(2^8) followed by the affine transform) rather than
//! transcribed, eliminating a whole class of copy errors. The round tables
//! are derived from the S-box in turn.
//!
//! The state is four big-endian column words (row 0 in the high byte), and
//! each full round is 16 lookups into one 32-bit table: `te[x]` is the
//! MixColumns column of `sbox[x]`, `td[x]` the InvMixColumns column of
//! `inv_sbox[x]`, and the other three rows are the same word rotated.
//! Decryption runs the equivalent inverse cipher (FIPS-197 §5.3.5), whose
//! middle round keys carry InvMixColumns from key setup.

use std::sync::OnceLock;

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// Round-key words of the longest schedule (AES-256: 4 × 15).
const MAX_RK_WORDS: usize = 60;

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    te: [u32; 256],
    td: [u32; 256],
}

fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
    }
    p
}

fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1 in GF(2^8).
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

/// The column `(c0·s, c1·s, c2·s, c3·s)` as a big-endian word.
fn column(s: u8, c: [u8; 4]) -> u32 {
    u32::from_be_bytes(c.map(|k| gf_mul(s, k)))
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for (i, slot) in sbox.iter_mut().enumerate() {
            let inv = gf_inv(i as u8);
            // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63.
            let s = inv
                ^ inv.rotate_left(1)
                ^ inv.rotate_left(2)
                ^ inv.rotate_left(3)
                ^ inv.rotate_left(4)
                ^ 0x63;
            *slot = s;
            inv_sbox[s as usize] = i as u8;
        }
        let te = std::array::from_fn(|x| column(sbox[x], [2, 1, 1, 3]));
        let td = std::array::from_fn(|x| column(inv_sbox[x], [14, 9, 13, 11]));
        Tables {
            sbox,
            inv_sbox,
            te,
            td,
        }
    })
}

/// Round constants for key expansion.
const RCON: [u8; 15] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D, 0x9A,
];

/// Byte `n` of `w`, counting from the high (row 0) byte.
#[inline(always)]
fn byte(w: u32, n: u32) -> usize {
    ((w >> (24 - 8 * n)) & 0xFF) as usize
}

/// Applies `table` to each byte of `w` in place.
fn sub_word(w: u32, table: &[u8; 256]) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| table[b as usize]))
}

/// One full round: the table lookups do SubBytes and MixColumns (or their
/// inverses); `shift` picks the source column of each row (1 for
/// ShiftRows, 3 for InvShiftRows).
#[inline(always)]
fn round(t: &[u32; 256], s: [u32; 4], rk: &[u32], shift: usize) -> [u32; 4] {
    let col = |c: usize| {
        t[byte(s[c], 0)]
            ^ t[byte(s[(c + shift) % 4], 1)].rotate_right(8)
            ^ t[byte(s[(c + 2 * shift) % 4], 2)].rotate_right(16)
            ^ t[byte(s[(c + 3 * shift) % 4], 3)].rotate_right(24)
            ^ rk[c]
    };
    [col(0), col(1), col(2), col(3)]
}

/// The last round: (Inv)SubBytes and (Inv)ShiftRows, no column mixing.
#[inline(always)]
fn last_round(sbox: &[u8; 256], s: [u32; 4], rk: &[u32], shift: usize) -> [u32; 4] {
    let col = |c: usize| {
        u32::from_be_bytes([
            sbox[byte(s[c], 0)],
            sbox[byte(s[(c + shift) % 4], 1)],
            sbox[byte(s[(c + 2 * shift) % 4], 2)],
            sbox[byte(s[(c + 3 * shift) % 4], 3)],
        ]) ^ rk[c]
    };
    [col(0), col(1), col(2), col(3)]
}

/// An expanded AES key schedule, generic over key length.
#[derive(Clone)]
struct KeySchedule {
    /// Encryption round keys, `4 * (rounds + 1)` words used.
    ek: [u32; MAX_RK_WORDS],
    /// Decryption round keys in use order, InvMixColumns applied to the
    /// middle rounds.
    dk: [u32; MAX_RK_WORDS],
    rounds: usize,
    t: &'static Tables,
}

impl KeySchedule {
    fn expand(key: &[u8]) -> Self {
        let nk = key.len() / 4; // words in key: 4, 6 or 8
        let rounds = nk + 6;
        let total_words = 4 * (rounds + 1);
        let t = tables();
        let mut ek = [0u32; MAX_RK_WORDS];
        for (w, k) in ek.iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_be_bytes([k[0], k[1], k[2], k[3]]);
        }
        for i in nk..total_words {
            let mut temp = ek[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8), &t.sbox) ^ (u32::from(RCON[i / nk - 1]) << 24);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp, &t.sbox);
            }
            ek[i] = ek[i - nk] ^ temp;
        }
        // Equivalent inverse cipher: round keys in reverse order, and
        // InvMixColumns over all but the first and last. `td[sbox[b]]` is
        // the InvMixColumns column of `b`.
        let mut dk = [0u32; MAX_RK_WORDS];
        for r in 0..=rounds {
            for c in 0..4 {
                let w = ek[4 * (rounds - r) + c];
                dk[4 * r + c] = if r == 0 || r == rounds {
                    w
                } else {
                    (0..4).fold(0, |acc, n| {
                        acc ^ t.td[t.sbox[byte(w, n)] as usize].rotate_right(8 * n)
                    })
                };
            }
        }
        KeySchedule { ek, dk, rounds, t }
    }

    #[inline(always)]
    fn run(&self, block: &mut [u8; BLOCK_SIZE], encrypt: bool) {
        let (rk, table, sbox, shift) = if encrypt {
            (&self.ek, &self.t.te, &self.t.sbox, 1)
        } else {
            (&self.dk, &self.t.td, &self.t.inv_sbox, 3)
        };
        let rk = &rk[..4 * (self.rounds + 1)];
        let (first, rest) = rk.split_at(4);
        let (middle, last) = rest.split_at(rest.len() - 4);
        let load = |c: usize| {
            u32::from_be_bytes([
                block[4 * c],
                block[4 * c + 1],
                block[4 * c + 2],
                block[4 * c + 3],
            ]) ^ first[c]
        };
        let mut s = [load(0), load(1), load(2), load(3)];
        for k in middle.chunks_exact(4) {
            s = round(table, s, k, shift);
        }
        s = last_round(sbox, s, last, shift);
        for (out, w) in block.chunks_exact_mut(4).zip(s) {
            out.copy_from_slice(&w.to_be_bytes());
        }
    }
}

macro_rules! aes_variant {
    ($name:ident, $key_len:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone)]
        pub struct $name {
            ks: KeySchedule,
        }

        impl $name {
            /// Expands `key` into a key schedule.
            pub fn new(key: &[u8; $key_len]) -> Self {
                $name {
                    ks: KeySchedule::expand(key),
                }
            }

            /// Encrypts one 16-byte block in place.
            pub fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
                self.ks.run(block, true);
            }

            /// Decrypts one 16-byte block in place.
            pub fn decrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
                self.ks.run(block, false);
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // Never expose key material.
                f.debug_struct(stringify!($name)).finish_non_exhaustive()
            }
        }
    };
}

aes_variant!(Aes128, 16, "AES with a 128-bit key (10 rounds).");
aes_variant!(
    Aes256,
    32,
    "AES with a 256-bit key (14 rounds), as used by dm-crypt in the paper."
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_known_entries() {
        let t = tables();
        // Canonical spot values from FIPS-197.
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7C);
        assert_eq!(t.sbox[0x53], 0xED);
        assert_eq!(t.sbox[0xFF], 0x16);
        for i in 0..256 {
            assert_eq!(t.inv_sbox[t.sbox[i] as usize], i as u8);
        }
    }

    #[test]
    fn fips197_aes128_vector() {
        // FIPS-197 Appendix C.1.
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let mut block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, 0xCC, 0xDD,
            0xEE, 0xFF,
        ];
        let expect: [u8; 16] = [
            0x69, 0xC4, 0xE0, 0xD8, 0x6A, 0x7B, 0x04, 0x30, 0xD8, 0xCD, 0xB7, 0x80, 0x70, 0xB4,
            0xC5, 0x5A,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expect);
        aes.decrypt_block(&mut block);
        let plain: [u8; 16] = core::array::from_fn(|i| ((i as u8) << 4) | i as u8);
        assert_eq!(block, plain);
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS-197 Appendix C.3.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let mut block: [u8; 16] = core::array::from_fn(|i| ((i as u8) << 4) | i as u8);
        let expect: [u8; 16] = [
            0x8E, 0xA2, 0xB7, 0xCA, 0x51, 0x67, 0x45, 0xBF, 0xEA, 0xFC, 0x49, 0x90, 0x4B, 0x49,
            0x60, 0x89,
        ];
        let aes = Aes256::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expect);
        aes.decrypt_block(&mut block);
        let plain: [u8; 16] = core::array::from_fn(|i| ((i as u8) << 4) | i as u8);
        assert_eq!(block, plain);
    }

    #[test]
    fn encrypt_decrypt_round_trip_random() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        for _ in 0..50 {
            let mut key = [0u8; 32];
            rng.fill(&mut key[..]);
            let aes = Aes256::new(&key);
            let mut block = [0u8; 16];
            rng.fill(&mut block[..]);
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig);
            aes.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    #[test]
    fn debug_does_not_leak_keys() {
        let aes = Aes128::new(&[0xAA; 16]);
        let s = format!("{aes:?}");
        assert!(!s.contains("aa") && !s.contains("AA") && !s.contains("170"));
    }

    #[test]
    fn gf_mul_basics() {
        // x * x = x^2; 0x80 * 2 wraps with the field polynomial.
        assert_eq!(gf_mul(0x02, 0x02), 0x04);
        assert_eq!(gf_mul(0x80, 0x02), 0x1B);
        assert_eq!(gf_mul(0x57, 0x83), 0xC1); // FIPS-197 example 4.2
    }
}
