//! AES-XTS sector encryption (IEEE 1619), dm-crypt's default mode.
//!
//! XTS is length-preserving and tweakable by sector number, which is why
//! disk encryptors use it: each 512-byte sector encrypts independently, so
//! random sector I/O needs no chaining state. The StorM encryption
//! middle-box applies it per SCSI sector.

use crate::aes::{Aes256, BLOCK_SIZE};

/// AES-256-XTS for 512-byte sectors.
#[derive(Debug, Clone)]
pub struct AesXts {
    data_cipher: Aes256,
    tweak_cipher: Aes256,
}

/// Multiplies a tweak by alpha in GF(2^128): IEEE 1619 holds it as a
/// little-endian integer, so the carry out of bit 127 folds back as 0x87.
fn double(t: u128) -> u128 {
    (t << 1) ^ ((t >> 127) * 0x87)
}

impl AesXts {
    /// Creates an XTS cipher from a data key and a tweak key.
    pub fn new(data_key: &[u8; 32], tweak_key: &[u8; 32]) -> Self {
        AesXts {
            data_cipher: Aes256::new(data_key),
            tweak_cipher: Aes256::new(tweak_key),
        }
    }

    /// Derives both keys from a single 64-byte master key, as dm-crypt's
    /// `aes-xts-plain64` does.
    pub fn from_master_key(master: &[u8; 64]) -> Self {
        let mut k1 = [0u8; 32];
        let mut k2 = [0u8; 32];
        k1.copy_from_slice(&master[..32]);
        k2.copy_from_slice(&master[32..]);
        Self::new(&k1, &k2)
    }

    fn initial_tweak(&self, sector: u64) -> u128 {
        // "plain64" tweak: little-endian sector number.
        let mut t = u128::from(sector).to_le_bytes();
        self.tweak_cipher.encrypt_block(&mut t);
        u128::from_le_bytes(t)
    }

    fn process(&self, sector: u64, data: &mut [u8], encrypt: bool) {
        assert!(
            !data.is_empty() && data.len().is_multiple_of(BLOCK_SIZE),
            "XTS data must be a positive multiple of {BLOCK_SIZE} bytes, got {}",
            data.len()
        );
        let mut tweak = self.initial_tweak(sector);
        for chunk in data.chunks_exact_mut(BLOCK_SIZE) {
            let mut word = [0u8; BLOCK_SIZE];
            word.copy_from_slice(chunk);
            let mut block = (u128::from_le_bytes(word) ^ tweak).to_le_bytes();
            if encrypt {
                self.data_cipher.encrypt_block(&mut block);
            } else {
                self.data_cipher.decrypt_block(&mut block);
            }
            chunk.copy_from_slice(&(u128::from_le_bytes(block) ^ tweak).to_le_bytes());
            tweak = double(tweak);
        }
    }

    /// Encrypts a sector in place.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or not a multiple of 16 bytes.
    pub fn encrypt_sector(&self, sector: u64, data: &mut [u8]) {
        self.process(sector, data, true);
    }

    /// Decrypts a sector in place.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or not a multiple of 16 bytes.
    pub fn decrypt_sector(&self, sector: u64, data: &mut [u8]) {
        self.process(sector, data, false);
    }

    /// Encrypts a run of consecutive sectors in place. `data` must be a
    /// whole number of `sector_bytes`-sized sectors.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a multiple of `sector_bytes` or
    /// `sector_bytes` is not a positive multiple of 16.
    pub fn encrypt_run(&self, first_sector: u64, sector_bytes: usize, data: &mut [u8]) {
        self.run(first_sector, sector_bytes, data, true);
    }

    /// Decrypts a run of consecutive sectors in place.
    ///
    /// # Panics
    ///
    /// Same conditions as [`AesXts::encrypt_run`].
    pub fn decrypt_run(&self, first_sector: u64, sector_bytes: usize, data: &mut [u8]) {
        self.run(first_sector, sector_bytes, data, false);
    }

    fn run(&self, first_sector: u64, sector_bytes: usize, data: &mut [u8], encrypt: bool) {
        assert!(
            sector_bytes > 0 && sector_bytes.is_multiple_of(BLOCK_SIZE),
            "sector size must be a positive multiple of {BLOCK_SIZE}"
        );
        assert!(
            data.len().is_multiple_of(sector_bytes),
            "data length {} is not a whole number of {sector_bytes}-byte sectors",
            data.len()
        );
        for (i, sector) in data.chunks_exact_mut(sector_bytes).enumerate() {
            self.process(first_sector + i as u64, sector, encrypt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> AesXts {
        let mut master = [0u8; 64];
        for (i, b) in master.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        AesXts::from_master_key(&master)
    }

    #[test]
    fn round_trip_sector() {
        let xts = cipher();
        let mut data: Vec<u8> = (0..512).map(|i| (i % 256) as u8).collect();
        let orig = data.clone();
        xts.encrypt_sector(42, &mut data);
        assert_ne!(data, orig);
        xts.decrypt_sector(42, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn sector_number_matters() {
        let xts = cipher();
        let plain = vec![0u8; 512];
        let mut a = plain.clone();
        let mut b = plain.clone();
        xts.encrypt_sector(1, &mut a);
        xts.encrypt_sector(2, &mut b);
        assert_ne!(a, b);
        // Decrypting with the wrong sector yields garbage, not plaintext.
        let mut c = a.clone();
        xts.decrypt_sector(2, &mut c);
        assert_ne!(c, plain);
    }

    #[test]
    fn identical_blocks_within_sector_differ() {
        // ECB would leak identical blocks; XTS's per-block tweak must not.
        let xts = cipher();
        let mut data = vec![0xABu8; 512];
        xts.encrypt_sector(9, &mut data);
        assert_ne!(data[0..16], data[16..32]);
    }

    #[test]
    fn multi_sector_run_equals_individual_sectors() {
        let xts = cipher();
        let mut run: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let mut individually = run.clone();
        xts.encrypt_run(10, 512, &mut run);
        xts.encrypt_sector(10, &mut individually[..512]);
        xts.encrypt_sector(11, &mut individually[512..]);
        assert_eq!(run, individually);
        xts.decrypt_run(10, 512, &mut run);
        assert_eq!(&run[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn tweak_doubling_carries() {
        let mut t = [0u8; 16];
        t[15] = 0x80;
        let t = double(u128::from_le_bytes(t)).to_le_bytes();
        // The carry out of the top bit folds back as 0x87.
        assert_eq!(t[0], 0x87);
        assert_eq!(t[15], 0x00);
        let t2 = double(u128::from_le_bytes([1u8; 16])).to_le_bytes();
        assert_eq!(t2, [2u8; 16]);
    }

    /// A fixed 64 KiB buffer from a SplitMix64 stream.
    fn seeded_buffer() -> Vec<u8> {
        let mut state = 0x5354_6F52_4D31_3630u64;
        let mut buf = vec![0u8; 64 * 1024];
        for chunk in buf.chunks_exact_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            chunk.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        buf
    }

    fn fnv1a(data: &[u8]) -> u64 {
        data.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    #[test]
    fn known_answer_runs() {
        // 128 sectors of 512 bytes from each first sector. The constants
        // were computed with FIPS-197's byte-wise reference rounds and a
        // byte-carry tweak doubling. The last run ends at sector u64::MAX.
        const KAT: [(u64, [u8; 16], [u8; 16], u64); 4] = [
            (
                0,
                [
                    0x4c, 0xc4, 0x92, 0x63, 0x19, 0x57, 0xb6, 0xfa, 0x47, 0xff, 0xec, 0x97, 0xc7,
                    0xbc, 0xb3, 0x48,
                ],
                [
                    0xad, 0xa4, 0x3d, 0x34, 0xc6, 0xe6, 0xca, 0xce, 0xdd, 0xef, 0x4d, 0x43, 0x50,
                    0x8d, 0xcd, 0x1b,
                ],
                0x79b1_f37b_7873_b068,
            ),
            (
                1,
                [
                    0xd6, 0x39, 0x4d, 0xd9, 0xf0, 0x86, 0xac, 0x22, 0xfb, 0xa9, 0x9f, 0x7a, 0x5c,
                    0x5c, 0x94, 0xe4,
                ],
                [
                    0x25, 0xae, 0x0e, 0xa6, 0xb7, 0x40, 0xe5, 0xd4, 0x66, 0x22, 0x9c, 0x8a, 0x99,
                    0x9d, 0x26, 0xb0,
                ],
                0x4aee_db62_7a73_4ab6,
            ),
            (
                1 << 40,
                [
                    0xa4, 0xed, 0xb0, 0x26, 0xe4, 0x6a, 0x39, 0xc8, 0x24, 0x7a, 0x25, 0x28, 0xae,
                    0xc8, 0xb1, 0xd3,
                ],
                [
                    0x40, 0x0c, 0x81, 0xa0, 0xc7, 0x27, 0xf7, 0xd6, 0x66, 0xe4, 0xff, 0xdf, 0xf1,
                    0x37, 0x53, 0xc4,
                ],
                0x2b75_c86a_ed19_9611,
            ),
            (
                u64::MAX - 127,
                [
                    0x43, 0x0c, 0xad, 0x7e, 0x96, 0x7c, 0x36, 0x56, 0xca, 0x03, 0xd1, 0x85, 0xe0,
                    0x64, 0x07, 0xdd,
                ],
                [
                    0x43, 0xc1, 0xf0, 0x26, 0x02, 0x38, 0x1b, 0xe0, 0x1d, 0x27, 0xfb, 0x4a, 0x7d,
                    0x87, 0x2e, 0x11,
                ],
                0xb851_2714_1344_b5d5,
            ),
        ];
        let xts = cipher();
        let plain = seeded_buffer();
        assert_eq!(fnv1a(&plain), 0xe677_71ae_6d5f_1447);
        for (sector, first, last, hash) in KAT {
            let mut buf = plain.clone();
            xts.encrypt_run(sector, 512, &mut buf);
            assert_eq!(buf[..16], first, "sector {sector:#x}");
            assert_eq!(buf[buf.len() - 16..], last, "sector {sector:#x}");
            assert_eq!(fnv1a(&buf), hash, "sector {sector:#x}");
            xts.decrypt_run(sector, 512, &mut buf);
            assert!(buf == plain, "sector {sector:#x} does not decrypt");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn rejects_unaligned_length() {
        cipher().encrypt_sector(0, &mut [0u8; 100]);
    }
}
