//! From-scratch ciphers for StorM's encryption middle-box.
//!
//! The paper's encryption service uses dm-crypt (AES, 256-bit keys) and the
//! API-overhead experiments use a byte-wise stream cipher. No external
//! crypto crates are in this workspace's allowed dependency set, so the
//! primitives are implemented here and validated against published test
//! vectors (FIPS-197 for AES, RFC 7539 for ChaCha20):
//!
//! * [`Aes128`] / [`Aes256`] — the AES block cipher.
//! * [`AesXts`] — XTS sector mode, the dm-crypt default, used by the
//!   encryption middle-box for data-at-rest (Figures 10 and 11).
//! * [`ChaCha20`] — a position-seekable stream cipher, used as the paper's
//!   "stream cipher service that operates on each bit of the raw data"
//!   (Figures 5, 6, 8 and 9).
//!
//! AES is table-driven (one 32-bit round table each way, derived from the
//! S-box at first use) and XTS works on the tweak as one 128-bit word;
//! ChaCha20 XORs whole keystream blocks a 64-bit word at a time. None of
//! it is side-channel hardened: the table lookups are indexed by secret
//! state, so their timing depends on the cache. The ciphers exist to make
//! the reproduction self-contained, not for production cryptography.
//!
//! # Example
//!
//! ```
//! use storm_crypto::AesXts;
//!
//! let xts = AesXts::new(&[0x11; 32], &[0x22; 32]);
//! let mut sector = vec![0u8; 512];
//! sector[0..4].copy_from_slice(b"data");
//! let original = sector.clone();
//! xts.encrypt_sector(7, &mut sector);
//! assert_ne!(sector, original);
//! xts.decrypt_sector(7, &mut sector);
//! assert_eq!(sector, original);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aes;
mod chacha;
mod xts;

pub use aes::{Aes128, Aes256, BLOCK_SIZE};
pub use chacha::ChaCha20;
pub use xts::AesXts;
