//! The ChaCha20 stream cipher (RFC 7539).
//!
//! Used as the StorM "stream cipher" service in the API-overhead
//! experiments. ChaCha20 is seekable: the keystream for any byte position
//! can be generated independently, which lets the passive-relay service
//! transform packet payloads mid-stream without buffering whole sectors —
//! the keystream position is derived from the absolute byte offset of the
//! data on the volume.

/// ChaCha20 with a 256-bit key and 96-bit nonce.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

impl std::fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaCha20").finish_non_exhaustive()
    }
}

const SIGMA: [u32; 4] = [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// XORs `ks` into `data` byte by byte, up to the shorter length.
fn xor_bytes(data: &mut [u8], ks: &[u8]) {
    for (d, k) in data.iter_mut().zip(ks) {
        *d ^= k;
    }
}

impl ChaCha20 {
    /// Creates a cipher from a 32-byte key and 12-byte nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let mut k = [0u32; 8];
        for (i, w) in k.iter_mut().enumerate() {
            *w = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        let mut n = [0u32; 3];
        for (i, w) in n.iter_mut().enumerate() {
            *w = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        ChaCha20 { key: k, nonce: n }
    }

    /// Produces the 64-byte keystream block for the given block counter.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let mut state = [0u32; 16];
        state[0..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);
        let initial = state;
        for _ in 0..10 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XORs `data` with the keystream starting at absolute byte `offset`
    /// (offset 0 corresponds to block counter 0, byte 0).
    ///
    /// Applying the same call twice restores the original data, and
    /// processing a buffer in arbitrary contiguous pieces yields the same
    /// result as processing it at once — the property the passive-relay
    /// cipher service relies on.
    pub fn apply_keystream_at(&self, offset: u64, data: &mut [u8]) {
        // The block counter is 32 bits, so the keystream wraps at 2^38 bytes.
        let mut counter = (offset / 64) as u32;
        let within = (offset % 64) as usize;
        let head_len = ((64 - within) % 64).min(data.len());
        let (head, body) = data.split_at_mut(head_len);
        if !head.is_empty() {
            xor_bytes(head, &self.block(counter)[within..]);
            counter = counter.wrapping_add(1);
        }
        let mut blocks = body.chunks_exact_mut(64);
        for chunk in &mut blocks {
            let ks = self.block(counter);
            for (d, k) in chunk.chunks_exact_mut(8).zip(ks.chunks_exact(8)) {
                let w = u64::from_ne_bytes(d.try_into().expect("8 bytes"))
                    ^ u64::from_ne_bytes(k.try_into().expect("8 bytes"));
                d.copy_from_slice(&w.to_ne_bytes());
            }
            counter = counter.wrapping_add(1);
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            xor_bytes(tail, &self.block(counter));
        }
    }

    /// Encrypts/decrypts `data` in place from keystream position 0.
    pub fn apply_keystream(&self, data: &mut [u8]) {
        self.apply_keystream_at(0, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc7539_quarter_round() {
        // RFC 7539 section 2.1.1.
        let mut state = [0u32; 16];
        state[0] = 0x11111111;
        state[1] = 0x01020304;
        state[2] = 0x9B8D6F43;
        state[3] = 0x01234567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xEA2A92F4);
        assert_eq!(state[1], 0xCB1CF8CE);
        assert_eq!(state[2], 0x4581472E);
        assert_eq!(state[3], 0x5881C4BB);
    }

    #[test]
    fn rfc7539_block_function() {
        // RFC 7539 section 2.3.2.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4A, 0, 0, 0, 0];
        let cipher = ChaCha20::new(&key, &nonce);
        let block = cipher.block(1);
        let expect_start: [u8; 16] = [
            0x10, 0xF1, 0xE7, 0xE4, 0xD1, 0x3B, 0x59, 0x15, 0x50, 0x0F, 0xDD, 0x1F, 0xA3, 0x20,
            0x71, 0xC4,
        ];
        assert_eq!(&block[..16], &expect_start);
    }

    #[test]
    fn xor_twice_is_identity() {
        let cipher = ChaCha20::new(&[7u8; 32], &[3u8; 12]);
        let mut data: Vec<u8> = (0..1000).map(|i| (i % 256) as u8).collect();
        let orig = data.clone();
        cipher.apply_keystream(&mut data);
        assert_ne!(data, orig);
        cipher.apply_keystream(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn piecewise_equals_whole() {
        // Chunked processing at arbitrary offsets must match one-shot —
        // this is what lets the passive relay cipher packets of any size.
        let cipher = ChaCha20::new(&[9u8; 32], &[1u8; 12]);
        let mut whole: Vec<u8> = (0..500).map(|i| (i * 3 % 256) as u8).collect();
        let mut pieces = whole.clone();
        cipher.apply_keystream_at(123, &mut whole);
        let cuts = [0usize, 1, 63, 64, 65, 200, 450, 500];
        for w in cuts.windows(2) {
            cipher.apply_keystream_at(123 + w[0] as u64, &mut pieces[w[0]..w[1]]);
        }
        assert_eq!(whole, pieces);
    }

    #[test]
    fn different_nonces_different_streams() {
        let a = ChaCha20::new(&[1u8; 32], &[0u8; 12]);
        let b = ChaCha20::new(&[1u8; 32], &[1u8; 12]);
        assert_ne!(a.block(0), b.block(0));
        assert_ne!(a.block(0), a.block(1));
    }

    #[test]
    fn debug_hides_key() {
        let c = ChaCha20::new(&[0xAB; 32], &[0; 12]);
        assert_eq!(format!("{c:?}"), "ChaCha20 { .. }");
    }
}
