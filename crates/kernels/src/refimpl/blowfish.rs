//! Blowfish (Schneier, 1993) reference implementation, from scratch.
//!
//! The P-array and S-boxes initialize from the fractional hex digits of π
//! (the constants in [`crate::refimpl::pi`], which `tests/pi_check.rs`
//! regenerates with the BBP formula and pins word by word) and are then
//! mixed with the key by the standard 521-encryption key schedule.

use super::pi::{P_INIT, S_INIT};

/// A key-scheduled Blowfish cipher.
#[derive(Clone)]
pub struct Blowfish {
    /// The 18-entry P-array.
    pub p: [u32; 18],
    /// The four 256-entry S-boxes.
    pub s: [[u32; 256]; 4],
}

impl Blowfish {
    /// Build the cipher for `key` (1–56 bytes).
    ///
    /// # Panics
    ///
    /// Panics if the key is empty or longer than 56 bytes.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        assert!(!key.is_empty() && key.len() <= 56, "blowfish key must be 1..=56 bytes");
        let mut bf = Blowfish { p: P_INIT, s: S_INIT };

        // XOR the key into P.
        let mut ki = 0;
        for i in 0..18 {
            let mut word = 0u32;
            for _ in 0..4 {
                word = (word << 8) | u32::from(key[ki]);
                ki = (ki + 1) % key.len();
            }
            bf.p[i] ^= word;
        }
        // Replace P and S with successive encryptions of zero.
        let mut l = 0u32;
        let mut r = 0u32;
        for i in (0..18).step_by(2) {
            let (nl, nr) = bf.encrypt_words(l, r);
            bf.p[i] = nl;
            bf.p[i + 1] = nr;
            l = nl;
            r = nr;
        }
        for b in 0..4 {
            for i in (0..256).step_by(2) {
                let (nl, nr) = bf.encrypt_words(l, r);
                bf.s[b][i] = nl;
                bf.s[b][i + 1] = nr;
                l = nl;
                r = nr;
            }
        }
        bf
    }

    /// The round function `F`.
    #[must_use]
    pub fn f(&self, x: u32) -> u32 {
        let a = (x >> 24) as usize;
        let b = ((x >> 16) & 0xFF) as usize;
        let c = ((x >> 8) & 0xFF) as usize;
        let d = (x & 0xFF) as usize;
        (self.s[0][a].wrapping_add(self.s[1][b]) ^ self.s[2][c]).wrapping_add(self.s[3][d])
    }

    /// Encrypt one 64-bit block given as two 32-bit halves.
    #[must_use]
    pub fn encrypt_words(&self, mut l: u32, mut r: u32) -> (u32, u32) {
        for i in 0..16 {
            l ^= self.p[i];
            r ^= self.f(l);
            std::mem::swap(&mut l, &mut r);
        }
        std::mem::swap(&mut l, &mut r);
        r ^= self.p[16];
        l ^= self.p[17];
        (l, r)
    }

    /// Decrypt one 64-bit block given as two 32-bit halves.
    #[must_use]
    pub fn decrypt_words(&self, mut l: u32, mut r: u32) -> (u32, u32) {
        for i in (2..18).rev() {
            l ^= self.p[i];
            r ^= self.f(l);
            std::mem::swap(&mut l, &mut r);
        }
        std::mem::swap(&mut l, &mut r);
        r ^= self.p[1];
        l ^= self.p[0];
        (l, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eric Young's standard Blowfish test vectors.
    #[test]
    fn standard_test_vectors() {
        let cases: [(&[u8], u32, u32, u32, u32); 3] = [
            (
                &[0, 0, 0, 0, 0, 0, 0, 0],
                0x0000_0000,
                0x0000_0000,
                0x4EF9_9745,
                0x6198_DD78,
            ),
            (
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
                0xFFFF_FFFF,
                0xFFFF_FFFF,
                0x5186_6FD5,
                0xB85E_CB8A,
            ),
            (
                &[0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
                0x1000_0000,
                0x0000_0001,
                0x7D85_6F9A,
                0x6130_63F2,
            ),
        ];
        for (key, l, r, el, er) in cases {
            let bf = Blowfish::new(key);
            assert_eq!(bf.encrypt_words(l, r), (el, er));
        }
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let bf = Blowfish::new(b"TESTKEY");
        for (l, r) in [(0u32, 0u32), (0xDEAD_BEEF, 0xCAFE_BABE), (1, u32::MAX)] {
            let (el, er) = bf.encrypt_words(l, r);
            assert_eq!(bf.decrypt_words(el, er), (l, r));
        }
    }

    #[test]
    fn p_array_starts_from_pi_xor_key() {
        // With an all-zero 8-byte key the pre-schedule P[0] is π's first
        // word; after scheduling it must differ (mixing happened).
        let bf = Blowfish::new(&[0u8; 8]);
        assert_ne!(bf.p[0], 0x243F_6A88);
    }

    #[test]
    #[should_panic(expected = "1..=56")]
    fn empty_key_panics() {
        let _ = Blowfish::new(&[]);
    }
}
