//! RSA hybrid sealing: an OAEP-wrapped key, an MGF1 keystream and an
//! HMAC-SHA-256 tag (encrypt-then-MAC).
//!
//! The PPMS protocols wrap payments and identity tokens in
//! `RSA_ENC_rpk(...)`, one Enc for the sender and one Dec for the
//! receiver (paper Table I). A whole broken-up e-cash bundle is far
//! longer than one OAEP block, so [`encrypt`] seals a fresh 16-byte
//! secret in a single OAEP block and carries the payload under keys
//! derived from it:
//!
//! ```text
//! kem_block (k bytes) ‖ body (msg.len() bytes) ‖ tag (32 bytes)
//! body = msg ⊕ MGF1(enc_key)     tag = HMAC(mac_key, kem_block ‖ body)
//! ```
//!
//! The tag covers the whole ciphertext before it, so [`decrypt`]
//! rejects any reordered, truncated, extended or spliced ciphertext
//! before it unmasks the body.

use super::{RsaPrivateKey, RsaPublicKey};
use crate::hash::{hash_tagged, hmac_sha256, mgf1};
use crate::sha256::Sha256;
use ppms_bigint::BigUint;
use rand::Rng;

/// OAEP hash/seed length. SHA-256 output truncated to 16 bytes so the
/// padding (`2·HLEN + 2` bytes) fits the 512-bit moduli the tests and
/// the paper-scale benchmarks use.
const HLEN: usize = 16;

/// Length of the per-message secret sealed in the OAEP block.
const SECRET_LEN: usize = 16;

/// Length of the HMAC-SHA-256 tag that ends every ciphertext.
const TAG_LEN: usize = 32;

/// Shortest modulus, in bytes, whose OAEP block holds the sealed
/// secret. `RsaPublicKey::from_bytes` refuses narrower keys.
pub(crate) const MIN_MODULUS_BYTES: usize = 2 * HLEN + 2 + SECRET_LEN;

/// The (truncated) label hash.
fn lhash() -> [u8; HLEN] {
    Sha256::digest(b"")[..HLEN].try_into().expect("HLEN <= 32")
}

/// Maximum plaintext bytes for a single OAEP block under `pk`.
pub fn max_block_len(pk: &RsaPublicKey) -> usize {
    pk.size_bytes() - 2 * HLEN - 2
}

/// Errors from decryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecryptError {
    /// Ciphertext is shorter than one OAEP block plus a tag.
    BadLength,
    /// OAEP padding check failed (tampered or wrong-key key block).
    BadPadding,
    /// The HMAC tag does not match (tampered, truncated or spliced).
    BadTag,
}

impl std::fmt::Display for DecryptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecryptError::BadLength => write!(f, "ciphertext length mismatch"),
            DecryptError::BadPadding => write!(f, "OAEP padding check failed"),
            DecryptError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for DecryptError {}

fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Compares two tags without an early exit, so the time taken does not
/// reveal how long a matching prefix a forger found.
fn tags_equal(a: &[u8], b: &[u8]) -> bool {
    let diff = a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y));
    a.len() == b.len() && std::hint::black_box(diff) == 0
}

/// The keystream key and the MAC key, derived from one sealed secret.
fn derive_keys(secret: &[u8]) -> ([u8; 32], [u8; 32]) {
    (
        hash_tagged("ppms-seal-enc", secret),
        hash_tagged("ppms-seal-mac", secret),
    )
}

/// Encrypts one OAEP block (`msg.len() <= max_block_len`).
fn encrypt_block<R: Rng + ?Sized>(rng: &mut R, pk: &RsaPublicKey, msg: &[u8]) -> Vec<u8> {
    let k = pk.size_bytes();
    assert!(msg.len() <= k - 2 * HLEN - 2, "OAEP block too long");

    // DB = lHash || 0..0 || 0x01 || msg
    let mut db = Vec::with_capacity(k - HLEN - 1);
    db.extend_from_slice(&lhash()); // empty label
    db.resize(k - HLEN - 1 - msg.len() - 1, 0);
    db.push(0x01);
    db.extend_from_slice(msg);

    let mut seed = [0u8; HLEN];
    rng.fill_bytes(&mut seed);

    let db_mask = mgf1(&seed, db.len());
    xor_into(&mut db, &db_mask);
    let seed_mask = mgf1(&db, HLEN);
    let mut masked_seed = seed;
    xor_into(&mut masked_seed, &seed_mask);

    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.extend_from_slice(&masked_seed);
    em.extend_from_slice(&db);

    let m = BigUint::from_bytes_be(&em);
    debug_assert!(m < pk.n);
    pk.ring().pow(&m, &pk.e).to_bytes_be_padded(k)
}

/// Decrypts one OAEP block.
fn decrypt_block(sk: &RsaPrivateKey, block: &[u8]) -> Result<Vec<u8>, DecryptError> {
    let k = sk.public.size_bytes();
    if block.len() != k {
        return Err(DecryptError::BadLength);
    }
    let c = BigUint::from_bytes_be(block);
    let em = sk.crt().pow_secret(&c).to_bytes_be_padded(k);
    if em[0] != 0 {
        return Err(DecryptError::BadPadding);
    }
    let mut seed: [u8; HLEN] = em[1..1 + HLEN].try_into().expect("HLEN slice");
    let mut db = em[1 + HLEN..].to_vec();
    let seed_mask = mgf1(&db, HLEN);
    xor_into(&mut seed, &seed_mask);
    let db_mask = mgf1(&seed, db.len());
    xor_into(&mut db, &db_mask);

    if db[..HLEN] != lhash() {
        return Err(DecryptError::BadPadding);
    }
    // Skip the zero padding, expect the 0x01 separator.
    let rest = &db[HLEN..];
    let sep = rest
        .iter()
        .position(|&b| b != 0)
        .ok_or(DecryptError::BadPadding)?;
    if rest[sep] != 0x01 {
        return Err(DecryptError::BadPadding);
    }
    Ok(rest[sep + 1..].to_vec())
}

/// Seals an arbitrary-length message under `pk` with one RSA
/// operation. The output is `msg.len() + k + 32` bytes for a `k`-byte
/// modulus.
pub fn encrypt<R: Rng + ?Sized>(rng: &mut R, pk: &RsaPublicKey, msg: &[u8]) -> Vec<u8> {
    let mut secret = [0u8; SECRET_LEN];
    rng.fill_bytes(&mut secret);
    let (enc_key, mac_key) = derive_keys(&secret);

    let mut out = encrypt_block(rng, pk, &secret);
    let body_start = out.len();
    out.reserve(msg.len() + TAG_LEN);
    out.extend_from_slice(msg);
    xor_into(&mut out[body_start..], &mgf1(&enc_key, msg.len()));
    let tag = hmac_sha256(&mac_key, &out);
    out.extend_from_slice(&tag);
    out
}

/// Opens a ciphertext produced by [`encrypt`]: unwraps the secret with
/// one RSA-CRT operation, checks the tag over everything before it,
/// and only then unmasks the body.
pub fn decrypt(sk: &RsaPrivateKey, ct: &[u8]) -> Result<Vec<u8>, DecryptError> {
    let k = sk.public.size_bytes();
    if ct.len() < k + TAG_LEN {
        return Err(DecryptError::BadLength);
    }
    let (sealed, tag) = ct.split_at(ct.len() - TAG_LEN);
    let (kem_block, body) = sealed.split_at(k);
    let secret = decrypt_block(sk, kem_block)?;
    if secret.len() != SECRET_LEN {
        return Err(DecryptError::BadPadding);
    }
    let (enc_key, mac_key) = derive_keys(&secret);
    if !tags_equal(&hmac_sha256(&mac_key, sealed), tag) {
        return Err(DecryptError::BadTag);
    }
    let mut msg = body.to_vec();
    xor_into(&mut msg, &mgf1(&enc_key, body.len()));
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::test_key;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_various_lengths() {
        let key = test_key(10);
        let mut rng = StdRng::seed_from_u64(11);
        for len in [0usize, 1, 31, 32, 33, 100, 500, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = encrypt(&mut rng, &key.public, &msg);
            assert_eq!(decrypt(&key, &ct).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn ciphertext_randomized() {
        let key = test_key(12);
        let mut rng = StdRng::seed_from_u64(13);
        let c1 = encrypt(&mut rng, &key.public, b"same message");
        let c2 = encrypt(&mut rng, &key.public, b"same message");
        assert_ne!(c1, c2, "OAEP must be probabilistic");
    }

    #[test]
    fn tampering_detected() {
        let key = test_key(14);
        let mut rng = StdRng::seed_from_u64(15);
        let mut ct = encrypt(&mut rng, &key.public, b"sensitive payment");
        ct[5] ^= 0x40;
        assert!(decrypt(&key, &ct).is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let k1 = test_key(16);
        let k2 = test_key(17);
        let mut rng = StdRng::seed_from_u64(18);
        let ct = encrypt(&mut rng, &k1.public, b"for key 1 only");
        assert!(decrypt(&k2, &ct).is_err());
    }

    #[test]
    fn bad_lengths_rejected() {
        let key = test_key(19);
        assert_eq!(decrypt(&key, &[]), Err(DecryptError::BadLength));
        assert_eq!(decrypt(&key, &[0u8; 65]), Err(DecryptError::BadLength));
    }

    #[test]
    fn multiblock_boundary() {
        let key = test_key(20);
        let mut rng = StdRng::seed_from_u64(21);
        let block = max_block_len(&key.public);
        // Lengths around one OAEP block's capacity all round-trip.
        for len in [block - 8, block - 7, block, 2 * block] {
            let msg = vec![0x5Au8; len];
            let ct = encrypt(&mut rng, &key.public, &msg);
            assert_eq!(decrypt(&key, &ct).unwrap(), msg, "len {len}");
        }
    }
}
