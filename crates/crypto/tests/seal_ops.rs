//! Paper Table I prices `RSA_ENC` as one Enc for the sender and one
//! Dec for the receiver. This pins that count for a multi-KB payload
//! (a whole L = 12 payment bundle is about this size): sealing costs
//! one public-exponent `ring.pow`, opening costs one `ring.pow_crt`.
//!
//! The counts are the sample counts of the `ring.*_ns` span
//! histograms in the process-wide registry, which the `no-op` feature
//! compiles out. The test is alone in its binary so no other test's
//! RSA work lands in the delta.
#![cfg(not(feature = "no-op"))]

use ppms_crypto::rsa;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ops(hist: &str) -> u64 {
    ppms_obs::global()
        .snapshot()
        .histogram(hist)
        .map_or(0, |h| h.count)
}

#[test]
fn one_rsa_operation_per_seal_and_per_open() {
    let mut rng = StdRng::seed_from_u64(0x5EA1);
    let key = rsa::keygen(&mut rng, 512);
    let msg: Vec<u8> = (0..6000u32).map(|i| (i * 7) as u8).collect();
    // Warm the per-key caches (ring constants, CRT halves) first.
    let warm = rsa::encrypt(&mut rng, &key.public, &msg);
    assert_eq!(rsa::decrypt(&key, &warm).unwrap(), msg);

    let (pow0, crt0) = (ops("ring.pow_ns"), ops("ring.pow_crt_ns"));
    let ct = rsa::encrypt(&mut rng, &key.public, &msg);
    assert_eq!(ops("ring.pow_ns") - pow0, 1, "one Enc per seal");
    assert_eq!(ops("ring.pow_crt_ns") - crt0, 0);

    let crt1 = ops("ring.pow_crt_ns");
    assert_eq!(rsa::decrypt(&key, &ct).unwrap(), msg);
    assert_eq!(ops("ring.pow_crt_ns") - crt1, 1, "one Dec per open");
    assert_eq!(ct.len(), msg.len() + key.public.size_bytes() + 32);
}
