//! Property tests pinning the one arithmetic backend, [`FpMont`]
//! behind [`ModRing`], to the plain square-and-multiply oracle
//! [`modpow_plain`]. Moduli come at exact instantiation widths (2, 16
//! and 32 limbs — the fixture towers and the 1024/2048-bit protocol
//! moduli) and at the widths the ring reaches by picking a smaller
//! instantiation or zero-padding into a wider one (1 limb on
//! `FpMont<1>`, 3 / 5 / 9 limbs on `FpMont<4>` / `<8>` / `<16>`).
//! `pow` and `multi_pow_n` (Straus, Pippenger and the cost-model
//! dispatch) and `multi_pow` are checked against `modpow_plain` and
//! products of it, `batch_inv` against per-element `modinv`, and the
//! Montgomery domain round-trip against the identity. Edge operands
//! (0, 1, p−1, and unreduced values ≥ p) are driven explicitly
//! alongside the random ones.

use ppms_bigint::{modpow_plain, BigUint, FpMont, ModRing};
use proptest::prelude::*;

/// Strategy: an odd modulus of *exactly* `limbs` limbs (top bit set so
/// the width cannot collapse), i.e. one that lands on the monomorphized
/// fixed-width backend.
fn exact_width_modulus(limbs: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), limbs).prop_map(|mut v| {
        let top = v.len() - 1;
        v[0] |= 1;
        v[top] |= 1 << 63;
        BigUint::from_limbs(v)
    })
}

/// Strategy: a protocol-width modulus — 16 limbs (1024-bit) or
/// 32 limbs (2048-bit), covering both `FpMont` instantiations the
/// protocols exercise.
fn protocol_modulus() -> impl Strategy<Value = BigUint> {
    any::<bool>().prop_flat_map(|wide| exact_width_modulus(if wide { 32 } else { 16 }))
}

/// Strategy: a modulus at a width other than the protocol ones —
/// 2 limbs (exact), 1 limb (the pairing field's width) or 3 / 5 / 9
/// limbs, which the ring zero-pads into the next instantiation.
fn small_or_padded_modulus() -> impl Strategy<Value = BigUint> {
    (0usize..5).prop_flat_map(|i| exact_width_modulus([1, 2, 3, 5, 9][i]))
}

/// Strategy: a modulus of any of the widths above.
fn any_width_modulus() -> impl Strategy<Value = BigUint> {
    (0usize..7).prop_flat_map(|i| exact_width_modulus([1, 2, 3, 5, 9, 16, 32][i]))
}

/// `∏ modpow_plain(bᵢ, eᵢ, m) mod m` — the oracle for the
/// multi-exponentiation paths.
fn plain_product(pairs: &[(BigUint, BigUint)], m: &BigUint) -> BigUint {
    pairs.iter().fold(&BigUint::one() % m, |acc, (b, e)| {
        &(&acc * &modpow_plain(b, e, m)) % m
    })
}

/// Strategy: an operand biased toward the edges — 0, 1, and offsets
/// that the test maps to p−1 / p / p+1 — plus random values up to a
/// little wider than the modulus (exercising the unreduced path).
fn operand() -> impl Strategy<Value = Operand> {
    (any::<u64>(), prop::collection::vec(any::<u64>(), 0..34)).prop_map(|(tag, limbs)| {
        match tag % 8 {
            0 => Operand::Zero,
            1 => Operand::One,
            2 => Operand::PMinus1,
            3 => Operand::P,
            4 => Operand::PPlus1,
            _ => Operand::Random(limbs),
        }
    })
}

#[derive(Clone, Debug)]
enum Operand {
    Zero,
    One,
    PMinus1,
    P,
    PPlus1,
    Random(Vec<u64>),
}

impl Operand {
    fn value(&self, p: &BigUint) -> BigUint {
        match self {
            Operand::Zero => BigUint::zero(),
            Operand::One => BigUint::one(),
            Operand::PMinus1 => p - &BigUint::one(),
            Operand::P => p.clone(),
            Operand::PPlus1 => p + &BigUint::one(),
            Operand::Random(limbs) => BigUint::from_limbs(limbs.clone()),
        }
    }
}

proptest! {
    // Full-width operands make each case a real 1024/2048-bit ladder;
    // keep the case count low enough for the ci-gate smoke budget.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `pow` ≡ `modpow_plain` with full-width exponents, including the
    // edge operands on both sides of the reduction boundary.
    #[test]
    fn pow_matches_plain_full_width(m in protocol_modulus(), b in operand(), e in operand()) {
        let ring = ModRing::new(&m);
        let base = b.value(&m);
        let exp = e.value(&m);
        prop_assert_eq!(ring.pow(&base, &exp), modpow_plain(&base, &exp, &m));
    }

    // The same at the small and zero-padded widths.
    #[test]
    fn pow_matches_plain_small_or_padded(
        m in small_or_padded_modulus(),
        b in operand(),
        e in operand(),
    ) {
        let ring = ModRing::new(&m);
        let base = b.value(&m);
        let exp = e.value(&m);
        prop_assert_eq!(ring.pow(&base, &exp), modpow_plain(&base, &exp, &m));
    }

    // The fixed-width backend against the naive square-and-multiply
    // reference (shorter exponents keep the reference affordable).
    #[test]
    fn pow_fixed_matches_plain_reference(
        m in protocol_modulus(),
        b in operand(),
        e in prop::collection::vec(any::<u64>(), 0..2),
    ) {
        let ring = ModRing::new(&m);
        let base = b.value(&m);
        let exp = BigUint::from_limbs(e);
        prop_assert_eq!(ring.pow(&base, &exp), modpow_plain(&base, &exp, &m));
    }

    // `multi_pow_n` ≡ the product of `modpow_plain` calls, for
    // Straus, Pippenger and the cost-model dispatch alike.
    #[test]
    fn multi_pow_n_matches_plain_product(
        m in exact_width_modulus(16),
        pairs in prop::collection::vec((operand(), operand()), 0..8),
    ) {
        let ring = ModRing::new(&m);
        let vals: Vec<(BigUint, BigUint)> =
            pairs.iter().map(|(b, e)| (b.value(&m), e.value(&m))).collect();
        let refs: Vec<(&BigUint, &BigUint)> = vals.iter().map(|(b, e)| (b, e)).collect();
        let expect = plain_product(&vals, &m);
        prop_assert_eq!(ring.multi_pow_n(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_straus(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_pippenger(&refs), expect);
    }

    // Same at the 2048-bit width (fewer, smaller batches — each case
    // is ~32× the limb work of the small-ring proptests).
    #[test]
    fn multi_pow_n_matches_plain_product_2048(
        m in exact_width_modulus(32),
        pairs in prop::collection::vec((operand(), operand()), 0..4),
    ) {
        let ring = ModRing::new(&m);
        let vals: Vec<(BigUint, BigUint)> =
            pairs.iter().map(|(b, e)| (b.value(&m), e.value(&m))).collect();
        let refs: Vec<(&BigUint, &BigUint)> = vals.iter().map(|(b, e)| (b, e)).collect();
        let expect = plain_product(&vals, &m);
        prop_assert_eq!(ring.multi_pow_n(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_straus(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_pippenger(&refs), expect);
    }

    // Same at the small and zero-padded widths.
    #[test]
    fn multi_pow_n_matches_plain_product_small_or_padded(
        m in small_or_padded_modulus(),
        pairs in prop::collection::vec((operand(), operand()), 0..8),
    ) {
        let ring = ModRing::new(&m);
        let vals: Vec<(BigUint, BigUint)> =
            pairs.iter().map(|(b, e)| (b.value(&m), e.value(&m))).collect();
        let refs: Vec<(&BigUint, &BigUint)> = vals.iter().map(|(b, e)| (b, e)).collect();
        let expect = plain_product(&vals, &m);
        prop_assert_eq!(ring.multi_pow_n(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_straus(&refs), expect.clone());
        prop_assert_eq!(ring.multi_pow_n_pippenger(&refs), expect);
    }

}

proptest! {
    // Full-width operands make each case a real 1024/2048-bit ladder;
    // keep the case count low enough for the ci-gate smoke budget.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Shamir `multi_pow` against the product of independent
    // `modpow_plain` calls, at every width.
    #[test]
    fn multi_pow_fixed_matches_product(
        m in any_width_modulus(),
        b1 in operand(), e1 in operand(),
        b2 in operand(), e2 in operand(),
    ) {
        let ring = ModRing::new(&m);
        let (b1, e1, b2, e2) = (b1.value(&m), e1.value(&m), b2.value(&m), e2.value(&m));
        let expect = plain_product(&[(b1.clone(), e1.clone()), (b2.clone(), e2.clone())], &m);
        prop_assert_eq!(ring.multi_pow(&[(&b1, &e1), (&b2, &e2)]), expect);
    }

    // Fixed-base window tables agree with plain `pow`, at every width.
    #[test]
    fn pow_fixed_base_tables_match_pow(
        m in any_width_modulus(),
        b in operand(),
        e in operand(),
    ) {
        let ring = ModRing::new(&m);
        let base = b.value(&m);
        let exp = e.value(&m);
        ring.register_base(&base);
        prop_assert_eq!(ring.pow_fixed(&base, &exp), ring.pow(&base, &exp));
    }

}

proptest! {
    // Full-width operands make each case a real 1024/2048-bit ladder;
    // keep the case count low enough for the ci-gate smoke budget.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `batch_inv` (whose internal products route through the
    // fixed-width `mul`) against per-element `modinv`.
    #[test]
    fn batch_inv_fixed_matches_modinv(
        m in any_width_modulus(),
        xs in prop::collection::vec(operand(), 0..10),
    ) {
        let ring = ModRing::new(&m);
        let vals: Vec<BigUint> = xs.iter().map(|x| x.value(&m)).collect();
        let got = ring.batch_inv(&vals);
        prop_assert_eq!(got.len(), vals.len());
        for (x, inv) in vals.iter().zip(&got) {
            prop_assert_eq!(inv, &x.modinv(&m));
        }
    }

    // Montgomery domain round-trip on the raw kernels: `to_mont` →
    // `from_mont` is the identity on reduced values, and reduces
    // unreduced ones, at both instantiations.
    #[test]
    fn mont_roundtrip_identity_1024(m in exact_width_modulus(16), x in operand()) {
        let fp = FpMont::<16>::new(&m).expect("exact-width odd modulus");
        let x = x.value(&m);
        prop_assert_eq!(fp.from_mont(&fp.to_mont(&x)), &x % &m);
    }

    #[test]
    fn mont_roundtrip_identity_2048(m in exact_width_modulus(32), x in operand()) {
        let fp = FpMont::<32>::new(&m).expect("exact-width odd modulus");
        let x = x.value(&m);
        prop_assert_eq!(fp.from_mont(&fp.to_mont(&x)), &x % &m);
    }

    // A 3-limb modulus zero-padded into `FpMont<4>`.
    #[test]
    fn mont_roundtrip_identity_padded(m in exact_width_modulus(3), x in operand()) {
        let fp = FpMont::<4>::new(&m).expect("3-limb odd modulus fits 4 limbs");
        let x = x.value(&m);
        prop_assert_eq!(fp.from_mont(&fp.to_mont(&x)), &x % &m);
    }
}
