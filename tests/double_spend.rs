//! Double-spend and abuse scenarios across the market + e-cash stack.

use ppms_core::MarketError;
use ppms_ecash::{CashBreak, DecError, NodePath};
use ppms_integration::{dec_market, TEST_RSA_BITS};

#[test]
fn jo_paying_two_sps_with_same_nodes_caught_at_second_deposit() {
    // A malicious JO encrypts the SAME spends to two SPs. The first
    // deposit wins; the second SP's deposits bounce.
    let (mut market, mut rng) = dec_market(20, 3);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp1 = market.register_sp(&mut rng, TEST_RSA_BITS);
    let sp2 = market.register_sp(&mut rng, TEST_RSA_BITS);

    market.register_job(&jo, "double pay", 5);
    market.withdraw(&mut rng, &mut jo).unwrap();
    let params = market.params().clone();

    // Craft the duplicate payment manually at the e-cash layer.
    let coin = market_coin(&mut market, &mut rng, &mut jo);
    let spend = coin.spend(&mut rng, &params, &NodePath::from_index(2, 1), b"");

    assert_eq!(market.dec_bank.deposit(&spend, b""), Ok(2));
    assert_eq!(
        market.dec_bank.deposit(&spend, b""),
        Err(DecError::DoubleSpend("node already spent".into()))
    );

    let _ = (sp1, sp2);
}

#[test]
fn sp_cannot_replay_payment_after_depositing() {
    let (mut market, mut rng) = dec_market(21, 3);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);

    market.register_job(&jo, "job", 5);
    market.withdraw(&mut rng, &mut jo).unwrap();
    let jo_pk = jo.job_key_public();
    let sp_pk = market.labor_registration(&sp);
    let (ct, ..) = market
        .submit_payment(&mut rng, &mut jo, &sp_pk, 5, CashBreak::Pcba)
        .unwrap();

    let (credited, _) = market.deposit_payment(&sp, &jo_pk, &ct).unwrap();
    assert_eq!(credited, 5);
    // Replaying the same ciphertext re-deposits the same serials.
    let err = market.deposit_payment(&sp, &jo_pk, &ct).unwrap_err();
    assert!(
        matches!(err, MarketError::Dec(DecError::DoubleSpend(_))),
        "got {err:?}"
    );
}

#[test]
fn overlapping_payments_from_one_coin_rejected() {
    // The JO tries to pay two SPs with overlapping tree regions by
    // bypassing the leaf accounting (crafting spends directly).
    let (mut market, mut rng) = dec_market(22, 3);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    market.register_job(&jo, "overlap", 4);
    market.withdraw(&mut rng, &mut jo).unwrap();
    let params = market.params().clone();
    let coin = market_coin(&mut market, &mut rng, &mut jo);

    // Spend the depth-1 left node, then one of its leaves.
    let parent = coin.spend(&mut rng, &params, &NodePath::from_index(1, 0), b"");
    let leaf = coin.spend(&mut rng, &params, &NodePath::from_index(3, 2), b"");
    assert!(market.dec_bank.deposit(&parent, b"").is_ok());
    assert_eq!(
        market.dec_bank.deposit(&leaf, b""),
        Err(DecError::DoubleSpend(
            "an ancestor was already spent".into()
        ))
    );
}

#[test]
fn fake_coins_never_credit() {
    let (mut market, mut rng) = dec_market(23, 3);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);

    let outcome = market
        .run_round(
            &mut rng,
            &mut jo,
            &sp,
            "padded",
            1,
            CashBreak::Unitary,
            b"d",
        )
        .unwrap();
    // w = 1, face = 8: one real coin, seven fakes — exactly 1 credited.
    assert_eq!(outcome.real_coins, 1);
    assert_eq!(outcome.fake_coins, 7);
    assert_eq!(outcome.credited, 1);
    assert_eq!(market.bank.balance(sp.account).unwrap(), 1);
}

#[test]
fn tampered_ciphertext_rejected_by_sp() {
    let (mut market, mut rng) = dec_market(24, 2);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);
    market.register_job(&jo, "job", 2);
    market.withdraw(&mut rng, &mut jo).unwrap();
    let jo_pk = jo.job_key_public();
    let sp_pk = market.labor_registration(&sp);
    let (mut ct, ..) = market
        .submit_payment(&mut rng, &mut jo, &sp_pk, 2, CashBreak::Pcba)
        .unwrap();
    ct[10] ^= 0x80;
    let err = market.deposit_payment(&sp, &jo_pk, &ct).unwrap_err();
    assert_eq!(err, MarketError::BadPayload("decrypt".into()));
}

#[test]
fn payment_to_hostile_sp_key_is_refused() {
    use ppms_bigint::{random_odd_bits, BigUint};
    use ppms_crypto::rsa::RsaPublicKey;

    let (mut market, mut rng) = dec_market(25, 3);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);
    market.register_job(&jo, "job", 5);
    market.withdraw(&mut rng, &mut jo).unwrap();
    let sp_pk = market.labor_registration(&sp);
    let good = RsaPublicKey::from_bytes(&sp_pk).expect("registered key decodes");

    let e = good.e.clone();
    let hostile = [
        (BigUint::zero(), e.clone()),
        (BigUint::one(), e.clone()),
        (&good.n + 1u64, e.clone()),                  // even
        (random_odd_bits(&mut rng, 256), e.clone()),  // too short to seal to
        (random_odd_bits(&mut rng, 2056), e.clone()), // over 2048 bits
        (good.n.clone(), BigUint::zero()),
        (good.n.clone(), BigUint::one()),
        (good.n.clone(), BigUint::from(65536u64)), // even exponent
    ];
    for (n, e) in hostile {
        let bytes = RsaPublicKey { n, e }.to_bytes();
        let err = market
            .submit_payment(&mut rng, &mut jo, &bytes, 1, CashBreak::Pcba)
            .unwrap_err();
        assert_eq!(err, MarketError::BadPayload("sp public key".into()));
    }
    // The refusals allocated no coin nodes: the full payment still fits.
    let (ct, ..) = market
        .submit_payment(&mut rng, &mut jo, &sp_pk, 5, CashBreak::Pcba)
        .unwrap();
    let (credited, _) = market
        .deposit_payment(&sp, &jo.job_key_public(), &ct)
        .unwrap();
    assert_eq!(credited, 5);
}

/// Extracts the JO's coin for crafting adversarial spends (test-only
/// access path: we re-run withdrawal through the bank directly).
fn market_coin(
    market: &mut ppms_core::ppmsdec::DecMarket,
    rng: &mut rand::rngs::StdRng,
    _jo: &mut ppms_core::ppmsdec::DecJobOwner,
) -> ppms_ecash::Coin {
    market.dec_bank.withdraw_coin(rng)
}
