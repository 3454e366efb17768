//! `dec_market`: closed-loop PPMSdec rounds (paper Alg. 1) through
//! the paid TCP door. Each of two client threads owns one connection,
//! shared by one JO and one SP role; a round is one SP's payment, from
//! its labor registration to its deposit being acknowledged.

use crate::closed;
use crate::common::{self, keygen_pool, Market, Recorder, CLIENTS, LEVELS, SETUP_REPEATS};
use crate::layers::{self, LayerInputs};
use crate::report::{Cfg, Outcome};
use crate::stats;
use crate::trace;
use ppms_core::service::{MaClient, MaRequest, MaResponse, MaService};
use ppms_core::{AccountId, Party, TcpTransport};
use ppms_crypto::cl::ClKeyPair;
use ppms_crypto::rsa::{self, RsaPrivateKey, RsaPublicKey};
use ppms_ecash::{decode_payment, encode_payment, receive_payment, CashBreak, Coin, Spend, Wallet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SPs one job hires before the JO publishes the next.
const JOB_SPS: usize = 4;
/// One-time SP keys per client; the pool cycles (a key never repeats
/// within one job).
const SP_KEYS: usize = 24;
/// Job pseudonym keys per client (cycled).
const JOB_KEYS: usize = 4;
/// Admission fees a connection starts with and tops up by: one fee
/// buys 32 requests, a round takes about eleven.
const FEES: usize = 128;
/// Every Nth round the SP re-deposits one already-credited spend; the
/// MA must refuse it.
const REPLAY_EVERY: u64 = 16;
/// Payments are drawn from `[1, 2^L / 4)`.
const MAX_PAYMENT: u64 = 1 << (LEVELS - 2);
/// JO funds: far more coins than any run withdraws.
const JO_FUNDS: u64 = 1 << 40;
/// Sensing data an SP reports.
const DATA: &[u8] = b"pm2.5=12ug/m3;no2=31ug/m3;temp=18.5C;hum=61%;sensor=ok;seq=0000";

/// One client thread's JO + SP.
struct Client {
    idx: usize,
    transport: Arc<TcpTransport>,
    fee_seed: u64,
    jo: MaClient,
    sp: MaClient,
    rng: StdRng,
    cl: ClKeyPair,
    jo_account: AccountId,
    wallet: Wallet,
    nonce: u64,
    withdrawals: u64,
    sp_keys: Vec<(RsaPrivateKey, Vec<u8>)>,
    job_keys: Vec<Vec<u8>>,
    next_key: usize,
    job: Option<(u64, usize)>,
    jobs: usize,
    rounds: u64,
    /// Acknowledged SP credits: (account, w).
    credits: Vec<(AccountId, u64)>,
    last_spend: Option<(AccountId, Spend)>,
}

struct Setup {
    market: Market,
    clients: Vec<Client>,
}

/// Builds the market and the clients; also returns the key pool's
/// generation time, ms.
fn setup(seed: u64) -> Result<(Setup, f64), String> {
    let market = Market::spawn(seed)?;
    let svc = market.svc();
    let t = Instant::now();
    let keys = keygen_pool(seed, CLIENTS * (SP_KEYS + JOB_KEYS));
    let keygen_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut wallet = ppms_core::sim::mint_admission_spends(svc, seed, CLIENTS * FEES)
        .map_err(|e| format!("admission wallet: {e}"))?;
    let inproc = svc.client();
    let mut keys = keys.into_iter();
    let mut clients = Vec::with_capacity(CLIENTS);
    for idx in 0..CLIENTS {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xDEC0 + idx as u64));
        let cl = ClKeyPair::generate(&mut rng, &svc.pairing);
        let jo_account = match inproc.try_call(MaRequest::RegisterJoAccount {
            funds: JO_FUNDS,
            clpk: cl.public.clone(),
        }) {
            Ok(MaResponse::Account(a)) => a,
            other => return Err(format!("register JO: {other:?}")),
        };
        let transport = market.connect(wallet.split_off(wallet.len() - FEES));
        let fee_seed = seed ^ (0xFEE5 + ((idx as u64) << 32));
        let sp_keys = keys
            .by_ref()
            .take(SP_KEYS)
            .map(|k| {
                let pk = k.public.to_bytes();
                (k, pk)
            })
            .collect();
        let job_keys = keys
            .by_ref()
            .take(JOB_KEYS)
            .map(|k| k.public.to_bytes())
            .collect();
        clients.push(Client {
            idx,
            transport: transport.clone(),
            fee_seed,
            jo: MaClient::new(transport.clone(), Party::Jo),
            sp: MaClient::new(transport, Party::Sp),
            rng,
            cl,
            jo_account,
            wallet: Wallet::new(),
            nonce: 0,
            withdrawals: 0,
            sp_keys,
            job_keys,
            next_key: 0,
            job: None,
            jobs: 0,
            rounds: 0,
            credits: Vec::new(),
            last_spend: None,
        });
    }
    Ok((Setup { market, clients }, keygen_ms))
}

/// Withdraws one coin into the wallet (CL-authenticated).
fn withdraw(
    c: &mut Client,
    rec: &mut Recorder,
    svc: &MaService,
    parent: usize,
    id: u64,
) -> Result<(), String> {
    let (mut coin, blinded, factor) = rec.tracer.span("client.mint", parent, id, || {
        let coin = Coin::mint(&mut c.rng, &svc.params);
        let (blinded, factor) = coin.blind_token(&mut c.rng, &svc.bank_pk);
        (coin, blinded, factor)
    });
    c.nonce += 1;
    let nonce = c.nonce;
    let auth = rec.tracer.span("client.cl_sign", parent, id, || {
        c.cl.sign_bytes(&mut c.rng, &svc.pairing, &nonce.to_be_bytes())
    });
    let resp = rec.call(
        &c.jo,
        parent,
        id,
        MaRequest::Withdraw {
            account: c.jo_account,
            nonce,
            auth,
            blinded,
        },
    )?;
    let MaResponse::BlindSignature(sig) = resp else {
        return Err(unexpected("withdraw", &resp));
    };
    let ok = rec.tracer.span("client.mint", parent, id, || {
        coin.attach_signature(&svc.bank_pk, &sig, &factor)
    });
    if !ok {
        return Err("withdraw: bank signature does not verify".into());
    }
    c.wallet.add_coin(&svc.params, coin);
    c.withdrawals += 1;
    Ok(())
}

fn unexpected(what: &str, resp: &MaResponse) -> String {
    format!("{what}: unexpected answer {resp:?}")
}

fn expect_ok(what: &str, resp: MaResponse) -> Result<(), String> {
    match resp {
        MaResponse::Ok => Ok(()),
        other => Err(unexpected(what, &other)),
    }
}

fn publish_job(c: &mut Client, rec: &mut Recorder) -> Result<(), String> {
    let pseudonym = c.job_keys[c.jobs % JOB_KEYS].clone();
    c.jobs += 1;
    let resp = rec.call(
        &c.jo,
        0,
        0,
        MaRequest::PublishJob {
            description: format!("air quality, block {}", c.jobs),
            payment: MAX_PAYMENT - 1,
            pseudonym,
        },
    )?;
    match resp {
        MaResponse::JobId(id) => {
            c.job = Some((id, 0));
            Ok(())
        }
        other => Err(unexpected("publish job", &other)),
    }
}

/// The body of one round: SP registration, labor, payment, data,
/// delivery, bundle verification and deposit. Returns the SP's account.
fn round_body(
    c: &mut Client,
    rec: &mut Recorder,
    svc: &MaService,
    root: usize,
    id: u64,
    job_id: u64,
    key_idx: usize,
) -> Result<AccountId, String> {
    let pk = c.sp_keys[key_idx].1.clone();
    let sp_account = match rec.call(&c.sp, root, id, MaRequest::RegisterSpAccount)? {
        MaResponse::Account(a) => a,
        other => return Err(unexpected("register SP", &other)),
    };
    let resp = rec.call(
        &c.sp,
        root,
        id,
        MaRequest::LaborRegister {
            job_id,
            sp_pubkey: pk.clone(),
        },
    )?;
    expect_ok("labor register", resp)?;
    match rec.call(&c.jo, root, id, MaRequest::FetchLabor { job_id })? {
        MaResponse::Labor(keys) if keys.contains(&pk) => {}
        other => return Err(format!("fetch labor: SP key missing from {other:?}")),
    }

    // JO pays w from its wallet, withdrawing a coin when short (or
    // when the remaining change is too fragmented to cover w).
    let w = c.rng.random_range(1..MAX_PAYMENT);
    let mut items = None;
    for _ in 0..3 {
        if c.wallet.balance() < w {
            withdraw(c, rec, svc, root, id)?;
        }
        let paid = rec.tracer.span("client.build_payment", root, id, || {
            c.wallet.pay(
                &mut c.rng,
                &svc.params,
                CashBreak::Pcba,
                w,
                b"",
                svc.bank_pk.size_bytes(),
            )
        });
        match paid {
            Ok(bundle) => {
                items = Some(bundle);
                break;
            }
            Err(_) => withdraw(c, rec, svc, root, id)?,
        }
    }
    let items = items.ok_or("wallet: cannot cover w even after fresh withdrawals")?;
    c.wallet.compact();
    let sealed = rec.tracer.span("client.build_payment", root, id, || {
        let sp_pk = RsaPublicKey::from_bytes(&pk)?;
        Some(rsa::encrypt(&mut c.rng, &sp_pk, &encode_payment(&items)))
    });
    let ciphertext = sealed.ok_or("SP key does not parse")?;
    let resp = rec.call(
        &c.jo,
        root,
        id,
        MaRequest::SubmitPayment {
            sp_pubkey: pk.clone(),
            ciphertext,
        },
    )?;
    expect_ok("submit payment", resp)?;

    // SP reports data, collects the payment, verifies and deposits it.
    let resp = rec.call(
        &c.sp,
        root,
        id,
        MaRequest::SubmitData {
            job_id,
            sp_pubkey: pk.clone(),
            data: DATA.to_vec(),
        },
    )?;
    expect_ok("submit data", resp)?;
    match rec.call(&c.jo, root, id, MaRequest::FetchData { job_id })? {
        MaResponse::Data(reports) if reports == [DATA] => {}
        other => return Err(unexpected("fetch data", &other)),
    }
    let ct = match rec.call(&c.sp, root, id, MaRequest::FetchPayment { sp_pubkey: pk })? {
        MaResponse::Payment(Some(ct)) => ct,
        other => return Err(unexpected("fetch payment", &other)),
    };
    let sk = &c.sp_keys[key_idx].0;
    let received = rec.tracer.span("client.receive_payment", root, id, || {
        let payload = rsa::decrypt(sk, &ct).ok()?;
        let items = decode_payment(&payload).ok()?;
        Some(receive_payment(&svc.params, &svc.bank_pk, &items, b""))
    });
    let (spends, value) = received.ok_or("payment does not decrypt or parse")?;
    if value != w || spends.is_empty() {
        return Err(format!("bundle verifies to {value}, paid {w}"));
    }
    let n = spends.len();
    let first = spends[0].clone();
    match rec.call(
        &c.sp,
        root,
        id,
        MaRequest::DepositBatch {
            account: sp_account,
            spends,
        },
    )? {
        MaResponse::BatchDeposited {
            total,
            accepted,
            rejected: 0,
        } if total == w && accepted == n => {}
        other => return Err(format!("deposit of {w} in {n} spends: {other:?}")),
    }
    c.credits.push((sp_account, w));
    c.last_spend = Some((sp_account, first));
    Ok(sp_account)
}

/// One loop step: publish a job when the last one is fully hired, run
/// one round (timed), read the SP's balance, and every
/// [`REPLAY_EVERY`] rounds re-deposit a credited spend, which must be
/// refused. Returns the round's
/// duration and the operations it took.
fn step(c: &mut Client, rec: &mut Recorder, svc: &MaService) -> Result<(f64, u64), String> {
    let mut ops = 1;
    if c.transport.wallet_len() < FEES / 4 {
        // The JO buys more admission fees before its connection runs dry.
        c.fee_seed += 1;
        let more = ppms_core::sim::mint_admission_spends(svc, c.fee_seed, FEES)
            .map_err(|e| format!("admission top-up: {e}"))?;
        c.transport.load_wallet(more);
        ops += 1;
    }
    if c.job.is_none() {
        publish_job(c, rec)?;
        ops += 1;
    }
    let (job_id, hired) = c.job.expect("a job is open");
    let key_idx = c.next_key % SP_KEYS;
    c.next_key += 1;
    let id = ((c.idx as u64) << 40) | c.rounds;
    c.rounds += 1;
    let t0 = Instant::now();
    let root = rec.tracer.open("round", 0, id);
    let body = round_body(c, rec, svc, root, id, job_id, key_idx);
    rec.tracer.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let sp_account = body?;
    ops += 1;
    let w = c.credits.last().map_or(0, |&(_, w)| w);
    match rec.call(
        &c.sp,
        0,
        id,
        MaRequest::Balance {
            account: sp_account,
        },
    )? {
        MaResponse::Balance(b) if b == w => {}
        other => return Err(format!("SP balance after a deposit of {w}: {other:?}")),
    }
    c.job = (hired + 1 < JOB_SPS).then_some((job_id, hired + 1));
    if c.rounds.is_multiple_of(REPLAY_EVERY) {
        if let Some((account, spend)) = c.last_spend.take() {
            ops += 1;
            let replay = rec.call_as(
                "deposit-replay",
                &c.sp,
                0,
                id,
                MaRequest::DepositBatch {
                    account,
                    spends: vec![spend],
                },
            )?;
            match replay {
                MaResponse::BatchDeposited {
                    total: 0,
                    accepted: 0,
                    rejected: 1,
                } => {}
                other => return Err(format!("replayed spend was not refused: {other:?}")),
            }
        }
    }
    Ok((ms, ops))
}

/// A round's door reads (`light_*`) and writes (`heavy_*`).
const LIGHT_CALLS: [&str; 4] = ["labor-fetch", "data-fetch", "payment-fetch", "balance"];
const HEAVY_CALLS: [&str; 6] = [
    "register-sp",
    "labor-registration",
    "withdrawal-request",
    "payment-submission",
    "data-report",
    "deposit",
];

/// Checks the acknowledged ledger, crashes the MA, recovers it and
/// checks the recovered ledger equals the acknowledged one. Returns
/// the recovery time.
fn audit_and_recover(s: &mut Setup, out: &mut Outcome) -> Result<Duration, String> {
    drop(s.market.door.take());
    let svc = s.market.svc();
    let face = svc.params.face_value();
    for c in &s.clients {
        for &(account, w) in &c.credits {
            out.attempted += 1;
            match svc.bank.balance(account) {
                Ok(b) if b == w => {}
                other => out.fail(format!("SP {account:?} credited {other:?}, paid {w}")),
            }
        }
        out.attempted += 1;
        let expect = JO_FUNDS - c.withdrawals * face;
        match svc.bank.balance(c.jo_account) {
            Ok(b) if b == expect => {}
            other => out.fail(format!(
                "JO {:?} holds {other:?} after {} withdrawals, expected {expect}",
                c.jo_account, c.withdrawals
            )),
        }
    }
    let acknowledged = svc.bank.snapshot();
    let (took, recovered) = s.market.crash_and_recover()?;
    out.attempted += 1;
    if recovered != acknowledged {
        out.fail(format!(
            "recovered ledger differs: {} accounts recovered, {} acknowledged",
            recovered.accounts.len(),
            acknowledged.accounts.len()
        ));
    }
    Ok(took)
}

/// Runs `dec_market`.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    ppms_obs::set_enabled(false);
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    let mut keygen_ms = 0.0;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t = Instant::now();
        let (s, kg) = setup(cfg.seed)?;
        setup_times.push(t.elapsed().as_secs_f64());
        keygen_ms = kg;
        kept = Some(s);
    }
    let mut s = kept.expect("set-up ran");
    let setup_s = stats::median(&setup_times);
    let setup_rss_mb = common::peak_rss_mb()?;
    let svc = s.market.svc();
    let step = |c: &mut Client, rec: &mut Recorder| step(c, rec, svc);
    let (warmup, run_for) = closed::windows(cfg.seconds);
    if !cfg.trace {
        let m = closed::drive(&mut s.clients, &step, false, warmup, run_for, &mut out);
        if out.errors.is_empty() {
            let samples = m.samples(&LIGHT_CALLS, &HEAVY_CALLS);
            out.notes.push(samples.tail_note());
            match samples.end_to_end(setup_s, setup_rss_mb) {
                Ok(metrics) => out.metrics = metrics,
                Err(e) => out.fail(e),
            }
        }
        let rec = audit_and_recover(&mut s, &mut out)?;
        out.notes.push(format!(
            "recovery after the run: {:.1} ms; {} rounds, {} door requests",
            rec.as_secs_f64() * 1e3,
            m.rounds.len(),
            m.calls.len()
        ));
        return Ok(out);
    }

    // Traced run: an untraced reference third, then the traced rest.
    let reference = run_for / 3;
    let traced = run_for - reference;
    let base = closed::drive(&mut s.clients, &step, false, warmup, reference, &mut out);
    ppms_obs::set_enabled(true);
    let before = s.market.svc().obs_snapshot();
    let m = closed::drive(
        &mut s.clients,
        &step,
        true,
        Duration::ZERO,
        traced,
        &mut out,
    );
    let after = s.market.svc().obs_snapshot();
    let delta = stats::registry_delta(&before, &after);
    let rec = audit_and_recover(&mut s, &mut out)?;
    ppms_obs::set_enabled(false);

    let mut inp = LayerInputs {
        delta,
        calls_us: m.calls_by_name(),
        ..LayerInputs::default()
    };
    let rounds = m.rounds.len().max(1) as f64;
    for (metric, span) in [
        ("client.mint_ms", "client.mint"),
        ("client.cl_sign_ms", "client.cl_sign"),
        ("client.build_payment_ms", "client.build_payment"),
        ("client.receive_payment_ms", "client.receive_payment"),
    ] {
        let total_ns: u64 = m
            .spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.dur_ns())
            .sum();
        inp.extra.insert(metric, total_ns as f64 / 1e6 / rounds);
    }
    let (budget, band_ms) = trace::median_round_budget(&m.spans, "round");
    let accounted: f64 = budget.values().sum();
    let unaccounted_pct = 100.0 * (1.0 - accounted / band_ms.max(1e-9));
    let p50 = stats::robust(&m.round_ms(), 0.5, "").map_or(0.0, |p| p.value);
    let base_p50 = stats::robust(&base.round_ms(), 0.5, "").map_or(0.0, |p| p.value);
    let vs_p50_pct = 100.0 * (accounted / p50.max(1e-9) - 1.0);
    inp.extra.insert("budget.round_ms", band_ms);
    inp.extra.insert("budget.accounted_ms", accounted);
    inp.extra.insert("budget.unaccounted_pct", unaccounted_pct);
    inp.extra.insert(
        "trace.overhead_pct",
        100.0 * (p50 / base_p50.max(1e-9) - 1.0),
    );
    inp.extra.insert("setup.keygen_ms", keygen_ms);
    inp.extra.insert("recovery.ms", rec.as_secs_f64() * 1e3);
    inp.extra.insert("rounds.traced", m.rounds.len() as f64);
    out.notes.push(format!(
        "layer budget of the median round ({band_ms:.3} ms, rounds p40-p60): {}",
        budget
            .iter()
            .map(|(k, v)| format!("{k} {v:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.notes.push(format!(
        "accounted {accounted:.3} ms of {band_ms:.3} ms ({unaccounted_pct:.2}% unaccounted, \
         {vs_p50_pct:+.2}% against round p50 {p50:.3} ms); untraced round p50 {base_p50:.3} ms"
    ));
    if unaccounted_pct.abs() > 10.0 || vs_p50_pct.abs() > 10.0 {
        out.fail(format!(
            "layer budget does not reconcile within 10%: {unaccounted_pct:.2}% of the median \
             rounds unaccounted, {vs_p50_pct:+.2}% against round p50"
        ));
    }
    inp.extra.insert("mem.run_peak_mb", common::peak_rss_mb()?);
    out.metrics = layers::metrics(&inp);
    out.metrics
        .extend(m.samples(&LIGHT_CALLS, &HEAVY_CALLS).tails());
    out.spans = m.spans;
    Ok(out)
}
