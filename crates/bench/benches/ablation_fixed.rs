//! Fixed-width vs dynamic arithmetic ablation: the same `ModRing`
//! operations timed on the monomorphized `FpMont` kernels (the default
//! for protocol-width moduli) and on the heap-`Vec` dynamic path they
//! replaced, at the 1024- and 2048-bit protocol widths, plus the
//! Straus↔Pippenger crossover re-measured on the fixed kernels (the
//! Vec-path table put it near n≈128 full-width / n≈150 small-exponent —
//! `pick_bucketed` in `ring.rs` is tuned from this bench's table).
//! Emits `BENCH_fixed.json` at the repo root on a full run (EXPERIMENTS.md A12).
//!
//! ```text
//! cargo bench -p ppms-bench --bench ablation_fixed           # full run
//! cargo bench -p ppms-bench --bench ablation_fixed -- --test # CI smoke
//! ```
//!
//! The smoke mode runs one repetition of each shape and checks
//! fixed ≡ dynamic result equality only; the full run also asserts the
//! headline claim — the fixed-width path beats the dynamic path on
//! `pow` and `multi_pow_n` at both protocol widths.

use ppms_bigint::{random_bits, random_odd_bits, BigUint, ModRing};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

struct OpRow {
    op: &'static str,
    bits: usize,
    dynamic_us: f64,
    fixed_us: f64,
    speedup: f64,
}

fn push_op(rows: &mut Vec<OpRow>, op: &'static str, bits: usize, dynamic_us: f64, fixed_us: f64) {
    let speedup = dynamic_us / fixed_us;
    println!(
        "{op:>12} {bits:>4}-bit  dynamic {dynamic_us:>9.1}us  fixed {fixed_us:>9.1}us  speedup {speedup:>5.2}x"
    );
    rows.push(OpRow {
        op,
        bits,
        dynamic_us,
        fixed_us,
        speedup,
    });
}

fn bench_ops(rows: &mut Vec<OpRow>, bits: usize, reps: usize, npairs: usize) {
    let mut rng = StdRng::seed_from_u64(0xF1D0 + bits as u64);
    let m = random_odd_bits(&mut rng, bits);
    let ring = ModRing::new(&m);
    assert!(
        ring.has_fixed_width(),
        "{bits}-bit modulus must land on a monomorphized width"
    );
    let base = random_bits(&mut rng, bits - 1);
    let exp = random_bits(&mut rng, bits);

    // pow: full-width exponent, the protocols' dominant operation.
    assert_eq!(ring.pow(&base, &exp), ring.pow_dynamic(&base, &exp));
    let dyn_us = time_us(reps, || {
        std::hint::black_box(ring.pow_dynamic(&base, &exp));
    });
    let fix_us = time_us(reps, || {
        std::hint::black_box(ring.pow(&base, &exp));
    });
    push_op(rows, "pow", bits, dyn_us, fix_us);

    // multi_pow (Shamir, 2 bases): the Pedersen / ZKP response shape.
    let b2 = random_bits(&mut rng, bits - 1);
    let e2 = random_bits(&mut rng, bits);
    let prod = ring.mul(&ring.pow_dynamic(&base, &exp), &ring.pow_dynamic(&b2, &e2));
    assert_eq!(ring.multi_pow(&[(&base, &exp), (&b2, &e2)]), prod);
    let dyn_us = time_us(reps, || {
        std::hint::black_box(ring.mul(&ring.pow_dynamic(&base, &exp), &ring.pow_dynamic(&b2, &e2)));
    });
    let fix_us = time_us(reps, || {
        std::hint::black_box(ring.multi_pow(&[(&base, &exp), (&b2, &e2)]));
    });
    push_op(rows, "multi_pow2", bits, dyn_us, fix_us);

    // multi_pow_n: the batch-verification shape (full-width exponents).
    let pairs: Vec<(BigUint, BigUint)> = (0..npairs)
        .map(|_| (random_bits(&mut rng, bits - 1), random_bits(&mut rng, bits)))
        .collect();
    let refs: Vec<(&BigUint, &BigUint)> = pairs.iter().map(|(b, e)| (b, e)).collect();
    assert_eq!(ring.multi_pow_n(&refs), ring.multi_pow_n_dynamic(&refs));
    let dyn_us = time_us(reps, || {
        std::hint::black_box(ring.multi_pow_n_dynamic(&refs));
    });
    let fix_us = time_us(reps, || {
        std::hint::black_box(ring.multi_pow_n(&refs));
    });
    push_op(rows, "multi_pow_n", bits, dyn_us, fix_us);
}

struct XRow {
    n: usize,
    exp_bits: usize,
    straus_us: f64,
    pippenger_us: f64,
}

fn bench_crossover(xrows: &mut Vec<XRow>, exp_bits: usize, sizes: &[usize], reps: usize) {
    // 1024-bit modulus on the fixed kernels; exponent width selects the
    // regime (full-width = combined-check left side, 64-bit = the
    // small-exponent multipliers of batch verification).
    let mut rng = StdRng::seed_from_u64(0xF1D0C + exp_bits as u64);
    let m = random_odd_bits(&mut rng, 1024);
    let ring = ModRing::new(&m);
    assert!(ring.has_fixed_width());
    println!("fixed-kernel crossover (1024-bit modulus, {exp_bits}-bit exponents):");
    for &n in sizes {
        let pairs: Vec<(BigUint, BigUint)> = (0..n)
            .map(|_| (random_bits(&mut rng, 1023), random_bits(&mut rng, exp_bits)))
            .collect();
        let refs: Vec<(&BigUint, &BigUint)> = pairs.iter().map(|(b, e)| (b, e)).collect();
        assert_eq!(
            ring.multi_pow_n_straus(&refs),
            ring.multi_pow_n_pippenger(&refs)
        );
        let straus_us = time_us(reps, || {
            std::hint::black_box(ring.multi_pow_n_straus(&refs));
        });
        let pippenger_us = time_us(reps, || {
            std::hint::black_box(ring.multi_pow_n_pippenger(&refs));
        });
        println!("  n={n:<4} straus {straus_us:>9.1}us  pippenger {pippenger_us:>9.1}us");
        xrows.push(XRow {
            n,
            exp_bits,
            straus_us,
            pippenger_us,
        });
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (reps, npairs) = if smoke { (1, 4) } else { (16, 16) };
    let xsizes: &[usize] = if smoke {
        &[4, 16]
    } else {
        &[16, 48, 96, 128, 192, 256]
    };
    let xreps = if smoke { 1 } else { 4 };

    let mut rows = Vec::new();
    bench_ops(&mut rows, 1024, reps, npairs);
    bench_ops(&mut rows, 2048, reps.max(4), npairs);
    let mut xrows = Vec::new();
    bench_crossover(&mut xrows, 1024, xsizes, xreps);
    bench_crossover(&mut xrows, 64, xsizes, xreps);

    // Hand-rolled JSON (the workspace's serde_json is a build stub).
    let op_cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"op\": \"{}\", \"bits\": {}, \"dynamic_us\": {:.2}, \
                 \"fixed_us\": {:.2}, \"speedup\": {:.3}}}",
                r.op, r.bits, r.dynamic_us, r.fixed_us, r.speedup
            )
        })
        .collect();
    let x_cells: Vec<String> = xrows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"exp_bits\": {}, \"straus_us\": {:.2}, \"pippenger_us\": {:.2}}}",
                r.n, r.exp_bits, r.straus_us, r.pippenger_us
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"smoke\": {},\n  \"ops\": [\n{}\n  ],\n  \"fixed_crossover\": [\n{}\n  ]\n}}\n",
        smoke,
        op_cells.join(",\n"),
        x_cells.join(",\n")
    );
    ppms_bench::write_bench_artifact("BENCH_fixed.json", &json);

    if !smoke {
        // Acceptance: the fixed-width path must beat the dynamic path
        // on pow and multi_pow_n at both protocol widths.
        for op in ["pow", "multi_pow_n"] {
            for bits in [1024usize, 2048] {
                let r = rows
                    .iter()
                    .find(|r| r.op == op && r.bits == bits)
                    .expect("ablation row");
                assert!(
                    r.speedup > 1.0,
                    "{op} at {bits}-bit: fixed path not faster ({:.2}x)",
                    r.speedup
                );
            }
        }
    }
}
