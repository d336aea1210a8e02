//! Property tests for the register-blocked kernels: agreement with the
//! retained naive scalar kernels over random shapes, and the determinism
//! contract (bit-identical output for any worker-thread count).

use fedgta_graph::par::refresh_thread_env;
use fedgta_graph::EdgeList;
use fedgta_nn::ops::{
    self, matmul, matmul_bias_into, matmul_bias_relu_into, matmul_into, matmul_nt, matmul_nt_into,
    matmul_tn, matmul_tn_into, spmm_csr_into,
};
use fedgta_nn::Matrix;
use proptest::prelude::*;

fn gen(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::from_vec(
        r,
        c,
        (0..r * c)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 7919) % 97) as f32
                    / 48.5)
                    - 1.0
            })
            .collect(),
    )
}

fn assert_close(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            (x - y).abs() < 1e-4,
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Explicit awkward shapes from the kernel spec: 1×1, 3×5, 7×9 — none a
/// multiple of the register tile — plus a handful that straddle the 8-row
/// and 16-column block boundaries.
#[test]
fn blocked_matches_naive_at_spec_shapes() {
    for &(m, k, n) in &[
        (1, 1, 1),
        (3, 5, 7),
        (7, 9, 5),
        (8, 16, 16),
        (9, 17, 15),
        (16, 8, 33),
        (31, 2, 1),
    ] {
        let a = gen(m, k, 1);
        let b = gen(k, n, 2);
        assert_close(&matmul(&a, &b), &ops::naive::matmul(&a, &b), "matmul");
        let a2 = gen(m, k, 3);
        let b2 = gen(m, n, 4);
        assert_close(
            &matmul_tn(&a2, &b2),
            &ops::naive::matmul_tn(&a2, &b2),
            "matmul_tn",
        );
        let a3 = gen(m, k, 5);
        let b3 = gen(n, k, 6);
        assert_close(
            &matmul_nt(&a3, &b3),
            &ops::naive::matmul_nt(&a3, &b3),
            "matmul_nt",
        );
    }
}

/// Per-client row counts: single rows, band and panel edges, the
/// GAMLP/SGC client sizes and a pubmed-sized client.
const BITWISE_M: &[usize] = &[1, 5, 8, 13, 37, 130, 257, 2200];
/// Feature, hidden and class widths of the benchmark workloads, plus the
/// lane and tile edges between them.
const BITWISE_DIMS: &[usize] = &[3, 8, 32, 41, 128];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Reference `C = bias + A·B`: each element seeded with its bias and
/// accumulated in strict increasing-`k` order.
fn bias_reference(a: &Matrix, b: &Matrix, bias: &[f32]) -> Vec<f32> {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = vec![0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = bias[j];
            for kk in 0..k {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Reference `C = A·Bᵀ` with the lane split spelled out: lane `l` sums
/// the products at `kk ≡ l (mod 8)` over the full 8-blocks, the `k % 8`
/// tail runs one chain from 0, and the result is
/// `((l₀+l₁)+(l₂+l₃)) + ((l₄+l₅)+(l₆+l₇))`, plus the tail.
fn nt_reference(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (m, k) = a.shape();
    let n = b.rows();
    let full = k / 8 * 8;
    let mut c = vec![0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut lanes = [0f32; 8];
            for kk in 0..full {
                lanes[kk % 8] += a.get(i, kk) * b.get(j, kk);
            }
            let mut tail = 0f32;
            for kk in full..k {
                tail += a.get(i, kk) * b.get(j, kk);
            }
            let front = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            let back = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
            c[i * n + j] = (front + back) + tail;
        }
    }
    c
}

/// Every dense `_into` kernel equals its accumulation-order reference
/// bit for bit at per-client shapes. `gen` never yields 0.0, so the
/// references' zero-skip branches (`ops::naive`) never fire and no
/// product is a signed zero: any reordered sum shows as a changed bit.
#[test]
fn dense_kernels_match_reference_order_bitwise_at_client_shapes() {
    for &m in BITWISE_M {
        for &k in BITWISE_DIMS {
            for &n in BITWISE_DIMS {
                let seed = (m * 131 + k * 17 + n) as u64;
                let a = gen(m, k, seed);
                let w = gen(k, n, seed + 1);
                let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 1.5) * 0.0625).collect();
                let shape = format!("m={m} k={k} n={n}");

                let mut out = vec![f32::NAN; m * n];
                matmul_into(a.view(), w.view(), &mut out);
                assert_eq!(
                    bits(&out),
                    bits(ops::naive::matmul(&a, &w).as_slice()),
                    "matmul {shape}"
                );

                let with_bias = bias_reference(&a, &w, &bias);
                matmul_bias_into(a.view(), w.view(), &bias, &mut out);
                assert_eq!(bits(&out), bits(&with_bias), "matmul_bias {shape}");

                let relu: Vec<f32> = with_bias
                    .iter()
                    .map(|&v| if v < 0.0 { 0.0 } else { v })
                    .collect();
                matmul_bias_relu_into(a.view(), w.view(), &bias, &mut out);
                assert_eq!(bits(&out), bits(&relu), "matmul_bias_relu {shape}");

                let dy = gen(m, n, seed + 2);
                let mut out_tn = vec![f32::NAN; k * n];
                matmul_tn_into(a.view(), dy.view(), &mut out_tn);
                assert_eq!(
                    bits(&out_tn),
                    bits(ops::naive::matmul_tn(&a, &dy).as_slice()),
                    "matmul_tn {shape}"
                );

                let bt = gen(n, k, seed + 3);
                matmul_nt_into(a.view(), bt.view(), &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&nt_reference(&a, &bt)),
                    "matmul_nt {shape}"
                );
            }
        }
    }
}

/// The narrow `matmul_nt` path (k < 8) drops `dot_lanes`' `+0 +` lane
/// sum; a product chain of signed zeros must still come out as +0.0.
#[test]
fn narrow_nt_keeps_positive_zero_for_signed_zero_products() {
    let a = Matrix::from_vec(1, 3, vec![-1.0, 1.0, -1.0]);
    let b = Matrix::from_vec(2, 3, vec![0.0, -0.0, 0.0, 1.0, 1.0, 1.0]);
    let c = matmul_nt(&a, &b);
    assert_eq!(c.get(0, 0).to_bits(), 0f32.to_bits());
    assert_eq!(c.get(0, 1), -1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random shapes across several tile boundaries: every blocked kernel
    /// agrees with its naive scalar reference.
    #[test]
    fn blocked_matches_naive_at_random_shapes(
        (m, k, n) in (1usize..40, 1usize..40, 1usize..40),
        seed in 0u64..1000,
    ) {
        let a = gen(m, k, seed);
        let b = gen(k, n, seed + 1);
        assert_close(&matmul(&a, &b), &ops::naive::matmul(&a, &b), "matmul");
        let b_tn = gen(m, n, seed + 2);
        assert_close(&matmul_tn(&a, &b_tn), &ops::naive::matmul_tn(&a, &b_tn), "matmul_tn");
        let b_nt = gen(n, k, seed + 3);
        assert_close(&matmul_nt(&a, &b_nt), &ops::naive::matmul_nt(&a, &b_nt), "matmul_nt");
    }

    /// SpMM against the naive per-row gather, on a ring lattice with
    /// a non-tile-aligned feature width.
    #[test]
    fn spmm_matches_naive(
        nodes in 2usize..60,
        cols in 1usize..20,
        seed in 0u64..100,
    ) {
        let mut el = EdgeList::new(nodes);
        for i in 0..nodes as u32 {
            let j = (i + 1) % nodes as u32;
            if i < j {
                el.push_undirected(i, j).unwrap();
            }
        }
        let a = el.to_csr();
        let x = gen(nodes, cols, seed);
        let mut y = Matrix::zeros(nodes, cols);
        spmm_csr_into(&a, &x, &mut y);
        let want = ops::naive::spmm(&a, x.as_slice(), cols);
        for (g, w) in y.as_slice().iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-4);
        }
    }
}

/// The determinism contract, end to end: every `_into` kernel produces
/// bit-identical output under `FEDGTA_THREADS=1` and `FEDGTA_THREADS=4`.
///
/// A single `#[test]` (not one per kernel) because `FEDGTA_THREADS` is
/// process-global: the test harness runs tests concurrently and parallel
/// env mutation would race.
#[test]
fn into_kernels_bit_identical_across_thread_counts() {
    // Row count well above `2 * threads` so the 4-thread run actually
    // splits; odd sizes so chunk boundaries are ragged.
    let (m, k, n) = (67usize, 19usize, 23usize);
    let a = gen(m, k, 11);
    let w = gen(k, n, 12);
    let dy = gen(m, n, 13);
    let bn = gen(n, k, 14);
    let bias: Vec<f32> = (0..n).map(|i| (i as f32 - 10.0) * 0.05).collect();
    let mut el = EdgeList::new(m);
    for i in 0..m as u32 {
        let j = (i + 1) % m as u32;
        if i < j {
            el.push_undirected(i, j).unwrap();
        }
    }
    let csr = el.to_csr();

    let run_all = |threads: &str| -> Vec<Vec<u32>> {
        std::env::set_var("FEDGTA_THREADS", threads);
        refresh_thread_env();
        let mut outs = Vec::new();
        let mut o = vec![0f32; m * n];
        matmul_into(a.view(), w.view(), &mut o);
        outs.push(o.iter().map(|v| v.to_bits()).collect());
        let mut o = vec![0f32; m * n];
        matmul_bias_relu_into(a.view(), w.view(), &bias, &mut o);
        outs.push(o.iter().map(|v| v.to_bits()).collect());
        let mut o = vec![0f32; m * n];
        matmul_bias_into(a.view(), w.view(), &bias, &mut o);
        outs.push(o.iter().map(|v| v.to_bits()).collect());
        let mut o = vec![0f32; k * n];
        matmul_tn_into(a.view(), dy.view(), &mut o);
        outs.push(o.iter().map(|v| v.to_bits()).collect());
        let mut o = vec![0f32; m * n];
        matmul_nt_into(a.view(), bn.view(), &mut o);
        outs.push(o.iter().map(|v| v.to_bits()).collect());
        let mut y = Matrix::zeros(m, k);
        spmm_csr_into(&csr, &a, &mut y);
        outs.push(y.as_slice().iter().map(|v| v.to_bits()).collect());
        outs
    };

    let one = run_all("1");
    let four = run_all("4");
    std::env::remove_var("FEDGTA_THREADS");
    refresh_thread_env();

    let names = [
        "matmul_into",
        "matmul_bias_relu_into",
        "matmul_bias_into",
        "matmul_tn_into",
        "matmul_nt_into",
        "spmm_csr_into",
    ];
    for ((name, a1), a4) in names.iter().zip(&one).zip(&four) {
        assert_eq!(a1, a4, "{name} differs between 1 and 4 threads");
    }
}
