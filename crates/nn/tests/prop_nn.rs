//! Property-based tests for the NN stack's numerical invariants.

use fedgta_nn::loss::softmax_ce;
use fedgta_nn::ops::{matmul, matmul_nt, matmul_tn, softmax_rows};
use fedgta_nn::{Matrix, Mlp};
use proptest::prelude::*;

fn arb_matrix(max_r: usize, max_c: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_r, 1..=max_c).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-2.0f32..2.0, r * c).prop_map(move |v| Matrix::from_vec(r, c, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn softmax_rows_are_distributions(m in arb_matrix(8, 8)) {
        let s = softmax_rows(&m);
        for i in 0..s.rows() {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn matmul_identity_is_noop(m in arb_matrix(6, 6)) {
        let n = m.cols();
        let mut eye = Matrix::zeros(n, n);
        for i in 0..n {
            eye.set(i, i, 1.0);
        }
        let out = matmul(&m, &eye);
        for (a, b) in out.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_kernels_consistent(
        (m, ka, kb) in (1usize..6, 1usize..5, 1usize..4),
        seed in 0u64..1000,
    ) {
        // A: m×ka, B: m×kb share the outer dim; (Aᵀ B)ᵀ == Bᵀ A.
        let gen = |r: usize, c: usize, s: u64| {
            Matrix::from_vec(r, c, (0..r * c).map(|i| (((i as u64 * 2654435761 + s) % 97) as f32 / 48.5) - 1.0).collect())
        };
        let a = gen(m, ka, seed);
        let b = gen(m, kb, seed.wrapping_add(1));
        let atb = matmul_tn(&a, &b);  // ka×kb
        let bta = matmul_tn(&b, &a);  // kb×ka
        for i in 0..atb.rows() {
            for j in 0..atb.cols() {
                prop_assert!((atb.get(i, j) - bta.get(j, i)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn nt_kernel_matches_dot_products(
        (ma, mb, k) in (1usize..5, 1usize..6, 1usize..4),
        seed in 0u64..1000,
    ) {
        // A: ma×k, B: mb×k share the inner dim.
        let gen = |r: usize, c: usize, s: u64| {
            Matrix::from_vec(r, c, (0..r * c).map(|i| (((i as u64 * 1099087573 + s) % 89) as f32 / 44.5) - 1.0).collect())
        };
        let a = gen(ma, k, seed);
        let b = gen(mb, k, seed.wrapping_add(7));
        let c = matmul_nt(&a, &b);
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let dot: f32 = a.row(i).iter().zip(b.row(j)).map(|(&x, &y)| x * y).sum();
                prop_assert!((c.get(i, j) - dot).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn ce_loss_nonnegative_and_grad_rows_sum_to_zero(
        m in arb_matrix(6, 5),
        label_seed in 0u32..5,
    ) {
        let labels: Vec<u32> = (0..m.rows() as u32).map(|i| (i + label_seed) % m.cols() as u32).collect();
        let rows: Vec<u32> = (0..m.rows() as u32).collect();
        let (loss, grad) = softmax_ce(&m, &labels, &rows);
        prop_assert!(loss >= 0.0);
        // Each selected row's gradient sums to zero (softmax minus onehot).
        for i in 0..m.rows() {
            let s: f32 = grad.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }

    #[test]
    fn mlp_infer_is_deterministic_and_param_sensitive(seed in 0u64..100) {
        let mut mlp = Mlp::new(&[4, 6, 3], 0.0, seed);
        let x = Matrix::from_vec(3, 4, (0..12).map(|i| (i as f32 / 6.0) - 1.0).collect());
        let a = mlp.infer(&x);
        let b = mlp.infer(&x);
        prop_assert_eq!(a.as_slice(), b.as_slice());
        // Zeroing all params collapses output to the (zero) bias.
        mlp.set_params(&vec![0.0; mlp.num_params()]);
        let z = mlp.infer(&x);
        prop_assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mlp_backward_zero_upstream_gives_zero_grads(seed in 0u64..50) {
        let mut mlp = Mlp::new(&[3, 4, 2], 0.0, seed);
        let x = Matrix::from_vec(2, 3, vec![0.1; 6]);
        let (logits, cache) = mlp.forward(&x, false);
        let d = Matrix::zeros(logits.rows(), logits.cols());
        let (grads, dx) = mlp.backward(&cache, &d, None, true);
        let dx = dx.expect("input gradient requested");
        prop_assert!(grads.iter().all(|&g| g == 0.0));
        prop_assert!(dx.as_slice().iter().all(|&g| g == 0.0));
    }
}
