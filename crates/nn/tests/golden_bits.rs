//! Golden training bits: a few seeded epochs of every backward caller
//! must land on exactly the recorded parameter bits.
//!
//! The kernels promise a fixed per-element accumulation order, so any
//! kernel or backward-pass change that reorders a sum — or computes a
//! gradient a caller reads from a different kernel path — moves a digest
//! here. Dropout, ReLU zeros and −0.0 products all occur in these runs,
//! which the zero-free kernel property tests deliberately avoid.
//!
//! The digests were recorded with the backward pass still computing every
//! input gradient and the weight gradient on its earlier transposed-tile
//! kernel, so they also pin that skipping unread gradients and re-tiling
//! the kernels changed no bit. They hold at any `FEDGTA_THREADS` and in
//! debug and release builds alike. If a deliberate numeric change moves
//! one, the failure message prints every fresh digest.

use fedgta_graph::EdgeList;
use fedgta_nn::loss::softmax_ce;
use fedgta_nn::models::{build_model, ModelConfig, ModelKind};
use fedgta_nn::ops::spmm_csr;
use fedgta_nn::{Adam, GraphDataset, Matrix, Mlp, Optimizer, TrainHooks};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 150;
const FEATURES: usize = 40;
const CLASSES: usize = 3;

/// A seeded three-block SBM with class-shifted Gaussian-ish features.
fn toy_dataset() -> GraphDataset {
    let mut rng = StdRng::seed_from_u64(0x601d);
    let class = |i: usize| i * CLASSES / NODES;
    let mut el = EdgeList::new(NODES);
    for i in 0..NODES {
        for j in i + 1..NODES {
            let p = if class(i) == class(j) { 0.08 } else { 0.01 };
            if rng.random::<f64>() < p {
                el.push_undirected(i as u32, j as u32).unwrap();
            }
        }
    }
    let mut x = Matrix::zeros(NODES, FEATURES);
    for i in 0..NODES {
        for j in 0..FEATURES {
            let mu = if j % CLASSES == class(i) { 0.6 } else { -0.2 };
            x.set(i, j, mu + (rng.random::<f32>() - 0.5));
        }
    }
    let labels: Vec<u32> = (0..NODES).map(|i| class(i) as u32).collect();
    let train: Vec<u32> = (0..NODES as u32).filter(|i| i % 3 != 2).collect();
    let test: Vec<u32> = (0..NODES as u32).filter(|i| i % 3 == 2).collect();
    GraphDataset::new(&el.to_csr(), x, labels, CLASSES, train, Vec::new(), test)
}

/// FNV-1a over the little-endian bits of every parameter.
fn digest(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in params {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn train_backbone(data: &GraphDataset, cfg: ModelConfig, epochs: usize) -> u64 {
    let mut model = build_model(&cfg, data.num_features(), data.num_classes);
    let mut opt = Adam::new(0.02, 5e-4);
    for _ in 0..epochs {
        let loss = model.train_epoch(data, &mut opt, &mut TrainHooks::none());
        assert!(loss.is_finite(), "{:?}: loss {loss}", cfg.kind);
    }
    digest(&model.params())
}

/// FedSage+'s NeighGen recipe: an MSE-regressing [`Mlp`] over
/// `[X ‖ ĀX]`, trained by plain gradient descent through
/// [`Mlp::backward`] with the input gradient unread.
fn train_fedsage_generator(data: &GraphDataset, dims: &[usize], target: &Matrix) -> u64 {
    let input = data
        .features
        .hcat(&spmm_csr(&data.adj_mean, &data.features));
    let mut mlp = Mlp::new(dims, 0.0, 7);
    for _ in 0..4 {
        let (pred, cache) = mlp.forward(&input, true);
        let n = (pred.rows() * pred.cols()) as f32;
        let mut d = pred.clone();
        d.axpy(-1.0, target);
        d.scale(2.0 / n);
        let (grads, dx) = mlp.backward(&cache, &d, None, false);
        assert!(dx.is_none());
        let mut p = mlp.params().to_vec();
        for (pj, gj) in p.iter_mut().zip(&grads) {
            *pj -= 0.05 * gj;
        }
        mlp.set_params(&p);
    }
    digest(mlp.params())
}

/// A plain two-layer MLP whose caller reads the input gradient, digested
/// together with that gradient.
fn mlp_with_input_grad(data: &GraphDataset) -> u64 {
    let mut mlp = Mlp::new(&[FEATURES, 41, CLASSES], 0.3, 11);
    let mut opt = Adam::new(0.02, 0.0);
    let mut last_dx = Vec::new();
    for _ in 0..3 {
        let (logits, cache) = mlp.forward(&data.features, true);
        let (_, d) = softmax_ce(&logits, &data.labels, &data.train_nodes);
        let (grads, dx) = mlp.backward(&cache, &d, None, true);
        last_dx = dx.expect("input gradient requested").into_vec();
        opt.step(mlp.params_mut(), &grads);
    }
    digest(mlp.params()) ^ digest(&last_dx).rotate_left(1)
}

fn run_all() -> Vec<(&'static str, u64)> {
    let data = toy_dataset();
    let cfg = |kind, hidden, dropout| ModelConfig {
        kind,
        hidden,
        layers: 2,
        k: 2,
        dropout,
        batch_size: 64,
        seed: 3,
        ..ModelConfig::default()
    };
    let count_target = Matrix::from_vec(
        NODES,
        1,
        (0..NODES).map(|i| (i % 5) as f32 * 0.25).collect(),
    );
    vec![
        (
            "gcn",
            train_backbone(&data, cfg(ModelKind::Gcn, 32, 0.5), 4),
        ),
        (
            "sgc",
            train_backbone(&data, cfg(ModelKind::Sgc, 32, 0.0), 4),
        ),
        (
            "sign",
            train_backbone(&data, cfg(ModelKind::Sign, 24, 0.2), 3),
        ),
        (
            "gamlp",
            train_backbone(&data, cfg(ModelKind::Gamlp, 41, 0.2), 4),
        ),
        (
            "sage",
            train_backbone(&data, cfg(ModelKind::Sage, 24, 0.3), 4),
        ),
        (
            "fedsage-dgen",
            train_fedsage_generator(&data, &[2 * FEATURES, 32, 1], &count_target),
        ),
        (
            "fedsage-fgen",
            train_fedsage_generator(&data, &[2 * FEATURES, 64, FEATURES], &data.features),
        ),
        ("mlp-dx", mlp_with_input_grad(&data)),
    ]
}

const GOLDEN: &[(&str, u64)] = &[
    ("gcn", 0x10b9_96eb_7218_2b8e),
    ("sgc", 0x6e34_04e2_ddc3_c68b),
    ("sign", 0x9c02_b254_825e_2dd2),
    ("gamlp", 0x34f3_f74f_db18_c8ed),
    ("sage", 0xf153_9f7e_d0bd_ff2a),
    ("fedsage-dgen", 0xac24_6470_e671_3469),
    ("fedsage-fgen", 0xda15_23d4_f0a5_123f),
    ("mlp-dx", 0x8ec5_5327_03c1_ffb3),
];

#[test]
fn training_lands_on_the_recorded_parameter_bits() {
    let got = run_all();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "fresh digests:\n{table}");
    for ((name, d), (gname, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, gname);
        assert_eq!(
            d, want,
            "{name}: parameter bits moved; fresh digests:\n{table}"
        );
    }
}
