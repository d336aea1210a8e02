//! Kernel microbenchmark suite: GFLOP/s and allocation counts for the
//! register-blocked dense kernels and the column-blocked SpMM.
//!
//! Two entry points consume this module:
//!
//! - the `kernels` bench binary (`cargo run --release -p fedgta-bench --bin
//!   kernels`), which installs a counting allocator and writes
//!   `BENCH_KERNELS.json`;
//! - `fedgta-cli bench kernels [--test ...]`, the runner subcommand (no
//!   allocator instrumentation — allocation counts are reported as `null`).
//!
//! The shape grid follows the training hot path: row counts `n ∈ {2k, 8k,
//! 32k}` (nodes per client subgraph) × feature widths `f ∈ {64, 128, 500}`
//! (hidden width … Cora-scale input width), with a 64-wide output. A
//! square `512³` head-to-head against the retained scalar kernels
//! (`fedgta_nn::ops::naive`) anchors the before/after comparison.
//! A second set of **per-client cells** ([`CLIENT_CELLS`]) times the exact
//! operand shapes one federated client trains on in the benchmark
//! workloads: the tall-skinny weight gradients, the 3-class output
//! layer's `dZ·Wᵀ`, and the narrow bias matmuls. `--test` mode shrinks
//! every grid shape and runs one iteration per cell so CI can smoke the
//! whole pipeline in under a second.
//!
//! The binary's `--before <json>` annotates each cell with the GFLOP/s of
//! the matching cell in an earlier report (`before_gflops`), so one
//! committed file carries a kernel change's before and after.

use fedgta_graph::spmm::spmm_into;
use fedgta_graph::{Csr, EdgeList};
use fedgta_nn::ops::{
    self, matmul_bias_into, matmul_bias_relu_into, matmul_into, matmul_nt_into, matmul_tn_into,
};
use fedgta_nn::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Reads the process-wide allocation counter (monotone), when the host
/// binary installed one (see [`crate::alloc`]).
pub type AllocCounter = fn() -> u64;

/// One timed cell of the benchmark grid.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name (`matmul`, `matmul_tn`, `matmul_nt`, `matmul_bias_relu`,
    /// `spmm`).
    pub kernel: &'static str,
    /// `blocked` (this PR's kernels) or `naive` (retained seed scalars).
    pub variant: &'static str,
    /// Output rows / left rows.
    pub m: usize,
    /// Inner dimension (dense) or feature width (spmm).
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Throughput in GFLOP/s (`2·m·k·n` flops per dense call,
    /// `2·nnz·cols` per spmm call).
    pub gflops: f64,
    /// Wall time per call in nanoseconds.
    pub ns_per_call: f64,
    /// Heap allocations per `_into` call with pre-allocated buffers
    /// (`None` when the host binary has no counting allocator).
    pub allocs_per_call: Option<u64>,
    /// GFLOP/s of the same cell in an earlier report (see
    /// [`annotate_before`]).
    pub before_gflops: Option<f64>,
}

/// The full report: grid results plus the naive-vs-blocked anchor.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// `"quick"` (`--test`) or `"full"`.
    pub mode: &'static str,
    /// Worker threads the kernels ran with (`FEDGTA_THREADS`).
    pub threads: usize,
    /// Hardware threads the host reports (`available_parallelism`).
    pub cores: usize,
    /// All timed cells, including the square anchor shapes.
    pub results: Vec<KernelResult>,
    /// `blocked GFLOP/s ÷ naive GFLOP/s` for `matmul` at the anchor shape.
    pub matmul_speedup_vs_naive: f64,
    /// Side length of the square anchor (`512` full, `96` quick).
    pub anchor_dim: usize,
    /// Cost of the compiled-in observability hook at `ObsLevel::Off`, as
    /// `(instrumented − raw) / raw · 100` on the anchor matmul. The
    /// determinism/overhead contract requires this ≤ 2%; negative values
    /// are timing noise (the hook is one relaxed atomic load).
    pub obs_overhead_pct: f64,
    /// Same measurement with the flight recorder armed (level still
    /// `Off`). The recorder records at span granularity — rounds and
    /// client phases, never per kernel op — so arming it must leave the
    /// per-op hook on the same ≤ 2% budget.
    pub recorder_overhead_pct: f64,
}

/// Times instrumented `matmul_into` against its uninstrumented `_raw`
/// twin at the anchor shape, returning the overhead percentage for two
/// configurations: observability forced to `Off`, and `Off` with the
/// flight recorder armed (the always-on black box a production run
/// flies with). Uses its own repetition budget so the numbers are
/// meaningful even in quick mode.
fn measure_obs_overhead(d: usize, rng: &mut StdRng) -> (f64, f64) {
    let saved = fedgta_obs::level();
    let rec_was_armed = fedgta_obs::recorder::armed();
    fedgta_obs::set_level(fedgta_obs::ObsLevel::Off);
    fedgta_obs::recorder::disarm();
    let a = filled(d, d, rng);
    let b = filled(d, d, rng);
    let mut out = vec![0f32; d * d];
    let (min_ns, max_calls) = (30_000_000u64, 400usize);
    let (ns_hooked, _) = time_fn(
        || matmul_into(a.view(), b.view(), &mut out),
        min_ns,
        max_calls,
    );
    fedgta_obs::recorder::arm_default();
    let (ns_recorder, _) = time_fn(
        || matmul_into(a.view(), b.view(), &mut out),
        min_ns,
        max_calls,
    );
    fedgta_obs::recorder::disarm();
    let (ns_raw, _) = time_fn(
        || ops::matmul_into_raw(a.view(), b.view(), &mut out),
        min_ns,
        max_calls,
    );
    if rec_was_armed {
        fedgta_obs::recorder::arm_default();
    }
    fedgta_obs::set_level(saved);
    (
        100.0 * (ns_hooked - ns_raw) / ns_raw,
        100.0 * (ns_recorder - ns_raw) / ns_raw,
    )
}

fn filled(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.random::<f32>() - 0.5).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Ring-lattice graph: node `i` links to `i±1..=i±5` (≈10 neighbors),
/// deterministic and degree-uniform — a stand-in for a client subgraph.
fn lattice(n: usize) -> Csr {
    let mut el = EdgeList::new(n);
    for i in 0..n as u32 {
        for d in 1..=5u32 {
            let j = (i + d) % n as u32;
            if i < j {
                el.push_undirected(i, j).expect("in range");
            }
        }
    }
    el.to_csr()
}

/// Times `f` (called repeatedly) and returns (ns/call, calls made).
/// Runs one warmup call, then batches until `min_ns` elapsed or `max_calls`.
/// Shared with the [`crate::aggregate`] suite.
pub(crate) fn time_fn(mut f: impl FnMut(), min_ns: u64, max_calls: usize) -> (f64, usize) {
    f(); // warmup (pulls operands into cache, faults pages)
    let start = Instant::now();
    let mut calls = 0usize;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed().as_nanos() as u64;
        if elapsed >= min_ns || calls >= max_calls {
            return (elapsed as f64 / calls as f64, calls);
        }
    }
}

/// Allocations across one call of `f` (0 expected for `_into` kernels).
pub(crate) fn count_allocs(counter: Option<AllocCounter>, mut f: impl FnMut()) -> Option<u64> {
    counter.map(|c| {
        let before = c();
        f();
        c() - before
    })
}

struct Grid {
    rows: Vec<usize>,
    feats: Vec<usize>,
    out_cols: usize,
    anchor: usize,
    min_ns: u64,
    max_calls: usize,
}

impl Grid {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                rows: vec![256],
                feats: vec![32],
                out_cols: 16,
                anchor: 96,
                min_ns: 0,
                max_calls: 1,
            }
        } else {
            Self {
                rows: vec![2_000, 8_000, 32_000],
                feats: vec![64, 128, 500],
                out_cols: 64,
                anchor: 512,
                min_ns: 150_000_000,
                max_calls: 20,
            }
        }
    }
}

/// Per-client kernel cells `(kernel, m, k, n)`: the shapes one client
/// of the benchmark workloads multiplies (`m` = client rows).
///
/// - `matmul_tn 2000×128×32`: GCN/pubmed layer-0 weight gradient `P₀ᵀ·dZ₀`.
/// - `matmul_tn 130×128×41`: SGC/reddit head weight gradient.
/// - `matmul_nt 2000×3×32`: GCN/pubmed `dZ₁·W₁ᵀ` (3 classes, `k < 8`).
/// - `matmul_bias 2000×32×3`: GCN/pubmed output layer.
/// - `matmul_bias 187×128×8`: GAMLP/amazon-photo output layer.
pub const CLIENT_CELLS: &[(&str, usize, usize, usize)] = &[
    ("matmul_tn", 2000, 128, 32),
    ("matmul_tn", 130, 128, 41),
    ("matmul_nt", 2000, 3, 32),
    ("matmul_bias", 2000, 32, 3),
    ("matmul_bias", 187, 128, 8),
];

/// Times one [`CLIENT_CELLS`] entry. `nt` cells read `k` as the inner
/// dimension of `dY·Wᵀ` (`dY: m×k`, `W: n×k`).
fn client_cell(
    kernel: &'static str,
    (m, k, n): (usize, usize, usize),
    grid: &Grid,
    counter: Option<AllocCounter>,
    rng: &mut StdRng,
) -> KernelResult {
    let a = filled(m, k, rng);
    let (b_rows, b_cols, out_len) = match kernel {
        "matmul_tn" => (m, n, k * n),
        "matmul_nt" => (n, k, m * n),
        _ => (k, n, m * n),
    };
    let b = filled(b_rows, b_cols, rng);
    let bias = vec![0.01f32; n];
    let mut out = vec![0f32; out_len];
    let mut call = || match kernel {
        "matmul_tn" => matmul_tn_into(a.view(), b.view(), &mut out),
        "matmul_nt" => matmul_nt_into(a.view(), b.view(), &mut out),
        _ => matmul_bias_into(a.view(), b.view(), &bias, &mut out),
    };
    let (ns, _) = time_fn(&mut call, grid.min_ns, grid.max_calls.max(200));
    let allocs_per_call = count_allocs(counter, &mut call);
    KernelResult {
        kernel,
        variant: "client",
        m,
        k,
        n,
        gflops: 2.0 * (m * k * n) as f64 / ns,
        ns_per_call: ns,
        allocs_per_call,
        before_gflops: None,
    }
}

/// Runs the suite. `quick` is the CI `--test` mode; `counter` enables
/// allocation counting when the host binary installed [`crate::alloc`].
pub fn run(quick: bool, counter: Option<AllocCounter>) -> KernelReport {
    let grid = Grid::new(quick);
    let mut rng = StdRng::seed_from_u64(0x5eed_be4c);
    let mut results = Vec::new();

    // --- Dense grid: training-shaped operands -------------------------
    for &n_rows in &grid.rows {
        for &f_in in &grid.feats {
            let h = grid.out_cols;
            let x = filled(n_rows, f_in, &mut rng); // features / propagated
            let w = filled(f_in, h, &mut rng); // weights
            let dy = filled(n_rows, h, &mut rng); // output gradient
            let bias = vec![0.01f32; h];
            let mut out_fwd = vec![0f32; n_rows * h];
            let mut out_dw = vec![0f32; f_in * h];
            let mut out_dx = vec![0f32; n_rows * f_in];
            let flops_fwd = 2.0 * n_rows as f64 * f_in as f64 * h as f64;

            // matmul: Z = X · W
            let (ns, _) = time_fn(
                || matmul_into(x.view(), w.view(), &mut out_fwd),
                grid.min_ns,
                grid.max_calls,
            );
            let allocs =
                count_allocs(counter, || matmul_into(x.view(), w.view(), &mut out_fwd));
            results.push(KernelResult {
                kernel: "matmul",
                variant: "blocked",
                m: n_rows,
                k: f_in,
                n: h,
                gflops: flops_fwd / ns,
                ns_per_call: ns,
                allocs_per_call: allocs,
                before_gflops: None,
            });

            // fused epilogue: Z = relu(X · W + b)
            let (ns, _) = time_fn(
                || matmul_bias_relu_into(x.view(), w.view(), &bias, &mut out_fwd),
                grid.min_ns,
                grid.max_calls,
            );
            let allocs = count_allocs(counter, || {
                matmul_bias_relu_into(x.view(), w.view(), &bias, &mut out_fwd)
            });
            results.push(KernelResult {
                kernel: "matmul_bias_relu",
                variant: "blocked",
                m: n_rows,
                k: f_in,
                n: h,
                gflops: flops_fwd / ns,
                ns_per_call: ns,
                allocs_per_call: allocs,
                before_gflops: None,
            });

            // matmul_tn: dW = Xᵀ · dY
            let (ns, _) = time_fn(
                || matmul_tn_into(x.view(), dy.view(), &mut out_dw),
                grid.min_ns,
                grid.max_calls,
            );
            let allocs =
                count_allocs(counter, || matmul_tn_into(x.view(), dy.view(), &mut out_dw));
            results.push(KernelResult {
                kernel: "matmul_tn",
                variant: "blocked",
                m: n_rows,
                k: f_in,
                n: h,
                gflops: flops_fwd / ns,
                ns_per_call: ns,
                allocs_per_call: allocs,
                before_gflops: None,
            });

            // matmul_nt: dX = dY · Wᵀ
            let (ns, _) = time_fn(
                || matmul_nt_into(dy.view(), w.view(), &mut out_dx),
                grid.min_ns,
                grid.max_calls,
            );
            let allocs =
                count_allocs(counter, || matmul_nt_into(dy.view(), w.view(), &mut out_dx));
            results.push(KernelResult {
                kernel: "matmul_nt",
                variant: "blocked",
                m: n_rows,
                k: f_in,
                n: h,
                gflops: flops_fwd / ns,
                ns_per_call: ns,
                allocs_per_call: allocs,
                before_gflops: None,
            });

            // spmm: Y = A · X over the ring lattice (≈10 nnz/row)
            let a = lattice(n_rows);
            let nnz = a.num_edges();
            let mut y = vec![0f32; n_rows * f_in];
            let spmm_flops = 2.0 * nnz as f64 * f_in as f64;
            let (ns, _) = time_fn(
                || spmm_into(&a, x.as_slice(), f_in, &mut y),
                grid.min_ns,
                grid.max_calls,
            );
            let allocs = count_allocs(counter, || spmm_into(&a, x.as_slice(), f_in, &mut y));
            results.push(KernelResult {
                kernel: "spmm",
                variant: "blocked",
                m: n_rows,
                k: f_in,
                n: f_in,
                gflops: spmm_flops / ns,
                ns_per_call: ns,
                allocs_per_call: allocs,
                before_gflops: None,
            });
        }
    }

    // --- Per-client shapes ------------------------------------------
    for &(kernel, m, k, n) in CLIENT_CELLS {
        results.push(client_cell(kernel, (m, k, n), &grid, counter, &mut rng));
    }

    // --- Square anchor: blocked vs retained naive scalars -------------
    let d = grid.anchor;
    let a = filled(d, d, &mut rng);
    let b = filled(d, d, &mut rng);
    let mut out = vec![0f32; d * d];
    let flops = 2.0 * (d as f64).powi(3);
    let (ns_blocked, _) = time_fn(
        || matmul_into(a.view(), b.view(), &mut out),
        grid.min_ns,
        grid.max_calls,
    );
    let blocked_gflops = flops / ns_blocked;
    results.push(KernelResult {
        kernel: "matmul",
        variant: "blocked",
        m: d,
        k: d,
        n: d,
        gflops: blocked_gflops,
        ns_per_call: ns_blocked,
        allocs_per_call: count_allocs(counter, || {
            matmul_into(a.view(), b.view(), &mut out)
        }),
        before_gflops: None,
    });
    let (ns_naive, _) = time_fn(
        || {
            std::hint::black_box(ops::naive::matmul(&a, &b));
        },
        grid.min_ns,
        grid.max_calls,
    );
    let naive_gflops = flops / ns_naive;
    results.push(KernelResult {
        kernel: "matmul",
        variant: "naive",
        m: d,
        k: d,
        n: d,
        gflops: naive_gflops,
        ns_per_call: ns_naive,
        allocs_per_call: None,
        before_gflops: None,
    });

    let (obs_overhead_pct, recorder_overhead_pct) = measure_obs_overhead(d, &mut rng);

    KernelReport {
        mode: if quick { "quick" } else { "full" },
        threads: fedgta_graph::par::num_threads(),
        cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
        results,
        matmul_speedup_vs_naive: blocked_gflops / naive_gflops,
        anchor_dim: d,
        obs_overhead_pct,
        recorder_overhead_pct,
    }
}

/// Hand-rolled JSON (the vendored serde shim is a no-op, so the report
/// serializes itself). Strings go through [`crate::format::json_str`] and
/// floats through [`crate::format::json_fixed`] so hostile names and
/// NaN/Inf cells cannot break the artifact.
pub fn to_json(r: &KernelReport) -> String {
    use crate::format::{json_fixed, json_str};
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str(&format!("  \"mode\": {},\n", json_str(r.mode)));
    s.push_str(&format!("  \"threads\": {},\n", r.threads));
    s.push_str(&format!("  \"cores\": {},\n", r.cores));
    s.push_str(&format!("  \"anchor_dim\": {},\n", r.anchor_dim));
    s.push_str(&format!(
        "  \"matmul_speedup_vs_naive\": {},\n",
        json_fixed(r.matmul_speedup_vs_naive, 3)
    ));
    s.push_str(&format!(
        "  \"obs_overhead_pct\": {},\n",
        json_fixed(r.obs_overhead_pct, 3)
    ));
    s.push_str(&format!(
        "  \"recorder_overhead_pct\": {},\n",
        json_fixed(r.recorder_overhead_pct, 3)
    ));
    s.push_str("  \"results\": [\n");
    for (i, k) in r.results.iter().enumerate() {
        let allocs = match k.allocs_per_call {
            Some(a) => a.to_string(),
            None => "null".to_string(),
        };
        let before = match k.before_gflops {
            Some(g) => format!(", \"before_gflops\": {}", json_fixed(g, 4)),
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"kernel\": {}, \"variant\": {}, \"m\": {}, \"k\": {}, \"n\": {}, \
             \"gflops\": {}, \"ns_per_call\": {}, \"allocs_per_call\": {}{}}}{}\n",
            json_str(k.kernel),
            json_str(k.variant),
            k.m,
            k.k,
            k.n,
            json_fixed(k.gflops, 4),
            json_fixed(k.ns_per_call, 0),
            allocs,
            before,
            if i + 1 < r.results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Plain-text table for terminal output.
pub fn render_table(r: &KernelReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "kernel bench ({} mode, {} thread{}, {} core{})\n",
        r.mode,
        r.threads,
        if r.threads == 1 { "" } else { "s" },
        r.cores,
        if r.cores == 1 { "" } else { "s" }
    ));
    s.push_str(&format!(
        "{:<18} {:>8} {:>7} {:>6} {:>6} {:>10} {:>8} {:>10}\n",
        "kernel", "variant", "m", "k", "n", "GFLOP/s", "allocs", "before"
    ));
    for k in &r.results {
        let allocs = match k.allocs_per_call {
            Some(a) => a.to_string(),
            None => "-".to_string(),
        };
        let before = match k.before_gflops {
            Some(g) => format!("{g:.3}"),
            None => "-".to_string(),
        };
        s.push_str(&format!(
            "{:<18} {:>8} {:>7} {:>6} {:>6} {:>10.3} {:>8} {:>10}\n",
            k.kernel, k.variant, k.m, k.k, k.n, k.gflops, allocs, before
        ));
    }
    s.push_str(&format!(
        "matmul blocked vs naive at {0}x{0}x{0}: {1:.2}x\n",
        r.anchor_dim, r.matmul_speedup_vs_naive
    ));
    s.push_str(&format!(
        "observability hook overhead at ObsLevel::Off: {:+.2}% (budget 2%)\n",
        r.obs_overhead_pct
    ));
    s.push_str(&format!(
        "observability hook overhead with flight recorder armed: {:+.2}% (budget 2%)\n",
        r.recorder_overhead_pct
    ));
    s
}

/// One result row of a [`to_json`] report.
struct ReportCell {
    kernel: String,
    variant: String,
    shape: (Option<u64>, Option<u64>, Option<u64>),
    gflops: Option<f64>,
}

impl ReportCell {
    fn is(&self, kernel: &str, variant: &str, (m, k, n): (usize, usize, usize)) -> bool {
        self.kernel == kernel
            && self.variant == variant
            && self.shape == (Some(m as u64), Some(k as u64), Some(n as u64))
    }
}

/// The result rows of a [`to_json`] report (one flat object per line).
fn parse_cells(json: &str) -> Result<Vec<ReportCell>, String> {
    let mut cells = Vec::new();
    for line in json.lines() {
        let t = line.trim().trim_end_matches(',');
        if !t.starts_with("{\"kernel\"") {
            continue;
        }
        let obj = fedgta_obs::parse_flat_object(t)?;
        let text = |k: &str| obj.get(k).and_then(|v| v.as_str()).unwrap_or_default().to_string();
        let num = |k: &str| obj.get(k).and_then(|v| v.as_u64());
        cells.push(ReportCell {
            kernel: text("kernel"),
            variant: text("variant"),
            shape: (num("m"), num("k"), num("n")),
            gflops: match obj.get("gflops") {
                Some(fedgta_obs::trace::JsonVal::Num(g)) => Some(*g),
                _ => None,
            },
        });
    }
    Ok(cells)
}

/// Sets each cell's `before_gflops` from the cell with the same kernel,
/// variant and shape in `before_json` (an earlier [`to_json`] report);
/// returns how many cells matched.
pub fn annotate_before(report: &mut KernelReport, before_json: &str) -> Result<usize, String> {
    let before = parse_cells(before_json)?;
    let mut matched = 0;
    for c in report.results.iter_mut() {
        if let Some(b) = before.iter().find(|b| b.is(c.kernel, c.variant, (c.m, c.k, c.n))) {
            c.before_gflops = b.gflops;
            matched += 1;
        }
    }
    Ok(matched)
}

/// Compares a fresh report against a `BENCH_KERNELS.json` baseline:
/// returns an error naming the anchor regression when the blocked anchor
/// matmul lost more than `tolerance_pct` GFLOP/s, `Ok(None)` when the
/// baseline has no comparable anchor cell.
pub fn check_against_baseline(
    report: &KernelReport,
    baseline_json: &str,
    tolerance_pct: f64,
) -> Result<Option<f64>, String> {
    let d = report.anchor_dim;
    let anchor = parse_cells(baseline_json)?
        .into_iter()
        .find(|c| c.is("matmul", "blocked", (d, d, d)))
        .and_then(|c| c.gflops);
    let Some(base) = anchor else {
        return Ok(None);
    };
    let now = report
        .results
        .iter()
        .find(|c| c.kernel == "matmul" && c.variant == "blocked" && (c.m, c.k, c.n) == (d, d, d))
        .map(|c| c.gflops)
        .ok_or("report has no anchor matmul cell")?;
    let regression_pct = 100.0 * (base - now) / base;
    if regression_pct > tolerance_pct {
        return Err(format!(
            "anchor matmul regressed {regression_pct:.2}% vs baseline \
             ({base:.2} → {now:.2} GFLOP/s, budget {tolerance_pct}%)"
        ));
    }
    Ok(Some(regression_pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_produces_full_grid_and_valid_json() {
        let r = run(true, None);
        // 1 row x 1 feat x 5 kernels + the per-client cells + 2 anchor rows.
        assert_eq!(r.results.len(), 7 + CLIENT_CELLS.len());
        assert_eq!(
            r.results.iter().filter(|k| k.variant == "client").count(),
            CLIENT_CELLS.len()
        );
        assert!(r.results.iter().all(|k| k.gflops > 0.0));
        let json = to_json(&r);
        assert!(json.contains("\"matmul_speedup_vs_naive\""));
        assert!(json.contains("\"variant\": \"naive\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn before_report_annotates_matching_cells_only() {
        let mut r = run(true, None);
        let before = to_json(&r).replace("\"variant\": \"naive\"", "\"variant\": \"gone\"");
        let matched = annotate_before(&mut r, &before).unwrap();
        assert_eq!(matched, r.results.len() - 1, "every cell but the renamed one");
        for c in &r.results {
            assert_eq!(c.before_gflops.is_some(), c.variant != "naive", "{}", c.kernel);
        }
        assert!(to_json(&r).contains("\"before_gflops\": "));
    }

    #[test]
    fn alloc_counter_reports_zero_for_into_kernels() {
        // With a fake counter that never moves, every cell reports 0.
        fn frozen() -> u64 {
            0
        }
        let r = run(true, Some(frozen));
        for k in r.results.iter().filter(|k| k.variant != "naive") {
            assert_eq!(k.allocs_per_call, Some(0), "{} allocated", k.kernel);
        }
    }
}
