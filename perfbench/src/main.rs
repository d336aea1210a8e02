//! `perfbench`: the end-to-end and per-layer benchmark of federated FedGTA
//! rounds. See README.md for the workloads, every metric's unit and
//! direction, and how to run it.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload's report ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`; a failed output check
//! prints `"correct": false` and makes the exit code 1.

mod alloc;
mod layers;
mod stats;
mod traced;
mod workload;

use fedgta_fed::round::RoundRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Setup, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups timed before the simulations, on top of the one each
/// simulation makes; `setup_s` is the median of all of them.
const EXTRA_SETUPS: usize = 3;
/// Rounds pooled per run at least, so a p90 has ten rounds beyond it.
const MIN_ROUNDS: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 0,
        seconds: 40.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{val}' for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| bad("integer"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad("number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("duration in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0|1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        match workload::find(&args.workload) {
            Some(w) => vec![w],
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "perfbench: unknown workload '{}' (all|{})",
                    args.workload,
                    names.join("|")
                );
                return ExitCode::from(2);
            }
        }
    };
    let mut all_correct = true;
    for w in selected {
        let result = run_workload(w, &args);
        all_correct &= result.correct;
        result.print();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Output checks: every failure is a line of the report.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The fields of a record that must repeat bit for bit: everything but
/// the wall-clock ones.
fn same_outputs(a: &RoundRecord, b: &RoundRecord) -> bool {
    a.round == b.round
        && a.mean_loss.to_bits() == b.mean_loss.to_bits()
        && a.test_acc.map(f64::to_bits) == b.test_acc.map(f64::to_bits)
        && a.bytes_uploaded == b.bytes_uploaded
        && a.bytes_downloaded == b.bytes_downloaded
        && a.bytes_uploaded_raw == b.bytes_uploaded_raw
        && a.bytes_uploaded_encoded == b.bytes_uploaded_encoded
        && a.bytes_downloaded_raw == b.bytes_downloaded_raw
        && a.bytes_downloaded_encoded == b.bytes_downloaded_encoded
        && a.threads == b.threads
        && a.participants_completed == b.participants_completed
        && a.participants_dropped == b.participants_dropped
        && a.retries == b.retries
}

/// One simulation of a run.
struct Sim {
    records: Vec<RoundRecord>,
    /// Outside wall time of `Simulation::run`.
    wall_s: f64,
    train_nodes: usize,
}

/// Set-up stage times of one run, plus the heap peak of the set-ups.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    load: Vec<f64>,
    partition: Vec<f64>,
    build: Vec<f64>,
    peak_bytes: u64,
}

impl SetupTimes {
    fn timed(&mut self, w: &Workload, seed: u64) -> Setup {
        alloc::reset_window();
        let s = w.setup(seed);
        self.peak_bytes = self.peak_bytes.max(alloc::window_peak_bytes());
        self.total.push(s.total_s());
        self.load.push(s.load_s);
        self.partition.push(s.partition_s);
        self.build.push(s.build_s);
        s
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Sets up and runs one untraced simulation through the public surface.
fn untraced(w: &Workload, seed: u64, setups: &mut SetupTimes) -> Sim {
    let s = setups.timed(w, seed);
    let train_nodes = s.train_nodes();
    let mut sim = w.simulation(s.clients, seed, threads());
    let t0 = Instant::now();
    let records = sim.run();
    let wall_s = t0.elapsed().as_secs_f64();
    Sim {
        records,
        wall_s,
        train_nodes,
    }
}

/// One traced simulation: the benchmark's strategy in place of the real
/// one, kernel counters armed for its duration only.
struct TracedSim {
    sim: Sim,
    trace: traced::Trace,
    figures: BTreeMap<&'static str, f64>,
}

fn traced_sim(w: &Workload, seed: u64, setups: &mut SetupTimes) -> TracedSim {
    let s = setups.timed(w, seed);
    let train_nodes = s.train_nodes();
    let (strategy, handle) = traced::TracedGta::new(Instant::now());
    let mut sim = w.simulation_with(s.clients, Box::new(strategy), seed, threads());
    fedgta_obs::global().reset();
    fedgta_obs::set_level(fedgta_obs::ObsLevel::Metrics);
    let t0 = Instant::now();
    let records = sim.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let codec_encode_ns = fedgta_obs::global()
        .histogram("comms.codec.encode_ns")
        .sum();
    // FLOPs of one `client_metrics` call per client, taken after the run
    // (they depend on shapes only) so the executor's FLOP count can be
    // split between training and metrics.
    let gta = fedgta::FedGta::with_defaults();
    let metrics_flops: Vec<u64> = sim
        .clients
        .iter_mut()
        .map(|c| {
            let f0 = traced::kernel_flops();
            gta.client_metrics(c);
            traced::kernel_flops() - f0
        })
        .collect();
    fedgta_obs::set_level(fedgta_obs::ObsLevel::Off);
    let trace = std::mem::take(&mut *handle.lock().expect("trace lock poisoned"));
    let figures = layers::layer_figures(&trace, &records, &metrics_flops, codec_encode_ns);
    TracedSim {
        sim: Sim {
            records,
            wall_s,
            train_nodes,
        },
        trace,
        figures,
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

struct RunResult {
    workload: &'static str,
    correct: bool,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    provenance: String,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn print(&self) {
        println!(
            "perfbench {}: provenance {}",
            self.workload, self.provenance
        );
        for m in &self.metrics {
            println!(
                "  {:<30} {:>16.4} {:<14} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for f in &self.failures {
            println!("  CHECK FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value fails a check; `null` keeps the line JSON.
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Host, toolchain and run parameters, recorded with every result.
fn provenance(w: &Workload, args: &Args, sims: usize, resolved_threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}, \"rounds\": {}, \"simulations\": {}, \"threads\": {}}}",
        threads(),
        json_str(&cpu),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(w.name),
        args.seed,
        u8::from(args.trace),
        w.rounds,
        sims,
        resolved_threads,
    )
}

/// Runs simulations until the next one would overrun `seconds` counted
/// from `start`, but at least `min` of them.
fn repeat<T>(start: Instant, seconds: f64, min: usize, mut one: impl FnMut() -> T) -> Vec<T> {
    let first = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(one());
        let per = first.elapsed().as_secs_f64() / out.len() as f64;
        if out.len() >= min && start.elapsed().as_secs_f64() + per > seconds {
            return out;
        }
    }
}

fn run_workload(w: &'static Workload, args: &Args) -> RunResult {
    let seed = args.seed;
    let start = Instant::now();
    let mut setups = SetupTimes::default();
    for _ in 0..EXTRA_SETUPS {
        drop(setups.timed(w, seed));
    }
    let mut checks = Checks::default();
    let (sims, traced_sims): (Vec<Sim>, Vec<TracedSim>) = if args.trace {
        repeat(start, args.seconds, 1, || {
            let u = untraced(w, seed, &mut setups);
            let t = traced_sim(w, seed, &mut setups);
            (u, t)
        })
        .into_iter()
        .unzip()
    } else {
        let min = MIN_ROUNDS.div_ceil(w.rounds);
        (
            repeat(start, args.seconds, min, || untraced(w, seed, &mut setups)),
            Vec::new(),
        )
    };

    // Output checks.
    let reference = &sims[0].records;
    let all: Vec<&Sim> = sims
        .iter()
        .chain(traced_sims.iter().map(|t| &t.sim))
        .collect();
    let mut attempted = 0;
    let mut failed = 0;
    for (k, s) in all.iter().enumerate() {
        let kind = if k < sims.len() { "untraced" } else { "traced" };
        checks.require(s.records.len() == w.rounds, || {
            format!(
                "{kind} simulation {k} ran {} of {} rounds",
                s.records.len(),
                w.rounds
            )
        });
        for r in &s.records {
            attempted += 1;
            let ok = r.mean_loss.is_finite() && r.participants_completed > 0;
            if !ok {
                failed += 1;
            }
        }
        let same = s.records.len() == reference.len()
            && s.records
                .iter()
                .zip(reference)
                .all(|(a, b)| same_outputs(a, b));
        checks.require(same, || {
            format!("{kind} simulation {k}: records differ from the first untraced simulation")
        });
    }
    checks.require(failed == 0, || {
        format!("{failed} of {attempted} rounds had a non-finite loss or no accepted upload")
    });
    let final_acc = reference
        .last()
        .and_then(|r| r.test_acc)
        .unwrap_or(f64::NAN);
    checks.require(final_acc >= w.acc_floor, || {
        format!(
            "final_acc {final_acc} below the workload's floor {}",
            w.acc_floor
        )
    });
    let completed: Vec<usize> = reference.iter().map(|r| r.participants_completed).collect();
    let dropped: Vec<usize> = reference.iter().map(|r| r.participants_dropped).collect();
    let failed_frac = stats::failed_upload_frac(&completed, &dropped);
    checks.require(w.chaos || failed_frac == 0.0, || {
        format!("failed_upload_frac {failed_frac} on a workload without faults")
    });

    let round_ms: Vec<f64> = sims
        .iter()
        .flat_map(|s| s.records.iter().map(|r| r.elapsed_s * 1e3))
        .collect();
    let metrics = if args.trace {
        trace_metrics(&setups, &round_ms, &traced_sims)
    } else {
        let node_epochs: f64 = sims
            .iter()
            .map(|s| (w.rounds * w.epochs * s.train_nodes) as f64)
            .sum();
        let wall: f64 = sims.iter().map(|s| s.wall_s).sum();
        let n = round_ms.len();
        let setup_note = format!("median of {} set-ups", setups.total.len());
        vec![
            metric("setup_s", stats::median(&setups.total), "s", setup_note),
            metric(
                "round_ms_p50",
                stats::median(&round_ms),
                "ms",
                format!("{n} rounds"),
            ),
            metric(
                "round_ms_p90",
                stats::percentile(&round_ms, 0.9),
                "ms",
                format!("{n} rounds, {} beyond", stats::beyond(&round_ms, 0.9)),
            ),
            metric(
                "node_epochs_per_s",
                node_epochs / wall,
                "node-epochs/s",
                format!("{} simulations", sims.len()),
            ),
            metric(
                "final_acc",
                final_acc,
                "fraction",
                format!("floor {}", w.acc_floor),
            ),
            metric(
                "upload_bytes_per_round",
                reference
                    .iter()
                    .map(|r| r.bytes_uploaded_encoded as f64)
                    .sum::<f64>()
                    / reference.len() as f64,
                "B",
                "mean bytes_uploaded_encoded".into(),
            ),
            metric(
                "peak_heap_mib",
                alloc::mib(alloc::peak_bytes()),
                "MiB",
                "allocator peak".into(),
            ),
            metric(
                "delivered_upload_frac",
                1.0 - failed_frac,
                "fraction",
                format!("1 - failed_upload_frac ({failed_frac})"),
            ),
        ]
    };
    for m in &metrics {
        checks.require(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    if args.trace {
        if let Err(e) = write_spans(w, seed, &traced_sims) {
            checks.failures.push(format!("writing spans: {e}"));
        }
    }
    RunResult {
        workload: w.name,
        correct: checks.failures.is_empty(),
        attempted,
        failed,
        provenance: provenance(w, args, all.len(), reference[0].threads),
        failures: checks.failures,
        metrics,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// The per-layer metrics of a `--trace 1` run, in BENCHMARK.json order.
fn trace_metrics(
    setups: &SetupTimes,
    untraced_round_ms: &[f64],
    traced_sims: &[TracedSim],
) -> Vec<Metric> {
    let per_sim = |name: &str| -> f64 {
        let v: Vec<f64> = traced_sims.iter().map(|t| t.figures[name]).collect();
        stats::median(&v)
    };
    let traced_ms: Vec<f64> = traced_sims
        .iter()
        .flat_map(|t| layers::traced_round_ms(&t.trace, &t.sim.records))
        .collect();
    let overhead = 100.0 * (stats::median(&traced_ms) / stats::median(untraced_round_ms) - 1.0);
    let ms = |v: &[f64]| stats::median(v) * 1e3;
    let sims_note = format!("median of {} traced simulations", traced_sims.len());
    let mut out = vec![
        metric(
            "data.load_ms",
            ms(&setups.load),
            "ms",
            "median set-up stage".into(),
        ),
        metric(
            "partition.ms",
            ms(&setups.partition),
            "ms",
            "median set-up stage".into(),
        ),
        metric(
            "fed.client.build_ms",
            ms(&setups.build),
            "ms",
            "median set-up stage".into(),
        ),
        metric(
            "mem.setup_peak_mib",
            alloc::mib(setups.peak_bytes),
            "MiB",
            "allocator peak".into(),
        ),
    ];
    for (name, unit) in LAYER_UNITS {
        let ceiling = match *name {
            "nn.gflops_in_situ" => best_committed("BENCH_KERNELS.json", "gflops"),
            "core.aggregate_gbps" => best_committed("BENCH_AGGREGATE.json", "gbps"),
            _ => None,
        };
        let note = match ceiling {
            Some((file, best)) => format!("{sims_note}; best in {file}: {best}"),
            None => sims_note.clone(),
        };
        out.push(metric(name, per_sim(name), unit, note));
    }
    out.push(metric(
        "bench.trace_overhead_pct",
        overhead,
        "%",
        format!(
            "traced vs untraced round p50 ({} vs {} rounds)",
            traced_ms.len(),
            untraced_round_ms.len()
        ),
    ));
    out
}

/// Per-simulation layer figures, in report order, with their units.
const LAYER_UNITS: &[(&str, &str)] = &[
    ("fed.round.driver_ms", "ms"),
    ("fed.eval_ms", "ms"),
    ("fed.exec.call_ms", "ms"),
    ("fed.exec.lane_busy", "lanes"),
    ("fed.exec.self_ms", "ms"),
    ("nn.train_local_ms", "ms"),
    ("nn.train_local_call_ms_p50", "ms"),
    ("nn.gflops_in_situ", "GFLOP/s"),
    ("nn.set_params_ms", "ms"),
    ("mem.allocs_per_round", "count"),
    ("mem.round_peak_mib", "MiB"),
    ("core.client_metrics_ms", "ms"),
    ("core.aggregate_ms", "ms"),
    ("core.similarity_ms", "ms"),
    ("core.aggregate_members", "count"),
    ("core.aggregate_gbps", "GB/s"),
    ("fed.wire.up_raw_bytes", "B"),
    ("fed.wire.up_encoded_bytes", "B"),
    ("fed.wire.down_encoded_bytes", "B"),
    ("fed.codec.encode_ms", "ms"),
    ("fed.faults.retries", "count"),
    ("fed.faults.dropped", "count"),
    ("fed.faults.rounds_skipped", "count"),
    ("bench.unattributed_pct", "%"),
];

/// The largest `key` value in a committed microbenchmark file at the
/// checkout root, when the file is there: the ceiling an in-situ rate is
/// printed next to.
fn best_committed(file: &'static str, key: &str) -> Option<(&'static str, f64)> {
    let s = std::fs::read_to_string(file).ok()?;
    let best = s
        .split(&format!("\"{key}\":"))
        .skip(1)
        .filter_map(|t| t.split([',', '}']).next()?.trim().parse::<f64>().ok())
        .reduce(f64::max)?;
    Some((file, best))
}

/// Writes every traced simulation's spans as JSON lines under
/// `.bench_out/`.
fn write_spans(w: &Workload, seed: u64, sims: &[TracedSim]) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{}-seed{seed}.jsonl", w.name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (k, t) in sims.iter().enumerate() {
        for (i, s) in t.trace.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"sim\": {k}, \"id\": {i}, \"name\": \"{}\", \"round\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"client\": {}}}",
                s.name,
                s.round,
                s.start,
                s.end,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.client.map_or("null".into(), |c| c.to_string()),
            )?;
        }
    }
    f.flush()
}
