//! Per-layer figures from a traced simulation's spans and counts.

use crate::stats::{self, lane_busy, self_time};
use crate::traced::{self, Span, Trace};
use fedgta_fed::round::RoundRecord;
use std::collections::BTreeMap;

/// Per-round layer times (ns) of one traced round.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundLayers {
    pub round_start: u64,
    pub round_end: u64,
    pub call: u64,
    pub closures: u64,
    pub exec_self: u64,
    pub train_local: u64,
    pub client_metrics: u64,
    pub aggregate: u64,
    pub set_params: u64,
    pub similarity: u64,
}

/// Splits a trace into rounds and computes each round's layer times.
pub fn round_layers(trace: &Trace) -> Vec<RoundLayers> {
    let mut by_round: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in &trace.spans {
        by_round.entry(s.round).or_default().push(s);
    }
    by_round
        .values()
        .map(|spans| {
            let mut l = RoundLayers::default();
            let mut call = (0, 0);
            let mut closures: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
            for s in spans {
                match s.name {
                    traced::ROUND => (l.round_start, l.round_end) = s.interval(),
                    traced::EXEC_CALL => call = s.interval(),
                    traced::TRAIN_LOCAL | traced::CLIENT_METRICS => {
                        if s.name == traced::TRAIN_LOCAL {
                            l.train_local += s.ns();
                        } else {
                            l.client_metrics += s.ns();
                        }
                        let c = closures
                            .entry(s.client.unwrap_or(u32::MAX))
                            .or_insert(s.interval());
                        *c = (c.0.min(s.start), c.1.max(s.end));
                    }
                    traced::AGGREGATE => l.aggregate = s.ns(),
                    traced::SET_PARAMS => l.set_params = s.ns(),
                    traced::SIMILARITY => l.similarity = s.ns(),
                    _ => {}
                }
            }
            let closures: Vec<(u64, u64)> = closures.into_values().collect();
            l.call = call.1 - call.0;
            l.closures = closures.iter().map(|(s, e)| e - s).sum();
            l.exec_self = self_time(call, &closures);
            l
        })
        .collect()
}

/// The per-layer metrics of one traced simulation, by name. Times are
/// per-round means in ms unless named otherwise.
///
/// `metrics_flops[c]` is the FLOP count of one `client_metrics` call on
/// client `c` (shape-determined, measured once after the run), so the
/// training share of each executor call's FLOPs is the call's count minus
/// the metrics calls it made.
pub fn layer_figures(
    trace: &Trace,
    records: &[RoundRecord],
    metrics_flops: &[u64],
    codec_encode_ns: u64,
) -> BTreeMap<&'static str, f64> {
    let rl = round_layers(trace);
    let n = rl.len().max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mean_ms = |f: &dyn Fn(&RoundLayers) -> u64| rl.iter().map(|l| ms(f(l))).sum::<f64>() / n;
    let mut v = BTreeMap::new();
    v.insert("fed.exec.call_ms", mean_ms(&|l| l.call));
    v.insert("fed.exec.self_ms", mean_ms(&|l| l.exec_self));
    let calls: Vec<(u64, u64)> = rl.iter().map(|l| (0, l.call)).collect();
    let closures: Vec<(u64, u64)> = rl.iter().map(|l| (0, l.closures)).collect();
    v.insert("fed.exec.lane_busy", lane_busy(&calls, &closures));
    v.insert("nn.train_local_ms", mean_ms(&|l| l.train_local));
    let calls: Vec<f64> = trace
        .spans
        .iter()
        .filter(|s| s.name == traced::TRAIN_LOCAL)
        .map(|s| ms(s.ns()))
        .collect();
    v.insert("nn.train_local_call_ms_p50", stats::median(&calls));
    let metrics_calls_flops: u64 = trace
        .spans
        .iter()
        .filter(|s| s.name == traced::CLIENT_METRICS)
        .filter_map(|s| s.client.and_then(|c| metrics_flops.get(c as usize)))
        .sum();
    let call_flops: u64 = trace.rounds.iter().map(|r| r.call_flops).sum();
    let train_ns: u64 = rl.iter().map(|l| l.train_local).sum();
    v.insert(
        "nn.gflops_in_situ",
        call_flops.saturating_sub(metrics_calls_flops) as f64 / train_ns.max(1) as f64,
    );
    v.insert("nn.set_params_ms", mean_ms(&|l| l.set_params));
    v.insert("core.client_metrics_ms", mean_ms(&|l| l.client_metrics));
    v.insert("core.aggregate_ms", mean_ms(&|l| l.aggregate));
    v.insert("core.similarity_ms", mean_ms(&|l| l.similarity));
    let members: usize = trace.rounds.iter().map(|r| r.members).sum();
    v.insert("core.aggregate_members", members as f64 / n);
    let agg_bytes: f64 = trace
        .rounds
        .iter()
        .map(|r| r.members as f64 * r.plen as f64 * 4.0)
        .sum();
    let eq7_ns: u64 = rl
        .iter()
        .map(|l| l.aggregate.saturating_sub(l.similarity))
        .sum();
    v.insert("core.aggregate_gbps", agg_bytes / eq7_ns.max(1) as f64);
    let allocs: u64 = trace.rounds.iter().map(|r| r.allocs).sum();
    v.insert("mem.allocs_per_round", allocs as f64 / n);
    let peak = trace.rounds.iter().map(|r| r.peak_bytes).max().unwrap_or(0);
    v.insert("mem.round_peak_mib", crate::alloc::mib(peak));

    // Gap between rounds: from one round's return to the next round's
    // entry, minus the evaluation `Simulation::run` made in between.
    let gaps: Vec<f64> = rl
        .windows(2)
        .zip(records)
        .map(|(w, r)| ms(w[1].round_start.saturating_sub(w[0].round_end)) - r.eval_s * 1e3)
        .collect();
    v.insert(
        "fed.round.driver_ms",
        gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
    );
    let rn = records.len().max(1) as f64;
    let rec_mean = |f: &dyn Fn(&RoundRecord) -> f64| records.iter().map(f).sum::<f64>() / rn;
    v.insert("fed.eval_ms", rec_mean(&|r| r.eval_s * 1e3));
    v.insert(
        "fed.wire.up_raw_bytes",
        rec_mean(&|r| r.bytes_uploaded_raw as f64),
    );
    v.insert(
        "fed.wire.up_encoded_bytes",
        rec_mean(&|r| r.bytes_uploaded_encoded as f64),
    );
    v.insert(
        "fed.wire.down_encoded_bytes",
        rec_mean(&|r| r.bytes_downloaded_encoded as f64),
    );
    v.insert("fed.codec.encode_ms", codec_encode_ns as f64 / 1e6 / rn);
    v.insert(
        "fed.faults.retries",
        records.iter().map(|r| r.retries as f64).sum(),
    );
    v.insert(
        "fed.faults.dropped",
        records.iter().map(|r| r.participants_dropped as f64).sum(),
    );
    v.insert(
        "fed.faults.rounds_skipped",
        records
            .iter()
            .filter(|r| r.participants_completed == 0)
            .count() as f64,
    );

    // Coverage: the round's wall (minus the side call) against the layer
    // spans directly under it, which run one after another.
    let covered: u64 = rl.iter().map(|l| l.call + l.aggregate + l.set_params).sum();
    let wall_ns: f64 = records
        .iter()
        .zip(&rl)
        .map(|(r, l)| r.elapsed_s * 1e9 - l.similarity as f64)
        .sum();
    v.insert(
        "bench.unattributed_pct",
        100.0 * (wall_ns - covered as f64) / wall_ns.max(1.0),
    );
    v
}

/// Round wall times (ms) of a traced simulation with the side call taken
/// out, comparable to an untraced run's `elapsed_s`.
pub fn traced_round_ms(trace: &Trace, records: &[RoundRecord]) -> Vec<f64> {
    records
        .iter()
        .zip(round_layers(trace))
        .map(|(r, l)| r.elapsed_s * 1e3 - l.similarity as f64 / 1e6)
        .collect()
}
