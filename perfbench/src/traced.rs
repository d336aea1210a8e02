//! The traced run: a benchmark-side [`Strategy`] that performs FedGTA's
//! round by calling each layer's public function in `FedGta::round`'s
//! order, timing every call from outside the program:
//!
//! 1. `train_participants`, whose closure calls `Client::train_local`
//!    and then `FedGta::client_metrics`;
//! 2. `personalized_aggregate_into`;
//! 3. `GraphModel::set_params` for every arrived client.
//!
//! `Simulation::run` drives it exactly as it drives the real strategy, and
//! the round's `CommsRound` rides in on the `RoundCtx`, so the same code
//! covers direct and channel rounds. Spans stay in memory until the run
//! ends. Equality of the traced and untraced `RoundRecord`s (checked by
//! the caller) proves the traced run measured the same computation.

use crate::alloc;
use fedgta::{
    personalized_aggregate_into, similarity_matrix_threads, AggregateOptions, ClientUpload, FedGta,
};
use fedgta_fed::client::Client;
use fedgta_fed::exec::{mean_loss, train_participants};
use fedgta_fed::strategies::{Broadcast, RoundCtx, RoundStats, Strategy};
use fedgta_nn::TrainHooks;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace's base instant.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// 1-based round id.
    pub round: u32,
    /// Federation index, for per-client spans.
    pub client: Option<u32>,
}

impl Span {
    pub fn interval(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-round counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundCounts {
    /// `kernel.matmul.flops + spmm.flops` over the executor call.
    pub call_flops: u64,
    /// Heap allocations inside the round (side call excluded).
    pub allocs: u64,
    /// Peak live heap bytes inside the round (side call excluded).
    pub peak_bytes: u64,
    /// Σ|Iᵢ| of the round's aggregation report.
    pub members: usize,
    /// Parameter-vector length.
    pub plen: usize,
}

/// Everything one traced simulation recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub rounds: Vec<RoundCounts>,
}

/// The layer spans a round is made of. `SIMILARITY` is a side call made
/// after the round's work, excluded from every round sum.
pub const ROUND: &str = "round";
pub const EXEC_CALL: &str = "fed.exec.call";
pub const TRAIN_LOCAL: &str = "nn.train_local";
pub const CLIENT_METRICS: &str = "core.client_metrics";
pub const AGGREGATE: &str = "core.aggregate";
pub const SET_PARAMS: &str = "nn.set_params";
pub const SIMILARITY: &str = "core.similarity";

/// Sum of the kernel FLOP counters (armed only in the traced run).
pub fn kernel_flops() -> u64 {
    let reg = fedgta_obs::global();
    reg.counter("kernel.matmul.flops").get() + reg.counter("spmm.flops").get()
}

fn since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// FedGTA's round, performed layer by layer with a span around each call.
pub struct TracedGta {
    gta: FedGta,
    personalized: Vec<Option<Vec<f32>>>,
    base: Instant,
    round: u32,
    trace: Arc<Mutex<Trace>>,
}

impl TracedGta {
    /// A traced FedGTA with paper-default hyperparameters (the
    /// configuration `make_strategy("FedGTA")` builds). The returned
    /// handle holds the trace once the simulation has run.
    pub fn new(base: Instant) -> (Self, Arc<Mutex<Trace>>) {
        let trace = Arc::new(Mutex::new(Trace::default()));
        let s = Self {
            gta: FedGta::with_defaults(),
            personalized: Vec::new(),
            base,
            round: 0,
            trace: Arc::clone(&trace),
        };
        (s, trace)
    }
}

impl Strategy for TracedGta {
    fn name(&self) -> String {
        self.gta.name()
    }

    fn round(
        &mut self,
        clients: &mut [Client],
        participants: &[usize],
        ctx: &RoundCtx<'_>,
    ) -> RoundStats {
        let base = self.base;
        let round_start = since(base);
        self.round += 1;
        let round = self.round;
        let allocs0 = alloc::allocs();
        alloc::reset_window();
        if self.personalized.len() != clients.len() {
            self.personalized = vec![None; clients.len()];
        }
        let lanes: Mutex<Vec<Span>> = Mutex::new(Vec::with_capacity(2 * participants.len()));
        let flops0 = kernel_flops();
        let call_start = since(base);
        let results = {
            let gta = &self.gta;
            let ctx = ctx.with_broadcast(Broadcast::PerClient(&self.personalized));
            let ctx = &ctx;
            train_participants(clients, participants, ctx, |i, c| {
                let t0 = since(base);
                let mut hooks = TrainHooks {
                    pseudo: ctx.pseudo_for(i),
                    ..TrainHooks::none()
                };
                let loss = c.train_local(ctx.epochs, &mut hooks);
                let t1 = since(base);
                let params = c.model.params();
                let n_train = c.n_train();
                let (h, m) = gta.client_metrics(c);
                let payload = (params, h, m.to_vec(), n_train);
                let t2 = since(base);
                let client = Some(i as u32);
                let mut l = lanes.lock().expect("span lock poisoned");
                l.push(Span {
                    name: TRAIN_LOCAL,
                    start: t0,
                    end: t1,
                    parent: None,
                    round,
                    client,
                });
                l.push(Span {
                    name: CLIENT_METRICS,
                    start: t1,
                    end: t2,
                    parent: None,
                    round,
                    client,
                });
                (loss, payload)
            })
        };
        let call_end = since(base);
        let call_flops = kernel_flops() - flops0;
        let loss = mean_loss(&results);
        let threads = ctx.threads;
        let mut arrived = Vec::with_capacity(results.len());
        let mut params = Vec::with_capacity(results.len());
        let mut confidences = Vec::with_capacity(results.len());
        let mut sketches = Vec::with_capacity(results.len());
        let mut n_trains = Vec::with_capacity(results.len());
        for r in results {
            let (p, h, m, n) = r.payload;
            arrived.push(r.client);
            params.push(p);
            confidences.push(h);
            sketches.push(m);
            n_trains.push(n);
        }
        let uploads: Vec<ClientUpload<'_>> = (0..arrived.len())
            .map(|p| ClientUpload {
                params: &params[p],
                confidence: confidences[p],
                moments: &sketches[p],
                n_train: n_trains[p],
            })
            .collect();
        let cfg = &self.gta.config;
        let opts = AggregateOptions {
            epsilon: cfg.epsilon,
            epsilon_quantile: cfg.epsilon_quantile,
            similarity: cfg.similarity,
            use_moments: cfg.use_moments,
            use_confidence: cfg.use_confidence,
        };
        let mut aggregated: Vec<Vec<f32>> = arrived
            .iter()
            .map(|&i| self.personalized[i].take().unwrap_or_default())
            .collect();
        let agg_start = since(base);
        let report = personalized_aggregate_into(&uploads, &opts, threads, &mut aggregated);
        let agg_end = since(base);
        for (&i, buf) in arrived.iter().zip(aggregated) {
            clients[i].model.set_params(&buf);
            self.personalized[i] = Some(buf);
        }
        let set_end = since(base);
        let allocs = alloc::allocs() - allocs0;
        let peak_bytes = alloc::window_peak_bytes();
        // Side call on the same sketches: Eq. 6 alone, which the
        // aggregate span contains but cannot separate.
        let sketch_refs: Vec<&[f32]> = sketches.iter().map(Vec::as_slice).collect();
        let sim_start = since(base);
        std::hint::black_box(similarity_matrix_threads(
            &sketch_refs,
            opts.similarity,
            threads,
        ));
        let sim_end = since(base);
        let bytes_uploaded = (0..arrived.len())
            .map(|p| params[p].len() * 4 + sketches[p].len() * 4 + 8)
            .sum();
        let bytes_downloaded = params.iter().map(|p| p.len() * 4).sum();
        let counts = RoundCounts {
            call_flops,
            allocs,
            peak_bytes,
            members: report.entries.iter().map(|e| e.members.len()).sum(),
            plen: params.first().map_or(0, Vec::len),
        };
        let lanes = lanes.into_inner().expect("span lock poisoned");
        let mut t = self.trace.lock().expect("trace lock poisoned");
        let root = t.spans.len();
        let span = |name, (start, end), parent| Span {
            name,
            start,
            end,
            parent,
            round,
            client: None,
        };
        t.spans.push(span(ROUND, (round_start, since(base)), None));
        let call = t.spans.len();
        t.spans
            .push(span(EXEC_CALL, (call_start, call_end), Some(root)));
        t.spans.extend(lanes.into_iter().map(|s| Span {
            parent: Some(call),
            ..s
        }));
        t.spans
            .push(span(AGGREGATE, (agg_start, agg_end), Some(root)));
        t.spans
            .push(span(SET_PARAMS, (agg_end, set_end), Some(root)));
        t.spans
            .push(span(SIMILARITY, (sim_start, sim_end), Some(root)));
        t.rounds.push(counts);
        RoundStats {
            mean_loss: loss,
            bytes_uploaded,
            bytes_downloaded,
        }
    }
}
