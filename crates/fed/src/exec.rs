//! Deterministic client-parallel execution of local training.
//!
//! [`train_participants`] is the one way strategies run their per-client
//! local step. The closure receives `(client_index, &mut Client)` and may
//! run on a worker thread; everything else — parameter aggregation,
//! strategy-state updates, floating-point reductions — stays on the driver
//! thread in **participant order**. Combined with the determinism contract
//! of [`fedgta_graph::par::par_map_indexed`] (contiguous chunking, one
//! worker per disjoint slot, input-order collection, nested-parallelism
//! suppression), every federated round is bit-identical for any thread
//! count: `threads = 1` and `threads = 64` produce the same losses,
//! parameters and accuracies.
//!
//! Why this is safe to parallelize:
//!
//! - each [`Client`] owns its model, optimizer and dataset — no shared
//!   mutable state between participants;
//! - closures only capture shared *immutable* round state (the global
//!   parameters, per-client anchors, configuration);
//! - any strategy state touched by more than one client (control variates,
//!   drift vectors, momentum buffers) is updated after the parallel
//!   section, on the driver, in participant order.

use crate::client::Client;
use crate::faults::{AttemptFate, FaultConfig, FaultPlan, RoundScript};
use crate::strategies::RoundCtx;
use crate::transport::{
    corrupt_frame, decode_broadcast_coded, decode_upload, decode_upload_routed,
    encode_broadcast_coded, encode_upload_routed, ChannelTransport, CommsRound, Endpoint,
    MsgKind, WirePayload, SERVER_ID,
};
use fedgta_graph::io::{Envelope, TraceContext};
use fedgta_graph::par::par_map_indexed;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Records one participant's local-training wall time into the
/// `round.client.train_ns` histogram (cached handle; disarmed cost is one
/// relaxed load in the caller).
#[inline]
fn observe_client_train_ns(ns: u64) {
    use std::sync::{Arc, OnceLock};
    static H: OnceLock<Arc<fedgta_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| fedgta_obs::global().histogram("round.client.train_ns"))
        .observe(ns);
}

/// Records one upload's codec encode time into the
/// `comms.codec.encode_ns` histogram (cached handle; the caller gates on
/// [`fedgta_obs::metrics_on`]).
#[inline]
fn observe_codec_encode_ns(ns: u64) {
    use std::sync::{Arc, OnceLock};
    static H: OnceLock<Arc<fedgta_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| fedgta_obs::global().histogram("comms.codec.encode_ns"))
        .observe(ns);
}

/// The outcome of one participant's local step.
///
/// `payload` carries whatever the strategy needs downstream (uploaded
/// parameters, step counts, sketches); the executor itself only fixes the
/// loss so [`mean_loss`] works uniformly.
pub struct LocalResult<R> {
    /// Client index in the federation (the participant id).
    pub client: usize,
    /// Mean local training loss reported by the per-client closure.
    pub loss: f32,
    /// Strategy-specific payload.
    pub payload: R,
}

/// Runs `f(client_index, &mut client)` for every participant, in parallel
/// across `ctx.threads` workers (0 = auto via `FEDGTA_THREADS` /
/// available parallelism), returning results **in participant order**.
///
/// Every call crosses the wire: the server sends each participant a
/// `TrainRequest` envelope, client tasks train on worker threads and
/// upload their results as checksummed envelopes, and the server decodes
/// the accepted uploads back out of its mailbox. Inside a
/// [`crate::round::Simulation`] the round's [`CommsRound`] (fault script,
/// codecs, byte meters) rides in on `ctx.comms`; a call made without one
/// builds a fault-free one-round channel of its own.
///
/// Three determinism anchors:
///
/// 1. *which* clients train, retry, straggle or crash is fixed by the
///    script before any thread spawns;
/// 2. [`WirePayload`] encoding is bit-exact, so a decoded upload equals
///    the in-memory result the closure returned;
/// 3. uploads may land in the server mailbox in any interleaving, but
///    results are reassembled by sender id **in participant order**.
///
/// `participants` may be in any order (GCFL+ clusters are unsorted after
/// a split) but must be unique and in range; the result vector matches
/// the caller's order exactly, so downstream floating-point reductions
/// are order-stable regardless of which worker ran which client.
///
/// # Panics
///
/// Panics on duplicate or out-of-range participant indices, and
/// propagates any panic raised inside `f`.
pub fn train_participants<R, F>(
    clients: &mut [Client],
    participants: &[usize],
    ctx: &RoundCtx<'_>,
    f: F,
) -> Vec<LocalResult<R>>
where
    R: Send + WirePayload,
    F: Fn(usize, &mut Client) -> (f32, R) + Sync,
{
    let (own_transport, own_script, own_comms);
    let comms = match ctx.comms {
        Some(comms) => comms,
        None => {
            own_transport = ChannelTransport::new(clients.len());
            let plan = FaultPlan::new(FaultConfig::default(), 0);
            own_script = RoundScript::build(&plan, 1, 0, participants, participants.len(), 0);
            own_comms = CommsRound::new(1, &own_transport, &own_script, None);
            &own_comms
        }
    };
    let script = comms.script;
    let transport = comms.transport;
    let round = comms.round as u32;
    let upload_kind = if comms.codec.is_some() { MsgKind::UploadCoded } else { MsgKind::Upload };
    let corrupted = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    // Client tasks that will train: exactly the clients whose scripted
    // request leg succeeded — including ones whose upload will be lost
    // or arrive too late (their local model still moves, like a real
    // deployment's would; the server just never sees the update).
    let trainers: Vec<usize> = participants
        .iter()
        .copied()
        .filter(|c| script.fate(*c).is_some_and(|fa| fa.trains))
        .collect();
    // The `train` span opens on the driver thread (nesting under the
    // round's span via the thread-local stack); per-client spans run on
    // worker threads and parent onto it through the requests' wire trace
    // context.
    let span = fedgta_obs::span!("train", participants = trainers.len());
    let parent = span.id();
    // Server task, request leg: one envelope per scripted attempt.
    // Dropped frames are never enqueued (lost in flight); corrupt frames
    // are enqueued mangled so the client-side CRC rejection is real.
    // When tracing is armed each request carries the train span's id as
    // a wire trace context, so the client side parents its spans by
    // correlation id off the frame — not through process-local state —
    // exactly what a real socket transport will need.
    for &c in participants {
        let Some(fate) = script.fate(c) else { continue };
        // With a download codec armed and a broadcast vector declared for
        // this participant, the request carries the coded model under
        // [`MsgKind::BroadcastCoded`]; otherwise the frame is the classic
        // empty-payload `TrainRequest`, byte for byte. Both download-leg
        // byte tallies are metered here, once per invited participant
        // (driver thread, participant order — script-deterministic).
        let coded_bcast = match (comms.codec_down, ctx.broadcast.and_then(|b| b.vector_for(c))) {
            (Some(down), Some(v)) => {
                let body = encode_broadcast_coded(down, v);
                comms
                    .bytes_down_raw
                    .fetch_add(8 + 4 * v.len() as u64, Ordering::Relaxed);
                comms
                    .bytes_down_encoded
                    .fetch_add(body.len() as u64, Ordering::Relaxed);
                Some(body)
            }
            _ => None,
        };
        let req_kind =
            if coded_bcast.is_some() { MsgKind::BroadcastCoded } else { MsgKind::TrainRequest };
        for (n, a) in fate.download.iter().enumerate() {
            let env = Envelope {
                kind: req_kind as u8,
                round,
                sender: SERVER_ID,
                seq: n as u32,
                trace: wire_trace(parent),
                payload: coded_bcast.as_deref().unwrap_or_default(),
            };
            send_attempt(transport, Endpoint::Client(c), a, &dropped, || env.encode());
        }
    }
    // Server task, collect leg: verifies and decodes whatever its
    // mailbox holds, straight from each frame's bytes. Every worker runs
    // it right after sending its upload, while the frames are still in
    // cache, so each sent frame is collected by its sender's call at the
    // latest. Which call decodes a frame is a thread race; decoding is a
    // pure function of the frame, results are keyed by sender, and they
    // are emitted in participant order below.
    let by_sender: Mutex<BTreeMap<u32, (f32, R)>> = Mutex::new(BTreeMap::new());
    let collect = || {
        for frame in transport.drain(Endpoint::Server) {
            let upload = Envelope::parse(&frame).and_then(|env| {
                if env.kind != upload_kind as u8 || env.round != round {
                    return Ok(None);
                }
                let upload = match comms.codec {
                    None => decode_upload::<R>(env.payload),
                    Some(codec) => decode_upload_routed::<R>(codec, comms.codec_sketch, env.payload),
                };
                upload.map(|u| Some((env.sender, u)))
            });
            match upload {
                Ok(Some((sender, u))) => {
                    by_sender.lock().expect("collect lock poisoned").insert(sender, u);
                }
                Ok(None) => {}
                Err(_) => {
                    corrupted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    };
    let t0 = ctx.train_clock.is_some().then(std::time::Instant::now);
    let slots = disjoint_slots(clients, &trainers);
    run_slots(slots, ctx.threads, |i, c| {
        // Receive leg first: drain the mailbox, CRC-verify, reject
        // garbage, and recover the server span id from the frame's
        // trace context (frames from another run's trace are ignored).
        let mut requested = false;
        let mut wire_parent = parent;
        let mut wire_bcast: Option<Vec<f32>> = None;
        for frame in transport.drain(Endpoint::Client(i)) {
            match Envelope::parse(&frame) {
                Ok(env)
                    if (env.kind == MsgKind::TrainRequest as u8
                        || env.kind == MsgKind::BroadcastCoded as u8)
                        && env.round == round =>
                {
                    if env.kind == MsgKind::BroadcastCoded as u8 {
                        // CRC-valid coded broadcast: decode it with the
                        // armed download codec (both ends are configured
                        // from the same CommsConfig). A frame that fails
                        // here is hostile, not faulted — reject it like
                        // any other garbage.
                        match comms.codec_down.map(|d| decode_broadcast_coded(d, env.payload)) {
                            Some(Ok(v)) => wire_bcast = Some(v),
                            _ => {
                                corrupted.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                    }
                    requested = true;
                    if let Some(tc) = env.trace {
                        if tc.trace_id == fedgta_obs::run_trace_id() {
                            wire_parent = tc.parent_span;
                        }
                    }
                }
                Ok(_) => {}
                Err(_) => {
                    corrupted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        assert!(requested, "scripted trainer {i} received no valid request");
        let _cg = fedgta_obs::span_under("client_train", wire_parent)
            .with_field("client", fedgta_obs::FieldVal::from(i));
        let client_span = _cg.id();
        // Start-of-round model: from the wire when the download codec is
        // armed (the decoded — possibly lossy — broadcast), else the
        // strategy's declared vector applied in-process (no codec = the
        // broadcast never crosses the transport).
        let bcast = match comms.codec_down {
            Some(_) => wire_bcast.as_deref(),
            None => ctx.broadcast.and_then(|b| b.vector_for(i)),
        };
        if let Some(v) = bcast {
            c.model.set_params(v);
            c.opt.reset();
        }
        let ct0 = fedgta_obs::metrics_on().then(std::time::Instant::now);
        let (loss, mut payload) = f(i, c);
        if let Some(ct0) = ct0 {
            observe_client_train_ns(ct0.elapsed().as_nanos() as u64);
        }
        let fate = script.fate(i).expect("trainer has a fate");
        // Upload leg: the real result bytes cross the wire; scripted
        // corruption mangles the physical frame. With a codec armed the
        // body is the *encoded* upload — corruption and drops hit the
        // compressed bytes. Both byte tallies are metered here (once per
        // trainer, so the tally is script-deterministic); the raw one is
        // the plain encoding's size: the loss, then the payload.
        let raw_len = 4 + payload.wire_len();
        let coded_body = comms.codec.map(|codec| {
            // Error feedback: replace each payload tensor with its
            // residual-folded delta before encoding. The fold and the
            // commit below touch only this client's own state inside its
            // exclusive worker closure — deterministic at any thread
            // count.
            let folds = comms.ef.map(|_| {
                let state = c.ef.get_or_insert_with(Default::default);
                // Anchored EF: re-base the parameter tensor's reference at
                // the broadcast this client just loaded, so the pre-encode
                // delta is this round's local progress plus the residual,
                // not a drifting gap against everyone else's aggregate.
                if let Some(a) = bcast {
                    state.tensor(0).rebase(a);
                }
                let mut folds = Vec::new();
                let mut t = 0usize;
                payload.visit_tensors(&mut |v| {
                    let folded = state.tensor(t).fold(v);
                    v.clear();
                    v.extend_from_slice(&folded.fed);
                    folds.push(folded);
                    t += 1;
                });
                folds
            });
            let et0 = fedgta_obs::metrics_on().then(std::time::Instant::now);
            let body = encode_upload_routed(codec, comms.codec_sketch, loss, &payload);
            if let Some(et0) = et0 {
                observe_codec_encode_ns(et0.elapsed().as_nanos() as u64);
            }
            if let Some(folds) = folds {
                // Commit against the local decode of our own encoding —
                // bitwise what the server decodes from the wire —
                // resolved by the scripted acceptance fate (rejected
                // uploads carry their full delta to next round).
                let (_, mut dec) = decode_upload_routed::<R>(codec, comms.codec_sketch, &body)
                    .expect("own coded upload decodes");
                let state = c.ef.as_mut().expect("EF state initialized by fold");
                let mut t = 0usize;
                dec.visit_tensors(&mut |d| {
                    state.tensor(t).commit(&folds[t], d, fate.accepted);
                    t += 1;
                });
            }
            body
        });
        let encoded_len = coded_body.as_ref().map_or(raw_len, Vec::len);
        comms.bytes_raw.fetch_add(raw_len as u64, Ordering::Relaxed);
        comms.bytes_encoded.fetch_add(encoded_len as u64, Ordering::Relaxed);
        for (n, a) in fate.upload.iter().enumerate() {
            let env = Envelope {
                kind: upload_kind as u8,
                round,
                sender: i as u32,
                seq: n as u32,
                trace: wire_trace(client_span),
                payload: (),
            };
            // The body is written straight into the frame buffer.
            let frame = || match &coded_body {
                Some(body) => env.encode_with(body.len(), |_, out| out.extend_from_slice(body)),
                None => env.encode_with(raw_len, |_, out| {
                    loss.encode(out);
                    payload.encode(out);
                }),
            };
            send_attempt(transport, Endpoint::Server, a, &dropped, frame);
        }
        drop(_cg);
        collect();
    });
    if let (Some(t0), Some(clock)) = (t0, ctx.train_clock) {
        clock.add_ns(t0.elapsed().as_nanos() as u64);
    }
    drop(span);
    // Unreachable participants whose request leg delivered only corrupt
    // frames never train, but their mailbox still holds the garbage —
    // reject it now so no stale frame leaks into the next round.
    for &c in participants {
        let Some(fate) = script.fate(c) else { continue };
        if fate.trains {
            continue;
        }
        for frame in transport.drain(Endpoint::Client(c)) {
            if Envelope::parse(&frame).is_err() {
                corrupted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let mut by_sender = by_sender.into_inner().expect("collect lock poisoned");
    let mut out = Vec::with_capacity(script.accepted.len());
    for &c in participants {
        let Some(fate) = script.fate(c) else { continue };
        if !fate.accepted {
            continue;
        }
        let (loss, mut payload) = by_sender
            .remove(&(c as u32))
            .expect("accepted upload arrived intact");
        // Server half of error feedback: the wire carried a delta — fold
        // it into this client's reference to reconstruct the tensor the
        // strategy aggregates. Driver thread, participant order.
        if let (Some(ef), Some(_)) = (comms.ef, comms.codec) {
            let mut map = ef.clients.lock().unwrap_or_else(|e| e.into_inner());
            let state = map.entry(c).or_default();
            // Mirror the client's anchored rebase: it re-based tensor 0
            // at the broadcast it loaded this round. With a download
            // codec armed that was the *wire-decoded* vector, so the
            // server re-derives the identical bits by round-tripping its
            // own deterministic encoding.
            if let Some(v) = ctx.broadcast.and_then(|b| b.vector_for(c)) {
                let rt = comms.codec_down.map(|down| {
                    decode_broadcast_coded(down, &encode_broadcast_coded(down, v))
                        .expect("own broadcast round-trips")
                });
                state.tensor(0).rebase(rt.as_deref().unwrap_or(v));
            }
            let mut t = 0usize;
            payload.visit_tensors(&mut |v| {
                state.tensor(t).apply_delta(v);
                t += 1;
            });
        }
        out.push(LocalResult { client: c, loss, payload });
    }
    record_comms_metrics(
        dropped.load(Ordering::Relaxed),
        corrupted.load(Ordering::Relaxed),
        script.total_retries(),
    );
    out
}

/// Trace context for an outbound frame: attached only when tracing is
/// armed *and* the local span is real, so untraced runs (including
/// recorder-only runs) keep the version-1 wire layout byte for byte.
fn wire_trace(parent: u64) -> Option<TraceContext> {
    (fedgta_obs::trace_on() && parent != 0).then(|| TraceContext {
        trace_id: fedgta_obs::run_trace_id(),
        parent_span: parent,
    })
}

/// Replays one scripted attempt: a dropped frame is counted and never
/// built, a corrupt one is built and bit-flipped in flight, a delivered
/// one is built and sent intact.
fn send_attempt(
    transport: &ChannelTransport,
    to: Endpoint,
    attempt: &AttemptFate,
    dropped: &AtomicU64,
    frame: impl FnOnce() -> Vec<u8>,
) {
    let frame = match attempt {
        AttemptFate::Drop => {
            dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        AttemptFate::Corrupt { bit_seed } => {
            let mut frame = frame();
            corrupt_frame(&mut frame, *bit_seed);
            frame
        }
        AttemptFate::Deliver { .. } => frame(),
    };
    // Unknown endpoints (out-of-range participants) lose the frame; the
    // slot check panics on them before anything trains.
    let _ = transport.send(to, frame);
}

/// Accumulates the transport fault counters into the global registry
/// (no-op below metrics level).
#[inline]
pub(crate) fn record_comms_metrics(dropped: u64, corrupted: u64, retries: u64) {
    use std::sync::{Arc, OnceLock};
    if !fedgta_obs::metrics_on() {
        return;
    }
    static DROPPED: OnceLock<Arc<fedgta_obs::Counter>> = OnceLock::new();
    static CORRUPTED: OnceLock<Arc<fedgta_obs::Counter>> = OnceLock::new();
    static RETRIES: OnceLock<Arc<fedgta_obs::Counter>> = OnceLock::new();
    DROPPED
        .get_or_init(|| fedgta_obs::global().counter("comms.dropped"))
        .add(dropped);
    CORRUPTED
        .get_or_init(|| fedgta_obs::global().counter("comms.corrupted"))
        .add(corrupted);
    RETRIES
        .get_or_init(|| fedgta_obs::global().counter("comms.retries"))
        .add(retries);
}

/// Runs `f(client_index, &mut client)` over an arbitrary subset of
/// clients (deterministically parallel, results in `indices` order).
///
/// The evaluation/prediction sibling of [`train_participants`] for code
/// that maps over clients without the loss bookkeeping — e.g. FedGL's
/// prediction fusion or global accuracy. Same ordering and uniqueness
/// contract.
pub fn par_clients<R, F>(
    clients: &mut [Client],
    indices: &[usize],
    threads: usize,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Client) -> R + Sync,
{
    let slots = disjoint_slots(clients, indices);
    run_slots(slots, threads, f)
}

/// Mean loss over local results (0 when empty).
pub fn mean_loss<R>(results: &[LocalResult<R>]) -> f32 {
    let n = results.len();
    if n == 0 {
        return 0.0;
    }
    results.iter().map(|r| r.loss).sum::<f32>() / n as f32
}

/// Collects disjoint `&mut Client` references for `indices`, preserving
/// the caller's order.
///
/// Single pass over `clients`: indices are argsorted, references are
/// picked up in ascending index order, then scattered back to the
/// caller's positions. Panics on duplicates or out-of-range indices.
fn disjoint_slots<'a>(
    clients: &'a mut [Client],
    indices: &[usize],
) -> Vec<(usize, &'a mut Client)> {
    let n = clients.len();
    let mut order: Vec<usize> = (0..indices.len()).collect();
    order.sort_unstable_by_key(|&p| indices[p]);
    for w in order.windows(2) {
        assert!(
            indices[w[0]] != indices[w[1]],
            "duplicate participant index {}",
            indices[w[0]]
        );
    }
    if let Some(&p) = order.last() {
        assert!(
            indices[p] < n,
            "participant index {} out of range (federation size {n})",
            indices[p]
        );
    }
    let mut picked: Vec<Option<(usize, &mut Client)>> = Vec::with_capacity(indices.len());
    picked.resize_with(indices.len(), || None);
    let mut rest = clients;
    let mut base = 0usize;
    for &pos in &order {
        let idx = indices[pos];
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(idx - base);
        let (slot, tail) = tail.split_first_mut().expect("index in range");
        picked[pos] = Some((idx, slot));
        rest = tail;
        base = idx + 1;
    }
    picked
        .into_iter()
        .map(|s| s.expect("every slot picked"))
        .collect()
}

/// Maps `f` over the slots in parallel, keeping slot order.
fn run_slots<R, F>(mut slots: Vec<(usize, &mut Client)>, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Client) -> R + Sync,
{
    par_map_indexed(&mut slots, Some(threads), |_, (i, c)| f(*i, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::test_support::small_federation;
    use fedgta_nn::models::ModelKind;

    #[test]
    fn results_follow_participant_order_even_when_unsorted() {
        let mut clients = small_federation(ModelKind::Sgc, 30);
        let order = [2usize, 0, 3];
        let results = train_participants(
            &mut clients,
            &order,
            &RoundCtx::plain(0),
            |i, c| (i as f32, c.id),
        );
        let got: Vec<usize> = results.iter().map(|r| r.client).collect();
        assert_eq!(got, order);
        for r in &results {
            assert_eq!(r.loss, r.client as f32);
            assert_eq!(r.payload, r.client);
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let train = |threads: usize| {
            let mut clients = small_federation(ModelKind::Sgc, 31);
            let ctx = RoundCtx::with_threads(2, threads);
            let r = train_participants(&mut clients, &[0, 1, 2, 3], &ctx, |i, c| {
                let mut hooks = fedgta_nn::TrainHooks::none();
                let loss = c.train_local(ctx.epochs, &mut hooks);
                (loss, (i, c.model.params()))
            });
            (
                r.iter().map(|x| x.loss.to_bits()).collect::<Vec<_>>(),
                r.into_iter().map(|x| x.payload.1).collect::<Vec<_>>(),
            )
        };
        assert_eq!(train(1), train(4));
    }

    #[test]
    #[should_panic(expected = "duplicate participant index")]
    fn duplicate_participants_panic() {
        let mut clients = small_federation(ModelKind::Sgc, 32);
        train_participants(&mut clients, &[1, 1], &RoundCtx::plain(0), |_, _| (0.0, ()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_participant_panics() {
        let mut clients = small_federation(ModelKind::Sgc, 33);
        train_participants(&mut clients, &[99], &RoundCtx::plain(0), |_, _| (0.0, ()));
    }

    #[test]
    fn empty_participants_give_empty_results() {
        let mut clients = small_federation(ModelKind::Sgc, 34);
        let r = train_participants(&mut clients, &[], &RoundCtx::plain(1), |_, _| (1.0, ()));
        assert!(r.is_empty());
        assert_eq!(mean_loss(&r), 0.0);
    }

    #[test]
    fn mean_loss_averages() {
        let r = vec![
            LocalResult { client: 0, loss: 1.0, payload: () },
            LocalResult { client: 1, loss: 3.0, payload: () },
        ];
        assert_eq!(mean_loss(&r), 2.0);
    }
}
