//! The one execution loop of every backend.
//!
//! One "attempt" spawns a thread per physical instance and runs it to
//! completion (or failure). The loops here carry the full protocol stack —
//! micro-batching, watermarks, aligned Chandy–Lamport barriers, the
//! overload-escalation ladder — and are used by three drivers:
//!
//! * [`crate::runtime::ThreadedRuntime`] runs one unsupervised attempt
//!   ([`run_local_attempt`]) over a [`LocalTransport`] with checkpointing
//!   off (`ckpt_interval == 0`: sources inject no barriers), and returns
//!   the attempt's root error as is;
//! * [`crate::fault::FtRuntime`] runs the same local attempt with barriers
//!   on, inside a restart loop that restores the last complete checkpoint;
//! * the distributed worker (see [`crate::distributed`]) runs only the
//!   instances placed on it, over a mesh transport whose remote endpoints
//!   serialize frames onto TCP connections.
//!
//! The backends therefore differ only in transport, clock and supervision.
//! The loops are transport-agnostic: downstream edges are plain
//! `Sender<Envelope>` handed out by a [`Transport`], and everything an
//! attempt reports — checkpoint parts, sink states, per-instance counters —
//! flows through in-process reporter channels that the driver either drains
//! locally or forwards over the wire. [`assemble_result`] folds a successful
//! attempt's reports into the [`RunResult`] every driver returns.

use crate::batch::{EdgeBatcher, FlushReason};
use crate::error::{EngineError, Result};
use crate::fault::FaultInjector;
use crate::message::{Message, WatermarkTracker};
use crate::operator::{OpKind, OperatorInstance};
use crate::physical::{OutRoute, PhysicalPlan, RouterState};
use crate::pressure::{PressureGauge, PressureLevel, Shedder};
use crate::runtime::{OperatorStats, RunConfig, RunResult, SourceFactory};
use crate::telemetry::Probe;
use crate::transport::{LocalTransport, Transport};
use crate::value::Tuple;
use crossbeam_channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use pdsp_telemetry::{FlightEventKind, RunTelemetry, SpanKind, TraceContext};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A frame on an instance's input queue: the input-channel slot it arrived
/// on (for watermark and barrier bookkeeping) plus the message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Envelope {
    pub(crate) channel: usize,
    pub(crate) msg: Message,
}

/// Time base for `emit_ns` / latency stamps.
///
/// Single-process runs measure against a local [`Instant`]; distributed
/// runs measure against a coordinator-chosen UNIX-epoch origin shipped in
/// the deploy message, so a tuple stamped on one worker and delivered on
/// another still yields a meaningful end-to-end latency (bounded by clock
/// skew between processes on the same host — the deployment this runtime
/// targets).
#[derive(Debug, Clone, Copy)]
pub(crate) enum RunClock {
    /// Nanoseconds since a local run start.
    Local(Instant),
    /// Nanoseconds since the given UNIX-epoch origin (ns).
    Epoch(u64),
}

impl RunClock {
    /// Current stamp in nanoseconds under this clock.
    pub(crate) fn now_ns(&self) -> u64 {
        match self {
            RunClock::Local(t0) => t0.elapsed().as_nanos() as u64,
            RunClock::Epoch(origin) => SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0)
                .saturating_sub(*origin),
        }
    }
}

/// Sink-side state: what a sink reports when it finishes or fails, and what
/// a driver restores it to (at-least-once, the failure-time partial).
/// Checkpoints carry it as a chain of [`SinkPart`]s.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct SinkState {
    pub(crate) captured: Vec<Tuple>,
    pub(crate) latencies: Vec<u64>,
    pub(crate) total: u64,
}

/// One sink's checkpoint part: the entries appended to its [`SinkState`]
/// since that sink's previous part *in the same attempt*. An attempt's
/// first part starts at 0, so it is full; later parts are deltas, which
/// keeps a part's size independent of run length.
#[derive(Debug, Serialize, Deserialize)]
struct SinkPart {
    total: u64,
    captured_from: usize,
    captured: Vec<Tuple>,
    latencies_from: usize,
    latencies: Vec<u64>,
}

impl SinkState {
    /// The part for a checkpoint taken now, given `marks` — the
    /// `(captured, latencies)` lengths at this sink's previous part — which
    /// then advance to the current lengths.
    fn part_since(&self, marks: &mut (usize, usize)) -> SinkPart {
        let part = SinkPart {
            total: self.total,
            captured_from: marks.0,
            captured: self.captured[marks.0..].to_vec(),
            latencies_from: marks.1,
            latencies: self.latencies[marks.1..].to_vec(),
        };
        *marks = (self.captured.len(), self.latencies.len());
        part
    }

    /// Lay `part` over this state: truncate to where the part starts, then
    /// append its entries. A part starting past the current end means an
    /// earlier part is missing.
    fn apply(&mut self, part: SinkPart) -> Result<()> {
        if part.captured_from > self.captured.len() || part.latencies_from > self.latencies.len() {
            return Err(EngineError::Checkpoint(format!(
                "sink part starts at ({}, {}) past the composed state's ({}, {})",
                part.captured_from,
                part.latencies_from,
                self.captured.len(),
                self.latencies.len()
            )));
        }
        self.captured.truncate(part.captured_from);
        self.captured.extend(part.captured);
        self.latencies.truncate(part.latencies_from);
        self.latencies.extend(part.latencies);
        self.total = part.total;
        Ok(())
    }
}

/// Checkpoint parts collected across attempts: id → instance → bytes. A
/// later attempt's part for the same id and instance replaces the earlier.
pub(crate) type CheckpointParts = BTreeMap<u64, HashMap<usize, Vec<u8>>>;

/// What a driver restores after a failure.
pub(crate) struct RestorePoint {
    /// Newest checkpoint with a part from every instance; `None` is a cold
    /// restart.
    pub(crate) id: Option<u64>,
    /// Restore payload by instance: source offsets and operator snapshots as
    /// taken, and each sink's full [`SinkState`] composed from its parts.
    pub(crate) restore: HashMap<usize, Vec<u8>>,
    /// Sum of the restored sinks' totals.
    pub(crate) sink_total: u64,
}

/// Find the newest complete checkpoint in `parts` and build its restore
/// map. A sink's state at checkpoint `c` is its parts with id ≤ `c` laid
/// over one another in ascending id order. That also holds across
/// attempts: a restarted attempt's first part is full and overrides the
/// deltas before it, and an older attempt's delta at a higher id truncates
/// onto a prefix the newer parts share with it.
pub(crate) fn restore_point(plan: &PhysicalPlan, parts: &CheckpointParts) -> Result<RestorePoint> {
    let n = plan.instance_count();
    let Some((&id, complete)) = parts.iter().rev().find(|(_, p)| p.len() == n) else {
        return Ok(RestorePoint {
            id: None,
            restore: HashMap::new(),
            sink_total: 0,
        });
    };
    let mut restore = complete.clone();
    let mut sink_total = 0;
    for inst in &plan.instances {
        if matches!(plan.logical.nodes[inst.node].kind, OpKind::Sink) {
            let st = compose_sink(parts, id, inst.id)?;
            sink_total += st.total;
            restore.insert(inst.id, encode(&st, "sink")?);
        }
    }
    Ok(RestorePoint {
        id: Some(id),
        restore,
        sink_total,
    })
}

/// Sink `inst`'s state at checkpoint `id`, rebuilt from its parts.
fn compose_sink(parts: &CheckpointParts, id: u64, inst: usize) -> Result<SinkState> {
    let mut st = SinkState::default();
    for bytes in parts.range(..=id).filter_map(|(_, p)| p.get(&inst)) {
        st.apply(decode(bytes, "sink")?)?;
    }
    Ok(st)
}

/// Final counters of one finished instance. Serializable so a distributed
/// worker can ship them in its `Done` report; a struct (not a tuple)
/// because the wire codec caps tuples at arity 4.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct InstanceStats {
    /// Logical node the instance belongs to.
    pub(crate) node: usize,
    pub(crate) tuples_in: u64,
    pub(crate) tuples_out: u64,
    pub(crate) shed: u64,
    pub(crate) late: u64,
}

/// Serialize a snapshot payload (checkpoint part, source offset, …).
pub(crate) fn encode<T: Serialize>(value: &T, what: &str) -> Result<Vec<u8>> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| EngineError::Checkpoint(format!("{what} snapshot: {e}")))
}

/// Inverse of [`encode`].
pub(crate) fn decode<T: serde::Deserialize>(bytes: &[u8], what: &str) -> Result<T> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| EngineError::Checkpoint(format!("{what} snapshot not utf-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| EngineError::Checkpoint(format!("{what} restore: {e}")))
}

/// Aligns checkpoint barriers across an instance's input channels. A
/// channel at EOS counts as having delivered every barrier (its prefix is
/// fully processed, so the snapshot stays consistent).
pub(crate) struct BarrierAligner {
    channels: usize,
    received: HashMap<u64, Vec<bool>>,
    closed: Vec<bool>,
}

impl BarrierAligner {
    pub(crate) fn new(channels: usize) -> Self {
        BarrierAligner {
            channels,
            received: HashMap::new(),
            closed: vec![false; channels],
        }
    }

    fn is_complete(&self, id: u64) -> bool {
        let Some(seen) = self.received.get(&id) else {
            return false;
        };
        (0..self.channels).all(|c| seen[c] || self.closed[c])
    }

    /// Record a barrier; returns true when checkpoint `id` just completed.
    pub(crate) fn barrier(&mut self, id: u64, channel: usize) -> bool {
        let seen = self
            .received
            .entry(id)
            .or_insert_with(|| vec![false; self.channels]);
        seen[channel] = true;
        let complete = self.is_complete(id);
        if complete {
            self.received.remove(&id);
        }
        complete
    }

    /// A channel reached EOS; returns ids (ascending) completed by it.
    pub(crate) fn close(&mut self, channel: usize) -> Vec<u64> {
        self.closed[channel] = true;
        let mut done: Vec<u64> = self
            .received
            .keys()
            .copied()
            .filter(|&id| self.is_complete(id))
            .collect();
        done.sort_unstable();
        for id in &done {
            self.received.remove(id);
        }
        done
    }
}

/// What [`next_envelope`] produced.
pub(crate) enum Polled {
    /// A processable envelope (possibly replayed from a pending buffer).
    Frame(Envelope),
    /// The received envelope was buffered (blocked channel); call again.
    Buffered,
    /// Nothing arrived within the timeout — flush partial batches.
    Idle,
    /// All input senders disconnected.
    Lost,
}

/// Pull the next processable envelope: buffered envelopes of unblocked
/// channels first, then the shared receiver (bounded by `timeout` so callers
/// can drain partial micro-batches on idle input). Frames — batches
/// included — are buffered whole when their channel is blocked, which is
/// what keeps exactly-once blocking correct at batch granularity.
pub(crate) fn next_envelope(
    rx: &Receiver<Envelope>,
    blocked: &[bool],
    pending: &mut [VecDeque<Envelope>],
    timeout: Duration,
) -> Polled {
    for (c, queue) in pending.iter_mut().enumerate() {
        if !blocked[c] {
            if let Some(env) = queue.pop_front() {
                return Polled::Frame(env);
            }
        }
    }
    match rx.recv_timeout(timeout) {
        Ok(env) => {
            if blocked[env.channel] {
                pending[env.channel].push_back(env);
                Polled::Buffered
            } else {
                Polled::Frame(env)
            }
        }
        Err(RecvTimeoutError::Timeout) => Polled::Idle,
        Err(RecvTimeoutError::Disconnected) => Polled::Lost,
    }
}

/// Fixed parameters of one attempt.
pub(crate) struct ExecSettings {
    /// Underlying runtime configuration (batching, capacities, overload).
    pub(crate) run: RunConfig,
    /// Block already-delivered barrier channels until the checkpoint
    /// completes (exactly-once semantics).
    pub(crate) exactly_once: bool,
    /// Source barrier cadence in tuples; `0` injects no barriers.
    pub(crate) ckpt_interval: u64,
}

/// Reporter channels one attempt writes into. Always in-process: the local
/// driver drains them after the join; the distributed worker forwards them
/// to the coordinator as they arrive (so checkpoint parts survive a later
/// SIGKILL of the worker).
#[derive(Clone)]
pub(crate) struct Reporters {
    /// `(checkpoint id, instance id, state bytes)` parts.
    pub(crate) coord_tx: Sender<(u64, usize, Vec<u8>)>,
    /// Final (on success) or partial (on failure) sink states by instance.
    pub(crate) sink_tx: Sender<(usize, SinkState)>,
    /// Counters of every finished instance.
    pub(crate) stats_tx: Sender<InstanceStats>,
}

/// One spawned instance: `(instance id, logical node, worker thread)`.
pub(crate) type InstanceHandle = (usize, usize, JoinHandle<Result<()>>);

/// Spawn the worker threads of one attempt.
///
/// When `local` is `Some`, only the instances it contains are spawned (the
/// distributed placement case) — their downstream edges may then resolve to
/// remote proxy senders through `transport`. `emitted_counters` is shared
/// across attempts: source instances publish their running offset there so
/// the supervisor can account replay after a failure.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_instances(
    plan: &PhysicalPlan,
    sources: &[Arc<dyn SourceFactory>],
    local: Option<&HashSet<usize>>,
    transport: &dyn Transport,
    receivers: &mut [Option<Receiver<Envelope>>],
    settings: &ExecSettings,
    injector: Option<FaultInjector>,
    restore: &HashMap<usize, Vec<u8>>,
    emitted_counters: &Arc<Vec<AtomicU64>>,
    clock: RunClock,
    reporters: &Reporters,
    tel: Option<&RunTelemetry>,
    restarted: bool,
) -> Result<Vec<InstanceHandle>> {
    let source_nodes = plan.logical.sources();
    if sources.len() != source_nodes.len() {
        return Err(EngineError::Execution(format!(
            "plan has {} source nodes but {} source factories were supplied",
            source_nodes.len(),
            sources.len()
        )));
    }
    let exactly_once = settings.exactly_once;
    let ckpt_interval = settings.ckpt_interval;
    let batch_size = settings.run.batch_size;
    let flush_after = Duration::from_millis(settings.run.flush_interval_ms);
    let mut handles = Vec::new();

    for inst in &plan.instances {
        if let Some(mine) = local {
            if !mine.contains(&inst.id) {
                continue;
            }
        }
        let node = &plan.logical.nodes[inst.node];
        let routes = plan.out_routes[inst.id].clone();
        let downstream = transport.downstream_for(&routes)?;
        let injector = injector.clone();
        let inst_id = inst.id;
        let lnode = inst.node;
        let index = inst.index;
        let restore_bytes = restore.get(&inst.id).cloned();
        let probe = Probe::for_instance(tel, inst.id, inst.node, inst.index)
            .with_trace(tel, &node.name, clock);
        if restarted {
            probe.restart();
        }

        match &node.kind {
            OpKind::Source { .. } => {
                let src_pos = source_nodes
                    .iter()
                    .position(|&s| s == inst.node)
                    .ok_or_else(|| {
                        EngineError::Execution(format!(
                            "instance {} references node {} which is not a source",
                            inst.id, inst.node
                        ))
                    })?;
                let factory = Arc::clone(&sources[src_pos]);
                let parallelism = node.parallelism;
                let wm_interval = settings.run.watermark_interval.max(1) as u64;
                let lateness = settings.run.watermark_lateness_ms;
                let stats_tx = reporters.stats_tx.clone();
                let coord_tx = reporters.coord_tx.clone();
                let counter = Arc::clone(emitted_counters);
                let start_offset = restore_bytes
                    .as_deref()
                    .map(|b| decode::<u64>(b, "source offset"))
                    .transpose()?
                    .unwrap_or(0);
                let worker = std::thread::spawn(move || -> Result<()> {
                    let mut outs = Outputs::new(routes, downstream, batch_size);
                    let mut max_et = i64::MIN;
                    let mut emitted = start_offset;
                    counter[inst_id].store(emitted, Ordering::SeqCst);
                    let iter = factory
                        .instance_iter(index, parallelism)
                        .skip(start_offset as usize);
                    for mut tuple in iter {
                        if let Some(inj) = &injector {
                            inj.check(lnode, index, emitted - start_offset)?;
                        }
                        tuple.emit_ns = clock.now_ns();
                        max_et = max_et.max(tuple.event_time);
                        // Head sampling keys off the absolute source offset,
                        // so a restarted attempt re-traces the same tuples.
                        let traced = probe.trace_sample(emitted);
                        emitted += 1;
                        counter[inst_id].store(emitted, Ordering::SeqCst);
                        if traced {
                            let ctx = probe.trace_source(tuple.emit_ns);
                            outs.batcher
                                .set_active_trace(ctx.map(|c| (c, tuple.emit_ns)));
                        }
                        outs.scatter(&probe, tuple)?;
                        if traced {
                            outs.batcher.set_active_trace(None);
                        }
                        probe.tuples_out(1);
                        if ckpt_interval > 0 && emitted.is_multiple_of(ckpt_interval) {
                            let id = emitted / ckpt_interval;
                            let ck0 = probe.now_if();
                            let _ =
                                coord_tx.send((id, inst_id, encode(&emitted, "source offset")?));
                            // Flushing before the barrier pins the barrier to
                            // a batch boundary: every tuple up to `emitted`
                            // precedes it on channel.
                            outs.flush_then_broadcast(
                                &probe,
                                Message::Barrier(id),
                                FlushReason::Marker,
                            )?;
                            if let Some(t0) = ck0 {
                                probe.checkpoint(t0.elapsed().as_nanos() as u64);
                                probe.event(
                                    FlightEventKind::BarrierInjected,
                                    format!("barrier {id} at offset {emitted}"),
                                );
                            }
                        }
                        if emitted.is_multiple_of(wm_interval) {
                            let wm = max_et.saturating_sub(lateness);
                            outs.flush_then_broadcast(
                                &probe,
                                Message::Watermark(wm),
                                FlushReason::Marker,
                            )?;
                        }
                    }
                    outs.flush_then_broadcast(&probe, Message::Eos, FlushReason::Eos)?;
                    let _ = stats_tx.send(InstanceStats {
                        node: lnode,
                        tuples_in: emitted,
                        tuples_out: emitted,
                        ..InstanceStats::default()
                    });
                    Ok(())
                });
                handles.push((lnode, index, worker));
            }
            OpKind::Sink => {
                let rx = take_receiver(receivers, inst.id)?;
                let channels = plan.input_channel_count[inst.id];
                let sink_tx = reporters.sink_tx.clone();
                let stats_tx = reporters.stats_tx.clone();
                let coord_tx = reporters.coord_tx.clone();
                let capture_limit = settings.run.capture_limit;
                let name = node.name.clone();
                let worker = std::thread::spawn(move || -> Result<()> {
                    let mut st = match restore_bytes.as_deref() {
                        Some(b) => decode::<SinkState>(b, "sink")?,
                        None => SinkState::default(),
                    };
                    let mut aligner = BarrierAligner::new(channels);
                    let mut blocked = vec![false; channels];
                    let mut pending: Vec<VecDeque<Envelope>> =
                        (0..channels).map(|_| VecDeque::new()).collect();
                    let mut closed = 0usize;
                    let mut seen_this_attempt = 0u64;
                    // Lengths at this attempt's previous part: each part
                    // carries only what was delivered since.
                    let mut marks = (0usize, 0usize);
                    let checkpoint = |st: &SinkState,
                                      marks: &mut (usize, usize),
                                      id: u64,
                                      note: &str|
                     -> Result<()> {
                        let ck0 = probe.now_if();
                        let _ =
                            coord_tx.send((id, inst_id, encode(&st.part_since(marks), "sink")?));
                        if let Some(t0) = ck0 {
                            probe.checkpoint(t0.elapsed().as_nanos() as u64);
                            probe.event(
                                FlightEventKind::CheckpointCompleted,
                                format!("sink checkpoint {id}{note}"),
                            );
                        }
                        Ok(())
                    };
                    while closed < channels {
                        let wait = probe.now_if();
                        let env = match next_envelope(&rx, &blocked, &mut pending, flush_after) {
                            Polled::Frame(env) => env,
                            Polled::Lost => {
                                // Upstream died: hand the partial state to
                                // the supervisor before erroring.
                                let _ = sink_tx.send((inst_id, st));
                                return Err(EngineError::Execution(format!(
                                    "sink '{name}' lost its input channels"
                                )));
                            }
                            // Sinks send nothing downstream, so idle
                            // timeouts need no flush.
                            Polled::Buffered | Polled::Idle => continue,
                        };
                        let work = probe.mark_idle(wait);
                        if probe.enabled() {
                            probe.queue_depth(rx.len());
                        }
                        // A frame's tuples all arrive at one instant, so
                        // delivery time is stamped once per frame.
                        let deliver = |t: Tuple, now: u64, st: &mut SinkState| {
                            let latency = now.saturating_sub(t.emit_ns);
                            st.latencies.push(latency);
                            probe.latency_ns(latency);
                            st.total += 1;
                            if st.captured.len() < capture_limit {
                                st.captured.push(t);
                            }
                        };
                        match env.msg {
                            Message::Data(t) => {
                                if let Some(inj) = &injector {
                                    if let Err(e) = inj.check(lnode, index, seen_this_attempt) {
                                        let _ = sink_tx.send((inst_id, st));
                                        return Err(e);
                                    }
                                }
                                seen_this_attempt += 1;
                                let now = clock.now_ns();
                                probe.tuples_in(1);
                                deliver(t, now, &mut st);
                            }
                            Message::Batch(b) => {
                                let now = clock.now_ns();
                                probe.tuples_in(b.len() as u64);
                                // Queue span: sender flush (or, distributed,
                                // local re-stamp at the receiving acceptor) →
                                // sink dequeue.
                                let tctx = b.trace.map(|ft| {
                                    probe.trace_span(ft.ctx, SpanKind::Queue, ft.sent_ns, now)
                                });
                                if let Some(c) = tctx {
                                    probe.trace_active(Some(c));
                                }
                                for t in b.tuples {
                                    if let Some(inj) = &injector {
                                        if let Err(e) = inj.check(lnode, index, seen_this_attempt) {
                                            let _ = sink_tx.send((inst_id, st));
                                            return Err(e);
                                        }
                                    }
                                    seen_this_attempt += 1;
                                    deliver(t, now, &mut st);
                                }
                                if let Some(ctx) = tctx {
                                    probe.trace_span(ctx, SpanKind::Deliver, now, clock.now_ns());
                                }
                            }
                            Message::Watermark(_) => {}
                            Message::Barrier(id) => {
                                if aligner.barrier(id, env.channel) {
                                    checkpoint(&st, &mut marks, id, "")?;
                                    blocked.iter_mut().for_each(|b| *b = false);
                                } else if exactly_once {
                                    blocked[env.channel] = true;
                                }
                            }
                            Message::Eos => {
                                closed += 1;
                                blocked[env.channel] = false;
                                for id in aligner.close(env.channel) {
                                    checkpoint(&st, &mut marks, id, " (at EOS)")?;
                                    blocked.iter_mut().for_each(|b| *b = false);
                                }
                            }
                        }
                        probe.mark_busy(work);
                    }
                    let _ = stats_tx.send(InstanceStats {
                        node: lnode,
                        tuples_in: st.total,
                        ..InstanceStats::default()
                    });
                    let _ = sink_tx.send((inst_id, st));
                    Ok(())
                });
                handles.push((lnode, index, worker));
            }
            kind => {
                let mut op = kind.instantiate();
                if settings.run.overload.allowed_lateness_ms > 0 {
                    op.set_allowed_lateness(settings.run.overload.allowed_lateness_ms);
                }
                if let Some(b) = restore_bytes.as_deref() {
                    op.restore(b)?;
                }
                let rx = take_receiver(receivers, inst.id)?;
                let channels = plan.input_channel_count[inst.id];
                let ports = plan.channel_ports[inst.id].clone();
                let name = node.name.clone();
                let stats_tx = reporters.stats_tx.clone();
                let coord_tx = reporters.coord_tx.clone();
                let overload = settings.run.overload.clone();
                let gauge = overload
                    .enabled
                    .then(|| PressureGauge::new(&overload, settings.run.frame_capacity()));
                let mut shedder =
                    Shedder::new(overload.shed_policy.clone(), overload.seed, inst.id as u64);
                let worker = std::thread::spawn(move || -> Result<()> {
                    let mut outs = Outputs::new(routes, downstream, batch_size);
                    let mut tracker = WatermarkTracker::new(channels);
                    let mut aligner = BarrierAligner::new(channels);
                    let mut blocked = vec![false; channels];
                    let mut pending: Vec<VecDeque<Envelope>> =
                        (0..channels).map(|_| VecDeque::new()).collect();
                    let mut out = Vec::new();
                    let mut closed = 0usize;
                    let (mut n_in, mut n_out, mut n_shed) = (0u64, 0u64, 0u64);
                    let mut linger = flush_after;
                    let mut shed_fraction = 0.0f64;
                    // Context of the last traced frame absorbed by a windowed
                    // operator, consumed when a later pane fire emits results.
                    let mut window_ctx: Option<TraceContext> = None;
                    let checkpoint =
                        |op: &dyn OperatorInstance, id: u64, probe: &Probe| -> Result<()> {
                            let ck0 = probe.now_if();
                            let _ = coord_tx.send((id, inst_id, op.snapshot()?));
                            if let Some(t0) = ck0 {
                                probe.checkpoint(t0.elapsed().as_nanos() as u64);
                                probe.event(
                                    FlightEventKind::CheckpointCompleted,
                                    format!("operator checkpoint {id}"),
                                );
                            }
                            Ok(())
                        };
                    while closed < channels {
                        let wait = probe.now_if();
                        let env = match next_envelope(&rx, &blocked, &mut pending, linger) {
                            Polled::Frame(env) => env,
                            Polled::Lost => {
                                return Err(EngineError::Execution(format!(
                                    "operator '{name}' lost its input channels"
                                )));
                            }
                            Polled::Idle => {
                                // Nothing arrived within the linger window:
                                // push partial batches downstream so quiet
                                // streams keep bounded latency.
                                outs.flush_all(&probe, FlushReason::Linger)?;
                                continue;
                            }
                            Polled::Buffered => continue,
                        };
                        let work = probe.mark_idle(wait);
                        let depth = rx.len();
                        if probe.enabled() {
                            probe.queue_depth(depth);
                        }
                        if let Some(g) = &gauge {
                            // Escalation ladder: rung from the bounded input
                            // queue's occupancy — identical to the threaded
                            // runtime, so the overload books balance
                            // regardless of where the instance runs.
                            let level = g.level(depth);
                            probe.pressure(level as u64);
                            match level {
                                PressureLevel::Normal => {
                                    outs.batcher.set_max(batch_size);
                                    linger = flush_after;
                                    shed_fraction = 0.0;
                                }
                                PressureLevel::Batch | PressureLevel::Shed => {
                                    outs.batcher.set_max(batch_size * overload.batch_growth);
                                    linger = (flush_after / 2).max(Duration::from_millis(1));
                                    // 0 below the shed rung.
                                    shed_fraction = g.shed_fraction(depth);
                                }
                            }
                        }
                        match env.msg {
                            Message::Data(t) => {
                                if let Some(inj) = &injector {
                                    inj.check(lnode, index, n_in)?;
                                }
                                n_in += 1;
                                probe.tuples_in(1);
                                if shed_fraction > 0.0
                                    && shedder.should_shed(shed_fraction, &t, 0, 1)
                                {
                                    n_shed += 1;
                                    probe.shed(1);
                                    probe.mark_busy(work);
                                    continue;
                                }
                                out.clear();
                                op.on_tuple(ports[env.channel], t, &mut out)?;
                                n_out += out.len() as u64;
                                probe.tuples_out(out.len() as u64);
                                for t in out.drain(..) {
                                    outs.scatter(&probe, t)?;
                                }
                            }
                            Message::Batch(b) => {
                                let port = ports[env.channel];
                                let frame_len = b.tuples.len();
                                let ftrace = b.trace;
                                let t_deq = if ftrace.is_some() { clock.now_ns() } else { 0 };
                                out.clear();
                                if injector.is_some() {
                                    // Fault triggers count individual tuples,
                                    // so an armed injector must observe each
                                    // one — the batch is unrolled to keep
                                    // fault points at tuple granularity.
                                    for (i, t) in b.tuples.into_iter().enumerate() {
                                        if let Some(inj) = &injector {
                                            inj.check(lnode, index, n_in)?;
                                        }
                                        n_in += 1;
                                        probe.tuples_in(1);
                                        if shed_fraction > 0.0
                                            && shedder.should_shed(shed_fraction, &t, i, frame_len)
                                        {
                                            n_shed += 1;
                                            probe.shed(1);
                                            continue;
                                        }
                                        op.on_tuple(port, t, &mut out)?;
                                    }
                                } else {
                                    n_in += frame_len as u64;
                                    probe.tuples_in(frame_len as u64);
                                    let tuples = if shed_fraction > 0.0 {
                                        let mut kept = Vec::with_capacity(frame_len);
                                        let mut dropped = 0u64;
                                        for (i, t) in b.tuples.into_iter().enumerate() {
                                            if shedder.should_shed(shed_fraction, &t, i, frame_len)
                                            {
                                                dropped += 1;
                                            } else {
                                                kept.push(t);
                                            }
                                        }
                                        n_shed += dropped;
                                        probe.shed(dropped);
                                        kept
                                    } else {
                                        b.tuples
                                    };
                                    op.on_batch(port, tuples, &mut out)?;
                                }
                                n_out += out.len() as u64;
                                probe.tuples_out(out.len() as u64);
                                // Queue span: sender flush → dequeue here;
                                // Process span: dequeue → outputs ready.
                                let out_ctx = ftrace.map(|ft| {
                                    let ctx = probe.trace_span(
                                        ft.ctx,
                                        SpanKind::Queue,
                                        ft.sent_ns,
                                        t_deq,
                                    );
                                    let done = probe.trace_now();
                                    (probe.trace_span(ctx, SpanKind::Process, t_deq, done), done)
                                });
                                if let Some((c, _)) = out_ctx {
                                    probe.trace_active(Some(c));
                                    window_ctx = Some(c);
                                }
                                outs.scatter_traced(&probe, &mut out, out_ctx)?;
                            }
                            Message::Watermark(wm) => {
                                if let Some(w) = tracker.observe(env.channel, wm) {
                                    out.clear();
                                    op.on_watermark(w, &mut out);
                                    n_out += out.len() as u64;
                                    probe.tuples_out(out.len() as u64);
                                    if !out.is_empty() {
                                        probe.event(
                                            FlightEventKind::PaneFired,
                                            format!("watermark {w}: {} results", out.len()),
                                        );
                                    }
                                    let wctx = pane_trace(&out, &mut window_ctx, &probe);
                                    outs.scatter_traced(&probe, &mut out, wctx)?;
                                    outs.flush_then_broadcast(
                                        &probe,
                                        Message::Watermark(w),
                                        FlushReason::Marker,
                                    )?;
                                }
                            }
                            Message::Barrier(id) => {
                                if aligner.barrier(id, env.channel) {
                                    checkpoint(&*op, id, &probe)?;
                                    // Flush-then-forward keeps the barrier at
                                    // a batch boundary: all pre-checkpoint
                                    // tuples reach every downstream channel
                                    // before the barrier does.
                                    outs.flush_then_broadcast(
                                        &probe,
                                        Message::Barrier(id),
                                        FlushReason::Marker,
                                    )?;
                                    blocked.iter_mut().for_each(|b| *b = false);
                                } else if exactly_once {
                                    blocked[env.channel] = true;
                                }
                            }
                            Message::Eos => {
                                closed += 1;
                                blocked[env.channel] = false;
                                for id in aligner.close(env.channel) {
                                    checkpoint(&*op, id, &probe)?;
                                    outs.flush_then_broadcast(
                                        &probe,
                                        Message::Barrier(id),
                                        FlushReason::Marker,
                                    )?;
                                    blocked.iter_mut().for_each(|b| *b = false);
                                }
                                if let Some(w) = tracker.close_channel(env.channel) {
                                    if closed < channels {
                                        out.clear();
                                        op.on_watermark(w, &mut out);
                                        n_out += out.len() as u64;
                                        probe.tuples_out(out.len() as u64);
                                        let wctx = pane_trace(&out, &mut window_ctx, &probe);
                                        outs.scatter_traced(&probe, &mut out, wctx)?;
                                    }
                                }
                            }
                        }
                        if probe.enabled() {
                            probe.window_state(op.panes_fired(), op.late_events());
                        }
                        probe.mark_busy(work);
                    }
                    out.clear();
                    op.on_flush(&mut out);
                    n_out += out.len() as u64;
                    probe.tuples_out(out.len() as u64);
                    if probe.enabled() {
                        probe.window_state(op.panes_fired(), op.late_events());
                    }
                    let wctx = pane_trace(&out, &mut window_ctx, &probe);
                    outs.scatter_traced(&probe, &mut out, wctx)?;
                    outs.flush_then_broadcast(&probe, Message::Eos, FlushReason::Eos)?;
                    if gauge.is_some() {
                        // The queue is drained: report the gauge at rest so
                        // post-run alarm evaluation sees recovery, not the
                        // last mid-storm level.
                        probe.pressure(PressureLevel::Normal as u64);
                    }
                    let _ = stats_tx.send(InstanceStats {
                        node: lnode,
                        tuples_in: n_in,
                        tuples_out: n_out,
                        shed: n_shed,
                        late: op.late_events(),
                    });
                    Ok(())
                });
                handles.push((lnode, index, worker));
            }
        }
    }
    Ok(handles)
}

/// An instance's output side: its out-routes, the downstream senders of
/// each, the partitioners' state, and the batcher that frames tuples onto
/// them.
struct Outputs {
    routes: Vec<OutRoute>,
    downstream: Vec<Vec<Sender<Envelope>>>,
    router: RouterState,
    batcher: EdgeBatcher,
}

impl Outputs {
    fn new(routes: Vec<OutRoute>, downstream: Vec<Vec<Sender<Envelope>>>, batch: usize) -> Self {
        Outputs {
            router: RouterState::new(routes.len()),
            batcher: EdgeBatcher::new(&routes, batch),
            routes,
            downstream,
        }
    }

    /// Route one tuple through every out-edge partitioner.
    fn scatter(&mut self, probe: &Probe, tuple: Tuple) -> Result<()> {
        self.batcher.scatter(
            &self.routes,
            &self.downstream,
            &mut self.router,
            probe,
            tuple,
        )
    }

    /// Scatter an operator's outputs. Every frame they open inherits
    /// `trace` (a context and the time it was buffered from); the context
    /// is cleared afterwards so later outputs start untraced.
    fn scatter_traced(
        &mut self,
        probe: &Probe,
        out: &mut Vec<Tuple>,
        trace: Option<(TraceContext, u64)>,
    ) -> Result<()> {
        self.batcher.set_active_trace(trace);
        for t in out.drain(..) {
            self.scatter(probe, t)?;
        }
        self.batcher.set_active_trace(None);
        Ok(())
    }

    /// Push every partial batch downstream.
    fn flush_all(&mut self, probe: &Probe, reason: FlushReason) -> Result<()> {
        self.batcher
            .flush_all(&self.routes, &self.downstream, probe, reason)
    }

    /// Flush, then send a marker (watermark, barrier, EOS) on every edge.
    fn flush_then_broadcast(
        &mut self,
        probe: &Probe,
        msg: Message,
        reason: FlushReason,
    ) -> Result<()> {
        self.batcher
            .flush_then_broadcast(&self.routes, &self.downstream, probe, msg, reason)
    }
}

/// Context that pane results continue: the last traced frame the window
/// absorbed, buffered from now, so window residency shows as a gap on the
/// critical path. Consumed only when the fire emitted something.
fn pane_trace(
    out: &[Tuple],
    window_ctx: &mut Option<TraceContext>,
    probe: &Probe,
) -> Option<(TraceContext, u64)> {
    if out.is_empty() {
        return None;
    }
    window_ctx.take().map(|c| (c, probe.trace_now()))
}

/// Join an attempt's worker threads, record failures in the flight
/// recorder, and reduce them to the root-cause error (channel-disconnect
/// cascades rank behind the panic or fault that started them).
pub(crate) fn join_instances(
    handles: Vec<InstanceHandle>,
    tel: Option<&RunTelemetry>,
) -> Option<EngineError> {
    let mut errors: Vec<EngineError> = Vec::new();
    for (node, instance, h) in handles {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                if let Some(t) = tel {
                    let kind = match &e {
                        EngineError::FaultInjected { .. } => FlightEventKind::FaultInjected,
                        _ => FlightEventKind::WorkerFailed,
                    };
                    t.recorder.record(kind, node, instance, e.to_string());
                }
                errors.push(e);
            }
            Err(payload) => {
                let cause = panic_cause(&*payload);
                if let Some(t) = tel {
                    t.recorder.record(
                        FlightEventKind::WorkerPanicked,
                        node,
                        instance,
                        cause.clone(),
                    );
                }
                errors.push(EngineError::WorkerPanicked {
                    node,
                    instance,
                    cause,
                });
            }
        }
    }
    pick_root_error(errors)
}

/// Everything one local attempt reports back to its driver.
pub(crate) struct Attempt {
    /// `Err` holds the root cause of a failed attempt.
    pub(crate) outcome: std::result::Result<(), EngineError>,
    /// `(checkpoint id, instance id, state bytes)` parts produced.
    pub(crate) new_parts: Vec<(u64, usize, Vec<u8>)>,
    /// Final (on success) or partial (on failure) sink states by instance.
    pub(crate) sink_states: HashMap<usize, SinkState>,
    /// Counters of every instance that finished.
    pub(crate) op_stats: Vec<InstanceStats>,
}

/// Spawn one full topology in this process over a [`LocalTransport`], join
/// it, and report what happened. Nothing is retried here; `Err` from this
/// function is a setup failure (no worker ran).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_local_attempt(
    plan: &PhysicalPlan,
    sources: &[Arc<dyn SourceFactory>],
    settings: &ExecSettings,
    injector: Option<FaultInjector>,
    restore: &HashMap<usize, Vec<u8>>,
    emitted_counters: &Arc<Vec<AtomicU64>>,
    start: Instant,
    tel: Option<&RunTelemetry>,
    restarted: bool,
) -> Result<Attempt> {
    let (senders, mut receivers): (Vec<_>, Vec<_>) = (0..plan.instance_count())
        .map(|_| {
            let (tx, rx) = bounded::<Envelope>(settings.run.frame_capacity());
            (tx, Some(rx))
        })
        .unzip();
    let transport = LocalTransport::new(senders);
    // Unbounded so post-join draining can never block a worker.
    let (sink_tx, sink_rx) = unbounded();
    let (stats_tx, stats_rx) = unbounded();
    let (coord_tx, coord_rx) = unbounded();
    let reporters = Reporters {
        coord_tx,
        sink_tx,
        stats_tx,
    };
    let handles = spawn_instances(
        plan,
        sources,
        None,
        &transport,
        &mut receivers,
        settings,
        injector,
        restore,
        emitted_counters,
        RunClock::Local(start),
        &reporters,
        tel,
        restarted,
    )?;
    // Drop our copies so receivers see disconnects if a worker dies.
    drop(reporters);
    drop(transport);

    let outcome = match join_instances(handles, tel) {
        Some(e) => Err(e),
        None => Ok(()),
    };
    Ok(Attempt {
        outcome,
        new_parts: coord_rx.iter().collect(),
        sink_states: sink_rx.iter().collect(),
        op_stats: stats_rx.iter().collect(),
    })
}

/// Fold a successful attempt's reports into a [`RunResult`]. Sink outputs
/// are concatenated in instance-id order, so `sink_tuples[i]` pairs with
/// `latencies_ns[i]` up to `capture_limit`; `emitted(instance)` is a source
/// instance's final offset.
pub(crate) fn assemble_result(
    plan: &PhysicalPlan,
    capture_limit: usize,
    sink_states: HashMap<usize, SinkState>,
    op_stats: &[InstanceStats],
    emitted: impl Fn(usize) -> u64,
    start: Instant,
) -> RunResult {
    let mut operator_stats: Vec<OperatorStats> = plan
        .logical
        .nodes
        .iter()
        .map(|node| OperatorStats {
            node: node.id,
            name: node.name.clone(),
            ..OperatorStats::default()
        })
        .collect();
    for s in op_stats {
        let slot = &mut operator_stats[s.node];
        slot.tuples_in += s.tuples_in;
        slot.tuples_out += s.tuples_out;
        slot.shed += s.shed;
        slot.late += s.late;
    }
    let mut ordered: Vec<(usize, SinkState)> = sink_states.into_iter().collect();
    ordered.sort_unstable_by_key(|&(i, _)| i);
    let (mut sink_tuples, mut latencies_ns, mut tuples_out) = (Vec::new(), Vec::new(), 0);
    for (_, st) in ordered {
        let room = capture_limit - sink_tuples.len().min(capture_limit);
        sink_tuples.extend(st.captured.into_iter().take(room));
        latencies_ns.extend(st.latencies);
        tuples_out += st.total;
    }
    RunResult {
        sink_tuples,
        latencies_ns,
        tuples_out,
        tuples_in: plan.source_instances().into_iter().map(emitted).sum(),
        elapsed: start.elapsed(),
        operator_stats,
    }
}

/// One worker dying tears down its neighbours through channel disconnects,
/// so several workers usually fail at once. The panic or injected fault
/// that started the cascade is the root cause; generic channel-disconnect
/// `Execution` errors are downstream symptoms and rank last.
pub(crate) fn pick_root_error(errors: Vec<EngineError>) -> Option<EngineError> {
    fn rank(e: &EngineError) -> u8 {
        match e {
            EngineError::WorkerPanicked { .. } | EngineError::FaultInjected { .. } => 0,
            EngineError::Execution(_) => 2,
            _ => 1,
        }
    }
    errors.into_iter().fold(None, |best, e| match best {
        None => Some(e),
        Some(b) if rank(&e) < rank(&b) => Some(e),
        Some(b) => Some(b),
    })
}

/// Extract a human-readable message from a panic payload (the payloads
/// `panic!` produces are `&str` or `String`; anything else is opaque).
pub(crate) fn panic_cause(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Take an instance's receiver out of the shared table exactly once.
pub(crate) fn take_receiver(
    receivers: &mut [Option<Receiver<Envelope>>],
    id: usize,
) -> Result<Receiver<Envelope>> {
    receivers.get_mut(id).and_then(Option::take).ok_or_else(|| {
        EngineError::Execution(format!(
            "internal routing error: receiver for instance {id} missing or already taken"
        ))
    })
}

/// Send a control message (watermark, barrier, EOS) to every downstream
/// target of every route. Data never travels this way — it goes through the
/// [`EdgeBatcher`], which flushes pending batches *before* any marker is
/// broadcast so channel order is preserved.
pub(crate) fn broadcast(
    routes: &[OutRoute],
    downstream: &[Vec<Sender<Envelope>>],
    msg: Message,
) -> Result<()> {
    for (ri, route) in routes.iter().enumerate() {
        for (i, target) in route.targets.iter().enumerate() {
            downstream[ri][i]
                .send(Envelope {
                    channel: target.channel,
                    msg: msg.clone(),
                })
                .map_err(|_| EngineError::Execution("downstream disconnected".into()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligner_completes_when_all_channels_deliver() {
        let mut a = BarrierAligner::new(3);
        assert!(!a.barrier(1, 0));
        assert!(!a.barrier(1, 1));
        assert!(a.barrier(1, 2));
    }

    #[test]
    fn aligner_counts_closed_channels_as_delivered() {
        let mut a = BarrierAligner::new(2);
        assert!(a.close(1).is_empty());
        assert!(a.barrier(1, 0), "closed channel no longer constrains");
    }

    #[test]
    fn aligner_close_completes_outstanding_ids_in_order() {
        let mut a = BarrierAligner::new(2);
        assert!(!a.barrier(2, 0));
        assert!(!a.barrier(1, 0));
        assert_eq!(a.close(1), vec![1, 2]);
    }

    #[test]
    fn aligner_tracks_multiple_outstanding_ids() {
        // At-least-once: a fast channel delivers barrier 2 before the slow
        // one delivers barrier 1.
        let mut a = BarrierAligner::new(2);
        assert!(!a.barrier(1, 0));
        assert!(!a.barrier(2, 0));
        assert!(a.barrier(1, 1));
        assert!(a.barrier(2, 1));
    }

    #[test]
    fn epoch_clock_is_monotone_against_its_origin() {
        let origin = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64;
        let clock = RunClock::Epoch(origin);
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        // A fresh origin yields small offsets (well under an hour).
        assert!(a < 3_600_000_000_000_000);
    }

    /// Both local drivers run the same attempt; only `FtRuntime` may turn a
    /// failed one into a restart.
    #[test]
    fn only_the_fault_tolerant_driver_supervises_the_shared_attempt() {
        use crate::builder::PlanBuilder;
        use crate::fault::{FtConfig, FtRuntime};
        use crate::runtime::{ThreadedRuntime, VecSource};
        use crate::udo::{CostProfile, FnUdo};
        use crate::value::{FieldType, Schema, Value};
        use std::sync::atomic::AtomicBool;

        let plan_with_first_call_panic = || {
            let fired = Arc::new(AtomicBool::new(false));
            let udo = FnUdo::new(
                "flaky",
                CostProfile::stateless(100.0, 1.0),
                |s: &Schema| s.clone(),
                move |t: Tuple, out: &mut Vec<Tuple>| {
                    if !fired.swap(true, Ordering::SeqCst) {
                        panic!("first call fails");
                    }
                    out.push(t);
                },
            );
            let logical = PlanBuilder::new()
                .source("src", Schema::of(&[FieldType::Int]), 1)
                .udo("flaky", udo)
                .sink("sink")
                .build()
                .unwrap();
            PhysicalPlan::expand(&logical).unwrap()
        };
        let tuples =
            || -> Vec<Tuple> { (0..100).map(|i| Tuple::new(vec![Value::Int(i)])).collect() };

        let threaded = ThreadedRuntime::new(RunConfig::default())
            .run(&plan_with_first_call_panic(), &[VecSource::new(tuples())]);
        match threaded {
            Err(EngineError::WorkerPanicked { node, cause, .. }) => {
                assert_eq!(node, 1, "the UDO is logical node 1");
                assert!(cause.contains("first call fails"), "cause: {cause}");
            }
            other => panic!("the threaded backend must not restart, got {other:?}"),
        }

        let ft = FtRuntime::new(FtConfig::default())
            .run(
                &plan_with_first_call_panic(),
                &[VecSource::new(tuples())],
                None,
            )
            .expect("the fault-tolerant backend recovers");
        assert_eq!(ft.recovery.attempts, 2);
        assert_eq!(ft.result.tuples_out, 100);
    }

    fn row(v: i64) -> Tuple {
        Tuple::new(vec![crate::value::Value::Int(v)])
    }

    /// A sink part whose entries are `vs`, with latency = value.
    fn part(from: usize, vs: &[i64], total: u64) -> Vec<u8> {
        let p = SinkPart {
            total,
            captured_from: from,
            captured: vs.iter().map(|&v| row(v)).collect(),
            latencies_from: from,
            latencies: vs.iter().map(|&v| v as u64).collect(),
        };
        encode(&p, "sink").unwrap()
    }

    /// Sink parts of instance 0 only, keyed by checkpoint id.
    fn sink_parts(ps: Vec<(u64, Vec<u8>)>) -> CheckpointParts {
        ps.into_iter()
            .map(|(id, bytes)| (id, HashMap::from([(0, bytes)])))
            .collect()
    }

    fn values(st: &SinkState) -> Vec<i64> {
        let vs: Vec<i64> = st
            .captured
            .iter()
            .map(|t| match t.values[0] {
                crate::value::Value::Int(v) => v,
                ref other => panic!("unexpected value {other:?}"),
            })
            .collect();
        let lat: Vec<i64> = st.latencies.iter().map(|&l| l as i64).collect();
        assert_eq!(vs, lat, "captured and latencies stay aligned");
        vs
    }

    #[test]
    fn exactly_once_parts_compose_to_the_checkpoint_state() {
        let parts = sink_parts(vec![
            (1, part(0, &[1, 2], 2)),
            (2, part(2, &[3], 3)),
            (3, part(3, &[4, 5], 5)),
        ]);
        let st = compose_sink(&parts, 3, 0).unwrap();
        assert_eq!(values(&st), vec![1, 2, 3, 4, 5]);
        assert_eq!(st.total, 5);
        let mid = compose_sink(&parts, 2, 0).unwrap();
        assert_eq!(values(&mid), vec![1, 2, 3], "later parts are ignored");
        assert_eq!(mid.total, 3);
    }

    #[test]
    fn a_restarted_attempts_full_part_overrides_older_deltas() {
        // Attempt 1 took parts 1–3, failed, and restored checkpoint 2.
        // Attempt 2's first part (id 3) starts at 0 and replaces attempt
        // 1's part 3; its part 4 is a delta on top.
        let mut parts = sink_parts(vec![
            (1, part(0, &[1, 2], 2)),
            (2, part(2, &[3], 3)),
            (3, part(3, &[40], 4)),
        ]);
        parts
            .get_mut(&3)
            .unwrap()
            .insert(0, part(0, &[1, 2, 3, 4], 4));
        parts.insert(4, HashMap::from([(0, part(4, &[5], 5))]));
        let st = compose_sink(&parts, 4, 0).unwrap();
        assert_eq!(values(&st), vec![1, 2, 3, 4, 5]);
        assert_eq!(st.total, 5);
    }

    #[test]
    fn at_least_once_older_delta_truncates_onto_the_shared_prefix() {
        // Attempt 1: parts 1–4, then it fails with partial [1, 2, 3, 4, 5, 6]
        // and checkpoint 2 is restored; the sink keeps the partial. Attempt
        // 2's first part (id 3) is full: the partial plus a delivery 7. It
        // fails before its sink reaches barrier 4, but checkpoint 4
        // completes with attempt 1's sink part, a delta from 4 (its length
        // at part 3).
        let mut parts = sink_parts(vec![
            (1, part(0, &[1, 2], 2)),
            (2, part(2, &[3], 3)),
            (3, part(3, &[4], 4)),
            (4, part(4, &[5], 5)),
        ]);
        parts
            .get_mut(&3)
            .unwrap()
            .insert(0, part(0, &[1, 2, 3, 4, 5, 6, 7], 7));
        let st = compose_sink(&parts, 4, 0).unwrap();
        assert_eq!(values(&st), vec![1, 2, 3, 4, 5], "attempt 1's state at 4");
        assert_eq!(st.total, 5);
    }

    #[test]
    fn a_missing_part_is_a_checkpoint_error() {
        let parts = sink_parts(vec![(1, part(0, &[1], 1)), (3, part(2, &[3], 3))]);
        assert!(matches!(
            compose_sink(&parts, 3, 0),
            Err(EngineError::Checkpoint(_))
        ));
        assert_eq!(compose_sink(&parts, 2, 0).unwrap().total, 1);
    }

    /// A sink part holds the deliveries since the previous barrier, so its
    /// size does not grow with the length of the run.
    #[test]
    fn sink_part_size_does_not_grow_with_run_length() {
        use crate::builder::PlanBuilder;
        use crate::runtime::VecSource;
        use crate::value::{FieldType, Schema, Value};

        let logical = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .sink("sink")
            .build()
            .unwrap();
        let plan = PhysicalPlan::expand(&logical).unwrap();
        let sink = plan
            .instances
            .iter()
            .find(|i| matches!(plan.logical.nodes[i.node].kind, OpKind::Sink))
            .unwrap()
            .id;
        let largest_sink_part = |n: i64| -> usize {
            let tuples: Vec<Tuple> = (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
            let settings = ExecSettings {
                run: RunConfig::default(),
                exactly_once: true,
                ckpt_interval: 100,
            };
            let counters = Arc::new(
                (0..plan.instance_count())
                    .map(|_| AtomicU64::new(0))
                    .collect(),
            );
            let attempt = run_local_attempt(
                &plan,
                &[VecSource::new(tuples)],
                &settings,
                None,
                &HashMap::new(),
                &counters,
                Instant::now(),
                None,
                false,
            )
            .unwrap();
            attempt.outcome.unwrap();
            let mut parts = CheckpointParts::new();
            for (id, inst, bytes) in attempt.new_parts {
                parts.entry(id).or_default().insert(inst, bytes);
            }
            // The composed last checkpoint is the run's output.
            let point = restore_point(&plan, &parts).unwrap();
            assert_eq!(point.id, Some(n as u64 / 100));
            assert_eq!(point.sink_total, n as u64);
            let st: SinkState = decode(&point.restore[&sink], "sink").unwrap();
            assert_eq!(st.captured.len(), n as usize);
            assert_eq!(st.latencies.len(), n as usize);
            parts
                .values()
                .filter_map(|p| p.get(&sink))
                .map(Vec::len)
                .max()
                .unwrap()
        };
        let short = largest_sink_part(2_000);
        let long = largest_sink_part(8_000);
        assert!(
            long < 2 * short,
            "largest sink part: {long} B at 4N tuples vs {short} B at N"
        );
    }

    #[test]
    fn sink_state_round_trips_through_snapshot_codec() {
        let st = SinkState {
            captured: vec![Tuple::new(vec![crate::value::Value::Int(7)])],
            latencies: vec![42],
            total: 1,
        };
        let bytes = encode(&st, "sink").unwrap();
        let back: SinkState = decode(&bytes, "sink").unwrap();
        assert_eq!(back.total, 1);
        assert_eq!(back.latencies, vec![42]);
        assert_eq!(back.captured.len(), 1);
    }
}
