//! Per-layer costs timed from outside, through the program's public calls:
//! the generator drained alone, each fused operator instance fed the job's
//! recorded inputs on one thread (`OpKind::instantiate`), operator state
//! snapshots and restores, the wire codec (`pdsp_net::encode_json`,
//! `write_frame`, `recv_json`) and a loopback frame round trip
//! (`pdsp_net::measure_loopback_rtt`).

use crate::job;
use crate::spans;
use pdsp_engine::message::{Batch, Message};
use pdsp_engine::operator::OperatorInstance;
use pdsp_engine::runtime::RunConfig;
use pdsp_engine::{OpKind, Tuple};
use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Source tuples between checkpoint barriers (the `FtConfig` default the
/// checkpointing workloads run with).
const CHECKPOINT_EVERY: u64 = 256;

/// Every how many frames of an edge the codec is timed.
const CODEC_SAMPLE_EVERY: u64 = 8;

/// Loopback round trips timed for the frame RTT.
const RTT_FRAMES: usize = 400;

/// One operator's replay cost.
pub struct OpCost {
    /// Operator name, sanitized to `[A-Za-z0-9_.-]`.
    pub name: String,
    /// Time in `on_batch`, `on_watermark` and `on_flush` per source tuple, ns.
    pub ns_per_tuple: f64,
}

/// Layer costs of one workload.
#[derive(Default)]
pub struct LayerCosts {
    /// Generator cost alone per tuple, ns.
    pub gen_ns_per_tuple: f64,
    /// Per-operator single-threaded cost.
    pub ops: Vec<OpCost>,
    /// Sum over operators, ns per source tuple.
    pub chain_ns_per_tuple: f64,
    /// State bytes of one checkpoint, one instance per stateful operator.
    pub snapshot_bytes: f64,
    /// Time to snapshot that state, µs.
    pub snapshot_us: f64,
    /// Time to restore it into fresh instances, µs.
    pub restore_us: f64,
    /// JSON encoding of `Message::Batch` frames, ns per source tuple, as if
    /// every edge crossed the wire.
    pub encode_ns_per_tuple: f64,
    /// Framed decoding of the same, ns per source tuple.
    pub decode_ns_per_tuple: f64,
    /// Encoded bytes per source tuple, every edge.
    pub bytes_per_tuple: f64,
    /// Loopback `write_frame`/`read_frame` round trip at the mean frame
    /// size, µs.
    pub frame_rtt_us: f64,
}

/// Sanitize an operator name for a metric name.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || "_.-".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

struct Stage {
    name: String,
    inst: Box<dyn OperatorInstance>,
    kind: OpKind,
    busy: Duration,
    tuples_in: u64,
    since_snapshot: u64,
    snapshots: u64,
    snapshot_bytes: u64,
    snapshot_time: Duration,
    restore_time: Duration,
}

#[derive(Default)]
struct Codec {
    frames: u64,
    sampled: u64,
    tuples: u64,
    bytes: u64,
    encode: Duration,
    decode: Duration,
    edge_tuples: u64,
}

/// Measure the layer costs of `app` on `tuples` source tuples at `rate`.
/// `checkpoints` and `wire` say whether the workload's backend snapshots
/// state and crosses the network; bypassed layers stay 0.
pub fn measure(
    app: &str,
    rate: f64,
    tuples: usize,
    seed: u64,
    checkpoints: bool,
    wire: bool,
) -> Result<LayerCosts, String> {
    let job = job::build(app, rate, tuples, seed).map_err(|e| e.to_string())?;
    let source = job.sources.first().ok_or("job has no source")?;
    let mut costs = LayerCosts::default();

    let s = spans::enter("apps.generator");
    let n = source.instance_iter(0, 1).map(black_box).count();
    costs.gen_ns_per_tuple = s.end().as_nanos() as f64 / n.max(1) as f64;
    if n != tuples {
        return Err(format!("generator produced {n} of {tuples} tuples"));
    }

    let order = job.fused.topo_order().map_err(|e| e.to_string())?;
    let mut stages: Vec<Stage> = order
        .iter()
        .map(|&id| &job.fused.nodes[id])
        .filter(|n| !matches!(n.kind, OpKind::Source { .. } | OpKind::Sink))
        .map(|n| Stage {
            name: sanitize(&n.name),
            inst: n.kind.instantiate(),
            kind: n.kind.clone(),
            busy: Duration::ZERO,
            tuples_in: 0,
            since_snapshot: 0,
            snapshots: 0,
            snapshot_bytes: 0,
            snapshot_time: Duration::ZERO,
            restore_time: Duration::ZERO,
        })
        .collect();
    // Edge `i` feeds stage `i`; the last edge feeds the sink.
    let mut codecs: Vec<Codec> = (0..=stages.len()).map(|_| Codec::default()).collect();
    let batch = RunConfig::default().batch_size;

    let replay = spans::enter("engine.operator.replay");
    let mut it = source.instance_iter(0, 1);
    let mut source_seen = 0u64;
    loop {
        let chunk: Vec<Tuple> = it.by_ref().take(batch).collect();
        if chunk.is_empty() {
            break;
        }
        source_seen += chunk.len() as u64;
        feed(
            &mut stages,
            &mut codecs,
            0,
            chunk,
            batch,
            wire,
            checkpoints,
            source_seen,
        )?;
    }
    // End of input: every stage flushes, outputs travel on.
    for i in 0..stages.len() {
        let mut out = Vec::new();
        let t = Instant::now();
        stages[i].inst.on_flush(&mut out);
        stages[i].busy += t.elapsed();
        feed(
            &mut stages,
            &mut codecs,
            i + 1,
            out,
            batch,
            wire,
            checkpoints,
            source_seen,
        )?;
    }
    drop(replay);

    let per_src = |d: Duration| d.as_nanos() as f64 / source_seen.max(1) as f64;
    for st in &stages {
        costs.ops.push(OpCost {
            name: st.name.clone(),
            ns_per_tuple: per_src(st.busy),
        });
        if st.snapshots > 0 {
            let k = st.snapshots as f64;
            costs.snapshot_bytes += st.snapshot_bytes as f64 / k;
            costs.snapshot_us += st.snapshot_time.as_secs_f64() * 1e6 / k;
            costs.restore_us += st.restore_time.as_secs_f64() * 1e6 / k;
        }
    }
    costs.chain_ns_per_tuple = costs.ops.iter().map(|o| o.ns_per_tuple).sum();

    if wire {
        let mut frame_bytes = (0.0, 0.0);
        for c in codecs.iter().filter(|c| c.tuples > 0) {
            // Scale each edge's sampled per-tuple cost by its traffic.
            let weight = c.edge_tuples as f64 / source_seen.max(1) as f64 / c.tuples as f64;
            costs.encode_ns_per_tuple += c.encode.as_nanos() as f64 * weight;
            costs.decode_ns_per_tuple += c.decode.as_nanos() as f64 * weight;
            costs.bytes_per_tuple += c.bytes as f64 * weight;
            frame_bytes.0 += c.bytes as f64;
            frame_bytes.1 += c.sampled as f64;
        }
        let payload = (frame_bytes.0 / frame_bytes.1.max(1.0)).round() as usize;
        let s = spans::enter("net.frame_rtt");
        let rtt = pdsp_net::measure_loopback_rtt(RTT_FRAMES, payload.max(1));
        drop(s);
        costs.frame_rtt_us = rtt.map_err(|e| e.to_string())?.as_secs_f64() * 1e6;
    }
    Ok(costs)
}

/// Push `tuples` through edge `edge` into stage `edge` (and on down the
/// chain) in frames of at most `batch` tuples.
#[allow(clippy::too_many_arguments)]
fn feed(
    stages: &mut [Stage],
    codecs: &mut [Codec],
    edge: usize,
    tuples: Vec<Tuple>,
    batch: usize,
    wire: bool,
    checkpoints: bool,
    source_seen: u64,
) -> Result<(), String> {
    let mut rest = tuples;
    while !rest.is_empty() {
        let tail = rest.split_off(rest.len().min(batch));
        let frame = std::mem::replace(&mut rest, tail);
        let c = &mut codecs[edge];
        c.edge_tuples += frame.len() as u64;
        if wire && c.frames.is_multiple_of(CODEC_SAMPLE_EVERY) {
            time_codec(c, &frame)?;
        }
        c.frames += 1;
        let Some(st) = stages.get_mut(edge) else {
            continue; // the sink
        };
        st.tuples_in += frame.len() as u64;
        st.since_snapshot += frame.len() as u64;
        let wm = frame.iter().map(|t| t.event_time).max().unwrap_or(i64::MIN);
        let mut out = Vec::new();
        let t = Instant::now();
        st.inst
            .on_batch(0, frame, &mut out)
            .map_err(|e| e.to_string())?;
        st.inst.on_watermark(wm, &mut out);
        st.busy += t.elapsed();
        if checkpoints {
            snapshot_if_due(st, source_seen)?;
        }
        feed(
            stages,
            codecs,
            edge + 1,
            out,
            batch,
            wire,
            checkpoints,
            source_seen,
        )?;
    }
    Ok(())
}

/// Snapshot (and restore into a fresh instance) about as often as a
/// checkpoint barrier passes this stage: every `CHECKPOINT_EVERY` source
/// tuples, scaled by the stage's input-to-source ratio. Only stages with
/// state count.
fn snapshot_if_due(st: &mut Stage, source_seen: u64) -> Result<(), String> {
    let ratio = st.tuples_in as f64 / source_seen.max(1) as f64;
    let every = (CHECKPOINT_EVERY as f64 * ratio).max(1.0) as u64;
    if st.since_snapshot < every {
        return Ok(());
    }
    st.since_snapshot = 0;
    let t = Instant::now();
    let bytes = st.inst.snapshot().map_err(|e| e.to_string())?;
    let snap = t.elapsed();
    if bytes.is_empty() {
        return Ok(());
    }
    let mut fresh = st.kind.instantiate();
    let t = Instant::now();
    fresh.restore(&bytes).map_err(|e| e.to_string())?;
    st.restore_time += t.elapsed();
    st.snapshot_time += snap;
    st.snapshot_bytes += bytes.len() as u64;
    st.snapshots += 1;
    Ok(())
}

/// Encode one frame with the wire's JSON codec and decode it back through
/// the framing layer.
fn time_codec(c: &mut Codec, frame: &[Tuple]) -> Result<(), String> {
    let msg = Message::Batch(Batch::new(frame.to_vec()));
    let t = Instant::now();
    let payload = pdsp_net::encode_json(&msg).map_err(|e| e.to_string())?;
    c.encode += t.elapsed();
    let mut framed = Vec::with_capacity(payload.len() + 4);
    pdsp_net::write_frame(&mut framed, &payload).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let back: Option<Message> =
        pdsp_net::recv_json(&mut Cursor::new(&framed)).map_err(|e| e.to_string())?;
    c.decode += t.elapsed();
    if back.as_ref() != Some(&msg) {
        return Err("wire codec did not round-trip a frame".into());
    }
    c.bytes += payload.len() as u64;
    c.tuples += frame.len() as u64;
    c.sampled += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize("median-outlier"), "median-outlier");
        assert_eq!(sanitize("a→b c"), "a_b_c");
    }

    #[test]
    fn word_count_layers_are_nonzero_where_used() {
        let c = measure("WC", 10_000.0, 2_000, 1, true, true).unwrap();
        assert!(c.gen_ns_per_tuple > 0.0 && c.chain_ns_per_tuple > 0.0);
        assert!(c.snapshot_bytes > 0.0 && c.bytes_per_tuple > 0.0 && c.frame_rtt_us > 0.0);
        let bypass = measure("WC", 10_000.0, 2_000, 1, false, false).unwrap();
        assert_eq!((bypass.snapshot_bytes, bypass.bytes_per_tuple), (0.0, 0.0));
    }
}
