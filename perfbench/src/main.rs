//! Open-loop benchmark of the PDSP-Bench engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wc-threads --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: CPU and
//! peak memory at the workload's fixed offered rate, the sustainable rate
//! found on a geometric ladder, and set-up time. `--trace 1` measures the
//! per-layer metrics: untraced and traced runs at the fixed rate (latency
//! among them), an overload probe, and the layer costs timed from outside.
//! Every fixed-rate run's output is checked against the unpaced threaded
//! reference. The last line
//! of standard output is one JSON object; the exit code is nonzero when an
//! output check failed. See `perfbench/README.md`.

mod backend;
mod job;
mod layers;
mod measure;
mod paced;
mod procfs;
mod spans;
mod stats;
mod worker;

use backend::{RunOut, RunSpec};
use job::{Backend, Workload};
use measure::Tally;
use stats::{median, quantile_sorted};
use std::path::{Path, PathBuf};

/// Head-sampling rate of the traced run: one source tuple in 64 roots a
/// trace.
const TRACE_EVERY: u64 = 64;

/// Where runs leave their spans and worker reports, relative to the root
/// of the checkout.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = job::workload(name).ok_or_else(|| {
        let names: Vec<&str> = job::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(worker::FLAG) {
        worker::main(&args[1..]);
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut tally = Tally::default();
    let result = if a.trace {
        per_layer(&a, &dir, &mut tally)
    } else {
        end_to_end(&a, &dir, &mut tally)
    };
    let spans_path = dir.join(format!(
        "spans-{}-seed{}-trace{}.json",
        a.workload.name,
        a.seed,
        u8::from(a.trace)
    ));
    if let Err(e) = std::fs::write(&spans_path, spans::to_json()) {
        eprintln!("perfbench: {}: {e}", spans_path.display());
    }
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload.name);
            std::process::exit(1);
        }
    };
    for p in &tally.problems {
        eprintln!("perfbench: output check: {p}");
    }
    let correct = tally.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    for (name, value, unit) in &metrics {
        println!("{name:<44} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { -1.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

fn fixed_spec(wl: &Workload, tuples: usize, seed: u64, trace_every: Option<u64>) -> RunSpec {
    RunSpec {
        app: wl.app,
        backend: wl.backend,
        rate: wl.fixed_rate,
        tuples,
        seed,
        abort_lag: None,
        trace_every,
    }
}

/// Length of every paced run: `--seconds` split over the runs of an
/// end-to-end measurement. Per-layer runs have the same length.
fn run_seconds(a: &Args) -> f64 {
    a.seconds / (measure::FIXED_RUNS + measure::LADDER_RUNS) as f64
}

fn cpu_us_per_tuple(out: &RunOut) -> f64 {
    out.cpu_s * 1e6 / out.tuples_in.max(1) as f64
}

/// End-to-end metrics, tracing off. `--seconds` is split evenly between
/// three fixed-rate runs and the ladder's budget of six probes, so every
/// run has the same length: checkpointing backends carry state that grows
/// with the run, and their sustainable rate holds for that length. CPU is
/// the median over the fixed-rate runs, which share the seed, so one
/// reference checks all three.
fn end_to_end(a: &Args, dir: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let wl = &a.workload;
    let run_s = run_seconds(a);
    let tuples = (wl.fixed_rate * run_s).round() as usize;
    let (mut cpu, mut setups, mut runs) = (vec![], vec![], vec![]);
    for _ in 0..measure::FIXED_RUNS {
        let mut fixed = backend::run(&fixed_spec(wl, tuples, a.seed, None), dir)?;
        cpu.push(cpu_us_per_tuple(&fixed));
        setups.push(fixed.setup_s);
        // Keep what the output check needs, not every sink tuple.
        let rows = measure::rows(&fixed.sink);
        fixed.sink = Vec::new();
        runs.push((fixed, rows));
    }
    // Peak memory of the first run, in a process nothing ran in before:
    // memory freed by one run stays resident for the next, so later runs'
    // peaks depend on what came before them.
    let peak_mb = runs[0].0.peak_kib as f64 / 1024.0;
    let reference = measure::reference(wl.app, wl.fixed_rate, tuples, a.seed)?;
    for (i, (fixed, rows)) in runs.iter().enumerate() {
        tally.check(
            &format!("fixed-rate run {i}"),
            fixed,
            tuples as u64,
            Some((rows, &reference)),
        );
    }
    println!(
        "fixed rate {} t/s, {} runs of {run_s:.2} s: cpu {cpu:.2?} us/tuple",
        wl.fixed_rate,
        measure::FIXED_RUNS
    );

    let probes = measure::ladder(wl, run_s, a.seed, dir, tally)?;
    println!(
        "ladder (limit: due-time p99 <= {} ms, no growing backlog):",
        wl.limit_ms
    );
    for p in &probes {
        println!(
            "  offered {:>9.0} t/s  achieved {:>9.0} t/s  due p99 {:>9.2} ms  engine p99 {:>7.2} ms  \
             tail lag {:>8.2} ms  {}",
            p.rate,
            p.achieved,
            p.due_p99_ms,
            p.engine_p99_ms,
            p.tail_lag_ms,
            if p.pass { "sustainable" } else { "not sustainable" }
        );
        setups.push(p.setup_s);
    }
    let best = probes
        .iter()
        .filter(|p| p.pass)
        .max_by(|x, y| x.rate.total_cmp(&y.rate));
    Ok(vec![
        (
            "sustainable_tps".into(),
            best.map_or(0.0, |p| p.achieved),
            "tuples/s",
        ),
        ("cpu_us_per_tuple".into(), median(&cpu), "us"),
        ("peak_rss_mb".into(), peak_mb, "MB"),
        ("setup_s".into(), median(&setups), "s"),
    ])
}

/// Operator names (sanitized) of every workload's fused plan, so every
/// workload reports the same per-layer metric names.
fn all_operator_names() -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for wl in &job::WORKLOADS {
        let job = job::build(wl.app, wl.fixed_rate, 1, 0).map_err(|e| e.to_string())?;
        for n in &job.fused.nodes {
            let name = layers::sanitize(&n.name);
            let inner = !matches!(
                n.kind,
                pdsp_engine::OpKind::Source { .. } | pdsp_engine::OpKind::Sink
            );
            if inner && !names.contains(&name) {
                names.push(name);
            }
        }
    }
    Ok(names)
}

/// Critical-path segment kinds, the prefixes of
/// `pdsp_telemetry::critical_path` labels.
const SEGMENTS: [&str; 8] = [
    "source",
    "batch",
    "queue",
    "op",
    "serialize",
    "net",
    "sink",
    "gap",
];

/// Per-layer metrics: three untraced and three traced runs at the fixed
/// rate, an overload probe at three times the fixed rate (about 1.5 times
/// the knee), all as long as the end-to-end runs, and the layer harness
/// replaying as many tuples as one fixed-rate run.
fn per_layer(a: &Args, dir: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let wl = &a.workload;
    let ops = all_operator_names()?;
    let run_s = run_seconds(a);
    let tuples = (wl.fixed_rate * run_s).round() as usize;
    let reference = measure::reference(wl.app, wl.fixed_rate, tuples, a.seed)?;
    // Untraced and traced runs alternate, so drift of the host touches both
    // sides of the overhead alike. CPU and latency are medians; counters and
    // traces come from the first run of each kind.
    let mut checked_run = |label: String, trace_every| -> Result<RunOut, String> {
        let mut run = backend::run(&fixed_spec(wl, tuples, a.seed, trace_every), dir)?;
        let rows = measure::rows(&run.sink);
        tally.check(&label, &run, tuples as u64, Some((&rows, &reference)));
        if trace_every.is_some() {
            run.sink = Vec::new();
        }
        Ok(run)
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut p50, mut p99, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    let mut results = 0;
    for i in 0..measure::FIXED_RUNS {
        let mut run = checked_run(format!("untraced run {i}"), None)?;
        let lat = measure::latencies(&run.sink, &run.latencies_ns)?;
        p50.push(quantile_sorted(&lat.due_ms, 0.5));
        p99.push(quantile_sorted(&lat.due_ms, 0.99));
        lag.push(run.gen.lag_p99_ms);
        results += lat.samples();
        run.sink = Vec::new();
        untraced.push(run);
        traced.push(checked_run(format!("traced run {i}"), Some(TRACE_EVERY))?);
    }
    let untraced_cpu = median(&untraced.iter().map(cpu_us_per_tuple).collect::<Vec<_>>());
    let traced_cpu = median(&traced.iter().map(cpu_us_per_tuple).collect::<Vec<_>>());
    let (untraced, traced) = (&untraced[0], &traced[0]);
    let overload = measure::probe(wl, 3.0 * wl.fixed_rate, run_s, a.seed, dir, tally)?;
    println!(
        "overload probe at {:.0} t/s: due-time p99 {:.2} ms, engine-stamped p99 {:.2} ms (limit {} ms)",
        overload.rate, overload.due_p99_ms, overload.engine_p99_ms, wl.limit_ms
    );
    let costs = layers::measure(
        wl.app,
        wl.fixed_rate,
        tuples,
        a.seed,
        wl.backend != Backend::Threads,
        wl.backend == Backend::Dist,
    )?;
    let mut notes = Vec::new();

    // Latency at the fixed rate. On a shared 2-core host it does not repeat
    // within a tenth from run to run, so it is a per-layer metric here, not
    // an end-to-end one with a bound.
    println!(
        "untraced fixed-rate runs: {results} results; due-time p50 {p50:.3?} ms, p99 {p99:.3?} ms"
    );
    let mut m: Metrics = vec![
        ("p50_ms".into(), median(&p50), "ms"),
        ("p99_ms".into(), median(&p99), "ms"),
    ];
    m.push(("apps.gen_ns_per_tuple".into(), costs.gen_ns_per_tuple, "ns"));
    m.push(("apps.gen_lag_p99_ms".into(), median(&lag), "ms"));
    m.push(("apps.overload.due_p99_ms".into(), overload.due_p99_ms, "ms"));
    m.push((
        "engine.overload.engine_p99_ms".into(),
        overload.engine_p99_ms,
        "ms",
    ));

    // Operators: single-threaded replay cost, in-run busy share.
    let snaps = &traced.snapshots;
    for op in &ops {
        let replay = costs.ops.iter().find(|c| &c.name == op);
        let (busy, idle) = snaps
            .iter()
            .filter(|s| &layers::sanitize(&s.operator) == op)
            .fold((0u64, 0u64), |(b, i), s| (b + s.busy_ns, i + s.idle_ns));
        if replay.is_none() {
            notes.push(format!("operator {op} is not part of {}", wl.name));
        }
        m.push((
            format!("engine.operator.{op}.ns_per_tuple"),
            replay.map_or(0.0, |c| c.ns_per_tuple),
            "ns",
        ));
        m.push((
            format!("engine.operator.{op}.busy_share"),
            busy as f64 / (busy + idle).max(1) as f64,
            "ratio",
        ));
    }
    m.push((
        "engine.operator.chain_ns_per_tuple".into(),
        costs.chain_ns_per_tuple,
        "ns",
    ));
    m.push((
        "engine.dataplane_us_per_tuple".into(),
        untraced_cpu - (costs.chain_ns_per_tuple + costs.gen_ns_per_tuple) / 1e3,
        "us",
    ));
    m.push((
        "engine.window.fires".into(),
        snaps.iter().map(|s| s.window_fires).sum::<u64>() as f64,
        "count",
    ));
    let batches: u64 = snaps.iter().map(|s| s.batches_out).sum();
    let batched_out: u64 = snaps
        .iter()
        .filter(|s| s.batches_out > 0)
        .map(|s| s.tuples_out)
        .sum();
    let batch_size = pdsp_engine::runtime::RunConfig::default().batch_size as f64;
    let share = |n: u64| n as f64 / batches.max(1) as f64;
    m.push((
        "engine.batch.fill".into(),
        share(batched_out) / batch_size,
        "ratio",
    ));
    m.push((
        "engine.batch.linger_share".into(),
        share(snaps.iter().map(|s| s.flush_linger).sum()),
        "ratio",
    ));
    m.push((
        "engine.batch.marker_share".into(),
        share(snaps.iter().map(|s| s.flush_marker).sum()),
        "ratio",
    ));
    m.push((
        "engine.queue.depth_max".into(),
        snaps.iter().map(|s| s.queue_depth_max).max().unwrap_or(0) as f64,
        "count",
    ));

    // State and fault tolerance.
    m.push((
        "engine.state.snapshot_bytes".into(),
        costs.snapshot_bytes,
        "bytes",
    ));
    m.push(("engine.state.snapshot_us".into(), costs.snapshot_us, "us"));
    m.push(("engine.state.restore_us".into(), costs.restore_us, "us"));
    let ckpt_ns: u64 = snaps.iter().map(|s| s.checkpoint_ns).sum();
    let ckpts: u64 = snaps.iter().map(|s| s.checkpoints).sum();
    m.push((
        "engine.fault.checkpoints".into(),
        traced.checkpoints as f64,
        "count",
    ));
    m.push((
        "engine.fault.checkpoint_ms_mean".into(),
        ckpt_ns as f64 / 1e6 / ckpts.max(1) as f64,
        "ms",
    ));

    // Network.
    m.push((
        "net.codec.encode_ns_per_tuple".into(),
        costs.encode_ns_per_tuple,
        "ns",
    ));
    m.push((
        "net.codec.decode_ns_per_tuple".into(),
        costs.decode_ns_per_tuple,
        "ns",
    ));
    m.push((
        "net.codec.bytes_per_tuple".into(),
        costs.bytes_per_tuple,
        "bytes",
    ));
    m.push((
        "net.wire_bytes_per_tuple".into(),
        untraced.wire_bytes as f64 / untraced.tuples_in.max(1) as f64,
        "bytes",
    ));
    m.push(("net.frame_rtt_us".into(), costs.frame_rtt_us, "us"));

    // Set-up.
    m.push(("core.gate_ms".into(), untraced.gate_ms, "ms"));
    m.push(("engine.plan_ms".into(), untraced.plan_ms, "ms"));
    m.push((
        "engine.distributed.spawn_ms".into(),
        untraced.spawn_ms,
        "ms",
    ));

    // Tracing.
    let (shares, complete_ratio) = trace_shares(traced);
    if traced.trace.is_empty() {
        notes.push(format!(
            "{} traces nothing (FtRuntime records no spans): telemetry.trace.* are not measured",
            wl.name
        ));
    }
    for (seg, share) in SEGMENTS.iter().zip(shares) {
        m.push((format!("telemetry.trace.share.{seg}"), share, "ratio"));
    }
    m.push((
        "telemetry.trace.complete_ratio".into(),
        complete_ratio,
        "ratio",
    ));
    m.push((
        "telemetry.overhead_pct".into(),
        (traced_cpu / untraced_cpu.max(1e-9) - 1.0) * 100.0,
        "%",
    ));

    assert_bypasses(wl, &m, tally);
    for n in &notes {
        println!("note: {n}; reported as 0");
    }
    Ok(m)
}

/// Critical-path share of each segment kind, and the share of assembled
/// traces that are complete.
fn trace_shares(run: &RunOut) -> ([f64; SEGMENTS.len()], f64) {
    let mut shares = [0.0; SEGMENTS.len()];
    let trees = pdsp_telemetry::assemble(run.trace.clone());
    if trees.is_empty() {
        return (shares, 0.0);
    }
    let complete = trees.iter().filter(|t| t.is_complete()).count();
    let attribution = pdsp_telemetry::attribute(&trees);
    for seg in &attribution.segments {
        let kind = seg.label.split(':').next().unwrap_or("");
        if let Some(i) = SEGMENTS.iter().position(|s| *s == kind) {
            shares[i] += seg.share;
        }
    }
    println!(
        "traces: {} assembled, {complete} complete, {} on the critical-path attribution",
        trees.len(),
        attribution.traces
    );
    (shares, complete as f64 / trees.len() as f64)
}

/// The layers a workload bypasses must read zero, and the ones it uses must
/// not: `wc-threads` takes no checkpoints and writes no wire bytes, `sg-ft`
/// writes no wire bytes, `wc-dist` does both.
fn assert_bypasses(wl: &Workload, m: &Metrics, tally: &mut Tally) {
    let get = |name: &str| m.iter().find(|(n, _, _)| n == name).map_or(0.0, |x| x.1);
    let wire = get("net.wire_bytes_per_tuple");
    let ckpt = get("engine.fault.checkpoints");
    let expect = match wl.backend {
        Backend::Threads => (false, false),
        Backend::Ft => (false, true),
        Backend::Dist => (true, true),
    };
    if (wire > 0.0, ckpt > 0.0) != expect {
        tally.fail(
            1,
            format!(
                "{}: wire bytes {wire} and checkpoints {ckpt} contradict the layers it uses \
                 (wire {}, checkpoints {})",
                wl.name, expect.0, expect.1
            ),
        );
    }
}
