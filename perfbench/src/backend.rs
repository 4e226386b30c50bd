//! One paced execution on one backend, timed and accounted from outside.

use crate::job::{self, Backend, WORKERS};
use crate::paced::{GenHandle, GenSummary};
use crate::{procfs, spans, worker};
use pdsp_engine::distributed::{DistributedConfig, DistributedRuntime};
use pdsp_engine::runtime::{RunConfig, RunResult, ThreadedRuntime};
use pdsp_engine::{telemetry_for_plan, FtConfig, FtRuntime, Tuple};
use pdsp_telemetry::{InstanceSnapshot, Span, TelemetryConfig};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Application acronym.
    pub app: &'static str,
    /// Backend.
    pub backend: Backend,
    /// Offered rate, tuples/s.
    pub rate: f64,
    /// Source tuples on the schedule.
    pub tuples: usize,
    /// Data seed.
    pub seed: u64,
    /// End the stream once the generator lags this far (ladder probes).
    pub abort_lag: Option<Duration>,
    /// `Some(n)`: collect telemetry snapshots and trace every `n`th source
    /// tuple where the backend traces. `None`: an untraced run without
    /// telemetry (distributed runs always aggregate worker telemetry).
    pub trace_every: Option<u64>,
}

/// Everything one run reports.
pub struct RunOut {
    /// Engine error, if the run failed.
    pub error: Option<String>,
    /// Sink tuples, all of them (capture is unbounded).
    pub sink: Vec<Tuple>,
    /// Engine-stamped latency of each sink tuple, ns, aligned with `sink`.
    pub latencies_ns: Vec<u64>,
    /// Source tuples the engine ingested.
    pub tuples_in: u64,
    /// Generator statistics.
    pub gen: GenSummary,
    /// When the first tuple was due, on this process's clock (in-process
    /// backends).
    pub t0: Option<Instant>,
    /// Seconds from the call into the build until the first tuple was due.
    pub setup_s: f64,
    /// CPU seconds of this process and its worker processes over the
    /// backend call.
    pub cpu_s: f64,
    /// Telemetry snapshots (telemetry runs and distributed runs).
    pub snapshots: Vec<InstanceSnapshot>,
    /// Engine trace spans (traced runs of tracing backends).
    pub trace: Vec<Span>,
    /// Completed checkpoints.
    pub checkpoints: u64,
    /// Execution attempts (1 = no restart).
    pub attempts: usize,
    /// Deploy-gate and plan time of the build, ms.
    pub gate_ms: f64,
    /// Fusion and expansion time, ms.
    pub plan_ms: f64,
    /// Median of worker start minus backend call, ms (distributed only).
    pub spawn_ms: f64,
    /// Peak RSS of the process tree during the run: this process (from the
    /// build on) plus every worker process, KiB.
    pub peak_kib: u64,
    /// Bytes sent over loopback TCP during the backend call.
    pub wire_bytes: u64,
}

fn run_config() -> RunConfig {
    RunConfig {
        // Keep every result: latency is rebuilt from each sink tuple.
        capture_limit: usize::MAX,
        ..RunConfig::default()
    }
}

fn telemetry_config(trace_every: u64) -> TelemetryConfig {
    TelemetryConfig {
        trace_every,
        trace_capacity: 1 << 16,
        ..TelemetryConfig::default()
    }
}

/// Record the statistics of the run's single generator.
fn take_gen(out: &mut RunOut, handles: &[GenHandle]) {
    if let Some(h) = handles.first() {
        let s = h.lock().expect("generator stats lock poisoned");
        out.gen = s.summary();
        out.t0 = s.t0;
    }
}

fn from_result(out: &mut RunOut, r: RunResult) {
    out.sink = r.sink_tuples;
    out.latencies_ns = r.latencies_ns;
    out.tuples_in = r.tuples_in;
}

/// Run `spec` once. Returns `Err` only when the job cannot be built at all;
/// an engine failure is reported in [`RunOut::error`].
pub fn run(spec: &RunSpec, report_dir: &std::path::Path) -> Result<RunOut, String> {
    let setup = spans::enter(format!("run.{:?}.{}", spec.backend, spec.rate as u64));
    procfs::reset_peak_rss();
    let call = Instant::now();
    let call_epoch = pdsp_net::epoch_ns_now();
    let job = job::build(spec.app, spec.rate, spec.tuples, spec.seed).map_err(|e| e.to_string())?;
    let mut out = RunOut {
        error: None,
        sink: Vec::new(),
        latencies_ns: Vec::new(),
        tuples_in: 0,
        gen: GenSummary::default(),
        t0: None,
        setup_s: 0.0,
        cpu_s: 0.0,
        snapshots: Vec::new(),
        trace: Vec::new(),
        checkpoints: 0,
        attempts: 1,
        gate_ms: job.gate_ms,
        plan_ms: job.plan_ms,
        spawn_ms: 0.0,
        peak_kib: 0,
        wire_bytes: 0,
    };
    let tel_cfg = spec.trace_every.map(telemetry_config);
    let cpu0 = procfs::cpu_seconds();
    let wire0 = procfs::loopback_tx_bytes();
    match spec.backend {
        Backend::Threads => {
            let (sources, gens) = job::pace(&job.sources, spec.abort_lag);
            let rt = ThreadedRuntime::new(run_config());
            let _s = spans::enter("engine.runtime.threaded");
            let res = match &tel_cfg {
                Some(cfg) => {
                    let tel = telemetry_for_plan(spec.app, &job.phys, cfg.clone());
                    let r = rt.run_with_telemetry(&job.phys, &sources, &tel);
                    out.snapshots = tel.registry.snapshot();
                    out.trace = tel.trace.as_ref().map(|b| b.drain()).unwrap_or_default();
                    r
                }
                None => rt.run(&job.phys, &sources),
            };
            take_gen(&mut out, &gens);
            match res {
                Ok(r) => from_result(&mut out, r),
                Err(e) => out.error = Some(e.to_string()),
            }
        }
        Backend::Ft => {
            let (sources, gens) = job::pace(&job.sources, spec.abort_lag);
            let rt = FtRuntime::new(FtConfig {
                run: run_config(),
                ..FtConfig::default()
            });
            let _s = spans::enter("engine.runtime.ft");
            let res = match &tel_cfg {
                Some(cfg) => {
                    // FtRuntime records counters but no trace spans.
                    let tel = telemetry_for_plan(spec.app, &job.phys, cfg.clone());
                    let r = rt.run_with_telemetry(&job.phys, &sources, None, Some(&tel));
                    out.snapshots = tel.registry.snapshot();
                    r
                }
                None => rt.run(&job.phys, &sources, None),
            };
            take_gen(&mut out, &gens);
            match res {
                Ok(r) => {
                    out.checkpoints = r.recovery.completed_checkpoints;
                    out.attempts = r.recovery.attempts;
                    from_result(&mut out, r.result);
                }
                Err(e) => out.error = Some(e.to_string()),
            }
        }
        Backend::Dist => {
            let dir = report_dir.join(format!("dist-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let mut config = DistributedConfig {
                workers: WORKERS,
                worker_bin: vec![
                    exe.to_string_lossy().into_owned(),
                    worker::FLAG.into(),
                    dir.to_string_lossy().into_owned(),
                ],
                trace_every: spec.trace_every.unwrap_or(0),
                ..DistributedConfig::default()
            };
            config.ft.run = run_config();
            let abort_ms = spec.abort_lag.map_or(0, |d| d.as_millis().max(1) as u64);
            let text = job::paced_spec(spec.app, spec.rate, spec.tuples, spec.seed, abort_ms);
            let rt = DistributedRuntime::with_resolver(
                config,
                job::resolver(Arc::new(Mutex::new(Vec::new()))),
            );
            let res = {
                let _s = spans::enter("engine.runtime.distributed");
                rt.run(&text)
            };
            let reports = worker::read_reports(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            let mut spawn: Vec<f64> = Vec::new();
            for r in &reports {
                out.peak_kib += r.peak_kib;
                spawn.push(r.entry_epoch_ns.saturating_sub(call_epoch) as f64 / 1e6);
                if r.gen.released > 0 || r.gen.t0_epoch_ns > 0 {
                    out.gen = r.gen.clone();
                }
            }
            out.spawn_ms = crate::stats::median(&spawn);
            match res {
                Ok(run) => {
                    out.checkpoints = run.ft.recovery.completed_checkpoints;
                    out.attempts = run.ft.recovery.attempts;
                    out.snapshots = run.snapshots;
                    out.trace = run.spans;
                    from_result(&mut out, run.ft.result);
                }
                Err(e) => out.error = Some(e.to_string()),
            }
            if reports.len() != WORKERS && out.error.is_none() {
                out.error = Some(format!("{} of {WORKERS} worker reports", reports.len()));
            }
        }
    }
    out.cpu_s = procfs::cpu_seconds() - cpu0;
    out.peak_kib += procfs::peak_rss_kib();
    out.wire_bytes = procfs::loopback_tx_bytes().saturating_sub(wire0);
    out.setup_s = match out.t0 {
        Some(t0) => (t0 - call).as_secs_f64(),
        // The generator ran in a worker process: compare epoch clocks.
        None => out.gen.t0_epoch_ns.saturating_sub(call_epoch) as f64 / 1e9,
    };
    drop(setup);
    Ok(out)
}
