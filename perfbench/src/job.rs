//! The three workloads and how one paced job is built for them.

use crate::paced::{GenHandle, Paced};
use crate::spans;
use pdsp_apps::{app_by_name, AppConfig};
use pdsp_engine::distributed::SpecResolver;
use pdsp_engine::error::{EngineError, Result};
use pdsp_engine::runtime::SourceFactory;
use pdsp_engine::{LogicalPlan, PhysicalPlan};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which execution backend runs the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `ThreadedRuntime`: in-process channels, no checkpoints.
    Threads,
    /// `FtRuntime`: the shared `exec` loop with exactly-once checkpoints.
    Ft,
    /// `DistributedRuntime` on two worker processes, exactly-once.
    Dist,
}

/// One benchmark workload. Why each exists is recorded in
/// `perfbench/README.md`, and for the registered ones in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Application acronym.
    pub app: &'static str,
    /// Backend.
    pub backend: Backend,
    /// Fixed offered rate for the latency and CPU measurement, tuples/s:
    /// 37–50% of the knee measured when the benchmark was defined.
    pub fixed_rate: f64,
    /// Due-time p99 limit a rate must meet to count as sustainable, ms.
    pub limit_ms: f64,
}

/// Every workload. `wc-threads` is not registered in `BENCHMARK.json`: its
/// sustainable rate follows the host's free CPU too closely to repeat.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wc-threads",
        app: "WC",
        backend: Backend::Threads,
        fixed_rate: 90_000.0,
        limit_ms: 100.0,
    },
    Workload {
        name: "wc-dist",
        app: "WC",
        backend: Backend::Dist,
        fixed_rate: 5_000.0,
        limit_ms: 200.0,
    },
    Workload {
        name: "sg-ft",
        app: "SG",
        backend: Backend::Ft,
        fixed_rate: 10_000.0,
        limit_ms: 100.0,
    },
];

/// Operators other than sources and sinks run at this parallelism; the
/// single source keeps one paced generator per job.
pub const PARALLELISM: usize = 2;

/// Worker processes of the distributed backend.
pub const WORKERS: usize = 2;

/// A job ready for a backend: the fused physical plan and its sources.
pub struct Job {
    /// Physical plan after the deploy gate, fusion and expansion.
    pub phys: PhysicalPlan,
    /// The fused logical plan (for the single-threaded operator replay).
    pub fused: LogicalPlan,
    /// The application's own seeded, unpaced sources.
    pub sources: Vec<Arc<dyn SourceFactory>>,
    /// Time in the deploy gate's analyzer, ms.
    pub gate_ms: f64,
    /// Time to fuse and expand the plan, ms.
    pub plan_ms: f64,
}

fn config(rate: f64, tuples: usize, seed: u64) -> AppConfig {
    AppConfig {
        event_rate: rate,
        total_tuples: tuples,
        seed,
    }
}

fn lookup(app: &str) -> Result<Arc<dyn pdsp_apps::Application>> {
    app_by_name(app).ok_or_else(|| EngineError::InvalidConfig(format!("unknown app '{app}'")))
}

/// Build `app` at `rate` for `tuples` source tuples: application build, the
/// deploy gate (refuse plans with analyzer errors, as the controller does),
/// fusion and physical expansion, each under its own span.
pub fn build(app: &str, rate: f64, tuples: usize, seed: u64) -> Result<Job> {
    let built = {
        let _s = spans::enter("apps.build");
        lookup(app)?.build(&config(rate, tuples, seed))
    };
    let plan = built.plan.with_uniform_parallelism(PARALLELISM);
    let gate = spans::enter("core.gate");
    let report = pdsp_analyze::analyze(app, &plan)?;
    let gate_ms = gate.end().as_secs_f64() * 1e3;
    if report.errors() > 0 {
        return Err(EngineError::AnalysisRejected {
            workload: app.to_string(),
            errors: report.errors(),
            first: format!("{:?}", report.diagnostics.first()),
        });
    }
    let planning = spans::enter("engine.plan");
    let fused = pdsp_engine::chaining::fuse(&plan)?;
    let phys = PhysicalPlan::expand(&fused)?;
    let plan_ms = planning.end().as_secs_f64() * 1e3;
    Ok(Job {
        phys,
        fused,
        sources: built.sources,
        gate_ms,
        plan_ms,
    })
}

/// Wrap every source of `sources` in the paced generator; returns the
/// handles of their statistics.
pub fn pace(
    sources: &[Arc<dyn SourceFactory>],
    abort_lag: Option<Duration>,
) -> (Vec<Arc<dyn SourceFactory>>, Vec<GenHandle>) {
    sources
        .iter()
        .map(|s| {
            let (p, h) = Paced::new(Arc::clone(s), abort_lag);
            (p as Arc<dyn SourceFactory>, h)
        })
        .unzip()
}

/// The distributed spec of a paced job:
/// `paced:<ACRONYM>:<tuples>:<rate>:<seed>:<abort_ms>` (`abort_ms` 0 = never).
pub fn paced_spec(app: &str, rate: f64, tuples: usize, seed: u64, abort_ms: u64) -> String {
    format!("paced:{app}:{tuples}:{rate}:{seed}:{abort_ms}")
}

/// Spec resolver shared by the coordinator and the worker processes. Every
/// resolution records its generator handles into `gens`, which is how the
/// worker mode finds the generator it reports on.
pub fn resolver(gens: Arc<Mutex<Vec<GenHandle>>>) -> SpecResolver {
    Arc::new(move |spec: &str| {
        let bad = || EngineError::InvalidConfig(format!("bad paced spec '{spec}'"));
        let parts: Vec<&str> = spec
            .strip_prefix("paced:")
            .ok_or_else(bad)?
            .split(':')
            .collect();
        let [app, tuples, rate, seed, abort_ms] = parts.as_slice() else {
            return Err(bad());
        };
        let num = |v: &str| v.parse::<f64>().map_err(|_| bad());
        let int = |v: &str| v.parse::<u64>().map_err(|_| bad());
        let built = lookup(app)?.build(&config(num(rate)?, int(tuples)? as usize, int(seed)?));
        let fused = pdsp_engine::chaining::fuse(&built.plan.with_uniform_parallelism(PARALLELISM))?;
        let abort = int(abort_ms)?;
        let (sources, handles) = pace(
            &built.sources,
            (abort > 0).then(|| Duration::from_millis(abort)),
        );
        gens.lock()
            .expect("generator registry lock poisoned")
            .extend(handles);
        Ok((PhysicalPlan::expand(&fused)?, sources))
    })
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}
