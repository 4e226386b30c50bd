//! Due-time latency, the output check, and the sustainable-rate ladder.

use crate::backend::{self, RunOut, RunSpec};
use crate::job::{self, Workload};
use crate::stats::quantile_sorted;
use pdsp_engine::runtime::{RunConfig, ThreadedRuntime};
use pdsp_engine::Tuple;
use std::path::Path;
use std::time::Duration;

/// Latencies of one run's results, ms, ascending.
pub struct Latencies {
    /// From the due time of each result's latest contributing tuple.
    pub due_ms: Vec<f64>,
    /// From when the engine pulled that tuple (the engine's own stamp).
    pub engine_ms: Vec<f64>,
}

impl Latencies {
    /// Number of results.
    pub fn samples(&self) -> usize {
        self.due_ms.len()
    }
}

/// Rebuild due-time latency from the sink tuples.
///
/// A window result carries the `event_time` and `emit_ns` of its latest
/// contributor, and the engine reports each result's `deliver − emit_ns`.
/// The tuple was due at `t0 + event_time` on the generator's clock, which is
/// offset from the engine's clock by an unknown constant. The generator
/// releases a tuple no earlier than it is due and the engine stamps it right
/// after, so `emit_ns − event_time` is smallest for results whose latest
/// contributor was released on time: that minimum is the offset.
pub fn latencies(sink: &[Tuple], engine_ns: &[u64]) -> Result<Latencies, String> {
    if sink.len() != engine_ns.len() {
        return Err(format!(
            "{} sink tuples but {} latencies: results were not all kept",
            sink.len(),
            engine_ns.len()
        ));
    }
    let due_rel = |t: &Tuple| t.emit_ns as i128 - t.event_time as i128 * 1_000_000;
    let offset = sink.iter().map(due_rel).min().unwrap_or(0);
    let mut due_ms: Vec<f64> = sink
        .iter()
        .zip(engine_ns)
        .map(|(t, &l)| (due_rel(t) - offset + l as i128) as f64 / 1e6)
        .collect();
    let mut engine_ms: Vec<f64> = engine_ns.iter().map(|&l| l as f64 / 1e6).collect();
    due_ms.sort_by(f64::total_cmp);
    engine_ms.sort_by(f64::total_cmp);
    Ok(Latencies { due_ms, engine_ms })
}

/// Sink tuples as a sorted multiset of value rows (`emit_ns` ignored).
pub fn rows(sink: &[Tuple]) -> Vec<String> {
    let mut rows: Vec<String> = sink.iter().map(|t| format!("{:?}", t.values)).collect();
    rows.sort_unstable();
    rows
}

/// Size of the symmetric difference of two sorted multisets.
pub fn mismatches(a: &[String], b: &[String]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i + b.len() - j) as u64
}

/// The reference output: the same app, seed and tuple count on the
/// threaded backend, unpaced.
pub fn reference(app: &str, rate: f64, tuples: usize, seed: u64) -> Result<Vec<String>, String> {
    let job = job::build(app, rate, tuples, seed).map_err(|e| e.to_string())?;
    let config = RunConfig {
        capture_limit: usize::MAX,
        ..RunConfig::default()
    };
    let res = ThreadedRuntime::new(config)
        .run(&job.phys, &job.sources)
        .map_err(|e| e.to_string())?;
    Ok(rows(&res.sink_tuples))
}

/// Operations attempted and failed. An operation is one scheduled source
/// tuple; a tuple the engine did not ingest, every tuple of a run that
/// failed, and every sink row that differs from the reference count as
/// failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per problem found.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count `n` failed operations, described by `what`.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        self.problems.push(what);
    }

    /// Check one run of `scheduled` tuples; `rows` pairs the run's sink
    /// rows (see [`rows`]) with the reference's when given.
    pub fn check(
        &mut self,
        label: &str,
        out: &RunOut,
        scheduled: u64,
        rows: Option<(&[String], &[String])>,
    ) {
        self.attempted += scheduled;
        if let Some(e) = &out.error {
            self.fail(scheduled, format!("{label}: engine error: {e}"));
            return;
        }
        if out.attempts != 1 {
            self.fail(
                1,
                format!(
                    "{label}: {} attempts without an injected fault",
                    out.attempts
                ),
            );
        }
        let released = out.gen.released;
        if !out.gen.truncated && released != scheduled {
            self.fail(
                scheduled.abs_diff(released),
                format!("{label}: generator released {released} of {scheduled} tuples"),
            );
        }
        if out.tuples_in != released {
            self.fail(
                out.tuples_in.abs_diff(released),
                format!(
                    "{label}: engine ingested {} of {released} released tuples",
                    out.tuples_in
                ),
            );
        }
        if let Some((rows, reference)) = rows {
            if rows.len() != out.latencies_ns.len() {
                self.fail(
                    1,
                    format!("{label}: sink tuples and latencies differ in number"),
                );
            }
            let diff = mismatches(rows, reference);
            if diff > 0 {
                self.fail(
                    diff,
                    format!("{label}: {diff} sink rows differ from the reference"),
                );
            }
        }
    }
}

/// One ladder probe.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Offered rate, tuples/s.
    pub rate: f64,
    /// Ingested tuples per second of generator time.
    pub achieved: f64,
    /// Due-time p99, ms.
    pub due_p99_ms: f64,
    /// Engine-stamped p99, ms.
    pub engine_p99_ms: f64,
    /// Median generator lag over the last quarter of the schedule, ms.
    pub tail_lag_ms: f64,
    /// Sustainable: no growing backlog, due-time p99 within the limit.
    pub pass: bool,
    /// Setup time of the probe's run, s.
    pub setup_s: f64,
}

/// Run one paced probe at `rate` for `seconds` and judge it.
pub fn probe(
    wl: &Workload,
    rate: f64,
    seconds: f64,
    seed: u64,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Probe, String> {
    let tuples = (rate * seconds).round() as usize;
    let spec = RunSpec {
        app: wl.app,
        backend: wl.backend,
        rate,
        tuples,
        seed,
        abort_lag: Some(Duration::from_secs_f64(2.0 * wl.limit_ms / 1e3)),
        trace_every: None,
    };
    let out = backend::run(&spec, dir)?;
    tally.check(&format!("probe@{rate:.0}"), &out, tuples as u64, None);
    let lat = latencies(&out.sink, &out.latencies_ns)?;
    let due_p99_ms = quantile_sorted(&lat.due_ms, 0.99);
    let tail_lag_ms = out.gen.tail_lag_ms;
    let backlog_ok = out.error.is_none() && !out.gen.truncated && tail_lag_ms <= wl.limit_ms;
    Ok(Probe {
        rate,
        achieved: out.gen.released as f64 / out.gen.span_s.max(1e-9),
        due_p99_ms,
        engine_p99_ms: quantile_sorted(&lat.engine_ms, 0.99),
        tail_lag_ms,
        pass: backlog_ok && due_p99_ms <= wl.limit_ms,
        setup_s: out.setup_s,
    })
}

/// Rungs per doubling of the offered rate (a rung is 4.4% above the last).
const RUNGS_PER_DOUBLING: i32 = 16;

/// Time budget of one ladder search, in probe lengths: no probe starts
/// after it is spent. Probes far above the knee are cut short, so the
/// budget usually covers more probes than this.
pub const LADDER_RUNS: usize = 6;

/// Most probes one ladder search runs, retries included.
const MAX_PROBES: usize = 8;

/// Fixed-rate runs per end-to-end measurement; latency and CPU are their
/// medians.
pub const FIXED_RUNS: usize = 3;

/// Offered rate of ladder rung `k`: the fixed rate times `2^(k/16)`.
pub fn rung_rate(wl: &Workload, k: i32) -> f64 {
    wl.fixed_rate * 2f64.powf(k as f64 / RUNGS_PER_DOUBLING as f64)
}

/// The next rung to probe, or `None` once the highest passing and lowest
/// failing rungs are adjacent. The search starts one doubling above the
/// fixed rate (each workload's fixed rate is about half its knee), steps
/// four rungs twice, then doubles the step while every probe agrees, then
/// bisects.
fn next_rung(pass_k: Option<i32>, fail_k: Option<i32>, probes: usize) -> Option<i32> {
    let step = 4 << probes.saturating_sub(2).min(2);
    match (pass_k, fail_k) {
        (Some(p), Some(f)) if f - p <= 1 => None,
        (Some(p), Some(f)) => Some((p + f) / 2),
        (Some(p), None) => Some(p + step),
        (None, Some(f)) => Some(f - step),
        (None, None) => Some(RUNGS_PER_DOUBLING),
    }
}

/// Search the geometric ladder for the highest sustainable rung, every
/// probe `seconds_per_probe` long. A rung that fails is probed once more on
/// another schedule and passes if either probe does: on a shared host, time
/// the program did not get can make a run fail, but it cannot make one
/// pass. A failure with a due-time p99 over four times the limit is taken
/// as final: its backlog sits inside the engine (the generator never fell
/// behind), so the probe could not be cut short and a retry would drain
/// seconds of backlog again. Returns the probes in order.
pub fn ladder(
    wl: &Workload,
    seconds_per_probe: f64,
    seed: u64,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Vec<Probe>, String> {
    let (mut pass_k, mut fail_k): (Option<i32>, Option<i32>) = (None, None);
    let mut probes = Vec::new();
    let mut rungs = 0;
    let start = std::time::Instant::now();
    let budget = seconds_per_probe * LADDER_RUNS as f64;
    let in_budget =
        |probes: &[Probe]| probes.len() < MAX_PROBES && start.elapsed().as_secs_f64() < budget;
    while in_budget(&probes) {
        let Some(k) = next_rung(pass_k, fail_k, rungs) else {
            break;
        };
        rungs += 1;
        // Each rung draws its own schedule, so one unlucky draw cannot
        // decide every rung.
        let rung_seed = seed.wrapping_add(k as u64);
        let mut p = probe(
            wl,
            rung_rate(wl, k),
            seconds_per_probe,
            rung_seed,
            dir,
            tally,
        )?;
        if !p.pass && p.due_p99_ms <= 4.0 * wl.limit_ms {
            probes.push(p);
            if !in_budget(&probes) {
                break;
            }
            let retry_seed = rung_seed.wrapping_add(1 << 32);
            p = probe(
                wl,
                rung_rate(wl, k),
                seconds_per_probe,
                retry_seed,
                dir,
                tally,
            )?;
        }
        if p.pass {
            pass_k = Some(pass_k.map_or(k, |q| q.max(k)));
        } else {
            fail_k = Some(fail_k.map_or(k, |q| q.min(k)));
        }
        probes.push(p);
    }
    Ok(probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::Value;

    #[test]
    fn due_time_latency_recovers_the_clock_offset() {
        // Two results whose latest contributors were due at 0 and 10 ms on
        // the generator clock; the engine clock runs 5 ms ahead. The second
        // tuple was pulled 3 ms late, which the engine stamp does not show.
        let mk = |et: i64, emit_ms: f64| {
            let mut t = Tuple::at(vec![Value::Int(et)], et);
            t.emit_ns = (emit_ms * 1e6) as u64;
            t
        };
        let sink = vec![mk(0, 5.0), mk(10, 18.0)];
        let lat = latencies(&sink, &[1_000_000, 1_000_000]).unwrap();
        assert_eq!(lat.engine_ms, vec![1.0, 1.0]);
        assert_eq!(lat.due_ms, vec![1.0, 4.0]);
        assert!(latencies(&sink, &[1]).is_err());
    }

    #[test]
    fn ladder_brackets_then_bisects() {
        assert_eq!(next_rung(None, None, 0), Some(16));
        assert_eq!(next_rung(Some(16), None, 1), Some(20));
        assert_eq!(next_rung(Some(20), None, 2), Some(24));
        assert_eq!(next_rung(Some(24), None, 3), Some(32));
        assert_eq!(next_rung(None, Some(16), 1), Some(12));
        assert_eq!(next_rung(None, Some(8), 3), Some(0));
        assert_eq!(next_rung(Some(12), Some(16), 2), Some(14));
        assert_eq!(next_rung(Some(14), Some(15), 4), None);
    }

    #[test]
    fn multiset_difference_counts_both_sides() {
        let a: Vec<String> = ["a", "b", "b", "c"].iter().map(|s| s.to_string()).collect();
        let b: Vec<String> = ["b", "c", "d"].iter().map(|s| s.to_string()).collect();
        assert_eq!(mismatches(&a, &a), 0);
        assert_eq!(mismatches(&a, &b), 3);
    }
}
