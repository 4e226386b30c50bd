//! The open-loop load generator.
//!
//! [`Paced`] wraps an application's own seeded [`SourceFactory`] and releases
//! each tuple at `t0 + event_time`, where `t0` is the moment the engine first
//! asks the source for a tuple. The event times are the Poisson schedule the
//! application already draws at the offered rate, so pacing changes *when*
//! tuples enter the engine, never *which* tuples. The schedule does not slow
//! down when the engine does: a tuple the engine pulls late is released at
//! once, and the time it waited shows up as generator lag and in the due-time
//! latency of every result it contributes to.

use pdsp_engine::runtime::SourceFactory;
use pdsp_engine::Tuple;
use pdsp_net::epoch_ns_now;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one generator saw, published when its stream ends.
#[derive(Debug, Clone, Default)]
pub struct GenStats {
    /// When the first tuple was due (UNIX epoch ns); 0 before the first pull.
    pub t0_epoch_ns: u64,
    /// `t0` on this process's monotonic clock.
    pub t0: Option<Instant>,
    /// Tuples released to the engine.
    pub released: u64,
    /// Seconds from `t0` to the release of the last tuple.
    pub span_s: f64,
    /// Per-tuple lag behind the schedule, µs, in release order.
    pub lags_us: Vec<u32>,
    /// The stream was cut short because the lag passed the abort bound.
    pub truncated: bool,
    /// The stream has ended and the fields above are final.
    pub done: bool,
}

impl GenStats {
    /// The statistics the benchmark reports.
    pub fn summary(&self) -> GenSummary {
        let mut v = self.lags_us.clone();
        v.sort_unstable();
        let mut tail = self.lags_us[self.lags_us.len() * 3 / 4..].to_vec();
        tail.sort_unstable();
        GenSummary {
            t0_epoch_ns: self.t0_epoch_ns,
            released: self.released,
            span_s: self.span_s,
            truncated: self.truncated,
            lag_p99_ms: crate::stats::quantile_sorted_u32(&v, 0.99) / 1e3,
            tail_lag_ms: crate::stats::quantile_sorted_u32(&tail, 0.5) / 1e3,
        }
    }
}

/// Summary of one generator, small enough to pass between processes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenSummary {
    /// When the first tuple was due (UNIX epoch ns).
    pub t0_epoch_ns: u64,
    /// Tuples released.
    pub released: u64,
    /// Seconds from the first due time to the last release.
    pub span_s: f64,
    /// Cut short by the abort bound.
    pub truncated: bool,
    /// 99th percentile of the release lag, ms.
    pub lag_p99_ms: f64,
    /// Median lag over the last quarter of the releases, ms. A backlog that
    /// grows for the whole run keeps it high; a short stall does not.
    pub tail_lag_ms: f64,
}

impl GenSummary {
    /// `key value` lines.
    pub fn to_lines(&self) -> String {
        format!(
            "t0_epoch_ns {}\nreleased {}\nspan_s {}\ntruncated {}\nlag_p99_ms {}\ntail_lag_ms {}\n",
            self.t0_epoch_ns,
            self.released,
            self.span_s,
            u8::from(self.truncated),
            self.lag_p99_ms,
            self.tail_lag_ms
        )
    }

    /// Parse [`GenSummary::to_lines`]; missing keys read as 0.
    pub fn from_lines(text: &str) -> Self {
        GenSummary {
            t0_epoch_ns: field(text, "t0_epoch_ns"),
            released: field(text, "released"),
            span_s: field(text, "span_s"),
            truncated: field::<u8>(text, "truncated") != 0,
            lag_p99_ms: field(text, "lag_p99_ms"),
            tail_lag_ms: field(text, "tail_lag_ms"),
        }
    }
}

/// The value of `key` in `key value` lines; the default when absent or
/// malformed.
pub fn field<T: std::str::FromStr + Default>(text: &str, key: &str) -> T {
    text.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_default()
}

/// Shared handle on one generator's statistics.
pub type GenHandle = Arc<Mutex<GenStats>>;

/// Paced wrapper around a source factory. The benchmark deploys every source
/// at parallelism 1, so one factory drives one generator.
pub struct Paced {
    inner: Arc<dyn SourceFactory>,
    stats: GenHandle,
    abort_lag: Option<Duration>,
}

impl Paced {
    /// Pace `inner`. With `abort_lag`, the stream ends early once a tuple
    /// is released more than that late: a ladder probe far above the knee
    /// has shown its verdict and need not drain a backlog of seconds.
    pub fn new(
        inner: Arc<dyn SourceFactory>,
        abort_lag: Option<Duration>,
    ) -> (Arc<Self>, GenHandle) {
        let stats: GenHandle = Arc::default();
        let paced = Arc::new(Paced {
            inner,
            stats: Arc::clone(&stats),
            abort_lag,
        });
        (paced, stats)
    }
}

impl SourceFactory for Paced {
    fn instance_iter(
        &self,
        instance_index: usize,
        parallelism: usize,
    ) -> Box<dyn Iterator<Item = Tuple> + Send> {
        Box::new(PacedIter {
            inner: self.inner.instance_iter(instance_index, parallelism),
            stats: Arc::clone(&self.stats),
            abort_lag: self.abort_lag,
            t0: None,
            last_release: None,
            lags_us: Vec::new(),
            truncated: false,
            published: false,
        })
    }
}

struct PacedIter {
    inner: Box<dyn Iterator<Item = Tuple> + Send>,
    stats: GenHandle,
    abort_lag: Option<Duration>,
    t0: Option<Instant>,
    last_release: Option<Instant>,
    lags_us: Vec<u32>,
    truncated: bool,
    published: bool,
}

impl PacedIter {
    fn publish(&mut self) {
        if self.published {
            return;
        }
        self.published = true;
        // Also runs from `Drop`, which must not panic.
        let Ok(mut s) = self.stats.lock() else {
            return;
        };
        s.released = self.lags_us.len() as u64;
        s.span_s = match (self.t0, self.last_release) {
            (Some(t0), Some(last)) => (last - t0).as_secs_f64(),
            _ => 0.0,
        };
        s.lags_us = std::mem::take(&mut self.lags_us);
        s.truncated = self.truncated;
        s.done = true;
    }
}

impl Iterator for PacedIter {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.published {
            return None;
        }
        let t0 = match self.t0 {
            Some(t0) => t0,
            None => {
                let t0 = Instant::now();
                let mut s = self.stats.lock().expect("generator stats lock poisoned");
                s.t0 = Some(t0);
                s.t0_epoch_ns = epoch_ns_now();
                drop(s);
                self.t0 = Some(t0);
                t0
            }
        };
        let Some(tuple) = self.inner.next() else {
            self.publish();
            return None;
        };
        let due = t0 + Duration::from_millis(tuple.event_time.max(0) as u64);
        let mut now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            now = Instant::now();
        }
        let lag = now - due;
        if self.abort_lag.is_some_and(|bound| lag > bound) {
            self.truncated = true;
            self.publish();
            return None;
        }
        self.last_release = Some(now);
        self.lags_us
            .push(u32::try_from(lag.as_micros()).unwrap_or(u32::MAX));
        Some(tuple)
    }
}

impl Drop for PacedIter {
    fn drop(&mut self) {
        // A run that fails mid-stream still reports how far it got.
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::runtime::VecSource;
    use pdsp_engine::Value;

    #[test]
    fn releases_on_schedule_and_summarises_round_trip() {
        let tuples: Vec<Tuple> = (0..20).map(|i| Tuple::at(vec![Value::Int(i)], i)).collect();
        let (paced, stats) = Paced::new(VecSource::new(tuples.clone()), None);
        let start = Instant::now();
        let out: Vec<Tuple> = paced.instance_iter(0, 1).collect();
        assert_eq!(out, tuples, "pacing changes when, never which");
        assert!(start.elapsed() >= Duration::from_millis(19));
        let s = stats.lock().unwrap().summary();
        assert_eq!(s.released, 20);
        assert!(!s.truncated && s.t0_epoch_ns > 0 && s.span_s > 0.0);
        assert_eq!(GenSummary::from_lines(&s.to_lines()), s);
    }

    #[test]
    fn abort_bound_truncates_a_hopeless_schedule() {
        // Everything due at once, but pulled slowly: the lag passes 1 ms.
        let tuples: Vec<Tuple> = (0..50).map(|i| Tuple::at(vec![Value::Int(i)], 0)).collect();
        let (paced, stats) = Paced::new(VecSource::new(tuples), Some(Duration::from_millis(1)));
        let mut n = 0;
        for _ in paced.instance_iter(0, 1) {
            std::thread::sleep(Duration::from_micros(300));
            n += 1;
        }
        let s = stats.lock().unwrap().summary();
        assert!(s.truncated && n < 50 && s.released == n);
    }
}
