//! Outside-in span log: one span (name, start, end, parent) around each call
//! the benchmark makes into a layer of the program. Spans are kept in memory
//! and written out once, when the benchmark ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Rec {
    name: String,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

struct Log {
    origin: Option<Instant>,
    recs: Vec<Rec>,
    open: Vec<usize>,
}

static LOG: Mutex<Log> = Mutex::new(Log {
    origin: None,
    recs: Vec::new(),
    open: Vec::new(),
});

/// An open span; its parent is the innermost span open when it began.
pub struct Span {
    id: usize,
    start: Instant,
    ended: bool,
}

/// Open a span named `name`.
pub fn enter(name: impl Into<String>) -> Span {
    let start = Instant::now();
    let mut log = LOG.lock().expect("span log lock poisoned");
    log.origin.get_or_insert(start);
    let id = log.recs.len();
    let parent = log.open.last().copied();
    log.recs.push(Rec {
        name: name.into(),
        start,
        end: None,
        parent,
    });
    log.open.push(id);
    Span {
        id,
        start,
        ended: false,
    }
}

impl Span {
    /// Close the span and return its duration.
    pub fn end(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let now = Instant::now();
        if !self.ended {
            self.ended = true;
            // Also runs from `Drop`, which must not panic.
            if let Ok(mut log) = LOG.lock() {
                log.recs[self.id].end = Some(now);
                log.open.retain(|&i| i != self.id);
            }
        }
        now - self.start
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Every recorded span as a JSON array, times in µs from the first span.
pub fn to_json() -> String {
    let log = LOG.lock().expect("span log lock poisoned");
    let Some(origin) = log.origin else {
        return "[]\n".into();
    };
    let us = |t: Instant| (t - origin).as_secs_f64() * 1e6;
    let mut out = String::from("[\n");
    for (i, r) in log.recs.iter().enumerate() {
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        let end = r.end.map_or(f64::NAN, us);
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {}, \"parent\": {parent}}}{}",
            r.name.replace(['"', '\\'], "_"),
            us(r.start),
            if end.is_finite() { format!("{end:.1}") } else { "null".into() },
            if i + 1 < log.recs.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    out
}
