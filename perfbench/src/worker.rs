//! Worker mode: the benchmark binary re-executed by the distributed
//! coordinator as a worker process, with the benchmark's own `paced:` spec
//! resolver. The worker reports when it started, its peak RSS and its
//! generator's statistics to the parent through a file in a directory the
//! parent names.
//!
//! The coordinator kills every worker as soon as all have sent `Done`, so a
//! report written only at exit could be lost. The report is rewritten
//! every few milliseconds instead (write to a temporary file, then rename),
//! and once more after the worker's main returns.

use crate::job;
use crate::paced::{field, GenHandle, GenSummary};
use crate::procfs;
use pdsp_engine::WorkerMain;
use pdsp_net::epoch_ns_now;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// First argument selecting worker mode; the report directory follows it.
pub const FLAG: &str = "--worker-mode";

/// Rewrite period of the report.
const REPORT_EVERY: Duration = Duration::from_millis(10);

/// What one worker reported.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// When the worker process entered its main (UNIX epoch ns).
    pub entry_epoch_ns: u64,
    /// Peak resident set size, KiB.
    pub peak_kib: u64,
    /// The generator this worker hosted (empty when it hosts none).
    pub gen: GenSummary,
}

fn arg_after<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Run as a worker process. `args` are the arguments after [`FLAG`]:
/// `<report-dir> --coordinator <addr> --id <n>`. Never returns.
pub fn main(args: &[String]) -> ! {
    let entry_epoch_ns = epoch_ns_now();
    let (Some(dir), Some(addr), Some(id)) = (
        args.first(),
        arg_after(args, "--coordinator"),
        arg_after(args, "--id").and_then(|v| v.parse::<usize>().ok()),
    ) else {
        eprintln!("{FLAG} needs <report-dir> --coordinator ADDR --id N");
        std::process::exit(2);
    };
    let path = Path::new(dir).join(format!("worker-{id}.txt"));
    let gens: Arc<Mutex<Vec<GenHandle>>> = Arc::default();
    let stop = Arc::new(AtomicBool::new(false));
    let reporter = {
        let (path, gens, stop) = (path.clone(), Arc::clone(&gens), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut done: Option<GenSummary> = None;
            while !stop.load(Ordering::SeqCst) {
                write_report(&path, entry_epoch_ns, &gens, &mut done);
                std::thread::sleep(REPORT_EVERY);
            }
            done
        })
    };
    let outcome = WorkerMain::new(job::resolver(Arc::clone(&gens))).run(addr, id);
    stop.store(true, Ordering::SeqCst);
    let mut done = reporter.join().unwrap_or(None);
    write_report(&path, entry_epoch_ns, &gens, &mut done);
    match outcome {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker {id} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Write the current report. The generator summary is computed once, when
/// the generator has published its statistics at the end of its stream.
fn write_report(
    path: &Path,
    entry_epoch_ns: u64,
    gens: &Mutex<Vec<GenHandle>>,
    done: &mut Option<GenSummary>,
) {
    let gen = match done {
        Some(s) => s.clone(),
        None => {
            let handles = gens.lock().map(|g| g.clone()).unwrap_or_default();
            let stats = handles
                .first()
                .and_then(|h| h.lock().ok().map(|s| s.clone()));
            let summary = stats.as_ref().map(|s| s.summary()).unwrap_or_default();
            if stats.is_some_and(|s| s.done) {
                *done = Some(summary.clone());
            }
            summary
        }
    };
    let text = format!(
        "entry_epoch_ns {entry_epoch_ns}\npeak_kib {}\n{}",
        procfs::peak_rss_kib(),
        gen.to_lines()
    );
    let tmp = path.with_extension("tmp");
    if fs::write(&tmp, text).is_ok() {
        let _ = fs::rename(&tmp, path);
    }
}

/// Read every worker report in `dir`.
pub fn read_reports(dir: &Path) -> Vec<WorkerReport> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    paths
        .iter()
        .filter_map(|p| fs::read_to_string(p).ok())
        .map(|text| WorkerReport {
            entry_epoch_ns: field(&text, "entry_epoch_ns"),
            peak_kib: field(&text, "peak_kib"),
            gen: GenSummary::from_lines(&text),
        })
        .collect()
}
