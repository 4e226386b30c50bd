//! Process accounting read from Linux `/proc`.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// CPU seconds used by this process plus its reaped children (the worker
/// processes of a distributed run once the coordinator has waited on them).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name is parenthesised and may hold spaces: count fields
    // from the last ')'. Field 14 (utime) is the 12th token after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12) + tick(13) + tick(14)) as f64 / USER_HZ
}

/// Peak resident set size of this process, KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    status_field("VmHWM:")
}

/// Reset this process's `VmHWM` to its current resident size, so the next
/// reading is the peak of what runs in between.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Bytes sent on the loopback interface of this network namespace: every
/// TCP segment between the processes of a distributed run, headers included.
pub fn loopback_tx_bytes() -> u64 {
    fs::read_to_string("/proc/net/dev")
        .ok()
        .and_then(|dev| {
            dev.lines().find_map(|l| {
                let (name, counters) = l.split_once(':')?;
                if name.trim() != "lo" {
                    return None;
                }
                // Receive has 8 counters; transmit bytes is the 9th.
                counters.split_whitespace().nth(8)?.parse().ok()
            })
        })
        .unwrap_or(0)
}

fn status_field(name: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|st| {
            st.lines().find_map(|l| {
                l.strip_prefix(name)
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_monotone() {
        assert!(peak_rss_kib() > 0);
        let big = vec![1u8; 64 << 20];
        let peak = peak_rss_kib();
        assert!(peak >= 64 << 10);
        drop(std::hint::black_box(big));
        reset_peak_rss();
        assert!(peak_rss_kib() < peak);
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= a);
        let lo = loopback_tx_bytes();
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut c = std::net::TcpStream::connect(l.local_addr().unwrap()).unwrap();
        std::io::Write::write_all(&mut c, &[7u8; 4096]).unwrap();
        assert!(loopback_tx_bytes() >= lo + 4096);
    }
}
