//! What the benchmark reads from the host: CPU time, peak memory, load,
//! a calibration loop, and the file system a scratch directory is on.
//! Everything comes from `/proc`; there is no libc dependency.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average, 0.0 where `/proc/loadavg` is missing.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// User + system CPU seconds of this process, all threads. `/proc` counts
/// in clock ticks; Linux fixes `USER_HZ` at 100 on every architecture this
/// builds for, so the 10 ms tick is the resolution.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 2 (the command) may hold spaces; fields are counted after its
    // closing parenthesis, where utime and stime are the 12th and 13th.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / USER_HZ
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run health: a fixed integer loop (≈ 0.5 s on the builder's host) plus a
/// first touch of 256 MB. The same instructions every time, so a change in
/// this number is the machine, not the program.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..200_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    let mut block = vec![0u8; 256 << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    black_box(&block);
    start.elapsed().as_secs_f64()
}

/// File-system type `dir` is mounted on (longest mount-point prefix in
/// `/proc/mounts`), or `"unknown"`.
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        assert!(
            peak_rss_mb() > 0.5,
            "a running test binary has resident pages"
        );
        let before = cpu_seconds();
        let mut x = 1u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(
            cpu_seconds() > before,
            "60 ms of spinning spans several ticks"
        );
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
