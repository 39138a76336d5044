//! What the process can learn about itself and the machine: CPU time and
//! peak memory from `/proc`, and the `env` block recorded in every result
//! file so that two files are only compared knowingly across machines,
//! toolchains or allocator settings.

use std::process::Command;

use crate::json::Json;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process so far, threads that already
/// exited included: the process CPU-time clock where there is one (ns
/// resolution), `/proc/self/stat` (10 ms ticks) otherwise.
pub fn cpu_seconds() -> f64 {
    process_cpu_clock().unwrap_or_else(cpu_seconds_from_proc)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_clock() -> Option<f64> {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` is the C library's (std links it); it writes
    // one `timespec` through the pointer, which is valid, aligned and
    // exclusively borrowed for the call, and `Timespec` has that layout on
    // the targets this function is compiled for.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (status == 0).then(|| ts.sec as f64 + ts.nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_clock() -> Option<f64> {
    None
}

fn cpu_seconds_from_proc() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after the name.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak resident set of this process in MB (`VmHWM`; 0 where unknown).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers in the shared pool: `min(nproc, 2)`, so the numbers mean the
/// same on the 2-CPU box the bounds were set on and on anything larger.
pub fn pool_workers() -> usize {
    nproc().min(2)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The environment knobs that move numbers without any code changing.
pub fn env_block() -> Json {
    let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let text = |v: Option<String>| Json::str(v.unwrap_or_else(|| "unknown".to_string()));
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("pool_workers", Json::Num(pool_workers() as f64)),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("allocator", Json::str("system")),
        ("transparent_hugepage", Json::str(thp)),
        (
            "commit",
            text(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let before = cpu_seconds();
        let mut x = 1u64;
        while cpu_seconds() - before < 0.02 {
            for _ in 0..1_000_000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        }
        assert!(peak_rss_mb() > 0.5);
        assert_eq!(
            env_block().get("nproc").and_then(Json::as_f64),
            Some(nproc() as f64)
        );
    }
}
