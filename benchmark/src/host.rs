//! What the numbers were measured on: cores, a spin score, the measured
//! two-thread speed-up, and the process's own peak memory.

use std::time::{Duration, Instant};

use crate::json::Json;

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin this process (and every thread it starts from here on) to the
/// highest-numbered CPU it may run on; returns that CPU, or `None` if
/// the kernel refuses, in which case the run goes on unpinned.
///
/// On the two-vCPU sandbox the second vCPU's capacity comes and goes
/// with the host's other tenants, and whether a woken thread lands on
/// the caller's vCPU or the other one changes a stream's time to first
/// message by half. One CPU measures the program's own work; two measure
/// the host's mood. The highest CPU, because interrupts land on CPU 0.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread. The call writes at most
    // that many bytes.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return None;
    }
    let (word, bits) = set.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + (63 - bits.leading_zeros() as usize);
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and the
    // call only reads it.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}

/// Iterations of a dependent integer chain completed in `window`.
fn spin(window: Duration) -> u64 {
    let t = Instant::now();
    let (mut x, mut iters) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    while t.elapsed() < window {
        for _ in 0..10_000 {
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17) ^ iters;
        }
        iters += 10_000;
    }
    std::hint::black_box(x);
    iters
}

/// Host calibration, recorded in every suite report so numbers from
/// different machines are never compared silently.
pub fn calibrate() -> Json {
    let window = Duration::from_millis(200);
    let one = spin(window) as f64;
    let two: f64 = std::thread::scope(|s| {
        let a = s.spawn(|| spin(window));
        let b = s.spawn(|| spin(window));
        (a.join().expect("spin thread") + b.join().expect("spin thread")) as f64
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("spin_miters_per_s", Json::Num((one / window.as_secs_f64() / 1e6).round())),
        ("two_thread_speedup", Json::Num((two / one * 100.0).round() / 100.0)),
        ("transport", Json::str("tcp-loopback")),
        ("storage", Json::str("MemStorage")),
        ("git_commit", Json::str(git_commit())),
    ])
}

/// The checked-out commit, read from `.git` without running git (the
/// driver's checkout has neither).
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}
