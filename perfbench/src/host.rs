//! Host and process probes, read from `/proc` and the process CPU clock,
//! and the CPU pin the benchmark runs under.
//!
//! None of the probes gate a run. Process CPU time and per-iteration peak
//! RSS are reported metrics; host steal and the core count are diagnostics
//! that let a noisy run be explained.

use std::fs;

/// `USER_HZ`: the tick rate of the `/proc` CPU counters. It is fixed at 100
/// on Linux regardless of the kernel's internal `HZ`.
const TICKS_PER_S: f64 = 100.0;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU seconds of this process, including threads that have
/// already exited, to the nanosecond. `/proc/self/stat` has the same figure
/// in 10 ms ticks, too coarse for iterations of a few tenths of a second.
pub fn process_cpu_s() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` comes from the C library `std` links on Linux;
    // it writes one `struct timespec`, whose layout `Timespec` matches, to a
    // pointer that is valid and exclusively borrowed for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds the hypervisor gave to other guests, summed over every CPU
/// this kernel sees (the `steal` column of `/proc/stat`).
pub fn host_steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal as f64 / TICKS_PER_S)
}

/// `cpu_set_t` from `<sched.h>`: a mask of 1,024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread to the lowest-numbered CPU it may run on,
/// and return that CPU. Threads and child processes it starts later inherit
/// the restriction, and `available_parallelism` reports 1, so calling this
/// first thing in `main` pins the whole run. `None` if either affinity call
/// fails; the thread then keeps every CPU it had.
pub fn pin_to_one_cpu() -> Option<usize> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `sched_getaffinity` comes from the C library `std` links on
    // Linux; pid 0 is the calling thread, and it writes at most `size` bytes
    // to `allowed`, which is valid and exclusively borrowed for the call.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..64 * allowed.0.len()).find(|&c| allowed.0[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `sched_setaffinity` only reads `size` bytes of `one`.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Cores the program may use, as `std` reports them.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where a peak-RSS reading starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RssScope {
    /// The high-water mark was reset before the iteration.
    Iteration,
    /// The reset failed: the reading is the process-lifetime peak.
    Process,
}

impl RssScope {
    pub fn as_str(self) -> &'static str {
        match self {
            RssScope::Iteration => "iteration",
            RssScope::Process => "process",
        }
    }
}

/// Reset the peak-RSS high-water mark (`VmHWM`) to the current RSS by
/// writing `5` to `/proc/self/clear_refs`.
pub fn reset_peak_rss() -> RssScope {
    match fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => RssScope::Iteration,
        Err(_) => RssScope::Process,
    }
}

/// `VmHWM` in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 * 1024.0 / 1e6)
}
