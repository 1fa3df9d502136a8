//! The host's pace: a fixed reference job, timed next to every measured
//! stretch of the program, that the end-to-end times are scaled by.
//!
//! On a VM that shares its cores with other tenants, the same work runs up
//! to 1.8x slower in some minutes than in others, and no statistic of one
//! run's iterations removes a slow spell that outlasts the run. The
//! reference job uses none of the program's code and slows with the host:
//! eight independent integer chains, which keep a core's execution ports
//! busy the way a sibling tenant's load contends for them. A stretch that
//! took `t` seconds between reference timings `a` and `b` is reported as
//! `t × QUIET_S / ((a + b) / 2)`, its time on a host that runs the
//! reference in [`QUIET_S`].

use std::hint::black_box;
use std::time::Instant;

/// The reference job's time on a quiet host: the fastest of 2,000 timings
/// on the 2-vCPU Xeon VM the README's figures come from. Scaled times are
/// seconds on a host that runs the job this fast.
pub const QUIET_S: f64 = 0.0117;

/// Rounds of the reference job; 12–35 ms on that VM.
const ROUNDS: u64 = 6_000_000;

/// Time the reference job once.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..black_box(ROUNDS) {
        for (k, lane) in (0u64..).zip(lanes.iter_mut()) {
            *lane = (lane.rotate_left(7) ^ i).wrapping_add(k.wrapping_mul(0x9E37));
        }
    }
    black_box(lanes);
    start.elapsed().as_secs_f64()
}

/// The factor that scales a stretch timed between reference timings
/// `before` and `after` to a quiet host.
pub fn factor(before: f64, after: f64) -> f64 {
    QUIET_S / ((before + after) / 2.0)
}
