//! Host-speed correction.
//!
//! The benchmark's host is shared: on a 2-core machine its speed
//! switches for seconds at a time between an undisturbed state and one
//! where every timing is 1.3 to 1.6 times longer, and the share of a
//! run spent in the slow state changes from run to run. A median over a
//! run then lands in either state, and two runs of one seed differ by
//! up to a quarter.
//!
//! So each unit of work (a refinement cycle, a serve round) is
//! bracketed by two timings of a fixed reference job that shares no
//! code with the program, and every time measured in the unit is
//! scaled by [`REFERENCE_US`] over the job's mean time there: it is
//! reported at the speed of the undisturbed host. A change to the
//! program moves the unit's timings and not the job's, so it moves the
//! corrected figures as much as the raw ones.

use crate::stats::timed;
use std::collections::BTreeMap;

/// The reference job's time on the undisturbed host (2-core x86-64).
pub const REFERENCE_US: f64 = 1650.0;

/// The reference job: sorts 50 000 pseudo-random integers and indexes
/// every seventh in an ordered map. About 1.7 ms and 1.5 MB of memory.
fn job() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u64> = (0..50_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let m: BTreeMap<u64, usize> =
        v.iter().enumerate().step_by(7).map(|(i, e)| (e.rotate_left(17), i)).collect();
    m.values().fold(v[v.len() / 2], |acc, &i| acc ^ i as u64)
}

/// Times one run of the reference job (µs).
pub fn reference_us() -> f64 {
    let (r, t) = timed(job);
    std::hint::black_box(r);
    t
}

/// The factor scaling a unit's times to the undisturbed host, given
/// the reference job's time before and after it.
pub fn factor(before_us: f64, after_us: f64) -> f64 {
    REFERENCE_US * 2.0 / (before_us + after_us)
}
