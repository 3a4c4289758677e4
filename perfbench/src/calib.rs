//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants, whose load changes
//! how fast the same code runs by up to 2x within minutes.  A fixed kernel,
//! which belongs to the benchmark and never changes with the program, is
//! timed right before and right after every untraced run.  Its time
//! against [`REFERENCE_S`] gives the host's speed during the run, and the
//! benchmark reports the run's times scaled to that reference speed.
//!
//! The scale is the kernel's speed-up to the reference raised to
//! [`ELASTICITY`], not to 1: contention slows the workloads more than any
//! small kernel.  The exponent only maps host speed; a change in the
//! program's own speed reaches the scaled times one for one, because the
//! kernel does not change with the program.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median kernel pass time, in seconds, on the reference host: one vCPU of
/// the 2-vCPU Intel Xeon virtual machine the benchmark was tuned on, at a
/// quiet moment.  It only sets the unit of scaled times.
pub const REFERENCE_S: f64 = 0.005;

/// How much a workload slows per unit of kernel slow-down, in logs.  On the
/// development host, under other tenants' load, the log-log slope of a
/// run's host seconds against its calibrations was 1.1 to 1.3 on `fig9`
/// and 1.4 to 1.5 on `table1-mc`.  Over back-to-back invocations, 1.5 left
/// the spread of `table1-mc`'s invocation medians lowest among 1 to 1.5,
/// and that of `fig9`'s within a point of its lowest (at 1.25).
pub const ELASTICITY: f64 = 1.5;

/// Timed kernel passes per calibration; the calibration is their median.
const PASSES: usize = 8;

/// Table words the table kernel updates: 256 KiB, resident in a core's L2
/// the way the simulators' per-cell state is.
const TABLE_WORDS: usize = 1 << 15;

/// Steps of each of the two kernels per pass.
const STEPS: usize = 1 << 18;

/// Queues of the queue kernel: a 32-port router's input buffers.
const QUEUES: usize = 32;

/// Words a queue holds at most.
const QUEUE_DEPTH: usize = 16;

/// SplitMix64: the next word of the stream at `state`.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Data-dependent branches and read-modify-writes at random places of a
/// table: integer work and cache traffic.
fn table_kernel(table: &mut [u64], mut state: u64) -> u64 {
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let z = next(&mut state);
        let slot = &mut table[(z >> 17) as usize & mask];
        if (*slot ^ z) & 1 == 0 {
            *slot = slot.rotate_left(7) ^ z;
            acc = acc.wrapping_add(*slot);
        } else {
            *slot = slot.wrapping_add(z >> 3);
            acc ^= *slot >> 5;
        }
    }
    acc
}

/// Words pushed into and popped from bounded queues at random, with a
/// floating-point bit-energy sum over the popped words: the shape of a
/// router's per-cycle buffering and energy accounting.
fn queue_kernel(mut state: u64) -> f64 {
    let mut queues: Vec<VecDeque<u64>> = (0..QUEUES)
        .map(|_| VecDeque::with_capacity(QUEUE_DEPTH))
        .collect();
    let mut energy = 0.0f64;
    let mut previous = 0u64;
    for _ in 0..STEPS {
        let z = next(&mut state);
        let input = (z as usize) % QUEUES;
        if z & 0x300 != 0 && queues[input].len() < QUEUE_DEPTH {
            queues[input].push_back(z);
        }
        let output = (z >> 5) as usize % QUEUES;
        if let Some(word) = queues[output].pop_front() {
            energy += f64::from((word ^ previous).count_ones()) * 0.37;
            previous = word;
        } else if z & 0x1000 != 0 {
            energy *= 0.999_999;
        }
    }
    energy
}

/// Times [`PASSES`] passes of both kernels, after an untimed pass that
/// faults the table in, and returns the median pass time.
#[must_use]
pub fn calibrate() -> Duration {
    let mut table = vec![0u64; TABLE_WORDS];
    black_box(table_kernel(black_box(&mut table), 0));
    let mut times: Vec<Duration> = (1..=PASSES as u64)
        .map(|pass| {
            let started = Instant::now();
            black_box(table_kernel(black_box(&mut table), pass));
            black_box(queue_kernel(black_box(pass)));
            started.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[PASSES / 2]
}

/// The factor that scales host seconds of a run to reference-host seconds,
/// given the calibrations right before and right after it: the reference
/// over their mean, to the power [`ELASTICITY`].
#[must_use]
pub fn scale(before: Duration, after: Duration) -> f64 {
    (2.0 * REFERENCE_S / (before + after).as_secs_f64()).powf(ELASTICITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_are_deterministic() {
        let mut a = vec![0u64; TABLE_WORDS];
        let mut b = vec![0u64; TABLE_WORDS];
        assert_eq!(table_kernel(&mut a, 3), table_kernel(&mut b, 3));
        assert_eq!(a, b);
        assert_eq!(queue_kernel(3).to_bits(), queue_kernel(3).to_bits());
        assert!(queue_kernel(3) > 0.0);
        assert!(calibrate() > Duration::ZERO);
    }

    #[test]
    fn scale_is_one_at_reference_speed() {
        let reference = Duration::from_secs_f64(REFERENCE_S);
        assert!((scale(reference, reference) - 1.0).abs() < 1e-12);
        let half = 0.5f64.powf(ELASTICITY);
        assert!((scale(reference, reference * 3) - half).abs() < 1e-12);
    }
}
