//! Host-speed calibration.
//!
//! On a shared host the same deterministic pass runs up to ~1.3× slower
//! in phases that last one or two whole runs, so raw host seconds from
//! two sets of runs disagree by the phase, not by the code. Every pass
//! therefore samples a fixed reference loop, which belongs to the
//! benchmark and never changes with the simulator, before each unit, and
//! scales the pass's host times by `NOMINAL_S / median(samples)`: the
//! time the pass would have taken on a host running the reference loop
//! in `NOMINAL_S`. A change that makes the simulator slower still makes
//! the scaled time longer by the same share; only the host's speed drops
//! out.
//!
//! The loop is a random read-modify-write walk over a 2 MiB table. Of
//! the loops tried (a 32 MiB walk, pointer chases over 4, 16 and 64 MiB)
//! it tracked the simulator's speed best: over 20-s windows of
//! `tenant-churn` its median correlated 0.89 with the per-unit-median
//! wall time (the others 0.76–0.81), and over six 60-s runs each of
//! `paper-matrix` and `tenant-churn` 0.86–0.92. Scaling whole runs by
//! it cut the run-to-run spread of `wall_s` from 15 % to 10 %
//! (`paper-matrix`) and 10 % to 8 % (`tenant-churn`), and of `setup_s`
//! from 8–9 % to 3–4 %. Scaling each pass by its own samples rather
//! than the whole run by all of them also evens out the phases inside a
//! run: over 4-pass windows of `paper-matrix` the wall-time spread
//! (coefficient of variation) fell from 5.5 % raw to 3.3 % scaled per
//! run and 2.3 % scaled per pass.

use crate::units::median;
use std::hint::black_box;
use std::time::Instant;

/// Words in the walked table (2 MiB).
const TABLE_WORDS: usize = 256 << 10;
/// Steps per sample.
const STEPS: u64 = 1 << 20;
/// Seconds of one sample on the reference host: the 2-vCPU Xeon VM of
/// STEADINESS.md, where run medians read 3.6–4.0 ms.
pub const NOMINAL_S: f64 = 0.004;

/// Samples of the reference loop taken during one pass.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            table: vec![1; TABLE_WORDS],
            samples: Vec::new(),
        }
    }
}

impl Calibration {
    /// Time one run of the reference loop.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(walk(&mut self.table, black_box(STEPS)));
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// What one host second of the samples taken since the last call is
    /// worth on the reference host (1 with no samples); clears them.
    pub fn take_factor(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let f = NOMINAL_S / median(&mut self.samples);
        self.samples.clear();
        f
    }
}

/// The reference loop: an LCG picks a word, which is summed and rewritten.
#[inline(never)]
fn walk(table: &mut [u64], steps: u64) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut sum) = (1u64, 0u64);
    for _ in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 33) as usize & mask;
        sum = sum.wrapping_add(table[i]);
        table[i] = sum ^ x;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_nominal_over_the_median_sample() {
        let mut c = Calibration::default();
        assert_eq!(c.take_factor(), 1.0);
        c.samples = vec![2.0 * NOMINAL_S, 4.0 * NOMINAL_S, NOMINAL_S];
        assert_eq!(c.take_factor(), 0.5);
        assert!(c.samples.is_empty());
        c.sample();
        assert!(c.samples[0] > 0.0);
    }
}
