//! Noise control: the fixed calibration loop (`CAL`) and the
//! ratio-of-sums estimator built on it.
//!
//! Raw wall time in a small shared sandbox follows the host's speed of
//! the moment (an SMT sibling's load, frequency steps), and the slow
//! mode lasts for tens of seconds, so neither a minimum nor a median of
//! repeats removes it. `CAL` is a fixed amount of arithmetic timed
//! right before every measured operation; dividing the summed wall
//! time of the operations by the summed wall time of their `CAL` runs
//! cancels whatever speed factor both saw. The result is scaled by
//! [`NOMINAL_CAL_MS`], so it reads "milliseconds at nominal host
//! speed" and equals wall milliseconds on a quiet core.

use std::hint::black_box;
use std::time::Instant;

/// Elements of the `CAL` working set: 32 KiB of `f64`, L1-resident.
const CAL_LEN: usize = 4096;
/// Passes over the working set per `CAL` run.
const CAL_PASSES: usize = 400;
/// Wall time of one `CAL` run on a quiet core of the reference sandbox,
/// in milliseconds. A constant: it only fixes the unit of the
/// normalised metrics, and both sides of a comparison share it.
pub const NOMINAL_CAL_MS: f64 = 0.30;

/// The calibration loop and its working set.
pub struct Cal {
    buf: Vec<f64>,
}

impl Cal {
    pub fn new() -> Self {
        Self { buf: (0..CAL_LEN).map(|i| 1.0 + i as f64 * 1e-6).collect() }
    }

    /// Run the fixed loop once and return its wall time in nanoseconds.
    pub fn run_ns(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..CAL_PASSES {
            // Contracting map towards 1.0: values stay finite for any
            // number of runs, and every pass depends on the one before.
            for x in &mut self.buf {
                *x = *x * 0.999_999 + 1e-6;
            }
            black_box(&mut self.buf);
        }
        start.elapsed().as_nanos() as f64
    }
}

/// `Σ work / Σ cal`: the work's cost in units of one `CAL` run. `None`
/// when there is nothing to divide (no samples, or a zero `CAL` sum).
pub fn ratio_of_sums(work_ns: &[f64], cal_ns: &[f64]) -> Option<f64> {
    let cal: f64 = cal_ns.iter().sum();
    if work_ns.is_empty() || cal_ns.is_empty() || cal <= 0.0 {
        return None;
    }
    Some(work_ns.iter().sum::<f64>() / cal)
}

/// Calibrated milliseconds per operation: the mean wall time of `ops`
/// operations, divided by how much slower than nominal the `CAL` runs
/// interleaved with them were. Algebraically
/// `Σ work / Σ cal × (cal runs per op) × NOMINAL_CAL_MS`, so with one
/// `CAL` run per operation it is the plain ratio of sums.
pub fn norm_ms_per_op(work_ns: &[f64], cal_ns: &[f64], ops: usize) -> Option<f64> {
    if ops == 0 {
        return None;
    }
    let ratio = ratio_of_sums(work_ns, cal_ns)?;
    Some(ratio * cal_ns.len() as f64 / ops as f64 * NOMINAL_CAL_MS)
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_invariant_when_both_series_scale() {
        let work = [10.0, 30.0, 20.0];
        let cal = [1.0, 3.0, 2.0];
        let base = ratio_of_sums(&work, &cal).unwrap();
        assert_eq!(base, 10.0);
        // A host that runs 1.7x slower for the whole window.
        let slow = |v: &[f64]| v.iter().map(|x| x * 1.7).collect::<Vec<_>>();
        let scaled = ratio_of_sums(&slow(&work), &slow(&cal)).unwrap();
        assert!((scaled - base).abs() < 1e-12);
        // A host that is slow for only part of the window: each sample
        // pair scales together, the ratio of sums does not move because
        // work and cal keep their 10:1 proportion pair by pair.
        let work2 = [10.0 * 2.0, 30.0, 20.0 * 1.5];
        let cal2 = [1.0 * 2.0, 3.0, 2.0 * 1.5];
        assert!((ratio_of_sums(&work2, &cal2).unwrap() - base).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_sample_edges() {
        assert_eq!(ratio_of_sums(&[], &[1.0]), None);
        assert_eq!(ratio_of_sums(&[1.0], &[]), None);
        assert_eq!(ratio_of_sums(&[1.0], &[0.0]), None);
        assert_eq!(ratio_of_sums(&[6.0], &[3.0]), Some(2.0));
        assert_eq!(norm_ms_per_op(&[6.0], &[3.0], 0), None);
        // One op, one CAL run: 2 CAL units = 0.6 nominal ms.
        assert_eq!(norm_ms_per_op(&[6.0], &[3.0], 1), Some(2.0 * NOMINAL_CAL_MS));
    }

    #[test]
    fn norm_counts_cal_runs_per_op() {
        // 4 CAL runs in the window but only 2 ops of this kind (the
        // other CAL runs preceded ops of the other kind): the per-op
        // cost is twice the per-CAL-run cost.
        let got = norm_ms_per_op(&[8.0, 8.0], &[1.0, 1.0, 1.0, 1.0], 2).unwrap();
        assert!((got - 4.0 * 2.0 * NOMINAL_CAL_MS).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), Some(4.6));
    }

    #[test]
    fn cal_runs_and_stays_finite() {
        let mut cal = Cal::new();
        let ns = cal.run_ns();
        assert!(ns > 0.0);
        for _ in 0..50 {
            cal.run_ns();
        }
        assert!(cal.buf.iter().all(|x| x.is_finite() && *x > 0.5 && *x < 2.0));
    }
}
