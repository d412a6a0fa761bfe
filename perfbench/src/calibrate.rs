//! A fixed reference computation that measures how fast the core runs right
//! now, so that end-to-end times can be reported on a reference core.
//!
//! On the shared VM this benchmark was built on, the CPU time of an
//! unchanged browser op moved between 36 and 105 ms within an hour, and
//! between 66 and 99 ms in runs 16 s apart, while the host reported under
//! 1% steal: the core itself ran slower, most likely from other tenants on
//! its shared cores and caches. No clock inside the guest tells that apart
//! from a slower program. This kernel does: it is the benchmark's own code, calls
//! none of the workspace's crates, and does the same work on every call.
//! Runs sample it after every op and scale each op's time by
//! [`REFERENCE_MS`] over the median of the samples around it, raised to the
//! workload's speed elasticity.

use std::collections::BTreeMap;

use crate::stats::{median, mix, thread_cpu_ms};

/// The kernel's time on the reference core, in ms: a round constant.
/// Reported times are what the op would have taken on a core where one
/// kernel sample takes this long. Only ratios between runs matter; the
/// kernel's median on the baseline VM is in `perfbench/README.md`.
pub const REFERENCE_MS: f64 = 0.5;

/// Keys the kernel sorts and indexes (64 KiB of `u64`).
const KEYS: u64 = 8_192;

/// The kernel's checked result.
const EXPECTED: usize = 8_384_512;

/// Samples on each side of an op that scale it: the median of 15 samples
/// spans ~0.6 s of browser ops and ~2 s of service submits, shorter than
/// the speed swings seen, and enough to steady a sample's ±20% noise.
const HALF_WINDOW: usize = 7;

/// Runs the kernel once (sort, index, probe: a mix of compute, branches,
/// allocation and pointer chasing like the workspace's own) and returns
/// the calling thread's CPU time for it, in ms. The thread clock leaves out
/// work other threads (the service's server) do meanwhile.
pub fn sample() -> f64 {
    let start = thread_cpu_ms();
    let mut keys: Vec<u64> = (0..KEYS).map(|i| mix(0x5eed, i)).collect();
    keys.sort_unstable();
    let index: BTreeMap<u64, usize> =
        keys.iter().step_by(4).enumerate().map(|(i, k)| (*k, i)).collect();
    let mut total = 0usize;
    for i in 0..KEYS {
        if let Some((_, at)) = index.range(..=mix(0x5eed, i)).next_back() {
            total += at;
        }
    }
    let elapsed = thread_cpu_ms() - start;
    assert_eq!(std::hint::black_box(total), EXPECTED, "calibration kernel miscomputed");
    elapsed
}

/// `n` kernel samples.
pub fn samples(n: usize) -> Vec<f64> {
    (0..n).map(|_| sample()).collect()
}

/// The factor that turns a time measured among kernel `samples` into
/// reference-core time: [`REFERENCE_MS`] over their median, to the power
/// `elasticity`, the share of a change in the kernel's time that the
/// measured work's time follows (1 when it slows down just as the kernel
/// does).
pub fn scale(samples: &[f64], elasticity: f64) -> f64 {
    let m = median(samples);
    if m > 0.0 {
        (REFERENCE_MS / m).powf(elasticity)
    } else {
        1.0
    }
}

/// The scale of each op of a run, from the samples taken after the ops:
/// op `i` uses samples `i - HALF_WINDOW ..= i + HALF_WINDOW`, clipped to
/// the run.
pub fn local_scales(samples: &[f64], elasticity: f64) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(samples.len());
            scale(&samples[lo..hi], elasticity)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_and_scales() {
        assert!(sample() > 0.0);
        assert!((scale(&[2.0 * REFERENCE_MS], 1.0) - 0.5).abs() < 1e-12);
        assert!((scale(&[4.0 * REFERENCE_MS], 0.5) - 0.5).abs() < 1e-12);
        let scales = local_scales(&[REFERENCE_MS; 20], 1.0);
        assert_eq!(scales.len(), 20);
        assert!(scales.iter().all(|s| (s - 1.0).abs() < 1e-12));
    }
}
