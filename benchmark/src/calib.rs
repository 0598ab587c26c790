//! The host-speed yardstick of the end-to-end pass.
//!
//! The sandbox this benchmark is gated on is a two-vCPU microVM whose host
//! moves each vCPU, for tens of seconds at a time, between a fast mode and
//! modes 1.3 to 1.8 times slower; a fixed pure-compute loop shows it as
//! plainly as the simulator does. A run is capped at under half a minute by
//! the driver's time budget, so a run's wall-clock lands wherever the host
//! happened to be: over ten seeds the raw `run_ms_p50` spreads by up to 16 %
//! of its median, and the median moves by up to 2x between hours (README,
//! "Noise and bounds"). No bound the driver accepts can be held by that, and
//! a longer run is not to be had; a yardstick timed beside the operations
//! can cancel it. The end-to-end pass times a small fixed kernel of the
//! benchmark's own between operations and reports each time as it would read
//! with the host in its fast mode. The kernel does not change when the
//! simulator does, so a regression shows in full, while the host's mode,
//! which slows both, cancels. Only the seven end-to-end metrics are treated
//! so; every per-layer number is wall-clock as measured.

use std::hint::black_box;
use std::time::Instant;

/// A dense one-qubit gate on qubit 0 (a complex 2x2 matrix applied to
/// adjacent amplitude pairs of a split re/im state): the arithmetic and the
/// memory traffic per amplitude of the simulator's commonest kernel, written
/// here so that it is not the simulator's code.
pub struct Kernel {
    re: Vec<f64>,
    im: Vec<f64>,
    passes: usize,
    threads: usize,
}

/// `U3(0.3, 0.2, 0.1)` as `(re, im)` of m00, m01, m10, m11: unitary, so
/// repeated passes keep the amplitudes bounded.
const M: [(f64, f64); 4] = [
    (0.988_771_077_936_042_2, 0.0),
    (-0.148_691_564_262_600_63, -0.014_918_919_342_160_731),
    (0.146_459_319_092_386_5, 0.029_688_773_773_793_663),
    (0.944_609_090_144_359_6, 0.292_201_833_292_414_7),
];

fn sweep(re: &mut [f64], im: &mut [f64], passes: usize) {
    for _ in 0..passes {
        for (r, i) in re.chunks_exact_mut(2).zip(im.chunks_exact_mut(2)) {
            let (ar, ai, br, bi) = (r[0], i[0], r[1], i[1]);
            r[0] = M[0].0 * ar - M[0].1 * ai + M[1].0 * br - M[1].1 * bi;
            i[0] = M[0].0 * ai + M[0].1 * ar + M[1].0 * bi + M[1].1 * br;
            r[1] = M[2].0 * ar - M[2].1 * ai + M[3].0 * br - M[3].1 * bi;
            i[1] = M[2].0 * ai + M[2].1 * ar + M[3].0 * bi + M[3].1 * br;
        }
        black_box((&mut *re, &mut *im));
    }
}

impl Kernel {
    /// A kernel over `amps` amplitudes (16 bytes each), swept `passes`
    /// times by `threads` threads, each on its own share.
    #[must_use]
    pub fn new(amps: usize, passes: usize, threads: usize) -> Self {
        Self {
            re: vec![0.5; amps],
            im: vec![0.25; amps],
            passes,
            threads: threads.max(1),
        }
    }

    /// Run the kernel once; wall time in milliseconds until every thread
    /// has finished.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        if self.threads == 1 {
            sweep(&mut self.re, &mut self.im, self.passes);
        } else {
            let share = self.re.len() / self.threads;
            let passes = self.passes;
            std::thread::scope(|scope| {
                for (re, im) in self.re.chunks_mut(share).zip(self.im.chunks_mut(share)) {
                    scope.spawn(move || sweep(re, im, passes));
                }
            });
        }
        t0.elapsed().as_secs_f64() * 1e3
    }
}

const KERNEL_AMPS: usize = 1 << 17;
const KERNEL_PASSES: usize = 128;
/// What the kernel takes with the host in its fast mode (the tenth
/// percentile of some 500 samples taken over an hour). It fixes the unit
/// the end-to-end times are reported in and nothing else: the same constant
/// scales both sides of every comparison.
const FAST_MODE_MS: f64 = 16.0;

/// A stretch of operations shorter than this is not worth a 20 ms sample of
/// its own and shares the next one.
const MIN_STRETCH_MS: f64 = 200.0;

/// The yardstick of one end-to-end run: the kernel, and the time since it
/// was last sampled.
pub struct Host {
    kernel: Kernel,
    last_ms: f64,
    last_at: Instant,
    samples: Vec<f64>,
}

impl Host {
    /// The kernel keeps as many threads busy as the workload does, each
    /// sweeping its share of a 2 MiB state 128 times over (about 20 ms):
    /// the host's modes differ per vCPU, and a kernel on one thread says
    /// little about a workload on two. The size is a compromise that tracked
    /// every workload here within a few percent where smaller (L1/L2
    /// resident) and larger (16 MiB) kernels tracked some and not others.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let mut kernel = Kernel::new(KERNEL_AMPS, KERNEL_PASSES * threads, threads);
        let last_ms = kernel.run();
        Self {
            kernel,
            last_ms,
            last_at: Instant::now(),
            samples: vec![last_ms],
        }
    }

    /// Whether the stretch timed since the last sample is long enough to
    /// end with a sample of its own.
    #[must_use]
    pub fn due(&self) -> bool {
        self.last_at.elapsed().as_secs_f64() * 1e3 >= MIN_STRETCH_MS
    }

    /// Sample the kernel and return the factor that turns a time measured
    /// since the sample before into fast-mode time: the fast-mode kernel
    /// time over the mean of the two samples around the stretch.
    pub fn sample(&mut self) -> f64 {
        let before = self.last_ms;
        self.last_ms = self.kernel.run();
        self.last_at = Instant::now();
        self.samples.push(self.last_ms);
        FAST_MODE_MS / (0.5 * (before + self.last_ms))
    }

    #[must_use]
    pub fn n_samples(&self) -> usize {
        self.samples.len()
    }

    /// Median of all samples so far, in milliseconds, and the factor it
    /// stands for.
    #[must_use]
    pub fn median(&self) -> (f64, f64) {
        let ms = crate::stats::median(&self.samples);
        (ms, FAST_MODE_MS / ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm(k: &Kernel) -> f64 {
        k.re.iter().chain(&k.im).map(|x| x * x).sum()
    }

    #[test]
    fn kernel_is_unitary_and_splits_across_threads_without_changing_the_result() {
        let mut one = Kernel::new(1 << 10, 64, 1);
        let mut two = Kernel::new(1 << 10, 64, 2);
        let before = norm(&one);
        assert!(one.run() > 0.0 && two.run() > 0.0);
        assert!((norm(&one) - before).abs() < 1e-9 * before);
        assert_eq!(one.re, two.re);
        assert_eq!(one.im, two.im);
    }

    #[test]
    fn factor_is_fast_mode_time_over_the_mean_of_the_samples_around_a_stretch() {
        let mut host = Host::new(1);
        assert!(!host.due(), "nothing timed yet");
        let before = host.last_ms;
        let factor = host.sample();
        assert_eq!(factor, FAST_MODE_MS / (0.5 * (before + host.last_ms)));
        let (ms, f) = host.median();
        assert_eq!(f, FAST_MODE_MS / ms);
    }
}
