//! Order statistics over exact samples, a timer, and the seeded
//! generator every benchmark input is drawn from.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice: every phase makes at least one measurement.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank quantile of exact samples: the smallest sample with at
/// least `q` of all samples at or below it.
///
/// # Panics
/// On an empty slice.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Smallest of `values`.
///
/// # Panics
/// On an empty slice.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "min of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Scheduler accounting of the calling thread, on Linux.
#[derive(Debug, Clone, Copy)]
struct ThreadSched {
    /// Time on a CPU. The kernel leaves out time the hypervisor stole.
    run_ns: u64,
    /// Time runnable but waiting for a CPU.
    wait_ns: u64,
    /// Times the thread gave up its CPU to block or sleep.
    voluntary_switches: u64,
}

impl ThreadSched {
    /// `None` off Linux or where `/proc` is unreadable.
    fn now() -> Option<Self> {
        let run_ns = thread_cpu_ns()?;
        // The second field; the first, run time, is only brought up to
        // date at scheduler ticks, so it is read from the clock instead.
        let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        let wait_ns = schedstat.split_whitespace().nth(1)?.parse().ok()?;
        let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
        let voluntary_switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
            .trim()
            .parse()
            .ok()?;
        Some(Self {
            run_ns,
            wait_ns,
            voluntary_switches,
        })
    }
}

/// `CLOCK_THREAD_CPUTIME_ID`: the calling thread's run time, exact to the
/// nanosecond.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` for this target.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    (rc == 0).then(|| t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// A step's time in seconds, and whether stolen time was taken out of it.
#[derive(Debug, Clone, Copy)]
pub struct StepTime {
    /// Seconds.
    pub seconds: f64,
    /// The step ran on the calling thread without blocking, so `seconds`
    /// is its wall time less the time the hypervisor stole.
    pub unstolen: bool,
}

/// Time `f` on the calling thread, leaving out the time the hypervisor
/// stole from it, and return its result.
///
/// A thread that never blocks is, at every moment, running, waiting for a
/// CPU, or stolen by the hypervisor, and the kernel counts the first two.
/// So when `f` made no voluntary context switch, their sum is the wall
/// time less the stolen time. When it did (it waited for other threads,
/// say, or for the disk), or `/proc` is missing, the wall time is taken
/// as it is: work handed to other threads is always timed.
pub fn timed_unstolen<T>(f: impl FnOnce() -> T) -> (StepTime, T) {
    let before = ThreadSched::now();
    let (wall, out) = timed(f);
    let step = match (before, ThreadSched::now()) {
        (Some(a), Some(b)) if a.voluntary_switches == b.voluntary_switches => {
            let on_thread = (b.run_ns - a.run_ns) + (b.wait_ns - a.wait_ns);
            StepTime {
                seconds: wall.min(on_thread as f64 / 1e9),
                unstolen: true,
            }
        }
        _ => StepTime {
            seconds: wall,
            unstolen: false,
        },
    };
    (step, out)
}

/// SplitMix64: a small, fast, seedable generator for the query stream
/// and mutation batches, so the inputs depend on the seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&v, 0.5), 5);
        assert_eq!(quantile(&v, 0.9), 9);
        assert_eq!(quantile(&v, 1.0), 10);
    }

    #[test]
    fn unstolen_time_falls_back_to_wall_time_when_the_step_blocks() {
        let start = Instant::now();
        let (step, _) = timed_unstolen(|| {
            (0..std::hint::black_box(2_000_000u64)).fold(0u64, |a, x| a ^ x.wrapping_mul(x))
        });
        assert!(step.seconds > 0.0 && step.seconds <= start.elapsed().as_secs_f64());
        let (slept, ()) =
            timed_unstolen(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(!slept.unstolen, "a sleep is a voluntary switch");
        assert!(slept.seconds >= 0.02, "a blocked step keeps its wall time");
    }

    #[test]
    fn splitmix_repeats_for_a_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}
