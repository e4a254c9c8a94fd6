//! Process and host counters read around a timed phase: CPU time and
//! context switches (`getrusage`), peak resident memory (`VmHWM`, reset
//! through `/proc/self/clear_refs`) and host steal time (`/proc/stat`).

use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// `ru_maxrss` through `ru_nsignals`, unused here.
    _skipped: [i64; 12],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
/// `/proc/stat` counts in `USER_HZ` ticks, which Linux fixes at 100/s.
const TICK: Duration = Duration::from_millis(10);

/// Whole-process CPU time and context switches, summed over every thread
/// the process has run, including threads that already exited.
#[derive(Debug, Clone, Copy)]
struct Usage {
    cpu: Duration,
    ctx_switches: u64,
}

fn usage() -> Usage {
    let mut raw = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` matches the C layout of `struct rusage` on 64-bit
    // Linux, and `getrusage` only writes into the pointed-to struct, which
    // is valid for writes for its whole size.
    let rc = unsafe { getrusage(RUSAGE_SELF, raw.as_mut_ptr()) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    // SAFETY: zero-initialised and then filled by a successful call; every
    // field is a plain integer, so any bit pattern is valid.
    let raw = unsafe { raw.assume_init() };
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Usage {
        cpu: Duration::from_micros(micros(&raw.utime) + micros(&raw.stime)),
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
    }
}

/// Host-wide steal ticks so far (the eighth value of the `cpu` line).
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process since the last reset, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// Resets the peak resident set size to the current one, so a later
/// [`peak_rss_mib`] covers only what ran in between.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How often the sampler thread reads the counters during a phase.
const SAMPLE_EVERY: Duration = Duration::from_secs(1);

/// Counters read at one instant.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    cpu: Duration,
    steal: u64,
}

impl Sample {
    fn now() -> Self {
        Self {
            cpu: usage().cpu,
            steal: steal_ticks(),
            at: Instant::now(),
        }
    }
}

/// A timed phase in progress: counters at its start, and a thread that
/// samples them every [`SAMPLE_EVERY`] until the phase closes.
pub struct Window {
    start: Instant,
    usage: Usage,
    steal: u64,
    stop: mpsc::Sender<()>,
    sampler: std::thread::JoinHandle<Vec<Sample>>,
}

/// One sampling interval of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start: Instant,
    pub end: Instant,
    pub cpu: Duration,
    /// Share of the host's CPU capacity stolen by the hypervisor.
    pub steal_share: f64,
}

/// What happened between [`Window::open`] and [`Window::close`].
#[derive(Debug, Clone)]
pub struct Measured {
    pub wall: Duration,
    pub cpu: Duration,
    pub ctx_switches: u64,
    pub steal: Duration,
    pub peak_rss_mib: f64,
    pub intervals: Vec<Interval>,
}

impl Window {
    /// Resets the memory high-water mark, samples every counter and starts
    /// the sampler thread.
    pub fn open() -> Self {
        reset_peak_rss().expect("/proc/self/clear_refs is writable on Linux >= 4.0");
        let (stop, stopped) = mpsc::channel::<()>();
        let first = Sample::now();
        let sampler = std::thread::spawn(move || {
            let mut samples = vec![first];
            loop {
                let last = matches!(
                    stopped.recv_timeout(SAMPLE_EVERY),
                    Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected)
                );
                samples.push(Sample::now());
                if last {
                    return samples;
                }
            }
        });
        Self {
            usage: usage(),
            steal: first.steal,
            start: first.at,
            stop,
            sampler,
        }
    }

    pub fn close(self) -> Measured {
        let wall = self.start.elapsed();
        let usage = usage();
        let steal = steal_ticks().saturating_sub(self.steal);
        let peak_rss_mib = peak_rss_mib();
        // A send error means the sampler already exited; join reports why.
        let _ = self.stop.send(());
        let samples = self.sampler.join().expect("sampler thread panicked");
        let capacity = nproc() as f64;
        let intervals = samples
            .windows(2)
            .map(|pair| {
                let (a, b) = (pair[0], pair[1]);
                let wall = (b.at - a.at).as_secs_f64();
                let stolen = (TICK * (b.steal - a.steal) as u32).as_secs_f64();
                Interval {
                    start: a.at,
                    end: b.at,
                    cpu: b.cpu.saturating_sub(a.cpu),
                    steal_share: if wall > 0.0 {
                        stolen / (wall * capacity)
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        Measured {
            wall,
            cpu: usage.cpu.saturating_sub(self.usage.cpu),
            ctx_switches: usage.ctx_switches - self.usage.ctx_switches,
            steal: TICK * steal as u32,
            peak_rss_mib,
            intervals,
        }
    }
}

/// The intervals of a phase in which the hypervisor stole the least CPU:
/// every interval whose steal share is at most the median interval's.
///
/// A run on a shared host has slow episodes in which the hypervisor
/// deschedules this machine's CPUs; timing only the quiet intervals keeps
/// an episode shorter than half the run out of the wall-clock metrics.
pub struct Quiet {
    pub intervals: Vec<Interval>,
}

impl Quiet {
    pub fn of(measured: &Measured) -> Self {
        let mut shares: Vec<f64> = measured.intervals.iter().map(|i| i.steal_share).collect();
        shares.sort_by(f64::total_cmp);
        let threshold = shares
            .get(shares.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0.0);
        Self {
            intervals: measured
                .intervals
                .iter()
                .filter(|i| i.steal_share <= threshold)
                .copied()
                .collect(),
        }
    }

    /// Whether an op that finished at `end` finished in a quiet interval.
    pub fn contains(&self, end: Instant) -> bool {
        self.intervals.iter().any(|i| i.start < end && end <= i.end)
    }

    pub fn wall(&self) -> Duration {
        self.intervals.iter().map(|i| i.end - i.start).sum()
    }

    pub fn cpu(&self) -> Duration {
        self.intervals.iter().map(|i| i.cpu).sum()
    }

    /// Mean steal share over the quiet intervals.
    pub fn steal_share(&self) -> f64 {
        let wall = self.wall().as_secs_f64();
        let stolen: f64 = self
            .intervals
            .iter()
            .map(|i| i.steal_share * (i.end - i.start).as_secs_f64())
            .sum();
        if wall > 0.0 {
            stolen / wall
        } else {
            0.0
        }
    }
}
