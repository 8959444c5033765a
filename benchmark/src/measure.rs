//! Measurement plumbing owned by the harness: a counting allocator,
//! process CPU time and peak RSS from `/proc`, order statistics, an
//! output bit-hash and a seeded generator. Nothing here calls the program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Pass-through to the system allocator that tallies every request.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s own guarantees carry over; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// (allocation calls, bytes requested) by the whole process so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Allocation calls and bytes per call of `f`, over `n` calls. Exact when
/// no other thread allocates meanwhile.
pub fn allocs_per_call(n: usize, mut f: impl FnMut()) -> (f64, f64) {
    let (c0, b0) = alloc_counts();
    for _ in 0..n {
        f();
    }
    let (c1, b1) = alloc_counts();
    ((c1 - c0) as f64 / n as f64, (b1 - b0) as f64 / n as f64)
}

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// supported architecture (`getconf CLK_TCK`).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process (all threads, including
/// ones that already exited), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let mut fields = rest.split_whitespace();
    let utime = fields.nth(11).and_then(|v| v.parse::<f64>().ok());
    let stime = fields.next().and_then(|v| v.parse::<f64>().ok());
    (utime.unwrap_or(0.0) + stime.unwrap_or(0.0)) / CLK_TCK
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile, `p` in (0, 1]; `None` when empty.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    sort(&mut s);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

pub fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// FNV-1a.
pub fn byte_hash(data: impl IntoIterator<Item = u8>) -> u64 {
    data.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of the IEEE bits: equal hashes mean bit-equal outputs.
pub fn bit_hash(data: &[f32]) -> u64 {
    byte_hash(data.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// SplitMix64: the harness's own generator, so inputs depend on `--seed`
/// and on nothing in the program.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Exponential gap of a Poisson process at `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-self.unit().ln() / rate)
    }

    pub fn token_ids(&mut self, n: usize, vocab: usize) -> Vec<f32> {
        (0..n).map(|_| self.below(vocab) as f32).collect()
    }

    pub fn normal(&mut self) -> f32 {
        // Box-Muller; one value per call is enough for replay operands.
        let (u, v) = (self.unit(), self.unit());
        ((-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()) as f32
    }

    pub fn normals(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.normal()).collect()
    }
}

/// A fixed piece of work owned by the harness, timed beside the program's
/// ops, so that its readings say how fast the machine was *during this
/// phase of this run*.
///
/// The box this runs on is shared: over minutes the same binary slows by
/// up to a half and recovers, two-thread work more than one-thread work.
/// Every gated timing is therefore reported in yardstick-normalised
/// units — multiplied by `YARD_NOMINAL_MS` over the median yardstick
/// sample of its phase (set-up, or the timed rounds) — which is what it
/// would read on a machine whose yardstick reads `YARD_NOMINAL_MS`. The
/// raw readings stay visible under the issue's per-workload names.
///
/// One sample is a table-lookup multiply-accumulate loop (the shape of
/// the program's fused kernels, but none of its code) run once on the
/// calling thread and, for a workload whose ops use more than one thread,
/// once more on two scoped threads; the sample is then the geometric
/// mean of the two, because such ops mix both kinds of work.
pub struct Yardstick {
    /// Whether the workload's ops run on one thread only.
    single_thread: bool,
    table: [f32; 256],
    codes: Vec<u8>,
    weights: Vec<f32>,
    /// Every sample taken, in order.
    log: std::sync::Mutex<Vec<f64>>,
}

/// What the yardstick reads on this box when nothing else runs.
pub const YARD_NOMINAL_MS: f64 = 2.2;
/// How often a time box stops to sample the yardstick.
const YARD_EVERY: Duration = Duration::from_millis(200);
const YARD_LEN: usize = 1 << 16;
const YARD_PASSES: usize = 100;

impl Yardstick {
    pub fn new(single_thread: bool) -> Self {
        let mut table = [0.0f32; 256];
        for (i, t) in table.iter_mut().enumerate() {
            *t = i as f32 * 0.01 - 1.0;
        }
        Yardstick {
            single_thread,
            table,
            codes: (0..YARD_LEN).map(|i| (i * 37 % 251) as u8).collect(),
            weights: (0..YARD_LEN).map(|i| (i % 13) as f32 * 0.1).collect(),
            log: std::sync::Mutex::default(),
        }
    }

    fn work(&self) -> f32 {
        let mut total = 0.0;
        for _ in 0..YARD_PASSES {
            let mut acc = [0.0f32; 4];
            let codes = std::hint::black_box(&self.codes);
            for (c, w) in codes.chunks_exact(4).zip(self.weights.chunks_exact(4)) {
                for i in 0..4 {
                    acc[i] += self.table[c[i] as usize] * w[i];
                }
            }
            total += acc.iter().sum::<f32>();
        }
        total
    }

    /// Take one sample.
    pub fn sample(&self) {
        let t0 = Instant::now();
        std::hint::black_box(self.work());
        let single = ms(t0.elapsed());
        let sample = if self.single_thread {
            single
        } else {
            let t1 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| std::hint::black_box(self.work()));
                }
            });
            (single * ms(t1.elapsed())).sqrt()
        };
        self.log.lock().expect("no sampler panics").push(sample);
    }

    /// A position in the sample log: the start of a phase.
    pub fn mark(&self) -> usize {
        self.log.lock().expect("no sampler panics").len()
    }

    /// The factor that turns a raw time of the phase that began at `mark`
    /// into a normalised one (divide a rate by it), with the phase's
    /// sample count and median reading in ms.
    pub fn factor_since(&self, mark: usize) -> (f64, usize, f64) {
        let log = self.log.lock().expect("no sampler panics");
        let phase = &log[mark.min(log.len())..];
        match median(phase) {
            Some(reading) => (YARD_NOMINAL_MS / reading, phase.len(), reading),
            None => (1.0, 0, YARD_NOMINAL_MS),
        }
    }
}

/// The timed phase of a run is this many equal time boxes; a reported
/// timing is the median over boxes of each box's statistic.
pub const ROUNDS: usize = 5;

/// One time box: the samples (ms) its ops produced, how long the ops ran
/// and what they cost in CPU (yardstick time excluded from both).
pub struct Round {
    pub samples: Vec<f64>,
    pub wall: Duration,
    pub cpu_s: f64,
}

/// Call `op` until `len` of op time has passed, at least once; `op`
/// appends the samples it measured. The yardstick is sampled at the
/// start and then between ops, once per `YARD_EVERY` of op time (so an
/// op that runs for a second is followed by five samples).
pub fn time_box(len: Duration, yard: &Yardstick, mut op: impl FnMut(&mut Vec<f64>)) -> Round {
    let mut samples = Vec::new();
    yard.sample();
    let mut wall = Duration::ZERO;
    let mut cpu_s = 0.0;
    while wall < len {
        let (c0, t0) = (cpu_seconds(), Instant::now());
        loop {
            op(&mut samples);
            if t0.elapsed() >= YARD_EVERY || wall + t0.elapsed() >= len {
                break;
            }
        }
        let ran = t0.elapsed();
        wall += ran;
        cpu_s += cpu_seconds() - c0;
        let due = (ran.as_secs_f64() / YARD_EVERY.as_secs_f64()).round() as usize;
        (0..due.max(1)).for_each(|_| yard.sample());
    }
    Round {
        samples,
        wall,
        cpu_s,
    }
}

/// Wall and CPU time of something that cannot stop mid-way for the
/// yardstick (an open-loop schedule, streams in flight, a set-up): the
/// yardstick is sampled just before and just after instead.
pub struct Fenced {
    pub wall: Duration,
    pub cpu_s: f64,
}

const FENCE_SAMPLES: usize = 6;

pub fn fenced<T>(yard: &Yardstick, f: impl FnOnce() -> T) -> (T, Fenced) {
    (0..FENCE_SAMPLES).for_each(|_| yard.sample());
    let (c0, t0) = (cpu_seconds(), Instant::now());
    let out = f();
    let (wall, cpu_s) = (t0.elapsed(), cpu_seconds() - c0);
    (0..FENCE_SAMPLES).for_each(|_| yard.sample());
    (out, Fenced { wall, cpu_s })
}

#[derive(Default)]
pub struct Rounds(pub Vec<Round>);

impl Rounds {
    /// Median over rounds of each round's `stat`.
    pub fn median_of(&self, stat: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
        let per_round: Vec<f64> = self.0.iter().filter_map(|r| stat(&r.samples)).collect();
        median(&per_round)
    }

    /// Median over rounds of `count(round)` per second of op time.
    pub fn median_rate(&self, count: impl Fn(&Round) -> f64) -> Option<f64> {
        let per_round: Vec<f64> = self
            .0
            .iter()
            .map(|r| count(r) / r.wall.as_secs_f64())
            .collect();
        median(&per_round)
    }

    pub fn cpu_s(&self) -> f64 {
        self.0.iter().map(|r| r.cpu_s).sum()
    }

    pub fn count(&self) -> usize {
        self.0.iter().map(|r| r.samples.len()).sum()
    }

    pub fn all(&self) -> Vec<f64> {
        self.0
            .iter()
            .flat_map(|r| r.samples.iter().copied())
            .collect()
    }
}
