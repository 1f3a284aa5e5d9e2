//! Host-speed calibration for the untraced timings.
//!
//! The benchmark shares its host with other tenants, and on a shared
//! host the same work can take twice as long for seconds or minutes at
//! a time. So the untraced iterations interleave a fixed calibration
//! kernel with the workload: at the benchmark's own safe points (after
//! a connect, a transaction or a scheduler pump), once every
//! [`EVERY`], the kernel runs and is timed. Every stretch of workload
//! time between two samples is rescaled by `NOMINAL_S` over the median
//! of the latest kernel times, giving "seconds on a host where the
//! kernel takes `NOMINAL_S`". A slower program reads slower; a slower
//! host does not. Kernel time itself is excluded from every timing.
//! Raw wall times are reported beside the scaled ones on standard
//! error.
//!
//! Traced iterations do not calibrate: their spans are raw wall time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calibration kernel time on a quiet reference host: a 2-vCPU cloud
/// VM at 2.0 GHz, the host the benchmark was built on. On that host, in
/// its quiet stretches, scaled time is close to wall time.
const NOMINAL_S: f64 = 0.000_14;
/// Sampling period.
const EVERY: Duration = Duration::from_millis(25);
/// Samples in the running median.
const WINDOW: usize = 5;
/// The kernel is generic systems code of the same mix the simulation
/// runs (formatting, ordered inserts and removals, byte hashing,
/// sorting) and none of the program's own code, so a change to the
/// program cannot change it. It allocates nothing after start-up, so
/// the program's heap state cannot change it either, and its footprint
/// stays small, so it does not evict the workload's caches.
const OPS: u64 = 600;
const HASH_BYTES: usize = 32 * 1024;

struct Speed {
    on: bool,
    bytes: Vec<u8>,
    keys: Vec<u64>,
    text: String,
    x: u64,
    last: Instant,
    recent: VecDeque<f64>,
    /// Workload seconds since the process started, raw and scaled.
    raw: f64,
    scaled: f64,
}

thread_local! {
    static SPEED: RefCell<Speed> = RefCell::new(Speed {
        on: false,
        bytes: (0..HASH_BYTES).map(|i| (i * 131 % 251) as u8).collect(),
        keys: Vec::with_capacity(OPS as usize),
        text: String::with_capacity(64),
        x: 0x9e37_79b9_7f4a_7c15,
        last: Instant::now(),
        recent: VecDeque::with_capacity(WINDOW),
        raw: 0.0,
        scaled: 0.0,
    });
}

impl Speed {
    fn kernel(&mut self) -> f64 {
        use std::fmt::Write as _;
        let t = Instant::now();
        let mut x = self.x;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        self.keys.clear();
        for i in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.text.clear();
            let _ = write!(self.text, "row {i} {x:x}");
            for b in self.text.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            let k = x % 4096;
            match self.keys.binary_search(&k) {
                Ok(at) if i % 3 == 0 => {
                    self.keys.remove(at);
                }
                Ok(_) => {}
                Err(at) => self.keys.insert(at, k),
            }
        }
        for b in &self.bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
        for k in self.keys.iter_mut() {
            *k ^= h;
        }
        self.keys.sort_unstable();
        self.x = black_box(x ^ self.keys.first().copied().unwrap_or(0));
        t.elapsed().as_secs_f64()
    }

    fn factor(&self) -> f64 {
        if self.recent.is_empty() {
            return 1.0;
        }
        let mut v: Vec<f64> = self.recent.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        NOMINAL_S / v[v.len() / 2]
    }

    /// Books the workload time since the last sample, then samples.
    fn sample(&mut self) {
        let dt = self.last.elapsed().as_secs_f64();
        let k = self.kernel();
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(k);
        self.raw += dt;
        self.scaled += dt * self.factor();
        self.last = Instant::now();
    }
}

/// Turns calibration on (untraced iterations) or off.
pub fn enable(on: bool) {
    SPEED.with(|s| {
        let mut s = s.borrow_mut();
        s.on = on;
        s.last = Instant::now();
    });
}

/// A safe point: samples the host speed if a period has passed.
pub fn tick() {
    SPEED.with(|s| {
        let mut s = s.borrow_mut();
        if s.on && s.last.elapsed() >= EVERY {
            s.sample();
        }
    });
}

/// Multiplier from raw to scaled time at the current host speed.
pub fn factor() -> f64 {
    SPEED.with(|s| {
        let s = s.borrow();
        if s.on {
            s.factor()
        } else {
            1.0
        }
    })
}

/// Raw and scaled seconds of one timed interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    pub raw: f64,
    pub scaled: f64,
}

/// The start of a timed interval.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    at: Instant,
    raw: f64,
    scaled: f64,
}

fn close(s: &mut Speed) -> (f64, f64) {
    if s.on {
        s.sample();
        (s.raw, s.scaled)
    } else {
        (0.0, 0.0)
    }
}

pub fn mark() -> Mark {
    SPEED.with(|s| {
        let mut s = s.borrow_mut();
        let (raw, scaled) = close(&mut s);
        Mark {
            at: Instant::now(),
            raw,
            scaled,
        }
    })
}

pub fn since(m: Mark) -> Timing {
    SPEED.with(|s| {
        let mut s = s.borrow_mut();
        if !s.on {
            let raw = m.at.elapsed().as_secs_f64();
            return Timing { raw, scaled: raw };
        }
        let (raw, scaled) = close(&mut s);
        Timing {
            raw: raw - m.raw,
            scaled: scaled - m.scaled,
        }
    })
}
