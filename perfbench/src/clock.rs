//! Host time on a shared machine, scaled to a fixed reference speed.
//!
//! The host this benchmark runs on is shared: other tenants' load slows
//! the same code by up to 2× for seconds at a time, which would swamp any
//! regression bound. So every timed stretch of host work is paired with a
//! run of a [`Reference`] kernel just before it — fixed code that lives in
//! this benchmark, which no change to the program can touch — and reported
//! as `raw × nominal ÷ reference time`: the time the stretch would have
//! taken with the reference kernel at its nominal speed. Contention slows
//! memory-bound and compute-bound code by different amounts, so each
//! workload is scaled by a kernel shaped like the layer that dominates its
//! host time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::inputs::SplitMix;

/// A fixed reference kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Churn through a hash map of boxed records: allocation- and
    /// cache-bound, like the simulator's event and session bookkeeping.
    Churn,
    /// [`Reference::Churn`] followed by table-lookup rounds like a
    /// software block cipher's, for workloads whose host time is mostly
    /// cipher work.
    ChurnAndCipher,
}

impl Reference {
    /// Run time on an uncontended core of the machine the benchmark was
    /// calibrated on (2.1 GHz x86-64).
    fn nominal(self) -> Duration {
        match self {
            Reference::Churn => Duration::from_micros(3000),
            Reference::ChurnAndCipher => Duration::from_micros(7000),
        }
    }

    /// Runs the kernel and returns its host time. The hasher and inputs
    /// are fixed, so every process runs exactly the same work.
    pub fn run(self) -> Duration {
        let t = Instant::now();
        let mut g = SplitMix::new(9);
        let mut m: HashMap<u64, Box<[u64; 8]>, BuildHasherDefault<DefaultHasher>> =
            HashMap::default();
        for i in 0..30_000u64 {
            m.insert(g.next_u64() % 40_000, Box::new([i; 8]));
            if i % 2 == 0 {
                m.remove(&(g.next_u64() % 40_000));
            }
        }
        black_box(m.len());
        drop(m);
        if self == Reference::ChurnAndCipher {
            let table: Vec<u32> = (0..1024).map(|_| g.next_u64() as u32).collect();
            let mut x = 0u32;
            for i in 0..1_200_000u32 {
                x = table[((x ^ i) & 1023) as usize].rotate_left(8) ^ x.wrapping_add(i);
            }
            black_box(x);
        }
        t.elapsed()
    }
}

/// A host-time measurement paired with the reference run just before it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Host time of the measured work.
    pub raw: Duration,
    /// Host time of the reference kernel run just before it.
    pub reference: Duration,
    kernel: Reference,
}

impl Timed {
    /// Runs `kernel`, then times `f`.
    pub fn measure<R>(kernel: Reference, f: impl FnOnce() -> R) -> (R, Timed) {
        let reference = kernel.run();
        let t = Instant::now();
        let r = f();
        let raw = t.elapsed();
        let timed = Timed {
            raw,
            reference,
            kernel,
        };
        (r, timed)
    }

    /// The work's host time with the reference kernel at its nominal
    /// speed, in seconds.
    pub fn scaled_secs(self) -> f64 {
        self.raw.as_secs_f64() * self.kernel.nominal().as_secs_f64()
            / self.reference.as_secs_f64().max(1e-9)
    }
}
