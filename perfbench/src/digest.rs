//! The sim-equivalence oracle.
//!
//! Sim time is deterministic, so at a fixed seed every sim-time output of
//! a workload — I/O counts, every latency sample, the order and data of
//! completions, the relay and transport counters — must stay bit-identical across commits unless the model
//! itself changed. [`digest`] folds those outputs into one FNV-1a hash and
//! [`check`] compares it with the value recorded here for
//! [`DEFAULT_SEED`]. A change that only speeds up the host side must leave
//! every recorded digest unchanged; a deliberate model change updates the
//! table and says why.

use crate::scenario::{Rep, WorkloadId};

/// The seed whose digests are recorded.
pub const DEFAULT_SEED: u64 = 20160628;

/// Recorded digests at [`DEFAULT_SEED`] and each workload's full window.
const RECORDED: [(WorkloadId, u64); 3] = [
    (WorkloadId::XtsRw64k, 0x340b_a628_2569_1eb3),
    (WorkloadId::NvmeqRead4kQd32, 0xbc05_5a4b_5872_a0f1),
    (WorkloadId::ReduceWrite64k, 0x9421_1571_9f67_d4d8),
];

struct Fnv(u64);

impl Fnv {
    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Digest of a repetition's sim-time outputs.
pub fn digest(rep: &Rep) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let g = &rep.guest;
    for v in [
        rep.sim_window.as_nanos(),
        g.reads,
        g.writes,
        g.bytes,
        g.errors,
        g.mismatches,
        g.verified,
        g.readbacks,
        g.completions,
        g.latencies_ns.len() as u64,
    ] {
        h.add(v);
    }
    for &ns in &g.latencies_ns {
        h.add(ns);
    }
    let r = &rep.relay;
    let t = &rep.transport;
    for v in [
        r.pdus,
        r.data_copied,
        r.header_copied,
        r.verbatim,
        t.sq_peak,
        t.doorbells,
        t.doorbell_sqes,
        t.cq_frames,
        t.cqes,
        t.dispatch_ticks,
        t.dispatched,
    ] {
        h.add(v);
    }
    h.0
}

/// The digest recorded for `workload` at [`DEFAULT_SEED`].
pub fn recorded(workload: WorkloadId) -> u64 {
    RECORDED
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| *d)
        .expect("every workload has a recorded digest")
}

/// Compares a default-seed, full-window digest with the recorded one.
///
/// # Errors
///
/// A message naming the workload when the digests differ.
pub fn check(workload: WorkloadId, digest: u64) -> Result<(), String> {
    let want = recorded(workload);
    if digest == want {
        Ok(())
    } else {
        Err(format!(
            "{}: sim-time outputs changed at seed {DEFAULT_SEED}: digest {digest:016x}, \
             recorded {want:016x}",
            workload.name()
        ))
    }
}
