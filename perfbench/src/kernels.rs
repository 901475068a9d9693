//! Layer kernels called directly on workload-shaped inputs.
//!
//! Each kernel gives a later cipher, codec or event-kernel change an
//! in-isolation number to set next to the in-situ one from the traced run.
//! Every figure is the median over several timed batches.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use storm_crypto::{AesXts, ChaCha20};
use storm_iscsi::{DataOut, Pdu, PduStream};
use storm_nvmeq::{Sqe, SqeOp};
use storm_sim::{EventQueue, SimTime};

use crate::inputs::{fill, SplitMix};

const BATCHES: usize = 7;

/// In-isolation kernel figures.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// AES-256-XTS over a 64 KiB buffer, MiB/s.
    pub aes_xts_mib_s: f64,
    /// ChaCha20 over a 64 KiB buffer, MiB/s.
    pub chacha20_mib_s: f64,
    /// Decoding one 64 KiB Data-Out PDU from its wire image, ns.
    pub pdu_ns_per_decode: f64,
    /// Encoding plus decoding one nvmeq SQE, ns.
    pub sqe_ns: f64,
    /// One `EventQueue` push plus pop, ns.
    pub queue_ns_per_push_pop: f64,
}

/// Median over [`BATCHES`] of host ns per unit, where one batch runs
/// `batch` and does `units` units of work.
fn median_ns_per_unit(units: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let mut per_unit: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    per_unit.sort_by(f64::total_cmp);
    per_unit[BATCHES / 2]
}

fn mib_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / (ns / 1e9)
}

/// Runs every kernel once with inputs drawn from `seed`.
pub fn run(seed: u64) -> Kernels {
    const BUF: usize = 64 << 10;
    let mut key = [0u8; 64];
    fill(seed ^ 0xAE5, &mut key);
    let mut buf = vec![0u8; BUF];
    fill(seed, &mut buf);

    let xts = AesXts::from_master_key(&key);
    let ns = median_ns_per_unit(4, || {
        for sector in 0..4 {
            xts.encrypt_run(black_box(sector * 128), 512, &mut buf);
        }
    });
    let aes_xts_mib_s = mib_s(BUF, ns);

    let (mut chacha_key, mut nonce) = ([0u8; 32], [0u8; 12]);
    chacha_key.copy_from_slice(&key[..32]);
    nonce.copy_from_slice(&key[32..44]);
    let chacha = ChaCha20::new(&chacha_key, &nonce);
    let ns = median_ns_per_unit(32, || {
        for i in 0..32u64 {
            chacha.apply_keystream_at(black_box(i * BUF as u64), &mut buf);
        }
    });
    let chacha20_mib_s = mib_s(BUF, ns);

    let wire = Pdu::DataOut(DataOut {
        final_pdu: true,
        lun: 0,
        itt: 7,
        ttt: 9,
        exp_stat_sn: 1,
        data_sn: 0,
        buffer_offset: 0,
        data: Bytes::from(buf.clone()),
    })
    .encode();
    let pdu_ns_per_decode = median_ns_per_unit(256, || {
        for _ in 0..256 {
            let mut s = PduStream::new();
            black_box(s.feed(black_box(&wire)).expect("well-formed PDU"));
        }
    });

    let mut rng = SplitMix::new(seed);
    let sqes: Vec<Sqe> = (0..1024u32)
        .map(|cid| Sqe {
            op: SqeOp::Read,
            cid,
            lba: rng.below(1 << 21) * 8,
            sectors: 8,
            data_len: 0,
        })
        .collect();
    let sqe_ns = median_ns_per_unit(64 * 1024, || {
        for _ in 0..64 {
            for sqe in &sqes {
                let b = black_box(sqe).encode();
                black_box(Sqe::decode(black_box(&b)).expect("round trip"));
            }
        }
    });

    // Event times spread like the simulator's: mostly microseconds ahead
    // of now, some milliseconds.
    let times: Vec<u64> = (0..1024)
        .map(|_| match rng.below(8) {
            0 => rng.below(10_000_000),
            _ => rng.below(50_000),
        })
        .collect();
    let queue_ns_per_push_pop = median_ns_per_unit(64 * 1024, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut acc = 0u64;
        for round in 0..64u64 {
            let base = round * 10_000_000;
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(base + t), i as u64);
            }
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
        }
        black_box(acc);
    });

    Kernels {
        aes_xts_mib_s,
        chacha20_mib_s,
        pdu_ns_per_decode,
        sqe_ns,
        queue_ns_per_push_pop,
    }
}
