//! The closed-loop guest workload and its timing decorator.
//!
//! [`BenchWorkload`] keeps a fixed number of I/Os outstanding, like the
//! paper's fio threads: each of `depth` slots issues its next I/O when the
//! previous one completes. Slot `s` owns the blocks `b` with
//! `b % depth == s`, so no two I/Os on one block are ever in flight and the
//! expected content of every block is known exactly. After the measured
//! window the slots drain and the workload reads back a seeded sample of
//! the blocks it wrote, through the same chain, and compares each byte.

use std::collections::HashMap;
use std::time::Instant;

use storm_cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm_sim::{SimDuration, SimTime};

use crate::inputs::{mix, PayloadGen, PayloadKind, SplitMix};

/// Bytes per sector on the wire.
const SECTOR: u64 = 512;

/// Blocks read back after the window (fewer if fewer were written).
pub const READBACK: usize = 64;

/// Each slot draws read or write from a shuffled deck of this many ops
/// holding exactly the pattern's share of reads, so the mix is random in
/// order but does not drift from the stated share between seeds.
const DECK: usize = 20;

/// The I/O pattern of one workload.
#[derive(Debug, Clone, Copy)]
pub struct IoPattern {
    /// Request size in bytes.
    pub block_bytes: usize,
    /// Addressable blocks (the working set).
    pub blocks: u64,
    /// Share of I/Os that read, in percent.
    pub read_pct: u64,
    /// I/Os kept outstanding.
    pub depth: usize,
    /// Shape of write payloads.
    pub payload: PayloadKind,
    /// Whether every block was written with generation 0 before the run,
    /// so that every read can be verified.
    pub prepopulated: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Window,
    Readback,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    slot: usize,
    block: u64,
    generation: u32,
    readback: bool,
}

/// What the guest saw, measured in sim time.
#[derive(Debug, Default, Clone)]
pub struct GuestStats {
    /// Sim instant the window opened (login complete).
    pub window_start: Option<SimTime>,
    /// Reads completed inside the window.
    pub reads: u64,
    /// Writes completed inside the window.
    pub writes: u64,
    /// Data bytes moved by I/Os completed inside the window.
    pub bytes: u64,
    /// Latency of every I/O completed inside the window, in ns, in
    /// completion order.
    pub latencies_ns: Vec<u64>,
    /// I/Os issued, window and read-back alike.
    pub attempted: u64,
    /// I/Os that completed with an error status.
    pub errors: u64,
    /// Reads whose data differed from the expected content.
    pub mismatches: u64,
    /// Reads whose data was compared.
    pub verified: u64,
    /// Read-back I/Os completed.
    pub readbacks: u64,
    /// Rolling hash of every completion in order: which block, read or
    /// write, which generation, and the first bytes a read returned. The
    /// only sim output that depends on the inputs when every I/O costs
    /// the same sim time.
    pub completions: u64,
}

impl GuestStats {
    /// I/Os completed inside the window.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }
}

/// The seeded closed-loop workload.
#[derive(Debug)]
pub struct BenchWorkload {
    pattern: IoPattern,
    window: SimDuration,
    rng: SplitMix,
    decks: Vec<Vec<bool>>,
    payloads: PayloadGen,
    generation: Vec<u32>,
    written: Vec<u64>,
    inflight: HashMap<ReqId, Op>,
    readback: Vec<u64>,
    phase: Phase,
    /// Sim-time measurements.
    pub stats: GuestStats,
}

impl BenchWorkload {
    /// A workload over `pattern` whose window lasts `window` of sim time
    /// from login. `seed` fixes every input.
    pub fn new(pattern: IoPattern, window: SimDuration, seed: u64) -> Self {
        assert!(pattern.depth > 0 && pattern.blocks >= pattern.depth as u64);
        BenchWorkload {
            pattern,
            window,
            rng: SplitMix::new(seed ^ 0x0B5E_55ED),
            decks: vec![Vec::new(); pattern.depth],
            payloads: PayloadGen::new(seed, pattern.payload, pattern.block_bytes),
            generation: vec![0; pattern.blocks as usize],
            written: Vec::new(),
            inflight: HashMap::new(),
            readback: Vec::new(),
            phase: Phase::Idle,
            stats: GuestStats::default(),
        }
    }

    /// Whether the window and the read-back have both finished.
    pub fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The sim instant the window closes (`None` before login).
    pub fn window_end(&self) -> Option<SimTime> {
        self.stats.window_start.map(|s| s + self.window)
    }

    /// Content of `block` at generation 0, written straight onto the
    /// volume before the run when the pattern is prepopulated.
    pub fn initial_content(&self, block: u64) -> bytes::Bytes {
        self.payloads.payload(block, 0)
    }

    fn sectors(&self) -> u32 {
        (self.pattern.block_bytes as u64 / SECTOR) as u32
    }

    fn lba(&self, block: u64) -> u64 {
        block * self.pattern.block_bytes as u64 / SECTOR
    }

    fn issue_window_op(&mut self, io: &mut IoCtx<'_>, slot: usize) {
        let depth = self.pattern.depth as u64;
        let block = slot as u64 + depth * self.rng.below(self.pattern.blocks / depth);
        let read = self.draw_read(slot);
        let lba = self.lba(block);
        let req = if read {
            io.read(lba, self.sectors())
        } else {
            let generation = &mut self.generation[block as usize];
            if *generation == 0 {
                self.written.push(block);
            }
            *generation += 1;
            let payload = self.payloads.payload(block, *generation);
            io.write(lba, payload)
        };
        self.stats.attempted += 1;
        let generation = self.generation[block as usize];
        self.inflight.insert(
            req,
            Op {
                slot,
                block,
                generation,
                readback: false,
            },
        );
    }

    fn draw_read(&mut self, slot: usize) -> bool {
        if self.decks[slot].is_empty() {
            let reads = DECK * self.pattern.read_pct as usize / 100;
            let mut deck: Vec<bool> = (0..DECK).map(|i| i < reads).collect();
            for i in (1..DECK).rev() {
                deck.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
            self.decks[slot] = deck;
        }
        self.decks[slot].pop().expect("deck refilled above")
    }

    fn issue_readback(&mut self, io: &mut IoCtx<'_>) {
        let Some(block) = self.readback.pop() else {
            return;
        };
        let req = io.read(self.lba(block), self.sectors());
        self.stats.attempted += 1;
        self.inflight.insert(
            req,
            Op {
                slot: 0,
                block,
                generation: self.generation[block as usize],
                readback: true,
            },
        );
    }

    /// Picks up to [`READBACK`] written blocks, evenly spread over the
    /// order they were first written in, then starts reading them.
    fn start_readback(&mut self, io: &mut IoCtx<'_>) {
        let n = self.written.len();
        let take = n.min(READBACK);
        self.readback = (0..take).map(|i| self.written[i * n / take]).collect();
        self.phase = Phase::Readback;
        for _ in 0..self.pattern.depth {
            self.issue_readback(io);
        }
        if self.inflight.is_empty() {
            self.phase = Phase::Done;
        }
    }

    fn verify(&mut self, op: Op, data: &[u8]) {
        let known = op.generation > 0 || self.pattern.prepopulated;
        if !known {
            return;
        }
        self.stats.verified += 1;
        if !self.payloads.matches(op.block, op.generation, data) {
            self.stats.mismatches += 1;
        }
    }
}

impl Workload for BenchWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.stats.window_start = Some(io.now);
        self.phase = Phase::Window;
        // The first I/Os go out from a zero-delay timer, so that building
        // their payloads is not part of set-up, which ends at login.
        io.set_timer(SimDuration::ZERO, 0);
    }

    fn timer(&mut self, io: &mut IoCtx<'_>, _token: u64) {
        for slot in 0..self.pattern.depth {
            self.issue_window_op(io, slot);
        }
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, kind: IoKind, result: IoResult) {
        let Some(op) = self.inflight.remove(&req) else {
            return;
        };
        if !result.ok {
            self.stats.errors += 1;
        } else if kind == IoKind::Read {
            self.verify(op, &result.data);
        }
        let mut head = [0u8; 8];
        let n = result.data.len().min(8);
        head[..n].copy_from_slice(&result.data[..n]);
        for v in [
            op.block,
            u64::from(op.generation) << 1 | u64::from(kind == IoKind::Read),
            u64::from_le_bytes(head),
        ] {
            self.stats.completions = mix(self.stats.completions ^ v);
        }
        let in_window = self.window_end().is_some_and(|end| io.now <= end);
        if op.readback {
            self.stats.readbacks += 1;
        } else if in_window {
            match kind {
                IoKind::Read => self.stats.reads += 1,
                IoKind::Write => self.stats.writes += 1,
                IoKind::Flush => {}
            }
            self.stats.bytes += self.pattern.block_bytes as u64;
            self.stats.latencies_ns.push(result.latency.as_nanos());
        }
        match self.phase {
            Phase::Window if in_window => self.issue_window_op(io, op.slot),
            Phase::Window if self.inflight.is_empty() => self.start_readback(io),
            Phase::Readback => {
                self.issue_readback(io);
                if self.inflight.is_empty() {
                    self.phase = Phase::Done;
                }
            }
            _ => {}
        }
    }
}

/// Host time spent inside one layer's callbacks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HostSpan {
    /// Summed host nanoseconds.
    pub ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl HostSpan {
    /// Times `f` and adds it to the span.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        r
    }

    /// The part of `self` accumulated since `earlier`.
    pub fn since(self, earlier: HostSpan) -> HostSpan {
        HostSpan {
            ns: self.ns - earlier.ns,
            calls: self.calls - earlier.calls,
        }
    }
}

/// Decorator timing every call into the workload (the traced run only).
#[derive(Debug)]
pub struct TimedWorkload {
    /// The decorated workload.
    pub inner: BenchWorkload,
    /// Host time spent in the workload's callbacks.
    pub span: HostSpan,
}

impl Workload for TimedWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        let inner = &mut self.inner;
        self.span.time(|| inner.start(io));
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, kind: IoKind, result: IoResult) {
        let inner = &mut self.inner;
        self.span.time(|| inner.completed(io, req, kind, result));
    }

    fn timer(&mut self, io: &mut IoCtx<'_>, token: u64) {
        let inner = &mut self.inner;
        self.span.time(|| inner.timer(io, token));
    }
}
