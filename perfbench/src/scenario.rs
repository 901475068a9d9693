//! The three workloads and one measured repetition of each.
//!
//! A repetition builds a fresh cloud (timed as set-up), runs a fixed
//! sim-time window (timed as the window), then drains the closed loop and
//! reads back a sample of what it wrote (untimed). Everything the
//! repetition reports about sim time is a pure function of the seed and
//! the window length; host times are not.

use std::sync::Arc;
use std::time::Duration;

use storm_block::BlockDevice;
use storm_cloud::{Cloud, CloudConfig, VolumeHandle};
use storm_core::{ActiveRelayMb, ChainDeployment, MbSpec, RelayMode, StormPlatform};
use storm_iscsi::TransportKind;
use storm_net::{AppId, LinkSpec};
use storm_services::{CompressService, DedupService, EncryptionService};
use storm_sim::{SimDuration, SimTime};
use storm_telemetry::{analyze, Recorder};

use crate::clock::{Reference, Timed};
use crate::inputs::PayloadKind;
use crate::service::TimedService;
use crate::workload::{BenchWorkload, GuestStats, HostSpan, IoPattern, TimedWorkload};

/// Volume size of every workload.
const VOLUME_BYTES: u64 = 1 << 30;

/// Sim time allowed after the window for the drain and the read-back.
const DRAIN: SimDuration = SimDuration::from_secs(10);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// AES-256-XTS encryption service on an active relay, 1 GbE testbed,
    /// iSCSI, 50/50 random 64 KiB, 4 outstanding.
    XtsRw64k,
    /// Transport-lab cloud: 10 GbE, passthrough vNICs, nvmeq at queue
    /// depth 32, bare active relay, 100 % random 4 KiB reads.
    NvmeqRead4kQd32,
    /// Dedup → compress chain, write-only random 64 KiB, 4 outstanding.
    ReduceWrite64k,
}

impl WorkloadId {
    /// Every workload, in reporting order.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::XtsRw64k,
        WorkloadId::NvmeqRead4kQd32,
        WorkloadId::ReduceWrite64k,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::XtsRw64k => "xts_rw_64k",
            WorkloadId::NvmeqRead4kQd32 => "nvmeq_read_4k_qd32",
            WorkloadId::ReduceWrite64k => "reduce_write_64k",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The guest I/O pattern.
    pub fn pattern(self) -> IoPattern {
        match self {
            WorkloadId::XtsRw64k => IoPattern {
                block_bytes: 64 << 10,
                blocks: VOLUME_BYTES / (64 << 10),
                read_pct: 50,
                depth: 4,
                payload: PayloadKind::Random,
                prepopulated: false,
            },
            // Reads cover a 16 MiB region written before the run, so
            // every read returns known bytes. The disk model is prewarmed,
            // so the region's size does not change sim time.
            WorkloadId::NvmeqRead4kQd32 => IoPattern {
                block_bytes: 4 << 10,
                blocks: 4096,
                read_pct: 100,
                depth: 32,
                payload: PayloadKind::Random,
                prepopulated: true,
            },
            WorkloadId::ReduceWrite64k => IoPattern {
                block_bytes: 64 << 10,
                blocks: VOLUME_BYTES / (64 << 10),
                read_pct: 0,
                depth: 4,
                payload: PayloadKind::Reduce,
                prepopulated: false,
            },
        }
    }

    /// The measured sim-time window. Each is sized so that the window
    /// holds well over 1000 I/Os (p99 keeps ten samples above it) while a
    /// repetition costs about a second of host time.
    pub fn window(self) -> SimDuration {
        match self {
            WorkloadId::XtsRw64k => SimDuration::from_millis(800),
            WorkloadId::NvmeqRead4kQd32 => SimDuration::from_millis(250),
            WorkloadId::ReduceWrite64k => SimDuration::from_millis(700),
        }
    }

    /// The sim-time slice the untraced window is timed in: long enough
    /// for dozens of I/Os, short enough for dozens of slices per window.
    pub fn slice(self) -> SimDuration {
        match self {
            WorkloadId::XtsRw64k | WorkloadId::ReduceWrite64k => SimDuration::from_millis(50),
            WorkloadId::NvmeqRead4kQd32 => SimDuration::from_millis(25),
        }
    }

    /// The reference kernel this workload's host times are scaled by:
    /// shaped like the layer that dominates its host time.
    pub fn reference(self) -> Reference {
        match self {
            WorkloadId::XtsRw64k => Reference::ChurnAndCipher,
            WorkloadId::NvmeqRead4kQd32 | WorkloadId::ReduceWrite64k => Reference::Churn,
        }
    }

    /// The smallest window that still exercises every phase; tests use it.
    pub fn smallest_window(self) -> SimDuration {
        SimDuration::from_millis(20)
    }

    fn cloud(self, seed: u64) -> Cloud {
        match self {
            WorkloadId::XtsRw64k | WorkloadId::ReduceWrite64k => storm_bench::build_cloud(seed),
            // The transport lab of `storm_bench::transport_point`: 10 GbE
            // storage fabric and SR-IOV-style vNICs, so the rings rather
            // than the software vif copy set the pace.
            WorkloadId::NvmeqRead4kQd32 => {
                let mut cfg = CloudConfig {
                    seed,
                    backing_bytes: 64 << 30,
                    transport: TransportKind::Nvmeq,
                    queue_depth: 32,
                    phys_link: LinkSpec {
                        bandwidth_bps: 10_000_000_000,
                        ..LinkSpec::gigabit()
                    },
                    virtio_link: LinkSpec {
                        per_packet: SimDuration::from_micros(1),
                        half_duplex: false,
                        ..LinkSpec::virtio()
                    },
                    ..CloudConfig::default()
                };
                cfg.target.disk.prewarmed = true;
                Cloud::build(cfg)
            }
        }
    }

    fn services(self, seed: u64) -> Vec<Box<dyn storm_core::StorageService>> {
        match self {
            WorkloadId::XtsRw64k => {
                let mut key = [0u8; 64];
                crate::inputs::fill(seed ^ 0xAE5, &mut key);
                vec![Box::new(EncryptionService::aes_xts(&key))]
            }
            WorkloadId::NvmeqRead4kQd32 => Vec::new(),
            WorkloadId::ReduceWrite64k => vec![
                Box::new(DedupService::new(seed, 12)),
                Box::new(CompressService::new(4096)),
            ],
        }
    }
}

/// Relay counters over the window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RelayCounters {
    /// PDUs (or nvmeq command units) forwarded.
    pub pdus: u64,
    /// Data-segment bytes copied.
    pub data_copied: u64,
    /// Header bytes copied.
    pub header_copied: u64,
    /// PDUs forwarded verbatim.
    pub verbatim: u64,
}

impl RelayCounters {
    fn read(cloud: &mut Cloud, dep: &ChainDeployment) -> Self {
        let relay = relay(cloud, dep);
        let copy = relay.copy_stats();
        RelayCounters {
            pdus: relay.pdus_forwarded(),
            data_copied: copy.data_bytes_copied,
            header_copied: copy.header_bytes_copied,
            verbatim: copy.verbatim_forwards,
        }
    }

    fn since(self, e: RelayCounters) -> RelayCounters {
        RelayCounters {
            pdus: self.pdus - e.pdus,
            data_copied: self.data_copied - e.data_copied,
            header_copied: self.header_copied - e.header_copied,
            verbatim: self.verbatim - e.verbatim,
        }
    }
}

/// Guest transport and target batching counters over the window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportCounters {
    /// Submission-ring high-water mark (whole session; 0 on iSCSI).
    pub sq_peak: u64,
    /// Doorbell frames sent.
    pub doorbells: u64,
    /// SQEs those doorbells carried.
    pub doorbell_sqes: u64,
    /// Completion frames received.
    pub cq_frames: u64,
    /// CQEs those frames carried.
    pub cqes: u64,
    /// Target dispatch ticks.
    pub dispatch_ticks: u64,
    /// Commands admitted across those ticks.
    pub dispatched: u64,
}

impl TransportCounters {
    fn read(cloud: &mut Cloud, app: AppId) -> Self {
        let (ticks, admitted, _) = cloud.target_mut(0).dispatch_stats();
        let t = cloud.client_mut(0, app).transport();
        let (doorbells, doorbell_sqes) = t.doorbell_stats();
        let (cq_frames, cqes) = t.cq_stats();
        TransportCounters {
            sq_peak: t.sq_peak() as u64,
            doorbells,
            doorbell_sqes,
            cq_frames,
            cqes,
            dispatch_ticks: ticks,
            dispatched: admitted,
        }
    }

    fn since(self, e: TransportCounters) -> TransportCounters {
        TransportCounters {
            sq_peak: self.sq_peak,
            doorbells: self.doorbells - e.doorbells,
            doorbell_sqes: self.doorbell_sqes - e.doorbell_sqes,
            cq_frames: self.cq_frames - e.cq_frames,
            cqes: self.cqes - e.cqes,
            dispatch_ticks: self.dispatch_ticks - e.dispatch_ticks,
            dispatched: self.dispatched - e.dispatched,
        }
    }
}

/// Host time of one service over the window (traced run).
#[derive(Debug, Clone)]
pub struct ServiceLayer {
    /// Service name.
    pub name: String,
    /// Host time inside it.
    pub span: HostSpan,
}

/// What only the traced run measures.
#[derive(Debug, Clone)]
pub struct Layers {
    /// Per-service host time over the window, in chain order.
    pub services: Vec<ServiceLayer>,
    /// Host time inside the workload's callbacks over the window.
    pub workload: HostSpan,
    /// Bytes the encryption service ciphered over the window.
    pub ciphered_bytes: u64,
    /// Dedup's logical ÷ unique bytes at the window's end (0 if absent).
    pub dedup_ratio: f64,
    /// Compression's logical ÷ stored bytes at the window's end (0 if
    /// absent).
    pub compress_ratio: f64,
    /// Sim-time attribution of the window's completed I/Os: `(hop, %)`.
    pub hops: Vec<(String, f64)>,
}

/// One repetition's results.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Raw host time of the measured window.
    pub window_host: Duration,
    /// The window cut into sim-time slices: each slice's host time with
    /// its reference run, and the I/Os completed in it.
    pub slices: Vec<(Timed, u64)>,
    /// The window's sim length.
    pub sim_window: SimDuration,
    /// Guest-side sim measurements and verification outcome.
    pub guest: GuestStats,
    /// Whether the drain and read-back finished.
    pub drained: bool,
    /// Events the engine delivered in the window.
    pub events: u64,
    /// Relay counters over the window.
    pub relay: RelayCounters,
    /// Transport counters over the window.
    pub transport: TransportCounters,
    /// Per-layer host times (traced repetitions only).
    pub layers: Option<Layers>,
}

impl Rep {
    /// I/O errors plus read-back mismatches.
    pub fn failed(&self) -> u64 {
        self.guest.errors + self.guest.mismatches
    }
}

fn relay<'a>(cloud: &'a mut Cloud, dep: &ChainDeployment) -> &'a ActiveRelayMb {
    cloud
        .net
        .app_mut(
            dep.mb_nodes[0].node,
            dep.mb_apps[0].expect("active relay app"),
        )
        .expect("relay app present")
        .downcast_ref::<ActiveRelayMb>()
        .expect("app is an ActiveRelayMb")
}

fn bench_workload(cloud: &mut Cloud, app: AppId) -> &BenchWorkload {
    let w = cloud
        .client_mut(0, app)
        .workload_ref()
        .expect("workload present");
    match w.downcast_ref::<TimedWorkload>() {
        Some(t) => &t.inner,
        None => w.downcast_ref::<BenchWorkload>().expect("bench workload"),
    }
}

fn timed_services(cloud: &mut Cloud, dep: &ChainDeployment) -> Vec<(ServiceLayer, u64)> {
    let relay = relay(cloud, dep);
    (0..)
        .map_while(|i| relay.service(i))
        .filter_map(|s| s.downcast_ref::<TimedService>())
        .map(|t| {
            let ciphered = t
                .inner
                .downcast_ref::<EncryptionService>()
                .map_or(0, |e| e.counters().0 + e.counters().1);
            let layer = ServiceLayer {
                name: t.inner.name().to_string(),
                span: t.span,
            };
            (layer, ciphered)
        })
        .collect()
}

fn reduction_ratios(cloud: &mut Cloud, dep: &ChainDeployment) -> (f64, f64) {
    let relay = relay(cloud, dep);
    let (mut dedup, mut compress) = (0.0, 0.0);
    for t in (0..).map_while(|i| relay.service(i)) {
        let inner = match t.downcast_ref::<TimedService>() {
            Some(t) => t.inner.as_ref(),
            None => t,
        };
        if let Some(d) = inner.downcast_ref::<DedupService>() {
            dedup = d.stats.reduction_ratio();
        }
        if let Some(c) = inner.downcast_ref::<CompressService>() {
            compress = c.stats.reduction_ratio();
        }
    }
    (dedup, compress)
}

fn workload_span(cloud: &mut Cloud, app: AppId) -> HostSpan {
    cloud
        .client_mut(0, app)
        .workload_ref()
        .and_then(|w| w.downcast_ref::<TimedWorkload>())
        .map_or(HostSpan::default(), |t| t.span)
}

/// Folds attribution rows onto the hop names the benchmark reports.
fn hop_shares(events: &[(SimTime, storm_sim::trace::TraceEvent)]) -> Vec<(String, f64)> {
    let report = analyze::attribute(events);
    let mut hops: Vec<(String, f64)> = Vec::new();
    for row in report.rows {
        let label = if row.label.starts_with("service") {
            "service".to_string()
        } else {
            row.label
        };
        match hops.iter_mut().find(|(l, _)| *l == label) {
            Some((_, share)) => *share += row.share,
            None => hops.push((label, row.share)),
        }
    }
    hops
}

struct Deployed {
    cloud: Cloud,
    vol: VolumeHandle,
    dep: ChainDeployment,
    app: AppId,
    setup: Timed,
}

/// Builds the cloud, creates the volume, deploys the chain and logs the
/// guest in: the timed set-up.
fn deploy(
    workload: WorkloadId,
    seed: u64,
    bench: BenchWorkload,
    traced: Option<&Arc<Recorder>>,
) -> Deployed {
    let mut services = workload.services(seed);
    let guest: Box<dyn storm_cloud::Workload> = match traced {
        Some(_) => {
            services = services
                .into_iter()
                .map(|s| Box::new(TimedService::new(s)) as Box<dyn storm_core::StorageService>)
                .collect();
            Box::new(TimedWorkload {
                inner: bench,
                span: HostSpan::default(),
            })
        }
        None => Box::new(bench),
    };

    // Set-up builds and wires objects for every workload alike, so it is
    // scaled by the bookkeeping kernel whatever the workload.
    let ((cloud, vol, dep, app), setup) = Timed::measure(Reference::Churn, || {
        let mut cloud = workload.cloud(seed);
        if let Some(rec) = traced {
            cloud.set_trace_hook(Recorder::hook(rec));
        }
        let vol = cloud.create_volume(VOLUME_BYTES, 0);
        let platform = StormPlatform::default();
        let mb = MbSpec::with_services(3, RelayMode::Active, services);
        let dep = platform.deploy_chain(&mut cloud, &vol, (1, 2), vec![mb]);
        let app = platform.attach_volume_steered(
            &mut cloud,
            &dep,
            0,
            "vm:tenant",
            &vol,
            guest,
            seed,
            false,
        );
        (cloud, vol, dep, app)
    });
    Deployed {
        cloud,
        vol,
        dep,
        app,
        setup,
    }
}

/// Host time of one set-up alone (cloud build to login-ready).
pub fn setup_only(workload: WorkloadId, seed: u64) -> Timed {
    let bench = BenchWorkload::new(workload.pattern(), SimDuration::ZERO, seed);
    deploy(workload, seed, bench, None).setup
}

/// Runs one repetition of `workload` at `seed` with a `window` of sim
/// time. `traced` wraps the services and the workload in timing
/// decorators, steps the event loop and arms a trace recorder.
pub fn run_rep(workload: WorkloadId, seed: u64, window: SimDuration, traced: bool) -> Rep {
    // Inputs are generated outside the set-up clock.
    let bench = BenchWorkload::new(workload.pattern(), window, seed);
    let pattern = workload.pattern();
    let prepopulate: Vec<(u64, bytes::Bytes)> = if pattern.prepopulated {
        let sectors = pattern.block_bytes as u64 / 512;
        (0..pattern.blocks)
            .map(|b| (b * sectors, bench.initial_content(b)))
            .collect()
    } else {
        Vec::new()
    };
    let recorder = traced.then(|| Arc::new(Recorder::new()));
    let Deployed {
        mut cloud,
        vol,
        dep,
        app,
        ..
    } = deploy(workload, seed, bench, recorder.as_ref());
    // The sim has not stepped since login, so the guest's first reads are
    // still on the wire and see the region written here.
    let mut shared = vol.shared.clone();
    for (lba, data) in &prepopulate {
        shared.write(*lba, data).expect("prepopulate volume");
    }
    drop(prepopulate);

    let start = bench_workload(&mut cloud, app)
        .stats
        .window_start
        .expect("login completed during set-up");
    let end = start + window;
    let relay0 = RelayCounters::read(&mut cloud, &dep);
    let transport0 = TransportCounters::read(&mut cloud, app);
    let services0 = timed_services(&mut cloud, &dep);
    let workload0 = workload_span(&mut cloud, app);
    if let Some(rec) = &recorder {
        rec.clear();
    }
    let events0 = cloud.net.events_delivered();

    // The window runs in sim-time slices, each timed with its reference
    // run; the traced run steps the event loop one event at a time.
    let mut slices = Vec::new();
    let mut at = start;
    while at < end {
        at = (at + workload.slice()).min(end);
        let ops = cloud.client_mut(0, app).stats.ops();
        let ((), timed) = Timed::measure(workload.reference(), || {
            if traced {
                while cloud.net.step_until(at) {}
            }
            cloud.net.run_until(at);
        });
        slices.push((timed, cloud.client_mut(0, app).stats.ops() - ops));
    }
    let window_host = slices.iter().map(|(t, _)| t.raw).sum();

    let events = cloud.net.events_delivered() - events0;
    let relay_counters = RelayCounters::read(&mut cloud, &dep).since(relay0);
    let transport = TransportCounters::read(&mut cloud, app).since(transport0);
    let layers = recorder.map(|rec| {
        let hops = hop_shares(&rec.events());
        let services1 = timed_services(&mut cloud, &dep);
        let (dedup_ratio, compress_ratio) = reduction_ratios(&mut cloud, &dep);
        Layers {
            ciphered_bytes: services1.iter().map(|s| s.1).sum::<u64>()
                - services0.iter().map(|s| s.1).sum::<u64>(),
            services: services1
                .into_iter()
                .zip(&services0)
                .map(|((s1, _), (s0, _))| ServiceLayer {
                    name: s1.name,
                    span: s1.span.since(s0.span),
                })
                .collect(),
            workload: workload_span(&mut cloud, app).since(workload0),
            dedup_ratio,
            compress_ratio,
            hops,
        }
    });

    let deadline = end + DRAIN;
    while !bench_workload(&mut cloud, app).done() && cloud.net.step_until(deadline) {}
    let client_errors = cloud.client_mut(0, app).stats.errors;
    let bench = bench_workload(&mut cloud, app);
    let mut guest = bench.stats.clone();
    guest.errors = guest.errors.max(client_errors);
    Rep {
        window_host,
        slices,
        sim_window: window,
        guest,
        drained: bench.done(),
        events,
        relay: relay_counters,
        transport,
        layers,
    }
}
