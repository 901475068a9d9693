//! Shared experiment runners behind `bench_smoke`'s rows and the
//! paper-figure shape tests (`tests/paper_shapes.rs`; see DESIGN.md's
//! experiment index). The runners assemble the testbed exactly as §V
//! describes: a cloud of compute hosts + one Cinder storage host, a 20 GB
//! volume, the tenant VM on one host and — in the middle-box cases — the
//! ingress gateway, middle-box VM and egress gateway spread across
//! *different* physical hosts ("to measure the routing impact in the
//! worst case").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use storm_cloud::{Cloud, CloudConfig, VolumeHandle};
use storm_core::{
    ActiveRelayMb, ChainDeployment, MbSpec, RelayCopyStats, RelayMode, StormPlatform,
};
use storm_iscsi::TransportKind;
use storm_net::{AppId, LinkSpec};
use storm_services::EncryptionService;
use storm_sim::trace::TraceHook;
use storm_sim::{SimDuration, SimTime};
use storm_workloads::{FioJob, FioWorkload};

mod fleet;
mod qos;
mod results;
mod services_suite;

pub use fleet::{run_fleet, FleetConfig, FleetRun};
pub use qos::{interference_point, provisioning_churn_point, ChurnOutcome, InterferenceOutcome};
pub use results::{BenchResults, ScenarioResult};
pub use services_suite::{
    cache_hit_point, dedup_ratio_point, suite_passthrough_point, CacheHitOutcome, DedupRatioOutcome,
};

/// Which data path the experiment measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathMode {
    /// Direct VM → target (the baseline without StorM).
    Legacy,
    /// Steered through a middle-box doing pure IP forwarding.
    MbFwd,
    /// Steered through a passive-relay middle-box running the stream
    /// cipher service.
    MbPassiveRelay,
    /// Steered through an active-relay middle-box running the stream
    /// cipher service.
    MbActiveRelay,
}

impl std::fmt::Display for PathMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathMode::Legacy => write!(f, "LEGACY"),
            PathMode::MbFwd => write!(f, "MB-FWD"),
            PathMode::MbPassiveRelay => write!(f, "MB-PASSIVE-RELAY"),
            PathMode::MbActiveRelay => write!(f, "MB-ACTIVE-RELAY"),
        }
    }
}

/// Result of one Fio experiment point.
#[derive(Debug, Clone, Copy)]
pub struct FioPoint {
    /// Completed operations.
    pub ops: u64,
    /// Operations per second over the measurement window.
    pub iops: f64,
    /// Mean I/O latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median I/O latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile I/O latency in milliseconds.
    pub p99_ms: f64,
}

/// The shared testbed parameters (one place to calibrate).
#[derive(Debug, Clone)]
pub struct Testbed {
    /// Volume size in bytes (paper: 20 GB).
    pub volume_bytes: u64,
    /// Measurement duration per point.
    pub duration: SimDuration,
    /// Seed.
    pub seed: u64,
    /// Stream-cipher per-byte processing cost inside the middle-box.
    pub cipher_cost_per_byte: SimDuration,
}

impl Default for Testbed {
    fn default() -> Self {
        Testbed {
            volume_bytes: 20 << 30,
            duration: SimDuration::from_secs(5),
            seed: 20160628,
            // A byte-wise software stream cipher (~250 MB/s single core).
            cipher_cost_per_byte: SimDuration::from_nanos(4),
        }
    }
}

/// Builds the standard cloud: tenant VM on compute0, gateways on 1 and 2,
/// middle-box on compute3 (all different physical machines), one storage
/// host.
pub fn build_cloud(seed: u64) -> Cloud {
    let mut cfg = CloudConfig {
        seed,
        backing_bytes: 64 << 30, // room for the 20 GB test volume + replicas
        ..CloudConfig::default()
    };
    // Steady-state page cache, as after the paper's repeated runs.
    cfg.target.disk.prewarmed = true;
    Cloud::build(cfg)
}

/// Attaches `volume` on compute0 over the requested path and returns the
/// client app.
fn attach_over_path(
    cloud: &mut Cloud,
    mode: PathMode,
    volume: &VolumeHandle,
    workload: Box<dyn storm_cloud::Workload>,
    testbed: &Testbed,
    timeline: bool,
) -> AppId {
    match mode {
        PathMode::Legacy => {
            let app = cloud.attach_volume(0, "vm:tenant", volume, workload, testbed.seed, timeline);
            // Drive the login to completion like the platform does
            // (event-stepped, not polled).
            let deadline = cloud.net.now() + SimDuration::from_secs(5);
            while !cloud.client_mut(0, app).is_ready() && cloud.net.step_until(deadline) {}
            app
        }
        PathMode::MbFwd | PathMode::MbPassiveRelay | PathMode::MbActiveRelay => {
            let platform = StormPlatform::default();
            let spec = match mode {
                PathMode::MbFwd => MbSpec::bare(3, RelayMode::Forward),
                PathMode::MbPassiveRelay => {
                    let mut enc = EncryptionService::stream_cipher(&[9u8; 32], &[4u8; 12]);
                    enc.set_per_byte_cost(testbed.cipher_cost_per_byte);
                    MbSpec::with_services(3, RelayMode::Passive, vec![Box::new(enc)])
                }
                PathMode::MbActiveRelay => {
                    let mut enc = EncryptionService::stream_cipher(&[9u8; 32], &[4u8; 12]);
                    enc.set_per_byte_cost(testbed.cipher_cost_per_byte);
                    MbSpec::with_services(3, RelayMode::Active, vec![Box::new(enc)])
                }
                PathMode::Legacy => unreachable!(),
            };
            let deployment = platform.deploy_chain(cloud, volume, (1, 2), vec![spec]);
            platform.attach_volume_steered(
                cloud,
                &deployment,
                0,
                "vm:tenant",
                volume,
                workload,
                testbed.seed,
                timeline,
            )
        }
    }
}

/// Runs one Fio point: `block_bytes` requests, `threads` outstanding,
/// 50/50 random mix, over the given path.
pub fn fio_point(
    mode: PathMode,
    block_bytes: usize,
    threads: usize,
    testbed: &Testbed,
) -> FioPoint {
    fio_point_traced(mode, block_bytes, threads, testbed, TraceHook::none())
}

/// Like [`fio_point`], with a trace hook armed across the whole cloud
/// before any volume is attached (pass `TraceHook::none()` to disable).
pub fn fio_point_traced(
    mode: PathMode,
    block_bytes: usize,
    threads: usize,
    testbed: &Testbed,
    hook: TraceHook,
) -> FioPoint {
    let mut cloud = build_cloud(testbed.seed);
    cloud.set_trace_hook(hook);
    let vol = cloud.create_volume(testbed.volume_bytes, 0);
    let job = FioJob::randrw(block_bytes, testbed.duration, vol.sectors).threads(threads);
    let app = attach_over_path(
        &mut cloud,
        mode,
        &vol,
        Box::new(FioWorkload::new(job)),
        testbed,
        false,
    );
    run_and_measure(&mut cloud, app, testbed, &mode.to_string())
}

/// Drives an attached client to the end of the measurement window (plus
/// drain slack) and folds its stats into a [`FioPoint`].
fn run_and_measure(cloud: &mut Cloud, app: AppId, testbed: &Testbed, label: &str) -> FioPoint {
    let start = cloud.net.now();
    let end = start + testbed.duration + SimDuration::from_secs(2);
    cloud.net.run_until(SimTime::from_nanos(end.as_nanos()));
    client_point(cloud, 0, app, testbed.duration, label)
}

/// Folds the stats of client `app` on compute host `host` into a
/// [`FioPoint`] over a `window`-long measurement. Every scenario runner
/// funnels through here, so the ready/error acceptance checks and the
/// fold live in exactly one place.
fn client_point(
    cloud: &mut Cloud,
    host: usize,
    app: AppId,
    window: SimDuration,
    label: &str,
) -> FioPoint {
    let client = cloud.client_mut(host, app);
    assert!(client.is_ready(), "login failed in {label}");
    assert_eq!(client.stats.errors, 0, "I/O errors in {label}");
    let ops = client.stats.ops();
    FioPoint {
        ops,
        iops: ops as f64 / window.as_secs_f64(),
        mean_latency_ms: client.stats.latency.mean().as_nanos() as f64 / 1e6,
        p50_ms: client.stats.latency.percentile(50.0).as_nanos() as f64 / 1e6,
        p99_ms: client.stats.latency.percentile(99.0).as_nanos() as f64 / 1e6,
    }
}

/// Reads `(pdus_forwarded, copy_stats)` back out of the first middle-box
/// of a deployed chain.
fn relay_copy_stats(cloud: &mut Cloud, deployment: &ChainDeployment) -> (u64, RelayCopyStats) {
    let node = deployment.mb_nodes[0].node;
    let mb_app = deployment.mb_apps[0].expect("active relay has an app");
    let relay = cloud
        .net
        .app_mut(node, mb_app)
        .expect("middle-box app present")
        .downcast_ref::<ActiveRelayMb>()
        .expect("app is an ActiveRelayMb");
    (relay.pdus_forwarded(), relay.copy_stats())
}

/// Result of one passthrough-chain run: the fio point plus the relay's
/// memcpy accounting.
#[derive(Debug, Clone, Copy)]
pub struct PassthroughPoint {
    /// The measured latency/throughput point.
    pub point: FioPoint,
    /// PDUs forwarded through the (empty) service chain.
    pub pdus_forwarded: u64,
    /// Raw copy counters read back from the relay.
    pub copy: RelayCopyStats,
}

impl PassthroughPoint {
    /// Data-segment bytes copied per forwarded PDU — the zero-copy
    /// acceptance metric. 0.0 when nothing was forwarded.
    pub fn bytes_copied_per_pdu(&self) -> f64 {
        if self.pdus_forwarded == 0 {
            return 0.0;
        }
        self.copy.data_bytes_copied as f64 / self.pdus_forwarded as f64
    }
}

/// Runs the zero-copy acceptance scenario: an active relay with an
/// **empty** service chain (pure passthrough), then reads the relay's
/// [`RelayCopyStats`] back out of the middle-box app.
///
/// On this path every data PDU must take the verbatim fast path, so
/// `copy.data_bytes_copied` stays 0 — only fixed 48-byte header copies
/// are allowed.
pub fn passthrough_point(
    block_bytes: usize,
    threads: usize,
    testbed: &Testbed,
) -> PassthroughPoint {
    let mut cloud = build_cloud(testbed.seed);
    let vol = cloud.create_volume(testbed.volume_bytes, 0);
    let platform = StormPlatform::default();
    let deployment = platform.deploy_chain(
        &mut cloud,
        &vol,
        (1, 2),
        vec![MbSpec::bare(3, RelayMode::Active)],
    );
    let job = FioJob::randrw(block_bytes, testbed.duration, vol.sectors).threads(threads);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:tenant",
        &vol,
        Box::new(FioWorkload::new(job)),
        testbed.seed,
        false,
    );
    let point = run_and_measure(&mut cloud, app, testbed, "passthrough path");
    let (pdus_forwarded, copy) = relay_copy_stats(&mut cloud, &deployment);
    PassthroughPoint {
        point,
        pdus_forwarded,
        copy,
    }
}

/// One point of the transport lab: the chosen wire protocol at a given
/// submission-queue depth, pushed through a bare active relay.
#[derive(Debug, Clone, Copy)]
pub struct TransportPoint {
    /// The measured latency/throughput point.
    pub point: FioPoint,
    /// Request size the point ran with.
    pub block_bytes: usize,
    /// Submission-queue depth the session ran with.
    pub queue_depth: u16,
    /// High-water mark of commands in the submission ring (0 on iSCSI).
    pub sq_peak: usize,
    /// `(doorbell frames sent, SQEs they carried)` — `(0, 0)` on iSCSI.
    pub doorbell: (u64, u64),
    /// `(completion frames received, CQEs they carried)` — `(0, 0)` on
    /// iSCSI.
    pub cq: (u64, u64),
    /// `(target dispatch ticks, commands admitted across them)`.
    pub dispatch: (u64, u64),
    /// Command units forwarded through the relay chain.
    pub pdus_forwarded: u64,
    /// The relay's memcpy accounting.
    pub copy: RelayCopyStats,
}

impl TransportPoint {
    /// Data throughput in MB/s (decimal, as the paper's figures label).
    pub fn throughput_mbps(&self) -> f64 {
        self.point.iops * self.block_bytes as f64 / 1e6
    }

    /// Average SQEs flushed per doorbell write.
    pub fn doorbell_batch(&self) -> f64 {
        ratio(self.doorbell.1, self.doorbell.0)
    }

    /// Average CQEs per completion interrupt — the realized
    /// interrupt-moderation coalescing factor.
    pub fn cq_batch(&self) -> f64 {
        ratio(self.cq.1, self.cq.0)
    }

    /// Average commands the target admitted per dispatch tick.
    pub fn dispatch_batch(&self) -> f64 {
        ratio(self.dispatch.1, self.dispatch.0)
    }

    /// Data-segment bytes copied per forwarded unit (the zero-copy
    /// acceptance metric; 0.0 when nothing was forwarded).
    pub fn bytes_copied_per_pdu(&self) -> f64 {
        ratio(self.copy.data_bytes_copied, self.pdus_forwarded)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs one transport-lab point: `kind` at `queue_depth`, `block_bytes`
/// requests through a **bare** active relay (the offload-vs-relay
/// scenario), with the workload keeping `queue_depth` requests
/// outstanding so the ring actually fills.
///
/// The lab swaps the testbed's 1 GbE storage fabric for 10 GbE and its
/// vhost-copied virtio vifs for SR-IOV-style passthrough vNICs (full
/// duplex, no 7 µs per-packet software copy) — the sweep measures how
/// deep queues amortize per-command costs, and either software ceiling
/// would clip the QD=32 point at ~110 MB/s before the rings matter.
pub fn transport_point(
    kind: TransportKind,
    queue_depth: u16,
    block_bytes: usize,
    testbed: &Testbed,
) -> TransportPoint {
    let mut cfg = CloudConfig {
        seed: testbed.seed,
        backing_bytes: 64 << 30,
        transport: kind,
        queue_depth,
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
    let mut cloud = Cloud::build(cfg);
    let vol = cloud.create_volume(testbed.volume_bytes, 0);
    let platform = StormPlatform::default();
    let deployment = platform.deploy_chain(
        &mut cloud,
        &vol,
        (1, 2),
        vec![MbSpec::bare(3, RelayMode::Active)],
    );
    let job =
        FioJob::randrw(block_bytes, testbed.duration, vol.sectors).threads(queue_depth as usize);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:tenant",
        &vol,
        Box::new(FioWorkload::new(job)),
        testbed.seed,
        false,
    );
    let label = format!("{kind} qd{queue_depth}");
    let point = run_and_measure(&mut cloud, app, testbed, &label);
    let (pdus_forwarded, copy) = relay_copy_stats(&mut cloud, &deployment);
    let (ticks, admitted, _peak_batch) = cloud.target_mut(0).dispatch_stats();
    let t = cloud.client_mut(0, app).transport();
    TransportPoint {
        point,
        block_bytes,
        queue_depth,
        sq_peak: t.sq_peak(),
        doorbell: t.doorbell_stats(),
        cq: t.cq_stats(),
        dispatch: (ticks, admitted),
        pdus_forwarded,
        copy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_point_produces_iops() {
        let testbed = Testbed {
            duration: SimDuration::from_secs(1),
            volume_bytes: 1 << 30,
            ..Testbed::default()
        };
        let p = fio_point(PathMode::Legacy, 4096, 1, &testbed);
        assert!(p.iops > 100.0, "{p:?}");
        assert!(p.mean_latency_ms > 0.0);
    }

    #[test]
    fn mb_fwd_point_is_slower_than_legacy() {
        let testbed = Testbed {
            duration: SimDuration::from_secs(1),
            volume_bytes: 1 << 30,
            ..Testbed::default()
        };
        let legacy = fio_point(PathMode::Legacy, 65536, 1, &testbed);
        let fwd = fio_point(PathMode::MbFwd, 65536, 1, &testbed);
        assert!(
            fwd.iops < legacy.iops,
            "redirection must cost something: {legacy:?} vs {fwd:?}"
        );
    }
}
