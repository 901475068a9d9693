//! Scenario runners for the data-reduction & caching service suite.
//!
//! Three acceptance scenarios back the suite's claims:
//!
//! - [`cache_hit_point`]: a hot-set workload against the write-back
//!   cache middle-box; the interesting output is the read hit rate.
//! - [`dedup_ratio_point`]: a duplicate-heavy workload against the CDC
//!   dedup stage; the interesting output is the data-reduction ratio.
//! - [`suite_passthrough_point`]: all four suite services installed but
//!   idle — the verbatim fast path must still copy zero data bytes.
//!
//! The cache middle-box attaches two replica sessions exactly as the
//! service expects: replica 0 is the journal volume (on its own storage
//! host), replica 1 is the primary volume — the same export the spliced
//! path targets, so flushed data lands where misses read from.

use bytes::Bytes;
use storm_cloud::{Cloud, CloudConfig, IoCtx, IoKind, IoResult, ReqId, Workload};
use storm_core::relay::{ActiveRelayMb, ReplicaTarget};
use storm_core::service::StorageService;
use storm_core::{MbSpec, RelayMode, StormPlatform};
use storm_services::{
    CacheConfig, CompressService, DedupService, SnapshotService, WriteBackCacheService,
};
use storm_sim::{SimDuration, SimRng, SimTime};
use storm_workloads::{FioJob, FioWorkload};

use crate::{client_point, FioPoint, PassthroughPoint, Testbed};

/// Cloud for the suite scenarios: the standard compute layout plus a
/// second storage host that exports the cache's journal volume.
fn build_suite_cloud(seed: u64) -> Cloud {
    let mut cfg = CloudConfig {
        seed,
        storage_hosts: 2,
        backing_bytes: 64 << 30,
        ..CloudConfig::default()
    };
    cfg.target.disk.prewarmed = true;
    Cloud::build(cfg)
}

/// 4 KiB blocks: writes a hot set once, then reads it repeatedly with a
/// 20% sprinkle of cold (never re-read) blocks — a cache-friendly mix
/// whose hit rate is predictable (~0.8).
struct HotSetWorkload {
    hot_blocks: u64,
    reads: usize,
    wrote: u64,
    read_done: usize,
    cold_block: u64,
}

impl HotSetWorkload {
    const SECTORS_PER_BLOCK: u64 = 8;

    fn new(hot_blocks: u64, reads: usize) -> Self {
        HotSetWorkload {
            hot_blocks,
            reads,
            wrote: 0,
            read_done: 0,
            cold_block: 0,
        }
    }

    fn payload(i: u64) -> Bytes {
        Bytes::from(vec![(i % 251) as u8; 4096])
    }

    fn next(&mut self, io: &mut IoCtx<'_>) {
        if self.wrote < self.hot_blocks {
            let i = self.wrote;
            self.wrote += 1;
            io.write(i * Self::SECTORS_PER_BLOCK, Self::payload(i));
        } else if self.read_done < self.reads {
            let idx = self.read_done;
            self.read_done += 1;
            let lba = if idx % 5 == 4 {
                // Cold read past the hot set: a guaranteed miss.
                self.cold_block += 1;
                (self.hot_blocks + self.cold_block) * Self::SECTORS_PER_BLOCK
            } else {
                (idx as u64 * 7 % self.hot_blocks) * Self::SECTORS_PER_BLOCK
            };
            io.read(lba, Self::SECTORS_PER_BLOCK as u32);
        } else {
            io.stop();
        }
    }
}

impl Workload for HotSetWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.next(io);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, _req: ReqId, _kind: IoKind, result: IoResult) {
        assert!(result.ok, "hot-set I/O failed");
        self.next(io);
    }
}

/// Outcome of the `services.cache.hit` scenario.
#[derive(Debug, Clone, Copy)]
pub struct CacheHitOutcome {
    /// The measured latency/throughput point.
    pub point: FioPoint,
    /// Read hit rate over the whole run (0.0–1.0).
    pub hit_rate: f64,
    /// Writes absorbed (acked from the journal, not the target).
    pub absorbed_writes: u64,
    /// Dirty bytes flushed to the primary volume during the run.
    pub flushed_bytes: u64,
    /// Sectors still dirty when the run ended.
    pub dirty_sectors: u64,
}

/// Runs the hot-set workload through an armed write-back cache
/// middle-box and reads the cache's counters back out of the relay.
pub fn cache_hit_point(testbed: &Testbed) -> CacheHitOutcome {
    let mut cloud = build_suite_cloud(testbed.seed);
    let vol = cloud.create_volume(1 << 30, 0);
    let journal = cloud.create_volume(64 << 20, 1);
    let platform = StormPlatform::default();
    let cache = WriteBackCacheService::new(CacheConfig::default());
    let mbs = vec![MbSpec {
        host_idx: 3,
        mode: RelayMode::Active,
        services: vec![Box::new(cache)],
        replicas: vec![
            ReplicaTarget {
                portal: journal.portal,
                iqn: journal.iqn.clone(),
            },
            ReplicaTarget {
                portal: vol.portal,
                iqn: vol.iqn.clone(),
            },
        ],
    }];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:cache",
        &vol,
        Box::new(HotSetWorkload::new(64, 2000)),
        testbed.seed,
        false,
    );
    let start = cloud.net.now();
    let horizon = testbed.duration + SimDuration::from_secs(5);
    cloud
        .net
        .run_until(SimTime::from_nanos((start + horizon).as_nanos()));
    let point = client_point(&mut cloud, 0, app, horizon, "suite scenario");
    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    let cache = relay
        .service(0)
        .unwrap()
        .downcast_ref::<WriteBackCacheService>()
        .unwrap();
    CacheHitOutcome {
        point,
        hit_rate: cache.stats.hit_rate(),
        absorbed_writes: cache.stats.writes_absorbed,
        flushed_bytes: cache.stats.flushed_bytes,
        dirty_sectors: cache.dirty_sectors(),
    }
}

/// Writes 64 KiB blocks to distinct offsets, cycling a small set of
/// random payloads so most content is a duplicate of an earlier write.
struct DupWorkload {
    payloads: Vec<Bytes>,
    writes: usize,
    issued: usize,
}

impl DupWorkload {
    const SECTORS_PER_BLOCK: u64 = 128;

    /// `distinct` random 64 KiB payloads, written round-robin `writes`
    /// times. Random (not patterned) content: periodic data degenerates
    /// content-defined chunking to fixed max-size cuts.
    fn new(seed: u64, distinct: usize, writes: usize) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xD0D0_D0D0);
        let payloads = (0..distinct)
            .map(|_| {
                let mut buf = vec![0u8; 64 * 1024];
                rng.fill(&mut buf);
                Bytes::from(buf)
            })
            .collect();
        DupWorkload {
            payloads,
            writes,
            issued: 0,
        }
    }

    fn next(&mut self, io: &mut IoCtx<'_>) {
        if self.issued >= self.writes {
            io.stop();
            return;
        }
        let i = self.issued;
        self.issued += 1;
        let payload = self.payloads[i % self.payloads.len()].clone();
        io.write(i as u64 * Self::SECTORS_PER_BLOCK, payload);
    }
}

impl Workload for DupWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.next(io);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, _req: ReqId, _kind: IoKind, result: IoResult) {
        assert!(result.ok, "duplicate-heavy I/O failed");
        self.next(io);
    }
}

/// Outcome of the `services.dedup.ratio` scenario.
#[derive(Debug, Clone, Copy)]
pub struct DedupRatioOutcome {
    /// The measured latency/throughput point.
    pub point: FioPoint,
    /// Logical bytes over unique bytes (1.0 = no duplication found).
    pub ratio: f64,
    /// Chunks matching an already-indexed fingerprint.
    pub duplicate_chunks: u64,
    /// Total chunks cut by the CDC boundary scan.
    pub chunks: u64,
}

/// Runs the duplicate-heavy workload through an armed dedup middle-box
/// and reads the reduction ratio back out of the relay.
pub fn dedup_ratio_point(testbed: &Testbed) -> DedupRatioOutcome {
    let mut cloud = build_suite_cloud(testbed.seed);
    let vol = cloud.create_volume(1 << 30, 0);
    let platform = StormPlatform::default();
    let dedup = DedupService::new(testbed.seed, 12);
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Active,
        vec![Box::new(dedup)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:dedup",
        &vol,
        Box::new(DupWorkload::new(testbed.seed, 4, 48)),
        testbed.seed,
        false,
    );
    let start = cloud.net.now();
    let horizon = testbed.duration + SimDuration::from_secs(5);
    cloud
        .net
        .run_until(SimTime::from_nanos((start + horizon).as_nanos()));
    let point = client_point(&mut cloud, 0, app, horizon, "suite scenario");
    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    let dedup = relay
        .service(0)
        .unwrap()
        .downcast_ref::<DedupService>()
        .unwrap();
    DedupRatioOutcome {
        point,
        ratio: dedup.stats.reduction_ratio(),
        duplicate_chunks: dedup.stats.duplicate_chunks,
        chunks: dedup.stats.chunks,
    }
}

/// Runs the zero-copy acceptance scenario with the whole suite installed
/// but idle: disarmed cache, dedup and compression plus a snapshot
/// service with no snapshot taken. Every data PDU must still take the
/// verbatim fast path — `copy.data_bytes_copied` stays 0.
pub fn suite_passthrough_point(
    block_bytes: usize,
    threads: usize,
    testbed: &Testbed,
) -> PassthroughPoint {
    let mut cloud = build_suite_cloud(testbed.seed);
    let vol = cloud.create_volume(testbed.volume_bytes, 0);
    let journal = cloud.create_volume(64 << 20, 1);
    let platform = StormPlatform::default();
    let services: Vec<Box<dyn StorageService>> = vec![
        Box::new(WriteBackCacheService::disarmed(CacheConfig::default())),
        Box::new(DedupService::disarmed(testbed.seed, 12)),
        Box::new(CompressService::disarmed(4096)),
        Box::new(SnapshotService::new(128)),
    ];
    let mbs = vec![MbSpec {
        host_idx: 3,
        mode: RelayMode::Active,
        services,
        replicas: vec![
            ReplicaTarget {
                portal: journal.portal,
                iqn: journal.iqn.clone(),
            },
            ReplicaTarget {
                portal: vol.portal,
                iqn: vol.iqn.clone(),
            },
        ],
    }];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
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
    let start = cloud.net.now();
    let end = start + testbed.duration + SimDuration::from_secs(2);
    cloud.net.run_until(SimTime::from_nanos(end.as_nanos()));
    let point = client_point(&mut cloud, 0, app, testbed.duration, "suite scenario");
    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_ref::<ActiveRelayMb>()
        .unwrap();
    PassthroughPoint {
        point,
        pdus_forwarded: relay.pdus_forwarded(),
        copy: relay.copy_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_testbed() -> Testbed {
        Testbed {
            duration: SimDuration::from_secs(1),
            volume_bytes: 1 << 30,
            ..Testbed::default()
        }
    }

    #[test]
    fn hot_set_workload_hits_the_cache() {
        let out = cache_hit_point(&short_testbed());
        assert!(
            out.hit_rate > 0.5,
            "hot-set hit rate too low: {:.3}",
            out.hit_rate
        );
        assert!(out.absorbed_writes >= 64, "{out:?}");
        assert!(out.flushed_bytes > 0, "flush never ran: {out:?}");
    }

    #[test]
    fn duplicate_heavy_workload_deduplicates() {
        let out = dedup_ratio_point(&short_testbed());
        assert!(out.ratio >= 1.5, "reduction ratio too low: {out:?}");
        assert!(out.duplicate_chunks > 0, "{out:?}");
    }

    #[test]
    fn idle_suite_preserves_zero_copy() {
        let pt = suite_passthrough_point(65536, 1, &short_testbed());
        assert!(pt.pdus_forwarded > 0);
        assert_eq!(
            pt.copy.data_bytes_copied, 0,
            "idle suite must not copy data segments"
        );
    }
}
