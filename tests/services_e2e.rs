//! End-to-end service tests: the paper's three case studies running in
//! middle-boxes on the full spliced path. The active-relay cases run over
//! both guest transports: the relay's wire codec must carry every service
//! output — chain forwards, chain replies and side-context replies — in
//! the flow's own format.

use bytes::Bytes;
use storm::cloud::{Cloud, CloudConfig, IoCtx, IoKind, IoResult, ReqId, Workload};
use storm::core::relay::{ActiveRelayMb, ReplicaTarget};
use storm::core::{
    ChainDeployment, FsOp, FsTargetKind, MbSpec, Reconstructor, RelayMode, StormPlatform,
};
use storm::iscsi::TransportKind;
use storm::services::{
    CacheConfig, DedupService, EncryptionService, MonitorConfig, MonitorService,
    ReplicationService, WriteBackCacheService,
};
use storm::workloads::{malware, postmark, TraceWorkload};
use storm_block::{BlockDevice, MemDisk};
use storm_sim::{SimDuration, SimRng, SimTime};

/// Both guest transports the active relay bridges.
const TRANSPORTS: [TransportKind; 2] = [TransportKind::Iscsi, TransportKind::Nvmeq];

/// A cloud whose guests speak `transport`.
fn cloud_over(transport: TransportKind, storage_hosts: usize) -> Cloud {
    Cloud::build(CloudConfig {
        storage_hosts,
        transport,
        ..CloudConfig::default()
    })
}

/// The deployment's first middle-box.
fn relay_of<'a>(cloud: &'a mut Cloud, deployment: &ChainDeployment) -> &'a mut ActiveRelayMb {
    cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap()
}

struct VerifyWorkload {
    wrote: Option<ReqId>,
    read: Option<ReqId>,
    verified: bool,
    lba: u64,
    bytes: usize,
}

impl VerifyWorkload {
    fn new(lba: u64, bytes: usize) -> Self {
        VerifyWorkload {
            wrote: None,
            read: None,
            verified: false,
            lba,
            bytes,
        }
    }
    fn pattern(&self) -> Vec<u8> {
        (0..self.bytes)
            .map(|i| ((i * 3 + 11) % 251) as u8)
            .collect()
    }
}

impl Workload for VerifyWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.wrote = Some(io.write(self.lba, Bytes::from(self.pattern())));
    }
    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, _kind: IoKind, result: IoResult) {
        assert!(result.ok);
        if Some(req) == self.wrote {
            self.read = Some(io.read(self.lba, (self.bytes / 512) as u32));
        } else if Some(req) == self.read {
            assert_eq!(&result.data[..], &self.pattern()[..]);
            self.verified = true;
            io.stop();
        }
    }
}

/// Case 2 (encryption): plaintext in the VM, ciphertext at rest.
#[test]
fn encryption_middlebox_encrypts_at_rest() {
    for transport in TRANSPORTS {
        encryption_round_trip(transport);
    }
}

fn encryption_round_trip(transport: TransportKind) {
    let mut cloud = cloud_over(transport, 1);
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let enc = EncryptionService::aes_xts(&[0x5C; 64]);
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Active,
        vec![Box::new(enc)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:enc",
        &vol,
        Box::new(VerifyWorkload::new(4096, 32 * 1024)),
        7,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert_eq!(client.transport().kind(), transport);
    assert!(
        client
            .workload_ref()
            .unwrap()
            .downcast_ref::<VerifyWorkload>()
            .unwrap()
            .verified,
        "{transport:?}: read-back failed"
    );
    // At rest: the backing volume holds ciphertext, not the pattern.
    let mut shared = vol.shared.clone();
    let mut at_rest = vec![0u8; 32 * 1024];
    shared.read(4096, &mut at_rest).unwrap();
    let plain: Vec<u8> = (0..32 * 1024).map(|i| ((i * 3 + 11) % 251) as u8).collect();
    assert_ne!(at_rest, plain, "{transport:?}: volume must hold ciphertext");
    // Decrypting at rest with the tenant key yields the plaintext.
    let xts = storm_crypto::AesXts::from_master_key(&[0x5C; 64]);
    xts.decrypt_run(4096, 512, &mut at_rest);
    assert_eq!(at_rest, plain, "{transport:?}");
    // The drained relay holds no open command: the write retired on
    // its status, the read on its final status-carrying Data-In.
    let relay = relay_of(&mut cloud, &deployment);
    assert!(relay.pdus_forwarded() > 0);
    assert_eq!(relay.open_commands(), 0, "{transport:?}: commands leaked");
}

/// Case 2 on the passive path: the stream cipher transforms packets in
/// flight.
#[test]
fn passive_stream_cipher_encrypts_at_rest() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let enc = EncryptionService::stream_cipher(&[0x77; 32], &[0x13; 12]);
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Passive,
        vec![Box::new(enc)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:stream",
        &vol,
        Box::new(VerifyWorkload::new(512, 16 * 1024)),
        8,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert!(
        client
            .workload_ref()
            .unwrap()
            .downcast_ref::<VerifyWorkload>()
            .unwrap()
            .verified
    );
    let mut shared = vol.shared.clone();
    let mut at_rest = vec![0u8; 16 * 1024];
    shared.read(512, &mut at_rest).unwrap();
    let plain: Vec<u8> = (0..16 * 1024).map(|i| ((i * 3 + 11) % 251) as u8).collect();
    assert_ne!(at_rest, plain, "volume must hold ciphertext");
    // The keystream at the right volume offset recovers the data.
    let c = storm_crypto::ChaCha20::new(&[0x77; 32], &[0x13; 12]);
    c.apply_keystream_at(512 * 512, &mut at_rest);
    assert_eq!(at_rest, plain);
}

/// Case 1 (monitor): file operations replayed over the wire are
/// reconstructed with paths, through the whole spliced chain.
#[test]
fn monitor_reconstructs_malware_install_over_the_wire() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(192 << 20, 0);

    // Install the pre-infection system image on the volume.
    let mut image = malware::build_system_image();
    let (groups, steps) = malware::ganiw_trace(image.clone());
    postmark::install_image(&mut image, &mut vol.shared.clone());

    // Bootstrap the monitor from the attached volume (what the platform
    // does at attach time).
    let recon = Reconstructor::from_device(&mut vol.shared.clone(), "").unwrap();
    let monitor = MonitorService::new(
        MonitorConfig {
            watch: vec!["/etc/init.d".into()],
            per_byte_cost: SimDuration::ZERO,
        },
        recon,
    );
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Active,
        vec![Box::new(monitor)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:victim",
        &vol,
        Box::new(TraceWorkload::new(groups)),
        9,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(30_000_000_000));
    let client = cloud.client_mut(0, app);
    assert_eq!(client.stats.errors, 0);
    assert!(client
        .workload_ref()
        .unwrap()
        .downcast_ref::<TraceWorkload>()
        .unwrap()
        .is_finished());

    // Read the monitor's analysis out of the middle-box.
    let mb_node = deployment.mb_nodes[0].node;
    let mb_app = deployment.mb_apps[0].unwrap();
    let relay = cloud
        .net
        .app_mut(mb_node, mb_app)
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    assert!(relay.pdus_forwarded() > 0);
    assert!(!relay.alerts().is_empty(), "watched /etc/init.d must alert");
    let monitor = relay
        .service(0)
        .unwrap()
        .downcast_ref::<MonitorService>()
        .unwrap();
    let rows = monitor.analysis();
    assert!(!rows.is_empty());
    // Every Table III artifact the steps name must appear in the log.
    for step in &steps {
        for touched in &step.touches {
            let seen = rows.iter().any(|e| match &e.row.target {
                FsTargetKind::File { path } | FsTargetKind::Dir { path } => path == touched,
                _ => false,
            });
            assert!(seen, "monitor missed {touched} ({})", step.description);
        }
    }
    // Reads of the GeoIP database are reconstructed as reads.
    assert!(rows.iter().any(|e| e.row.op == FsOp::Read
        && matches!(&e.row.target, FsTargetKind::File { path } if path == "/usr/share/GeoIP/GeoIPv6.dat")));
}

/// Case 3 (replication): writes hit every replica; a failed replica is
/// removed while the client keeps running (the Figure 13 scenario).
#[test]
fn replication_mirrors_and_survives_replica_failure() {
    let mut cloud = Cloud::build(CloudConfig {
        storage_hosts: 3,
        ..CloudConfig::default()
    });
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let rep1 = cloud.create_volume(64 << 20, 1);
    let rep2 = cloud.create_volume(64 << 20, 2);
    let svc = ReplicationService::new(2, true);
    let mbs = vec![MbSpec {
        host_idx: 3,
        mode: RelayMode::Active,
        services: vec![Box::new(svc)],
        replicas: vec![
            ReplicaTarget {
                portal: rep1.portal,
                iqn: rep1.iqn.clone(),
            },
            ReplicaTarget {
                portal: rep2.portal,
                iqn: rep2.iqn.clone(),
            },
        ],
    }];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);

    /// Writes then reads blocks repeatedly; tolerates no errors.
    struct Churn {
        rounds: usize,
        issued: usize,
        next_is_read: bool,
    }
    impl Workload for Churn {
        fn start(&mut self, io: &mut IoCtx<'_>) {
            io.write(0, Bytes::from(vec![1u8; 4096]));
        }
        fn completed(&mut self, io: &mut IoCtx<'_>, _r: ReqId, _k: IoKind, result: IoResult) {
            assert!(result.ok, "client I/O failed");
            self.issued += 1;
            if self.issued >= self.rounds {
                io.stop();
                return;
            }
            let lba = (self.issued as u64 % 64) * 8;
            if self.next_is_read {
                io.read(lba, 8);
            } else {
                io.write(lba, Bytes::from(vec![(self.issued % 251) as u8; 4096]));
            }
            self.next_is_read = !self.next_is_read;
        }
    }
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:db",
        &vol,
        Box::new(Churn {
            rounds: 3000,
            issued: 0,
            next_is_read: false,
        }),
        10,
        false,
    );
    // Run briefly, then fail replica 1's backing volume mid-workload.
    cloud.net.run_for(SimDuration::from_millis(50));
    rep1.shared.fail();
    cloud.net.run_until(SimTime::from_nanos(60_000_000_000));

    let client = cloud.client_mut(0, app);
    assert_eq!(client.stats.errors, 0, "client must not see the failure");
    assert!(client.stats.ops() >= 3000, "ops: {}", client.stats.ops());

    let mb_node = deployment.mb_nodes[0].node;
    let mb_app = deployment.mb_apps[0].unwrap();
    let relay = cloud
        .net
        .app_mut(mb_node, mb_app)
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    let svc = relay
        .service(0)
        .unwrap()
        .downcast_ref::<ReplicationService>()
        .unwrap();
    assert_eq!(svc.alive_replicas(), 1, "failed replica must be removed");
    assert!(svc.stats.replica_writes > 0);
    assert!(svc.stats.striped_reads > 0);
    assert!(relay.alerts().iter().any(|(_, m)| m.contains("replica")));
    // The surviving replica holds the mirrored writes: block 0 was written
    // with 1s before the failure.
    let mut buf = vec![0u8; 4096];
    rep2.shared.clone().read(0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 1),
        "replica 2 missing mirrored write"
    );
}

/// Writes a fixed set of `(lba, payload)` pairs one at a time, then
/// reads them all back `read_rounds` times and verifies the bytes
/// byte-for-byte.
struct WriteReadVerify {
    ops: Vec<(u64, Bytes)>,
    read_rounds: usize,
    next_write: usize,
    next_read: usize,
    verified: bool,
}

impl WriteReadVerify {
    fn new(ops: Vec<(u64, Bytes)>) -> Self {
        Self::with_read_rounds(ops, 1)
    }

    fn with_read_rounds(ops: Vec<(u64, Bytes)>, read_rounds: usize) -> Self {
        WriteReadVerify {
            ops,
            read_rounds,
            next_write: 0,
            next_read: 0,
            verified: false,
        }
    }
}

impl Workload for WriteReadVerify {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        let (lba, data) = self.ops[0].clone();
        self.next_write = 1;
        io.write(lba, data);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, _req: ReqId, kind: IoKind, result: IoResult) {
        assert!(result.ok, "I/O failed");
        if kind == IoKind::Read {
            let (_, expected) = &self.ops[(self.next_read - 1) % self.ops.len()];
            assert_eq!(
                &result.data[..],
                &expected[..],
                "read-back mismatch at read {}",
                self.next_read - 1
            );
        }
        if self.next_write < self.ops.len() {
            let (lba, data) = self.ops[self.next_write].clone();
            self.next_write += 1;
            io.write(lba, data);
        } else if self.next_read < self.ops.len() * self.read_rounds {
            let (lba, data) = self.ops[self.next_read % self.ops.len()].clone();
            self.next_read += 1;
            io.read(lba, (data.len() / 512) as u32);
        } else {
            self.verified = true;
            io.stop();
        }
    }
}

/// Whether client `app`'s [`WriteReadVerify`] finished and verified.
fn verified(cloud: &mut Cloud, app: storm::net::AppId) -> bool {
    cloud
        .client_mut(0, app)
        .workload_ref()
        .unwrap()
        .downcast_ref::<WriteReadVerify>()
        .unwrap()
        .verified
}

/// A 4 KiB and a 128 KiB patterned payload: the second needs a
/// multi-segment Data-In train when a service serves it locally.
fn small_and_large_ops() -> Vec<(u64, Bytes)> {
    let pattern = |n: usize, salt: usize| -> Bytes {
        (0..n)
            .map(|i| ((i * 7 + salt) % 253) as u8)
            .collect::<Vec<u8>>()
            .into()
    };
    vec![(0, pattern(4096, 1)), (512, pattern(128 * 1024, 2))]
}

/// Case 3 (replication), read side: with read striping on, successive
/// reads rotate over the primary and both replicas, and a read a replica
/// serves reaches the guest as a reply the middle-box synthesizes — at
/// 4 KiB and as a two-segment 128 KiB train.
#[test]
fn replication_serves_reads_from_replicas() {
    for transport in TRANSPORTS {
        let mut cloud = cloud_over(transport, 3);
        let platform = StormPlatform::default();
        let vol = cloud.create_volume(64 << 20, 0);
        let rep1 = cloud.create_volume(64 << 20, 1);
        let rep2 = cloud.create_volume(64 << 20, 2);
        let mbs = vec![MbSpec {
            host_idx: 3,
            mode: RelayMode::Active,
            services: vec![Box::new(ReplicationService::new(2, true))],
            replicas: vec![
                ReplicaTarget {
                    portal: rep1.portal,
                    iqn: rep1.iqn.clone(),
                },
                ReplicaTarget {
                    portal: rep2.portal,
                    iqn: rep2.iqn.clone(),
                },
            ],
        }];
        let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
        let app = platform.attach_volume_steered(
            &mut cloud,
            &deployment,
            0,
            "vm:replica-reads",
            &vol,
            Box::new(WriteReadVerify::with_read_rounds(small_and_large_ops(), 3)),
            12,
            false,
        );
        cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
        assert!(
            verified(&mut cloud, app),
            "{transport:?}: replica-served reads must complete with the written bytes"
        );
        let svc = relay_of(&mut cloud, &deployment)
            .service(0)
            .unwrap()
            .downcast_ref::<ReplicationService>()
            .unwrap()
            .stats;
        assert_eq!(svc.striped_reads, 4, "{transport:?}: {svc:?}");
        assert_eq!(svc.primary_reads, 2, "{transport:?}: {svc:?}");
    }
}

/// The write-back cache absorbs writes (acked from a side context once
/// the journal commit lands) and serves full hits itself, including a
/// 128 KiB hit that leaves as a two-segment Data-In train.
#[test]
fn write_back_cache_acks_writes_and_serves_hits() {
    for transport in TRANSPORTS {
        let mut cloud = cloud_over(transport, 2);
        let platform = StormPlatform::default();
        let vol = cloud.create_volume(64 << 20, 0);
        let journal = cloud.create_volume(16 << 20, 1);
        let mbs = vec![MbSpec {
            host_idx: 3,
            mode: RelayMode::Active,
            services: vec![Box::new(WriteBackCacheService::new(CacheConfig::default()))],
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
            Box::new(WriteReadVerify::new(small_and_large_ops())),
            13,
            false,
        );
        cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
        assert!(
            verified(&mut cloud, app),
            "{transport:?}: cached writes must be acked and hits served intact"
        );
        let stats = relay_of(&mut cloud, &deployment)
            .service(0)
            .unwrap()
            .downcast_ref::<WriteBackCacheService>()
            .unwrap()
            .stats;
        assert_eq!(stats.writes_absorbed, 2, "{transport:?}: {stats:?}");
        assert_eq!(stats.read_hits, 2, "{transport:?}: {stats:?}");
        assert_eq!(stats.read_misses, 0, "{transport:?}: {stats:?}");
    }
}

/// Runs `ops` through an armed dedup middle-box, verifies every byte
/// round-trips and survives at rest, and returns the service's stats.
fn dedup_roundtrip(
    transport: TransportKind,
    seed: u64,
    ops: Vec<(u64, Bytes)>,
) -> storm::services::DedupStats {
    let mut cloud = cloud_over(transport, 1);
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let svc = DedupService::new(seed, 12);
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Active,
        vec![Box::new(svc)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:dedup",
        &vol,
        Box::new(WriteReadVerify::new(ops.clone())),
        seed,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    assert!(
        verified(&mut cloud, app),
        "{transport:?}: dedup read-back failed"
    );
    // Dedup is inspection-only: the exact bytes sit at rest.
    let mut shared = vol.shared.clone();
    for (lba, data) in &ops {
        let mut at_rest = vec![0u8; data.len()];
        shared.read(*lba, &mut at_rest).unwrap();
        assert_eq!(
            &at_rest[..],
            &data[..],
            "{transport:?}: at-rest bytes diverge at {lba}"
        );
    }
    relay_of(&mut cloud, &deployment)
        .service(0)
        .unwrap()
        .downcast_ref::<DedupService>()
        .unwrap()
        .stats
}

/// Random (not patterned) payloads: periodic data degenerates CDC to
/// fixed max-size cuts, hiding the behaviour under test.
fn random_payload(rng: &mut SimRng, bytes: usize) -> Bytes {
    let mut buf = vec![0u8; bytes];
    rng.fill(&mut buf);
    Bytes::from(buf)
}

/// Duplicate-heavy workload through the dedup middle-box: the same
/// content written to many places dedups well past the 1.5x acceptance
/// floor, and the data itself is untouched in flight and at rest.
#[test]
fn dedup_reduces_duplicate_heavy_workload() {
    let mut rng = SimRng::seed_from_u64(0xD1D1);
    let a = random_payload(&mut rng, 32 * 1024);
    let b = random_payload(&mut rng, 32 * 1024);
    // `a` written four times (three duplicates), `b` once.
    let ops = vec![
        (0, a.clone()),
        (64, a.clone()),
        (128, a.clone()),
        (192, a),
        (256, b),
    ];
    for transport in TRANSPORTS {
        let stats = dedup_roundtrip(transport, 21, ops.clone());
        assert!(stats.duplicate_chunks > 0, "{transport:?}: {stats:?}");
        assert!(
            stats.reduction_ratio() >= 1.5,
            "{transport:?}: duplicate-heavy ratio too low: {stats:?}"
        );
    }
}

/// Unique, incompressible workload through the dedup middle-box: random
/// content with no repeats must not be miscounted as duplicate — the
/// ratio stays at 1.0 — and still round-trips byte-for-byte.
#[test]
fn dedup_is_honest_on_incompressible_workload() {
    let mut rng = SimRng::seed_from_u64(0xD2D2);
    let ops: Vec<(u64, Bytes)> = (0..5)
        .map(|i| (i * 64, random_payload(&mut rng, 32 * 1024)))
        .collect();
    for transport in TRANSPORTS {
        let stats = dedup_roundtrip(transport, 22, ops.clone());
        assert_eq!(stats.duplicate_chunks, 0, "{transport:?}: {stats:?}");
        assert!(
            stats.reduction_ratio() < 1.01,
            "{transport:?}: unique data must not dedup: {stats:?}"
        );
        assert!(
            stats.chunks > 5,
            "{transport:?}: CDC must cut sub-payload chunks"
        );
    }
}

/// Service chaining (paper §II-B): monitor + encryption in ONE middle-box;
/// the monitor sees plaintext, the volume sees ciphertext.
#[test]
fn chained_monitor_then_encryption() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    // A raw (unformatted) volume has nothing to reconstruct; stage one is
    // a counting passthrough standing in for any inspection service.
    let monitor_counts = storm::core::service::PassthroughService::new();
    let enc = EncryptionService::aes_xts(&[0xD4; 64]);
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Active,
        vec![Box::new(monitor_counts), Box::new(enc)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:chain",
        &vol,
        Box::new(VerifyWorkload::new(1024, 8192)),
        11,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert!(
        client
            .workload_ref()
            .unwrap()
            .downcast_ref::<VerifyWorkload>()
            .unwrap()
            .verified
    );
    // Ciphertext at rest proves the encryption stage ran *after* the
    // monitor stage on the write path.
    let mut at_rest = vec![0u8; 8192];
    vol.shared.clone().read(1024, &mut at_rest).unwrap();
    let plain: Vec<u8> = (0..8192).map(|i| ((i * 3 + 11) % 251) as u8).collect();
    assert_ne!(at_rest, plain);
    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    let pt = relay
        .service(0)
        .unwrap()
        .downcast_ref::<storm::core::service::PassthroughService>()
        .unwrap();
    assert!(pt.pdus() > 4, "first chain stage saw the PDUs");
}

/// Writes 256 KiB at a volume offset past 2^64 bytes, which the stream
/// cipher cannot reach.
struct UnreachableWrite {
    failed: bool,
}

impl Workload for UnreachableWrite {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        io.write(1 << 56, Bytes::from(vec![0x5A; 256 << 10]));
    }
    fn completed(&mut self, io: &mut IoCtx<'_>, _req: ReqId, _kind: IoKind, result: IoResult) {
        self.failed = !result.ok;
        io.stop();
    }
}

/// A service failing a command with a chain reply retires it for the
/// services before it too, which never see that status: the monitor
/// drops the write it began assembling from the command's immediate data
/// when the encryption stage behind it rejects the command.
#[test]
fn chain_reply_retires_state_of_earlier_services() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(16 << 20, 0);
    let fs = storm::extfs::ExtFs::mkfs(MemDisk::with_capacity_bytes(16 << 20)).unwrap();
    let mut image = fs.into_device().unwrap();
    postmark::install_image(&mut image, &mut vol.shared.clone());
    let recon = Reconstructor::from_device(&mut vol.shared.clone(), "/mnt").unwrap();
    let monitor = MonitorService::new(
        MonitorConfig {
            watch: Vec::new(),
            per_byte_cost: SimDuration::ZERO,
        },
        recon,
    );
    let enc = EncryptionService::stream_cipher(&[3; 32], &[5; 12]);
    let mbs = vec![MbSpec::with_services(
        3,
        RelayMode::Active,
        vec![Box::new(monitor), Box::new(enc)],
    )];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let workload = Box::new(UnreachableWrite { failed: false });
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:t",
        &vol,
        workload,
        3,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(5_000_000_000));
    let client = cloud.client_mut(0, app);
    let w = client.workload_ref().unwrap();
    assert!(w.downcast_ref::<UnreachableWrite>().unwrap().failed);
    let relay = relay_of(&mut cloud, &deployment);
    assert_eq!(relay.open_commands(), 0, "the rejected write retired");
    let monitor = relay.service(0).unwrap();
    let monitor = monitor.downcast_ref::<MonitorService>().unwrap();
    assert_eq!(monitor.open_writes(), 0, "the monitor's assembly leaked");
}
