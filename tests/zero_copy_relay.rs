//! Zero-copy relay datapath: the passthrough chain forwards wire bytes
//! verbatim, and side-action routing stays correct with multiple
//! initiators sharing one middle-box.

use bytes::Bytes;
use storm::cloud::{Cloud, CloudConfig, IoCtx, IoKind, IoResult, ReqId, Workload};
use storm::core::relay::{ActiveRelayMb, ReplicaTarget};
use storm::core::{MbSpec, RelayMode, StormPlatform};
use storm::iscsi::TransportKind;
use storm::services::{EncryptionService, ReplicationService};
use storm_sim::SimTime;

/// Writes a pattern, reads it back, verifies, repeats; patterns differ
/// per client (`salt`) and per round so misrouted replies can't pass
/// verification by accident.
struct PatternRounds {
    salt: u8,
    lba: u64,
    /// Bytes per write and per read-back.
    bytes: usize,
    rounds: usize,
    verified: usize,
    wrote: Option<ReqId>,
    read: Option<ReqId>,
}

impl PatternRounds {
    fn new(salt: u8, lba: u64, bytes: usize, rounds: usize) -> Self {
        PatternRounds {
            salt,
            lba,
            bytes,
            rounds,
            verified: 0,
            wrote: None,
            read: None,
        }
    }

    fn lba_for(&self, round: usize) -> u64 {
        self.lba + (round as u64) * (self.bytes as u64 / 512)
    }

    fn pattern(&self, round: usize) -> Vec<u8> {
        (0..self.bytes)
            .map(|i| ((i * 3 + 11 + self.salt as usize + round * 7) % 251) as u8)
            .collect()
    }
}

impl Workload for PatternRounds {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.wrote = Some(io.write(self.lba_for(0), Bytes::from(self.pattern(0))));
    }
    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, _kind: IoKind, result: IoResult) {
        assert!(result.ok, "I/O failed for salt {}", self.salt);
        if Some(req) == self.wrote {
            self.wrote = None;
            self.read = Some(io.read(self.lba_for(self.verified), (self.bytes / 512) as u32));
        } else if Some(req) == self.read {
            self.read = None;
            assert_eq!(
                &result.data[..],
                &self.pattern(self.verified)[..],
                "read-back mismatch for salt {} round {}",
                self.salt,
                self.verified
            );
            self.verified += 1;
            if self.verified >= self.rounds {
                io.stop();
            } else {
                self.wrote = Some(io.write(
                    self.lba_for(self.verified),
                    Bytes::from(self.pattern(self.verified)),
                ));
            }
        }
    }
}

/// Tentpole acceptance: a bare active-relay chain forwards every data
/// segment verbatim — byte-identical wire data, zero data bytes copied.
/// Only fixed-size header copies into reassembly scratch are allowed.
#[test]
fn passthrough_relay_forwards_verbatim_with_zero_copies() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let mbs = vec![MbSpec::bare(3, RelayMode::Active)];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:zc",
        &vol,
        Box::new(PatternRounds::new(0, 64, 16 * 1024, 8)),
        21,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert_eq!(client.stats.errors, 0);
    assert_eq!(
        client
            .workload_ref()
            .unwrap()
            .downcast_ref::<PatternRounds>()
            .unwrap()
            .verified,
        8,
        "every round must read back byte-identical data through the relay"
    );

    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    let copy = relay.copy_stats();
    assert!(relay.pdus_forwarded() > 0, "chain must have carried PDUs");
    assert_eq!(
        copy.data_bytes_copied, 0,
        "passthrough must not copy forwarded data segments"
    );
    assert_eq!(
        copy.verbatim_forwards,
        relay.pdus_forwarded(),
        "every forwarded PDU must take the verbatim fast path"
    );
}

/// The same acceptance over the multi-queue transport: the relay sniffs
/// the nvmeq magic byte, bridges doorbell/completion units through the
/// (empty) chain, and still forwards every frame verbatim with zero data
/// bytes copied — the zero-copy invariant is wire-protocol agnostic.
#[test]
fn passthrough_relay_stays_zero_copy_over_nvmeq() {
    let mut cloud = Cloud::build(CloudConfig {
        transport: TransportKind::Nvmeq,
        ..CloudConfig::default()
    });
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let mbs = vec![MbSpec::bare(3, RelayMode::Active)];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:zc-nvq",
        &vol,
        Box::new(PatternRounds::new(5, 64, 16 * 1024, 8)),
        21,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert_eq!(client.stats.errors, 0);
    assert_eq!(client.transport().kind(), TransportKind::Nvmeq);
    assert_eq!(
        client
            .workload_ref()
            .unwrap()
            .downcast_ref::<PatternRounds>()
            .unwrap()
            .verified,
        8,
        "every round must read back byte-identical data through the relay"
    );

    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    let copy = relay.copy_stats();
    assert!(relay.pdus_forwarded() > 0, "chain must have carried units");
    assert_eq!(
        copy.data_bytes_copied, 0,
        "passthrough must not copy forwarded data segments on nvmeq either"
    );
    assert!(
        copy.verbatim_forwards > 0,
        "command units must take the verbatim fast path"
    );
}

/// The two services that keep per-command state across PDUs.
#[derive(Debug, Clone, Copy)]
enum Keeper {
    /// Mirrors writes to a replica and serves striped reads from it
    /// through side replies.
    Replication,
    /// AES-XTS encryption, which tracks each command's lba.
    Encryption,
}

/// Regression test for per-flow command state: with TWO initiators on
/// one middle-box, each counting its itts from 1, every service must
/// see its own flow's commands, and side actions (replica-served reads)
/// must go back to the originating pair. Both services, both guest
/// transports, and writes small enough to travel as immediate data as
/// well as ones that need Data-Out PDUs.
#[test]
fn two_initiators_side_actions_route_to_originating_pair() {
    for keeper in [Keeper::Replication, Keeper::Encryption] {
        for transport in [TransportKind::Iscsi, TransportKind::Nvmeq] {
            for bytes in [16 * 1024, 64 * 1024] {
                two_initiators(keeper, transport, bytes);
            }
        }
    }
}

fn two_initiators(keeper: Keeper, transport: TransportKind, bytes: usize) {
    let case = format!("{keeper:?} over {transport:?}, {} KiB", bytes / 1024);
    let mut cloud = Cloud::build(CloudConfig {
        storage_hosts: 2,
        transport,
        ..CloudConfig::default()
    });
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let rep = cloud.create_volume(64 << 20, 1);
    let mbs = vec![match keeper {
        Keeper::Replication => MbSpec {
            host_idx: 3,
            mode: RelayMode::Active,
            services: vec![Box::new(ReplicationService::new(1, true))],
            replicas: vec![ReplicaTarget {
                portal: rep.portal,
                iqn: rep.iqn.clone(),
            }],
        },
        Keeper::Encryption => MbSpec::with_services(
            3,
            RelayMode::Active,
            vec![Box::new(EncryptionService::aes_xts(&[0x3A; 64]))],
        ),
    }];
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), mbs);

    // Two clients on different compute hosts, disjoint LBA ranges,
    // different data patterns.
    let app_a = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:tenant-a",
        &vol,
        Box::new(PatternRounds::new(17, 0, bytes, 24)),
        22,
        false,
    );
    let app_b = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        1,
        "vm:tenant-b",
        &vol,
        Box::new(PatternRounds::new(91, 32 * 1024, bytes, 24)),
        23,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(30_000_000_000));

    for (idx, app) in [(0, app_a), (1, app_b)] {
        let client = cloud.client_mut(idx, app);
        assert_eq!(client.stats.errors, 0, "{case}: client {idx} saw errors");
        assert_eq!(client.transport().kind(), transport);
        assert_eq!(
            client
                .workload_ref()
                .unwrap()
                .downcast_ref::<PatternRounds>()
                .unwrap()
                .verified,
            24,
            "{case}: client {idx} must verify all rounds"
        );
    }

    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    assert_eq!(relay.open_commands(), 0, "{case}: every command retired");
    let svc = relay.service(0).unwrap();
    match keeper {
        // The replies were genuinely served by side actions: reads
        // striped to the replica produce Reply actions, writes produce
        // replica Forwards.
        Keeper::Replication => {
            let svc = svc.downcast_ref::<ReplicationService>().unwrap();
            assert!(
                svc.stats.replica_writes > 0,
                "{case}: writes must mirror to replica"
            );
            assert!(
                svc.stats.striped_reads > 0,
                "{case}: reads must stripe to the replica (Reply side actions)"
            );
        }
        Keeper::Encryption => {
            let svc = svc.downcast_ref::<EncryptionService>().unwrap();
            let total = 2 * 24 * bytes as u64;
            assert_eq!(svc.counters(), (total, total), "{case}");
        }
    }
}
