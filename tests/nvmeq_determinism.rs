//! Equal seeds ⇒ byte-identical traces on the multi-queue transport.
//!
//! Mirrors `trace_determinism.rs` with the nvmeq transport armed: the
//! client batches SQEs behind doorbells, the target coalesces CQEs under
//! the interrupt-moderation timer, and the active relay bridges frame
//! units through an encrypting chain, or through a write-back cache whose
//! journal-commit acks leave from side contexts as completion frames —
//! none of which may draw on ambient state, so two runs of one seed still
//! export the same bytes.

use std::sync::Arc;

use proptest::prelude::*;
use storm::cloud::{Cloud, CloudConfig};
use storm::core::relay::{ActiveRelayMb, ReplicaTarget};
use storm::core::{MbSpec, RelayMode, StormPlatform};
use storm::iscsi::TransportKind;
use storm::services::{CacheConfig, EncryptionService, WriteBackCacheService};
use storm::telemetry::{parse_jsonl, Recorder};
use storm_sim::{SimDuration, SimTime};
use storm_workloads::{FioJob, FioWorkload};

/// The middle-box chain a traced run deploys.
#[derive(Debug, Clone, Copy)]
enum Chain {
    /// A stream cipher rewriting every data segment in the chain.
    Encrypt,
    /// An armed write-back cache: writes are acked from side contexts
    /// once their journal commit lands, full hits are served locally.
    Cache,
}

/// Runs a short active-relay fio scenario through `chain` over nvmeq
/// with the recorder armed and returns the JSONL trace export.
fn traced_run(seed: u64, chain: Chain) -> String {
    let mut cloud = Cloud::build(CloudConfig {
        seed,
        transport: TransportKind::Nvmeq,
        queue_depth: 16,
        storage_hosts: match chain {
            Chain::Encrypt => 1,
            Chain::Cache => 2,
        },
        ..CloudConfig::default()
    });
    let recorder = Arc::new(Recorder::new());
    cloud.set_trace_hook(Recorder::hook(&recorder));
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(1 << 30, 0);
    let mb = match chain {
        Chain::Encrypt => MbSpec::with_services(
            3,
            RelayMode::Active,
            vec![Box::new(EncryptionService::stream_cipher(
                &[7u8; 32], &[3u8; 12],
            ))],
        ),
        Chain::Cache => {
            let journal = cloud.create_volume(64 << 20, 1);
            MbSpec {
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
            }
        }
    };
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), vec![mb]);
    // The cache run works a 1 MiB area so reads revisit cached blocks.
    let area = match chain {
        Chain::Encrypt => vol.sectors,
        Chain::Cache => 2048,
    };
    let job = FioJob::randrw(4096, SimDuration::from_millis(300), area).threads(2);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:nvq-det",
        &vol,
        Box::new(FioWorkload::new(job)),
        seed ^ 0x5EED,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(1_200_000_000));
    let client = cloud.client_mut(0, app);
    assert!(client.is_ready(), "connect failed");
    assert_eq!(client.transport().kind(), TransportKind::Nvmeq);
    assert_eq!(
        client.stats.errors, 0,
        "I/O errors through the {chain:?} chain"
    );
    assert!(client.stats.ops() > 0, "no I/O completed");
    if let Chain::Cache = chain {
        let stats = cloud
            .net
            .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
            .unwrap()
            .downcast_mut::<ActiveRelayMb>()
            .unwrap()
            .service(0)
            .unwrap()
            .downcast_ref::<WriteBackCacheService>()
            .unwrap()
            .stats;
        assert!(stats.writes_absorbed > 0, "{stats:?}");
        assert!(stats.read_hits > 0, "{stats:?}");
    }
    recorder.to_jsonl()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Two runs with the same seed export identical bytes, with the
    /// doorbell batching and CQ moderation machinery fully engaged.
    #[test]
    fn equal_seeds_equal_traces_over_nvmeq(seed in 1u64..1_000_000) {
        for chain in [Chain::Encrypt, Chain::Cache] {
            let a = traced_run(seed, chain);
            let b = traced_run(seed, chain);
            prop_assert!(!a.is_empty());
            prop_assert_eq!(&a, &b);
            prop_assert!(parse_jsonl(&a).is_some(), "export must parse back");
        }
    }
}

/// The seed is load-bearing: different seeds almost surely diverge.
#[test]
fn different_seeds_diverge() {
    let a = traced_run(31, Chain::Encrypt);
    let b = traced_run(32, Chain::Encrypt);
    assert_ne!(a, b);
}
