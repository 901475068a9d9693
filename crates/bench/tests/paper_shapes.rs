//! The shape claims of the paper's evaluation (§V), asserted.
//!
//! Each test runs its figure at the smallest scale that still shows the
//! shape and prints the points it asserts on, so
//!
//! ```text
//! cargo test --release -p storm-bench --test paper_shapes -- --nocapture
//! ```
//!
//! regenerates EXPERIMENTS.md's tables. The simulator is deterministic:
//! the thresholds leave margin for model recalibration, not for noise.

use storm_bench::{build_cloud, fio_point, PathMode, Testbed};
use storm_block::{MemDisk, RecordingDevice};
use storm_cloud::{Cloud, CloudConfig, VolumeHandle, Workload};
use storm_core::relay::{ActiveRelayMb, ReplicaTarget};
use storm_core::{
    ChainDeployment, FsOp, FsTargetKind, MbSpec, Reconstructor, RelayMode, StormPlatform,
};
use storm_extfs::ExtFs;
use storm_net::AppId;
use storm_services::{EncryptionService, MonitorConfig, MonitorService, ReplicationService};
use storm_sim::{SimDuration, SimTime};
use storm_workloads::postmark::{self, PostmarkConfig};
use storm_workloads::{
    FtpDirection, FtpWorkload, OltpConfig, OltpWorkload, OpClass, OpGroup, TraceWorkload,
};

/// `(IOPS, mean latency)` of `mode` relative to `base` at one fio point:
/// `kb` KiB requests, `threads` outstanding, a 200 ms window.
fn relative(mode: PathMode, base: PathMode, kb: usize, threads: usize) -> (f64, f64) {
    let testbed = Testbed {
        duration: SimDuration::from_millis(200),
        ..Testbed::default()
    };
    let p = fio_point(mode, kb * 1024, threads, &testbed);
    let b = fio_point(base, kb * 1024, threads, &testbed);
    (p.iops / b.iops, p.mean_latency_ms / b.mean_latency_ms)
}

/// Figures 4 and 7: steering through a forwarding middle-box costs IOPS
/// and latency, and the cost grows with request size (per-packet costs
/// add up over more packets).
#[test]
fn redirection_cost_grows_with_io_size() {
    println!("Fig 4/7 (1 thread, 200 ms): size | MB-FWD/LEGACY iops | latency");
    let ratios = [4, 64, 256].map(|kb| {
        let (iops, lat) = relative(PathMode::MbFwd, PathMode::Legacy, kb, 1);
        println!("{kb:>4}K | {iops:.2} | {lat:.2}");
        (iops, lat)
    });
    for (iops, lat) in ratios {
        assert!(iops < 0.9 && lat > 1.1, "redirection must cost: {ratios:?}");
    }
    for w in ratios.windows(2) {
        assert!(w[1].0 < w[0].0 - 0.02, "IOPS cost must grow: {ratios:?}");
        assert!(w[1].1 > w[0].1 + 0.02, "latency cost must grow: {ratios:?}");
    }
}

/// Figures 5 and 8: at one thread the active relay, though it runs the
/// stream cipher, overtakes pure forwarding as requests grow — split TCP
/// acks locally and TSO batching cuts vif copies.
#[test]
fn active_relay_overtakes_mb_fwd_at_large_io() {
    println!("Fig 5/8 (1 thread, 200 ms): size | ACTIVE/MB-FWD iops | latency");
    let [small, mid, large] = [4, 64, 256].map(|kb| {
        let (iops, lat) = relative(PathMode::MbActiveRelay, PathMode::MbFwd, kb, 1);
        println!("{kb:>4}K | {iops:.2} | {lat:.2}");
        (iops, lat)
    });
    assert!(small.0 < 0.95, "no crossover below 64 KiB: {small:?}");
    assert!(mid.0 >= 1.0, "crossover by 64 KiB: {mid:?}");
    assert!(
        large.0 > 1.15 && large.1 < 0.9,
        "clear win at 256 KiB: {large:?}"
    );
}

/// Figures 6 and 9: under parallel load the active relay's advantage
/// over forwarding grows with the thread count, and so does its latency
/// edge: forwarding stalls on the congested vif ack path while the split
/// connections ack locally.
#[test]
fn active_relay_advantage_grows_with_threads() {
    println!("Fig 6/9 (16 KiB, 200 ms): threads | ACTIVE/MB-FWD iops | latency");
    let [few, many] = [4, 32].map(|threads| {
        let (iops, lat) = relative(PathMode::MbActiveRelay, PathMode::MbFwd, 16, threads);
        println!("{threads:>3} | {iops:.2} | {lat:.2}");
        (iops, lat)
    });
    let rows = [few, many];
    assert!(
        many.0 > 1.3 && many.0 > few.0 + 0.25,
        "advantage must grow: {rows:?}"
    );
    assert!(
        many.1 < 0.8 && many.1 < few.1 - 0.15,
        "latency edge must deepen: {rows:?}"
    );
}

/// Attaches `workload` to `vol` as compute0's `vm:tenant`: straight to
/// the target, or steered through the middle-box `mb`.
fn attach(
    cloud: &mut Cloud,
    vol: &VolumeHandle,
    mb: Option<MbSpec>,
    workload: Box<dyn Workload>,
) -> (AppId, Option<ChainDeployment>) {
    let seed = Testbed::default().seed;
    let Some(spec) = mb else {
        let app = cloud.attach_volume(0, "vm:tenant", vol, workload, seed, false);
        return (app, None);
    };
    let platform = StormPlatform::default();
    let deployment = platform.deploy_chain(cloud, vol, (1, 2), vec![spec]);
    let app = platform.attach_volume_steered(
        cloud,
        &deployment,
        0,
        "vm:tenant",
        vol,
        workload,
        seed,
        false,
    );
    (app, Some(deployment))
}

/// An active-relay middle-box on compute3 running AES-256-XTS at
/// `per_byte`.
fn xts_mb(key: u8, per_byte: SimDuration) -> MbSpec {
    let mut enc = EncryptionService::aes_xts(&[key; 64]);
    enc.set_per_byte_cost(per_byte);
    MbSpec::with_services(3, RelayMode::Active, vec![Box::new(enc)])
}

/// One solution's Figure 10 bar: FTP throughput and CPU shares.
#[derive(Debug)]
struct CpuSplit {
    mbps: f64,
    vm_pct: f64,
    mb_pct: f64,
    target_pct: f64,
}

impl CpuSplit {
    fn total(&self) -> f64 {
        self.vm_pct + self.mb_pct + self.target_pct
    }
}

/// Figure 10's FTP upload with encryption in the tenant VM (dm-crypt
/// style, 7 ns/B with its lock contention) or in the middle-box (4 ns/B).
fn ftp_upload(middlebox: bool) -> CpuSplit {
    const TRANSFER: u64 = 16 << 20;
    // Utilization is reported against 2 vCPUs, like the paper's VMs.
    let pct = |busy: SimDuration, elapsed: SimDuration| {
        100.0 * busy.as_secs_f64() / (elapsed.as_secs_f64() * 2.0)
    };
    let mut cloud = build_cloud(Testbed::default().seed);
    let vol = cloud.create_volume(Testbed::default().volume_bytes, 0);
    let ftp = FtpWorkload::new(FtpDirection::Upload, TRANSFER);
    let (app, deployment) = if middlebox {
        let mb = xts_mb(0x2F, SimDuration::from_nanos(4));
        attach(&mut cloud, &vol, Some(mb), Box::new(ftp))
    } else {
        let ftp = ftp.with_vm_cipher(SimDuration::from_nanos(7));
        attach(&mut cloud, &vol, None, Box::new(ftp))
    };
    cloud.net.run_until(SimTime::from_nanos(60_000_000_000));
    let w = cloud.client_mut(0, app).workload_ref().unwrap();
    let w = w.downcast_ref::<FtpWorkload>().unwrap();
    let elapsed = w.elapsed().expect("transfer finished");
    let mbps = w.throughput_mbps().unwrap();
    let cpu = |host, label| cloud.net.host(host).cpu.busy_for(label);
    let mb_busy = deployment.map_or(SimDuration::ZERO, |d| {
        let node = d.mb_nodes[0].node;
        cpu(node, "mb") + cpu(node, "fwd")
    });
    CpuSplit {
        mbps,
        vm_pct: pct(cpu(cloud.computes[0].host, "vm:tenant"), elapsed),
        mb_pct: pct(mb_busy, elapsed),
        target_pct: pct(cpu(cloud.storages[0].host, "target"), elapsed),
    }
}

/// Figure 10: moving encryption into the middle-box roughly halves the
/// tenant VM's CPU and cuts total CPU, with both near line rate.
#[test]
fn middlebox_encryption_halves_guest_cpu() {
    let tenant = ftp_upload(false);
    let mb = ftp_upload(true);
    println!("Fig 10 (16 MiB FTP upload): solution | MB/s | VM % | MB-VM % | target % | total %");
    for (name, s) in [("tenant VM", &tenant), ("middle-box", &mb)] {
        println!(
            "{name} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1}",
            s.mbps,
            s.vm_pct,
            s.mb_pct,
            s.target_pct,
            s.total()
        );
    }
    assert!(mb.vm_pct < 0.6 * tenant.vm_pct, "{tenant:?} vs {mb:?}");
    assert!(tenant.total() - mb.total() > 10.0, "{tenant:?} vs {mb:?}");
    assert!(tenant.mbps > 90.0 && mb.mbps > 90.0, "{tenant:?} vs {mb:?}");
}

/// Figure 11's PostMark run, one component rate per op class plus read
/// and write MB/s.
fn postmark(middlebox: bool) -> [f64; 6] {
    let cfg = PostmarkConfig {
        initial_files: 50,
        transactions: 200,
        ..PostmarkConfig::default()
    };
    let (mut image, groups) = postmark::prepare(&cfg);
    let mut cloud = build_cloud(Testbed::default().seed);
    let vol = cloud.create_volume(cfg.volume_bytes, 0);
    postmark::install_image(&mut image, &mut vol.shared.clone());
    let trace = TraceWorkload::new(groups);
    let (app, _) = if middlebox {
        let mb = xts_mb(0x31, SimDuration::from_nanos(6));
        attach(&mut cloud, &vol, Some(mb), Box::new(trace))
    } else {
        // dm-crypt: 19 ns/B plus a fixed per-bio stall that dominates
        // small-file workloads.
        let per_bio = SimDuration::from_micros(350);
        let trace = trace.with_vm_cipher(SimDuration::from_nanos(19), per_bio);
        attach(&mut cloud, &vol, None, Box::new(trace))
    };
    cloud.net.run_until(SimTime::from_nanos(120_000_000_000));
    let client = cloud.client_mut(0, app);
    assert_eq!(client.stats.errors, 0);
    let w = client.workload_ref().unwrap();
    let w = w.downcast_ref::<TraceWorkload>().unwrap();
    let secs = w.elapsed().expect("postmark finished").as_secs_f64();
    let classes = [
        OpClass::Read,
        OpClass::Append,
        OpClass::Create,
        OpClass::Delete,
    ];
    let [read, append, create, delete] =
        classes.map(|c| w.class_stats(c).ops.count() as f64 / secs);
    let mbps = |bytes: u64| bytes as f64 / 1e6 / secs;
    let read_bytes = classes.iter().map(|&c| w.class_stats(c).bytes_read).sum();
    let write_bytes = classes
        .iter()
        .map(|&c| w.class_stats(c).bytes_written)
        .sum();
    [
        read,
        append,
        create,
        delete,
        mbps(read_bytes),
        mbps(write_bytes),
    ]
}

/// Figure 11: the middle-box beats in-guest dm-crypt on every PostMark
/// component, because outsourcing the cipher shortens the application
/// thread's blocking time.
#[test]
fn middlebox_beats_in_guest_crypto_on_postmark() {
    let tenant = postmark(false);
    let mb = postmark(true);
    println!("Fig 11 (PostMark, 50 files, 200 txns): component | tenant-side | middle-box | norm");
    let names = [
        "read ops/s",
        "append ops/s",
        "create ops/s",
        "delete ops/s",
        "read MB/s",
        "write MB/s",
    ];
    for ((name, t), m) in names.iter().zip(tenant).zip(mb) {
        println!("{name} | {t:.2} | {m:.2} | {:.2}", m / t);
        assert!(
            m / t > 1.2,
            "{name}: middle-box {m:.2} vs tenant-side {t:.2}"
        );
    }
}

/// Mean OLTP transactions per second over a `secs`-long run against a
/// volume with `replicas` copies (1: attached directly; 3: behind a
/// replication middle-box striping reads over all three).
fn oltp_tps(replicas: usize, secs: u64) -> f64 {
    let mut cfg = CloudConfig {
        storage_hosts: 3,
        backing_bytes: 32 << 30,
        seed: Testbed::default().seed,
        ..CloudConfig::default()
    };
    // Database pages do not fit the page cache (128 MiB here).
    cfg.target.disk.cache_blocks = 32_768;
    let mut cloud = Cloud::build(cfg);
    let vol = cloud.create_volume(4 << 30, 0);
    // A 2 GiB hot set: reads hit the spindles, the regime where striped
    // reads across replicas aggregate throughput.
    let oltp = OltpWorkload::new(OltpConfig {
        threads: 6,
        reads_per_txn: 3,
        area_sectors: 4 << 20,
        duration: SimDuration::from_secs(secs),
    });
    let mb = (replicas > 1).then(|| MbSpec {
        host_idx: 3,
        mode: RelayMode::Active,
        services: vec![Box::new(ReplicationService::new(replicas - 1, true))],
        replicas: (1..replicas)
            .map(|host| {
                let rep = cloud.create_volume(4 << 30, host);
                ReplicaTarget {
                    portal: rep.portal,
                    iqn: rep.iqn.clone(),
                }
            })
            .collect(),
    });
    let (app, _) = attach(&mut cloud, &vol, mb, Box::new(oltp));
    cloud
        .net
        .run_until(SimTime::from_nanos((secs + 1) * 1_000_000_000));
    let client = cloud.client_mut(0, app);
    assert_eq!(client.stats.errors, 0);
    let w = client.workload_ref().unwrap();
    w.downcast_ref::<OltpWorkload>()
        .unwrap()
        .mean_tps(1, secs as usize)
}

/// Figure 13: reads striped over three replicas beat the single store
/// (the paper reports ~1.8x). Failover transparency is asserted by
/// `services_e2e::replication_mirrors_and_survives_replica_failure` and
/// `failover_recovery`.
#[test]
fn replicated_reads_beat_single_replica() {
    let secs = 2;
    let three = oltp_tps(3, secs);
    let one = oltp_tps(1, secs);
    println!("Fig 13 ({secs} s OLTP, 6 threads): TPS 3 replicas | 1 replica | speedup");
    println!("{three:.0} | {one:.0} | {:.2}", three / one);
    assert!(
        three / one > 1.6,
        "3 replicas {three:.0} vs 1 replica {one:.0} TPS"
    );
}

/// Tables I and II: file operations in the tenant VM on the paper's
/// synthetic volume (`/mnt/box/name0..9` holding `1.img..10.img`) are
/// reconstructed by the monitor middle-box from block traffic alone, and
/// an access under the watched directory raises an alert.
#[test]
fn monitor_reconstructs_table1_rows_over_the_wire() {
    let dev = RecordingDevice::new(MemDisk::with_capacity_bytes(64 << 20));
    let mut fs = ExtFs::mkfs(dev).expect("mkfs");
    for d in 0..10 {
        fs.mkdir(&format!("/name{d}")).unwrap();
        for i in 1..=10 {
            let p = format!("/name{d}/{i}.img");
            fs.create(&p).unwrap();
            fs.write_file(&p, 0, &vec![(d * 10 + i) as u8; 4096])
                .unwrap();
        }
    }
    fs.sync().unwrap();
    fs.device_mut().take_log();
    // Table II: the tenant's file operations.
    fs.write_file("/name1/1.img", 0, &vec![0xEE; 32768])
        .unwrap();
    fs.sync().unwrap();
    let write = fs.device_mut().take_log();
    let _ = fs.read_file_to_end("/name9/7.img").unwrap();
    let read = fs.device_mut().take_log();
    let groups = vec![
        OpGroup {
            class: OpClass::Append,
            label: "write name1/1.img".into(),
            accesses: write,
        },
        OpGroup {
            class: OpClass::Read,
            label: "read name9/7.img".into(),
            accesses: read,
        },
    ];
    let mut image = fs.into_device().expect("unmount").into_inner();

    let mut cloud = build_cloud(Testbed::default().seed);
    let vol = cloud.create_volume(64 << 20, 0);
    postmark::install_image(&mut image, &mut vol.shared.clone());
    let recon = Reconstructor::from_device(&mut vol.shared.clone(), "/mnt/box").unwrap();
    let cfg = MonitorConfig {
        watch: vec!["/mnt/box/name9".into()],
        per_byte_cost: SimDuration::ZERO,
    };
    let monitor = MonitorService::new(cfg, recon);
    let mb = MbSpec::with_services(3, RelayMode::Active, vec![Box::new(monitor)]);
    let trace = Box::new(TraceWorkload::new(groups));
    let (app, deployment) = attach(&mut cloud, &vol, Some(mb), trace);
    let deployment = deployment.unwrap();
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    assert_eq!(cloud.client_mut(0, app).stats.errors, 0);

    let relay = cloud
        .net
        .app_mut(deployment.mb_nodes[0].node, deployment.mb_apps[0].unwrap())
        .unwrap()
        .downcast_mut::<ActiveRelayMb>()
        .unwrap();
    let alerts: Vec<String> = relay.alerts().iter().map(|(_, m)| m.clone()).collect();
    let monitor = relay
        .service(0)
        .unwrap()
        .downcast_ref::<MonitorService>()
        .unwrap();
    let rows = monitor.analysis();
    println!("Table I (reconstructed access log): ID | op | file | size");
    for e in &rows {
        println!(
            "{:>3} | {} | {} | {}",
            e.id, e.row.op, e.row.target, e.row.bytes
        );
    }
    for a in &alerts {
        println!("alert: {a}");
    }
    let saw = |op: FsOp, path: &str| {
        rows.iter().any(|e| {
            e.row.op == op && matches!(&e.row.target, FsTargetKind::File { path: p } if p == path)
        })
    };
    assert!(
        saw(FsOp::Write, "/mnt/box/name1/1.img"),
        "data write attributed"
    );
    assert!(
        saw(FsOp::Read, "/mnt/box/name9/7.img"),
        "data read attributed"
    );
    let lookup = rows
        .iter()
        .any(|e| matches!(&e.row.target, FsTargetKind::Dir { path } if path == "/mnt/box/name9"));
    assert!(lookup, "directory lookup row for name9");
    assert!(
        rows.iter()
            .any(|e| matches!(e.row.target, FsTargetKind::Meta { .. })),
        "metadata rows"
    );
    assert!(!alerts.is_empty(), "watched /mnt/box/name9 must alert");
    assert!(
        alerts.iter().all(|a| a.contains("/mnt/box/name9")),
        "{alerts:?}"
    );
}
