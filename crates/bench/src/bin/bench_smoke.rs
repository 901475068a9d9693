//! Benchmark smoke run: one short scenario per figure family, results to
//! `BENCH_results.json`, a full trace of the active-relay scenario to
//! `BENCH_trace.jsonl`, and its latency attribution to stdout.
//!
//! This is the CI job's entry point — small enough to run in seconds but
//! exercising every data path (LEGACY, MB-FWD, MB-PASSIVE-RELAY,
//! MB-ACTIVE-RELAY) end to end.

use std::path::Path;
use std::sync::Arc;

use storm_bench::{
    cache_hit_point, dedup_ratio_point, fio_point, fio_point_traced, interference_point,
    passthrough_point, provisioning_churn_point, run_fleet, suite_passthrough_point,
    transport_point, BenchResults, FioPoint, FleetConfig, PassthroughPoint, PathMode, Testbed,
    TransportPoint,
};
use storm_iscsi::TransportKind;
use storm_sim::SimDuration;
use storm_telemetry::{analyze, names, MetricsRegistry, Recorder};

/// Peak resident set size (VmHWM) of this process, in MiB, from
/// `/proc/self/status`. Returns 0.0 where procfs is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// The shared tail of every fio-shaped scenario: print the standard line
/// and record the row. fig4/fig5 and the transport lab all funnel
/// through here instead of cloning the print/push pair per scenario.
fn record_fio(
    results: &mut BenchResults,
    name: &str,
    mode: PathMode,
    block: usize,
    threads: usize,
    queue_depth: usize,
    p: FioPoint,
) {
    println!(
        "{name}: {} ops, {:.0} iops, mean {:.2} ms, p50 {:.2} ms, p99 {:.2} ms",
        p.ops, p.iops, p.mean_latency_ms, p.p50_ms, p.p99_ms
    );
    results.push(name, mode, block, threads, queue_depth, p);
}

/// The shared tail of a zero-copy acceptance scenario: print, enforce
/// the invariant, record the row with its copy-accounting extras. The
/// passthrough and suite-idle variants differ only in name.
fn record_zerocopy(results: &mut BenchResults, name: &str, block: usize, pt: &PassthroughPoint) {
    println!(
        "{name}: {} ops, p50 {:.2} ms, p99 {:.2} ms, \
         {:.3} data bytes copied/pdu ({} pdus, {} verbatim)",
        pt.point.ops,
        pt.point.p50_ms,
        pt.point.p99_ms,
        pt.bytes_copied_per_pdu(),
        pt.pdus_forwarded,
        pt.copy.verbatim_forwards
    );
    assert_eq!(
        pt.copy.data_bytes_copied, 0,
        "{name}: chain must not copy data segments"
    );
    results.push_with_extras(
        name,
        PathMode::MbActiveRelay,
        block,
        1,
        1,
        pt.point,
        vec![
            (
                "bytes_copied_per_pdu".to_string(),
                pt.bytes_copied_per_pdu(),
            ),
            (
                "verbatim_forwards".to_string(),
                pt.copy.verbatim_forwards as f64,
            ),
        ],
    );
}

fn main() {
    let testbed = Testbed {
        duration: SimDuration::from_secs(1),
        volume_bytes: 1 << 30,
        ..Testbed::default()
    };
    let block = 64 * 1024;
    let mut results = BenchResults::new();

    // Fleet-scale executor benchmark. Runs FIRST so the VmHWM reading
    // just after it is the fleet run's peak, not a later scenario's.
    let fleet_cfg = FleetConfig {
        tenants: 1_000,
        requests_per_tenant: 1_000,
        ..FleetConfig::default()
    };
    let wall_start = std::time::Instant::now();
    let fr = run_fleet(&fleet_cfg);
    let wall = wall_start.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let events_per_sec = fr.events as f64 / wall.as_secs_f64();
    let rss_mb = peak_rss_mb();
    let sim_secs = fr.sim_end.as_nanos() as f64 / 1e9;
    let fleet_point = FioPoint {
        ops: fr.requests,
        iops: fr.requests as f64 / sim_secs,
        mean_latency_ms: fr.latency.mean().as_nanos() as f64 / 1e6,
        p50_ms: fr.latency.value_at_quantile(0.50).as_nanos() as f64 / 1e6,
        p99_ms: fr.latency.value_at_quantile(0.99).as_nanos() as f64 / 1e6,
    };
    println!(
        "fleet.1k_tenants.1m_requests: {} requests, {} events, sim {:.2} s, \
         wall {:.0} ms, {:.0} events/s, peak RSS {:.1} MiB, digest {:016x}",
        fr.requests,
        fr.events,
        sim_secs,
        wall_ms,
        events_per_sec,
        rss_mb,
        fr.digest()
    );
    assert_eq!(
        fr.requests, 1_000_000,
        "fleet run must finish every request"
    );
    results.push_with_extras(
        "fleet.1k_tenants.1m_requests",
        PathMode::Legacy,
        4096,
        fleet_cfg.shards,
        1,
        fleet_point,
        vec![
            ("wall_ms".to_string(), wall_ms),
            ("events_per_sec".to_string(), events_per_sec),
            ("peak_rss_mb".to_string(), rss_mb),
        ],
    );

    for (name, mode) in [
        ("fig4.legacy.64k", PathMode::Legacy),
        ("fig4.fwd.64k", PathMode::MbFwd),
        ("fig5.passive.64k", PathMode::MbPassiveRelay),
    ] {
        let p = fio_point(mode, block, 1, &testbed);
        record_fio(&mut results, name, mode, block, 1, 1, p);
    }

    // The active-relay scenario runs with the recorder armed: its trace is
    // the uploaded artifact and feeds the attribution table below.
    let rec = Arc::new(Recorder::new());
    let p = fio_point_traced(
        PathMode::MbActiveRelay,
        block,
        1,
        &testbed,
        Recorder::hook(&rec),
    );
    record_fio(
        &mut results,
        "fig5.active.64k",
        PathMode::MbActiveRelay,
        block,
        1,
        1,
        p,
    );

    // Zero-copy acceptance: an active relay with an empty chain must
    // forward every data segment verbatim — 0 data bytes copied per PDU.
    let pt = passthrough_point(block, 1, &testbed);
    let mut metrics = MetricsRegistry::new();
    metrics.inc(names::RELAY_BYTES_COPIED, pt.copy.data_bytes_copied);
    metrics.inc(
        names::RELAY_HEADER_BYTES_COPIED,
        pt.copy.header_bytes_copied,
    );
    metrics.inc(names::RELAY_VERBATIM_FORWARDS, pt.copy.verbatim_forwards);
    metrics.inc(names::RELAY_PDUS_FORWARDED, pt.pdus_forwarded);
    record_zerocopy(&mut results, "zerocopy.passthrough.64k", block, &pt);
    print!("{}", metrics.report());

    // Transport lab (offload-vs-relay): sweep the multi-queue protocol
    // over submission-queue depth through a bare active relay on a 10G
    // fabric. Deep pipelining must close the middle-box throughput gap —
    // QD=32 has to clear 4x the QD=1 figure — while the passthrough path
    // stays zero-copy with many commands in flight.
    let sweep: Vec<TransportPoint> = [1u16, 8, 32]
        .iter()
        .map(|&qd| transport_point(TransportKind::Nvmeq, qd, block, &testbed))
        .collect();
    for tp in &sweep {
        let name = format!("transport.qd_sweep.qd{}", tp.queue_depth);
        println!(
            "{name}: {} ops, {:.1} MB/s, p50 {:.2} ms, p99 {:.2} ms, sq peak {}, \
             {:.1} sqes/doorbell, {:.1} cqes/interrupt, {:.1} cmds/dispatch tick",
            tp.point.ops,
            tp.throughput_mbps(),
            tp.point.p50_ms,
            tp.point.p99_ms,
            tp.sq_peak,
            tp.doorbell_batch(),
            tp.cq_batch(),
            tp.dispatch_batch()
        );
        assert_eq!(
            tp.copy.data_bytes_copied, 0,
            "{name}: deep pipelining broke the zero-copy passthrough path"
        );
        results.push_with_extras(
            &name,
            PathMode::MbActiveRelay,
            block,
            tp.queue_depth as usize,
            tp.queue_depth as usize,
            tp.point,
            vec![
                (
                    "bytes_copied_per_pdu".to_string(),
                    tp.bytes_copied_per_pdu(),
                ),
                ("sq_peak".to_string(), tp.sq_peak as f64),
                ("doorbell_batch".to_string(), tp.doorbell_batch()),
                ("cq_batch_avg".to_string(), tp.cq_batch()),
            ],
        );
    }
    let (qd1, qd32) = (&sweep[0], &sweep[2]);
    assert!(
        qd32.throughput_mbps() >= 4.0 * qd1.throughput_mbps(),
        "deep queues must close the relay gap: qd32 {:.1} MB/s vs qd1 {:.1} MB/s",
        qd32.throughput_mbps(),
        qd1.throughput_mbps()
    );
    assert!(
        qd32.cq_batch() > 1.0,
        "interrupt moderation never coalesced completions: {:.2} cqes/frame",
        qd32.cq_batch()
    );

    // Head-to-head at the same depth: the serial protocol's best effort
    // with 32 outstanding commands is the row; the extras carry the
    // multi-queue side of the comparison.
    let is32 = transport_point(TransportKind::Iscsi, 32, block, &testbed);
    println!(
        "transport.nvmeq_vs_iscsi.64k: iscsi {:.1} MB/s vs nvmeq {:.1} MB/s \
         ({:.2}x) at qd 32",
        is32.throughput_mbps(),
        qd32.throughput_mbps(),
        qd32.throughput_mbps() / is32.throughput_mbps()
    );
    results.push_with_extras(
        "transport.nvmeq_vs_iscsi.64k",
        PathMode::MbActiveRelay,
        block,
        32,
        32,
        is32.point,
        vec![
            ("nvmeq_mbps".to_string(), qd32.throughput_mbps()),
            (
                "nvmeq_over_iscsi".to_string(),
                qd32.throughput_mbps() / is32.throughput_mbps(),
            ),
        ],
    );

    // Queue-occupancy and batching counters for the deep point go through
    // the shared telemetry namespace, like the relay copy counters above.
    let mut tmetrics = MetricsRegistry::new();
    tmetrics.set_gauge(names::TRANSPORT_SQ_PEAK, qd32.sq_peak as i64);
    tmetrics.inc(names::TRANSPORT_DOORBELL_FRAMES, qd32.doorbell.0);
    tmetrics.inc(names::TRANSPORT_DOORBELL_SQES, qd32.doorbell.1);
    tmetrics.inc(names::TRANSPORT_CQ_FRAMES, qd32.cq.0);
    tmetrics.inc(names::TRANSPORT_CQ_CQES, qd32.cq.1);
    tmetrics.set_gauge(
        names::TARGET_DISPATCH_BATCH_X100,
        (qd32.dispatch_batch() * 100.0) as i64,
    );
    print!("{}", tmetrics.report());

    // Data-reduction suite: hot-set reads against the write-back cache.
    let ch = cache_hit_point(&testbed);
    println!(
        "services.cache.hit: {} ops, p50 {:.2} ms, p99 {:.2} ms, hit rate {:.1}%, \
         {} writes absorbed, {} bytes flushed, {} sectors still dirty",
        ch.point.ops,
        ch.point.p50_ms,
        ch.point.p99_ms,
        ch.hit_rate * 100.0,
        ch.absorbed_writes,
        ch.flushed_bytes,
        ch.dirty_sectors
    );
    assert!(
        ch.hit_rate > 0.5,
        "hot-set workload must mostly hit the cache: {:.3}",
        ch.hit_rate
    );
    assert!(ch.flushed_bytes > 0, "cache flush never reached the volume");
    results.push_with_extras(
        "services.cache.hit",
        PathMode::MbActiveRelay,
        4096,
        1,
        1,
        ch.point,
        vec![
            ("hit_rate".to_string(), ch.hit_rate),
            ("absorbed_writes".to_string(), ch.absorbed_writes as f64),
        ],
    );

    // Data-reduction suite: duplicate-heavy writes against CDC dedup.
    let dr = dedup_ratio_point(&testbed);
    println!(
        "services.dedup.ratio: {} ops, p50 {:.2} ms, p99 {:.2} ms, \
         reduction {:.2}x ({} of {} chunks duplicate)",
        dr.point.ops, dr.point.p50_ms, dr.point.p99_ms, dr.ratio, dr.duplicate_chunks, dr.chunks
    );
    assert!(
        dr.ratio >= 1.5,
        "duplicate-heavy workload must reduce >= 1.5x: {:.3}",
        dr.ratio
    );
    results.push_with_extras(
        "services.dedup.ratio",
        PathMode::MbActiveRelay,
        65536,
        1,
        1,
        dr.point,
        vec![
            ("dedup_ratio".to_string(), dr.ratio),
            ("duplicate_chunks".to_string(), dr.duplicate_chunks as f64),
        ],
    );

    // The whole suite installed but idle must keep the verbatim fast
    // path: zero data bytes copied per forwarded PDU.
    let sp = suite_passthrough_point(block, 1, &testbed);
    record_zerocopy(&mut results, "zerocopy.suite_idle.64k", block, &sp);

    // Suite counters go through the per-tenant namespace so reports stay
    // greppable by tenant (the workloads above all ran as tenant 0).
    let mut svc_metrics = MetricsRegistry::new();
    svc_metrics.set_gauge(
        &names::tenant_scoped(names::SVC_CACHE_HIT_BP, 0),
        (ch.hit_rate * 10_000.0) as i64,
    );
    svc_metrics.inc(
        &names::tenant_scoped(names::SVC_CACHE_ABSORBED_WRITES, 0),
        ch.absorbed_writes,
    );
    svc_metrics.inc(
        &names::tenant_scoped(names::SVC_CACHE_FLUSHED_BYTES, 0),
        ch.flushed_bytes,
    );
    svc_metrics.set_gauge(
        &names::tenant_scoped(names::SVC_DEDUP_RATIO_BP, 0),
        (dr.ratio * 10_000.0) as i64,
    );
    svc_metrics.inc(
        &names::tenant_scoped(names::SVC_DEDUP_DUP_CHUNKS, 0),
        dr.duplicate_chunks,
    );
    print!("{}", svc_metrics.report());

    // Per-tenant QoS: a rate-limited, de-weighted aggressor must not push
    // the victim's p99 more than 20% past its solo baseline.
    let qi = interference_point(&testbed);
    println!(
        "qos.interference.2tenant: victim p99 solo {:.2} ms, contended {:.2} ms, \
         with QoS {:.2} ms ({:.2}x solo); aggressor {:.0} iops shaped, {} ops throttled",
        qi.solo.p99_ms,
        qi.contended.p99_ms,
        qi.shaped.p99_ms,
        qi.qos_over_solo(),
        qi.shaped_aggressor.iops,
        qi.throttled_ops
    );
    assert!(
        qi.shaped.p99_ms <= qi.solo.p99_ms * 1.2,
        "QoS failed to protect the victim: shaped p99 {:.3} ms vs solo {:.3} ms",
        qi.shaped.p99_ms,
        qi.solo.p99_ms
    );
    assert!(qi.throttled_ops > 0, "the aggressor was never throttled");
    results.push_with_extras(
        "qos.interference.2tenant",
        PathMode::Legacy,
        block,
        1,
        1,
        qi.shaped,
        vec![
            ("solo_p99_ms".to_string(), qi.solo.p99_ms),
            ("contended_p99_ms".to_string(), qi.contended.p99_ms),
            ("qos_over_solo".to_string(), qi.qos_over_solo()),
            ("throttled_ops".to_string(), qi.throttled_ops as f64),
        ],
    );

    // SLO-driven provisioning: the control loop must live-migrate the
    // violating volume to the fast tier mid-run.
    let qc = provisioning_churn_point(&testbed);
    println!(
        "qos.provisioning.churn: {} ops, p50 {:.2} ms, p99 {:.2} ms, \
         {} migration(s) started, {} cut over, final tier {}, \
         SLO attainment {:.1}%, overload rejected: {}",
        qc.point.ops,
        qc.point.p50_ms,
        qc.point.p99_ms,
        qc.migrations_started,
        qc.migrations_completed,
        qc.final_tier.label(),
        qc.slo_attainment * 100.0,
        qc.overload_rejected
    );
    assert!(
        qc.migrations_completed >= 1,
        "no tier migration cut over mid-run"
    );
    assert!(qc.overload_rejected, "overload request was not rejected");
    assert!(qc.slo_attainment > 0.0, "SLO attainment metric missing");
    results.push_with_extras(
        "qos.provisioning.churn",
        PathMode::Legacy,
        4096,
        1,
        1,
        qc.point,
        vec![
            ("migrations".to_string(), qc.migrations_completed as f64),
            ("slo_attainment".to_string(), qc.slo_attainment),
        ],
    );

    // Static-analysis budget: a cold interprocedural scan of the whole
    // workspace (parse + call-graph fixpoint) must stay inside the
    // committed `scan_ms` ceiling so the linter never becomes the slow
    // step of CI. Runs from the repo root, like the JSON output paths
    // below.
    let lint_start = std::time::Instant::now();
    let (lint_findings, files_scanned) =
        storm_lint::analyze_workspace(Path::new("."), &storm_lint::Config::default())
            .expect("storm-lint workspace scan");
    let scan_ms = lint_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "lint.workspace: {} files scanned, {} finding(s), {:.0} ms",
        files_scanned,
        lint_findings.len(),
        scan_ms
    );
    results.push_with_extras(
        "lint.workspace",
        PathMode::Legacy,
        0,
        1,
        1,
        FioPoint {
            ops: files_scanned as u64,
            iops: 0.0,
            mean_latency_ms: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
        },
        vec![
            ("scan_ms".to_string(), scan_ms),
            ("files_scanned".to_string(), files_scanned as f64),
            ("findings".to_string(), lint_findings.len() as f64),
        ],
    );

    results
        .write(Path::new("BENCH_results.json"))
        .expect("write BENCH_results.json");
    std::fs::write("BENCH_trace.jsonl", rec.to_jsonl()).expect("write BENCH_trace.jsonl");

    let report = analyze::attribute(&rec.events());
    println!();
    println!("active-relay latency attribution ({} events):", rec.len());
    print!("{}", report.table());
    assert!(report.requests > 0, "traced run completed no requests");
    let share_sum: f64 = report.rows.iter().map(|r| r.share).sum();
    assert!(
        (share_sum - 100.0).abs() < 0.5,
        "attribution shares sum to {share_sum}%"
    );
    println!("wrote BENCH_results.json and BENCH_trace.jsonl");
}
