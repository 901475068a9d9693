//! Two-clock benchmark of the StorM reproduction.
//!
//! The simulator runs on two clocks. *Sim time* is what the model predicts
//! (the paper's figures) and is deterministic for a seed; *host time* is
//! how long the reproduction takes to compute it. One process runs one
//! workload on one OS thread: it builds the cloud through `storm_bench` and
//! `storm_core::StormPlatform`, feeds it inputs generated from the seed,
//! runs fixed sim-time windows, verifies every byte it can, and reports
//! every metric by name, unit and clock.
//!
//! An untraced run ([`run`] with `trace == false`) measures the end-to-end
//! metrics. A traced run wraps each service and the workload in timing
//! decorators, steps the event loop, arms a trace recorder and calls the
//! layer kernels directly, and reports the per-layer metrics. README.md
//! lists every metric with its unit, direction and clock, and which
//! end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]

pub mod clock;
pub mod digest;
pub mod inputs;
pub mod kernels;
pub mod scenario;
pub mod service;
pub mod workload;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use storm_sim::SimDuration;

use clock::Timed;
use workload::HostSpan;

pub use scenario::{Rep, WorkloadId};

/// Measured windows per untraced run, at the least.
const MIN_REPS: usize = 3;

/// Set-ups timed per untraced run. They run first, so that every process
/// times them from the same fresh heap whatever its seed's windows leave
/// behind.
const SETUP_SAMPLES: usize = 51;

/// What one benchmark process runs.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The workload.
    pub workload: WorkloadId,
    /// Seed of every input.
    pub seed: u64,
    /// Host time to keep repeating windows for.
    pub seconds: f64,
    /// Sim-time window of each repetition.
    pub window: SimDuration,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
}

/// A reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"host"` or `"sim"`: the clock (or run) the figure comes from.
    pub clock: &'static str,
    /// The value.
    pub value: f64,
    /// Whether the JSON result carries it. Sim-clock outputs are checked
    /// exactly through the digest instead, and a service's host time in
    /// ms reads 0 on every run of a workload without that service, so
    /// those appear in the tables only.
    pub json: bool,
}

/// Result of one benchmark process.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// What failed, naming the workload.
    pub problems: Vec<String>,
    /// Guest I/Os issued across every repetition.
    pub attempted: u64,
    /// I/O errors plus read-back mismatches across every repetition.
    pub failed: u64,
    /// The metrics of the run's kind.
    pub metrics: Vec<Metric>,
    /// Human-readable tables.
    pub report: String,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().filter(|m| m.json).enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn metric(name: impl Into<String>, unit: &'static str, clock: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        clock,
        value,
        json: true,
    }
}

fn table_metric(
    name: impl Into<String>,
    unit: &'static str,
    clock: &'static str,
    value: f64,
) -> Metric {
    Metric {
        json: false,
        ..metric(name, unit, clock, value)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Host µs per guest I/O at the reference speed: the median over every
/// window slice, so that bursts of contention on the shared host sit in
/// the tail instead of moving the figure.
fn host_us_per_io(reps: &[Rep]) -> f64 {
    median(
        reps.iter()
            .flat_map(|r| &r.slices)
            .filter(|(_, ops)| *ops > 0)
            .map(|(t, ops)| t.scaled_secs() * 1e6 / *ops as f64)
            .collect(),
    )
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Checks every repetition and the sim-equivalence oracle. All reps of a
/// run share seed and window, so their sim outputs must be identical,
/// traced or not.
fn check(s: &Settings, reps: &[&Rep], problems: &mut Vec<String>) {
    let name = s.workload.name();
    for rep in reps {
        if !rep.drained {
            problems.push(format!("{name}: drain and read-back did not finish"));
        }
        if rep.guest.ops() == 0 {
            problems.push(format!("{name}: no I/O completed in the window"));
        }
        if rep.failed() > 0 {
            problems.push(format!(
                "{name}: {} I/O errors, {} read-back mismatches",
                rep.guest.errors, rep.guest.mismatches
            ));
        }
        if s.workload == WorkloadId::NvmeqRead4kQd32 && rep.relay.data_copied != 0 {
            problems.push(format!(
                "{name}: relay copied {} data bytes on the passthrough path",
                rep.relay.data_copied
            ));
        }
    }
    let digests: Vec<u64> = reps.iter().map(|r| digest::digest(r)).collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!(
            "{name}: equal-seed repetitions gave different sim outputs: {digests:016x?}"
        ));
    }
    if s.seed == digest::DEFAULT_SEED && s.window == s.workload.window() {
        if let Some(&d) = digests.first() {
            if let Err(e) = digest::check(s.workload, d) {
                problems.push(e);
            }
        }
    }
}

fn end_to_end(
    s: &Settings,
    reps: &[Rep],
    setups: &[Timed],
    peak_rss_mb: f64,
    report: &mut String,
) -> Vec<Metric> {
    let first = &reps[0];
    let mut lat = first.guest.latencies_ns.clone();
    lat.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let metrics = vec![
        metric(
            "setup_s",
            "s",
            "host",
            median(setups.iter().map(|t| t.scaled_secs()).collect()),
        ),
        metric("host_us_per_io", "us", "host", host_us_per_io(reps)),
        metric("peak_rss_mb", "MiB", "host", peak_rss_mb),
        table_metric(
            "sim_mbps",
            "MB/s",
            "sim",
            first.guest.bytes as f64 / 1e6 / s.window.as_secs_f64(),
        ),
        table_metric("sim_p50_ms", "ms", "sim", ms(percentile(&lat, 50.0))),
        table_metric("sim_p99_ms", "ms", "sim", ms(percentile(&lat, 99.0))),
    ];
    let _ = writeln!(
        report,
        "{}: {} windows of {} sim, {} set-ups; latency from {} samples ({} beyond p99)",
        s.workload.name(),
        reps.len(),
        s.window,
        setups.len(),
        lat.len(),
        lat.len() / 100
    );
    metrics
}

fn layers(r: &Rep) -> &scenario::Layers {
    r.layers.as_ref().expect("traced repetition")
}

fn per_layer(
    s: &Settings,
    untraced: &[Rep],
    traced: &[Rep],
    kernels: kernels::Kernels,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    // Folds from +0.0: an empty `f64` sum is -0.0.
    let sum = |f: &dyn Fn(&Rep) -> f64| traced.iter().map(f).fold(0.0, |a, b| a + b);
    let window_ns = sum(&|r| r.window_host.as_nanos() as f64);
    let ops = sum(&|r| r.guest.ops() as f64);
    let events = sum(&|r| r.events as f64);
    let service_ns = sum(&|r| {
        layers(r)
            .services
            .iter()
            .fold(0.0, |a, l| a + l.span.ns as f64)
    });
    let workload_ns = sum(&|r| layers(r).workload.ns as f64);
    let engine_ns = window_ns - service_ns - workload_ns;
    let n = traced.len() as f64;

    let mut m = Vec::new();
    for svc in ["encryption", "dedup", "compress"] {
        let span = |r: &Rep, f: fn(&HostSpan) -> u64| {
            let of_svc = layers(r).services.iter().filter(|l| l.name == svc);
            of_svc.fold(0.0, |a, l| a + f(&l.span) as f64)
        };
        let ns = sum(&|r| span(r, |s| s.ns));
        let calls = sum(&|r| span(r, |s| s.calls));
        m.push(table_metric(
            format!("services.{svc}.host_ms"),
            "ms",
            "host",
            ns / 1e6 / n,
        ));
        m.push(metric(
            format!("services.{svc}.host_share"),
            "ratio",
            "host",
            ratio(ns, window_ns),
        ));
        m.push(metric(
            format!("services.{svc}.calls"),
            "count",
            "sim",
            calls / n,
        ));
        m.push(table_metric(
            format!("services.{svc}.ns_per_call"),
            "ns",
            "host",
            ratio(ns, calls),
        ));
        if svc == "encryption" {
            let mib = sum(&|r| layers(r).ciphered_bytes as f64) / (1 << 20) as f64;
            let rate = ratio(mib, ns / 1e9);
            m.push(metric(
                "services.encryption.mib_per_host_s",
                "MiB/s",
                "host",
                rate,
            ));
        }
    }

    let last = traced.last().expect("at least one traced repetition");
    let (l, r, t) = (layers(last), last.relay, last.transport);
    let per = |num: u64, den: u64| ratio(num as f64, den as f64);
    let rows = [
        (
            "services.host_share",
            "ratio",
            "host",
            ratio(service_ns, window_ns),
        ),
        ("services.dedup.ratio", "x", "sim", l.dedup_ratio),
        ("services.compress.ratio", "x", "sim", l.compress_ratio),
        ("engine.events_per_io", "count", "sim", ratio(events, ops)),
        (
            "engine.ns_per_event",
            "ns",
            "host",
            ratio(engine_ns, events),
        ),
        (
            "engine.host_share",
            "ratio",
            "host",
            ratio(engine_ns, window_ns),
        ),
        (
            "workload.host_share",
            "ratio",
            "host",
            ratio(workload_ns, window_ns),
        ),
        (
            "relay.pdus_per_io",
            "count",
            "sim",
            per(r.pdus, last.guest.ops()),
        ),
        (
            "relay.data_bytes_copied_per_pdu",
            "B",
            "sim",
            per(r.data_copied, r.pdus),
        ),
        (
            "relay.header_bytes_per_pdu",
            "B",
            "sim",
            per(r.header_copied, r.pdus),
        ),
        (
            "relay.verbatim_share",
            "ratio",
            "sim",
            per(r.verbatim, r.pdus),
        ),
        ("nvmeq.sq_peak", "count", "sim", t.sq_peak as f64),
        (
            "nvmeq.doorbell_batch",
            "count",
            "sim",
            per(t.doorbell_sqes, t.doorbells),
        ),
        ("nvmeq.cq_batch", "count", "sim", per(t.cqes, t.cq_frames)),
        (
            "target.dispatch_batch",
            "count",
            "sim",
            per(t.dispatched, t.dispatch_ticks),
        ),
    ];
    m.extend(
        rows.into_iter()
            .map(|(name, unit, clock, v)| metric(name, unit, clock, v)),
    );

    for rep in traced {
        let total: f64 = layers(rep).hops.iter().map(|h| h.1).sum();
        if (total - 100.0).abs() > 0.5 {
            let name = s.workload.name();
            problems.push(format!("{name}: sim hop shares sum to {total:.3} %"));
        }
    }
    for hop in [
        "disk", "network", "target", "service", "virtio", "forward", "relay",
    ] {
        let share = l
            .hops
            .iter()
            .filter(|h| h.0 == hop)
            .fold(0.0, |a, h| a + h.1);
        m.push(metric(format!("sim.hop.{hop}.share"), "%", "sim", share));
    }

    let overhead = ratio(host_us_per_io(traced), host_us_per_io(untraced));
    let rows = [
        ("crypto.aes_xts.mib_s", "MiB/s", kernels.aes_xts_mib_s),
        ("crypto.chacha20.mib_s", "MiB/s", kernels.chacha20_mib_s),
        ("iscsi.pdu.ns_per_decode", "ns", kernels.pdu_ns_per_decode),
        ("nvmeq.codec.ns_per_sqe", "ns", kernels.sqe_ns),
        (
            "sim.queue.ns_per_push_pop",
            "ns",
            kernels.queue_ns_per_push_pop,
        ),
        ("trace.overhead", "x", overhead),
    ];
    m.extend(
        rows.into_iter()
            .map(|(name, unit, v)| metric(name, unit, "host", v)),
    );
    m
}

fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{title}\n{:<36} {:>16} {:<8} {:<6} {}\n",
        "metric", "value", "unit", "clock", "in JSON"
    );
    for m in metrics {
        let json = if m.json { "yes" } else { "no" };
        let _ = writeln!(
            out,
            "{:<36} {:>16.4} {:<8} {:<6} {json}",
            m.name, m.value, m.unit, m.clock
        );
    }
    out
}

/// Runs one benchmark process's worth of work.
pub fn run(s: &Settings) -> Outcome {
    let seconds = Duration::from_secs_f64(s.seconds);
    let start = Instant::now();
    let mut problems = Vec::new();
    let mut report = String::new();
    let (untraced, traced, metrics) = if s.trace {
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        while traced.is_empty() || start.elapsed() < seconds {
            untraced.push(scenario::run_rep(s.workload, s.seed, s.window, false));
            traced.push(scenario::run_rep(s.workload, s.seed, s.window, true));
        }
        let kernels = kernels::run(s.seed);
        let metrics = per_layer(s, &untraced, &traced, kernels, &mut problems);
        report += &table(
            &format!(
                "{} per-layer (traced run, {} windows)",
                s.workload.name(),
                traced.len()
            ),
            &metrics,
        );
        (untraced, traced, metrics)
    } else {
        let setups: Vec<Timed> = (0..SETUP_SAMPLES)
            .map(|_| scenario::setup_only(s.workload, s.seed))
            .collect();
        let mut reps = Vec::new();
        let mut peak_rss = None;
        while reps.len() < MIN_REPS || start.elapsed() < seconds {
            reps.push(scenario::run_rep(s.workload, s.seed, s.window, false));
            // One repetition's footprint: later ones only add allocator
            // fragmentation, which grows with how many fit in the run.
            peak_rss = peak_rss.or_else(peak_rss_mb);
        }
        if peak_rss.is_none() {
            problems.push(format!("{}: peak RSS unreadable", s.workload.name()));
        }
        let metrics = end_to_end(s, &reps, &setups, peak_rss.unwrap_or(0.0), &mut report);
        (reps, Vec::new(), metrics)
    };
    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    check(s, &all, &mut problems);
    let attempted = all.iter().map(|r| r.guest.attempted).sum::<u64>();
    let failed = all.iter().map(|r| r.failed()).sum::<u64>();
    if !s.trace {
        let mut rows = metrics.clone();
        rows.push(table_metric(
            "failed_io_frac",
            "ratio",
            "sim",
            ratio(failed as f64, attempted as f64),
        ));
        report += &table(
            &format!("{} end to end (untraced)", s.workload.name()),
            &rows,
        );
    }
    let _ = writeln!(
        report,
        "sim digest {:016x}",
        all.first().map_or(0, |r| digest::digest(r))
    );
    Outcome {
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics,
        report,
    }
}
