//! Per-tenant QoS experiment runners: two-tenant interference and
//! SLO-driven provisioning churn.
//!
//! Both scenarios run the target-side QoS machinery (per-tenant token
//! buckets + weighted fair queueing on tiered disks) end to end from real
//! tenant VMs:
//!
//! * [`interference_point`] — a latency-sensitive *victim* shares the
//!   fast tier with a bandwidth-hungry *aggressor*. Three runs: victim
//!   solo, contended with no limits, and contended with the aggressor
//!   rate-limited plus a WFQ weight favouring the victim. The acceptance
//!   bar is the paper-style isolation claim: victim p99 under QoS within
//!   1.2x of its solo p99.
//! * [`provisioning_churn_point`] — the [`ProvisioningEngine`] control
//!   loop in anger: an SLO'd volume lands on the slow tier next to a
//!   best-effort hog, its p99 blows through the ceiling, and the engine
//!   live-migrates it to the fast tier mid-run (copy-then-cutover).

use storm_cloud::{Cloud, DiskSpec, ProvisioningEngine};
use storm_net::AppId;
use storm_qos::{DiskTier, RateLimitSpec, VolumeSlo};
use storm_sim::{SimDuration, SimTime};
use storm_telemetry::analyze;
use storm_workloads::{FioJob, FioWorkload};

use crate::{build_cloud, client_point, FioPoint, Testbed};

/// Aggressor IOPS cap in the shaped run.
const AGGRESSOR_IOPS: u64 = 200;
/// Aggressor burst allowance (ops).
const AGGRESSOR_BURST: u64 = 4;
/// Aggressor request size: a 4 KiB IOPS hog. Small frames keep its
/// in-flight bytes off the shared 1 GbE target link — target-side shaping
/// cannot un-send data, so a large-block aggressor would still
/// head-of-line block the victim's transfers *on the wire*.
const AGGRESSOR_BLOCK: usize = 4096;
/// WFQ weight handed to the victim (aggressor keeps the default 1).
const VICTIM_WEIGHT: u64 = 8;

/// Outcome of the two-tenant interference experiment.
#[derive(Debug, Clone, Copy)]
pub struct InterferenceOutcome {
    /// Victim alone on the fast tier.
    pub solo: FioPoint,
    /// Victim sharing the fast tier with an unshaped aggressor.
    pub contended: FioPoint,
    /// Victim sharing the fast tier with a rate-limited, de-weighted
    /// aggressor.
    pub shaped: FioPoint,
    /// The aggressor's own point in the shaped run (shows the limit
    /// biting).
    pub shaped_aggressor: FioPoint,
    /// Target-side ops that drew a shaping delay in the shaped run.
    pub throttled_ops: u64,
}

impl InterferenceOutcome {
    /// Victim p99 under QoS relative to solo — the isolation headline.
    pub fn qos_over_solo(&self) -> f64 {
        if self.solo.p99_ms == 0.0 {
            return 1.0;
        }
        self.shaped.p99_ms / self.solo.p99_ms
    }
}

/// Outcome of the provisioning-churn experiment.
#[derive(Debug, Clone, Copy)]
pub struct ChurnOutcome {
    /// The SLO'd tenant's end-to-end point across the whole run
    /// (pre-migration slow-tier pain included).
    pub point: FioPoint,
    /// Copy-then-cutover migrations the control loop started.
    pub migrations_started: u64,
    /// Migrations whose cutover committed before the run ended.
    pub migrations_completed: u64,
    /// Fraction of the SLO'd volume's target-side samples at or under
    /// its p99 ceiling.
    pub slo_attainment: f64,
    /// Whether the deliberately oversized third request was rejected.
    pub overload_rejected: bool,
    /// The tier the SLO'd volume ended the run on.
    pub final_tier: DiskTier,
}

fn drive_logins(cloud: &mut Cloud, apps: &[(usize, AppId)]) {
    let deadline = cloud.net.now() + SimDuration::from_secs(5);
    while cloud.net.now() < deadline {
        cloud.net.run_for(SimDuration::from_millis(1));
        if apps
            .iter()
            .all(|&(host, app)| cloud.client_mut(host, app).is_ready())
        {
            break;
        }
    }
}

/// One interference case: victim always runs; the aggressor and the
/// shaping knobs are optional. Returns `(victim, aggressor, throttled)`.
fn interference_case(
    testbed: &Testbed,
    with_aggressor: bool,
    shaped: bool,
) -> (FioPoint, Option<FioPoint>, u64) {
    let mut cloud = build_cloud(testbed.seed);
    let victim_vol = cloud.create_volume(testbed.volume_bytes, 0);
    let aggr_vol = cloud.create_volume(testbed.volume_bytes, 0);
    {
        let target = cloud.target_mut(0);
        target.enable_qos(DiskSpec::fast_tier(), DiskSpec::slow_tier());
        target.register_qos_volume(&victim_vol.iqn, 1, DiskTier::Fast);
        target.register_qos_volume(&aggr_vol.iqn, 2, DiskTier::Fast);
        if shaped {
            target.set_tenant_limit(
                2,
                RateLimitSpec::iops_limit(AGGRESSOR_IOPS, AGGRESSOR_BURST),
            );
            target.set_tenant_weight(1, VICTIM_WEIGHT);
        }
    }
    let victim_job = FioJob::randrw(64 * 1024, testbed.duration, victim_vol.sectors).threads(1);
    let victim = cloud.attach_volume(
        0,
        "vm:victim",
        &victim_vol,
        Box::new(FioWorkload::new(victim_job)),
        testbed.seed,
        false,
    );
    let mut apps = vec![(0usize, victim)];
    let aggressor = if with_aggressor {
        let job = FioJob::randrw(AGGRESSOR_BLOCK, testbed.duration, aggr_vol.sectors).threads(4);
        let app = cloud.attach_volume(
            1,
            "vm:aggressor",
            &aggr_vol,
            Box::new(FioWorkload::new(job)),
            testbed.seed + 1,
            false,
        );
        apps.push((1, app));
        Some(app)
    } else {
        None
    };
    drive_logins(&mut cloud, &apps);
    let end = cloud.net.now() + testbed.duration + SimDuration::from_secs(2);
    cloud.net.run_until(SimTime::from_nanos(end.as_nanos()));
    let (throttled, _) = cloud.target_mut(0).qos_throttle_stats();
    let victim_point = client_point(&mut cloud, 0, victim, testbed.duration, "the victim");
    let aggr_point =
        aggressor.map(|app| client_point(&mut cloud, 1, app, testbed.duration, "the aggressor"));
    (victim_point, aggr_point, throttled)
}

/// Runs the two-tenant interference experiment: solo, contended, and
/// shaped (aggressor limited to `AGGRESSOR_IOPS`, victim WFQ weight
/// `VICTIM_WEIGHT`).
pub fn interference_point(testbed: &Testbed) -> InterferenceOutcome {
    let (solo, _, _) = interference_case(testbed, false, false);
    let (contended, _, _) = interference_case(testbed, true, false);
    let (shaped, shaped_aggressor, throttled_ops) = interference_case(testbed, true, true);
    InterferenceOutcome {
        solo,
        contended,
        shaped,
        shaped_aggressor: shaped_aggressor.expect("aggressor ran"),
        throttled_ops,
    }
}

/// SLO'd volume size: small enough that the copy-then-cutover migration
/// commits well inside the measurement window.
const CHURN_VOLUME_BYTES: u64 = 16 << 20;
/// The SLO'd tenant's p99 ceiling.
const CHURN_P99_CEILING_US: u64 = 1_500;

/// Runs the provisioning-churn experiment: an SLO'd volume deliberately
/// placed on the slow tier next to a best-effort hog, with the
/// [`ProvisioningEngine`] ticking every 50 ms of simulated time.
pub fn provisioning_churn_point(testbed: &Testbed) -> ChurnOutcome {
    let mut cloud = build_cloud(testbed.seed);
    cloud
        .target_mut(0)
        .enable_qos(DiskSpec::fast_tier(), DiskSpec::slow_tier());
    let mut engine = ProvisioningEngine::new(5_000, 20_000, 3);
    let now = cloud.net.now();
    // Economy placement: the ceiling is real but the volume starts on the
    // cheap tier — exactly the case the control loop exists to fix.
    let slo = VolumeSlo {
        iops_floor: 200,
        p99_ceiling_us: CHURN_P99_CEILING_US,
        tier: DiskTier::Slow,
    };
    let watched = engine
        .provision(&mut cloud, now, CHURN_VOLUME_BYTES, 0, 1, slo)
        .expect("SLO'd volume admitted");
    let hog = engine
        .provision(
            &mut cloud,
            now,
            CHURN_VOLUME_BYTES,
            0,
            2,
            VolumeSlo::BEST_EFFORT,
        )
        .expect("best-effort volume admitted");
    // Overload: a floor beyond both tiers' capacity must be rejected.
    let overload_rejected = engine
        .provision(
            &mut cloud,
            now,
            CHURN_VOLUME_BYTES,
            0,
            3,
            VolumeSlo::latency(1_000_000, 100),
        )
        .is_none();

    let watched_job = FioJob::randrw(4096, testbed.duration, watched.handle.sectors).threads(1);
    let watched_app = cloud.attach_volume(
        0,
        "vm:slo",
        &watched.handle,
        Box::new(FioWorkload::new(watched_job)),
        testbed.seed,
        false,
    );
    let hog_job = FioJob::randrw(64 * 1024, testbed.duration, hog.handle.sectors).threads(4);
    let hog_app = cloud.attach_volume(
        1,
        "vm:hog",
        &hog.handle,
        Box::new(FioWorkload::new(hog_job)),
        testbed.seed + 1,
        false,
    );
    drive_logins(&mut cloud, &[(0, watched_app), (1, hog_app)]);

    // Run in slices, ticking the control loop between them.
    let end = cloud.net.now() + testbed.duration + SimDuration::from_secs(2);
    while cloud.net.now() < end {
        cloud.net.run_for(SimDuration::from_millis(50));
        let t = cloud.net.now();
        engine.tick(&mut cloud, t);
    }

    let ceiling = SimDuration::from_micros(CHURN_P99_CEILING_US);
    let (migrations_completed, slo_attainment, final_tier) = {
        let t = cloud.target_mut(0);
        let now = SimTime::from_nanos(end.as_nanos());
        let tier = t.poll_migration(now, &watched.handle.iqn);
        let attainment = t
            .volume_latency(&watched.handle.iqn)
            .map_or(1.0, |h| analyze::slo_attainment(h, ceiling));
        (t.completed_migrations(), attainment, tier)
    };
    ChurnOutcome {
        point: client_point(&mut cloud, 0, watched_app, testbed.duration, "churn"),
        migrations_started: engine.migrations_started(),
        migrations_completed,
        slo_attainment,
        overload_rejected,
        final_tier,
    }
}
