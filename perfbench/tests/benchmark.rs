//! The benchmark's own checks. Run with `cargo test --release`: the
//! digest test replays full default-size windows.

use storm_perfbench::digest::{self, DEFAULT_SEED};
use storm_perfbench::scenario::run_rep;
use storm_perfbench::{run, Settings, WorkloadId};

#[test]
fn every_workload_verifies_at_its_smallest_size() {
    for w in WorkloadId::ALL {
        let window = w.smallest_window();
        let rep = run_rep(w, 7, window, false);
        let name = w.name();
        assert!(rep.drained, "{name}: read-back did not finish");
        assert!(rep.guest.ops() > 0, "{name}: no I/O in the window");
        assert_eq!(rep.failed(), 0, "{name}: {:?}", rep.guest);
        assert!(rep.guest.verified > 0, "{name}: nothing was verified");
        if w.pattern().read_pct < 100 {
            assert!(rep.guest.readbacks > 0, "{name}: nothing was read back");
        }
        let traced = run_rep(w, 7, window, true);
        assert_eq!(
            digest::digest(&rep),
            digest::digest(&traced),
            "{name}: tracing changed the sim outputs"
        );
        let hops: f64 = traced
            .layers
            .expect("traced")
            .hops
            .iter()
            .map(|h| h.1)
            .sum();
        assert!(
            (hops - 100.0).abs() <= 0.5,
            "{name}: hop shares sum to {hops}"
        );
    }
}

#[test]
fn the_default_seed_matches_its_digest_and_a_perturbed_seed_does_not() {
    for w in WorkloadId::ALL {
        let recorded = run_rep(w, DEFAULT_SEED, w.window(), false);
        assert_eq!(digest::check(w, digest::digest(&recorded)), Ok(()));
        let perturbed = run_rep(w, DEFAULT_SEED + 1, w.window(), false);
        let err = digest::check(w, digest::digest(&perturbed)).expect_err("digest must differ");
        assert!(
            err.contains(w.name()),
            "error must name the workload: {err}"
        );
    }
}

#[test]
fn benchmark_json_declares_every_metric_the_result_carries() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut declared = 0;
    for trace in [false, true] {
        let w = WorkloadId::NvmeqRead4kQd32;
        let outcome = run(&Settings {
            workload: w,
            seed: 3,
            seconds: 0.01,
            window: w.smallest_window(),
            trace,
        });
        assert!(outcome.correct, "{:?}", outcome.problems);
        for m in outcome.metrics.iter().filter(|m| m.json) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
            declared += 1;
        }
        assert!(outcome.json().starts_with("{\"correct\": true"));
    }
    assert_eq!(spec.matches("\"unit\":").count(), declared);
}
