//! Command line of the two-clock benchmark.
//!
//! ```text
//! storm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the human-readable tables, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end to end with `--trace 0`, per layer with `--trace 1`).
//! Exits non-zero when any check failed.

use std::process::ExitCode;

use storm_perfbench::{run, Settings, WorkloadId};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: storm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = WorkloadId::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag needs a valid value");
    };
    let outcome = run(&Settings {
        workload,
        seed,
        seconds,
        window: workload.window(),
        trace,
    });
    print!("{}", outcome.report);
    for p in &outcome.problems {
        eprintln!("FAIL {p}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
