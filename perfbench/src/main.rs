//! `perfbench`: the repository benchmark. Runs one workload over the
//! cxl0 `Cluster`/`Session` API and prints its metrics; the last line of
//! standard output is a JSON object. See README.md.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|tiny] [--out-dir <dir>]
//! ```

mod bench;
mod checks;
mod harness;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Args, Outcome};
use workloads::{Kind, Sizes};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] [--out-dir <dir>]",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::MapZipf,
        seed: 1,
        seconds: 10.0,
        trace: false,
        sizes: Sizes::full(),
        out_dir: None,
    };
    let mut kind = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--scale" => {
                args.sizes = match value()?.as_str() {
                    "full" => Sizes::full(),
                    "tiny" => Sizes::tiny(),
                    v => return Err(format!("--scale takes full or tiny, not {v:?}")),
                }
            }
            "--out-dir" => args.out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.kind = kind.ok_or("--workload is required")?;
    Ok(args)
}

fn json(o: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, value, unit) in &o.metrics.0 {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let outcome = match bench::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} seed {}: {}; {} calls, {} failed (fail_rate {})",
        args.kind.name(),
        args.seed,
        outcome.samples,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for e in &outcome.errors {
        eprintln!("  check failed: {e}");
    }
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    match json(&outcome) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
