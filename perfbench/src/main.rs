//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! perfbench --workload <paper_grid|crash_sweep|campaign_mix>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Context lines (run settings, digest, gate failures) come first; the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

use perfbench::{Sizes, Workload, HELD_OUT_SEED};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_grid|crash_sweep|campaign_mix> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let commit = perfbench::commit_at(root).unwrap_or_else(|| "unknown".to_string());
    let source = perfbench::source_digest(root);
    let report = perfbench::run(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
        &Sizes::full(),
    );
    let rss = perfbench::peak_rss_mb();
    let [wall, setup, kips] = report.e2e.measured;
    println!(
        "host speed: median probe slowdown {:.4} against the reference; unscaled \
         wall_s {wall:.4}, setup_s {setup:.4}, sim_kips {kips:.1}",
        report.slowdown
    );
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.gate.failures {
        println!("GATE FAILED: {failure}");
    }
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"commit\": \"{commit}\", \"source_digest\": \"{:016x}\", \"host_parallelism\": {host}, \
         \"jobs\": 1, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \
         \"trace\": {}, \"peak_rss_mb\": {rss:.1}, \"digest\": \"{:016x}\"}}}}",
        args.workload.name(),
        source.0,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.digest.0,
    );
    println!("{}", perfbench::result_line(&report));
    ExitCode::SUCCESS
}
