//! The engine's benchmark: one workload per run, seeded, timed end to end
//! through the engine's public calls only.
//!
//! ```text
//! perfbench --workload <paper_v3|wide_pinned|durable_feed> --seed <n>
//!           --seconds <s> --trace <0|1> [--inject-failure]
//! ```
//!
//! The seed drives every generated input; the engine sees only those
//! inputs. With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! (the first half of the loop runs untraced, the second traced, and
//! `trace.overhead_pct` is the difference of their median commit times).
//! Every run checks its outputs; any failed check or engine error makes
//! `correct` false and the exit code 1. `--inject-failure` corrupts one
//! expected value to show that.

mod alloc;
mod common;
mod metrics;
mod trace;
mod vfs;
mod workloads;

use std::process::ExitCode;

use common::{Digest, Metrics, Opts, Tally};

#[global_allocator]
static ALLOC: alloc::TrackingAlloc = alloc::TrackingAlloc;

const WORKLOADS: [&str; 3] = ["paper_v3", "wide_pinned", "durable_feed"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--inject-failure]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject_failure: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !o.seconds.is_finite() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--inject-failure" => o.inject_failure = true,
            f => return Err(format!("unknown argument {f}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    Ok(o)
}

/// The checker must catch a wrong expectation: a digest of rows differs
/// from the digest of the same rows with one value changed, and equals the
/// digest of the same rows in another order.
fn self_test(tally: &mut Tally) {
    use ojv_rel::Datum;
    let rows: Vec<Vec<Datum>> = (0..64)
        .map(|i| vec![Datum::Int(i), Datum::Float(i as f64 * 0.5)])
        .collect();
    let mut reordered = rows.clone();
    reordered.reverse();
    let mut wrong = rows.clone();
    wrong[17][1] = Datum::Float(-1.0);
    let d = Digest::of_rows(&rows);
    let mut probe = Tally::default();
    probe.check("wrong expectation", Digest::of_rows(&wrong) == d);
    tally.check(
        "self-test: a wrong expectation is caught",
        probe.failed == 1 && Digest::of_rows(&reordered) == d,
    );
}

/// Write a traced run's spans under the benchmark's output directory.
pub fn write_spans(o: &Opts, threads: &[(&str, &[trace::Span])]) {
    let path = common::out_dir().join(format!("trace-{}-{}.tsv", o.workload, o.seed));
    if let Err(e) = trace::write_tsv(&path, threads) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    common::phase("start");
    let mut tally = Tally::default();
    let mut m = Metrics::new();
    self_test(&mut tally);
    match o.workload.as_str() {
        "paper_v3" => workloads::paper_v3::run(&o, &mut tally, &mut m),
        "wide_pinned" => workloads::wide_pinned::run(&o, &mut tally, &mut m),
        "durable_feed" => workloads::durable_feed::run(&o, &mut tally, &mut m),
        _ => unreachable!("workload validated by parse"),
    };
    common::phase("checked");
    for note in &tally.notes {
        eprintln!("perfbench: {note}");
    }
    match metrics::result_line(o.trace, &tally, &m) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
