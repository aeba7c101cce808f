//! The repository's benchmark: end-to-end and per-layer metrics of the
//! attribution pipeline on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explain_imdb --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The command
//! exits non-zero when an output fails verification. See `README.md`.

mod explain;
mod inputs;
mod live;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: &[&str] = &["explain_imdb", "explain_tpch", "serve_mixed"];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of one run, s.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Writes the spans of a traced run next to the benchmark and adds the
/// per-layer self times to the printed notes.
fn finish_trace(tracer: &Tracer, args: &Args, out: &mut Outcome) {
    if !tracer.enabled() {
        return;
    }
    let dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("perfbench"), PathBuf::from)
        .join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => out.note(format!("spans: {}", path.display())),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
    for (name, (n, total, own)) in tracer.self_times() {
        out.note(format!(
            "span {name}: n={n} total={total:.3} ms self={own:.3} ms ({:.4} ms self per span)",
            own / n as f64
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "explain_imdb" => explain::run(explain::Corpus::Imdb, &args),
        "explain_tpch" => explain::run(explain::Corpus::Tpch, &args),
        _ => serve::run(&args),
    };
    for line in out.notes.iter().chain(&out.describe()) {
        println!("{line}");
    }
    let (correct, line) = out.result_line(args.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: verification failed or a metric is missing");
        ExitCode::FAILURE
    }
}
