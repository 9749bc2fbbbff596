//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine-local|mine-dist|serve-mix> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload, checks every result, and prints two lines: the
//! detail line (environment, checks, every metric with unit, median,
//! quartiles and rep count), then the result line (`correct`,
//! `attempted`, `failed` and the end-to-end metrics, or with `--trace 1`
//! the per-layer metrics). See `README.md` for the workloads and metrics.

mod corpus;
mod mine;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;
use trace::Tracer;

pub struct Options {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["mine-local", "mine-dist", "serve-mix"];

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {}", WORKLOADS.join(", ")))),
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected whole seconds"))?;
                if s == 0 {
                    return Err(bad("expected at least 1"));
                }
                opts.seconds = Duration::from_secs(s);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The revision of the repository the benchmark runs in, or `unknown`
/// outside a git checkout (`GIT_DIR` keeps git from searching parent
/// directories).
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    let mut report = Report::new(&workload, opts.trace);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.env("nproc", nproc);
    report.env("git_revision", git_revision());
    report.env("seed", opts.seed);
    report.env("seconds", opts.seconds.as_secs());
    report.env("trace", u8::from(opts.trace));

    let tracer = Tracer::new(opts.trace);
    match workload.as_str() {
        "mine-local" => mine::run(mine::Kind::Local, &opts, &tracer, &mut report),
        "mine-dist" => mine::run(mine::Kind::Dist, &opts, &tracer, &mut report),
        "serve-mix" => serve::run(&opts, &tracer, &mut report),
        _ => unreachable!("workload names are validated"),
    }
    match peak_rss_mb() {
        Some(mb) => report.scalar("peak_rss_mb", mb, 1),
        None => {
            eprintln!("error: cannot read VmHWM from /proc/self/status");
            return ExitCode::FAILURE;
        }
    }

    if opts.trace {
        let dir = Path::new("target").join("perfbench");
        let path = dir.join(format!("trace-{workload}-seed{}.jsonl", opts.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&tracer.spans())));
        match written {
            Ok(()) => report.env("trace_file", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_validated() {
        let (w, o) =
            parse_args(&args("--workload mine-dist --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (w.as_str(), o.seed, o.seconds.as_secs(), o.trace),
            ("mine-dist", 7, 3, true)
        );
        for bad in [
            "--workload nope",
            "--workload mine-local --seconds 0",
            "--workload mine-local --trace 2",
            "--workload mine-local --seed -1",
            "--seed 1",
            "--workload",
            "--workload mine-local --bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
