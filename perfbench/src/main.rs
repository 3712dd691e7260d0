//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <fb-lasmq|scale-lasmq|fb-zoo|serve-open> --seed N \
//!           --seconds S --trace <0|1>
//! ```
//!
//! Every workload first runs its correctness gate, then measures for
//! `--seconds`. With `--trace 0` it reports the end-to-end metrics of an
//! untraced run; with `--trace 1` it reports the per-layer split from a
//! traced run (plus an untraced stretch for the tracing overhead) and
//! writes its spans to `.bench_spans/`. Every workload reports the same
//! metric names, each measured on what that workload runs. The last line of standard output
//! is one JSON object; diagnostics go to standard error. The exit code is
//! non-zero when any correctness check failed. See `perfbench/README.md`
//! for the workloads and what each metric is expected to move.

mod engine;
mod gate;
mod serve;
mod stats;
mod traced;
mod zoo;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use traced::SpanLog;

const USAGE: &str = "usage: perfbench --workload <fb-lasmq|scale-lasmq|fb-zoo|serve-open> \
                     --seed N --seconds S --trace <0|1>";

/// The workloads, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    FbLasmq,
    ScaleLasmq,
    FbZoo,
    ServeOpen,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "fb-lasmq" => Workload::FbLasmq,
            "scale-lasmq" => Workload::ScaleLasmq,
            "fb-zoo" => Workload::FbZoo,
            "serve-open" => Workload::ServeOpen,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FbLasmq => "fb-lasmq",
            Workload::ScaleLasmq => "scale-lasmq",
            Workload::FbZoo => "fb-zoo",
            Workload::ServeOpen => "serve-open",
        }
    }
}

/// Validated command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be between 1 and 120".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one benchmark run found: operations attempted and failed, and
/// the metrics it measured.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Run {
    /// Counts one checked operation; a failed check is reported on
    /// standard error and fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records the process's peak resident memory so far, once.
    pub fn peak_rss(&mut self) {
        if self
            .metrics
            .iter()
            .any(|(name, _, _)| name == "peak_rss_mb")
        {
            return;
        }
        if let Some(mb) = stats::peak_rss_mb() {
            self.metric("peak_rss_mb", mb, "MB");
        }
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // Non-finite values are not JSON; they only arise from a
            // failed measurement, which the checks already flag.
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::default();
    let mut spans = SpanLog::new();
    match args.workload {
        Workload::FbLasmq => engine::run(engine::Trace::Facebook, &args, &mut run, &mut spans),
        Workload::ScaleLasmq => engine::run(engine::Trace::Scale, &args, &mut run, &mut spans),
        Workload::FbZoo => zoo::run(&args, &mut run, &mut spans),
        Workload::ServeOpen => serve::run(&args, &mut run, &mut spans),
    }
    if args.trace {
        let path = PathBuf::from(".bench_spans").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match spans.write(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => run.check(false, || format!("writing {}: {e}", path.display())),
        }
    } else {
        run.peak_rss();
    }
    println!("{}", run.to_json());
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
