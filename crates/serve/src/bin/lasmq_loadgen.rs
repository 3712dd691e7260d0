//! `lasmq-loadgen`: open-loop Facebook-trace load generator for the
//! `lasmq-serve` daemon.
//!
//! Replays the synthetic Facebook 2010 trace (the paper's §V-C
//! workload) against a running daemon over one pipelined connection.
//! The load is **open-loop**: each submission is sent at its scheduled
//! wall time regardless of whether earlier acks have returned, so a
//! daemon that falls behind accumulates queueing delay instead of
//! silently slowing the generator — the honest way to measure a
//! scheduler's sustainable throughput.
//!
//! Submission times come from the trace's arrival process compressed by
//! `--compression` (sim-seconds per wall-second), or from a fixed
//! `--rate` in jobs/sec. A reader thread records client-side ack latency
//! per submission, timed from the submission's *scheduled* send instant:
//! time the sender spends behind schedule (say, blocked writing to a
//! daemon that stopped reading) counts against the daemon instead of
//! vanishing from the percentiles. The sender's own lag behind schedule
//! is reported on a separate line. After the replay the daemon's own
//! `metrics` digest (scheduling-decision percentiles) is queried and
//! both are reported, optionally as a `BENCH_6.json`-style baseline via
//! `--emit`.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use lasmq_campaign::LatencyHistogram;
use lasmq_workload::FacebookTrace;
use serde::{Deserialize, Value};

const USAGE: &str = "\
lasmq-loadgen: open-loop Facebook-trace load generator for lasmq-serve

USAGE:
    lasmq-loadgen --addr ADDR [OPTIONS]

OPTIONS:
    --addr ADDR             daemon address, e.g. 127.0.0.1:7171 (required)
    --jobs N                replay the first N trace jobs (default 1000)
    --skip K                skip the first K jobs (resume a partial replay
                            against a restarted daemon; default 0)
    --seed S                trace generator seed (default 0)
    --compression X         pace arrivals at X sim-seconds per wall-second
                            (default 1000; match the daemon's --compression)
    --rate R                ignore trace arrival spacing and submit at a fixed
                            R jobs/sec instead
    --drain-timeout-secs S  after submitting, poll status until every job has
                            finished or S wall-seconds elapse (default: no wait)
    --shutdown              send a shutdown request when done (daemon writes its
                            final snapshot and exits)
    --emit FILE             write the measurement as a JSON baseline (BENCH_6)
    --help                  print this help
";

struct Args {
    addr: String,
    jobs: usize,
    skip: usize,
    seed: u64,
    compression: f64,
    rate: Option<f64>,
    drain_timeout_secs: Option<u64>,
    shutdown: bool,
    emit: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        jobs: 1000,
        skip: 0,
        seed: 0,
        compression: 1000.0,
        rate: None,
        drain_timeout_secs: None,
        shutdown: false,
        emit: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--skip" => {
                args.skip = value("--skip")?
                    .parse()
                    .map_err(|e| format!("--skip: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--compression" => {
                args.compression = value("--compression")?
                    .parse()
                    .map_err(|e| format!("--compression: {e}"))?
            }
            "--rate" => {
                args.rate = Some(
                    value("--rate")?
                        .parse()
                        .map_err(|e| format!("--rate: {e}"))?,
                )
            }
            "--drain-timeout-secs" => {
                args.drain_timeout_secs = Some(
                    value("--drain-timeout-secs")?
                        .parse()
                        .map_err(|e| format!("--drain-timeout-secs: {e}"))?,
                )
            }
            "--shutdown" => args.shutdown = true,
            "--emit" => args.emit = Some(value("--emit")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required".into());
    }
    if args.skip >= args.jobs {
        return Err("--skip must be smaller than --jobs".into());
    }
    if !(args.compression.is_finite() && args.compression > 0.0) {
        return Err("--compression must be finite and positive".into());
    }
    if let Some(rate) = args.rate {
        if !(rate.is_finite() && rate > 0.0) {
            return Err("--rate must be finite and positive".into());
        }
    }
    Ok(args)
}

/// Tallies the reader thread keeps while consuming submit acks.
#[derive(Default)]
struct AckTally {
    accepted: u64,
    deferred: u64,
    errors: u64,
    /// Latency of accepted admissions only. Backpressure refusals are
    /// answered on the daemon's fast path, so folding them in would make
    /// ack latency look *better* exactly when the daemon is shedding load.
    hist: LatencyHistogram,
    /// Latency of deferred (backpressure) refusals, kept separate.
    deferred_hist: LatencyHistogram,
}

/// Locks the due-instant FIFO, tolerating poisoning: a panic on the
/// peer thread leaves the queue itself consistent (push/pop are atomic
/// under the lock), and abandoning the tally over it would turn one
/// thread's failure into a lost measurement.
fn lock_fifo(m: &Mutex<VecDeque<Instant>>) -> std::sync::MutexGuard<'_, VecDeque<Instant>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let specs = FacebookTrace::new()
        .jobs(args.jobs)
        .seed(args.seed)
        .generate();
    let window = &specs[args.skip..];
    let n = window.len();

    // Pre-serialize every request so the send loop does no JSON work.
    let lines: Vec<String> = window
        .iter()
        .map(|spec| {
            format!(
                "{{\"op\":\"submit\",\"job\":{}}}\n",
                serde_json::to_string(spec).expect("job spec serialization cannot fail")
            )
        })
        .collect();
    // Open-loop schedule: wall offset of each submission from the first.
    let base_arrival = window[0].arrival().as_millis();
    let offsets: Vec<Duration> = window
        .iter()
        .enumerate()
        .map(|(i, spec)| match args.rate {
            Some(rate) => Duration::from_secs_f64(i as f64 / rate),
            None => Duration::from_secs_f64(
                (spec.arrival().as_millis() - base_arrival) as f64 / 1000.0 / args.compression,
            ),
        })
        .collect();

    let mut stream = TcpStream::connect(&args.addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;

    // Scheduled send instants, pushed by the send loop, popped by the
    // reader as acks return — per-connection response order makes this a
    // queue.
    let due_at = Arc::new(Mutex::new(VecDeque::<Instant>::with_capacity(n)));
    let reader_due_at = Arc::clone(&due_at);
    let reader = thread::spawn(move || {
        let mut tally = AckTally::default();
        let mut reader = BufReader::new(read_half);
        let mut line = String::new();
        for _ in 0..n {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            // Pop unconditionally: every response consumes exactly one
            // pending send whatever its outcome, or later acks would pair
            // with the wrong submission's due instant.
            let due = lock_fifo(&reader_due_at).pop_front();
            // Substring classification keeps the hot loop JSON-free.
            if line.contains("\"ok\":true") {
                tally.accepted += 1;
                if let Some(due) = due {
                    tally.hist.record(due.elapsed());
                }
            } else if line.contains("\"deferred\":true") {
                tally.deferred += 1;
                if let Some(due) = due {
                    tally.deferred_hist.record(due.elapsed());
                }
            } else {
                // Error responses (invalid job, unknown op) get counted but
                // not timed: their latency measures nothing useful.
                tally.errors += 1;
            }
        }
        tally
    });

    eprintln!(
        "lasmq-loadgen: replaying jobs {}..{} of the Facebook trace (seed {}) to {}",
        args.skip, args.jobs, args.seed, args.addr
    );
    let mut lag = LatencyHistogram::new();
    let start = Instant::now();
    for (line, offset) in lines.iter().zip(&offsets) {
        // Open loop: hold to the schedule even if acks lag.
        let due = start + *offset;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        lock_fifo(&due_at).push_back(due);
        lag.record(Instant::now().saturating_duration_since(due));
        stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
    }
    stream.flush().ok();
    let tally = reader.join().map_err(|_| "reader thread panicked")?;
    let wall = start.elapsed();
    let answered = tally.accepted + tally.deferred + tally.errors;
    if answered < n as u64 {
        return Err(format!(
            "connection closed early: {answered}/{n} submissions answered"
        ));
    }

    let sustained = tally.accepted as f64 / wall.as_secs_f64();
    let ack = tally.hist.summary();
    println!(
        "lasmq-loadgen: {} submissions in {:.2}s wall = {:.0} submissions/s sustained \
         ({} accepted, {} deferred, {} errors)",
        n,
        wall.as_secs_f64(),
        sustained,
        tally.accepted,
        tally.deferred,
        tally.errors
    );
    println!(
        "client ack latency (accepted, from due time): p50 {:.0}µs  p99 {:.0}µs  p999 {:.0}µs  \
         max {:.0}µs",
        ack.p50_us, ack.p99_us, ack.p999_us, ack.max_us
    );
    let lag = lag.summary();
    println!(
        "sender lag behind schedule: p50 {:.0}µs  p99 {:.0}µs  max {:.0}µs",
        lag.p50_us, lag.p99_us, lag.max_us
    );
    if tally.deferred > 0 {
        let d = tally.deferred_hist.summary();
        println!(
            "deferred refusal latency: p50 {:.0}µs  p99 {:.0}µs  max {:.0}µs \
             (excluded from ack percentiles)",
            d.p50_us, d.p99_us, d.max_us
        );
    }

    // The daemon's own view: decision-latency percentiles and counters.
    let mut sync_reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let metrics = request(&mut stream, &mut sync_reader, "{\"op\":\"metrics\"}\n")?;
    let decision = object_field(&metrics, "decision")
        .ok_or_else(|| "metrics response missing 'decision'".to_string())?;
    let decision_p50 = num_field(decision, "p50_us").unwrap_or(0.0);
    let decision_p99 = num_field(decision, "p99_us").unwrap_or(0.0);
    let decision_p999 = num_field(decision, "p999_us").unwrap_or(0.0);
    let decision_count = num_field(decision, "count").unwrap_or(0.0);
    println!(
        "server decision latency: p50 {decision_p50:.0}µs  p99 {decision_p99:.0}µs  \
         p999 {decision_p999:.0}µs  ({decision_count:.0} passes timed)"
    );

    if let Some(timeout) = args.drain_timeout_secs {
        let deadline = Instant::now() + Duration::from_secs(timeout);
        loop {
            let status = request(&mut stream, &mut sync_reader, "{\"op\":\"status\"}\n")?;
            let jobs = top_num(&status, "jobs").unwrap_or(0.0);
            let finished = top_num(&status, "finished").unwrap_or(0.0);
            if jobs > 0.0 && finished >= jobs {
                println!("drained: all {finished:.0} jobs finished");
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "drain timed out after {timeout}s: {finished:.0}/{jobs:.0} jobs finished"
                ));
            }
            thread::sleep(Duration::from_millis(200));
        }
    }

    if args.shutdown {
        let ack = request(&mut stream, &mut sync_reader, "{\"op\":\"shutdown\"}\n")?;
        if top_num(&ack, "ok").is_none() && !matches!(top(&ack, "ok"), Some(Value::Bool(true))) {
            return Err("shutdown request not acknowledged".to_string());
        }
        println!("daemon acknowledged shutdown");
    }

    if let Some(path) = &args.emit {
        let json = bench_json(
            args,
            n,
            wall,
            sustained,
            &tally,
            (decision_p50, decision_p99, decision_p999),
        );
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("baseline written to {path}");
    }

    Ok(if tally.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// One synchronous request/response exchange on the shared connection
/// (only used after the pipelined replay has fully drained).
fn request(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<Value, String> {
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| format!("recv: {e}"))?;
    if response.is_empty() {
        return Err("connection closed".to_string());
    }
    serde_json::parse_value_str(response.trim()).map_err(|e| format!("bad response: {e}"))
}

fn top<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    serde::__get(value.as_object()?, key)
}

fn top_num(value: &Value, key: &str) -> Option<f64> {
    f64::from_value(top(value, key)?).ok()
}

fn object_field<'a>(value: &'a Value, key: &str) -> Option<&'a [(String, Value)]> {
    top(value, key)?.as_object()
}

fn num_field(entries: &[(String, Value)], key: &str) -> Option<f64> {
    f64::from_value(serde::__get(entries, key)?).ok()
}

/// Flat machine-written JSON, same style as `BENCH_5.json`.
fn bench_json(
    args: &Args,
    n: usize,
    wall: Duration,
    sustained: f64,
    tally: &AckTally,
    (d50, d99, d999): (f64, f64, f64),
) -> String {
    use std::fmt::Write as _;
    let ack = tally.hist.summary();
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"serve_facebook_replay\",");
    let _ = writeln!(s, "  \"jobs\": {n},");
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = match args.rate {
        Some(rate) => writeln!(s, "  \"rate\": {rate:.0},"),
        None => writeln!(s, "  \"compression\": {:.0},", args.compression),
    };
    let _ = writeln!(s, "  \"wall_secs\": {:.3},", wall.as_secs_f64());
    let _ = writeln!(s, "  \"submissions_per_sec\": {sustained:.0},");
    let _ = writeln!(s, "  \"accepted\": {},", tally.accepted);
    let _ = writeln!(s, "  \"deferred\": {},", tally.deferred);
    let _ = writeln!(s, "  \"errors\": {},", tally.errors);
    let _ = writeln!(s, "  \"ack_p50_us\": {:.1},", ack.p50_us);
    let _ = writeln!(s, "  \"ack_p99_us\": {:.1},", ack.p99_us);
    let _ = writeln!(s, "  \"ack_p999_us\": {:.1},", ack.p999_us);
    let _ = writeln!(s, "  \"decision_p50_us\": {d50:.1},");
    let _ = writeln!(s, "  \"decision_p99_us\": {d99:.1},");
    let _ = writeln!(s, "  \"decision_p999_us\": {d999:.1}");
    let _ = writeln!(s, "}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
