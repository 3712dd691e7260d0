//! The `serve-open` workload: the `lasmq-serve` daemon, embedded through
//! `Daemon::spawn` on an ephemeral port, fed Facebook-trace jobs
//! open-loop over one TCP connection.
//!
//! Open loop: request `i` of a rung is due at `i / rate` after the rung
//! starts, whether or not earlier acks have come back, and its ack
//! latency is timed from that due instant, so a stall in the daemon (or
//! in the generator) shows as latency on every request queued behind it.
//! How late the generator actually sent each request is printed by the
//! traced run as `loadgen.lag_p99_us`.
//!
//! Each rung runs on a fresh daemon whose time compression makes the
//! rung's rate offer the trace's own load (0.9) to the simulated
//! cluster, so engine work per wall second grows with the rate. Job
//! shapes come from the seed's trace; each job is stamped with its due
//! instant on the daemon's simulated clock, so the simulated workload is
//! the same however far the daemon falls behind.
//!
//! The rates come from a geometric ladder around [`REFERENCE_RATE`]
//! (BENCH_6's 15k/s). The reference rung runs longest; `latency_us` (the
//! ack p50, and in the traced run the ack p99) is the median, over its
//! [`REFERENCE_SLICES`] consecutive slices, of each slice's percentile,
//! which keeps one scheduling hiccup from deciding a run.
//! `throughput_per_s` is the capacity: the highest rung that meets the
//! limits of [`Rung::meets_limits`], found by striding √2 at a time from
//! the reference rung and then halving the gap.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lasmq_campaign::{SchedulerKind, SimSetup};
use lasmq_serve::{
    protocol::to_line, Daemon, DaemonHandle, MetricsResponse, Pacing, Request, ServeConfig,
    StatusResponse, SubmitResponse,
};
use lasmq_simulator::{JobSpec, SimTime};
use lasmq_workload::FacebookTrace;

use crate::stats::{median, process_cpu, quantile, report_digest, HostProbe};
use crate::traced::{step_all, SpanLog, Split, Traced};
use crate::{Args, Run};

/// The reference rung: BENCH_6's offered rate, submissions per second.
const REFERENCE_RATE: f64 = 15_000.0;

/// Ratio between neighbouring rungs: rung `k` offers
/// `REFERENCE_RATE · LADDER_STEP^k` submissions per second.
const LADDER_STEP: f64 = 1.044_274; // 2^(1/16)

/// Rungs searched on each side of the reference rung.
const LADDER_RUNGS: i32 = 48;

/// The capacity search's first stride, in rungs (a factor of √2).
const CLIMB_STRIDE: i32 = 8;

/// Slices of the reference rung; the ack metrics are medians over them.
const REFERENCE_SLICES: usize = 9;

/// The latency limit a rung's client-side ack p99 must stay under.
/// On a two-core machine the daemon's p99 at the reference rung sits
/// around 10 ms (scheduling hiccups queue up behind one engine thread);
/// the limit sits well above that floor, where the latency curve turns
/// steep once the offered rate outruns the daemon.
const ACK_P99_LIMIT_US: f64 = 50_000.0;

/// How far (in wall time) the daemon's simulated clock may trail the
/// last submission's arrival once its ack is in; more means the engine
/// did not keep up with the work the rate offered.
const ENGINE_LAG_LIMIT: Duration = Duration::from_millis(50);

/// A sender this far behind its schedule stops offering: the backlog is
/// growing and the rung has failed.
const ABANDON_LAG: Duration = Duration::from_millis(250);

/// How long a rung may take to drain its jobs after the last ack.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Trace seeds whose generation is timed for `setup_s`.
const GENERATE_SAMPLES: u64 = 9;

/// Idle daemons whose start-up is timed for `setup_s`.
const SPAWN_SAMPLES: usize = 9;

/// Trace seeds whose daemon streams are replayed in-process for the
/// schedule quality metrics.
const QUALITY_SEEDS: u64 = 6;

/// How long the client waits for an outstanding reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// One seed's prepared requests.
struct Input {
    /// Each job's JSON after its `{"arrival":0` opening, so the sender
    /// only prepends the due instant.
    tails: Vec<String>,
    /// Mean gap between the trace's arrivals, simulated seconds.
    mean_gap_secs: f64,
    specs: Vec<JobSpec>,
}

const JOB_OPENING: &str = "{\"arrival\":0";

/// Mean gap between the trace's arrivals, simulated seconds.
fn mean_gap_secs(specs: &[JobSpec]) -> f64 {
    let first = specs.first().map_or(0, |s| s.arrival().as_millis());
    let last = specs.last().map_or(0, |s| s.arrival().as_millis());
    (last - first) as f64 / 1e3 / (specs.len().max(2) - 1) as f64
}

/// The jobs of `specs` as a rung's daemon receives them: request `i`
/// arrives `i` mean gaps into the simulated clock.
fn daemon_stream(specs: &[JobSpec]) -> Vec<JobSpec> {
    let gap_ms = mean_gap_secs(specs) * 1e3;
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.clone()
                .with_arrival(SimTime::from_millis((i as f64 * gap_ms) as u64))
        })
        .collect()
}

fn prepare(specs: Vec<JobSpec>) -> Input {
    let mean_gap_secs = mean_gap_secs(&specs);
    let tails = specs
        .iter()
        .map(|spec| {
            let json = serde_json::to_string(&spec.clone().with_arrival(SimTime::ZERO))
                .expect("job spec serialization cannot fail");
            json.strip_prefix(JOB_OPENING)
                .expect("a serialized job spec opens with its arrival")
                .to_string()
        })
        .collect();
    Input {
        tails,
        mean_gap_secs,
        specs,
    }
}

/// What one rung measured.
#[derive(Debug, Default)]
struct Rung {
    rate: f64,
    offered: usize,
    sent: usize,
    ok: usize,
    deferred: usize,
    errors: usize,
    /// Client ack latency of each answered request, from its due time.
    ack_us: Vec<f64>,
    /// How late each request was sent against its schedule.
    lag_us: Vec<f64>,
    /// The simulated arrival stamped on the last request sent.
    last_stamp_ms: u64,
    /// How far the daemon's simulated clock trailed that stamp once the
    /// last ack was in, in wall time.
    engine_lag: Duration,
    /// The daemon's own digests, from its `metrics` verb.
    daemon: Option<MetricsResponse>,
    spawn: Duration,
    /// CPU time of the whole process (client and daemon) from spawning
    /// the daemon to its exit.
    cpu: Duration,
}

/// The median, over `slices` consecutive equal slices of `values`, of
/// each slice's `q`-quantile.
fn sliced_median(values: &[f64], slices: usize, q: f64) -> f64 {
    let len = values.len().div_ceil(slices).max(1);
    let mut per_slice: Vec<f64> = values
        .chunks(len)
        .filter_map(|c| quantile(&mut c.to_vec(), q))
        .collect();
    median(&mut per_slice)
}

impl Rung {
    fn ack_p(&self, q: f64) -> f64 {
        quantile(&mut self.ack_us.clone(), q).unwrap_or(f64::INFINITY)
    }

    /// Mean ack latency over the last tenth of the rung: above the limit
    /// means the request backlog was still growing when offering stopped.
    fn tail_mean_us(&self) -> f64 {
        let tail = &self.ack_us[self.ack_us.len() - self.ack_us.len() / 10..];
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    }

    /// Every submission acked `ok`, ack p99 under the limit, and no
    /// growing backlog in the request path or in the engine.
    fn meets_limits(&self) -> bool {
        self.sent == self.offered
            && self.ok == self.offered
            && self.deferred == 0
            && self.errors == 0
            && self.ack_p(0.99) <= ACK_P99_LIMIT_US
            && self.tail_mean_us() <= ACK_P99_LIMIT_US
            && self.engine_lag <= ENGINE_LAG_LIMIT
    }
}

/// One synchronous exchange on a fresh connection.
fn ask(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.write_all(line.as_bytes())?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply)
}

fn status(addr: SocketAddr) -> Option<StatusResponse> {
    let line = ask(addr, "{\"op\":\"status\"}\n").ok()?;
    serde_json::from_str(line.trim()).ok()
}

/// Spawns a daemon and waits for its first `pong`.
fn spawn_daemon(compression: f64) -> Result<(DaemonHandle, Duration), String> {
    let t0 = Instant::now();
    let handle = Daemon::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        pacing: Pacing::Wall { compression },
        ..ServeConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let pong = ask(handle.addr(), "{\"op\":\"ping\"}\n").map_err(|e| format!("ping: {e}"))?;
    if !pong.contains("\"pong\":true") {
        return Err(format!("ping answered {pong:?}"));
    }
    Ok((handle, t0.elapsed()))
}

/// Offers `input` at `rate` for `window` to a fresh daemon, then checks
/// that it drains (when the rung met its limits) and stops it. Every
/// submission, the drain and the daemon's exit are checked operations.
fn rung(out: &mut Run, input: &Input, rate: f64, window: Duration) -> Rung {
    let mut r = Rung {
        rate,
        offered: ((rate * window.as_secs_f64()) as usize).max(1),
        ..Rung::default()
    };
    let compression = rate * input.mean_gap_secs;
    let cpu = process_cpu();
    // The daemon's clock starts while it spawns, so stamps taken from
    // here run at most the spawn time ahead of it.
    let anchor = Instant::now();
    let (handle, spawn) = match spawn_daemon(compression) {
        Ok(h) => h,
        Err(e) => {
            out.check(false, || format!("serve-open {rate}/s: daemon: {e}"));
            return r;
        }
    };
    r.spawn = spawn;
    let addr = handle.addr();
    if let Err(e) = offer(&mut r, addr, input, anchor, compression) {
        out.check(false, || format!("serve-open {rate}/s: client: {e}"));
    }
    // The last submission's stamp is where the simulated clock must be
    // once that arrival is processed; a clock still short of it means
    // the engine is behind its work.
    let engine_now = status(addr);
    if let Some(s) = &engine_now {
        let behind_ms = (r.last_stamp_ms as f64 - s.now_ms as f64).max(0.0);
        r.engine_lag = Duration::from_secs_f64(behind_ms / 1e3 / compression);
    }
    out.check(engine_now.is_some(), || {
        format!("serve-open {rate}/s: status verb failed")
    });

    out.attempted += r.sent as u64;
    let bad = r.sent - r.ok;
    out.failed += bad as u64;
    if bad > 0 {
        eprintln!(
            "perfbench: CHECK FAILED: serve-open {rate}/s: {bad} of {} submissions not acked ok \
             ({} deferred, {} errors, {} unanswered)",
            r.sent,
            r.deferred,
            r.errors,
            r.sent - r.ok - r.deferred - r.errors
        );
    }

    r.daemon = ask(addr, "{\"op\":\"metrics\"}\n")
        .ok()
        .and_then(|l| serde_json::from_str::<MetricsResponse>(l.trim()).ok());
    out.check(r.daemon.is_some(), || {
        format!("serve-open {rate}/s: metrics verb failed")
    });

    // Drain: every accepted job must finish, by the daemon's own count.
    // A rung past its limits is overloaded by design; its daemon is only
    // stopped.
    if r.meets_limits() {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut last = None;
        let mut drained = false;
        while !drained && Instant::now() < deadline {
            last = status(addr);
            drained = last
                .as_ref()
                .is_some_and(|s| s.jobs == r.ok as u64 && s.finished == s.jobs);
            if !drained {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        out.check(drained, || {
            format!(
                "serve-open {rate}/s: daemon did not drain within {DRAIN_TIMEOUT:?}: {:?}",
                last.map(|s| (s.jobs, s.finished))
            )
        });
    }
    handle.request_stop();
    match handle.join() {
        Ok(summary) => out.check(summary.accepted == r.ok as u64, || {
            format!(
                "serve-open {rate}/s: daemon accepted {} but the client saw {} acks",
                summary.accepted, r.ok
            )
        }),
        Err(e) => out.check(false, || format!("serve-open {rate}/s: daemon exit: {e}")),
    }
    match (cpu, process_cpu()) {
        (Some(before), Some(after)) => r.cpu = after - before,
        _ => out.check(false, || "serve-open: /proc/self/stat unreadable".into()),
    }
    r
}

/// The open-loop client: one connection, a sender on this thread and a
/// reader on another; request `i` is due at `start + i / rate` and is
/// stamped with that instant on the daemon's simulated clock.
fn offer(
    r: &mut Rung,
    addr: SocketAddr,
    input: &Input,
    anchor: Instant,
    compression: f64,
) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    read_half.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let gap = Duration::from_secs_f64(1.0 / r.rate);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + gap * i as u32;
    let sent = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let offered = r.offered;

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reader = BufReader::new(read_half);
            let (mut ok, mut deferred, mut errors) = (0, 0, 0);
            let mut ack_us = Vec::with_capacity(offered);
            let mut line = String::new();
            loop {
                let answered = ok + deferred + errors;
                if answered == offered
                    || done.load(Ordering::SeqCst) && answered == sent.load(Ordering::SeqCst)
                {
                    break;
                }
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let latency = Instant::now().saturating_duration_since(due(answered));
                ack_us.push(latency.as_secs_f64() * 1e6);
                if line.contains("\"ok\":true") {
                    ok += 1;
                } else if line.contains("\"deferred\":true") {
                    deferred += 1;
                } else {
                    errors += 1;
                }
            }
            (ok, deferred, errors, ack_us)
        });

        let mut lag_us = Vec::with_capacity(offered);
        let mut buf = Vec::new();
        let mut i = 0;
        let mut result = Ok(());
        while i < offered {
            let now = Instant::now();
            let next = due(i);
            if next > now {
                std::thread::sleep(next - now);
                continue;
            }
            buf.clear();
            while i < offered && due(i) <= now {
                let stamp_ms = ((due(i) - anchor).as_secs_f64() * compression * 1e3) as u64;
                let _ = writeln!(
                    buf,
                    "{{\"op\":\"submit\",\"job\":{{\"arrival\":{stamp_ms}{}}}",
                    input.tails[i % input.tails.len()]
                );
                r.last_stamp_ms = stamp_ms;
                lag_us.push((now - due(i)).as_secs_f64() * 1e6);
                i += 1;
            }
            if let Err(e) = stream.write_all(&buf) {
                result = Err(e);
                break;
            }
            sent.store(i, Ordering::SeqCst);
            if now - next > ABANDON_LAG {
                break;
            }
        }
        done.store(true, Ordering::SeqCst);
        let (ok, deferred, errors, ack_us) = reader.join().expect("ack reader panicked");
        r.sent = sent.load(Ordering::SeqCst);
        r.ok = ok;
        r.deferred = deferred;
        r.errors = errors;
        r.ack_us = ack_us;
        r.lag_us = lag_us;
        result
    })
}

fn ladder_rate(k: i32) -> f64 {
    (REFERENCE_RATE * LADDER_STEP.powi(k)).round()
}

pub fn run(args: &Args, out: &mut Run, spans: &mut SpanLog) {
    let base = args.seed.wrapping_mul(1000);
    let secs = args.seconds.as_secs_f64();
    let reference_window = Duration::from_secs_f64(secs * 0.9);
    let climb_window = Duration::from_secs_f64(secs * 0.08);

    // Trace generation is timed over GENERATE_SAMPLES seeds; the first
    // three seeds' requests are prepared before any daemon runs, and
    // rungs take them in turn.
    let (mut generates, mut inputs) = (Vec::new(), Vec::new());
    let mut probe = HostProbe::new();
    for s in 0..GENERATE_SAMPLES {
        let t0 = Instant::now();
        let specs = FacebookTrace::new().seed(base + s).generate();
        generates.push(t0.elapsed().as_secs_f64());
        probe.sample();
        if s < 3 {
            inputs.push(prepare(specs));
            spans.record("serve.prepare", None, t0, &[("seed", (base + s) as f64)]);
        }
    }
    // Daemon start-up is timed over SPAWN_SAMPLES idle daemons as well as
    // every rung's, so one slow start does not decide `setup_s`.
    let mut spawns = Vec::new();
    for _ in 0..SPAWN_SAMPLES {
        match spawn_daemon(1.0) {
            Ok((handle, spawn)) => {
                spawns.push(spawn.as_secs_f64());
                probe.sample();
                handle.request_stop();
                let exit = handle.join();
                out.check(exit.is_ok(), || {
                    format!("serve-open: idle daemon exit: {exit:?}")
                });
            }
            Err(e) => out.check(false, || format!("serve-open: idle daemon: {e}")),
        }
    }
    let mut rungs_run = 0;
    let mut rung_at = |out: &mut Run, spans: &mut SpanLog, rate: f64, window: Duration| {
        let t0 = Instant::now();
        let r = rung(out, &inputs[rungs_run % inputs.len()], rate, window);
        rungs_run += 1;
        spawns.push(r.spawn.as_secs_f64());
        let lag_p99 = quantile(&mut r.lag_us.clone(), 0.99).unwrap_or(0.0);
        spans.record(
            format!("serve.rung[{rate}]"),
            None,
            t0,
            &[
                ("offered", r.offered as f64),
                ("ok", r.ok as f64),
                ("spawn_s", r.spawn.as_secs_f64()),
                ("ack_p50_us", r.ack_p(0.5)),
                ("ack_p99_us", r.ack_p(0.99)),
                ("lag_p99_us", lag_p99),
                ("engine_lag_ms", r.engine_lag.as_secs_f64() * 1e3),
            ],
        );
        eprintln!(
            "perfbench: serve-open {rate:>7}/s: {}/{} ok, ack p50 {:.0}us p99 {:.0}us \
             tail {:.0}us, send lag p99 {lag_p99:.0}us, engine lag {:.1}ms{}",
            r.ok,
            r.offered,
            r.ack_p(0.5),
            r.ack_p(0.99),
            r.tail_mean_us(),
            r.engine_lag.as_secs_f64() * 1e3,
            if r.meets_limits() {
                ""
            } else {
                "  [misses limits]"
            }
        );
        r
    };

    let reference = rung_at(out, spans, REFERENCE_RATE, reference_window);
    if !args.trace {
        out.peak_rss();
        eprintln!(
            "perfbench: serve-open: host probe {:.4}e8/s",
            probe.rate() / 1e8
        );
        out.metric(
            "setup_s",
            (median(&mut generates) + median(&mut spawns)) * probe.speed(),
            "s",
        );
        out.metric(
            "throughput_per_s",
            reference.ok as f64 / reference.cpu.as_secs_f64(),
            "1/s",
        );
        out.metric(
            "latency_us",
            sliced_median(&reference.ack_us, REFERENCE_SLICES, 0.5),
            "us",
        );
        return;
    }

    // Capacity: the highest rung that meets its limits. A rung fails only
    // when two windows in a row miss them, so one scheduling hiccup does
    // not end the climb.
    let up = reference.meets_limits();
    let mut meets = |out: &mut Run, spans: &mut SpanLog, k: i32| {
        (0..2).any(|_| rung_at(out, spans, ladder_rate(k), climb_window).meets_limits())
    };
    // Stride √2 at a time until the edge is crossed, then halve the gap
    // until it is one rung wide.
    let (mut pass, mut fail) = if up { (Some(0), None) } else { (None, Some(0)) };
    let step = if up { CLIMB_STRIDE } else { -CLIMB_STRIDE };
    let mut k: i32 = step;
    while k.abs() <= LADDER_RUNGS && pass.is_some() != fail.is_some() {
        if meets(out, spans, k) {
            pass = Some(k);
        } else {
            fail = Some(k);
        }
        k += step;
    }
    while let (Some(p), Some(f)) = (pass, fail) {
        if f - p < 2 {
            break;
        }
        let mid = (p + f) / 2;
        if meets(out, spans, mid) {
            pass = Some(mid);
        } else {
            fail = Some(mid);
        }
    }

    // The daemon's own digests at the reference rung and the layers a
    // submission crosses outside the engine. Only this workload has
    // them, so they are printed and kept in the spans rather than
    // reported as metrics.
    let daemon = |f: &dyn Fn(&MetricsResponse) -> f64| reference.daemon.as_ref().map_or(0.0, f);
    let input = &inputs[0];
    let stream = daemon_stream(&input.specs);
    let t0 = Instant::now();
    let lines: Vec<String> = stream
        .iter()
        .map(|spec| {
            format!(
                "{{\"op\":\"submit\",\"job\":{}}}",
                serde_json::to_string(spec).expect("job spec serialization cannot fail")
            )
        })
        .collect();
    let (mut parse, mut to_lines) = (Vec::new(), Vec::new());
    let mut parsed = 0;
    for (id, line) in lines.iter().enumerate() {
        let t = Instant::now();
        parsed += usize::from(Request::parse(line).is_ok());
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(to_line(&SubmitResponse {
            ok: true,
            id: id as u32,
        }));
        to_lines.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.check(parsed == lines.len(), || {
        format!(
            "serve-open: {parsed} of {} request lines parsed",
            lines.len()
        )
    });
    let serve_split = [
        ("capacity_per_s", pass.map_or(0.0, ladder_rate)),
        (
            "ack_p99_us",
            sliced_median(&reference.ack_us, REFERENCE_SLICES, 0.99),
        ),
        ("serve.spawn_s", median(&mut spawns)),
        ("serve.engine_ack_p99_us", daemon(&|m| m.ack.p99_us)),
        ("serve.decision_p50_us", daemon(&|m| m.decision.p50_us)),
        ("serve.decision_p99_us", daemon(&|m| m.decision.p99_us)),
        (
            "loadgen.lag_p99_us",
            sliced_median(&reference.lag_us, REFERENCE_SLICES, 0.99),
        ),
        ("protocol.parse_us", median(&mut parse)),
        ("protocol.to_line_us", median(&mut to_lines)),
    ];
    spans.record("serve.split", None, t0, &serve_split);
    for (name, value) in serve_split {
        eprintln!("perfbench: serve-open {name} {value:.3}");
    }

    // The engine's share: submit the reference stream live into an empty
    // simulation built as the daemon builds its own, run it batch by
    // batch through the timing wrapper, and compare with the same jobs
    // run untraced in one call.
    let kind = SchedulerKind::las_mq_simulations();
    let mut split = Split {
        generate_s: generates,
        units: 1,
        probe_per_s: probe.rate(),
        ..Split::default()
    };
    let t0 = Instant::now();
    let t = Instant::now();
    let (scheduler, tally) = Traced::new(kind.build());
    let mut sim =
        SimSetup::trace_sim().build_simulation_with(Vec::new(), scheduler, kind.requires_oracle());
    split.build_s.push(t.elapsed().as_secs_f64());
    let mut accepted = 0;
    for spec in stream.iter().cloned() {
        let t = Instant::now();
        accepted += usize::from(sim.submit(spec).is_ok());
        split.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.check(accepted == stream.len(), || {
        format!(
            "serve-open: live submit accepted {accepted} of {} jobs",
            stream.len()
        )
    });
    split.wall = step_all(&mut sim, &mut split.batches);
    let report = sim.into_report();
    out.check(report.all_completed(), || {
        "serve-open: in-process replay left jobs unfinished".into()
    });
    split.tally.add(&tally.borrow());
    split.first_counts = [
        report.stats().events_processed,
        report.stats().scheduling_passes,
        split.batches.count,
        split.tally.allocate_calls,
    ];
    let untraced = SimSetup::trace_sim().build_simulation(stream, &kind);
    let t = Instant::now();
    let plain = untraced.run();
    let plain_wall = t.elapsed();
    out.check(report_digest(&plain) == report_digest(&report), || {
        "serve-open: live-submitted and up-front replays decided differently".into()
    });
    spans.record(
        "serve.engine_replay",
        None,
        t0,
        &[("batches", split.batches.count as f64)],
    );
    split.overhead_ratio = split.wall.as_secs_f64() / plain_wall.as_secs_f64();

    // The daemon's own schedule depends on when each request arrived in
    // wall time, so schedule quality comes from the daemon streams of
    // QUALITY_SEEDS seeds submitted live into the engine in-process,
    // where it is deterministic for the seed.
    for s in 0..QUALITY_SEEDS {
        let stream = daemon_stream(&FacebookTrace::new().seed(base + s).generate());
        let jobs = stream.len();
        let mut sim = SimSetup::trace_sim().build_simulation(Vec::new(), &kind);
        let accepted = stream
            .into_iter()
            .map(|spec| sim.submit(spec))
            .filter(Result::is_ok)
            .count();
        let report = sim.run();
        out.check(accepted == jobs && report.all_completed(), || {
            format!(
                "serve-open: in-process replay of seed {}: {accepted} of {jobs} \
                 submitted, {} completed",
                base + s,
                report.completed_count()
            )
        });
        split.quality.add(&report);
    }
    split.report(out);
}
