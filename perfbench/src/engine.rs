//! The two engine workloads: `fb-lasmq` and `scale-lasmq`.
//!
//! Both replay LAS_MQ over consecutive trace seeds, closed-loop: the next
//! replay starts when the previous one finished, until the run has lasted
//! `--seconds`. A run with `--seed N` cycles through trace seeds
//! `1000·N .. 1000·N + K`. The traced run's `sim_*` quality metrics
//! always cover all `K` seeds once (seeds the timed phases did not reach
//! are replayed untimed afterwards), so they are bit-for-bit the same on
//! every run of the same seed; every repeated replay of a seed must
//! reproduce the first one's digest.

use std::time::{Duration, Instant};

use lasmq_campaign::{SchedulerKind, SimSetup};
use lasmq_simulator::{JobSpec, SimulationReport};
use lasmq_workload::{FacebookTrace, ScaleTrace};

use crate::stats::{median, report_digest, HostProbe, Quality};
use crate::traced::{step_all, submit_us, SpanLog, Split, Traced};
use crate::{gate, Args, Run};

/// Which trace an engine workload replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trace {
    /// The full 24,443-job Facebook-2010-shaped trace on the §V-C flat
    /// 100-container pool (the BENCH_5 regime).
    Facebook,
    /// A slice of the million-job scale trace on its 1,000×8 cluster
    /// (the BENCH_7 regime, cut to seconds per replay).
    Scale,
}

/// Jobs per scale-trace slice: long enough for the ~180-job steady
/// state of concurrently active jobs, short enough for several replays
/// per run.
const SCALE_SLICE_JOBS: usize = 20_000;

/// Jobs per slice in the correctness gate: the reference executor is
/// naive, so the slice stays small.
const GATE_JOBS: usize = 300;

impl Trace {
    fn label(self) -> &'static str {
        match self {
            Trace::Facebook => "fb-lasmq",
            Trace::Scale => "scale-lasmq",
        }
    }

    /// Trace seeds a run cycles through; the `sim_*` metrics pool all of
    /// them, so this sets their seed-to-seed spread.
    fn seeds(self) -> u64 {
        match self {
            Trace::Facebook => 48,
            Trace::Scale => 6,
        }
    }

    fn generate(self, seed: u64) -> Vec<JobSpec> {
        match self {
            Trace::Facebook => FacebookTrace::new().seed(seed).generate(),
            Trace::Scale => ScaleTrace::new()
                .jobs(SCALE_SLICE_JOBS)
                .seed(seed)
                .generate(),
        }
    }

    fn setup(self) -> SimSetup {
        match self {
            Trace::Facebook => SimSetup::trace_sim(),
            Trace::Scale => {
                let cluster = ScaleTrace::new().cluster();
                SimSetup::scale_sim(cluster.nodes(), cluster.containers_per_node())
            }
        }
    }

    /// A downscaled slice of the same generator and its cluster shape.
    fn gate_slice(self, seed: u64) -> (Vec<JobSpec>, (u32, u32)) {
        match self {
            Trace::Facebook => (
                FacebookTrace::new().jobs(GATE_JOBS).seed(seed).generate(),
                (1, 100),
            ),
            Trace::Scale => (
                ScaleTrace::new()
                    .jobs(GATE_JOBS)
                    .nodes(25, 8)
                    .seed(seed)
                    .generate(),
                (25, 8),
            ),
        }
    }
}

/// Per-seed state kept across the replays of one run: each seed's
/// first digest, and (in a traced run) the quality of first replays
/// pooled.
struct SeedLog {
    digest: Vec<Option<u64>>,
    quality: Option<Quality>,
}

impl SeedLog {
    fn new(seeds: u64, keep_quality: bool) -> Self {
        SeedLog {
            digest: vec![None; seeds as usize],
            quality: keep_quality.then(Quality::default),
        }
    }

    /// Checks that `report` completed every job and, for a seed already
    /// replayed, reproduced its first digest exactly.
    fn check(&mut self, run: &mut Run, label: &str, slot: usize, report: &SimulationReport) {
        run.check(report.all_completed(), || {
            format!(
                "{label} seed slot {slot}: {} of {} jobs completed",
                report.completed_count(),
                report.outcomes().len()
            )
        });
        let digest = report_digest(report);
        match self.digest[slot] {
            None => {
                if let Some(quality) = &mut self.quality {
                    if self.digest.iter().all(Option::is_none) {
                        quality.reserve(self.digest.len() * report.outcomes().len());
                    }
                    quality.add(report);
                }
                self.digest[slot] = Some(digest);
            }
            Some(first) => run.check(first == digest, || {
                format!("{label} seed slot {slot}: replay diverged from the first replay")
            }),
        }
    }
}

/// One untraced replay: generate, build and run timed separately.
struct Replay {
    generate: Duration,
    build: Duration,
    run: Duration,
    report: SimulationReport,
}

fn replay(trace: Trace, setup: &SimSetup, kind: &SchedulerKind, seed: u64) -> Replay {
    let t0 = Instant::now();
    let jobs = trace.generate(seed);
    let generate = t0.elapsed();
    let t1 = Instant::now();
    let sim = setup.build_simulation(jobs, kind);
    let build = t1.elapsed();
    let t2 = Instant::now();
    let report = sim.run();
    Replay {
        generate,
        build,
        run: t2.elapsed(),
        report,
    }
}

pub fn run(trace: Trace, args: &Args, out: &mut Run, spans: &mut SpanLog) {
    let label = trace.label();
    let kind = SchedulerKind::las_mq_simulations();
    let setup = trace.setup();
    let base = args.seed.wrapping_mul(1000);
    let seeds = trace.seeds();

    let t_gate = Instant::now();
    let (gate_jobs, cluster) = trace.gate_slice(base);
    gate::check(out, label, &gate_jobs, std::slice::from_ref(&kind), cluster);
    spans.record(
        "gate.differential",
        None,
        t_gate,
        &[("jobs", GATE_JOBS as f64)],
    );

    let mut log = SeedLog::new(seeds, args.trace);
    let untraced_budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };

    // Untraced phase: the end-to-end numbers.
    let mut setups = Vec::new();
    let mut split = Split::default();
    let (mut events, mut passes, mut run_time) = (0u64, 0u64, Duration::ZERO);
    let mut probe = HostProbe::new();
    let phase = Instant::now();
    let mut i = 0u64;
    while i == 0 || phase.elapsed() < untraced_budget {
        let slot = (i % seeds) as usize;
        let r = replay(trace, &setup, &kind, base + slot as u64);
        setups.push((r.generate + r.build).as_secs_f64());
        split.generate_s.push(r.generate.as_secs_f64());
        split.build_s.push(r.build.as_secs_f64());
        let stats = r.report.stats();
        events += stats.events_processed;
        passes += stats.scheduling_passes;
        run_time += r.run;
        log.check(out, label, slot, &r.report);
        probe.sample();
        i += 1;
    }
    let untraced_rate = events as f64 / run_time.as_secs_f64();
    spans.record(
        "engine.untraced",
        None,
        phase,
        &[("replays", i as f64), ("events", events as f64)],
    );
    eprintln!(
        "perfbench: {label}: {i} untraced replays, {events} events in {:.3}s = {untraced_rate:.0} \
         events/s; host probe {:.4}e8/s",
        run_time.as_secs_f64(),
        probe.rate() / 1e8
    );

    if !args.trace {
        let speed = probe.speed();
        out.metric("setup_s", median(&mut setups) * speed, "s");
        out.metric("throughput_per_s", untraced_rate / speed, "1/s");
        out.metric(
            "latency_us",
            run_time.as_secs_f64() * 1e6 / passes.max(1) as f64 * speed,
            "us",
        );
        return;
    }

    // Traced phase: the same replays through the timing wrapper and a
    // per-batch step loop.
    split.submit_us = submit_us(out, label, &setup, &kind, &trace.generate(base));
    let (mut traced_run, mut traced_events) = (Duration::ZERO, 0u64);
    let phase = Instant::now();
    let root = spans.open("engine.traced", None);
    while split.units == 0 || phase.elapsed() < args.seconds - untraced_budget {
        let slot = split.units % seeds;
        let t0 = Instant::now();
        let jobs = trace.generate(base + slot);
        let (scheduler, tally) = Traced::new(kind.build());
        let mut sim = setup.build_simulation_with(jobs, scheduler, kind.requires_oracle());
        let batches_before = split.batches.count;
        let wall = step_all(&mut sim, &mut split.batches);
        let report = sim.into_report();
        let t = tally.borrow();
        let replay_batches = split.batches.count - batches_before;
        spans.record(
            format!("engine.replay[{slot}]"),
            Some(root),
            t0,
            &[
                ("run_s", wall.as_secs_f64()),
                ("allocate_s", t.allocate.as_secs_f64()),
                ("callback_s", t.callbacks.as_secs_f64()),
                ("allocate_calls", t.allocate_calls as f64),
                ("batches", replay_batches as f64),
            ],
        );
        if split.units == 0 {
            split.first_counts = [
                report.stats().events_processed,
                report.stats().scheduling_passes,
                replay_batches,
                t.allocate_calls,
            ];
        }
        split.tally.add(&t);
        traced_run += wall;
        traced_events += report.stats().events_processed;
        log.check(out, label, slot as usize, &report);
        split.units += 1;
    }
    spans.close(root, &[("replays", split.units as f64)]);
    // Complete the seed set so the quality metrics always pool all of it.
    for slot in 0..seeds {
        if log.digest[slot as usize].is_none() {
            let r = replay(trace, &setup, &kind, base + slot);
            log.check(out, label, slot as usize, &r.report);
        }
    }
    split.quality = log.quality.take().unwrap_or_default();
    split.probe_per_s = probe.rate();
    split.wall = traced_run;
    split.overhead_ratio = untraced_rate / (traced_events as f64 / traced_run.as_secs_f64());
    split.report(out);
}
