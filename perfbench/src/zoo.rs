//! The `fb-zoo` workload: a Facebook-trace slice under every scheduler
//! of `SchedulerKind::zoo()`, run as one campaign per trace seed through
//! `Campaign::try_run` on two worker threads without the result cache.
//! Closed-loop: campaigns run back to back over trace seeds
//! `1000·N .. 1000·N + 48` until the run has lasted `--seconds`.
//!
//! The traced run splits `--seconds` in three: each zoo member run
//! directly and untraced, the same runs through the timing wrapper (for
//! the per-scheduler split and the tracing overhead), and the campaign
//! again for the runner's own figures.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lasmq_campaign::{
    profile, Campaign, ExecOptions, RunCell, SchedulerKind, SimSetup, WorkloadSpec,
};
use lasmq_simulator::SimulationReport;

use crate::stats::{median, report_digest, HostProbe, Quality};
use crate::traced::{step_all, submit_us, SpanLog, Split, Traced};
use crate::{gate, Args, Run};

/// Jobs per trace slice: a campaign of one slice under the whole zoo
/// takes about half a second on two threads, so a run holds dozens.
const SLICE_JOBS: usize = 4_000;

/// Trace seeds a run cycles through.
const SEEDS: u64 = 48;

/// Trace seeds whose first runs the traced run's quality metrics pool.
const QUALITY_SEEDS: u64 = 4;

/// Campaign worker threads (the benchmark machine's core count).
const THREADS: usize = 2;

/// Jobs per slice in the correctness gate.
const GATE_JOBS: usize = 200;

fn workload(seed: u64) -> WorkloadSpec {
    WorkloadSpec::Facebook {
        jobs: SLICE_JOBS,
        seed,
        load: None,
    }
}

/// First digest of every (seed, scheduler) pair, which later runs must
/// match, and the schedule quality of those first runs pooled over the
/// seeds below `quality_until`.
#[derive(Default)]
struct Digests {
    first: HashMap<(u64, usize), u64>,
    quality: Quality,
    quality_until: u64,
}

impl Digests {
    fn check(&mut self, run: &mut Run, seed: u64, kind: &SchedulerKind, report: &SimulationReport) {
        run.check(report.all_completed(), || {
            format!("fb-zoo seed {seed} {kind}: not every job completed")
        });
        let digest = report_digest(report);
        match self.first.get(&(seed, kind.variant_index())) {
            None => {
                self.first.insert((seed, kind.variant_index()), digest);
                if seed < self.quality_until {
                    self.quality.add(report);
                }
            }
            Some(&first) => run.check(first == digest, || {
                format!("fb-zoo seed {seed} {kind}: run diverged from the first run")
            }),
        }
    }
}

/// Zoo members by descending cost on this trace (FSP and WFP3 take
/// several times LAS's time). Cells are claimed in order, so the longest
/// start first and the two workers finish close together.
const COST_ORDER: [&str; 13] = [
    "FSP", "WFP3", "HFSP", "UNICEF", "SJF-est", "SRTF", "SJF", "FAIR", "FIFO", "LEARNED", "PS",
    "LAS_MQ", "LAS",
];

/// One campaign over the whole zoo on the slice of `seed`. Returns its
/// wall time and the events and scheduling passes it processed.
fn campaign(
    run: &mut Run,
    digests: &mut Digests,
    zoo: &[SchedulerKind],
    seed: u64,
) -> (Duration, u64, u64) {
    let mut campaign = Campaign::new("perfbench-zoo");
    let mut cells = Vec::new();
    for name in COST_ORDER {
        let kind = zoo
            .iter()
            .find(|k| k.to_string() == name)
            .expect("every zoo member has a place in COST_ORDER");
        campaign.push(RunCell::new(
            format!("zoo/{seed}/{kind}"),
            kind.clone(),
            workload(seed),
            SimSetup::trace_sim(),
        ));
        cells.push(kind);
    }
    let start = Instant::now();
    let result = campaign.try_run(&ExecOptions::with_threads(THREADS).no_cache());
    let wall = start.elapsed();
    match result {
        Ok(result) => {
            let (mut events, mut passes) = (0, 0);
            for (kind, report) in cells.iter().zip(&result.reports) {
                digests.check(run, seed, kind, report);
                events += report.stats().events_processed;
                passes += report.stats().scheduling_passes;
            }
            (wall, events, passes)
        }
        Err(e) => {
            run.check(false, || format!("fb-zoo seed {seed}: {e}"));
            (wall, 0, 0)
        }
    }
}

/// Set-up as a campaign pays it: generate the slice, then build one
/// simulation per zoo member.
fn setup_time(zoo: &[SchedulerKind], seed: u64) -> (Duration, Duration) {
    let t0 = Instant::now();
    let jobs = workload(seed).generate();
    let generate = t0.elapsed();
    let t1 = Instant::now();
    for kind in zoo {
        std::hint::black_box(SimSetup::trace_sim().build_simulation(jobs.clone(), kind));
    }
    (generate, t1.elapsed())
}

pub fn run(args: &Args, out: &mut Run, spans: &mut SpanLog) {
    let zoo = SchedulerKind::zoo();
    let base = args.seed.wrapping_mul(1000);

    let t_gate = Instant::now();
    let gate_jobs = WorkloadSpec::Facebook {
        jobs: GATE_JOBS,
        seed: base,
        load: None,
    }
    .generate();
    gate::check(out, "fb-zoo", &gate_jobs, &zoo, (1, 100));
    spans.record(
        "gate.differential",
        None,
        t_gate,
        &[("cells", zoo.len() as f64)],
    );

    let mut digests = Digests::default();
    let mut probe = HostProbe::new();

    if !args.trace {
        let mut setups = Vec::new();
        let (mut wall, mut events, mut passes) = (Duration::ZERO, 0u64, 0u64);
        let phase = Instant::now();
        let mut i = 0u64;
        while i == 0 || phase.elapsed() < args.seconds {
            let seed = base + i % SEEDS;
            let (generate, build) = setup_time(&zoo, seed);
            setups.push((generate + build).as_secs_f64());
            let (w, e, p) = campaign(out, &mut digests, &zoo, seed);
            wall += w;
            events += e;
            passes += p;
            probe.sample();
            i += 1;
        }
        let rate = events as f64 / wall.as_secs_f64();
        eprintln!(
            "perfbench: fb-zoo: {i} campaigns, {events} events in {:.3}s = {rate:.0} events/s; \
             host probe {:.4}e8/s",
            wall.as_secs_f64(),
            probe.rate() / 1e8
        );
        let speed = probe.speed();
        out.metric("setup_s", median(&mut setups) * speed, "s");
        out.metric("throughput_per_s", rate / speed, "1/s");
        // Worker time per pass: both threads are busy for the campaign's
        // wall time, bar the tail where the last cell finishes alone.
        out.metric(
            "latency_us",
            wall.as_secs_f64() * 1e6 * THREADS as f64 / passes.max(1) as f64 * speed,
            "us",
        );
        return;
    }

    digests.quality_until = base + QUALITY_SEEDS;
    digests
        .quality
        .reserve(zoo.len() * QUALITY_SEEDS as usize * SLICE_JOBS);
    let third = args.seconds / 3;
    let mut split = Split::default();

    // (1) Each member directly, untraced: the overhead baseline.
    let phase = Instant::now();
    let (mut plain_events, mut plain_time, mut i) = (0u64, Duration::ZERO, 0u64);
    while i == 0 || phase.elapsed() < third {
        let seed = base + i % SEEDS;
        let (generate, build) = setup_time(&zoo, seed);
        split.generate_s.push(generate.as_secs_f64());
        split.build_s.push(build.as_secs_f64());
        let jobs = workload(seed).generate();
        for kind in &zoo {
            let sim = SimSetup::trace_sim().build_simulation(jobs.clone(), kind);
            let t0 = Instant::now();
            let report = sim.run();
            plain_time += t0.elapsed();
            plain_events += report.stats().events_processed;
            digests.check(out, seed, kind, &report);
        }
        probe.sample();
        i += 1;
    }
    spans.record("zoo.untraced", None, phase, &[("passes", i as f64)]);

    // (2) The same runs through the timing wrapper.
    let jobs = workload(base).generate();
    for kind in &zoo {
        let t = submit_us(out, "fb-zoo", &SimSetup::trace_sim(), kind, &jobs);
        split.submit_us.extend(t);
    }
    let phase = Instant::now();
    let root = spans.open("zoo.traced", None);
    let mut traced_events = 0u64;
    let mut per_kind = vec![(Duration::ZERO, Duration::ZERO); zoo.len()];
    while split.units == 0 || phase.elapsed() < third {
        let seed = base + split.units % SEEDS;
        let jobs = workload(seed).generate();
        for (k, kind) in zoo.iter().enumerate() {
            let t0 = Instant::now();
            let (scheduler, tally) = Traced::new(kind.build());
            let mut sim = SimSetup::trace_sim().build_simulation_with(
                jobs.clone(),
                scheduler,
                kind.requires_oracle(),
            );
            let batches_before = split.batches.count;
            let wall = step_all(&mut sim, &mut split.batches);
            let report = sim.into_report();
            let t = tally.borrow();
            if split.units == 0 {
                let c = &mut split.first_counts;
                c[0] += report.stats().events_processed;
                c[1] += report.stats().scheduling_passes;
                c[2] += split.batches.count - batches_before;
                c[3] += t.allocate_calls;
            }
            split.tally.add(&t);
            per_kind[k].0 += t.allocate;
            per_kind[k].1 += wall.saturating_sub(t.allocate + t.callbacks);
            split.wall += wall;
            traced_events += report.stats().events_processed;
            spans.record(
                format!("zoo.run[{kind}]"),
                Some(root),
                t0,
                &[
                    ("run_s", wall.as_secs_f64()),
                    ("allocate_s", t.allocate.as_secs_f64()),
                    ("callback_s", t.callbacks.as_secs_f64()),
                ],
            );
            digests.check(out, seed, kind, &report);
        }
        split.units += 1;
    }
    spans.close(root, &[("passes", split.units as f64)]);
    // The per-member split: seconds per slice inside allocate and in the
    // engine itself. Only fb-zoo runs every member, so it is printed and
    // kept in the spans rather than reported as metrics.
    for (kind, (allocate, self_time)) in zoo.iter().zip(&per_kind) {
        let per_slice = |d: &Duration| d.as_secs_f64() / split.units as f64;
        eprintln!(
            "perfbench: fb-zoo {:<8} schedulers.allocate_s {:.4}  simulator.self_s {:.4}",
            kind.to_string(),
            per_slice(allocate),
            per_slice(self_time)
        );
    }

    // (3) The campaign runner itself, with its cell-time counters on.
    profile::set_enabled(true);
    let before = profile::snapshot();
    let phase = Instant::now();
    let (mut campaign_wall, mut campaigns) = (Duration::ZERO, 0u64);
    while campaigns == 0 || phase.elapsed() < args.seconds - 2 * third {
        let seed = base + campaigns % SEEDS;
        let (w, _, _) = campaign(out, &mut digests, &zoo, seed);
        campaign_wall += w;
        campaigns += 1;
    }
    let cells = profile::snapshot().since(&before);
    profile::set_enabled(false);
    let per_campaign = |d: Duration| d.as_secs_f64() / campaigns as f64;
    let busy = cells.sim_wall.as_secs_f64() / (THREADS as f64 * campaign_wall.as_secs_f64());
    spans.record(
        "zoo.campaigns",
        None,
        phase,
        &[
            ("campaigns", campaigns as f64),
            ("wall_s", per_campaign(campaign_wall)),
            ("cell_s_sum", per_campaign(cells.sim_wall)),
            ("pool_busy_ratio", busy),
        ],
    );
    eprintln!(
        "perfbench: fb-zoo campaign.wall_s {:.4}  campaign.cell_s_sum {:.4}  \
         campaign.pool_busy_ratio {busy:.3}",
        per_campaign(campaign_wall),
        per_campaign(cells.sim_wall)
    );

    // Complete the quality seeds the phases above did not reach.
    for seed in base..base + QUALITY_SEEDS {
        let jobs = workload(seed).generate();
        for kind in &zoo {
            if !digests.first.contains_key(&(seed, kind.variant_index())) {
                let report = SimSetup::trace_sim()
                    .build_simulation(jobs.clone(), kind)
                    .run();
                digests.check(out, seed, kind, &report);
            }
        }
    }
    split.quality = digests.quality;
    split.probe_per_s = probe.rate();
    split.overhead_ratio = (plain_events as f64 / plain_time.as_secs_f64())
        / (traced_events as f64 / split.wall.as_secs_f64());
    split.report(out);
}
