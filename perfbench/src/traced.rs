//! Tracing from outside the program: a delegating scheduler wrapper, a
//! timed batch loop, and an in-memory span log written out at the end.
//!
//! Nothing inside the engine is instrumented. [`Traced`] forwards every
//! `Scheduler` method unchanged — including `allocate_into` (so the
//! scheduler's allocation-free path stays the one that runs),
//! `requires_oracle`, `snapshot_state`, `restore_state` and
//! `check_consistency` — and only times the calls and counts what the
//! engine hands over. The engine's changed-job hint reaches the inner
//! scheduler untouched, so incremental passes behave exactly as untraced.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use lasmq_campaign::{SchedulerKind, SimSetup};
use lasmq_simulator::{
    AllocationPlan, JobId, JobSpec, JobView, QueueDemotion, SchedContext, Scheduler, SimTime,
    Simulation,
};

use crate::stats::{median, Quality, Samples};
use crate::Run;

/// What the wrapper observed across every call it forwarded.
#[derive(Debug, Default)]
pub struct Tally {
    /// Time inside `allocate` / `allocate_into`.
    pub allocate: Duration,
    pub allocate_calls: u64,
    pub allocate_samples: Samples,
    /// Time inside the admission / stage / completion callbacks.
    pub callbacks: Duration,
    /// Job views the engine passed to allocate, summed over passes.
    pub views: u64,
    /// Views the engine marked changed (all of them on a full pass).
    pub changed: u64,
}

impl Tally {
    /// Pools `other` into this tally.
    pub fn add(&mut self, other: &Tally) {
        self.allocate += other.allocate;
        self.allocate_calls += other.allocate_calls;
        self.allocate_samples.extend(&other.allocate_samples);
        self.callbacks += other.callbacks;
        self.views += other.views;
        self.changed += other.changed;
    }
}

/// A scheduler wrapper that times every call into the inner scheduler.
pub struct Traced<S> {
    inner: S,
    tally: Rc<RefCell<Tally>>,
}

impl<S: Scheduler> Traced<S> {
    /// Wraps `inner`; the returned tally fills in as the engine calls it.
    pub fn new(inner: S) -> (Self, Rc<RefCell<Tally>>) {
        let tally = Rc::new(RefCell::new(Tally::default()));
        (
            Traced {
                inner,
                tally: Rc::clone(&tally),
            },
            tally,
        )
    }

    fn callback<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        self.tally.borrow_mut().callbacks += t0.elapsed();
        r
    }

    fn allocation<R>(&mut self, ctx: &SchedContext<'_>, f: impl FnOnce(&mut S) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let d = t0.elapsed();
        let mut t = self.tally.borrow_mut();
        t.allocate += d;
        t.allocate_calls += 1;
        t.allocate_samples.record(d);
        t.views += ctx.jobs().len() as u64;
        t.changed += ctx.changed().map_or(ctx.jobs().len(), <[usize]>::len) as u64;
        r
    }
}

impl<S: Scheduler> Scheduler for Traced<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn requires_oracle(&self) -> bool {
        self.inner.requires_oracle()
    }

    fn on_job_admitted(&mut self, view: &JobView, now: SimTime) {
        self.callback(|s| s.on_job_admitted(view, now));
    }

    fn on_stage_completed(&mut self, job: JobId, new_stage_index: usize, now: SimTime) {
        self.callback(|s| s.on_stage_completed(job, new_stage_index, now));
    }

    fn on_job_completed(&mut self, job: JobId, now: SimTime) {
        self.callback(|s| s.on_job_completed(job, now));
    }

    fn allocate(&mut self, ctx: &SchedContext<'_>) -> AllocationPlan {
        self.allocation(ctx, |s| s.allocate(ctx))
    }

    fn allocate_into(&mut self, ctx: &SchedContext<'_>, plan: &mut AllocationPlan) {
        self.allocation(ctx, |s| s.allocate_into(ctx, plan));
    }

    fn queue_depths(&self) -> Option<Vec<u32>> {
        self.inner.queue_depths()
    }

    fn drain_demotions(&mut self) -> Vec<QueueDemotion> {
        self.inner.drain_demotions()
    }

    fn snapshot_state(&self) -> Option<String> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore_state(state)
    }

    fn check_consistency(&self) -> Result<(), String> {
        self.inner.check_consistency()
    }
}

/// Per-batch timings of a run driven through [`Simulation::step_batch`].
#[derive(Debug, Default)]
pub struct Batches {
    pub count: u64,
    pub samples: Samples,
}

/// Runs `sim` to completion one timestamp batch at a time, timing each
/// batch. Returns the wall time of the whole loop.
pub fn step_all<S: Scheduler>(sim: &mut Simulation<S>, batches: &mut Batches) -> Duration {
    let limit = SimTime::from_millis(u64::MAX);
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        if !sim.step_batch(limit) {
            break;
        }
        batches.samples.record(t0.elapsed());
        batches.count += 1;
    }
    start.elapsed()
}

/// Host time of each `Simulation::submit` call, in microseconds, with
/// `jobs` live-submitted into an empty simulation built by `setup` (the
/// path the daemon takes). The simulation is dropped unrun; every
/// submission must be accepted.
pub fn submit_us(
    out: &mut Run,
    label: &str,
    setup: &SimSetup,
    kind: &SchedulerKind,
    jobs: &[JobSpec],
) -> Vec<f64> {
    let mut sim = setup.build_simulation(Vec::new(), kind);
    let mut accepted = 0;
    let us = jobs
        .iter()
        .map(|spec| {
            let spec = spec.clone();
            let t = Instant::now();
            accepted += usize::from(sim.submit(spec).is_ok());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.check(accepted == jobs.len(), || {
        format!(
            "{label}: live submit accepted {accepted} of {} jobs",
            jobs.len()
        )
    });
    us
}

/// The per-layer split every workload's traced run reports, pooled over
/// its traced units (a replay; on fb-zoo, one slice under every member).
#[derive(Debug, Default)]
pub struct Split {
    /// Host seconds to generate one unit's trace.
    pub generate_s: Vec<f64>,
    /// Host seconds to build one unit's simulation(s).
    pub build_s: Vec<f64>,
    /// Host microseconds of each live `Simulation::submit`.
    pub submit_us: Vec<f64>,
    /// Scheduler calls, pooled over every traced unit.
    pub tally: Tally,
    pub batches: Batches,
    /// Wall time of the traced step loops, summed.
    pub wall: Duration,
    pub units: u64,
    /// Events, scheduling passes, batches and allocate calls of the
    /// first traced unit: deterministic for a seed.
    pub first_counts: [u64; 4],
    /// Untraced over traced engine events per second.
    pub overhead_ratio: f64,
    /// Simulated schedule quality over a fixed set of the run's seeds.
    pub quality: Quality,
    /// Mean speed of the host probe over the run, operations per second.
    pub probe_per_s: f64,
}

impl Split {
    /// Reports the per-layer metrics.
    pub fn report(mut self, out: &mut Run) {
        let per_unit = |d: Duration| d.as_secs_f64() / self.units.max(1) as f64;
        let t = &self.tally;
        let calls = t.allocate_calls.max(1) as f64;
        let [events, passes, batches, allocate_calls] = self.first_counts;
        out.metric("workload.generate_s", median(&mut self.generate_s), "s");
        out.metric("simulator.build_s", median(&mut self.build_s), "s");
        out.metric("simulator.submit_us", median(&mut self.submit_us), "us");
        out.metric(
            "simulator.self_s",
            per_unit(self.wall.saturating_sub(t.allocate + t.callbacks)),
            "s",
        );
        out.metric(
            "simulator.batch_p50_us",
            self.batches.samples.percentile_us(50.0),
            "us",
        );
        out.metric(
            "simulator.batch_p99_us",
            self.batches.samples.percentile_us(99.0),
            "us",
        );
        out.metric("simulator.views_per_pass", t.views as f64 / calls, "count");
        out.metric(
            "simulator.changed_per_pass",
            t.changed as f64 / calls,
            "count",
        );
        out.metric(
            "simulator.changed_ratio",
            t.changed as f64 / t.views.max(1) as f64,
            "ratio",
        );
        out.metric("core.allocate_s", per_unit(t.allocate), "s");
        out.metric(
            "core.allocate_share",
            t.allocate.as_secs_f64() / self.wall.as_secs_f64(),
            "ratio",
        );
        out.metric(
            "core.allocate_p99_us",
            t.allocate_samples.percentile_us(99.0),
            "us",
        );
        out.metric("core.callback_s", per_unit(t.callbacks), "s");
        out.metric("simulator.events", events as f64, "count");
        out.metric("simulator.passes", passes as f64, "count");
        out.metric("simulator.batches", batches as f64, "count");
        out.metric("core.allocate_calls", allocate_calls as f64, "count");
        out.metric("trace.overhead_ratio", self.overhead_ratio, "ratio");
        out.metric("host.probe_per_s", self.probe_per_s, "1/s");
        self.quality.report(out);
    }
}

/// One recorded span: a named interval, the span that caused it, and
/// the counts measured inside it.
#[derive(Debug)]
struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    start: Duration,
    end: Duration,
    fields: Vec<(String, f64)>,
}

/// Spans kept in memory during a traced run and written once at the end.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        self.record(name, parent, Instant::now(), &[])
    }

    /// Ends span `id` now and attaches the counts measured inside it.
    pub fn close(&mut self, id: usize, fields: &[(&str, f64)]) {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.fields = fields.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    }

    /// Records a finished span that began at `start` and ends now;
    /// returns its id for children to name as parent.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        fields: &[(&str, f64)],
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start: start.saturating_duration_since(self.origin),
            end: self.origin.elapsed(),
            fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
        id
    }

    /// Writes one JSON object per span, one per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
            for (k, v) in &s.fields {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
