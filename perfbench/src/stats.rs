//! Small measurement helpers: order statistics, peak memory, digests.

use lasmq_simulator::SimulationReport;

use crate::Run;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks. Sorts `values` in place. `None` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(values[lo] + (values[hi] - values[lo]) * (pos - lo as f64))
}

/// The median of `values` (sorts in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Up to [`Samples::CAP`] durations in nanoseconds, kept exactly so
/// percentiles carry every digit instead of a histogram bucket's.
#[derive(Debug, Default)]
pub struct Samples {
    ns: Vec<u32>,
}

impl Samples {
    /// Samples kept per series; later ones are dropped. Caps memory at
    /// 16 MB per series on long traced runs.
    const CAP: usize = 4 << 20;

    pub fn record(&mut self, d: std::time::Duration) {
        if self.ns.len() < Self::CAP {
            self.ns.push(d.as_nanos().min(u32::MAX as u128) as u32);
        }
    }

    /// Appends `other`'s samples, up to the cap.
    pub fn extend(&mut self, other: &Samples) {
        let room = Self::CAP.saturating_sub(self.ns.len());
        self.ns.extend(other.ns.iter().take(room));
    }

    /// The `p`-th percentile (0..=100) in microseconds; 0 when empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut us: Vec<f64> = self.ns.iter().map(|&n| n as f64 / 1e3).collect();
        quantile(&mut us, p / 100.0).unwrap_or(0.0)
    }
}

/// A fixed memory-bound probe of the host's speed, run between a run's
/// timed units.
///
/// On a shared host, other tenants' cache and memory traffic slow the
/// engine by up to a third for minutes at a time. The probe — random
/// read-modify-writes over a 2 MiB buffer, no code of the repository —
/// slows with it: over six runs on a two-vCPU VM, the runs' engine
/// throughput had a quartile spread of 0.27 and engine throughput over
/// probe speed one of 0.04, while a probe inside the L1 cache did not
/// track the engine at all. Host timings are reported scaled to a host
/// whose probe runs at [`HostProbe::NOMINAL_PER_S`].
#[derive(Debug)]
pub struct HostProbe {
    buf: Vec<u64>,
    state: u64,
    rates: Vec<f64>,
}

impl HostProbe {
    /// Probe speed of the two-vCPU VM the benchmark was tuned on while
    /// quiet, operations per second.
    pub const NOMINAL_PER_S: f64 = 2.0e8;
    const WORDS: usize = 1 << 18;
    const OPS: u32 = 2_000_000;

    pub fn new() -> Self {
        HostProbe {
            buf: vec![1; Self::WORDS],
            state: 0x9e37_79b9_7f4a_7c15,
            rates: Vec::new(),
        }
    }

    /// Times one probe (about 10 ms).
    pub fn sample(&mut self) {
        let mut x = self.state;
        let t0 = std::time::Instant::now();
        for _ in 0..Self::OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (Self::WORDS - 1);
            self.buf[i] = self.buf[i].wrapping_add(x).rotate_left(7);
        }
        let elapsed = t0.elapsed();
        std::hint::black_box(&self.buf);
        self.state = x;
        self.rates.push(Self::OPS as f64 / elapsed.as_secs_f64());
    }

    /// Mean probe speed over the samples, operations per second.
    pub fn rate(&self) -> f64 {
        self.rates.iter().sum::<f64>() / self.rates.len().max(1) as f64
    }

    /// This host's speed relative to the nominal one: a host time `t`
    /// is reported as `t · speed()`, a rate `r` as `r / speed()`.
    pub fn speed(&self) -> f64 {
        self.rate() / Self::NOMINAL_PER_S
    }
}

/// Simulated schedule quality pooled over the reports of a seed set.
#[derive(Debug, Default)]
pub struct Quality {
    /// Response time of every completed job, simulated seconds.
    responses: Vec<f64>,
    slowdown_sum: f64,
}

impl Quality {
    /// Reserves room for `jobs` more jobs up front, so the peak memory
    /// metric never sees the buffer double while it fills.
    pub fn reserve(&mut self, jobs: usize) {
        self.responses.reserve_exact(jobs);
    }

    pub fn add(&mut self, report: &SimulationReport) {
        for o in report.outcomes() {
            self.responses
                .extend(o.response().map(|d| d.as_millis() as f64 / 1e3));
            self.slowdown_sum += o.slowdown().unwrap_or(0.0);
        }
    }

    /// Reports the `sim_*` metrics.
    pub fn report(mut self, out: &mut Run) {
        let n = self.responses.len() as f64;
        out.metric(
            "sim_mean_response_s",
            self.responses.iter().sum::<f64>() / n,
            "s",
        );
        out.metric("sim_mean_slowdown", self.slowdown_sum / n, "ratio");
        out.metric(
            "sim_p99_response_s",
            quantile(&mut self.responses, 0.99).unwrap_or(0.0),
            "s",
        );
    }
}

/// CPU time (user + system) this process has used so far, every thread
/// included, from `/proc/self/stat` in clock ticks of 1/100 s (Linux's
/// `USER_HZ`); `None` where `/proc` is unavailable.
pub fn process_cpu() -> Option<std::time::Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, from field 3 on:
    // utime and stime are fields 14 and 15.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(std::time::Duration::from_millis((utime + stime) * 10))
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over everything a run decided: per-job admission, first
/// allocation and finish instants plus the engine's work counters. Two
/// runs of the same inputs must produce the same digest.
pub fn report_digest(report: &SimulationReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let at = |t: Option<lasmq_simulator::SimTime>| t.map_or(u64::MAX, |t| t.as_millis());
    for o in report.outcomes() {
        mix(o.id.index() as u64);
        mix(at(o.admitted_at));
        mix(at(o.first_allocation));
        mix(at(o.finish));
    }
    let s = report.stats();
    mix(s.events_processed);
    mix(s.scheduling_passes);
    mix(s.tasks_killed);
    mix(s.makespan.as_millis());
    h
}
