//! Observability: record a run's telemetry and print a per-job timeline
//! with each job's LAS_MQ demotions, plus a text Gantt chart of cluster
//! usage.
//!
//! ```text
//! cargo run --release --example timeline
//! ```

use lasmq::core::{LasMq, LasMqConfig};
use lasmq::simulator::{ClusterConfig, DecisionEvent, Simulation};
use lasmq::workload::PumaWorkload;

fn main() {
    let jobs = PumaWorkload::new()
        .jobs(6)
        .mean_interval_secs(40.0)
        .seed(13)
        .generate();
    let report = Simulation::builder()
        .cluster(ClusterConfig::new(4, 30))
        .record_telemetry(true)
        .jobs(jobs)
        .build(LasMq::new(LasMqConfig::paper_experiments()))
        .expect("valid setup")
        .run();
    let telemetry = report.telemetry().expect("telemetry requested");
    println!(
        "{} samples, {} decisions recorded\n",
        telemetry.samples().len(),
        telemetry.decisions().len()
    );

    // Per-job lifecycle summary: the job-level facts come from the
    // outcome, the demotions from the scheduler's decision log.
    for outcome in report.outcomes() {
        let mut demotions = 0;
        let mut queue = 0;
        for decision in telemetry.decisions() {
            if let DecisionEvent::JobDemoted { job, to_queue, .. } = *decision {
                if job == outcome.id {
                    demotions += 1;
                    queue = to_queue;
                }
            }
        }
        println!(
            "{} [{}] submitted {} admitted {} finished {} — {} demotions, ended in queue {}",
            outcome.id,
            outcome.label,
            outcome.arrival,
            outcome.admitted_at.expect("admitted"),
            outcome.finish.expect("finished"),
            demotions,
            queue,
        );
    }

    // A coarse text Gantt: one row per job, one column per time bucket.
    let makespan = report.stats().makespan.as_secs_f64();
    let buckets = 60usize;
    let bucket = makespan / buckets as f64;
    println!("\ntimeline (each column = {bucket:.0}s):");
    for outcome in report.outcomes() {
        let mut row = vec![' '; buckets];
        let from = outcome.arrival.as_secs_f64();
        let to = outcome.finish.expect("finished").as_secs_f64();
        let first_alloc = outcome.first_allocation.expect("allocated").as_secs_f64();
        for (i, cell) in row.iter_mut().enumerate() {
            let t = i as f64 * bucket;
            if t >= from && t <= to {
                *cell = if t < first_alloc { '.' } else { '#' };
            }
        }
        println!(
            "{:>6} |{}|",
            outcome.id.to_string(),
            row.into_iter().collect::<String>()
        );
    }
    println!("        '.' waiting, '#' holding containers");
}
