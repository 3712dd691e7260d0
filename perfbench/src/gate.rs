//! The output-correctness gate run before any timing: downscaled slices
//! of a workload's trace and scheduler(s) go through the differential
//! oracle, which runs the engine with its invariant checker armed and
//! diffs every job's admission, first-allocation and finish instants
//! against the naive reference executor.

use lasmq_campaign::SchedulerKind;
use lasmq_simulator::JobSpec;
use lasmq_verify::{run_differential, DiffCell};

use crate::Run;

/// Runs one differential cell per scheduler on `jobs` over a
/// `nodes × containers_per_node` cluster, counting each as an operation.
pub fn check(
    run: &mut Run,
    name: &str,
    jobs: &[JobSpec],
    kinds: &[SchedulerKind],
    (nodes, containers_per_node): (u32, u32),
) {
    for kind in kinds {
        let cell = DiffCell::new(format!("{name}/{kind}"), jobs.to_vec(), kind.clone())
            .cluster(nodes, containers_per_node);
        match run_differential(&cell) {
            Ok(result) => run.check(result.is_clean() && result.completed == result.jobs, || {
                format!(
                    "gate {}: {}/{} jobs completed, {} divergences (first: {:?}), \
                         invariants clean: {}",
                    result.name,
                    result.completed,
                    result.jobs,
                    result.divergences.len(),
                    result.divergences.first(),
                    result.invariants.is_clean()
                )
            }),
            Err(e) => run.check(false, || format!("gate {}: engine refused: {e}", cell.name)),
        }
    }
}
