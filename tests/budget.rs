//! End-to-end budget/degradation contract (ISSUE: "budgeted solvers
//! never hang or panic; a tiny budget forces the fallback and the result
//! carries the Degraded tag").

use std::time::Duration;
use vnet::core::{analyze_budgeted, minimize_vns, minimize_vns_budgeted, VnOutcome};
use vnet::graph::{Budget, Provenance};
use vnet::mc::{run, CheckpointedRun, McConfig, RunPlan, Verdict};
use vnet::protocol::protocols;

/// A starved budget must visibly degrade at least one solver kernel on a
/// protocol whose exact pipeline does real branch-and-bound work, and
/// the degraded assignment must remain deadlock-free-certified.
#[test]
fn tiny_budget_forces_fallback_and_tags_the_result() {
    let budget = Budget::unlimited().with_node_limit(1);
    let mut saw_degraded = false;
    for spec in [
        protocols::msi_nonblocking_cache(),
        protocols::mesi_nonblocking_cache(),
        protocols::chi(),
    ] {
        let outcome = minimize_vns_budgeted(&spec, &budget);
        let VnOutcome::Assigned { assignment, provenance, .. } = &outcome else {
            panic!("{} should stay Class 3 under any budget", spec.name());
        };
        // Soundness survives degradation: the produced mapping certifies.
        let waits = vnet::core::waits::compute_waits(&spec);
        assert!(
            vnet::core::assignment::certify(&spec, &waits, assignment),
            "{}: degraded assignment failed certification",
            spec.name()
        );
        if let Provenance::Degraded { reason } = provenance {
            saw_degraded = true;
            // The reason must name the limit that tripped.
            assert!(reason.to_string().contains("node limit"), "{reason}");
        }
    }
    assert!(
        saw_degraded,
        "a 1-node budget should degrade at least one of the three pipelines"
    );
}

/// The degraded VN count may exceed but never undercut the exact answer.
#[test]
fn degraded_answers_are_conservative() {
    let budget = Budget::unlimited().with_node_limit(1);
    for spec in [
        protocols::msi_nonblocking_cache(),
        protocols::mesi_nonblocking_cache(),
        protocols::chi(),
    ] {
        let exact = minimize_vns(&spec).min_vns().expect("Class 3");
        let degraded = minimize_vns_budgeted(&spec, &budget)
            .min_vns()
            .expect("Class 3");
        assert!(
            degraded >= exact,
            "{}: degraded answer {degraded} undercuts exact {exact}",
            spec.name()
        );
    }
}

/// An expired wall-clock deadline is honored: the analysis returns
/// promptly (no hang) with a tagged result instead of panicking.
#[test]
fn zero_deadline_never_hangs_or_panics() {
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    for spec in protocols::all() {
        let report = analyze_budgeted(&spec, &budget);
        // The report renders without panicking whatever the provenance.
        let _ = report.outcome().provenance();
    }
}

/// The model checker's budgeted entry point stops early and reports a
/// partial, degraded verdict rather than exploring two million states.
#[test]
fn mc_budget_exhaustion_is_a_partial_degraded_verdict() {
    let spec = protocols::msi_blocking_cache();
    let cfg = McConfig::figure3(&spec);
    let plan = RunPlan {
        budget: Budget::unlimited().with_node_limit(3),
        ..RunPlan::default()
    };
    match run(&spec, &cfg, &plan, |_, _| {}) {
        Ok(CheckpointedRun::Finished(Verdict::NoDeadlock(stats))) => {
            assert!(!stats.complete);
            assert!(!stats.provenance.is_exact());
            assert!(stats.provenance.to_string().contains("node limit"));
        }
        other => panic!("expected partial verdict, got {other:?}"),
    }
}
