//! Regenerates the paper's §VII depth observations as a series: BFS
//! level-by-level progress for each Table-I experiment.
//!
//! The paper reports deadlocks detected at depths 25–31 and bounded
//! clean runs reaching ≥ 47 levels; the shapes here should match —
//! deadlocking protocols stop at a modest depth with a counterexample,
//! clean ones run to their bound.

use vnet_core::minimize_vns;
use vnet_mc::{run, CheckpointedRun, InjectionBudget, McConfig, RunPlan, Verdict, VnMap};
use vnet_protocol::{protocols, ProtocolSpec};

fn series(spec: &ProtocolSpec, cfg: &McConfig, label: &str) {
    print!("{label:<44}levels:");
    let mut printed = 0usize;
    let run = run(spec, cfg, &RunPlan::default(), |level, states| {
        if level % 5 == 0 || level < 3 {
            print!(" {level}:{states}");
            printed += 1;
        }
    });
    println!();
    match run {
        Ok(CheckpointedRun::Finished(v)) => println!("{:<44}{}", "", v.summary()),
        other => println!("{:<44}run did not finish: {other:?}", ""),
    }
}

fn main() {
    println!("Model-checking depth series (level:states-visited)\n");

    for spec in [
        protocols::msi_blocking_cache(),
        protocols::mesi_blocking_cache(),
        protocols::mosi_blocking_cache(),
        protocols::moesi_blocking_cache(),
    ] {
        let cfg = McConfig::figure3(&spec)
            .with_vns(VnMap::one_per_message(spec.messages().len()));
        series(&spec, &cfg, &format!("{} (unique VNs)", spec.name()));
        let v = vnet_mc::explore(&spec, &cfg);
        assert!(matches!(v, Verdict::Deadlock { .. }));
    }

    println!();
    for spec in [
        protocols::msi_nonblocking_cache(),
        protocols::mesi_nonblocking_cache(),
        protocols::chi(),
    ] {
        let outcome = minimize_vns(&spec);
        let vns = VnMap::from_assignment(
            outcome.assignment().expect("Class 3"),
            spec.messages().len(),
        );
        let cfg = McConfig::general(&spec)
            .with_vns(vns)
            .with_budget(InjectionBudget::PerCache(1))
            .with_limits(400_000, Some(48));
        series(&spec, &cfg, &format!("{} (derived VNs)", spec.name()));
    }
}
