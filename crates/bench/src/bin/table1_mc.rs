//! Regenerates the model-checking half of the paper's **Table I**: the
//! experiments of §VII, at laptop scale (see DESIGN.md for the Murphi →
//! `vnet-mc` substitution).
//!
//! * Experiments (2) and (6): Class-2 protocols deadlock even with one
//!   VN per message name — the checker must find the deadlock.
//! * Experiments (4) and (5): with the 2-VN mapping derived by the
//!   algorithm, exploration is clean (complete where the space allows,
//!   bounded otherwise — the paper's own fallback).
//!
//! Pass `--full` for the larger budget-driven configurations (slower);
//! the default uses the directed Figure-3 workload plus a modest
//! general sweep.

use vnet_core::minimize_vns;
use vnet_mc::{explore, InjectionBudget, McConfig, Verdict, VnMap};
use vnet_protocol::{protocols, ProtocolSpec};

fn check_class2(spec: &ProtocolSpec) {
    // One VN per message name — the strongest possible static mapping.
    let cfg = McConfig::figure3(spec).with_vns(VnMap::one_per_message(spec.messages().len()));
    let v = explore(spec, &cfg);
    let verdict = match &v {
        Verdict::Deadlock { depth, stats, .. } => {
            format!("deadlock at depth {depth} ({} states)", stats.states)
        }
        other => format!("UNEXPECTED: {}", other.summary()),
    };
    println!(
        "  {:<26} unique VN per message       {}",
        spec.name(),
        verdict
    );
    assert!(v.is_deadlock(), "{} must deadlock (Class 2)", spec.name());
}

fn check_class3(spec: &ProtocolSpec, full: bool) {
    let outcome = minimize_vns(spec);
    let assignment = outcome.assignment().expect("Class 3 protocol");
    let vns = VnMap::from_assignment(assignment, spec.messages().len());

    // Directed Figure-3 workload: must be clean and completes quickly.
    let cfg = McConfig::figure3(spec).with_vns(vns.clone());
    let v = explore(spec, &cfg);
    println!(
        "  {:<26} {} VNs, figure-3 workload    {}",
        spec.name(),
        vns.n_vns(),
        v.summary()
    );
    assert!(
        matches!(v, Verdict::NoDeadlock(_)),
        "{} failed the figure-3 run: {}",
        spec.name(),
        v.summary()
    );

    // General workload, bounded like the paper's long Murphi runs.
    let (budget, max_states, depth) = if full {
        (2, 6_000_000, None)
    } else {
        (1, 400_000, Some(48))
    };
    let cfg = McConfig::general(spec)
        .with_vns(vns)
        .with_budget(InjectionBudget::PerCache(budget))
        .with_limits(max_states, depth);
    // The long sweeps use every core (and symmetry reduction, which is
    // legal under the uniform budget); the quick ones stay serial for
    // reproducible traces.
    let v = if full {
        let sym = cfg.with_symmetry().expect("general config is symmetric");
        let plan = vnet_mc::RunPlan {
            explorer: vnet_mc::Explorer::Threads(0),
            ..vnet_mc::RunPlan::default()
        };
        match vnet_mc::run(spec, &sym, &plan, |_, _| {}) {
            Ok(vnet_mc::CheckpointedRun::Finished(v)) => v,
            other => panic!("{}: run did not finish: {other:?}", spec.name()),
        }
    } else {
        explore(spec, &cfg)
    };
    println!(
        "  {:<26} {} ops/cache, general        {}",
        spec.name(),
        budget,
        v.summary()
    );
    assert!(
        matches!(v, Verdict::NoDeadlock(_)),
        "{} failed the general sweep: {}",
        spec.name(),
        v.summary()
    );
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    println!("Table I — model-checking confirmation\n");

    println!("experiment (6): MSI/MESI, blocking cache (expected: deadlock)");
    check_class2(&protocols::msi_blocking_cache());
    check_class2(&protocols::mesi_blocking_cache());

    println!("\nexperiment (2): MOSI/MOESI, blocking cache (expected: deadlock)");
    check_class2(&protocols::mosi_blocking_cache());
    check_class2(&protocols::moesi_blocking_cache());

    println!("\nexperiment (5): MSI/MESI, nonblocking cache + derived 2 VNs (expected: clean)");
    check_class3(&protocols::msi_nonblocking_cache(), full);
    check_class3(&protocols::mesi_nonblocking_cache(), full);

    println!("\nexperiment (4): CHI + derived 2 VNs (expected: clean)");
    check_class3(&protocols::chi(), full);

    println!("\nAll model-checking verdicts match Table I.");
}
