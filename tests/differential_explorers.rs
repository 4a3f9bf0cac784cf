//! Differential test: the serial and parallel explorers must be
//! observationally identical on every Table I protocol — same
//! reachable-state count, same diameter (deepest completed BFS level),
//! same verdict kind — and every parallel witness trace must replay
//! step-by-step to the terminal state it claims.
//!
//! The full Figure-3 spaces run to ~0.5M states, so the all-protocol
//! sweeps here use a complete small configuration and a depth-bounded
//! Figure-3 configuration; one full Figure-3 deadlock run validates
//! witness replay end to end.

use vnet::mc::{explore, explore_parallel, InjectionBudget, McConfig, Verdict, VnMap};
use vnet::protocol::protocols;

fn kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::NoDeadlock(_) => "no_deadlock",
        Verdict::Deadlock { .. } => "deadlock",
        Verdict::ModelError { .. } => "model_error",
        Verdict::InvariantViolation { .. } => "invariant_violation",
    }
}

/// Asserts the observable agreement contract between a serial verdict
/// and a parallel one.
fn assert_agree(name: &str, threads: usize, serial: &Verdict, parallel: &Verdict) {
    assert_eq!(
        kind(serial),
        kind(parallel),
        "{name} ({threads} threads): verdict kind diverged"
    );
    let (s, p) = (serial.stats(), parallel.stats());
    assert_eq!(
        s.states, p.states,
        "{name} ({threads} threads): reachable-state count diverged"
    );
    assert_eq!(
        s.levels, p.levels,
        "{name} ({threads} threads): diameter diverged"
    );
    assert_eq!(
        s.complete, p.complete,
        "{name} ({threads} threads): completeness diverged"
    );
}

#[test]
fn complete_small_spaces_agree_for_every_table1_protocol() {
    for spec in protocols::all() {
        let mut cfg = McConfig::general(&spec)
            .with_vns(VnMap::one_per_message(spec.messages().len()))
            .with_budget(InjectionBudget::PerCache(1));
        cfg.n_caches = 2;
        cfg.n_addrs = 1;
        cfg.n_dirs = 1;
        let serial = explore(&spec, &cfg);
        assert!(
            serial.stats().complete,
            "{}: small space should be fully explored",
            spec.name()
        );
        for threads in [2, 4] {
            let parallel = explore_parallel(&spec, &cfg, threads);
            assert_agree(spec.name(), threads, &serial, &parallel);
        }
    }
}

#[test]
fn bounded_figure3_sweeps_agree_for_every_table1_protocol() {
    for spec in protocols::all() {
        let cfg = McConfig::figure3(&spec)
            .with_vns(VnMap::one_per_message(spec.messages().len()))
            .with_limits(usize::MAX, Some(10));
        let serial = explore(&spec, &cfg);
        for threads in [2, 4] {
            let parallel = explore_parallel(&spec, &cfg, threads);
            assert_agree(spec.name(), threads, &serial, &parallel);
        }
    }
}

/// Symmetry rows: on a 3-cache / 2-address / 1-directory general
/// configuration (symmetry group of order 3!·2! = 12) every Table I
/// protocol must produce the same verdict kind and diameter with and
/// without `--symmetry`, fold the space by at least the acceptance
/// bound of 6×, agree serial-vs-parallel under symmetry, and produce
/// witnesses that replay as real concrete executions.
#[test]
fn symmetry_preserves_verdicts_and_reduces_states_for_every_table1_protocol() {
    for spec in protocols::all() {
        let mut cfg = McConfig::general(&spec)
            .with_vns(VnMap::single(spec.messages().len()))
            .with_budget(InjectionBudget::PerCache(1));
        cfg.n_addrs = 2;
        cfg.n_dirs = 1;
        let plain = explore(&spec, &cfg);
        let sym_cfg = cfg
            .clone()
            .with_symmetry()
            .expect("the general scenario satisfies the symmetry preconditions");
        let sym = explore(&spec, &sym_cfg);
        assert_eq!(
            kind(&plain),
            kind(&sym),
            "{}: symmetry changed the verdict kind",
            spec.name()
        );
        let (p, s) = (plain.stats(), sym.stats());
        // Depth is orbit-invariant (π(init) = init, so permuting a path
        // yields an equal-length path), hence the diameter survives the
        // quotient exactly.
        assert_eq!(p.levels, s.levels, "{}: diameter diverged", spec.name());
        assert!(
            s.states * 6 <= p.states,
            "{}: symmetry should fold ≥6×: {} vs {}",
            spec.name(),
            s.states,
            p.states
        );
        // The parallel explorer must agree with the serial one under
        // symmetry, and both witnesses must replay. Counterexample
        // runs stop mid-level, so their state counts are explorer-
        // specific (see procshard.rs "Determinism"); only complete
        // clean runs compare state-for-state.
        for threads in [2, 4] {
            let par = explore_parallel(&spec, &sym_cfg, threads);
            if matches!(sym, Verdict::NoDeadlock(_)) {
                assert_agree(spec.name(), threads, &sym, &par);
            } else {
                assert_eq!(
                    kind(&sym),
                    kind(&par),
                    "{} ({threads} threads): symmetry verdict kind diverged",
                    spec.name()
                );
                assert_eq!(
                    sym.stats().levels,
                    par.stats().levels,
                    "{} ({threads} threads): symmetry diameter diverged",
                    spec.name()
                );
            }
            if let Verdict::Deadlock { trace, .. } = &par {
                let end = trace.replay(&spec, &sym_cfg).unwrap_or_else(|e| {
                    panic!("{} ({threads} threads): symmetry witness does not replay: {e}", spec.name())
                });
                assert_eq!(end, trace.last, "{}: replay must land on the witness", spec.name());
            }
        }
        if let Verdict::Deadlock { trace, .. } = &sym {
            let end = trace
                .replay(&spec, &sym_cfg)
                .unwrap_or_else(|e| panic!("{}: symmetry witness does not replay: {e}", spec.name()));
            assert_eq!(end, trace.last, "{}: replay must land on the witness", spec.name());
        }
    }
}

/// The CLI symmetry row: serial, thread-parallel, and process-shard
/// explorers under `--symmetry` must agree with each other and with
/// the plain run on verdict kind, depth, and diameter, fold the space
/// ≥6× explorer-for-explorer, and pass `--verify-witness` (the trace
/// replays to its recorded terminal) — the process-shard leg exercises
/// the supervisor-side witness de-canonicalizer end to end. State
/// counts are compared per explorer only: counterexample runs stop
/// mid-level, so the absolute count is explorer-specific.
#[test]
fn symmetry_rows_agree_across_serial_parallel_and_process_shard() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_vnet");
    let base = [
        "mc", "CHI", "--single-vn", "--general", "--dirs", "1", "--per-cache", "1",
        "--machine", "--verify-witness",
    ];
    let run = |extra: &[&str]| -> (i32, String) {
        let out = Command::new(bin)
            .args(base)
            .args(extra)
            .output()
            .expect("vnet mc should spawn");
        (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let line = |stdout: &str| -> String {
        stdout
            .lines()
            .find(|l| l.starts_with("mc-result "))
            .unwrap_or_else(|| panic!("no mc-result line in:\n{stdout}"))
            .to_string()
    };
    let field = |l: &str, key: &str| -> String {
        l.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("no {key}= in {l}"))
            .to_string()
    };

    let dir = std::env::temp_dir().join(format!("vnet-diff-sym-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.display().to_string();

    let dir2 = std::env::temp_dir().join(format!("vnet-diff-sym2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir2);
    std::fs::create_dir_all(&dir2).unwrap();
    let dir2_s = dir2.display().to_string();

    // (plain flags, symmetry flags) per explorer.
    let explorers: [(&str, &[&str], Vec<&str>); 3] = [
        ("serial", &[], vec!["--symmetry"]),
        ("parallel", &["--parallel", "2"], vec!["--symmetry", "--parallel", "2"]),
        (
            "procshard",
            &["--shard-procs", "2", "--shard-dir", &dir_s],
            vec!["--symmetry", "--shard-procs", "2", "--shard-dir", &dir2_s],
        ),
    ];
    let mut rows = Vec::new();
    for (name, plain_extra, sym_extra) in &explorers {
        let (code, plain_out) = run(plain_extra);
        assert_eq!(code, 2, "{name} plain run must deadlock:\n{plain_out}");
        let (code, sym_out) = run(sym_extra);
        assert_eq!(code, 2, "{name} symmetry run must deadlock:\n{sym_out}");
        assert!(
            sym_out.contains("witness verified"),
            "{name}: symmetry witness did not verify:\n{sym_out}"
        );
        let (p, s) = (line(&plain_out), line(&sym_out));
        assert_eq!(field(&p, "kind"), field(&s, "kind"), "{name}: kind diverged");
        assert_eq!(field(&p, "depth"), field(&s, "depth"), "{name}: depth diverged");
        assert_eq!(field(&p, "levels"), field(&s, "levels"), "{name}: diameter diverged");
        let plain_states: usize = field(&p, "states").parse().unwrap();
        let sym_states: usize = field(&s, "states").parse().unwrap();
        assert!(
            sym_states * 6 <= plain_states,
            "{name}: symmetry should fold ≥6×: {sym_states} vs {plain_states}"
        );
        rows.push((field(&s, "kind"), field(&s, "depth"), field(&s, "levels")));
    }
    assert_eq!(rows[0], rows[1], "serial vs parallel symmetry row diverged");
    assert_eq!(rows[0], rows[2], "serial vs process-shard symmetry row diverged");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn parallel_figure3_witness_replays_to_its_terminal_state() {
    let spec = protocols::msi_blocking_cache();
    let cfg = McConfig::figure3(&spec).with_vns(VnMap::one_per_message(spec.messages().len()));
    let Verdict::Deadlock {
        trace: serial_trace,
        depth: serial_depth,
        ..
    } = explore(&spec, &cfg)
    else {
        panic!("figure3 MSI-blocking must deadlock serially");
    };
    let serial_end = serial_trace
        .replay(&spec, &cfg)
        .expect("serial witness must replay");
    assert_eq!(serial_end, serial_trace.last);

    for threads in [2, 4] {
        let Verdict::Deadlock { trace, depth, .. } = explore_parallel(&spec, &cfg, threads)
        else {
            panic!("figure3 MSI-blocking must deadlock with {threads} threads");
        };
        assert_eq!(depth, serial_depth, "{threads} threads: deadlock depth diverged");
        let end = trace
            .replay(&spec, &cfg)
            .unwrap_or_else(|e| panic!("{threads} threads: witness does not replay: {e}"));
        assert_eq!(
            end, trace.last,
            "{threads} threads: replay must land on the recorded witness"
        );
        // Different explorers may pick different (equally shallow)
        // witness states, but both must be genuinely deadlocked at the
        // same BFS depth — trace length is the depth for both.
        assert_eq!(trace.len(), serial_trace.len());
        // The threaded explorer claims in the serial explorer's order,
        // so it reports the very same witness.
        assert_eq!(trace.steps, serial_trace.steps, "{threads} threads: witness diverged");
        assert_eq!(trace.last, serial_trace.last, "{threads} threads: terminal diverged");
    }
}
