//! N-sweep cross-validation of the parameterized (flow-abstraction)
//! deadlock-freedom checker against the explicit-state explorers.
//!
//! The flow checker's claim is one-sided: `free-all-n` certifies
//! deadlock freedom for EVERY cache count, so any explicit-state
//! deadlock at any N under the same VN map refutes it — a hard test
//! failure. `not-provable` and `inapplicable` impose no constraint on
//! the explicit answer (the abstraction is sufficient, not necessary).
//!
//! Sweep shape: for all nine Table I protocols, the complete small
//! general scenario (per-cache budget 1, one address, one directory) at
//! N = 2, 3, 4 caches, cross-checked serial vs thread-parallel vs
//! ±symmetry in-process, plus a process-shard CLI row — both at the
//! analyzer's assigned VN count and one VN short.

use vnet::core::{analyze, VnOutcome};
use vnet::mc::{
    check_parameterized, check_vn_map, explore, flows_canonical, run, CheckpointedRun, Explorer,
    FlowVerdict, InjectionBudget, McConfig, RunPlan, Verdict, VnMap,
};
use vnet::protocol::{dsl, protocols, ProtocolSpec};

/// The verdict of the threaded explorer with `threads` workers.
fn run_threads(spec: &ProtocolSpec, cfg: &McConfig, threads: usize) -> Verdict {
    let plan = RunPlan {
        explorer: Explorer::Threads(threads),
        ..RunPlan::default()
    };
    match run(spec, cfg, &plan, |_, _| {}) {
        Ok(CheckpointedRun::Finished(v)) => v,
        other => panic!("{threads} threads: run did not finish: {other:?}"),
    }
}

fn kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::NoDeadlock(_) => "no_deadlock",
        Verdict::Deadlock { .. } => "deadlock",
        Verdict::ModelError { .. } => "model_error",
        Verdict::InvariantViolation { .. } => "invariant_violation",
    }
}

/// The complete small general scenario at `n` caches under `map`.
fn sweep_cfg(spec: &vnet::protocol::ProtocolSpec, map: VnMap, n: usize) -> McConfig {
    let mut cfg = McConfig::general(spec)
        .with_vns(map)
        .with_budget(InjectionBudget::PerCache(1));
    cfg.n_caches = n;
    cfg.n_addrs = 1;
    cfg.n_dirs = 1;
    cfg
}

/// The analyzer's VN resolution for a spec: the minimal assignment, or
/// one VN per message for Class 2 (the campaign/serve convention).
fn resolved_map(spec: &vnet::protocol::ProtocolSpec) -> (VnMap, Option<usize>) {
    let n_msgs = spec.messages().len();
    match analyze(spec).outcome() {
        VnOutcome::Assigned { assignment, .. } => (
            VnMap::from_assignment(assignment, n_msgs),
            Some(assignment.n_vns()),
        ),
        VnOutcome::Class2(_) => (VnMap::one_per_message(n_msgs), None),
    }
}

/// Merges the top VN down: a deterministic one-VN-short fold.
fn merge_top_vn(map: &VnMap) -> VnMap {
    let n = map.n_vns();
    let vns = map
        .vn_vector()
        .iter()
        .map(|&v| if v == n - 1 { n - 2 } else { v })
        .collect();
    VnMap::from_vns(vns)
}

/// The agreement contract: a `free-all-n` flow verdict is refuted by
/// any explicit-state deadlock under the same map; everything else is
/// unconstrained. Clean verdicts must additionally be complete, or
/// they would not be evidence of anything.
fn assert_one_sided(name: &str, n: usize, tag: &str, flow: &FlowVerdict, explicit: &Verdict) {
    // A deadlock verdict stops mid-level (`complete` is explorer-
    // specific there); only a clean verdict must cover the whole space
    // for its "no deadlock" to mean anything.
    if matches!(explicit, Verdict::NoDeadlock(_)) {
        assert!(
            explicit.stats().complete,
            "{name} (N={n}, {tag}): a clean sweep verdict must be complete"
        );
    }
    // A flow-free claim is refuted by a deadlock — that is the
    // one-sided contract, and it is absolute. A model error or
    // invariant violation is a different failure class: the spec the
    // flows were extracted from does not even execute at this N
    // (several builtin tables are incomplete for multi-cache forward
    // races, e.g. MOSI-nonblocking's Fwd-GetS in I at N ≥ 3), so the
    // deadlock-freedom claim is conditional there and the row neither
    // confirms nor refutes it.
    if flow.is_free_for_all_n() {
        assert!(
            !matches!(explicit, Verdict::Deadlock { .. }),
            "{name} (N={n}, {tag}): flow checker certified freedom for all N but the \
             explicit-state explorer found a deadlock"
        );
    }
}

/// The headline sweep: for every Table I protocol, the flow verdict
/// under the analyzer's map must agree (one-sidedly) with serial,
/// thread-parallel, and ±symmetry explicit-state runs at N = 2, 3, 4 —
/// and the verdict itself must be N-invariant. One VN short of the
/// assigned count, the flow checker must never claim freedom (analyzer
/// minimality: every fold has an Eq. 4 cycle), and whatever the
/// explicit explorers find at small N must not contradict it.
#[test]
fn flow_verdict_agrees_with_every_explorer_at_n_2_3_4() {
    for spec in protocols::all() {
        let name = spec.name().to_string();
        let (map, n_vns) = resolved_map(&spec);

        // Assigned protocols must certify; Class 2 must not.
        let reference = check_vn_map(&spec, &map);
        match n_vns {
            Some(_) => assert!(
                reference.is_free_for_all_n(),
                "{name}: the analyzer's minimal assignment must certify for all N: {}",
                reference.summary()
            ),
            None => assert!(
                !reference.is_free_for_all_n(),
                "{name}: a Class 2 protocol must never certify: {}",
                reference.summary()
            ),
        }

        let short_map = match n_vns {
            Some(n) if n >= 2 => {
                let short = merge_top_vn(&map);
                let short_verdict = check_vn_map(&spec, &short);
                assert!(
                    !short_verdict.is_free_for_all_n(),
                    "{name}: {} VNs (one fewer than assigned) must not certify — \
                     contradicts analyzer minimality: {}",
                    n - 1,
                    short_verdict.summary()
                );
                Some((short, short_verdict))
            }
            _ => None,
        };

        for n in 2..=4 {
            let cfg = sweep_cfg(&spec, map.clone(), n);
            // `check_parameterized` re-derives the verdict through the
            // full precondition gate; it must match the map-level
            // reference at every N (the abstraction is N-independent).
            let fv = check_parameterized(&spec, &cfg);
            assert_eq!(
                fv.verdict_token(),
                reference.verdict_token(),
                "{name} (N={n}): flow verdict must be N-invariant"
            );

            let serial = explore(&spec, &cfg);
            assert_one_sided(&name, n, "serial", &fv, &serial);

            let parallel = run_threads(&spec, &cfg, 2);
            assert_one_sided(&name, n, "parallel", &fv, &parallel);
            assert_eq!(
                kind(&serial),
                kind(&parallel),
                "{name} (N={n}): serial vs parallel diverged"
            );
            if matches!(serial, Verdict::NoDeadlock(_)) {
                // Counterexample runs stop mid-level, so absolute state
                // counts are explorer-specific; complete clean runs
                // must agree state-for-state.
                assert_eq!(
                    serial.stats().states,
                    parallel.stats().states,
                    "{name} (N={n}): state counts diverged"
                );
            }

            let sym_cfg = cfg
                .clone()
                .with_symmetry()
                .expect("the sweep scenario satisfies the symmetry preconditions");
            let sym = explore(&spec, &sym_cfg);
            assert_one_sided(&name, n, "symmetry", &fv, &sym);
            assert_eq!(
                kind(&serial),
                kind(&sym),
                "{name} (N={n}): symmetry changed the verdict kind"
            );

            // One VN short: the flow checker said not-provable above;
            // the explicit answer (either way) must not be contradicted
            // — and a deadlock found here is the minimality witness.
            if let Some((short, short_verdict)) = &short_map {
                let short_cfg = sweep_cfg(&spec, short.clone(), n);
                let short_serial = explore(&spec, &short_cfg);
                assert_one_sided(&name, n, "one-short", short_verdict, &short_serial);
                if let Verdict::Deadlock { trace, .. } = &short_serial {
                    let end = trace.replay(&spec, &short_cfg).unwrap_or_else(|e| {
                        panic!("{name} (N={n}): one-short witness does not replay: {e}")
                    });
                    assert_eq!(end, trace.last, "{name} (N={n}): replay drifted");
                }
            }
        }
    }
}

/// The process-shard CLI leg: `--parameterized --machine` next to
/// `--shard-procs` must print a `param-result` line that agrees with
/// the in-process checker, on a certifying row (MSI-nonblocking,
/// assigned map) and a non-certifying one (single VN). Witness-
/// producing rows pass `--verify-witness`.
#[test]
fn cli_shard_procs_rows_carry_the_parameterized_verdict() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_vnet");
    let dir = std::env::temp_dir().join(format!("vnet-param-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("shard dir");

    let run = |proto: &str, vn_flag: Option<&str>, shard_sub: &str| -> (i32, String) {
        let shard_dir = dir.join(shard_sub);
        let mut cmd = Command::new(bin);
        cmd.args(["mc", proto]);
        if let Some(f) = vn_flag {
            cmd.arg(f);
        }
        cmd.args([
            "--general", "--caches", "3", "--addrs", "1", "--dirs", "1", "--per-cache", "1",
            "--machine", "--parameterized", "--verify-witness", "--shard-procs", "2",
            "--shard-dir",
        ])
        .arg(&shard_dir);
        let out = cmd.output().expect("vnet mc should spawn");
        (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let line = |stdout: &str, prefix: &str| -> String {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix} line in:\n{stdout}"))
            .to_string()
    };

    // Certifying row: the assigned (minimal) map on a nonblocking
    // protocol — flow-free for all N, and the explicit shard run agrees.
    let (code, out) = run("MSI-nonblocking-cache", None, "free");
    assert_eq!(code, 0, "certifying row must be clean:\n{out}");
    let param = line(&out, "param-result ");
    assert_eq!(
        param, "param-result verdict=free-all-n provenance=parameterized",
        "in:\n{out}"
    );
    assert!(
        line(&out, "mc-result ").contains("kind=no-deadlock"),
        "{out}"
    );

    // Non-certifying row: everything on one VN — the flow checker must
    // degrade to bounded-only, never claim freedom, whatever the
    // explicit verdict at this N.
    let (code, out) = run("MSI-nonblocking-cache", Some("--single-vn"), "short");
    let param = line(&out, "param-result ");
    assert!(
        param.starts_with("param-result verdict=not-provable provenance=bounded-only"),
        "in:\n{out}"
    );
    if line(&out, "mc-result ").contains("kind=deadlock") {
        assert_eq!(code, 2, "deadlock rows exit 2:\n{out}");
        assert!(
            out.contains("witness verified"),
            "witness-producing rows must verify their witness:\n{out}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Flow extraction is a pure function of the parsed spec: byte-identical
/// across repeated runs, across a DSL round-trip, and across seeded
/// thread fan-outs (a fixed LCG picks the thread counts, so the
/// schedule pressure varies but the test is reproducible).
#[test]
fn flow_extraction_is_byte_identical_across_runs_and_threads() {
    let mut seed: u64 = 0x005e_edca_fef1_0e55_u64;
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((seed >> 33) % 7 + 2) as usize // 2..=8 threads
    };
    for spec in protocols::all() {
        let baseline = flows_canonical(&spec);
        assert!(!baseline.is_empty(), "{}: no flows extracted", spec.name());

        // Re-parsing the normalized DSL export must reproduce the exact
        // same flows — extraction depends on the parsed spec alone.
        let text = dsl::to_text(&spec);
        let reparsed = dsl::parse(&text)
            .unwrap_or_else(|e| panic!("{}: round-trip parse failed: {e}", spec.name()));
        assert_eq!(
            baseline,
            flows_canonical(&reparsed),
            "{}: DSL round-trip changed the extracted flows",
            spec.name()
        );

        for round in 0..3 {
            let threads = next();
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let spec = spec.clone();
                    std::thread::spawn(move || flows_canonical(&spec))
                })
                .collect();
            for h in handles {
                let got = h.join().expect("extraction thread panicked");
                assert_eq!(
                    got,
                    baseline,
                    "{} (round {round}, {threads} threads): extraction is not pure",
                    spec.name()
                );
            }
        }
    }
}
