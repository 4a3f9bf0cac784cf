//! Kill-and-resume equivalence: checkpointing every `k` states,
//! dropping the explorer (only the on-disk checkpoint survives — the
//! same thing a SIGKILL leaves behind), and resuming must reproduce the
//! verdict of an uninterrupted run exactly: same kind, same depth/level
//! count, same distinct-state count, and — for counterexamples — the
//! same witness trace. Exercised across a protocol × k matrix, with
//! chained multi-segment resumes, for both the serial and the parallel
//! explorer.

use std::path::{Path, PathBuf};
use vnet::core::Budget;
use vnet::mc::{
    run, CheckpointedRun, Explorer, McConfig, RunPlan, SpillConfig, Verdict, VnMap,
};
use vnet::protocol::{protocols, ProtocolSpec};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vnet-resume-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&d);
    d.join(format!("{tag}.ckpt"))
}

/// A serial plan checkpointing to `path` every `k` states.
fn checkpointing(path: &Path, k: usize) -> RunPlan {
    RunPlan {
        checkpoint: Some(path.to_path_buf()),
        checkpoint_every: k,
        ..RunPlan::default()
    }
}

/// The verdict of `plan`'s run; `what` names the run if it does not
/// finish.
fn finish(spec: &ProtocolSpec, cfg: &McConfig, plan: &RunPlan, what: &str) -> Verdict {
    match run(spec, cfg, plan, |_, _| {}) {
        Ok(CheckpointedRun::Finished(v)) => v,
        other => panic!("{what} did not finish: {other:?}"),
    }
}

/// The observable identity of a verdict for equivalence checks.
fn signature(v: &Verdict) -> (String, usize, usize, Vec<String>) {
    let stats = v.stats();
    let (kind, depth, steps) = match v {
        Verdict::NoDeadlock(s) => ("no-deadlock".to_string(), s.levels, Vec::new()),
        Verdict::Deadlock { depth, trace, .. } => {
            ("deadlock".to_string(), *depth, trace.steps.clone())
        }
        Verdict::ModelError { trace, .. } => {
            ("model-error".to_string(), stats.levels, trace.steps.clone())
        }
        Verdict::InvariantViolation { trace, .. } => (
            "invariant-violation".to_string(),
            stats.levels,
            trace.steps.clone(),
        ),
    };
    (kind, depth, stats.states, steps)
}

/// Runs serial exploration in budgeted segments of `seg` nodes,
/// checkpointing every `k` states and abandoning the explorer between
/// segments, spilling as `spill` says; returns the final verdict and
/// how many resumes it took.
fn run_in_segments(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    spill: Option<&SpillConfig>,
    path: &PathBuf,
    k: usize,
    seg: u64,
) -> (Verdict, usize) {
    let _ = std::fs::remove_file(path);
    let mut segments = 0;
    loop {
        segments += 1;
        assert!(segments <= 200, "resume chain did not converge");
        // Node limits are cumulative across resumes: the checkpoint
        // records nodes already spent, so each segment grants `seg`
        // more.
        let plan = RunPlan {
            budget: Budget::unlimited().with_node_limit(seg * segments as u64),
            spill: spill.cloned(),
            resume: (segments > 1).then(|| path.clone()),
            ..checkpointing(path, k)
        };
        let run = match run(spec, cfg, &plan, |_, _| {}) {
            Ok(r) => r,
            Err(e) => panic!("segment {segments} failed: {e}"),
        };
        match run {
            CheckpointedRun::Finished(v) => {
                let exhausted = !v.stats().provenance.is_exact()
                    && v.stats().provenance.annotation().contains("node limit");
                if !exhausted {
                    return (v, segments - 1);
                }
                // Budget ran out with a final flush; resume from it.
            }
            CheckpointedRun::Interrupted { .. } => {
                panic!("no stop file configured; run cannot be interrupted")
            }
        }
    }
}

#[test]
fn serial_kill_and_resume_matrix_reproduces_verdicts() {
    // Bounded spaces keep the matrix cheap; the property (resume ≡
    // uninterrupted) is independent of why exploration stops.
    let subjects: [(&str, ProtocolSpec); 3] = [
        ("msi-b", protocols::msi_blocking_cache()),
        ("mesi-nb", protocols::mesi_nonblocking_cache()),
        ("mosi-nb", protocols::mosi_nonblocking_cache()),
    ];
    for (name, spec) in subjects {
        let cfg = McConfig::figure3(&spec)
            .with_vns(VnMap::one_per_message(spec.messages().len()))
            .with_limits(3_000, Some(7));
        // The uninterrupted reference runs in checkpointed mode too:
        // when a configured bound fires, that mode finishes the BFS
        // level before stopping (a flushable snapshot must sit at a
        // level boundary), so a run without a checkpoint can stop
        // mid-level with a smaller state count. Counterexample verdicts
        // are unaffected — the deadlock test below compares against the
        // plain explorer directly.
        let base_path = tmp(&format!("{name}-base"));
        let _ = std::fs::remove_file(&base_path);
        let base_plan = checkpointing(&base_path, 1_000_000);
        let what = format!("{name}: uninterrupted reference");
        let baseline = signature(&finish(&spec, &cfg, &base_plan, &what));
        let _ = std::fs::remove_file(&base_path);
        for k in [1usize, 17, 400] {
            let path = tmp(&format!("{name}-k{k}"));
            let (v, resumes) = run_in_segments(&spec, &cfg, None, &path, k, 700);
            assert_eq!(
                signature(&v),
                baseline,
                "{name} with checkpoint-every-{k} diverged after {resumes} resume(s)"
            );
            assert!(
                resumes >= 1,
                "{name} k={k}: segment budget never interrupted the run; \
                 the equivalence was not actually exercised"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn serial_resume_reproduces_a_real_deadlock_and_its_witness() {
    // CHI under a single VN deadlocks at depth 20 (Table I): the
    // resumed run must find the same deadlock, at the same depth, after
    // the same number of states, with the identical witness trace.
    let spec = protocols::chi();
    let cfg = McConfig::figure3(&spec).with_vns(VnMap::single(spec.messages().len()));
    let baseline = signature(&finish(&spec, &cfg, &RunPlan::default(), "plain run"));
    assert_eq!(baseline.0, "deadlock", "CHI/single-VN must deadlock");

    let path = tmp("chi-deadlock");
    let (v, resumes) = run_in_segments(&spec, &cfg, None, &path, 10_000, 40_000);
    assert!(resumes >= 1, "deadlock run was never interrupted");
    assert_eq!(signature(&v), baseline, "witness diverged across resume");
    // A matching trace is not enough: the resumed witness must also
    // replay as a real execution ending in the recorded terminal state.
    if let Verdict::Deadlock { trace, .. } = &v {
        let end = trace
            .replay(&spec, &cfg)
            .expect("resumed witness must replay cleanly");
        assert_eq!(end, trace.last, "replay diverged from recorded terminal state");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn parallel_kill_and_resume_matches_a_clean_parallel_run() {
    let spec = protocols::msi_blocking_cache();
    let cfg = McConfig::figure3(&spec)
        .with_vns(VnMap::one_per_message(spec.messages().len()))
        .with_limits(4_000, Some(7));

    let threads = RunPlan {
        explorer: Explorer::Threads(3),
        ..RunPlan::default()
    };
    let clean = signature(&finish(&spec, &cfg, &threads, "clean parallel run"));

    let path = tmp("parallel-msi");
    let _ = std::fs::remove_file(&path);
    let mut segments = 0;
    let resumed = loop {
        segments += 1;
        assert!(segments <= 200, "parallel resume chain did not converge");
        let plan = RunPlan {
            budget: Budget::unlimited().with_node_limit(250 * segments as u64),
            resume: (segments > 1).then(|| path.clone()),
            ..checkpointing(&path, 200)
        };
        match run(&spec, &cfg, &RunPlan { explorer: Explorer::Threads(3), ..plan }, |_, _| {}) {
            Ok(CheckpointedRun::Finished(v)) => {
                if v.stats().provenance.is_exact()
                    || !v.stats().provenance.annotation().contains("node limit")
                {
                    break signature(&v);
                }
            }
            Ok(CheckpointedRun::Interrupted { .. }) => {
                panic!("no stop file configured; run cannot be interrupted")
            }
            Err(e) => panic!("parallel segment {segments} failed: {e}"),
        }
    };
    assert!(segments > 1, "parallel run was never interrupted");
    assert_eq!(
        resumed, clean,
        "parallel kill-and-resume diverged from the clean run"
    );
    let _ = std::fs::remove_file(&path);
}

/// Out-of-core row of the matrix: the same kill-and-resume chains with
/// the spill tier forced on (a threshold small enough that cold blobs
/// hit disk almost immediately). Spilling is a storage detail — the
/// verdict signature must match the in-RAM baseline bit for bit, and
/// the run must actually have spilled or the row proved nothing.
#[test]
fn spill_enabled_kill_and_resume_matches_the_in_ram_run() {
    let spec = protocols::msi_blocking_cache();
    let base_cfg = McConfig::figure3(&spec)
        .with_vns(VnMap::one_per_message(spec.messages().len()))
        .with_limits(3_000, Some(7));

    // In-RAM baseline, uninterrupted.
    let base_path = tmp("spill-base");
    let _ = std::fs::remove_file(&base_path);
    let base_plan = checkpointing(&base_path, 1_000_000);
    let baseline = signature(&finish(&spec, &base_cfg, &base_plan, "in-RAM reference"));
    let _ = std::fs::remove_file(&base_path);

    let spill_root = std::env::temp_dir().join(format!("vnet-resume-spill-{}", std::process::id()));

    // Fresh spilled run: same signature, and it genuinely spilled.
    let fresh_dir = spill_root.join("fresh");
    let fresh_path = tmp("spill-fresh");
    let _ = std::fs::remove_file(&fresh_path);
    let plan = RunPlan {
        spill: Some(SpillConfig::new(&fresh_dir, 4_096)),
        ..checkpointing(&fresh_path, 1_000_000)
    };
    let fresh = finish(&spec, &base_cfg, &plan, "spilled run");
    let _ = std::fs::remove_file(&fresh_path);
    assert_eq!(signature(&fresh), baseline, "spilling changed the verdict");
    assert!(
        fresh.stats().spill_bytes > 0,
        "threshold of 4 KiB never spilled; the out-of-core path was not exercised"
    );

    // Kill-and-resume chains with the spill tier on, across two
    // checkpoint cadences.
    for k in [1usize, 17] {
        let seg_dir = spill_root.join(format!("k{k}"));
        let spill = SpillConfig::new(&seg_dir, 4_096);
        let path = tmp(&format!("spill-k{k}"));
        let (v, resumes) = run_in_segments(&spec, &base_cfg, Some(&spill), &path, k, 700);
        assert_eq!(
            signature(&v),
            baseline,
            "spill-enabled checkpoint-every-{k} diverged after {resumes} resume(s)"
        );
        assert!(resumes >= 1, "spill k={k}: run was never interrupted");
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir_all(&spill_root);
}

/// Multi-process row of the matrix: the process-shard supervisor is
/// interrupted by a node budget and flushes a merged v2 checkpoint;
/// the in-process serial `resume` must finish it and land on the plain
/// explorer's exact deadlock witness. (The supervisor re-invokes the
/// `vnet` binary per shard, so this leg drives the real CLI.)
#[test]
fn procshard_checkpoint_resumes_in_process_to_the_plain_verdict() {
    // A complete (no-deadlock) space: exhaustive verdicts are
    // insensitive to the order the merged frontier is re-expanded in,
    // unlike counterexample state counts.
    let spec = protocols::chi();
    let cfg = McConfig::figure3(&spec).with_vns(VnMap::one_per_message(spec.messages().len()));
    let baseline = signature(&finish(&spec, &cfg, &RunPlan::default(), "plain run"));
    assert_eq!(baseline.0, "no-deadlock", "CHI/unique-VNs must complete");

    let dir = std::env::temp_dir().join(format!("vnet-resume-proc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    let ckpt = dir.join("merged.ckpt");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vnet"))
        .args(["mc", "CHI", "--unique-vns", "--machine"])
        .args(["--shard-procs", "2", "--shard-dir"])
        .arg(&dir)
        .args(["--budget", "nodes=60000", "--checkpoint"])
        .arg(&ckpt)
        .output()
        .expect("vnet mc should spawn");
    assert_eq!(
        out.status.code(),
        Some(3),
        "budgeted procshard leg should degrade:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(ckpt.exists(), "degraded supervisor must flush a merged checkpoint");

    let plan = RunPlan {
        resume: Some(ckpt.clone()),
        ..RunPlan::default()
    };
    let v = finish(&spec, &cfg, &plan, "in-process resume");
    assert_eq!(
        signature(&v),
        baseline,
        "resuming the merged procshard checkpoint diverged from the plain run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression test for the memory-accounting bug: a resumed run used
/// to start with an empty meter (the seeded visited set was never
/// charged), so its reported peak was a fraction of the truth. Fresh
/// and kill-and-resume runs of the same space must now report the same
/// high-water mark, because the final segment re-charges the full
/// seeded store before exploring.
#[test]
fn resumed_run_reports_the_same_peak_bytes_as_a_fresh_run() {
    let spec = protocols::msi_blocking_cache();
    let cfg = McConfig::figure3(&spec)
        .with_vns(VnMap::one_per_message(spec.messages().len()))
        .with_limits(3_000, Some(7));
    let base_path = tmp("peak-fresh");
    let _ = std::fs::remove_file(&base_path);
    let fresh = finish(&spec, &cfg, &checkpointing(&base_path, 1_000_000), "fresh run");
    let _ = std::fs::remove_file(&base_path);
    let path = tmp("peak-resumed");
    let (resumed, resumes) = run_in_segments(&spec, &cfg, None, &path, 200, 700);
    assert!(resumes >= 1, "segment budget never interrupted the run");
    let _ = std::fs::remove_file(&path);
    assert_eq!(signature(&fresh), signature(&resumed));
    let (pf, pr) = (fresh.stats().peak_bytes, resumed.stats().peak_bytes);
    assert!(pf > 0, "fresh run must report a nonzero peak");
    // Identical visited sets at the end; only transient frontier sizes
    // may differ, so the peaks must agree within a few percent.
    let spread = pf.abs_diff(pr);
    assert!(
        spread * 20 < pf,
        "fresh peak {pf} B vs resumed peak {pr} B: accounting diverged"
    );
}
