//! Checkpoint interchange: every explorer writes the same format, so a
//! snapshot taken by one resumes under any other. For a corpus of
//! interrupted runs this suite resumes serial snapshots under the
//! thread-parallel explorer and the other way round, and a merged
//! process-shard snapshot under the thread-parallel explorer; each
//! resume must land on the uninterrupted run's verdict. It also pins
//! the serial flush as a pure function of progress: a run resumed from
//! its own snapshot flushes the uninterrupted run's bytes. Damaged
//! files and a key-sorted file written by an earlier serial explorer
//! round it out.

use std::path::{Path, PathBuf};
use vnet::core::Budget;
use vnet::mc::{
    run, Checkpoint, CheckpointError, CheckpointedRun, Explorer, McConfig, RunPlan, Verdict, VnMap,
};
use vnet::protocol::{protocols, ProtocolSpec};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vnet-interchange-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&d);
    d.join(format!("{tag}.ckpt"))
}

type Signature = (String, usize, usize, Vec<String>);

/// The observable identity of a verdict for equivalence checks.
fn signature(v: &Verdict) -> Signature {
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

/// Runs `plan`.
fn go(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    plan: &RunPlan,
) -> Result<CheckpointedRun, CheckpointError> {
    run(spec, cfg, plan, |_, _| {})
}

/// A serial plan checkpointing to `path` every `every` states.
fn checkpointing(path: &Path, every: usize) -> RunPlan {
    RunPlan {
        checkpoint: Some(path.to_path_buf()),
        checkpoint_every: every,
        ..RunPlan::default()
    }
}

/// An unlimited serial plan resuming from `path`, flushing nothing.
fn resuming(path: &Path) -> RunPlan {
    RunPlan {
        resume: Some(path.to_path_buf()),
        ..RunPlan::default()
    }
}

/// The verdict of a run that must have finished.
fn finished(what: &str, run: Result<CheckpointedRun, CheckpointError>) -> Verdict {
    match run {
        Ok(CheckpointedRun::Finished(v)) => v,
        other => panic!("{what}: run did not finish: {other:?}"),
    }
}

/// The corpus: a protocol, its state bound, and a node budget that
/// interrupts exploration partway so the flushed checkpoint carries a
/// non-trivial visited set and frontier.
fn corpus() -> Vec<(&'static str, ProtocolSpec, usize, u64)> {
    vec![
        ("msi-b", protocols::msi_blocking_cache(), 3_000, 900),
        ("mesi-nb", protocols::mesi_nonblocking_cache(), 4_000, 1_500),
        ("chi", protocols::chi(), 5_000, 2_000),
    ]
}

fn config_for(spec: &ProtocolSpec, max_states: usize) -> McConfig {
    McConfig::figure3(spec)
        .with_vns(VnMap::one_per_message(spec.messages().len()))
        .with_limits(max_states, Some(7))
}

/// The uninterrupted serial run, in checkpointed mode so a bound that
/// fires finishes its level exactly as the threaded explorer does.
fn serial_baseline(name: &str, spec: &ProtocolSpec, cfg: &McConfig) -> Signature {
    let path = tmp(&format!("{name}-serial-ref"));
    let _ = std::fs::remove_file(&path);
    let run = go(spec, cfg, &checkpointing(&path, usize::MAX));
    let _ = std::fs::remove_file(&path);
    signature(&finished(name, run))
}

/// `plan` on the threaded explorer with two workers.
fn threads(plan: RunPlan) -> RunPlan {
    RunPlan {
        explorer: Explorer::Threads(2),
        ..plan
    }
}

/// Asserts a snapshot leg stopped on its node budget, so the file it
/// flushed is a mid-run snapshot.
fn assert_interrupted(what: &str, v: &Verdict, path: &Path) {
    assert!(
        !v.stats().provenance.is_exact(),
        "{what}: node budget too generous; snapshot is not mid-run"
    );
    assert!(path.exists(), "{what}: no snapshot flushed");
}

/// Serial → threaded and threaded → serial: a snapshot either explorer
/// flushed resumes under the other to the uninterrupted verdict.
#[test]
fn snapshots_resume_across_serial_and_threaded_explorers() {
    for (name, spec, max_states, seg) in corpus() {
        let cfg = config_for(&spec, max_states);
        let baseline = serial_baseline(name, &spec, &cfg);
        let threaded = go(&spec, &cfg, &threads(RunPlan::default()));
        assert_eq!(
            signature(&finished(name, threaded)),
            baseline,
            "{name}: uninterrupted serial and threaded runs disagree"
        );
        let budget = Budget::unlimited().with_node_limit(seg);

        let path = tmp(&format!("{name}-serial"));
        let _ = std::fs::remove_file(&path);
        let plan = RunPlan {
            budget: budget.clone(),
            ..checkpointing(&path, 1)
        };
        let snap = go(&spec, &cfg, &plan);
        assert_interrupted(name, &finished(name, snap), &path);
        let v = finished(name, go(&spec, &cfg, &threads(resuming(&path))));
        assert_eq!(signature(&v), baseline, "{name}: serial → threaded diverged");

        let path = tmp(&format!("{name}-threaded"));
        let _ = std::fs::remove_file(&path);
        let plan = RunPlan {
            budget,
            ..checkpointing(&path, 1)
        };
        let snap = go(&spec, &cfg, &threads(plan));
        assert_interrupted(name, &finished(name, snap), &path);
        let v = finished(name, go(&spec, &cfg, &resuming(&path)));
        assert_eq!(signature(&v), baseline, "{name}: threaded → serial diverged");
    }
}

/// Process-shard → threaded: the supervisor is interrupted by a node
/// budget and flushes a merged checkpoint (one section per worker); the
/// thread-parallel explorer must finish it to the uninterrupted
/// threaded verdict. The supervisor re-invokes the `vnet` binary per
/// shard, so this leg drives the real CLI.
#[test]
fn procshard_snapshot_resumes_under_the_threaded_explorer() {
    let spec = protocols::chi();
    let cfg = McConfig::figure3(&spec).with_vns(VnMap::one_per_message(spec.messages().len()));
    let clean = go(&spec, &cfg, &threads(RunPlan::default()));
    let baseline = signature(&finished("clean threaded run", clean));
    assert_eq!(baseline.0, "no-deadlock", "CHI/unique-VNs must complete");

    let dir = std::env::temp_dir().join(format!("vnet-interchange-proc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    let ckpt = dir.join("merged.ckpt");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vnet"))
        .args(["mc", "CHI", "--unique-vns", "--machine"])
        .args(["--shard-procs", "2", "--shard-dir"])
        .arg(dir.join("shards"))
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

    let v = finished("resume", go(&spec, &cfg, &threads(resuming(&ckpt))));
    assert_eq!(signature(&v), baseline, "procshard → threaded diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The serial flush is a pure function of progress: a run resumed from
/// its own level-4 snapshot flushes, at its final level, the same bytes
/// as the run that was never interrupted.
#[test]
fn serial_resume_flushes_the_uninterrupted_runs_bytes() {
    let spec = protocols::msi_blocking_cache();
    let cfg = config_for(&spec, 3_000);
    let straight = tmp("bytes-straight");
    let _ = std::fs::remove_file(&straight);
    finished("straight", go(&spec, &cfg, &checkpointing(&straight, usize::MAX)));

    let resumed = tmp("bytes-resumed");
    let _ = std::fs::remove_file(&resumed);
    let plan = checkpointing(&resumed, usize::MAX);
    let level4 = cfg.clone().with_limits(3_000, Some(4));
    finished("level-4 snapshot", go(&spec, &level4, &plan));
    let loaded = Checkpoint::load(&resumed, &spec, &cfg).expect("level-4 snapshot loads");
    assert_eq!(loaded.level, 4, "snapshot is not the level-4 boundary");
    let plan = RunPlan {
        resume: Some(resumed.clone()),
        ..plan
    };
    finished("resumed", go(&spec, &cfg, &plan));

    let (a, b) = (std::fs::read(&straight), std::fs::read(&resumed));
    assert!(a.is_ok() && b.is_ok(), "both runs must flush a final snapshot");
    assert!(a.ok() == b.ok(), "resumed run flushed different bytes than the straight run");
    let _ = std::fs::remove_file(&straight);
    let _ = std::fs::remove_file(&resumed);
}

/// A snapshot flushed by an earlier serial explorer, which wrote its
/// section in sorted-key order rather than claim order, still resumes
/// to the fresh verdict: the reader does not depend on entry order.
#[test]
fn key_sorted_serial_snapshot_resumes_to_the_fresh_verdict() {
    let spec = protocols::msi_blocking_cache();
    let cfg = config_for(&spec, 3_000);
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("checkpoint_fixtures")
        .join("msi-b-serial-keysorted.ckpt");
    let loaded = Checkpoint::load(&fixture, &spec, &cfg).expect("fixture loads");
    assert!(
        loaded.entries.windows(2).all(|w| w[0].key < w[1].key),
        "fixture is not in sorted-key order"
    );
    let v = finished("fixture", go(&spec, &cfg, &resuming(&fixture)));
    assert_eq!(signature(&v), serial_baseline("keysorted", &spec, &cfg));
}

/// Damaged v2 files fail closed with a structured error — bit flips in
/// the manifest, the section bytes, and the envelope checksum must all
/// be caught, never panic or resume silently wrong.
#[test]
fn corrupted_v2_checkpoints_are_rejected() {
    let spec = protocols::msi_blocking_cache();
    let cfg = config_for(&spec, 3_000);
    let path = tmp("corrupt-src");
    let _ = std::fs::remove_file(&path);
    let plan = RunPlan {
        budget: Budget::unlimited().with_node_limit(900),
        ..checkpointing(&path, 1)
    };
    let _ = go(&spec, &cfg, &plan);
    let bytes = std::fs::read(&path).expect("snapshot must exist");
    assert!(bytes.len() > 100, "snapshot suspiciously small");

    // Flip one byte at a spread of offsets covering header, payload,
    // and trailing checksum.
    for frac in [13usize, 40, 60, 85, 99] {
        let at = bytes.len() * frac / 100;
        let mut bad = bytes.clone();
        bad[at] ^= 0x40;
        let victim = tmp(&format!("corrupt-{frac}"));
        std::fs::write(&victim, &bad).expect("write corrupted copy");
        match Checkpoint::load(&victim, &spec, &cfg) {
            Err(_) => {}
            Ok(_) => {
                // A flip that lands in slack the checksum still covers
                // cannot be Ok: the envelope checksum spans everything.
                panic!("byte flip at {at}/{} was accepted", bytes.len());
            }
        }
        let _ = std::fs::remove_file(&victim);
    }
    let _ = std::fs::remove_file(&path);
}

/// The threaded flush is a pure function of progress: the explorer
/// claims in the serial explorer's candidate order, so partition-local
/// ids — and with them every section byte — do not depend on thread
/// scheduling or thread count. Two `--parallel 2` runs and `--parallel
/// 1` and `4` runs stopped by the same node budget flush identical
/// files, and the file resumes to the uninterrupted verdict under the
/// serial explorer, the spilling serial explorer and the threaded one.
/// (The process-shard explorer resumes from its shard directory, not
/// from a checkpoint file.) The copies are byte-identical, so one
/// resume per explorer covers every copy.
#[test]
fn threaded_flush_is_identical_across_runs_and_thread_counts() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_vnet");
    let dir = std::env::temp_dir().join(format!("vnet-interchange-par-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mc = |args: &[&str]| -> (Option<i32>, String) {
        let out = Command::new(bin)
            .arg("mc")
            .args(args)
            .output()
            .expect("vnet mc should spawn");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let result_line = |stdout: &str| -> String {
        stdout
            .lines()
            .find(|l| l.starts_with("mc-result "))
            .unwrap_or_else(|| panic!("no mc-result line in:\n{stdout}"))
            .to_string()
    };

    let mut copies = Vec::new();
    for (i, threads) in ["2", "2", "1", "4"].into_iter().enumerate() {
        let path = dir.join(format!("run{i}-par{threads}.ckpt"));
        let path_s = path.display().to_string();
        let (code, out) = mc(&[
            "CHI",
            "--machine",
            "--parallel",
            threads,
            "--budget",
            "nodes=50000",
            "--checkpoint",
            &path_s,
        ]);
        assert_eq!(
            code,
            Some(3),
            "--parallel {threads} should stop on its budget:\n{out}"
        );
        copies.push((
            threads,
            std::fs::read(&path).expect("a budgeted run flushes"),
        ));
    }
    let (_, first) = &copies[0];
    for (threads, bytes) in &copies[1..] {
        assert!(
            bytes == first,
            "--parallel {threads} flushed different bytes than --parallel 2"
        );
    }

    let (code, fresh) = mc(&["CHI", "--machine"]);
    assert_eq!(
        code,
        Some(0),
        "the uninterrupted run must complete:\n{fresh}"
    );
    let spill = dir.join("spill").display().to_string();
    let explorers: [(&str, Vec<&str>); 3] = [
        ("serial", vec![]),
        (
            "spilling serial",
            vec!["--mem-budget", "9500000", "--spill-dir", &spill],
        ),
        ("threaded", vec!["--parallel", "2"]),
    ];
    for (name, extra) in &explorers {
        // A resumed run keeps checkpointing to its file: give each its own.
        let copy = dir.join(format!("resume-{}.ckpt", name.replace(' ', "-")));
        std::fs::write(&copy, first).unwrap();
        let copy_s = copy.display().to_string();
        let mut args = vec!["CHI", "--machine", "--resume", &copy_s];
        args.extend(extra);
        let (code, out) = mc(&args);
        assert_eq!(code, Some(0), "{name} resume failed:\n{out}");
        assert_eq!(
            result_line(&out),
            result_line(&fresh),
            "{name} resume diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
