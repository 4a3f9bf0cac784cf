//! End-to-end tests for the process-sharded explorer (`vnet mc
//! --shard-procs`), driven through the CLI: the supervisor re-invokes
//! the `vnet` binary for each shard worker, so these tests exercise the
//! same spawn path production uses. The properties under test are the
//! module's contract: verdict parity with the serial explorer,
//! shard-count invariance, bit-identical recovery from a worker killed
//! mid-round, directory-level supervisor resume, and a merged v2
//! checkpoint that the plain serial explorer can resume.

use std::path::PathBuf;
use std::process::Command;

fn vnet_bin() -> &'static str {
    env!("CARGO_BIN_EXE_vnet")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vnet-procshard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    let _ = std::fs::create_dir_all(&d);
    d
}

/// Runs `vnet mc` with `args`, returning (exit code, stdout).
fn run_mc(args: &[&str]) -> (i32, String) {
    let out = Command::new(vnet_bin())
        .arg("mc")
        .args(args)
        .output()
        .expect("vnet mc should spawn");
    let code = out.status.code().unwrap_or(-1);
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The `mc-result` machine line of an output, or a panic with context.
fn machine_line(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.starts_with("mc-result "))
        .unwrap_or_else(|| panic!("no mc-result line in:\n{stdout}"))
        .to_string()
}

/// Runs `vnet mc` with `args` plus `--metrics`, returning (exit code,
/// stdout, snapshot JSON).
fn run_mc_metered(args: &[&str], tag: &str) -> (i32, String, String) {
    let snap =
        std::env::temp_dir().join(format!("vnet-procshard-{tag}-{}.json", std::process::id()));
    let snap_s = snap.display().to_string();
    let mut full = args.to_vec();
    full.extend(["--metrics", &snap_s]);
    let (code, out) = run_mc(&full);
    let text = std::fs::read_to_string(&snap).unwrap_or_default();
    let _ = std::fs::remove_file(&snap);
    (code, out, text)
}

/// Pulls `"key": <number>` out of a metrics snapshot.
fn counter(snapshot: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let tail = &snapshot[snapshot.find(&pat)? + pat.len()..];
    let num: String = tail.chars().take_while(char::is_ascii_digit).collect();
    num.parse().ok()
}

/// The `states=` field of a machine line.
fn machine_states(stdout: &str) -> u64 {
    let line = machine_line(stdout);
    line.split_whitespace()
        .find_map(|t| t.strip_prefix("states="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no states= in {line}"))
}

/// Runs the CHI single-VN deadlock search on two shards undisturbed and
/// again with `extra` flags (a kill injection), and requires the two
/// stdouts to be byte-identical.
fn assert_kill_is_invisible(tag: &str, extra: &[&str]) {
    let mut outs = Vec::new();
    for (leg, kill) in [("clean", &[][..]), ("killed", extra)] {
        let dir = tmpdir(&format!("{tag}-{leg}"));
        let dir_s = dir.display().to_string();
        let mut args = vec![
            "CHI",
            "--single-vn",
            "--machine",
            "--verify-witness",
            "--shard-procs",
            "2",
            "--shard-dir",
            &dir_s,
        ];
        args.extend(kill);
        let (code, out) = run_mc(&args);
        assert_eq!(code, 2, "{tag} {leg} run failed:\n{out}");
        assert!(out.contains("witness verified"), "{tag} {leg}:\n{out}");
        outs.push(out);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        outs[0], outs[1],
        "{tag}: a killed-and-respawned shard changed the output"
    );
}

/// A complete (exhaustive) run must agree with the serial explorer on
/// everything the machine line carries: verdict kind, depth, distinct
/// state count, and exact provenance.
#[test]
fn complete_run_matches_the_serial_explorer() {
    let (serial_code, serial_out) = run_mc(&["CHI", "--machine"]);
    assert_eq!(serial_code, 0, "serial run failed:\n{serial_out}");

    let dir = tmpdir("complete");
    let dir_s = dir.display().to_string();
    let (code, out) = run_mc(&[
        "CHI",
        "--machine",
        "--shard-procs",
        "2",
        "--shard-dir",
        &dir_s,
    ]);
    assert_eq!(code, 0, "procshard run failed:\n{out}");
    assert_eq!(
        machine_line(&out),
        machine_line(&serial_out),
        "procshard diverged from serial"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shard count is a performance knob, not a semantic one: the same
/// workload under different fan-outs produces identical machine lines
/// — including the deadlock witness depth and the state count.
#[test]
fn deadlock_verdict_is_shard_count_invariant() {
    let mut lines = Vec::new();
    for n in ["1", "2", "3"] {
        let dir = tmpdir(&format!("inv{n}"));
        let dir_s = dir.display().to_string();
        let (code, out) = run_mc(&[
            "CHI",
            "--single-vn",
            "--machine",
            "--verify-witness",
            "--shard-procs",
            n,
            "--shard-dir",
            &dir_s,
        ]);
        assert_eq!(code, 2, "single-VN CHI must exit 2 (deadlock):\n{out}");
        assert!(
            out.contains("witness verified"),
            "witness must replay cleanly:\n{out}"
        );
        lines.push(machine_line(&out));
        let _ = std::fs::remove_dir_all(&dir);
    }
    for line in &lines[1..] {
        assert_eq!(&lines[0], line, "verdict depends on shard count");
    }
}

/// The acceptance scenario: a worker process dies mid-round — after
/// committing its segment, before its outboxes and result record — and
/// the supervisor respawns it. The CLI output must be bit-identical to
/// an undisturbed run, stdout bytes included.
#[test]
fn killed_shard_mid_round_reproduces_bit_identical_output() {
    let dir = tmpdir("clean");
    let dir_s = dir.display().to_string();
    let (code, clean) = run_mc(&[
        "CHI",
        "--single-vn",
        "--machine",
        "--verify-witness",
        "--shard-procs",
        "2",
        "--shard-dir",
        &dir_s,
    ]);
    assert_eq!(code, 2, "clean run failed:\n{clean}");
    assert!(
        clean.contains("witness verified"),
        "witness must replay cleanly:\n{clean}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmpdir("killed");
    let dir_s = dir.display().to_string();
    let (code, killed) = run_mc(&[
        "CHI",
        "--single-vn",
        "--machine",
        "--verify-witness",
        "--shard-procs",
        "2",
        "--shard-dir",
        &dir_s,
        "--inject-shard-kill",
        "7:1",
    ]);
    assert_eq!(code, 2, "kill-injected run failed:\n{killed}");
    assert_eq!(
        clean, killed,
        "a killed-and-respawned shard changed the output"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Workers live for the whole run: a clean two-shard run spawns two
/// processes, and every state is written to a segment exactly once. A
/// killed worker costs one more spawn and no output byte.
#[test]
fn workers_spawn_once_and_write_each_state_once() {
    let mut runs = Vec::new();
    for (tag, kill) in [
        ("count-clean", &[][..]),
        ("count-killed", &["--inject-shard-kill", "7:1"][..]),
    ] {
        let dir = tmpdir(tag);
        let dir_s = dir.display().to_string();
        let mut args = vec![
            "CHI",
            "--machine",
            "--shard-procs",
            "2",
            "--shard-dir",
            &dir_s,
        ];
        args.extend(kill);
        let (code, out, snap) = run_mc_metered(&args, tag);
        assert_eq!(code, 0, "{tag} run failed:\n{out}");
        runs.push((out, snap));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (clean, clean_snap) = &runs[0];
    let (killed, killed_snap) = &runs[1];
    assert_eq!(
        machine_states(clean),
        203_141,
        "CHI Figure 3 state count moved"
    );
    assert_eq!(
        counter(clean_snap, "explore.procshard.spawns_total"),
        Some(2)
    );
    assert_eq!(
        counter(clean_snap, "explore.procshard.entries_written_total"),
        Some(machine_states(clean)),
        "each state must be written to a segment exactly once"
    );
    assert_eq!(
        counter(killed_snap, "explore.procshard.spawns_total"),
        Some(3)
    );
    assert_eq!(
        counter(killed_snap, "explore.procshard.restarts_total"),
        Some(1)
    );
    assert_eq!(
        clean, killed,
        "a killed-and-respawned shard changed the output"
    );
}

/// Kill recovery composes with worker spill: under a memory budget the
/// workers shed cold keys to disk, and a respawned worker that rebuilds
/// its shard from segments must still reproduce the exact output.
#[test]
fn killed_spilling_shard_reproduces_bit_identical_output() {
    let dir = tmpdir("spill-probe");
    let dir_s = dir.display().to_string();
    let (code, out, snap) = run_mc_metered(
        &[
            "CHI",
            "--single-vn",
            "--machine",
            "--shard-procs",
            "2",
            "--shard-dir",
            &dir_s,
            "--mem-budget",
            "4000000",
        ],
        "spill-probe",
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, 2, "spilling run failed:\n{out}");
    assert!(
        counter(&snap, "explore.spill_bytes").is_some_and(|b| b > 0),
        "the budget must make the workers spill: {snap}"
    );
    assert_kill_is_invisible(
        "spill",
        &["--mem-budget", "4000000", "--inject-shard-kill", "12:0"],
    );
}

/// A worker killed in round 0 — the round that seeds the initial state
/// into exactly one shard — is recovered like any other. Both shards
/// are killed in turn, so the initial state's owner is among them.
#[test]
fn killed_shard_in_round_zero_reproduces_bit_identical_output() {
    assert_kill_is_invisible("round0-s0", &["--inject-shard-kill", "0:0"]);
    assert_kill_is_invisible("round0-s1", &["--inject-shard-kill", "0:1"]);
}

/// A dead *supervisor* is recovered by re-running the same command on
/// the same directory: the interrupted leg leaves committed rounds
/// behind (exactly what a SIGKILL leaves), and the second leg finishes
/// the search with the same machine line a fresh run produces.
#[test]
fn supervisor_resumes_a_partially_explored_directory() {
    let (_, fresh) = run_mc(&["CHI", "--single-vn", "--machine", "--verify-witness"]);
    let fresh_line = machine_line(&fresh);

    let dir = tmpdir("resume");
    let dir_s = dir.display().to_string();
    // Leg 1: a node budget stops the supervisor at a round boundary
    // (exit 3, degraded) — the directory now holds committed rounds.
    let (code, leg1) = run_mc(&[
        "CHI",
        "--single-vn",
        "--machine",
        "--shard-procs",
        "2",
        "--shard-dir",
        &dir_s,
        "--budget",
        "nodes=40000",
    ]);
    assert_eq!(code, 3, "budgeted leg should degrade:\n{leg1}");
    assert!(
        machine_line(&leg1).contains("degraded"),
        "leg 1 should be degraded:\n{leg1}"
    );

    // Leg 2: same command, no budget — picks up from the committed
    // round and must land on the fresh run's exact verdict.
    let (code, leg2) = run_mc(&[
        "CHI",
        "--single-vn",
        "--machine",
        "--verify-witness",
        "--shard-procs",
        "2",
        "--shard-dir",
        &dir_s,
    ]);
    assert_eq!(code, 2, "resumed leg should find the deadlock:\n{leg2}");
    assert!(
        leg2.contains("witness verified"),
        "resumed witness must replay cleanly:\n{leg2}"
    );
    assert_eq!(
        machine_line(&leg2),
        fresh_line,
        "resumed directory diverged from a fresh run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An interrupted procshard run with `--checkpoint` merges its shard
/// segments into one standard v2 checkpoint; the *serial* explorer must
/// be able to resume it and finish with its own exact verdict.
#[test]
fn merged_checkpoint_resumes_under_the_serial_explorer() {
    let (_, fresh) = run_mc(&["CHI", "--machine"]);
    let fresh_line = machine_line(&fresh);

    let dir = tmpdir("merge");
    let dir_s = dir.display().to_string();
    let ckpt = dir.join("merged.ckpt");
    let ckpt_s = ckpt.display().to_string();
    let (code, leg1) = run_mc(&[
        "CHI",
        "--machine",
        "--shard-procs",
        "2",
        "--shard-dir",
        &dir_s,
        "--budget",
        "nodes=60000",
        "--checkpoint",
        &ckpt_s,
    ]);
    assert_eq!(code, 3, "budgeted leg should degrade:\n{leg1}");
    assert!(ckpt.exists(), "degraded leg must flush a merged checkpoint");

    let (code, resumed) = run_mc(&["CHI", "--machine", "--resume", &ckpt_s]);
    assert_eq!(code, 0, "serial resume failed:\n{resumed}");
    assert_eq!(
        machine_line(&resumed),
        fresh_line,
        "serial resume of the merged checkpoint diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flag validation: the process-shard and out-of-core flags fail closed
/// on the combinations the explorers cannot honor.
#[test]
fn conflicting_flags_are_rejected_before_anything_runs() {
    let cases: &[&[&str]] = &[
        &["CHI", "--shard-procs", "2"],                      // no --shard-dir
        &["CHI", "--shard-dir", "/tmp/x"],                   // no --shard-procs
        &["CHI", "--shard-procs", "0", "--shard-dir", "/tmp/x"], // zero shards
        &["CHI", "--shard-procs", "2", "--shard-dir", "/tmp/x", "--parallel", "2"],
        &["CHI", "--shard-procs", "2", "--shard-dir", "/tmp/x", "--resume", "/tmp/y"],
        &["CHI", "--spill-dir", "/tmp/x"],                   // no --mem-budget
        &["CHI", "--mem-budget", "0"],                       // zero budget
        &["CHI", "--mem-budget", "1000000", "--spill-dir", "/tmp/x", "--parallel", "2"],
        &["CHI", "--inject-shard-kill", "1:0"],              // no --shard-procs
    ];
    for args in cases {
        let (code, out) = run_mc(args);
        assert_eq!(code, 1, "{args:?} should be a usage error, got:\n{out}");
    }
}

/// The FNV-1a-style checksum of a shard directory's meta record (the
/// checkpoint module's constants).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// A directory left mid-run by a binary of an older round-file format
/// must fail closed, naming the remedy, before any worker reads an
/// outbox: the directory is left exactly as it was found. Format 1
/// predates the format version and has a 12-byte meta record
/// (fingerprint, shard count); format 2 records its version and holds
/// key-ordered segments.
#[test]
fn shard_directory_of_an_older_format_is_refused() {
    for format in [1u32, 2] {
        let dir = tmpdir(&format!("old-format-{format}"));
        let dir_s = dir.display().to_string();
        let args = [
            "CHI",
            "--machine",
            "--shard-procs",
            "2",
            "--shard-dir",
            &dir_s,
            "--budget",
            "nodes=3000",
        ];
        let (code, out) = run_mc(&args);
        assert_eq!(code, 3, "the budgeted run should stop mid-run:\n{out}");

        let meta = dir.join("meta.bin");
        let record = std::fs::read(&meta).expect("a shard directory has a meta record");
        assert_eq!(
            record.len(),
            8 + 16,
            "meta = checksum, fingerprint, shard count, format"
        );
        let mut old = record[8..20].to_vec();
        if format > 1 {
            old.extend(format.to_le_bytes());
        }
        let mut rewritten = fnv1a(&old).to_le_bytes().to_vec();
        rewritten.extend_from_slice(&old);
        std::fs::write(&meta, &rewritten).unwrap();
        let snapshot = |d: &std::path::Path| {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(d)
                .unwrap()
                .flatten()
                .filter(|e| e.path().is_file())
                .map(|e| {
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        std::fs::read(e.path()).unwrap(),
                    )
                })
                .collect();
            files.sort();
            files
        };
        let before = snapshot(&dir);
        assert!(
            before.iter().any(|(name, _)| name.starts_with("out-")),
            "the mid-run directory should hold outboxes"
        );

        let out = Command::new(vnet_bin())
            .arg("mc")
            .args(args)
            .output()
            .expect("vnet mc should spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "an old-format directory must be refused:\n{stderr}"
        );
        assert!(
            stderr.contains(&format!("shard format {format}")),
            "{stderr}"
        );
        assert!(stderr.contains("use a fresh --shard-dir"), "{stderr}");
        assert!(
            snapshot(&dir) == before,
            "the refused directory was modified"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
