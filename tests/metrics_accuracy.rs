//! Regression test for the observability overhead contract: enabling
//! `--metrics` must not perturb the model checker's output in any way
//! (bit-identical stdout, same exit code), and the snapshot's
//! `explore.states_total` must equal the `ExploreStats` the run
//! reported — even on a degraded (budget-exhausted) exit.

use std::process::Command;

/// A budgeted workload: the node budget degrades the run at a
/// deterministic state count, so stdout is bit-stable across runs and
/// the metrics snapshot is exercised on the degraded exit path.
const ARGS: &[&str] = &[
    "mc",
    "MSI-blocking-cache",
    "--unique-vns",
    "--budget",
    "nodes=50000",
];

fn vnet(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vnet"))
        .args(ARGS)
        .args(extra)
        .output()
        .expect("vnet should spawn")
}

/// Pulls `"key": <number>` out of the snapshot JSON. Deliberately
/// minimal: it parses only the format `Snapshot::to_json` writes.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let at = text.find(&pat)?;
    let tail = &text[at + pat.len()..];
    let num: String = tail.chars().take_while(char::is_ascii_digit).collect();
    num.parse().ok()
}

/// Pulls the state count out of the CLI's `(<n> states, <m> levels)`
/// verdict line.
fn stdout_states(stdout: &str) -> Option<u64> {
    let at = stdout.find(" states")?;
    let head = &stdout[..at];
    let start = head.rfind('(')? + 1;
    head[start..].trim().parse().ok()
}

#[test]
fn metrics_flag_is_invisible_in_output_and_exact_in_counts() {
    let snap_path = std::env::temp_dir().join(format!(
        "vnet-metrics-accuracy-{}.json",
        std::process::id()
    ));

    let plain = vnet(&[]);
    let snap_str = snap_path.to_string_lossy().into_owned();
    let metered = vnet(&["--metrics", &snap_str]);

    // Overhead contract: instrumentation never changes what the tool
    // says or how it exits.
    assert_eq!(
        plain.status.code(),
        metered.status.code(),
        "exit code changed under --metrics"
    );
    assert_eq!(
        plain.stdout, metered.stdout,
        "stdout must be bit-identical under --metrics"
    );

    // Accuracy contract: the counter equals the ExploreStats exactly.
    let snapshot = std::fs::read_to_string(&snap_path)
        .expect("--metrics must write the snapshot even on a degraded exit");
    let _ = std::fs::remove_file(&snap_path);
    let stdout = String::from_utf8_lossy(&plain.stdout);
    let reported = stdout_states(&stdout)
        .unwrap_or_else(|| panic!("no state count in stdout: {stdout}"));
    assert_eq!(
        json_u64(&snapshot, "explore.states_total"),
        Some(reported),
        "explore.states_total must equal the reported ExploreStats"
    );
    assert_eq!(json_u64(&snapshot, "explore.runs_total"), Some(1));
    assert_eq!(json_u64(&snapshot, "schema"), Some(1));
}

/// The process-shard supervisor counts its run like the kernel does:
/// `explore.states_total` equals the machine line's state count, here on
/// the degraded exit of the budgeted workload, and the per-level series
/// counts every claim but the root's, as the kernel's does.
#[test]
fn process_shard_states_total_equals_the_machine_line() {
    let base = std::env::temp_dir().join(format!(
        "vnet-metrics-procshard-states-{}",
        std::process::id()
    ));
    let snap_path = base.with_extension("json");
    let shard_dir = base.with_extension("shards");
    let _ = std::fs::remove_dir_all(&shard_dir);
    let snap_str = snap_path.to_string_lossy().into_owned();
    let shard_str = shard_dir.to_string_lossy().into_owned();
    let out = vnet(&[
        "--machine",
        "--shard-procs",
        "2",
        "--shard-dir",
        &shard_str,
        "--metrics",
        &snap_str,
    ]);
    let _ = std::fs::remove_dir_all(&shard_dir);
    let snapshot = std::fs::read_to_string(&snap_path).expect("--metrics writes the snapshot");
    let _ = std::fs::remove_file(&snap_path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("mc-result "))
        .unwrap_or_else(|| panic!("no mc-result line in {stdout}"));
    let field = |name: &str| -> u64 {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(name))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {line}"))
    };
    assert_eq!(
        json_u64(&snapshot, "explore.states_total"),
        Some(field("states=")),
        "explore.states_total must equal the machine line's states under --shard-procs 2"
    );
    assert_eq!(json_u64(&snapshot, "explore.runs_total"), Some(1));
    let per_level = snapshot
        .find("\"explore.level_states\"")
        .and_then(|at| json_u64(&snapshot[at..], "sum"));
    assert_eq!(per_level, Some(field("states=") - 1), "{snapshot}");
}

/// The symmetry canonicalizer's tallies reach the snapshot from the
/// serial and the threaded explorer, and the exact prunings show in
/// them: fewer candidate images started per key than the 11
/// non-identity elements of the 3!·2! group.
#[test]
fn symmetry_tallies_are_flushed_by_both_explorers() {
    for extra in [&[][..], &["--parallel", "2"][..]] {
        let snap_path = std::env::temp_dir().join(format!(
            "vnet-metrics-symmetry-{}-{}.json",
            std::process::id(),
            extra.len()
        ));
        let snap_str = snap_path.to_string_lossy().into_owned();
        let out = Command::new(env!("CARGO_BIN_EXE_vnet"))
            .args(["mc", "MSI-blocking-cache", "--general", "--symmetry"])
            .args(["--caches", "3", "--dirs", "1", "--per-cache", "1"])
            .args(["--metrics", &snap_str])
            .args(extra)
            .output()
            .expect("vnet should spawn");
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {out:?}");
        let snapshot = std::fs::read_to_string(&snap_path).expect("--metrics writes the snapshot");
        let _ = std::fs::remove_file(&snap_path);
        let keys = json_u64(&snapshot, "explore.symmetry_keys_total")
            .unwrap_or_else(|| panic!("{extra:?}: no key tally in {snapshot}"));
        let images = json_u64(&snapshot, "explore.symmetry_images_total")
            .unwrap_or_else(|| panic!("{extra:?}: no image tally in {snapshot}"));
        let states = json_u64(&snapshot, "explore.states_total").unwrap_or(0);
        assert!(
            keys >= states && states > 0,
            "{extra:?}: {keys} keys for {states} states"
        );
        assert!(
            images < keys * 11,
            "{extra:?}: {images} images for {keys} keys"
        );
    }
}

/// Process-shard workers report their canonicalizer tallies in their
/// round records, and the supervisor's totals equal the serial run's
/// exactly: on a complete run both explorers canonicalize the same
/// successors of the same states, plus the initial state once.
#[test]
fn process_shard_symmetry_tallies_equal_the_serial_run() {
    let mut totals = Vec::new();
    for (tag, extra) in [("serial", false), ("sharded", true)] {
        let base = std::env::temp_dir().join(format!(
            "vnet-metrics-procshard-sym-{tag}-{}",
            std::process::id()
        ));
        let snap_path = base.with_extension("json");
        let shard_dir = base.with_extension("shards");
        let _ = std::fs::remove_dir_all(&shard_dir);
        let snap_str = snap_path.to_string_lossy().into_owned();
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_vnet"));
        cmd.args(["mc", "MSI-blocking-cache", "--general", "--symmetry"])
            .args(["--caches", "3", "--dirs", "1", "--per-cache", "1"])
            .args(["--metrics", &snap_str]);
        if extra {
            cmd.args(["--shard-procs", "2", "--shard-dir"])
                .arg(&shard_dir);
        }
        let out = cmd.output().expect("vnet should spawn");
        let _ = std::fs::remove_dir_all(&shard_dir);
        assert_eq!(out.status.code(), Some(0), "{tag}: {out:?}");
        let snapshot = std::fs::read_to_string(&snap_path).expect("--metrics writes the snapshot");
        let _ = std::fs::remove_file(&snap_path);
        let tally = |key: &str| {
            json_u64(&snapshot, key).unwrap_or_else(|| panic!("{tag}: no {key} in {snapshot}"))
        };
        totals.push((
            tally("explore.symmetry_images_total"),
            tally("explore.symmetry_keys_total"),
        ));
    }
    assert!(totals[0].1 > 0, "the serial run must canonicalize");
    assert_eq!(
        totals[0], totals[1],
        "(images, keys): serial vs --shard-procs 2"
    );
}
