//! Reproducible explorer timing harness: measures states/second, peak
//! accounted bytes, and wall time for the `table1_mc` and
//! `mc_depth_series` workloads, and emits `BENCH_vnet.json` so every PR
//! leaves a perf trajectory behind.
//!
//! ```text
//! bench_explorer [--out FILE] [--only SUBSTR] [--repeat N]
//!                [--check BASELINE.json] [--max-regress PCT]
//!                [--mem-budget BYTES]
//! ```
//!
//! * `--out` — where to write the JSON report (default `BENCH_vnet.json`).
//! * `--only` — run only workloads whose name contains SUBSTR (the CI
//!   smoke job uses `--only MSI-blocking` to stay fast).
//! * `--repeat` — timed repetitions per workload; the median is
//!   reported (default 3).
//! * `--check` — compare states/sec against a previously committed
//!   report and exit non-zero if any shared workload regressed by more
//!   than `--max-regress` percent (default 30).
//! * `--mem-budget` — run every selected workload out-of-core under the
//!   given byte budget (spill threshold at 4/5 of it, mirroring
//!   `vnet mc --mem-budget`); the report then measures spill-tier
//!   throughput instead of in-RAM throughput.
//!
//! Each row runs in its own child process (the harness re-executes
//! itself with the hidden `--row NAME`), so a row's time does not
//! depend on the allocator and cache state the rows before it left.
//!
//! Independent of `--mem-budget`, the suite always includes one
//! spill-path workload (`CHI@derived-fig3+spill`, group
//! `table1_mc_spill`) so the committed report tracks out-of-core
//! throughput alongside the in-RAM entries.
//!
//! The workloads are the paper's §VII verification subjects: the
//! Table I deadlock confirmations (Figure-3 scenario) and the bounded
//! depth-series sweeps. Two `+par2` rows (group `table1_mc_par`) run
//! Figure-3 subjects on the thread-parallel explorer with 2 threads,
//! and the `+shard2` row (group `table1_mc_shard`) runs one on the
//! process-sharded explorer: it re-executes the `vnet` binary next to
//! this harness (`vnet mc <protocol> --machine --shard-procs 2`), so
//! build it first (`cargo build --release --bin vnet`). That row
//! reports no peak or spill bytes, and ignores `--mem-budget`.
//! Every run is deterministic, so states and levels are bit-stable;
//! only wall time varies.

use std::path::PathBuf;
use std::time::Instant;
use vnet_core::minimize_vns;
use vnet_mc::{
    CheckpointedRun, Explorer, InjectionBudget, McConfig, McRequest, RunPlan, SpillConfig, Verdict,
    VnMap,
};
use vnet_protocol::{protocols, ProtocolSpec};

/// One named (spec, config) pair to measure, and how it runs (a sharded
/// row through the `vnet` binary, under its default, minimal VN map).
struct Workload {
    name: String,
    group: &'static str,
    spec: ProtocolSpec,
    cfg: McConfig,
    plan: RunPlan,
}

/// A plan for `explorer`, without limits.
fn on(explorer: Explorer) -> RunPlan {
    RunPlan {
        explorer,
        ..RunPlan::default()
    }
}

/// One measured result.
struct Measurement {
    name: String,
    group: &'static str,
    verdict: String,
    states: usize,
    levels: usize,
    wall_ms: f64,
    states_per_sec: f64,
    peak_bytes: u64,
    spill_bytes: u64,
}

/// Scratch root for spill shards; removed at the end of the run.
fn spill_dir() -> PathBuf {
    std::env::temp_dir().join(format!("vnet-bench-spill-{}", std::process::id()))
}

fn derived_vns(spec: &ProtocolSpec) -> VnMap {
    let outcome = minimize_vns(spec);
    match outcome.assignment() {
        Some(a) => VnMap::from_assignment(a, spec.messages().len()),
        None => VnMap::one_per_message(spec.messages().len()),
    }
}

fn workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    // table1_mc: the Figure-3 directed scenario per Table I protocol.
    for spec in [
        protocols::msi_blocking_cache(),
        protocols::mesi_blocking_cache(),
        protocols::mosi_blocking_cache(),
        protocols::moesi_blocking_cache(),
    ] {
        let cfg =
            McConfig::figure3(&spec).with_vns(VnMap::one_per_message(spec.messages().len()));
        out.push(Workload {
            name: format!("{}@unique-fig3", spec.name()),
            group: "table1_mc",
            spec,
            cfg,
            plan: RunPlan::default(),
        });
    }
    for spec in [
        protocols::msi_nonblocking_cache(),
        protocols::mesi_nonblocking_cache(),
        protocols::chi(),
    ] {
        let vns = derived_vns(&spec);
        let cfg = McConfig::figure3(&spec).with_vns(vns);
        out.push(Workload {
            name: format!("{}@derived-fig3", spec.name()),
            group: "table1_mc",
            spec,
            cfg,
            plan: RunPlan::default(),
        });
    }
    // table1_mc_spill: one Figure-3 subject forced out-of-core, so the
    // committed report tracks spill-tier throughput over time. The
    // threshold sits well under the workload's ~37 MB in-RAM peak.
    {
        let spec = protocols::chi();
        let vns = derived_vns(&spec);
        let cfg = McConfig::figure3(&spec).with_vns(vns);
        out.push(Workload {
            name: format!("{}@derived-fig3+spill", spec.name()),
            group: "table1_mc_spill",
            spec,
            cfg,
            plan: RunPlan {
                spill: Some(SpillConfig::new(spill_dir().join("chi-fig3"), 16 << 20)),
                ..RunPlan::default()
            },
        });
    }
    // table1_mc_sym: the symmetry-reduced Table I sweep. A complete
    // 3-cache/2-address/1-directory general space (symmetry group
    // 3!·2! = 12) folded to canonical representatives — this row gates
    // the key-only canonicalizer's cost: a regression here means
    // symmetry mode stopped paying for itself. Always on, so the
    // committed report tracks folded throughput over time.
    {
        let spec = protocols::msi_blocking_cache();
        let vns = derived_vns(&spec);
        let mut cfg = McConfig::general(&spec)
            .with_vns(vns)
            .with_budget(InjectionBudget::PerCache(1));
        cfg.n_dirs = 1;
        let cfg = cfg
            .with_symmetry()
            .expect("the general scenario satisfies the symmetry preconditions");
        out.push(Workload {
            name: "MSI@table1+sym".to_string(),
            group: "table1_mc_sym",
            spec,
            cfg,
            plan: RunPlan::default(),
        });
    }
    // The 4-cache follow-up row: symmetry (group order 4!·2! = 48) is
    // what makes the 4-cache general sweep tractable at all, so this
    // row keeps the deeper fold's throughput under the same regression
    // gate as the 3-cache one.
    {
        let spec = protocols::msi_blocking_cache();
        let vns = derived_vns(&spec);
        let mut cfg = McConfig::general(&spec)
            .with_vns(vns)
            .with_budget(InjectionBudget::PerCache(1));
        cfg.n_dirs = 1;
        cfg.n_caches = 4;
        let cfg = cfg
            .with_symmetry()
            .expect("the general scenario satisfies the symmetry preconditions");
        out.push(Workload {
            name: "MSI@table1-4c+sym".to_string(),
            group: "table1_mc_sym",
            spec,
            cfg,
            plan: RunPlan::default(),
        });
    }
    // mc_depth_series: the bounded general sweeps (the big ones).
    for spec in [
        protocols::msi_nonblocking_cache(),
        protocols::mesi_nonblocking_cache(),
        protocols::chi(),
    ] {
        let vns = derived_vns(&spec);
        let cfg = McConfig::general(&spec)
            .with_vns(vns)
            .with_budget(InjectionBudget::PerCache(1))
            .with_limits(120_000, Some(40));
        out.push(Workload {
            name: format!("{}@derived-general", spec.name()),
            group: "mc_depth_series",
            spec,
            cfg,
            plan: RunPlan::default(),
        });
    }
    // table1_mc_par: Figure-3 subjects on the thread-parallel explorer,
    // so scale-out throughput is gated like serial throughput.
    for spec in [protocols::chi(), protocols::msi_nonblocking_cache()] {
        let vns = derived_vns(&spec);
        let cfg = McConfig::figure3(&spec).with_vns(vns);
        out.push(Workload {
            name: format!("{}@derived-fig3+par2", spec.name()),
            group: "table1_mc_par",
            spec,
            cfg,
            plan: on(Explorer::Threads(2)),
        });
    }
    // table1_mc_shard: the same kind of subject on the process-sharded
    // explorer, so its rounds, segments and outboxes are gated too.
    {
        let spec = protocols::chi();
        let vns = derived_vns(&spec);
        let cfg = McConfig::figure3(&spec).with_vns(vns);
        out.push(Workload {
            name: format!("{}@derived-fig3+shard2", spec.name()),
            group: "table1_mc_shard",
            spec,
            cfg,
            plan: on(Explorer::Shards {
                procs: 2,
                dir: spill_dir(),
            }),
        });
    }
    out
}

/// What one timed run of a workload found.
struct Run {
    verdict: String,
    states: usize,
    levels: usize,
    peak_bytes: u64,
    spill_bytes: u64,
}

impl Run {
    fn of(v: &Verdict) -> Run {
        let stats = v.stats();
        let verdict = match v {
            Verdict::Deadlock { .. } => "deadlock",
            Verdict::NoDeadlock(_) => "no_deadlock",
            Verdict::ModelError { .. } => "model_error",
            Verdict::InvariantViolation { .. } => "invariant_violation",
        };
        Run {
            verdict: verdict.to_string(),
            states: stats.states,
            levels: stats.levels,
            peak_bytes: stats.peak_bytes,
            spill_bytes: stats.spill_bytes,
        }
    }
}

/// Runs `vnet mc <protocol> --machine --shard-procs <procs>` in a fresh
/// shard directory for repetition `rep` and reads its `mc-result` line.
fn run_sharded(spec: &ProtocolSpec, procs: u32, rep: usize) -> Result<Run, String> {
    let harness = std::env::current_exe().map_err(|e| e.to_string())?;
    let vnet = harness.with_file_name(format!("vnet{}", std::env::consts::EXE_SUFFIX));
    let dir = spill_dir().join(format!("shard{rep}"));
    let plan = on(Explorer::Shards { procs, dir });
    let out = std::process::Command::new(&vnet)
        .args(plan.mc_argv(spec.name(), &McRequest::default()))
        .output()
        .map_err(|e| format!("cannot run {}: {e}", vnet.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("mc-result "))
        .ok_or_else(|| format!("no mc-result line from vnet (exit {:?})", out.status.code()))?;
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("no `{key}` in `{line}`"))
    };
    let count = |key: &str| -> Result<usize, String> {
        field(key)?.parse().map_err(|_| format!("bad `{key}` in `{line}`"))
    };
    Ok(Run {
        verdict: field("kind")?.replace('-', "_"),
        states: count("states")?,
        levels: count("levels")?,
        peak_bytes: 0,
        spill_bytes: 0,
    })
}

fn measure(w: &Workload, repeat: usize) -> Result<Measurement, String> {
    let mut walls: Vec<f64> = Vec::with_capacity(repeat);
    let mut last = None;
    for i in 0..repeat {
        let t = Instant::now();
        let run = match &w.plan.explorer {
            Explorer::Shards { procs, .. } => run_sharded(&w.spec, *procs, i)?,
            _ => match vnet_mc::run(&w.spec, &w.cfg, &w.plan, |_, _| {}) {
                Ok(CheckpointedRun::Finished(v)) => Run::of(&v),
                other => return Err(format!("run did not finish: {other:?}")),
            },
        };
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(run);
    }
    let run = last.ok_or("no repetition ran")?;
    walls.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let wall_ms = walls[walls.len() / 2];
    Ok(Measurement {
        name: w.name.clone(),
        group: w.group,
        verdict: run.verdict,
        states: run.states,
        levels: run.levels,
        wall_ms,
        states_per_sec: if wall_ms > 0.0 {
            run.states as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        peak_bytes: run.peak_bytes,
        spill_bytes: run.spill_bytes,
    })
}

/// Measures `w` in a fresh child process (this binary with `--row`),
/// so its time does not depend on what earlier rows left behind.
fn measure_in_child(
    w: &Workload,
    repeat: usize,
    mem_budget: Option<u64>,
) -> Result<Measurement, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--row", &w.name, "--repeat", &repeat.to_string()]);
    if let Some(b) = mem_budget {
        cmd.args(["--mem-budget", &b.to_string()]);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("row "))
        .ok_or_else(|| format!("no result line (exit {:?})", out.status.code()))?;
    let f: Vec<&str> = line.split_whitespace().collect();
    let num = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("malformed result line `{line}`"))
    };
    let (states, wall_ms) = (num(1)? as usize, num(3)?);
    Ok(Measurement {
        name: w.name.clone(),
        group: w.group,
        verdict: f[0].to_string(),
        states,
        levels: num(2)? as usize,
        wall_ms,
        states_per_sec: if wall_ms > 0.0 {
            states as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        peak_bytes: num(4)? as u64,
        spill_bytes: num(5)? as u64,
    })
}

fn to_json(results: &[Measurement]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n  \"bench\": \"bench_explorer\",\n");
    out.push_str("  \"workloads\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"group\": \"{}\", \"verdict\": \"{}\", \
             \"states\": {}, \"levels\": {}, \"wall_ms\": {:.2}, \
             \"states_per_sec\": {:.0}, \"peak_bytes\": {}, \"spill_bytes\": {}}}{}",
            m.name,
            m.group,
            m.verdict,
            m.states,
            m.levels,
            m.wall_ms,
            m.states_per_sec,
            m.peak_bytes,
            m.spill_bytes,
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n");
    let total: f64 = results.iter().map(|m| m.states as f64).sum();
    let wall: f64 = results.iter().map(|m| m.wall_ms).sum();
    let _ = writeln!(
        out,
        "  \"aggregate\": {{\"states\": {:.0}, \"wall_ms\": {:.2}, \"states_per_sec\": {:.0}}}",
        total,
        wall,
        if wall > 0.0 { total / (wall / 1e3) } else { 0.0 }
    );
    out.push_str("}\n");
    out
}

/// Pulls `"name": "<w>" ... "states_per_sec": <num>` pairs out of a
/// previously committed report. Deliberately minimal: it parses only
/// the format `to_json` writes.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = rest[..name_end].to_string();
        let Some(sps_at) = line.find("\"states_per_sec\": ") else {
            continue;
        };
        let tail = &line[sps_at + 18..];
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_vnet.json".to_string());
    let only = flag(&args, "--only");
    // Fail closed on `--repeat 0` (an empty sample has no median) and
    // on unparseable values — silently falling back to the default
    // would hide the typo from the caller.
    let repeat: usize = match flag(&args, "--repeat") {
        None => 3,
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("bench_explorer: --repeat needs a positive repetition count, got `{v}`");
                std::process::exit(1);
            }
        },
    };
    let check = flag(&args, "--check");
    let max_regress: f64 = flag(&args, "--max-regress")
        .and_then(|v| v.parse().ok())
        .unwrap_or(30.0);
    let mem_budget: Option<u64> = match flag(&args, "--mem-budget") {
        None => None,
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                eprintln!("bench_explorer: --mem-budget needs a positive byte count, got `{v}`");
                std::process::exit(1);
            }
        },
    };

    // Child mode: measure the one named row and print it as one line.
    if let Some(name) = flag(&args, "--row") {
        let Some(mut w) = workloads().into_iter().find(|w| w.name == name) else {
            eprintln!("bench_explorer: no workload named `{name}`");
            std::process::exit(1);
        };
        if let Some(b) = mem_budget.filter(|_| w.plan.explorer == Explorer::Serial) {
            // Out-of-core mode: the budget and spill trigger of `vnet mc
            // --mem-budget <b> --spill-dir`, so bench numbers transfer.
            w.plan.budget = w.plan.budget.with_mem_limit(b);
            w.plan.spill = Some(SpillConfig::for_budget(spill_dir().join("row"), b));
        }
        let m = measure(&w, repeat);
        let _ = std::fs::remove_dir_all(spill_dir());
        let m = match m {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bench_explorer: {name}: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "row {} {} {} {} {} {}",
            m.verdict, m.states, m.levels, m.wall_ms, m.peak_bytes, m.spill_bytes
        );
        return;
    }

    let selected: Vec<Workload> = workloads()
        .into_iter()
        .filter(|w| only.as_ref().is_none_or(|o| w.name.contains(o.as_str())))
        .collect();
    if selected.is_empty() {
        eprintln!("bench_explorer: no workload matches the --only filter");
        std::process::exit(1);
    }

    println!("bench_explorer: {} workload(s), repeat={repeat}", selected.len());
    let mut results = Vec::with_capacity(selected.len());
    for w in &selected {
        let m = match measure_in_child(w, repeat, mem_budget) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bench_explorer: row {} failed: {e}", w.name);
                std::process::exit(1);
            }
        };
        println!(
            "  {:<44} {:>9} states  {:>8.1} ms  {:>10.0} states/s  peak {} B  spilled {} B  [{}]",
            m.name, m.states, m.wall_ms, m.states_per_sec, m.peak_bytes, m.spill_bytes, m.verdict
        );
        results.push(m);
    }

    let json = to_json(&results);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_explorer: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("report written to {out_path}");

    if let Some(baseline_path) = check {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_explorer: cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        let baseline = parse_baseline(&text);
        let mut failed = false;
        let mut compared = 0;
        for m in &results {
            let Some((_, base_sps)) = baseline.iter().find(|(n, _)| *n == m.name) else {
                continue;
            };
            compared += 1;
            let floor = base_sps * (1.0 - max_regress / 100.0);
            let status = if m.states_per_sec < floor { "REGRESSED" } else { "ok" };
            println!(
                "  check {:<40} {:>10.0} vs baseline {:>10.0} (floor {:>10.0}) {status}",
                m.name, m.states_per_sec, base_sps, floor
            );
            if m.states_per_sec < floor {
                failed = true;
            }
        }
        if compared == 0 {
            eprintln!("bench_explorer: baseline shares no workload with this run");
            std::process::exit(1);
        }
        if failed {
            eprintln!(
                "bench_explorer: states/sec regressed more than {max_regress}% on at least \
                 one workload"
            );
            std::process::exit(2);
        }
        println!("no regression beyond {max_regress}% on {compared} shared workload(s)");
    }
}
