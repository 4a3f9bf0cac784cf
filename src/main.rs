//! `vnet` — command-line interface to the VN-minimization pipeline.
//!
//! The moral equivalent of the paper artifact's `python3 main.py
//! <PROTOCOL>`, plus spec tooling:
//!
//! ```text
//! vnet analyze <protocol>       class, minimum VNs, mapping, relations
//! vnet check <protocol> <map>   certify a hand-written mapping (Eq. 4)
//! vnet render <protocol>        print the controller tables
//! vnet export <protocol>        emit the spec in the text DSL
//! vnet mc <protocol> [--vns N]  model-check the Figure-3 scenario
//! vnet sim <protocol>           run the cycle simulator, with faults
//! vnet list                     list built-in protocols
//! ```
//!
//! `<protocol>` is a built-in name (see `vnet list`) or a path to a
//! `.vnp` file in the text DSL. `<map>` assigns VNs as
//! `Msg=0,Other=1,...` (unlisted messages default to VN 0).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use vnet::core::assignment::{certify, VnAssignment};
use vnet::core::textbook::textbook_vn_count;
use vnet::core::{analyze, analyze_budgeted, report, Budget, VnOutcome};
use vnet::protocol::{dsl, protocols, ControllerKind, ProtocolSpec};

/// Every way a `vnet` invocation can end, unified in one place. Each
/// variant maps to a distinct process exit code (see the README table)
/// so scripts and CI can branch on the result without scraping output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Everything ran and nothing bad was found.
    Clean,
    /// The command line or its input was malformed; nothing ran.
    UsageError,
    /// A deadlock — or a found deadlock *risk*: an uncertifiable mapping
    /// or a Class-2 verdict — was detected.
    DeadlockFound,
    /// A `--budget` was exhausted: the printed result is degraded or
    /// partial, not exact.
    Degraded,
    /// The run was stopped cooperatively (stop file) and a resumable
    /// checkpoint was written.
    Interrupted,
    /// A campaign finished but some protocol produced no verdict at
    /// all (every attempt crashed or timed out).
    Incomplete,
    /// `vnet serve` could not start (bind failure, bad checkpoint dir).
    /// Distinct from `UsageError` so supervisors can tell "fix the
    /// flags" from "the port is taken, restart me elsewhere".
    ServeStartupFailure,
    /// `vnet store verify` found quarantined (committed but
    /// checksum-failing) records: previously acknowledged results were
    /// lost to corruption. Distinct from `Clean` — a torn tail rolled
    /// back to the last commit marker is normal crash recovery, this
    /// is not.
    StoreCorrupt,
    /// `vnet fuzz` found a differential-oracle disagreement: the static
    /// analyzer certified a VN configuration the model checker can
    /// deadlock. The strongest possible red flag — a minimized repro
    /// bundle is written so the finding replays byte-identically.
    OracleDisagreement,
}

impl Outcome {
    /// The process exit code for this outcome — the single source of
    /// truth the README table documents.
    fn code(self) -> u8 {
        match self {
            Outcome::Clean => 0,
            Outcome::UsageError => 1,
            Outcome::DeadlockFound => 2,
            Outcome::Degraded => 3,
            Outcome::Interrupted => 4,
            Outcome::Incomplete => 5,
            Outcome::ServeStartupFailure => 6,
            Outcome::StoreCorrupt => 7,
            Outcome::OracleDisagreement => 8,
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = match ObsFlags::extract(&mut args) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            return ExitCode::from(Outcome::UsageError.code());
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            Outcome::UsageError
        }
    };
    // Snapshots are written on *every* run exit — clean, deadlock,
    // degraded, or interrupted — so a budget-exhausted campaign still
    // leaves its telemetry behind. A usage error never ran anything,
    // so there is nothing worth writing.
    if outcome != Outcome::UsageError {
        obs.write_outputs();
    }
    ExitCode::from(outcome.code())
}

/// The global observability flags, stripped from the argument list
/// before command dispatch so every command accepts them uniformly.
struct ObsFlags {
    /// `--metrics <file>`: write a metrics snapshot (JSON) on exit.
    metrics: Option<PathBuf>,
    /// `--trace <file>`: write the span log on exit.
    trace: Option<PathBuf>,
}

impl ObsFlags {
    /// Pulls `--metrics`/`--trace` (and their values) out of `args` and
    /// turns the corresponding recording on. Instrumentation stays
    /// disabled — and costs one relaxed load per site — when the flags
    /// are absent.
    fn extract(args: &mut Vec<String>) -> Result<ObsFlags, String> {
        let mut take = |flag: &str| -> Result<Option<PathBuf>, String> {
            match args.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) => {
                    if args.iter().skip(i + 1).any(|a| a == flag) {
                        return Err(format!("{flag} given more than once"));
                    }
                    if i + 1 >= args.len() {
                        return Err(format!("{flag} needs a file path"));
                    }
                    let path = args.remove(i + 1);
                    args.remove(i);
                    Ok(Some(PathBuf::from(path)))
                }
            }
        };
        let metrics = take("--metrics")?;
        let trace = take("--trace")?;
        if metrics.is_some() {
            vnet::obs::set_metrics_enabled(true);
        }
        if trace.is_some() {
            vnet::obs::set_tracing_enabled(true);
        }
        Ok(ObsFlags { metrics, trace })
    }

    /// Writes the requested snapshot/log files. Failures are warnings:
    /// lost telemetry must not change the run's verdict exit code.
    fn write_outputs(&self) {
        if let Some(path) = &self.metrics {
            let json = vnet::obs::snapshot().to_json();
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: cannot write metrics snapshot {}: {e}", path.display());
            }
        }
        if let Some(path) = &self.trace {
            let log = vnet::obs::trace_log();
            if let Err(e) = std::fs::write(path, log) {
                eprintln!("warning: cannot write trace log {}: {e}", path.display());
            }
        }
    }
}

const USAGE: &str = "\
usage:
  vnet list
  vnet analyze <protocol> [--budget <budget>]
  vnet check <protocol> <Msg=VN,Msg=VN,...>
  vnet render <protocol>
  vnet export <protocol>
  vnet explain <protocol>
  vnet export-murphi <protocol>
  vnet dot <protocol> <union|condition|conflict>
  vnet diff <protocol-a> <protocol-b>
  vnet mc <protocol> [--unique-vns | --single-vn] [--general [--symmetry]]
          [--caches <n>] [--addrs <n>] [--dirs <n>] [--per-cache <n>]
          [--budget <budget>] [--machine] [--verify-witness] [--parameterized]
          [--parallel <threads>] [--checkpoint <file>] [--resume <file>]
          [--checkpoint-interval <states>] [--stop-file <file>]
          [--inject-worker-panic <level>:<times>]
          [--mem-budget <bytes>] [--spill-dir <dir>]
          [--shard-procs <n> --shard-dir <dir>] [--inject-shard-kill <round>:<shard>]
  vnet campaign [<dir>] [--isolation thread|process] [--timeout <dur>] [--retries <n>]
          [--threads <n>] [--budget <budget>] [--symmetry] [--checkpoint-dir <dir>]
          [--stop-file <file>] [--report <file>] [--inject-worker-panic <level>:<times>]
          [--mem-budget <bytes>] [--spill-dir <dir>] [--shard-procs <n>]
  vnet sim <protocol> [--faults <plan>] [--seed <n>] [--topology ring:<n>|mesh:<r>x<c>]
           [--ops <n>] [--max-cycles <n>] [--unique-vns | --single-vn] [--recirculation]
  vnet serve [--listen <addr> | --stdin] [--workers <n>] [--queue <n>]
           [--deadline <dur>] [--mem-budget <bytes>] [--max-request-bytes <n>]
           [--stop-file <file>] [--drain-grace <dur>] [--checkpoint-dir <dir>]
           [--store-dir <dir>] [--store-max-bytes <n>] [--enable-test-faults]
  vnet store verify <dir>
  vnet store gc <dir> [--max-bytes <n>]
  vnet fuzz <protocol> [--seed <n>] [--count <n>] [--index <i>] [--parallel <threads>]
           [--max-ops <n>] [--max-states <n>] [--max-depth <n>] [--timeout <dur>]
           [--retries <n>] [--report <file>] [--findings-dir <dir>] [--no-shrink]
           [--dump-rejected <dir>] [--inject-oracle-skew] [--symmetry]
  vnet fuzz --replay <recipe.json> [--report <file>] [--findings-dir <dir>]

<protocol> is a built-in name or a path to a .vnp file (text DSL).
<budget>   comma-separated limits: `500ms` / `2s` (deadline), `nodes=100000`;
           on exhaustion the solvers degrade to heuristics and the exit code is 3.
<plan>     fault clauses as accepted by FaultPlan::parse, e.g.
           drop=0.02,dup=0.01,delay=0.05:3,reorder=0.1 (deterministic per --seed)
<dur>      `90s` or `1500ms`

Every command also accepts `--metrics <file>` (write a JSON metrics snapshot
on exit, even degraded/cancelled ones) and `--trace <file>` (write a span
log). Instrumentation is off — and costs nothing — without these flags.

`vnet mc --general` explores the free-running general scenario (uniform
per-cache injection budget, unordered ICN) instead of the directed Figure-3
script; adding `--symmetry` folds states equivalent under cache × address
permutations into one canonical representative — same verdict, far fewer
stored states. `--symmetry` requires `--general`: the Figure-3 script names
specific caches and would break the symmetry (fail-closed usage error).
`--caches/--addrs/--dirs/--per-cache` resize the general scenario (e.g.
`--caches 4` for the 4-cache sweep symmetry makes tractable, `--per-cache 1`
for a space small enough to complete exactly); they also need `--general`.

`vnet mc --parameterized` additionally runs the flow-abstraction checker: it
lifts the Eq. 4 acyclicity test to message classes and, when the abstraction's
soundness preconditions hold (per-cache budget, unordered ICN, no SWMR
invariant, flows covering the vocabulary), certifies deadlock freedom for
EVERY cache count under the run's VN map — provenance `parameterized`. Any
failed precondition or Eq. 4 cycle degrades fail-closed to provenance
`bounded-only: <reason>`: the explicit-state verdict above it stays the
strongest claim, and the exit code is still governed by the explicit run.
With `--machine` the result is one extra `param-result verdict=<free-all-n|
not-provable|inapplicable> provenance=...` line next to `mc-result`.

`vnet mc --mem-budget <bytes>` bounds the explorer's accounted footprint;
adding `--spill-dir <dir>` sheds cold visited keys to checksummed disk
segments at 4/5 of the budget instead of degrading. `--shard-procs <n>
--shard-dir <dir>` partitions the state space across n worker *processes*
coordinating through <dir>: a SIGKILLed worker is respawned and replays only
its own round, and re-running the same command resumes a killed supervisor.

`vnet campaign` sweeps every .vnp spec in <dir> (default `protocols/`, the
Table I set) with per-protocol isolation, timeout, retry-with-backoff, and
checkpoint resume, and emits a machine-readable JSON report.

`vnet serve` runs the analysis daemon: newline-delimited JSON requests over
TCP (default 127.0.0.1:7700) or stdin, with bounded queueing, per-request
deadlines and memory budgets, and graceful drain on SIGTERM / stop-file.
`--store-dir <dir>` adds the durable result store: exact analyze/mc results
write through to an append-only content-addressed log and repeat requests
answer from it in microseconds with provenance \"cached\" — across restarts
and crashes. `vnet campaign --store-dir <dir>` pre-warms the same store with
Table I verdicts.

`vnet store verify <dir>` replays the store's crash recovery and reports it:
exit 0 when every committed record is intact (a rolled-back torn tail is
normal recovery), exit 7 when committed records had to be quarantined.
`vnet store gc <dir>` compacts to the newest record per key, evicting
oldest-first under `--max-bytes`.

`vnet fuzz` mutates <protocol> --count times (seeded, deterministic: mutant i
depends only on --seed and i) and cross-checks every valid mutant analyzer-
vs-model-checker. A disagreement (analyzer-certified VN config that the
bounded checker deadlocks) exits 8, auto-shrinks, and writes a repro bundle
under --findings-dir whose recipe.json replays byte-identically via
`vnet fuzz --replay`. `--inject-oracle-skew` is a drill switch that checks
safety one VN short of the assignment, deterministically manufacturing a
disagreement to exercise the whole finding path.

exit codes: 0 clean, 1 usage/input error, 2 deadlock found, 3 degraded result,
            4 interrupted (resumable checkpoint written), 5 campaign incomplete,
            6 serve startup failure, 7 store corruption (quarantined records),
            8 fuzz oracle disagreement (analyzer vs model checker; repro written).";

fn run(args: &[String]) -> Result<Outcome, String> {
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "list" => {
            println!("built-in protocols:");
            for p in protocols::extended() {
                let exp = protocols::experiment_of(p.name())
                    .map(|e| format!(" (Table I experiment {e})"))
                    .unwrap_or_else(|| " (extension)".to_string());
                println!("  {}{exp}", p.name());
            }
            Ok(Outcome::Clean)
        }
        "analyze" => {
            let spec = load(args.get(1).ok_or("analyze needs a protocol")?)?;
            let budget = budget_flag(args)?;
            let r = analyze_budgeted(&spec, &budget);
            print!("{}", report::full_report(&r));
            println!(
                "\n(for comparison, the textbook rule would provision {} VNs)",
                textbook_vn_count(&spec)
            );
            if matches!(r.outcome(), VnOutcome::Class2(_)) {
                println!(
                    "parameterized: not applicable — the waits cycle defeats every VN \
                     map at every system size"
                );
                println!("protocol is Class 2: no VN count avoids deadlock on ordered VNs");
                return Ok(Outcome::DeadlockFound);
            }
            // Certify the minimum-VN assignment for *all* N via the
            // flow abstraction, and probe that one VN fewer loses the
            // certificate (the analyzer's minimality, restated at the
            // flow level). Both lines degrade honestly: anything short
            // of a certified pass prints its bounded-only reason.
            if let VnOutcome::Assigned { assignment, .. } = r.outcome() {
                use vnet::mc::{check_vn_map, VnMap};
                let n_msgs = spec.messages().len();
                let assigned = VnMap::from_assignment(assignment, n_msgs);
                let fv = check_vn_map(&spec, &assigned);
                println!("{}", fv.render());
                let n = assignment.n_vns();
                if n >= 2 && fv.is_free_for_all_n() {
                    let folded: Vec<usize> = assigned
                        .vn_vector()
                        .iter()
                        .map(|&vn| if vn == n - 1 { n - 2 } else { vn })
                        .collect();
                    let short = check_vn_map(&spec, &VnMap::from_vns(folded));
                    if short.is_free_for_all_n() {
                        // Impossible if the analyzer's minimality holds;
                        // surface loudly rather than hiding it.
                        println!(
                            "warning: a {}-VN fold still certifies — contradicts minimality",
                            n - 1
                        );
                    } else {
                        println!("{}", fold_probe_line(n));
                    }
                }
            }
            if !r.outcome().provenance().is_exact() {
                println!("note: result is degraded (budget exhausted); minimality not guaranteed");
                return Ok(Outcome::Degraded);
            }
            Ok(Outcome::Clean)
        }
        "check" => {
            let spec = load(args.get(1).ok_or("check needs a protocol")?)?;
            let map = args.get(2).ok_or("check needs a mapping like GetS=0,Data=1")?;
            let assignment = parse_mapping(&spec, map)?;
            let r = analyze(&spec);
            let ok = certify(&spec, r.waits(), &assignment);
            println!(
                "mapping uses {} VN(s); Eq. 4 {}",
                assignment.n_vns(),
                if ok { "holds: deadlock-free" } else { "FAILS: deadlock possible" }
            );
            print!("{}", assignment.display(&spec));
            if ok {
                Ok(Outcome::Clean)
            } else {
                Ok(Outcome::DeadlockFound)
            }
        }
        "render" => {
            let spec = load(args.get(1).ok_or("render needs a protocol")?)?;
            println!("=== {} cache controller ===", spec.name());
            println!(
                "{}",
                vnet_bench_render(&spec, ControllerKind::Cache)
            );
            println!("=== {} directory controller ===", spec.name());
            println!(
                "{}",
                vnet_bench_render(&spec, ControllerKind::Directory)
            );
            Ok(Outcome::Clean)
        }
        "explain" => {
            let spec = load(args.get(1).ok_or("explain needs a protocol")?)?;
            let r = analyze(&spec);
            println!("{}", vnet::core::explain::explain(&r));
            Ok(Outcome::Clean)
        }
        "dot" => {
            let spec = load(args.get(1).ok_or("dot needs a protocol")?)?;
            let which = args.get(2).map(String::as_str).unwrap_or("condition");
            let r = analyze(&spec);
            let text = match which {
                "union" => vnet::core::report::dot_union(&r),
                "condition" => vnet::core::report::dot_condition(&r),
                "conflict" => vnet::core::report::dot_conflict(&r)
                    .ok_or("Class 2 protocol has no conflict graph")?,
                other => return Err(format!("unknown graph {other}")),
            };
            print!("{text}");
            Ok(Outcome::Clean)
        }
        "diff" => {
            let a = load(args.get(1).ok_or("diff needs two protocols")?)?;
            let b = load(args.get(2).ok_or("diff needs two protocols")?)?;
            print!("{}", vnet::protocol::diff::diff_specs(&a, &b));
            Ok(Outcome::Clean)
        }
        "export-murphi" => {
            let spec = load(args.get(1).ok_or("export-murphi needs a protocol")?)?;
            let cfg = vnet::mc::McConfig::general(&spec);
            print!("{}", vnet::mc::murphi::export(&spec, &cfg));
            Ok(Outcome::Clean)
        }
        "export" => {
            let spec = load(args.get(1).ok_or("export needs a protocol")?)?;
            print!("{}", dsl::to_text(&spec));
            Ok(Outcome::Clean)
        }
        "mc" => {
            let spec = load(args.get(1).ok_or("mc needs a protocol")?)?;
            use vnet::mc::{campaign, CheckpointedRun, McRequest, RunPlan, Verdict};
            let request = McRequest::from_args(args)?;
            let (cfg, class2) = request.config(&spec)?;
            if class2 {
                println!("Class 2 protocol: checking with one VN per message");
            }
            let machine = args.iter().any(|a| a == "--machine");
            let plan = RunPlan {
                shard_cell: Some((args[1].clone(), request)),
                ..RunPlan::from_args(args)?
            };
            let run = vnet::mc::run(&spec, &cfg, &plan, |_, _| {})
                .map_err(|e| format!("checkpoint error: {e}"))?;
            let v = match run {
                CheckpointedRun::Finished(v) => v,
                CheckpointedRun::Interrupted {
                    checkpoint,
                    states,
                    level,
                } => {
                    println!(
                        "interrupted at level {level} ({states} states); resumable checkpoint \
                         written to {}",
                        checkpoint.display()
                    );
                    return Ok(Outcome::Interrupted);
                }
            };

            println!("{}", v.summary());
            if machine {
                println!("{}", campaign::machine_line(&v));
            }
            // --parameterized: lift the verdict to all N when the flow
            // abstraction applies. Purely additive output — the exit
            // code stays governed by the explicit-state verdict, and
            // an inapplicable abstraction says so instead of claiming.
            if args.iter().any(|a| a == "--parameterized") {
                let fv = vnet::mc::check_parameterized(&spec, &cfg);
                println!("{}", fv.render());
                if machine {
                    println!("{}", fv.machine_line());
                }
            }
            match &v {
                Verdict::Deadlock { trace, .. } => {
                    // --verify-witness replays the trace step by step
                    // before trusting it: under --symmetry the stored
                    // parent chain links canonical representatives, and
                    // the de-canonicalizer must have turned it back
                    // into a real concrete execution.
                    if args.iter().any(|a| a == "--verify-witness") {
                        let end = trace
                            .replay(&spec, &cfg)
                            .map_err(|e| format!("witness does not replay: {e}"))?;
                        if end != trace.last {
                            return Err(
                                "witness replay diverged from the recorded terminal state".into()
                            );
                        }
                        println!("witness verified: {} steps replay cleanly", trace.len());
                    }
                    // --machine keeps output small and parseable for
                    // the campaign supervisor; skip the trace dump.
                    if !machine {
                        println!("{}", trace.display(&spec, &cfg));
                    }
                    Ok(Outcome::DeadlockFound)
                }
                Verdict::ModelError { detail, .. } | Verdict::InvariantViolation { detail, .. } => {
                    Err(format!("model checking found a specification bug: {detail}"))
                }
                Verdict::NoDeadlock(stats) if !stats.provenance.is_exact() => {
                    println!("note: partial exploration only (budget exhausted)");
                    Ok(Outcome::Degraded)
                }
                Verdict::NoDeadlock(_) => Ok(Outcome::Clean),
            }
        }
        "campaign" => {
            use std::path::Path;
            use vnet::mc::campaign::{self, CampaignConfig, Isolation};
            use vnet::mc::{request::SPILL_NEEDS_BUDGET, RunPlan};
            let dir = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .unwrap_or("protocols");
            let entries = campaign::discover(Path::new(dir))?;
            // Resolved up front so a bad --store-dir fails before any
            // model checking runs, not after the whole sweep.
            let store_dir = flag_value(args, "--store-dir")?.map(std::path::PathBuf::from);
            if let Some(sd) = &store_dir {
                if matches!(vnet::store::dir_state(sd), Ok(vnet::store::DirState::Foreign)) {
                    return Err(format!(
                        "--store-dir {} is non-empty but not a result store; \
                         refusing to initialize into it",
                        sd.display()
                    ));
                }
            }
            let threads = parse_flag(args, "--threads", 0)?;
            // 0 is the *implicit* auto default; written out explicitly
            // it is more likely a script bug, so fail closed.
            if threads == 0 && flag_value(args, "--threads")?.is_some() {
                return Err(
                    "--threads needs a positive worker count (omit the flag for auto parallelism)"
                        .into(),
                );
            }
            let mut cc = CampaignConfig::new()
                .with_retries(parse_flag(args, "--retries", 2)?)
                .with_threads(threads)
                .with_budget(budget_flag(args)?);
            if let Some(t) = flag_value(args, "--timeout")? {
                cc = cc.with_timeout(parse_duration(&t)?);
            }
            cc = match flag_value(args, "--isolation")?.as_deref() {
                None | Some("thread") => cc.with_isolation(Isolation::Thread),
                Some("process") => cc.with_isolation(Isolation::Process),
                Some(other) => {
                    return Err(format!(
                        "unknown isolation `{other}` (want thread or process)"
                    ))
                }
            };
            if let Some(d) = flag_value(args, "--checkpoint-dir")? {
                cc = cc.with_checkpoint_dir(d);
            }
            if let Some(s) = flag_value(args, "--stop-file")? {
                cc = cc.with_stop_file(s);
            }
            // The flags `vnet mc` shares are parsed and checked by its
            // plan's rules; the isolation checks are the campaign's own.
            if let Some(i) = RunPlan::inject_panic_flag(args)? {
                cc = cc.with_injection(i);
            }
            if let Some(b) = RunPlan::mem_budget_flag(args)? {
                cc = cc.with_mem_budget(b);
            }
            if let Some(d) = flag_value(args, "--spill-dir")? {
                if cc.budget.mem_limit.is_none() {
                    return Err(SPILL_NEEDS_BUDGET.into());
                }
                if cc.isolation != Isolation::Process {
                    return Err("--spill-dir needs --isolation process".into());
                }
                cc = cc.with_spill_dir(d);
            }
            if let Some(n) = RunPlan::shard_procs_flag(args)? {
                if cc.isolation != Isolation::Process {
                    return Err("--shard-procs needs --isolation process".into());
                }
                if cc.spill_dir.is_some() {
                    return Err(
                        "--shard-procs workers spill inside their shard dirs; drop --spill-dir"
                            .into(),
                    );
                }
                cc = cc.with_shard_procs(n);
            }
            if args.iter().any(|a| a == "--symmetry") {
                cc = cc.with_symmetry();
            }
            // Every row of the sweep — thread-isolated runs, process
            // children, and the store write-through below — derives
            // its config from the campaign's one request.
            let cfg_of = |spec: &ProtocolSpec| cc.config_of(spec);
            println!(
                "campaign: {} protocol(s) from {dir}, {:?} isolation",
                entries.len(),
                cc.isolation
            );
            let rep = campaign::run_campaign(&entries, &cc, cfg_of, |r| {
                match (&r.kind, &r.error) {
                    (Some(kind), _) => println!(
                        "  {}: {kind} at depth {} ({} states) [{}]{}",
                        r.protocol,
                        r.depth,
                        r.states,
                        r.provenance,
                        if r.retries > 0 {
                            format!(" after {} retry(ies), {} resume(s)", r.retries, r.resumes)
                        } else {
                            String::new()
                        }
                    ),
                    (None, Some(e)) => println!("  {}: FAILED: {e}", r.protocol),
                    (None, None) => println!("  {}: FAILED", r.protocol),
                }
            });
            if let Some(sd) = &store_dir {
                // Write exact verdicts through to the durable store
                // under the same keys the serve daemon derives, so a
                // sweep pre-warms the cache for later `mc` requests.
                // Degraded rows are skipped: partial explorations are
                // not facts worth caching.
                let mut store = vnet::store::Store::open(sd).map_err(|e| e.to_string())?;
                let mut written = 0usize;
                for r in &rep.runs {
                    let kind = match r.kind.as_deref() {
                        Some(k @ ("deadlock" | "no-deadlock")) => k,
                        _ => continue,
                    };
                    if r.provenance != "exact" {
                        continue;
                    }
                    let entry = match entries.iter().find(|e| e.name == r.protocol) {
                        Some(e) => e,
                        None => continue,
                    };
                    let spec = campaign::load_spec(&entry.arg)?;
                    let cfg = cfg_of(&spec);
                    // Campaign bodies are plain mc results (the flow
                    // verdict rides in the campaign report, not the
                    // store), so they address the plain key.
                    let key = vnet::serve::exec::mc_store_key(&spec, &cfg, false);
                    let body = vnet::serve::exec::mc_result_body(
                        &r.protocol,
                        kind,
                        r.depth,
                        r.states,
                        r.levels,
                        r.complete,
                    );
                    match store.put(key, vnet::store::RecordKind::Mc, &body) {
                        Ok(true) => written += 1,
                        Ok(false) => {}
                        Err(e) => eprintln!("campaign: store write failed for {}: {e}", r.protocol),
                    }
                }
                println!(
                    "store: {written} exact result(s) written to {} ({} total)",
                    sd.display(),
                    store.len()
                );
            }
            let json = rep.to_json();
            match flag_value(args, "--report")? {
                Some(f) => {
                    std::fs::write(&f, &json).map_err(|e| format!("{f}: {e}"))?;
                    println!("report written to {f}");
                }
                None => print!("{json}"),
            }
            if rep.interrupted {
                Ok(Outcome::Interrupted)
            } else if !rep.all_completed() {
                Ok(Outcome::Incomplete)
            } else if rep.any_degraded() {
                Ok(Outcome::Degraded)
            } else {
                // Deadlock verdicts are Table I's expected findings,
                // not campaign failures: a full sweep is a clean exit.
                Ok(Outcome::Clean)
            }
        }
        "sim" => {
            let spec = load(args.get(1).ok_or("sim needs a protocol")?)?;
            use vnet::mc::VnMap;
            use vnet::sim::{FaultPlan, SimConfig, Simulator, Topology, Workload};
            let plan = match flag_value(args, "--faults")? {
                Some(text) => FaultPlan::parse(&text).map_err(|e| e.to_string())?,
                None => FaultPlan::none(),
            };
            let seed: u64 = parse_flag(args, "--seed", 1)?;
            let ops: usize = parse_flag(args, "--ops", 40)?;
            let max_cycles: u64 = parse_flag(args, "--max-cycles", 300_000)?;
            let topology = match flag_value(args, "--topology")? {
                Some(t) => parse_topology(&t)?,
                None => Topology::Mesh(2, 3),
            };
            // SimConfig::new asserts these preconditions; reject bad
            // user input here so the CLI errs instead of aborting.
            let n_dirs = 2;
            if topology.nodes() <= n_dirs {
                return Err(format!(
                    "topology has {} node(s) but {n_dirs} are directories; need at least {}",
                    topology.nodes(),
                    n_dirs + 1
                ));
            }
            if topology.nodes() - n_dirs > 8 {
                return Err(format!(
                    "topology has {} cache nodes; the checker's bitmask supports at most 8",
                    topology.nodes() - n_dirs
                ));
            }
            let n_msgs = spec.messages().len();
            let vns = if args.iter().any(|a| a == "--unique-vns") {
                VnMap::one_per_message(n_msgs)
            } else if args.iter().any(|a| a == "--single-vn") {
                VnMap::single(n_msgs)
            } else {
                match vnet::sim::sim::minimal_vn_map(&spec) {
                    Some(m) => m,
                    None => {
                        println!("Class 2 protocol: simulating with one VN per message");
                        VnMap::one_per_message(n_msgs)
                    }
                }
            };
            let mut cfg = SimConfig::new(&spec, topology, 2, n_dirs).with_vns(vns);
            if !plan.is_empty() {
                cfg = cfg.with_faults(plan, seed);
            }
            if args.iter().any(|a| a == "--recirculation") {
                cfg = cfg.with_recirculation();
            }
            let workload = Workload::uniform_random(cfg.n_caches(), 2, ops, seed);
            let r = Simulator::new(spec, cfg).run(workload, max_cycles);
            println!(
                "{} VN(s), buffer cost {}; {} cycles",
                r.n_vns, r.buffer_cost, r.cycles
            );
            println!(
                "transactions completed: {} (unfinished ops: {})",
                r.completed_transactions, r.unfinished_ops
            );
            if r.completed_transactions > 0 {
                println!(
                    "latency: avg {:.1}, p99 {} cycles; peak buffer occupancy {}",
                    r.avg_latency, r.p99_latency, r.peak_occupancy
                );
            }
            if let Some(f) = &r.faults {
                println!(
                    "faults fired: dropped {}, duplicated {}, delayed {}, reordered {}, blocked-by-outage {}",
                    f.dropped, f.duplicated, f.delayed, f.reordered, f.down_blocked
                );
            }
            if let Some(detail) = &r.model_error {
                return Err(format!("specification bug under simulation: {detail}"));
            }
            if r.deadlocked {
                if let Some(rep) = &r.deadlock {
                    println!("{rep}");
                }
                return Ok(Outcome::DeadlockFound);
            }
            Ok(Outcome::Clean)
        }
        "serve" => {
            use vnet_serve::ServeOpts;
            // Fail-closed sizing: zero workers or a zero queue is a
            // typo, not a request for "unlimited" or "none".
            let mut opts = ServeOpts {
                workers: parse_flag(args, "--workers", 0usize)?,
                ..ServeOpts::default()
            };
            if flag_value(args, "--workers")?.is_some() && opts.workers == 0 {
                return Err("--workers must be positive".into());
            }
            opts.queue_cap = parse_flag(args, "--queue", opts.queue_cap)?;
            if opts.queue_cap == 0 {
                return Err("--queue must be positive".into());
            }
            if let Some(d) = flag_value(args, "--deadline")? {
                let d = parse_duration(&d)?;
                if d.is_zero() {
                    return Err("--deadline must be positive".into());
                }
                opts.deadline = d;
            }
            opts.mem_budget = parse_flag(args, "--mem-budget", opts.mem_budget)?;
            if opts.mem_budget == 0 {
                return Err("--mem-budget must be positive".into());
            }
            opts.max_request_bytes =
                parse_flag(args, "--max-request-bytes", opts.max_request_bytes)?;
            if opts.max_request_bytes == 0 {
                return Err("--max-request-bytes must be positive".into());
            }
            if let Some(g) = flag_value(args, "--drain-grace")? {
                opts.drain_grace = parse_duration(&g)?;
            }
            opts.stop_file = flag_value(args, "--stop-file")?.map(std::path::PathBuf::from);
            opts.checkpoint_dir =
                flag_value(args, "--checkpoint-dir")?.map(std::path::PathBuf::from);
            opts.store_dir = flag_value(args, "--store-dir")?.map(std::path::PathBuf::from);
            opts.store_max_bytes = opt_flag(args, "--store-max-bytes")?;
            if opts.store_max_bytes == Some(0) {
                return Err("--store-max-bytes must be positive".into());
            }
            if opts.store_max_bytes.is_some() && opts.store_dir.is_none() {
                return Err("--store-max-bytes needs --store-dir".into());
            }
            opts.test_faults = args.iter().any(|a| a == "--enable-test-faults");

            if let Some(dir) = &opts.checkpoint_dir {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("serve: cannot create checkpoint dir {}: {e}", dir.display());
                    return Ok(Outcome::ServeStartupFailure);
                }
            }
            // Fail-closed usage check before anything starts: a
            // non-empty directory that is not a store is someone
            // else's data — refuse to initialize into it (exit 1).
            // Genuine open failures later (permissions, bad disk) are
            // startup failures (exit 6), not usage errors.
            if let Some(dir) = &opts.store_dir {
                match vnet::store::dir_state(dir) {
                    Ok(vnet::store::DirState::Foreign) => {
                        return Err(format!(
                            "--store-dir {} is non-empty but not a result store; \
                             refusing to initialize into it",
                            dir.display()
                        ));
                    }
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("serve: cannot inspect store dir: {e}");
                        return Ok(Outcome::ServeStartupFailure);
                    }
                }
            }

            if args.iter().any(|a| a == "--stdin") {
                vnet_serve::serve_stdio(opts).map_err(|e| format!("serve: {e}"))?;
                return Ok(Outcome::Clean);
            }
            let addr = flag_value(args, "--listen")?
                .unwrap_or_else(|| "127.0.0.1:7700".to_string());
            let listener = match std::net::TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("serve: cannot listen on {addr}: {e}");
                    return Ok(Outcome::ServeStartupFailure);
                }
            };
            match vnet_serve::serve_tcp(listener, opts) {
                Ok(()) => Ok(Outcome::Clean),
                Err(e) => {
                    eprintln!("serve: {e}");
                    Ok(Outcome::ServeStartupFailure)
                }
            }
        }
        "store" => {
            let sub = args.get(1).map(String::as_str).ok_or(
                "store needs a subcommand: verify <dir> | gc <dir> [--max-bytes <n>]",
            )?;
            let dir = args
                .get(2)
                .filter(|a| !a.starts_with("--"))
                .map(std::path::PathBuf::from)
                .ok_or_else(|| format!("store {sub} needs a store directory"))?;
            match sub {
                "verify" => {
                    // open_existing never initializes, so a typo'd
                    // path is a usage error, not a fresh empty store
                    // that vacuously verifies.
                    let store = vnet::store::Store::open_existing(&dir)
                        .map_err(|e| e.to_string())?;
                    let rep = store.open_report();
                    println!(
                        "store {}: {} record(s), {} key(s), {} log byte(s)",
                        dir.display(),
                        rep.records,
                        store.len(),
                        store.log_bytes()
                    );
                    if rep.rolled_back_bytes > 0 {
                        println!(
                            "  rolled back {} uncommitted tail byte(s) (torn write; no data loss)",
                            rep.rolled_back_bytes
                        );
                    }
                    if rep.skipped_unreadable > 0 {
                        println!(
                            "  {} record(s) kept but unreadable by this build (newer schema)",
                            rep.skipped_unreadable
                        );
                    }
                    if rep.quarantined > 0 {
                        for f in vnet::store::quarantine_files(&dir) {
                            println!("  quarantined: {f}");
                        }
                        eprintln!(
                            "store: {} corrupt record(s) quarantined — committed data was lost",
                            rep.quarantined
                        );
                        Ok(Outcome::StoreCorrupt)
                    } else {
                        println!("  intact: every committed record verified");
                        Ok(Outcome::Clean)
                    }
                }
                "gc" => {
                    let max_bytes: Option<u64> = opt_flag(args, "--max-bytes")?;
                    if max_bytes == Some(0) {
                        return Err("--max-bytes must be positive".into());
                    }
                    let mut store = vnet::store::Store::open_existing(&dir)
                        .map_err(|e| e.to_string())?;
                    let rep = store.gc(max_bytes).map_err(|e| e.to_string())?;
                    println!(
                        "store gc {}: kept {}, evicted {}, {} -> {} byte(s)",
                        dir.display(),
                        rep.kept,
                        rep.evicted,
                        rep.bytes_before,
                        rep.bytes_after
                    );
                    Ok(Outcome::Clean)
                }
                // Hidden: seed a store with synthetic records. Exists
                // for the crash harness (tests/store_crash.rs), which
                // SIGKILLs this process mid-append under
                // VNET_STORE_SLOW_APPEND_US to land torn writes at
                // arbitrary byte offsets.
                "fill" => {
                    let count: usize = parse_flag(args, "--count", 0)?;
                    if count == 0 {
                        return Err("store fill needs --count <n>".into());
                    }
                    let body_bytes: usize = parse_flag(args, "--body-bytes", 64)?;
                    let mut store =
                        vnet::store::Store::open(&dir).map_err(|e| e.to_string())?;
                    for i in 0..count {
                        let key = vnet::store::Key::derive(&[
                            b"fill/1".as_slice(),
                            i.to_le_bytes().as_slice(),
                        ]);
                        let body = format!(
                            "{{\"fill\":{i},\"pad\":\"{}\"}}",
                            "x".repeat(body_bytes)
                        );
                        store
                            .put(key, vnet::store::RecordKind::Mc, &body)
                            .map_err(|e| e.to_string())?;
                    }
                    println!("store fill: {count} record(s) in {}", dir.display());
                    Ok(Outcome::Clean)
                }
                other => Err(format!(
                    "unknown store subcommand `{other}` (want verify or gc)"
                )),
            }
        }
        "fuzz" => run_fuzz(args),
        // Hidden: one shard process of `vnet mc --shard-procs`, serving
        // the rounds its supervisor rings on stdin until stdin closes.
        // Spawned by the supervisor, never typed by hand; errors land
        // on a nonzero exit that the supervisor treats as a casualty.
        "__shard-worker" => {
            use vnet::mc::{run_worker, McRequest, WorkerOpts};
            let need = |name: &str| -> Result<String, String> {
                flag_value(args, name)?.ok_or_else(|| format!("__shard-worker needs {name}"))
            };
            let spec = load(&need("--spec")?)?;
            // Stdout is the doorbell pipe: no Class-2 note here.
            let (cfg, _) = McRequest::from_args(args)
                .and_then(|r| r.config(&spec))
                .map_err(|e| format!("shard worker: {e}"))?;
            let parse_u32 = |name: &str| -> Result<u32, String> {
                opt_flag(args, name)?.ok_or_else(|| format!("__shard-worker needs {name}"))
            };
            let w = WorkerOpts {
                dir: PathBuf::from(need("--dir")?),
                shard: parse_u32("--shard")?,
                of: parse_u32("--of")?,
                mem_budget: opt_flag(args, "--mem-budget")?,
                crash_round: opt_flag(args, "--crash-round")?,
            };
            run_worker(&spec, &cfg, &w).map_err(|e| format!("shard worker: {e}"))?;
            Ok(Outcome::Clean)
        }
        "" => Err("no command given".into()),
        other => Err(format!("unknown command {other}")),
    }
}

/// `vnet fuzz`: seeded mutation campaign (or single-recipe replay) with
/// the analyzer-vs-model-checker differential oracle.
fn run_fuzz(args: &[String]) -> Result<Outcome, String> {
    use vnet::fuzz::{run_campaign, FuzzConfig};

    let mut cfg;
    let expected_ops: Option<Vec<String>>;
    if let Some(recipe_path) = flag_value(args, "--replay")? {
        let text = std::fs::read_to_string(&recipe_path)
            .map_err(|e| format!("{recipe_path}: {e}"))?;
        let (parsed, ops) = parse_recipe(&text)?;
        cfg = parsed;
        expected_ops = Some(ops);
    } else {
        let name = args
            .get(1)
            .filter(|a| !a.starts_with("--"))
            .ok_or("fuzz needs a protocol (or --replay <recipe.json>)")?;
        cfg = FuzzConfig::new(name.clone());
        cfg.seed = parse_flag(args, "--seed", 0u64)?;
        cfg.count = parse_flag(args, "--count", 100usize)?;
        if let Some(index) = flag_value(args, "--index")? {
            cfg.start_index = index
                .parse()
                .map_err(|_| format!("bad value for --index: `{index}`"))?;
            cfg.count = 1;
        }
        cfg.max_ops = parse_flag(args, "--max-ops", cfg.max_ops)?;
        cfg.oracle.max_states = parse_flag(args, "--max-states", cfg.oracle.max_states)?;
        if let Some(d) = flag_value(args, "--max-depth")? {
            cfg.oracle.max_depth =
                Some(d.parse().map_err(|_| format!("bad value for --max-depth: `{d}`"))?);
        }
        cfg.oracle.skew = args.iter().any(|a| a == "--inject-oracle-skew");
        cfg.oracle.symmetry = args.iter().any(|a| a == "--symmetry");
        expected_ops = None;
    }
    // Scheduling knobs are never part of a recipe: they cannot change
    // report content, only how fast it is produced.
    cfg.parallel = parse_flag(args, "--parallel", 1usize)?;
    if let Some(t) = flag_value(args, "--timeout")? {
        cfg.timeout = parse_duration(&t)?;
    }
    cfg.retries = parse_flag(args, "--retries", cfg.retries)?;
    cfg.shrink = !args.iter().any(|a| a == "--no-shrink");
    cfg.findings_dir = flag_value(args, "--findings-dir")?.map(PathBuf::from);
    if cfg.count == 0 {
        return Err("fuzz needs --count >= 1".into());
    }

    let spec = load(&cfg.protocol)?;
    let report = run_campaign(&spec, &cfg);

    // A replayed recipe must regenerate the exact trace it recorded;
    // anything else means the recipe (or the generator) drifted, and
    // the "byte-identical reproduction" claim would be silently false.
    if let Some(expected) = expected_ops {
        let got: Vec<String> = report.mutants[0].ops.iter().map(|o| o.render()).collect();
        if got != expected {
            return Err(format!(
                "replay mismatch: recipe ops {expected:?} but seed {} index {} regenerates {got:?}",
                cfg.seed, cfg.start_index
            ));
        }
    }

    println!(
        "fuzz: {} mutants of {} (seed {}, start {}, max {} ops/mutant)",
        cfg.count, cfg.protocol, cfg.seed, cfg.start_index, cfg.max_ops
    );
    for (tag, n) in report.counts() {
        if n > 0 {
            println!("  {tag:<18} {n}");
        }
    }
    for rec in &report.mutants {
        if rec.result.is_disagreement() {
            println!(
                "DISAGREEMENT at index {}: {}",
                rec.index,
                match &rec.result {
                    vnet::fuzz::CaseResult::Outcome(o) => o.detail().to_string(),
                    _ => String::new(),
                }
            );
            println!(
                "  recipe: {}",
                vnet::fuzz::report::recipe_line(&cfg, rec.index, &rec.ops)
            );
            if let Some(min) = &rec.minimized {
                println!(
                    "  minimized to {} op(s) in {} shrink step(s)",
                    min.ops.len(),
                    min.steps
                );
            }
        }
    }
    for (index, dir) in &report.bundles {
        println!("repro bundle for index {index}: {}", dir.display());
    }
    for err in &report.bundle_errors {
        eprintln!("warning: bundle write failed: {err}");
    }

    if let Some(path) = flag_value(args, "--report")? {
        let json = vnet::fuzz::report::render_report(&report);
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        println!("report written to {path}");
    }
    if let Some(dir) = flag_value(args, "--dump-rejected")? {
        dump_rejected(&spec, &cfg, &report, Path::new(&dir))?;
    }

    if report.disagreements() > 0 {
        Ok(Outcome::OracleDisagreement)
    } else if report.crashes() > 0 {
        Ok(Outcome::Incomplete)
    } else if report.undetermined() > 0 {
        Ok(Outcome::Degraded)
    } else {
        Ok(Outcome::Clean)
    }
}

/// Parses a repro-bundle `recipe.json` line back into a campaign config
/// pinned to the one recorded mutant, plus the expected op renderings.
fn parse_recipe(text: &str) -> Result<(vnet::fuzz::FuzzConfig, Vec<String>), String> {
    use vnet::serve::json::{parse, Json};
    let v = parse(text.trim()).map_err(|e| format!("bad recipe: {e}"))?;
    let str_field = |k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("recipe is missing `{k}`"))
    };
    let num_field = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("recipe is missing `{k}`"))
    };
    let mut cfg = vnet::fuzz::FuzzConfig::new(str_field("protocol")?);
    cfg.seed = num_field("seed")?;
    cfg.start_index = num_field("index")? as usize;
    cfg.count = 1;
    cfg.max_ops = num_field("max_ops")? as usize;
    cfg.oracle.max_states = num_field("max_states")? as usize;
    cfg.oracle.max_depth = match v.get("max_depth") {
        None | Some(Json::Null) => None,
        Some(d) => Some(
            d.as_u64()
                .ok_or_else(|| "bad `max_depth` in recipe".to_string())? as usize,
        ),
    };
    cfg.oracle.analyzer_nodes = num_field("analyzer_nodes")?;
    cfg.oracle.skew = v
        .get("skew")
        .and_then(Json::as_bool)
        .ok_or_else(|| "recipe is missing `skew`".to_string())?;
    // Optional with a false default so recipes written before the
    // field existed keep replaying byte-identically.
    cfg.oracle.symmetry = v.get("symmetry").and_then(Json::as_bool).unwrap_or(false);
    let ops = match v.get("ops") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|i| {
                i.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string op in recipe".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("recipe is missing `ops`".into()),
    };
    Ok((cfg, ops))
}

/// `--dump-rejected <dir>`: writes each rejected mutant as a shrunk,
/// self-describing bad-spec corpus candidate (the headers match what
/// `tests/dsl_bad_specs.rs` asserts).
fn dump_rejected(
    spec: &ProtocolSpec,
    cfg: &vnet::fuzz::FuzzConfig,
    report: &vnet::fuzz::CampaignReport,
    dir: &Path,
) -> Result<(), String> {
    use vnet::fuzz::{minimize, CaseResult, MutantOutcome};
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut written = 0usize;
    for rec in &report.mutants {
        let CaseResult::Outcome(out) = &rec.result else {
            continue;
        };
        let expect = match out {
            MutantOutcome::ValidateRejected { error } => {
                format!("# expect-validate: {error}")
            }
            MutantOutcome::RoundTripFailed { .. } => {
                // Re-derive the parse failure line/message so the header
                // matches the corpus harness's `# expect:` format.
                match dsl::parse(&rec.text) {
                    Err(e) => format!("# expect: {}: {}", e.line, e.message),
                    Ok(_) => continue, // canonicalization mismatch, not a parse error
                }
            }
            _ => continue,
        };
        let min = minimize(spec, &rec.ops, &cfg.oracle, out.tag());
        let text = if min.text.is_empty() { rec.text.clone() } else { min.text.clone() };
        let ops_line = min
            .ops
            .iter()
            .map(|o| o.render())
            .collect::<Vec<_>>()
            .join("; ");
        let body = format!(
            "# fuzz find: {} seed {} index {} ({})\n# ops: {ops_line}\n{expect}\n{text}",
            cfg.protocol, cfg.seed, rec.index, out.tag()
        );
        let path = dir.join(format!(
            "fuzz_{}_s{}_i{}.vnp",
            cfg.protocol.to_lowercase().replace('-', "_"),
            cfg.seed,
            rec.index
        ));
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        written += 1;
    }
    println!("dumped {written} rejected mutant(s) to {}", dir.display());
    Ok(())
}

/// What `vnet analyze` may claim after folding the last of `n_vns` VNs
/// into the one before it loses the flow certificate. With two VNs that
/// fold is the only one-VN map, so the minimum is tight; with more, the
/// other (n_vns − 1)-VN maps were never checked.
fn fold_probe_line(n_vns: usize) -> String {
    if n_vns == 2 {
        format!(
            "parameterized: {} VN(s) (one fewer) lose the certificate — \
             the minimum is tight for all N",
            n_vns - 1
        )
    } else {
        format!(
            "parameterized: folding VN {} into VN {} loses the certificate; \
             other {}-VN maps were not checked",
            n_vns - 1,
            n_vns - 2,
            n_vns - 1
        )
    }
}

/// The value following `name` in `args`, if the flag is present.
fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{name} needs a value")),
        },
    }
}

/// Parses the value of a flag, if it is present.
fn opt_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value for {name}: `{v}`"))
        })
        .transpose()
}

/// Parses the value of a numeric flag, or returns `default` when absent.
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    Ok(opt_flag(args, name)?.unwrap_or(default))
}

/// Parses the `--budget` flag ([`Budget::parse_clauses`]). Absent flag
/// means unlimited.
fn budget_flag(args: &[String]) -> Result<Budget, String> {
    match flag_value(args, "--budget")? {
        Some(text) => Budget::parse_clauses(&text),
        None => Ok(Budget::unlimited()),
    }
}

/// Parses a `90s` / `1500ms` duration value.
fn parse_duration(text: &str) -> Result<Duration, String> {
    if let Some(ms) = text.strip_suffix("ms") {
        let ms: u64 = ms.parse().map_err(|_| format!("bad duration `{text}`"))?;
        return Ok(Duration::from_millis(ms));
    }
    if let Some(s) = text.strip_suffix('s') {
        let s: u64 = s.parse().map_err(|_| format!("bad duration `{text}`"))?;
        return Ok(Duration::from_secs(s));
    }
    Err(format!("bad duration `{text}` (want `90s` or `1500ms`)"))
}

/// Parses `--topology`: `ring:<n>` or `mesh:<rows>x<cols>`.
fn parse_topology(text: &str) -> Result<vnet::sim::Topology, String> {
    use vnet::sim::Topology;
    if let Some(n) = text.strip_prefix("ring:") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("bad ring size in `{text}`"))?;
        return Ok(Topology::Ring(n));
    }
    if let Some(rc) = text.strip_prefix("mesh:") {
        let (r, c) = rc
            .split_once('x')
            .ok_or_else(|| format!("bad mesh shape in `{text}` (want mesh:<r>x<c>)"))?;
        let r: usize = r.parse().map_err(|_| format!("bad mesh rows in `{text}`"))?;
        let c: usize = c.parse().map_err(|_| format!("bad mesh cols in `{text}`"))?;
        return Ok(Topology::Mesh(r, c));
    }
    Err(format!(
        "unknown topology `{text}` (want ring:<n> or mesh:<r>x<c>)"
    ))
}

/// Loads a built-in protocol by name or a `.vnp` file by path.
fn load(name: &str) -> Result<ProtocolSpec, String> {
    if let Some(p) = protocols::by_name(name) {
        return Ok(p);
    }
    if std::path::Path::new(name).exists() {
        let text = std::fs::read_to_string(name).map_err(|e| format!("{name}: {e}"))?;
        let spec = dsl::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        spec.validate().map_err(|e| format!("{name}: {e}"))?;
        return Ok(spec);
    }
    Err(format!(
        "{name} is neither a built-in protocol nor a readable file (try `vnet list`)"
    ))
}

fn parse_mapping(spec: &ProtocolSpec, text: &str) -> Result<VnAssignment, String> {
    let mut vn_of = vec![0usize; spec.messages().len()];
    for part in text.split(',') {
        let (msg, vn) = part
            .split_once('=')
            .ok_or_else(|| format!("bad mapping entry `{part}` (want Msg=VN)"))?;
        let id = spec
            .message_by_name(msg.trim())
            .ok_or_else(|| format!("unknown message {msg}"))?;
        vn_of[id.0] = vn
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("bad VN number in `{part}`"))?;
    }
    Ok(VnAssignment::from_vns(vn_of))
}

/// Local copy of the table renderer (the bench crate isn't a dependency
/// of the facade; the renderer is small enough to duplicate for the CLI).
fn vnet_bench_render(spec: &ProtocolSpec, kind: ControllerKind) -> String {
    use std::collections::BTreeSet;
    use vnet::protocol::{Cell, Event, Guard, StateId, Trigger};

    let ctrl = spec.controller(kind);
    let mut triggers: BTreeSet<Trigger> = BTreeSet::new();
    for (_, t, _) in ctrl.iter() {
        triggers.insert(*t);
    }
    let triggers: Vec<_> = triggers.into_iter().collect();
    let col_name = |t: &Trigger| -> String {
        match t.event {
            Event::Core(op) => op.to_string(),
            Event::Msg(m) => {
                let base = spec.message_name(m).to_string();
                if t.guard == Guard::Always {
                    base
                } else {
                    format!("{base}[{}]", t.guard)
                }
            }
        }
    };
    let mut out = String::new();
    use std::fmt::Write as _;
    for (si, sdef) in ctrl.states().iter().enumerate() {
        let _ = writeln!(out, "{}:", sdef.name);
        for t in &triggers {
            if let Some(cell) = ctrl.cell(StateId(si), *t) {
                let text = match cell {
                    Cell::Stall => "stall".to_string(),
                    Cell::Entry(e) => {
                        let mut parts: Vec<String> = e
                            .sends()
                            .map(|(m, to)| format!("send {} to {to}", spec.message_name(m)))
                            .collect();
                        if let Some(n) = e.next {
                            parts.push(format!("-> {}", ctrl.state(n).name));
                        }
                        if parts.is_empty() {
                            "hit".into()
                        } else {
                            parts.join("; ")
                        }
                    }
                };
                let _ = writeln!(out, "  {:<24} {}", col_name(t), text);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::fold_probe_line;

    #[test]
    fn two_vns_folded_to_one_prove_the_minimum_tight() {
        assert_eq!(
            fold_probe_line(2),
            "parameterized: 1 VN(s) (one fewer) lose the certificate — \
             the minimum is tight for all N"
        );
    }

    #[test]
    fn more_vns_claim_only_the_fold_that_was_checked() {
        let line = fold_probe_line(3);
        assert_eq!(
            line,
            "parameterized: folding VN 2 into VN 1 loses the certificate; \
             other 2-VN maps were not checked"
        );
        assert!(!line.contains("tight"));
        assert!(fold_probe_line(4).contains("folding VN 3 into VN 2"));
    }
}
