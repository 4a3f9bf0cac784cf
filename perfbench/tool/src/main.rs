//! `perfbench-tool`: the compiled half of the vnet benchmark. The
//! benchmark script (`perfbench/run.py`) calls it for the parts that need
//! the library crates: seeded serve streams built from `vnet-fuzz`
//! mutants, the store pre-fill, the closed-loop client, and the traced
//! per-layer timings.
//!
//! ```text
//! perfbench-tool spawn <command> [args...]
//! perfbench-tool calibrate --passes <n>
//! perfbench-tool stream --seed <n> --len <n> --miss-pct <n> --mc-hits <a,b> --out <file>
//! perfbench-tool prefill --dir <dir> --records <n>
//! perfbench-tool client --addr <host:port> --stream <file> --conns <n> --seconds <s> --out <file>
//! perfbench-tool shadow <protocol> [--unique-vns] [--general --symmetry --caches <n> --dirs <n> --per-cache <n>]
//! perfbench-tool core-phases <protocol>...
//! perfbench-tool serve-layers --stream <file> --store <dir> --scratch <dir>
//! ```
//!
//! Every subcommand but `spawn` prints at most one JSON object on stdout;
//! all exit non-zero with a message on stderr when anything fails.

mod calibrate;
mod serve;
mod shadow;
mod spawn;

use std::path::PathBuf;
use std::process::ExitCode;

use vnet_mc::{campaign, InjectionBudget, McConfig, VnMap};
use vnet_protocol::{protocols, ProtocolSpec};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn need(args: &[String], name: &str) -> Result<String, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    need(args, name)?
        .parse()
        .map_err(|_| format!("bad value for {name}"))
}

fn builtin(name: &str) -> Result<ProtocolSpec, String> {
    protocols::extended()
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| format!("unknown protocol {name}"))
}

/// The configuration `vnet mc` builds for the same flags, from the
/// campaign's Table I builders: the Figure-3 scenario under the
/// analyzer's VN map, or with `--general --symmetry` the symmetry-reduced
/// general scenario resized by `--caches/--dirs/--per-cache`;
/// `--unique-vns` swaps in one VN per message.
fn mc_config(spec: &ProtocolSpec, args: &[String]) -> Result<McConfig, String> {
    let has = |name: &str| args.iter().any(|a| a == name);
    let mut cfg = if has("--general") {
        if !has("--symmetry") {
            return Err("--general is only supported with --symmetry".into());
        }
        let mut cfg = campaign::table1_sym_config(spec);
        if flag(args, "--caches").is_some() {
            cfg.n_caches = num(args, "--caches")?;
        }
        if flag(args, "--dirs").is_some() {
            cfg.n_dirs = num(args, "--dirs")?;
        }
        if flag(args, "--per-cache").is_some() {
            cfg = cfg.with_budget(InjectionBudget::PerCache(num(args, "--per-cache")?));
        }
        cfg
    } else {
        campaign::table1_config(spec)
    };
    if has("--unique-vns") {
        cfg = cfg.with_vns(VnMap::one_per_message(spec.messages().len()));
    }
    cfg.validate_for_run()?;
    Ok(cfg)
}

fn print_metrics(pairs: &[(String, f64)]) {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{{}}}", body.join(", "));
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "spawn" => spawn::run(&args[1..]),
        "calibrate" => {
            let passes: usize = num(args, "--passes")?;
            let times: Vec<String> = (0..passes)
                .map(|_| calibrate::seconds().to_string())
                .collect();
            println!("{{\"cal_s\": [{}]}}", times.join(", "));
            Ok(())
        }
        "stream" => serve::write_stream(
            &PathBuf::from(need(args, "--out")?),
            num(args, "--seed")?,
            num(args, "--len")?,
            num(args, "--miss-pct")?,
            &need(args, "--mc-hits")?.split(',').collect::<Vec<_>>(),
        ),
        "prefill" => serve::prefill(
            &PathBuf::from(need(args, "--dir")?),
            num(args, "--records")?,
        ),
        "client" => serve::client(
            &need(args, "--addr")?,
            &PathBuf::from(need(args, "--stream")?),
            num(args, "--conns")?,
            num(args, "--seconds")?,
            &PathBuf::from(need(args, "--out")?),
        ),
        "shadow" => {
            let spec = builtin(args.get(1).ok_or("shadow needs a protocol")?)?;
            let cfg = mc_config(&spec, args)?;
            let r = shadow::run(&spec, &cfg)?;
            let out: Vec<(String, f64)> = vec![
                ("states".into(), r.states as f64),
                ("levels".into(), r.levels as f64),
                (
                    "deadlock_depth".into(),
                    r.deadlock_depth.map_or(-1.0, |d| d as f64),
                ),
                (
                    "witness_ok".into(),
                    r.witness_ok.map_or(-1.0, |ok| f64::from(u8::from(ok))),
                ),
                ("wall_s".into(), r.wall_s),
                ("decode_s".into(), r.decode_s),
                ("expand_s".into(), r.expand_s),
                ("encode_s".into(), r.encode_s),
                ("canon_s".into(), r.canon_s),
                ("intern_s".into(), r.intern_s),
                ("swmr_s".into(), r.swmr_s),
                ("replay_s".into(), r.replay_s),
                ("expanded".into(), r.expanded as f64),
                ("successors".into(), r.successors as f64),
                ("key_bytes".into(), r.key_bytes as f64),
                ("fresh".into(), r.fresh as f64),
                ("arena_bytes".into(), r.arena_bytes as f64),
                ("load_factor_pct".into(), r.load_factor_pct as f64),
                ("candidates_per_key".into(), r.candidates_per_key as f64),
                ("swmr_violations".into(), r.swmr_violations as f64),
            ];
            print_metrics(&out);
            Ok(())
        }
        "core-phases" => {
            let specs = args[1..]
                .iter()
                .map(|n| builtin(n))
                .collect::<Result<Vec<_>, _>>()?;
            let mut out = Vec::new();
            serve::core_phases(&specs, &mut out);
            print_metrics(&out);
            Ok(())
        }
        "serve-layers" => {
            let out = serve::layers(
                &PathBuf::from(need(args, "--stream")?),
                &PathBuf::from(need(args, "--store")?),
                &PathBuf::from(need(args, "--scratch")?),
            )?;
            print_metrics(&out);
            Ok(())
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tool: {e}");
            ExitCode::FAILURE
        }
    }
}
