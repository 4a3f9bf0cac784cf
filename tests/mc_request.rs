//! One `McRequest` decides an mc run's config for every front-end.
//!
//! `vnet mc`, its `__shard-worker` processes, the campaign (its
//! thread-isolated runs and its child processes) and `vnet serve` (its
//! inline runs and its process dispatch) each check a Table I cell
//! under the config its own argv or JSON resolves to. If two of them
//! disagreed, the same cell could get two answers, a shard worker would
//! fail the shard directory's fingerprint check, and the daemon would
//! address a campaign's pre-warmed store records under other keys. The
//! first test checks, cell by cell, that every path builds the same
//! fingerprint; the second pins the daemon's store keys, so a refactor
//! that moves one orphans no cached record unseen.
//!
//! One `RunPlan` decides how the run executes. The last tests check
//! that every explorer mode's plan round-trips through its flags, and
//! pin, byte for byte, each flag combination `vnet mc` refuses.

use std::path::{Path, PathBuf};
use std::time::Duration;
use vnet::core::Budget;
use vnet::mc::campaign::{self, CampaignConfig, Isolation};
use vnet::mc::{Explorer, McConfig, McRequest, PanicInjection, RunPlan, SpillConfig, VnChoice};
use vnet::protocol::{protocols, ProtocolSpec};
use vnet::serve::exec::{analyze_store_key, mc_plan, mc_store_key, store_key};
use vnet::serve::parse_request;

fn words(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// The config an argv resolves to, the way `vnet mc` and
/// `__shard-worker` resolve theirs.
fn cli_config(spec: &ProtocolSpec, argv: &[String]) -> Result<McConfig, String> {
    Ok(McRequest::from_args(argv)?.config(spec)?.0)
}

#[test]
fn every_front_end_builds_the_same_config_for_every_table1_cell() -> Result<(), String> {
    let choices = [
        (VnChoice::Minimal, None, "minimal"),
        (VnChoice::Single, Some("--single-vn"), "single"),
        (VnChoice::Unique, Some("--unique-vns"), "unique"),
    ];
    for spec in protocols::all() {
        let name = spec.name().to_string();
        for (vns, vn_flag, vns_json) in choices {
            for symmetry in [false, true] {
                let plain = McRequest {
                    vns,
                    ..McRequest::default()
                };
                let request = if symmetry {
                    plain.with_symmetry()
                } else {
                    plain
                };
                let cell = format!("{name} vns={vns_json} symmetry={symmetry}");
                assert_eq!(
                    McRequest::from_args(&request.to_args())?,
                    request,
                    "{cell}: the rendered flags must parse back"
                );
                let (cfg, _) = request.config(&spec)?;
                let want = cfg.fingerprint_bytes();

                // `vnet mc`, as a user types it.
                let mut typed = vec!["mc", name.as_str()];
                typed.extend(vn_flag);
                if symmetry {
                    typed.extend(["--general", "--symmetry"]);
                }
                let cli = cli_config(&spec, &words(&typed))?;
                assert_eq!(cli.fingerprint_bytes(), want, "{cell}: vnet mc");

                // A shard worker, spawned by `vnet mc --shard-procs`.
                let mut worker = words(&[
                    "__shard-worker",
                    "--dir",
                    "shards",
                    "--shard",
                    "0",
                    "--of",
                    "2",
                    "--spec",
                    &name,
                ]);
                worker.extend(request.to_args());
                worker.extend(words(&["--mem-budget", "1000000"]));
                let shard = cli_config(&spec, &worker)?;
                assert_eq!(shard.fingerprint_bytes(), want, "{cell}: shard worker");

                // `vnet serve`: admission's store key is the inline
                // run's, and a process-dispatched child parses the
                // request's flags behind `mc <protocol> --machine`.
                let json = format!(
                    r#"{{"id":"p","cmd":"mc","protocol":"{name}","vns":"{vns_json}","symmetry":{symmetry}}}"#
                );
                let req = parse_request(&json)?;
                assert_eq!(
                    store_key(&req),
                    Some(mc_store_key(&spec, &cfg, false)),
                    "{cell}: serve"
                );
                let mut child = words(&["mc", &name, "--machine"]);
                child.extend(request.to_args());
                let dispatched = cli_config(&spec, &child)?;
                assert_eq!(
                    dispatched.fingerprint_bytes(),
                    want,
                    "{cell}: serve dispatch"
                );

                // The campaign sweeps the analyzer's minimal map only.
                if vns != VnChoice::Minimal {
                    continue;
                }
                let cc = if symmetry {
                    CampaignConfig::new().with_symmetry()
                } else {
                    CampaignConfig::new()
                };
                let table1 = if symmetry {
                    campaign::table1_sym_config(&spec)
                } else {
                    campaign::table1_config(&spec)
                };
                assert_eq!(table1.fingerprint_bytes(), want, "{cell}: Table I builder");
                assert_eq!(
                    cc.config_of(&spec).fingerprint_bytes(),
                    want,
                    "{cell}: campaign thread run"
                );
                let mut child = words(&["mc", &name, "--machine"]);
                child.extend(cc.request.to_args());
                child.extend(words(&["--parallel", "2"]));
                let campaign_child = cli_config(&spec, &child)?;
                assert_eq!(
                    campaign_child.fingerprint_bytes(),
                    want,
                    "{cell}: campaign child"
                );
            }
        }
    }
    Ok(())
}

#[test]
fn resized_requests_round_trip_and_reach_the_shard_workers() -> Result<(), String> {
    let spec = protocols::chi();
    let typed = words(&[
        "mc",
        "CHI",
        "--single-vn",
        "--general",
        "--symmetry",
        "--caches",
        "4",
        "--addrs",
        "1",
        "--dirs",
        "1",
        "--per-cache",
        "1",
        "--parallel",
        "2",
    ]);
    let request = McRequest::from_args(&typed)?;
    assert_eq!(McRequest::from_args(&request.to_args())?, request);
    let mut worker = words(&["__shard-worker", "--spec", "CHI"]);
    worker.extend(request.to_args());
    assert_eq!(
        cli_config(&spec, &worker)?.fingerprint_bytes(),
        cli_config(&spec, &typed)?.fingerprint_bytes()
    );
    let (cfg, _) = request.config(&spec)?;
    assert_eq!((cfg.n_caches, cfg.n_addrs, cfg.n_dirs), (4, 1, 1));
    assert!(cfg.symmetry);
    Ok(())
}

/// Store keys at the commit before `McRequest` existed, for every
/// cacheable shape: `analyze`, and `mc` × vns × symmetry ×
/// parameterized (in that order, symmetry and parameterized `false`
/// first).
const GOLDEN_KEYS: [(&str, &str, [&str; 12]); 2] = [
    (
        "MSI-nonblocking-cache",
        "171aed72f10de0363a0145b34cecbe8f",
        [
            "5d448c0f2073f2f394d5d91c30bce2b1",
            "a7a56666aa8937902acb8c2005f9c039",
            "23027f628d59e63196299f5fcba2063b",
            "356d5edd69bd8bdf8cffb3ae08fa7bc2",
            "c459461d84e64dff7f96da9c8da23821",
            "0ca33511211f1be0a7f6a800d287e0b9",
            "567f1d7b7d3fd31fcdb42dd2556b617f",
            "260b0ade3daba6977d47da9c1755e878",
            "9239c18456aed3c069b73c9b466c5ee5",
            "4a9de50044942d2e01e06c1f41cb2fae",
            "88e805694e75ca17236cf3cb1b601c87",
            "f8dfbb9665fb379f73eb2c45bcc55dfb",
        ],
    ),
    (
        "CHI",
        "b3f7492ca90a524686720497b35c8572",
        [
            "9f46fc1071fc6417e2c51163b5fe8cad",
            "f9bd3afc079f006950a49cfa39ca1442",
            "9db46c1f6ee91e5b5475604d81ea9a41",
            "e7d53a87334141cceadfd03790a9b17a",
            "52d090a1a6a5f30ea9ad4441018a78ed",
            "0a7e878ee539a5f64167ba85dbb011ee",
            "8423e62b26d60c18bf7a63364ddd358d",
            "ccaba129e2ac2576e741e3000a0d6c2d",
            "52da3cf9cf56d66aa94b98a077312b34",
            "0a8c5b384b21ef994111d942fb405283",
            "8499a0f5dedfd33fbf5c23ea7c0504b5",
            "cc1d5d87f87a8ea4e717131c4a2855c2",
        ],
    ),
];

#[test]
fn store_keys_match_the_pinned_golden_values() -> Result<(), String> {
    for (name, analyze_key, mc_keys) in GOLDEN_KEYS {
        let spec = protocols::by_name(name).ok_or(format!("no built-in {name}"))?;
        assert_eq!(
            analyze_store_key(&spec).to_hex(),
            analyze_key,
            "{name} analyze"
        );
        let analyze = parse_request(&format!(r#"{{"cmd":"analyze","protocol":"{name}"}}"#))?;
        assert_eq!(
            store_key(&analyze).map(|k| k.to_hex()).as_deref(),
            Some(analyze_key)
        );
        let mut want = mc_keys.iter();
        for vns in ["minimal", "single", "unique"] {
            for symmetry in [false, true] {
                for parameterized in [false, true] {
                    let json = format!(
                        r#"{{"cmd":"mc","protocol":"{name}","vns":"{vns}","symmetry":{symmetry},"parameterized":{parameterized}}}"#
                    );
                    let key = store_key(&parse_request(&json)?).map(|k| k.to_hex());
                    assert_eq!(key.as_deref(), want.next().copied(), "{json}");
                }
            }
        }
    }
    Ok(())
}

/// One plan per explorer mode and per execution flag, as `vnet mc`
/// builds it from its flags.
fn plans() -> Vec<RunPlan> {
    let ckpt = PathBuf::from("run.ckpt");
    let budget = Budget::unlimited()
        .with_deadline(Duration::from_millis(1500))
        .with_node_limit(9_000);
    let shards = Explorer::Shards {
        procs: 3,
        dir: PathBuf::from("shards"),
    };
    vec![
        RunPlan::default(),
        RunPlan {
            explorer: Explorer::Threads(1),
            ..RunPlan::default()
        },
        RunPlan {
            explorer: Explorer::Threads(4),
            budget: budget.clone().with_mem_limit(1 << 30),
            checkpoint: Some(ckpt.clone()),
            checkpoint_every: 5_000,
            stop_file: Some(PathBuf::from("stop")),
            inject_panic: Some(PanicInjection { level: 3, times: 2 }),
            ..RunPlan::default()
        },
        RunPlan {
            budget: Budget::unlimited().with_mem_limit(10_000_000),
            spill: Some(SpillConfig::for_budget("spill", 10_000_000)),
            ..RunPlan::default()
        },
        // A resumed run keeps checkpointing to the file it resumed
        // from, or to the one `--checkpoint` names.
        RunPlan {
            checkpoint: Some(ckpt.clone()),
            resume: Some(ckpt.clone()),
            ..RunPlan::default()
        },
        RunPlan {
            explorer: Explorer::Threads(2),
            checkpoint: Some(PathBuf::from("onward.ckpt")),
            resume: Some(ckpt.clone()),
            ..RunPlan::default()
        },
        RunPlan {
            explorer: shards.clone(),
            budget: budget.with_mem_limit(1 << 20),
            checkpoint: Some(ckpt),
            inject_kill: Some((2, 1)),
            ..RunPlan::default()
        },
        RunPlan {
            explorer: shards,
            ..RunPlan::default()
        },
    ]
}

#[test]
fn every_explorer_modes_plan_round_trips_through_its_flags() -> Result<(), String> {
    for plan in plans() {
        assert_eq!(RunPlan::from_args(&plan.to_args())?, plan, "{plan:?}");
        // A child's argv carries the request and the plan, each of
        // which parses back to itself.
        let request = McRequest::default().with_symmetry();
        let argv = plan.mc_argv("CHI", &request);
        assert_eq!(argv[..3], words(&["mc", "CHI", "--machine"]));
        assert_eq!(RunPlan::from_args(&argv)?, plan, "{plan:?}");
        assert_eq!(McRequest::from_args(&argv)?, request, "{plan:?}");
    }
    Ok(())
}

/// A process-isolated campaign child's argv parses back to the plan
/// the campaign rendered into it, for every explorer a child runs and
/// every checkpoint lineage.
#[test]
fn campaign_child_argv_parses_back_to_the_campaign_plan() -> Result<(), String> {
    let base = CampaignConfig::new()
        .with_isolation(Isolation::Process)
        .with_budget(Budget::unlimited().with_node_limit(5_000))
        .with_checkpoint_dir("ckpts");
    let campaigns = [
        base.clone().with_threads(3),
        base.clone().with_mem_budget(8 << 20),
        base.clone()
            .with_mem_budget(8 << 20)
            .with_spill_dir("spill"),
        base.clone().with_shard_procs(2).with_symmetry(),
    ];
    let (ckpt, older) = (Path::new("ckpts/CHI.1.ckpt"), Path::new("ckpts/CHI.0.ckpt"));
    let lineages = [(None, None), (Some(ckpt), None), (Some(ckpt), Some(older))];
    for cc in campaigns {
        for (write, resume_from) in lineages {
            let plan = cc.child_plan("CHI", write, resume_from);
            let argv = plan.mc_argv("protocols/chi.vnp", &cc.request);
            assert_eq!(RunPlan::from_args(&argv)?, plan, "{argv:?}");
            assert_eq!(McRequest::from_args(&argv)?, cc.request, "{argv:?}");
        }
    }
    Ok(())
}

/// The argv of serve's process-dispatched `mc` job parses back to the
/// plan its inline runner would run.
#[test]
fn serve_dispatch_argv_parses_back_to_the_inline_plan() -> Result<(), String> {
    let request = McRequest {
        vns: VnChoice::Unique,
        ..McRequest::default()
    };
    let budgets = [
        Budget::unlimited(),
        Budget::unlimited()
            .with_deadline(Duration::from_secs(3))
            .with_mem_limit(64 << 20),
    ];
    for budget in budgets {
        for ckpt in [None, Some(Path::new("jobs/7.ckpt"))] {
            let plan = mc_plan(&budget, ckpt);
            let argv = plan.mc_argv("CHI", &request);
            assert_eq!(RunPlan::from_args(&argv)?, plan, "{argv:?}");
            assert_eq!(McRequest::from_args(&argv)?, request, "{argv:?}");
        }
    }
    Ok(())
}

/// Every flag combination `vnet mc` refuses, with the message it
/// prints, byte for byte: scripts match on these.
const REFUSALS: [(&str, &str); 24] = [
    (
        "--shard-procs 2 --shard-dir d --parallel 2",
        "--shard-procs and --parallel are mutually exclusive",
    ),
    (
        "--spill-dir s",
        "--spill-dir needs --mem-budget (the spill trigger)",
    ),
    (
        "--mem-budget 1000 --spill-dir s --parallel 2",
        "--spill-dir applies to the serial explorer; the thread-parallel explorer keeps its \
         shards in RAM",
    ),
    (
        "--parallel 0",
        "--parallel needs a positive thread count (omit the flag for the serial explorer)",
    ),
    (
        "--inject-worker-panic 1:1",
        "--inject-worker-panic needs --parallel",
    ),
    (
        "--shard-procs 2",
        "--shard-procs and --shard-dir go together",
    ),
    ("--shard-dir d", "--shard-procs and --shard-dir go together"),
    (
        "--shard-procs 2 --shard-dir d --resume r",
        "--shard-procs resumes from its --shard-dir; --resume is for the serial and \
         thread-parallel explorers",
    ),
    (
        "--shard-procs 0 --shard-dir d",
        "--shard-procs needs a positive process count",
    ),
    (
        "--shard-procs 2 --shard-dir d --spill-dir s --mem-budget 5",
        "--shard-procs workers spill inside --shard-dir; drop --spill-dir",
    ),
    (
        "--inject-shard-kill 1:0",
        "--inject-shard-kill needs --shard-procs",
    ),
    ("--mem-budget 0", "--mem-budget must be positive"),
    (
        "--checkpoint-interval 0",
        "--checkpoint-interval must be positive",
    ),
    ("--parallel x", "bad value for --parallel: `x`"),
    (
        "--inject-worker-panic 1x --parallel 2",
        "bad injection `1x` (want <level>:<times>)",
    ),
    (
        "--inject-worker-panic a:1 --parallel 2",
        "bad injection level in `a:1`",
    ),
    (
        "--inject-worker-panic 1:b --parallel 2",
        "bad injection count in `1:b`",
    ),
    (
        "--inject-shard-kill x --shard-procs 2 --shard-dir d",
        "bad injection `x` (want <round>:<shard>)",
    ),
    (
        "--inject-shard-kill a:1 --shard-procs 2 --shard-dir d",
        "bad round in `a:1`",
    ),
    (
        "--inject-shard-kill 1:b --shard-procs 2 --shard-dir d",
        "bad shard in `1:b`",
    ),
    (
        "--budget nodes=0",
        "node limit must be positive in `nodes=0`",
    ),
    ("--resume", "--resume needs a value"),
    (
        "--shard-procs x --shard-dir d",
        "bad value for --shard-procs: `x`",
    ),
    ("--mem-budget x", "bad value for --mem-budget: `x`"),
];

#[test]
fn refused_flag_combinations_keep_their_messages() {
    for (flags, message) in REFUSALS {
        let mut argv = words(&["mc", "CHI"]);
        argv.extend(flags.split(' ').map(String::from));
        assert_eq!(
            RunPlan::from_args(&argv).err().as_deref(),
            Some(message),
            "{flags}"
        );
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_vnet"))
            .args(&argv)
            .output()
            .expect("vnet should spawn");
        assert_eq!(out.status.code(), Some(1), "{flags}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().next(),
            Some(format!("error: {message}").as_str()),
            "{flags}"
        );
    }
}
