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

use vnet::mc::campaign::{self, CampaignConfig};
use vnet::mc::{McConfig, McRequest, VnChoice};
use vnet::protocol::{protocols, ProtocolSpec};
use vnet::serve::exec::{analyze_store_key, mc_store_key, store_key};
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
