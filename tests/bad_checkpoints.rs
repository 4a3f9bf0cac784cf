//! The bad-checkpoint corpus: every file under `tests/bad_checkpoints/`
//! is corrupted on purpose and must be rejected by [`Checkpoint::load`]
//! with the structured, positioned `CheckpointError` its filename class
//! names — never accepted, never a panic. This is the crash-recovery
//! counterpart of the `tests/bad_specs/` parser gate: a checkpoint that
//! survived a SIGKILL (or a disk that mangled one) must fail closed.
//!
//! Filename convention: `<class>-<anything>.ckpt`, where `<class>` is
//!
//! | class         | corruption                      | expected error       |
//! |---------------|---------------------------------|----------------------|
//! | `badmagic`    | wrong leading magic             | `BadMagic`           |
//! | `version`     | unsupported format version      | `UnsupportedVersion` |
//! | `truncated`   | valid prefix cut mid-payload    | `Truncated`/`Corrupt`|
//! | `bitflip`     | one payload bit flipped         | `Corrupt` (checksum) |
//! | `garbage`     | valid file + trailing bytes     | `Corrupt`            |
//! | `fingerprint` | checkpoint from a different cfg | `SpecMismatch`       |
//! | `structure`   | duplicate key, a parent or      | `Corrupt` (behind a  |
//! |               | frontier reference out of range,| valid checksum)      |
//! |               | or a frontier key that does not |                      |
//! |               | decode                          |                      |
//!
//! The committed files pin the wire format; the fresh-corruption test
//! regenerates the same classes from a live checkpoint so the gate also
//! covers future format changes. `version-v1-msi.ckpt` is the exception:
//! an intact version-1 file flushed by the thread-parallel explorer of
//! an earlier build under [`reference`], kept verbatim to show that
//! such files are refused. To refresh the rest of the committed corpus
//! after a deliberate format bump:
//!
//! ```text
//! cargo test --test bad_checkpoints regenerate -- --ignored
//! ```

use std::path::{Path, PathBuf};
use vnet::mc::{
    explore_checkpointed, Checkpoint, CheckpointError, CheckpointPolicy, McConfig, VnMap,
};
use vnet::protocol::{protocols, ProtocolSpec};

#[path = "support/single_section.rs"]
mod single_section;
use single_section::{parse, seal};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("bad_checkpoints")
}

/// The reference spec/config every corpus file is checked against. Tiny
/// bounds keep the committed files small.
fn reference() -> (ProtocolSpec, McConfig) {
    let spec = protocols::msi_blocking_cache();
    let cfg = McConfig::figure3(&spec)
        .with_vns(VnMap::one_per_message(spec.messages().len()))
        .with_limits(60, Some(4));
    (spec, cfg)
}

/// A config whose fingerprint differs from [`reference`] (different VN
/// mapping), for the `fingerprint` class.
fn other_config(spec: &ProtocolSpec) -> McConfig {
    McConfig::figure3(spec)
        .with_vns(VnMap::single(spec.messages().len()))
        .with_limits(60, Some(4))
}

/// Runs a real (bounded) exploration and returns the checkpoint bytes
/// it flushed.
fn live_checkpoint_bytes(spec: &ProtocolSpec, cfg: &McConfig, dir: &Path) -> Vec<u8> {
    let path = dir.join("base.ckpt");
    let policy = CheckpointPolicy::new(&path).every_states(1);
    let budget = vnet::core::Budget::unlimited();
    let run = explore_checkpointed(spec, cfg, &budget, &policy, |_, _| {});
    assert!(run.is_ok(), "base exploration failed: {:?}", run.err());
    let bytes = std::fs::read(&path);
    assert!(bytes.is_ok(), "no checkpoint flushed at {}", path.display());
    bytes.unwrap_or_default()
}

/// The corruption cases; a case's class is its first `-` token.
const CASES: [&str; 9] = [
    "badmagic",
    "version",
    "truncated",
    "bitflip",
    "garbage",
    "structure-dupkey",
    "structure-parent",
    "structure-frontier",
    "structure-undecodable",
];

/// Applies a corruption case to valid checkpoint bytes.
fn corrupt(case: &str, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    if let Some(defect) = case.strip_prefix("structure-") {
        let mut s = parse(base);
        let n = s.entries.len();
        match defect {
            "dupkey" => s.entries[2].0 = s.entries[1].0.clone(),
            "parent" => s.entries[1].1[1] = n as u64 + 7,
            "frontier" => s.frontier.push((0, n as u32 + 7)),
            _ => s.entries[s.frontier[0].1 as usize].0.truncate(3),
        }
        return seal(&s);
    }
    match case {
        "badmagic" => {
            bytes[..8].copy_from_slice(b"NOTACKPT");
            bytes
        }
        "version" => {
            // Version is the little-endian u32 right after the magic.
            bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
            bytes
        }
        "truncated" => {
            let cut = bytes.len() * 3 / 5;
            bytes.truncate(cut.max(12));
            bytes
        }
        "bitflip" => {
            // Flip one bit mid-payload (past the 28-byte header, before
            // the trailing 8-byte checksum).
            let i = 28 + (bytes.len() - 36) / 2;
            bytes[i] ^= 0x10;
            bytes
        }
        "garbage" => {
            bytes.extend_from_slice(b"extra");
            bytes
        }
        other => {
            assert!(other == "fingerprint", "unknown corruption class {other}");
            bytes // already built from a mismatching config
        }
    }
}

/// `true` if `err` is the right rejection for the class, with an offset
/// where the format promises one.
fn matches_class(class: &str, err: &CheckpointError) -> bool {
    match (class, err) {
        ("badmagic", CheckpointError::BadMagic { .. }) => true,
        ("version", CheckpointError::UnsupportedVersion { found, .. }) => matches!(found, 1 | 99),
        // A cut can land inside the header (Truncated) or leave a
        // length-consistent prefix whose checksum then fails (Corrupt);
        // both carry the offset that broke.
        ("truncated", CheckpointError::Truncated { offset, .. })
        | ("truncated", CheckpointError::Corrupt { offset, .. }) => *offset <= 1 << 32,
        ("bitflip", CheckpointError::Corrupt { detail, .. }) => detail.contains("checksum"),
        ("garbage", CheckpointError::Corrupt { detail, .. }) => detail.contains("trailing"),
        ("fingerprint", CheckpointError::SpecMismatch { expected, found }) => expected != found,
        ("structure", CheckpointError::Corrupt { detail, .. }) => !detail.contains("checksum"),
        _ => false,
    }
}

fn class_of(path: &Path) -> String {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    stem.split('-').next().unwrap_or("").to_string()
}

#[test]
fn committed_corpus_is_rejected_with_positioned_errors() {
    let (spec, cfg) = reference();
    let dir = corpus_dir();
    let mut checked = 0;
    let mut classes_seen = std::collections::BTreeSet::new();
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    for path in entries {
        if path.extension().and_then(|e| e.to_str()) != Some("ckpt") {
            continue;
        }
        let class = class_of(&path);
        let r = Checkpoint::load(&path, &spec, &cfg);
        let err = match r {
            Err(e) => e,
            Ok(_) => panic!("{} was ACCEPTED; corrupt checkpoints must fail closed", path.display()),
        };
        assert!(
            matches_class(&class, &err),
            "{}: expected a {class} rejection, got: {err}",
            path.display()
        );
        // Every error must render a human-readable message.
        assert!(!err.to_string().is_empty());
        classes_seen.insert(class);
        checked += 1;
    }
    assert!(
        checked >= 6,
        "corpus has only {checked} files; regenerate with \
         `cargo test --test bad_checkpoints regenerate -- --ignored`"
    );
    let classes = [
        "badmagic",
        "version",
        "truncated",
        "bitflip",
        "garbage",
        "fingerprint",
        "structure",
    ];
    for class in classes {
        assert!(classes_seen.contains(class), "corpus missing class {class}");
    }
}

/// The same six corruption classes applied to a checkpoint generated by
/// the *current* code: the gate holds even as the format evolves.
#[test]
fn fresh_corruptions_are_rejected() {
    let (spec, cfg) = reference();
    let tmp = std::env::temp_dir().join(format!("vnet-badckpt-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&tmp);
    let base = live_checkpoint_bytes(&spec, &cfg, &tmp);
    let fp_base = live_checkpoint_bytes(&spec, &other_config(&spec), &tmp);
    // Sanity: the uncorrupted bytes load, and the independent reader
    // reproduces them byte for byte.
    assert!(Checkpoint::from_bytes(&base, &spec, &cfg).is_ok());
    assert!(seal(&parse(&base)) == base, "reference codec disagrees with the writer");
    for case in CASES.into_iter().chain(["fingerprint"]) {
        let bytes = if case == "fingerprint" {
            fp_base.clone()
        } else {
            corrupt(case, &base)
        };
        let class = case.split('-').next().unwrap_or(case);
        let file = tmp.join(format!("{case}-fresh.ckpt"));
        assert!(std::fs::write(&file, &bytes).is_ok());
        match Checkpoint::load(&file, &spec, &cfg) {
            Ok(_) => panic!("fresh {case} corruption was accepted"),
            Err(e) => assert!(
                matches_class(class, &e),
                "fresh {case}: wrong rejection: {e}"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A missing file is an `Io` error, not a panic.
#[test]
fn missing_checkpoint_is_an_io_error() {
    let (spec, cfg) = reference();
    let r = Checkpoint::load(Path::new("/nonexistent/nowhere.ckpt"), &spec, &cfg);
    assert!(matches!(r, Err(CheckpointError::Io { .. })), "{r:?}");
}

/// Regenerates the committed corpus from the current wire format. Run
/// explicitly after a deliberate format change:
/// `cargo test --test bad_checkpoints regenerate -- --ignored`
#[test]
#[ignore = "writes into the source tree; run explicitly after format changes"]
fn regenerate() {
    let (spec, cfg) = reference();
    let dir = corpus_dir();
    assert!(std::fs::create_dir_all(&dir).is_ok());
    let tmp = std::env::temp_dir().join(format!("vnet-regen-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&tmp);
    let base = live_checkpoint_bytes(&spec, &cfg, &tmp);
    let fp_base = live_checkpoint_bytes(&spec, &other_config(&spec), &tmp);
    for case in CASES {
        let bytes = corrupt(case, &base);
        assert!(std::fs::write(dir.join(format!("{case}-msi.ckpt")), bytes).is_ok());
    }
    assert!(std::fs::write(dir.join("fingerprint-msi.ckpt"), fp_base).is_ok());
    let _ = std::fs::remove_dir_all(&tmp);
}
