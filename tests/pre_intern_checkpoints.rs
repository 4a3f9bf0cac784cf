//! Committed checkpoints written by an earlier build of the explorer
//! must fail closed when they do not fit the run resuming them. The
//! fixture is the key-sorted serial snapshot under
//! `tests/checkpoint_fixtures/`, flushed before sections were written in
//! claim order and committed verbatim. Resumed under the wrong (spec,
//! config) pair it is refused with the fingerprint error; with its
//! visited map damaged (checksums restamped, so only the structure is
//! wrong) it is refused as corrupt. Never a panic, never a silent
//! divergence.
//!
//! The tests keep the names of the suite's version-1 fixture checks,
//! which this v2 fixture replaced once version-1 files were refused.

use std::path::{Path, PathBuf};
use vnet::core::Budget;
use vnet::mc::{resume, CheckpointError, McConfig, VnMap};
use vnet::protocol::{protocols, ProtocolSpec};

#[path = "support/single_section.rs"]
mod single_section;
use single_section::{parse, seal, Single};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("checkpoint_fixtures")
        .join("msi-b-serial-keysorted.ckpt")
}

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vnet-preintern-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&d);
    d.join(format!("{tag}.ckpt"))
}

/// The blocking MSI protocol under `vns`, with the bounds the fixture
/// was flushed under.
fn config(vns: fn(usize) -> VnMap) -> (ProtocolSpec, McConfig) {
    let spec = protocols::msi_blocking_cache();
    let cfg = McConfig::figure3(&spec)
        .with_vns(vns(spec.messages().len()))
        .with_limits(3_000, Some(7));
    (spec, cfg)
}

/// A fixture resumed under the wrong (spec, config) pair is refused
/// with the fingerprint error, not converted into nonsense.
#[test]
fn pre_intern_checkpoint_refuses_a_mismatched_config() {
    // Same protocol, different VN mapping — the fingerprint must differ.
    let (spec, cfg) = config(VnMap::single);
    match resume(&fixture(), &spec, &cfg, &Budget::unlimited(), None, |_, _| {}) {
        Err(CheckpointError::SpecMismatch { expected, found }) => assert_ne!(expected, found),
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
}

/// Damages the fixture's structure with `f`, reseals it so its
/// checksums are valid, and asserts the resume path rejects it as
/// corrupt; returns the error's detail.
fn corrupted_resume_fails_closed(tag: &str, f: impl FnOnce(&mut Single)) -> String {
    let (spec, cfg) = config(VnMap::one_per_message);
    let bytes = std::fs::read(fixture()).unwrap_or_else(|e| panic!("fixture unreadable: {e}"));
    let mut parts = parse(&bytes);
    assert!(seal(&parts) == bytes, "{tag}: reference codec disagrees with the fixture");
    f(&mut parts);
    let path = tmp(tag);
    std::fs::write(&path, seal(&parts)).unwrap_or_else(|e| panic!("rewrite failed: {e}"));
    match resume(&path, &spec, &cfg, &Budget::unlimited(), None, |_, _| {}) {
        Err(CheckpointError::Corrupt { detail, .. }) => {
            assert!(!detail.is_empty(), "corrupt error must say what is wrong");
            assert!(!detail.contains("checksum"), "{tag}: rejected by checksum, not structure");
            let _ = std::fs::remove_file(&path);
            detail
        }
        other => panic!("{tag}: expected Corrupt, got {other:?}"),
    }
}

#[test]
fn pre_intern_checkpoint_with_duplicate_state_is_rejected() {
    corrupted_resume_fails_closed("dup-key", |parts| {
        let dup = parts.entries[1].clone();
        parts.entries.push(dup);
    });
}

#[test]
fn pre_intern_checkpoint_with_missing_parent_is_rejected() {
    corrupted_resume_fails_closed("missing-parent", |parts| {
        // Point a non-root entry at a parent index no entry carries.
        parts.entries[1].1[1] = parts.entries.len() as u64;
    });
}

#[test]
fn pre_intern_checkpoint_with_unvisited_frontier_state_is_rejected() {
    corrupted_resume_fails_closed("alien-frontier", |parts| {
        // Point the first frontier state past the visited map; the
        // frontier can no longer be resolved against the visited set.
        parts.frontier[0].1 = parts.entries.len() as u32;
    });
}

/// A frontier state whose last endpoint FIFO holds one message more than
/// the FIFO's capacity is no state of the run's config. Every other
/// structural check passes, so the state codec must be what refuses it.
#[test]
fn pre_intern_checkpoint_with_an_overfull_fifo_is_rejected() {
    let (_, cfg) = config(VnMap::one_per_message);
    let detail = corrupted_resume_fails_closed("overfull-fifo", |parts| {
        let idx = parts.frontier[0].1 as usize;
        let key = &mut parts.entries[idx].0;
        // The key ends with the last FIFO's messages; append capacity + 1
        // more (message 0 for X, from C1 to Dir1).
        for _ in 0..=cfg.endpoint_capacity {
            key.extend([0, 0, 0x00, 0x80, 0, 0]);
        }
    });
    assert!(detail.contains("does not decode"), "rejected for: {detail}");
}
