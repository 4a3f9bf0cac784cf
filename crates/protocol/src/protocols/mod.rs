//! The protocols evaluated in the paper's Table I.
//!
//! | Experiment | Protocol(s) | Directory | Cache | Expected result |
//! |---|---|---|---|---|
//! | (1) | MOSI, MOESI (nonblocking cache) | never blocks | never blocks | 1 VN |
//! | (2) | MOSI, MOESI (blocking cache) | never blocks | sometimes blocks | Class 2 |
//! | (4) | CHI | always blocks | never blocks | 2 VNs |
//! | (5) | MSI, MESI (nonblocking cache) | sometimes blocks | never blocks | 2 VNs |
//! | (6) | MSI, MESI (blocking cache) | sometimes blocks | sometimes blocks | Class 2 |
//!
//! "Blocking cache" means the cache *stalls* forwarded requests received
//! in transient states (the textbook treatment, Figure 1 of the paper);
//! the nonblocking variants *defer* the forward — they record the
//! requestor, finish the in-flight transaction, and then serve the
//! forward — so no incoming message is ever stalled at a cache.

mod chi;
mod chi_dct;
mod mesi;
mod mesif;
mod moesi;
mod mosi;
mod msi;

pub use chi::chi;
pub use chi_dct::chi_dct;
pub use mesi::{mesi_blocking_cache, mesi_nonblocking_cache};
pub use mesif::{mesif_blocking_cache, mesif_nonblocking_cache};
pub use moesi::{moesi_blocking_cache, moesi_nonblocking_cache};
pub use mosi::{mosi_blocking_cache, mosi_nonblocking_cache};
pub use msi::{msi_blocking_cache, msi_nonblocking_cache};

use crate::spec::ProtocolSpec;

/// Whether the cache controller stalls forwarded requests in transient
/// states (textbook behavior) or defers them (nonblocking behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDiscipline {
    /// Stall forwarded requests in transient states.
    Blocking,
    /// Defer forwarded requests; never stall an incoming message.
    NonBlocking,
}

/// A built-in protocol's name and constructor.
type Builtin = (&'static str, fn() -> ProtocolSpec);

/// Every built-in protocol by name, in `vnet list` order: the nine
/// Table-I protocols, then the extensions. One table feeds [`all`],
/// [`extended`] and [`by_name`], so a lookup builds only its match.
const BUILTINS: [Builtin; 12] = [
    ("MSI-blocking-cache", msi_blocking_cache),
    ("MSI-nonblocking-cache", msi_nonblocking_cache),
    ("MESI-blocking-cache", mesi_blocking_cache),
    ("MESI-nonblocking-cache", mesi_nonblocking_cache),
    ("MOSI-blocking-cache", mosi_blocking_cache),
    ("MOSI-nonblocking-cache", mosi_nonblocking_cache),
    ("MOESI-blocking-cache", moesi_blocking_cache),
    ("MOESI-nonblocking-cache", moesi_nonblocking_cache),
    ("CHI", chi),
    ("MESIF-blocking-cache", mesif_blocking_cache),
    ("MESIF-nonblocking-cache", mesif_nonblocking_cache),
    ("CHI-DCT", chi_dct),
];

/// How many [`BUILTINS`] entries are Table-I protocols.
const TABLE_I: usize = 9;

/// All nine built-in protocols (both cache disciplines of the four
/// textbook protocols, plus CHI).
pub fn all() -> Vec<ProtocolSpec> {
    BUILTINS[..TABLE_I].iter().map(|(_, build)| build()).collect()
}

/// The nine Table-I protocols plus the extensions (MESIF pair and
/// CHI-DCT — not part of the paper's evaluation; see the module docs).
pub fn extended() -> Vec<ProtocolSpec> {
    BUILTINS.iter().map(|(_, build)| build()).collect()
}

/// How many built-in protocols there are (Table I plus extensions).
pub const COUNT: usize = BUILTINS.len();

/// The `vnet list` position of the built-in called `name` (exact,
/// case-sensitive), below [`COUNT`]; `None` if no built-in has that
/// name. Lets callers keep per-builtin tables without building specs.
pub fn index_of(name: &str) -> Option<usize> {
    BUILTINS.iter().position(|(n, _)| *n == name)
}

/// The built-in protocol called `name` (exact, case-sensitive), built
/// alone; `None` if no built-in has that name.
pub fn by_name(name: &str) -> Option<ProtocolSpec> {
    index_of(name).map(|i| (BUILTINS[i].1)())
}

/// The Table-I experiment number a protocol belongs to, by name.
pub fn experiment_of(name: &str) -> Option<u8> {
    match name {
        "MOSI-nonblocking-cache" | "MOESI-nonblocking-cache" => Some(1),
        "MOSI-blocking-cache" | "MOESI-blocking-cache" => Some(2),
        "CHI" => Some(4),
        "MSI-nonblocking-cache" | "MESI-nonblocking-cache" => Some(5),
        "MSI-blocking-cache" | "MESI-blocking-cache" => Some(6),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_protocols_and_experiments() {
        let ps = all();
        assert_eq!(ps.len(), 9);
        for p in &ps {
            assert!(
                experiment_of(p.name()).is_some(),
                "{} has no experiment",
                p.name()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let ps = all();
        let mut names: Vec<&str> = ps.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn by_name_builds_the_extended_entry() {
        let ps = extended();
        assert_eq!(ps.len(), BUILTINS.len());
        for (p, (name, _)) in ps.iter().zip(BUILTINS.iter()) {
            assert_eq!(p.name(), *name, "table name disagrees with the spec");
            let found = by_name(name).expect("every builtin resolves by name");
            assert!(index_of(name).is_some_and(|i| i < COUNT && BUILTINS[i].0 == *name));
            assert_eq!(crate::dsl::to_text(&found), crate::dsl::to_text(p));
        }
        assert!(by_name("chi").is_none());
        assert!(index_of("chi").is_none());
        assert!(by_name("no-such-protocol").is_none());
    }
}
