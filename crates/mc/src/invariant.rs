//! Safety invariants checked during exploration.
//!
//! The paper's focus is deadlock, but its Murphi models also carry the
//! standard coherence safety properties; we support the central one —
//! **Single-Writer / Multiple-Reader** (SWMR): at no instant may a cache
//! hold write permission for a block while any other cache holds any
//! permission for it.
//!
//! Which states grant which permission is protocol-specific; the
//! [`Swmr::by_convention`] constructor recognizes the MOESIF naming used
//! by the built-in protocols (writable: `M`, `E`; readable: `S`, `O`),
//! and custom sets can be supplied for hand-written specs.

use crate::state::GlobalState;
use vnet_protocol::ProtocolSpec;

/// The SWMR invariant configuration: which *cache* states grant write
/// permission and which grant read permission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Swmr {
    writable: Vec<u8>,
    readable: Vec<u8>,
}

/// A state name passed to [`Swmr::new`] that the cache controller does
/// not define.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCacheState(pub String);

impl std::fmt::Display for UnknownCacheState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown cache state {}", self.0)
    }
}

impl std::error::Error for UnknownCacheState {}

impl Swmr {
    /// Builds the invariant from explicit state-name lists; errs on a
    /// name the cache controller does not define.
    pub fn new(
        spec: &ProtocolSpec,
        writable: &[&str],
        readable: &[&str],
    ) -> Result<Self, UnknownCacheState> {
        let resolve = |names: &[&str]| -> Result<Vec<u8>, UnknownCacheState> {
            names
                .iter()
                .map(|n| {
                    spec.cache()
                        .state_by_name(n)
                        .map(|s| s.index() as u8)
                        .ok_or_else(|| UnknownCacheState((*n).to_string()))
                })
                .collect()
        };
        Ok(Swmr {
            writable: resolve(writable)?,
            readable: resolve(readable)?,
        })
    }

    /// The MOESIF-convention invariant: `M`/`E` writable, `S`/`O`
    /// readable (whichever of those states the protocol has).
    pub fn by_convention(spec: &ProtocolSpec) -> Self {
        let pick = |names: &[&str]| -> Vec<u8> {
            names
                .iter()
                .filter_map(|n| spec.cache().state_by_name(n))
                .map(|s| s.index() as u8)
                .collect()
        };
        Swmr {
            writable: pick(&["M", "E"]),
            readable: pick(&["S", "O"]),
        }
    }

    /// Canonical bytes for checkpoint fingerprints: which states count
    /// as writable/readable fully determines the invariant's behaviour.
    pub fn fingerprint_bytes(&self) -> Vec<u8> {
        let mut out = vec![self.writable.len() as u8];
        out.extend(&self.writable);
        out.push(self.readable.len() as u8);
        out.extend(&self.readable);
        out
    }

    /// Checks the invariant on one state; returns a description of the
    /// violation if any address breaks it.
    pub fn check(&self, gs: &GlobalState, spec: &ProtocolSpec) -> Option<String> {
        let n_caches = gs.n_caches();
        for addr in 0..gs.n_addrs() {
            let writes = |c: &usize| self.writable.contains(&gs.line(*c, addr).state);
            let reads = |c: &usize| !writes(c) && self.readable.contains(&gs.line(*c, addr).state);
            let writers = (0..n_caches).filter(writes).count();
            let readers = (0..n_caches).filter(reads).count();
            if writers > 1 || (writers == 1 && readers > 0) {
                let name = |c: usize| {
                    let s = gs.line(c, addr).state;
                    format!(
                        "C{}:{}",
                        c + 1,
                        spec.cache().state(vnet_protocol::StateId(s as usize)).name
                    )
                };
                let all: Vec<String> = (0..n_caches)
                    .filter(writes)
                    .chain((0..n_caches).filter(reads))
                    .map(name)
                    .collect();
                return Some(format!(
                    "SWMR violated for addr {}: {}",
                    (b'X' + addr as u8) as char,
                    all.join(", ")
                ));
            }
        }
        None
    }
}

// Test-only panics below (unwrap/expect on known-good fixtures,
// aborts on impossible verdicts) stop just the failing test; the
// production paths above are panic-free.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::McConfig;
    use vnet_protocol::protocols;

    fn put(gs: &mut GlobalState, spec: &ProtocolSpec, c: usize, addr: usize, state: &str) {
        gs.line_mut(c, addr).state = spec.cache().state_by_name(state).unwrap().index() as u8;
    }

    #[test]
    fn clean_states_pass() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let inv = Swmr::by_convention(&spec);
        let mut gs = GlobalState::initial(&spec, &cfg);
        put(&mut gs, &spec, 0, 0, "S");
        put(&mut gs, &spec, 1, 0, "S");
        put(&mut gs, &spec, 2, 1, "M");
        assert_eq!(inv.check(&gs, &spec), None);
    }

    #[test]
    fn two_writers_flagged() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let inv = Swmr::by_convention(&spec);
        let mut gs = GlobalState::initial(&spec, &cfg);
        put(&mut gs, &spec, 0, 0, "M");
        put(&mut gs, &spec, 1, 0, "M");
        let v = inv.check(&gs, &spec).unwrap();
        assert!(v.contains("SWMR"));
        assert!(v.contains("C1:M"));
        assert!(v.contains("C2:M"));
    }

    #[test]
    fn writer_plus_reader_flagged() {
        let spec = protocols::mesi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let inv = Swmr::by_convention(&spec);
        let mut gs = GlobalState::initial(&spec, &cfg);
        put(&mut gs, &spec, 0, 1, "E");
        put(&mut gs, &spec, 2, 1, "S");
        assert!(inv.check(&gs, &spec).is_some());
    }

    #[test]
    fn owned_plus_shared_is_legal() {
        let spec = protocols::mosi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let inv = Swmr::by_convention(&spec);
        let mut gs = GlobalState::initial(&spec, &cfg);
        put(&mut gs, &spec, 0, 0, "O");
        put(&mut gs, &spec, 1, 0, "S");
        assert_eq!(inv.check(&gs, &spec), None);
    }

    #[test]
    fn transients_are_not_counted() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let inv = Swmr::by_convention(&spec);
        let mut gs = GlobalState::initial(&spec, &cfg);
        put(&mut gs, &spec, 0, 0, "M");
        put(&mut gs, &spec, 1, 0, "IM_AD");
        assert_eq!(inv.check(&gs, &spec), None);
    }
}
