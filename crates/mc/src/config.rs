//! Model-checking configuration.

use vnet_core::VnAssignment;
use vnet_protocol::{CoreOp, MsgId, ProtocolSpec};

/// Message-name → VN mapping used by the checker.
///
/// A thin, index-based wrapper so configs are self-contained; build one
/// from an analysis result with [`VnMap::from_assignment`] or by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VnMap {
    vn_of: Vec<usize>,
    n_vns: usize,
}

impl VnMap {
    /// A single shared VN for `n_messages` messages.
    pub fn single(n_messages: usize) -> Self {
        VnMap {
            vn_of: vec![0; n_messages],
            n_vns: 1,
        }
    }

    /// One VN per message name (the Class-2 experiment: even this must
    /// deadlock for Class-2 protocols).
    pub fn one_per_message(n_messages: usize) -> Self {
        VnMap {
            vn_of: (0..n_messages).collect(),
            n_vns: n_messages.max(1),
        }
    }

    /// From an explicit per-message vector.
    pub fn from_vns(vn_of: Vec<usize>) -> Self {
        let n_vns = vn_of.iter().max().map_or(1, |&m| m + 1);
        VnMap { vn_of, n_vns }
    }

    /// From a `vnet-core` assignment.
    pub fn from_assignment(a: &VnAssignment, n_messages: usize) -> Self {
        VnMap {
            vn_of: (0..n_messages).map(|i| a.vn_of(MsgId(i))).collect(),
            n_vns: a.n_vns(),
        }
    }

    /// The textbook three-VN mapping: requests / forwarded requests /
    /// responses each on their own VN — the conventional wisdom the
    /// paper shows to be neither necessary nor sufficient.
    pub fn textbook(spec: &ProtocolSpec) -> Self {
        use vnet_protocol::MsgType;
        let vn_of = spec
            .messages()
            .iter()
            .map(|m| match m.mtype {
                MsgType::Request => 0,
                MsgType::FwdRequest => 1,
                MsgType::DataResponse | MsgType::CtrlResponse => 2,
            })
            .collect();
        VnMap { vn_of, n_vns: 3 }
    }

    /// The VN of message `m`.
    pub fn vn_of(&self, m: MsgId) -> usize {
        self.vn_of[m.0]
    }

    /// Number of VNs.
    pub fn n_vns(&self) -> usize {
        self.n_vns
    }

    /// The full per-message VN vector (indexed by `MsgId`).
    pub fn vn_vector(&self) -> &[usize] {
        &self.vn_of
    }
}

/// ICN ordering discipline (paper Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcnOrder {
    /// No ordering: every send nondeterministically picks either global
    /// buffer of its VN; the checker explores both.
    Unordered,
    /// Point-to-point ordering: each (source, destination) endpoint pair
    /// is statically pinned to one global buffer. `salt` selects one of
    /// the possible static mappings; checking several salts approximates
    /// the paper's "all possible static mappings" sweep.
    PointToPoint {
        /// Mapping selector (hashed with the endpoint pair).
        salt: u64,
    },
}

/// What the caches are allowed to inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectionBudget {
    /// Every cache may perform up to this many core operations in total
    /// (any op, any address).
    PerCache(u8),
    /// An explicit script of `(cache, addr, op)` injections, **issued in
    /// list order** (each becomes available once all earlier ones have
    /// issued). Message deliveries remain fully nondeterministic, so
    /// ordering the injections prunes interleavings without hiding any
    /// queueing behavior — used to drive directed scenarios such as the
    /// paper's Figure 3.
    Explicit(Vec<(usize, usize, CoreOp)>),
}

/// Full checker configuration.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of caches (paper: 3 to manifest the Figure-3 deadlock).
    pub n_caches: usize,
    /// Number of addresses (paper: 2).
    pub n_addrs: usize,
    /// Number of directories; address `a` is homed at `a % n_dirs`
    /// (paper: 2).
    pub n_dirs: usize,
    /// Message-name → VN mapping.
    pub vns: VnMap,
    /// Ordering discipline.
    pub order: IcnOrder,
    /// Capacity of each global buffer.
    pub global_capacity: usize,
    /// Capacity of each endpoint input FIFO.
    pub endpoint_capacity: usize,
    /// Injection budget.
    pub budget: InjectionBudget,
    /// Stop after this many explored states (bounded verdict).
    pub max_states: usize,
    /// Stop after this BFS level (bounded verdict), if set.
    pub max_depth: Option<usize>,
    /// Check the SWMR safety invariant on every state, if set.
    pub swmr: Option<crate::invariant::Swmr>,
    /// Collapse cache-symmetric states (scalar-set reduction). Only
    /// legal with a uniform [`InjectionBudget::PerCache`] budget.
    pub symmetry: bool,
}

impl McConfig {
    /// A general-model default for `spec`: 3 caches, 2 addresses, 2
    /// directories, textbook VN mapping, unordered ICN, 2 ops per cache.
    pub fn general(spec: &ProtocolSpec) -> Self {
        McConfig {
            n_caches: 3,
            n_addrs: 2,
            n_dirs: 2,
            vns: VnMap::textbook(spec),
            order: IcnOrder::Unordered,
            global_capacity: 4,
            endpoint_capacity: 4,
            budget: InjectionBudget::PerCache(2),
            max_states: 2_000_000,
            max_depth: None,
            swmr: None,
            symmetry: false,
        }
    }

    /// The directed Figure-3 scenario over blocks X (addr 0, home dir 0)
    /// and Y (addr 1, home dir 1). The first two stores establish the
    /// figure's initial condition — C1 holds X in M, C2 holds Y in M —
    /// and the remaining four are the figure's time-step writes: C1→Y,
    /// C2→X, and C3 to both.
    pub fn figure3(spec: &ProtocolSpec) -> Self {
        use CoreOp::Store;
        McConfig {
            budget: InjectionBudget::Explicit(vec![
                (0, 0, Store), // setup: C1 owns X
                (1, 1, Store), // setup: C2 owns Y
                (0, 1, Store), // time 1: C1 writes Y
                (1, 0, Store), // time 1: C2 writes X
                (2, 1, Store), // time 2: C3 writes Y
                (2, 0, Store), // time 2: C3 writes X
            ]),
            ..McConfig::general(spec)
        }
    }

    /// Class-1 screening per §V-A: one address, one directory, one VN
    /// per message name.
    pub fn class1_screen(spec: &ProtocolSpec) -> Self {
        McConfig {
            n_caches: 3,
            n_addrs: 1,
            n_dirs: 1,
            vns: VnMap::one_per_message(spec.messages().len()),
            ..McConfig::general(spec)
        }
    }

    /// Overrides the VN mapping.
    pub fn with_vns(mut self, vns: VnMap) -> Self {
        self.vns = vns;
        self
    }

    /// Overrides the ordering discipline.
    pub fn with_order(mut self, order: IcnOrder) -> Self {
        self.order = order;
        self
    }

    /// Overrides the injection budget.
    pub fn with_budget(mut self, budget: InjectionBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the exploration bounds.
    pub fn with_limits(mut self, max_states: usize, max_depth: Option<usize>) -> Self {
        self.max_states = max_states;
        self.max_depth = max_depth;
        self
    }

    /// Enables SWMR invariant checking.
    pub fn with_swmr(mut self, swmr: crate::invariant::Swmr) -> Self {
        self.swmr = Some(swmr);
        self
    }

    /// Enables symmetry reduction (cache permutations × home-preserving
    /// address permutations).
    ///
    /// Fails closed instead of panicking: an explicit injection script
    /// names specific caches and addresses, and point-to-point ordering
    /// pins buffers by endpoint identity — neither is permutation-
    /// invariant, so both are rejected with a usage error.
    pub fn with_symmetry(mut self) -> Result<Self, String> {
        self.symmetry = true;
        self.validate_for_run()?;
        Ok(self)
    }

    /// Full pre-run validation: the codec limits plus, when symmetry is
    /// on, the compatibility checks (a hand-built config can set the
    /// flag without going through [`McConfig::with_symmetry`]). Every
    /// explorer calls this before touching a state and fails closed on
    /// `Err`.
    pub fn validate_for_run(&self) -> Result<(), String> {
        self.validate()?;
        if self.symmetry {
            if !matches!(self.budget, InjectionBudget::PerCache(_)) {
                return Err(
                    "symmetry reduction requires a uniform per-cache budget; explicit \
                     injection scripts name specific caches and break the symmetry \
                     (use the general scenario, e.g. `vnet mc --general --symmetry`)"
                        .into(),
                );
            }
            if !matches!(self.order, IcnOrder::Unordered) {
                return Err(
                    "symmetry reduction requires unordered ICN buffers; point-to-point \
                     pinning hashes endpoint identities and is not permutation-invariant"
                        .into(),
                );
            }
        }
        Ok(())
    }

    /// Checks the state codec's size limits. The `u8` reader/sharer
    /// masks silently corrupt beyond 8 caches, `Node::Dir` is encoded
    /// as `0x80 | i`, message addresses are single bytes, and a queue
    /// holds at most 255 messages — so any config outside
    /// these bounds must be rejected before a single
    /// state is encoded, not explored into garbage.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_caches == 0 || self.n_caches > 8 {
            return Err(format!(
                "n_caches = {} out of range (1..=8: reader/sharer bitmasks are u8)",
                self.n_caches
            ));
        }
        if self.n_dirs == 0 || self.n_dirs > 127 {
            return Err(format!(
                "n_dirs = {} out of range (1..=127: directory nodes encode as 0x80|i)",
                self.n_dirs
            ));
        }
        if self.n_addrs == 0 || self.n_addrs > 253 {
            return Err(format!(
                "n_addrs = {} out of range (1..=253: message addresses are u8 and must \
                 stay below the 0xfd/0xfe codec separators)",
                self.n_addrs
            ));
        }
        let max_cap = crate::state::MAX_QUEUE_CAPACITY;
        if self.global_capacity > max_cap || self.endpoint_capacity > max_cap {
            return Err(format!(
                "queue capacities {}/{} out of range (0..={max_cap} messages per queue)",
                self.global_capacity, self.endpoint_capacity
            ));
        }
        Ok(())
    }

    /// Total number of endpoints (caches then directories).
    pub fn n_endpoints(&self) -> usize {
        self.n_caches + self.n_dirs
    }

    /// The home directory index of an address.
    pub fn home_of(&self, addr: usize) -> usize {
        addr % self.n_dirs
    }

    /// A canonical byte encoding of every field that shapes the
    /// reachable state space and the verdict, hashed into checkpoint
    /// fingerprints: resuming is only sound when this matches the run
    /// that wrote the checkpoint (see `checkpoint::fingerprint`).
    pub fn fingerprint_bytes(&self) -> Vec<u8> {
        fn num(out: &mut Vec<u8>, v: u64) {
            out.extend(v.to_le_bytes());
        }
        let mut out = Vec::with_capacity(96);
        num(&mut out, self.n_caches as u64);
        num(&mut out, self.n_addrs as u64);
        num(&mut out, self.n_dirs as u64);
        num(&mut out, self.vns.n_vns() as u64);
        for &vn in self.vns.vn_vector() {
            num(&mut out, vn as u64);
        }
        match self.order {
            IcnOrder::Unordered => num(&mut out, u64::MAX),
            IcnOrder::PointToPoint { salt } => {
                num(&mut out, 1);
                num(&mut out, salt);
            }
        }
        num(&mut out, self.global_capacity as u64);
        num(&mut out, self.endpoint_capacity as u64);
        match &self.budget {
            InjectionBudget::PerCache(b) => {
                num(&mut out, 0);
                num(&mut out, *b as u64);
            }
            InjectionBudget::Explicit(script) => {
                num(&mut out, 1);
                num(&mut out, script.len() as u64);
                for (cache, addr, op) in script {
                    num(&mut out, *cache as u64);
                    num(&mut out, *addr as u64);
                    num(
                        &mut out,
                        match op {
                            CoreOp::Load => 0,
                            CoreOp::Store => 1,
                            CoreOp::Evict => 2,
                        },
                    );
                }
            }
        }
        // `max_states`/`max_depth` are deliberately excluded: like the
        // wall-clock budget they only truncate the run, so resuming a
        // checkpoint under different bounds is sound (and is exactly how
        // a bounded sweep gets extended). Spill is not a config field
        // for the same reason (it is the run plan's): it changes where
        // visited bytes live, never which states exist, so checkpoints
        // stay interchangeable between in-RAM and spilled runs.
        match &self.swmr {
            None => num(&mut out, u64::MAX),
            Some(swmr) => {
                num(&mut out, 2);
                out.extend(swmr.fingerprint_bytes());
            }
        }
        out.push(self.symmetry as u8);
        out
    }
}

// Test-only panics below (unwrap/expect on known-good fixtures,
// aborts on impossible verdicts) stop just the failing test; the
// production paths above are panic-free.
#[cfg(test)]
mod tests {
    use super::*;
    use vnet_protocol::protocols;

    #[test]
    fn textbook_map_has_three_vns() {
        let spec = protocols::msi_blocking_cache();
        let m = VnMap::textbook(&spec);
        assert_eq!(m.n_vns(), 3);
        let gets = spec.message_by_name("GetS").unwrap();
        let fwd = spec.message_by_name("Fwd-GetM").unwrap();
        let data = spec.message_by_name("Data").unwrap();
        assert_eq!(m.vn_of(gets), 0);
        assert_eq!(m.vn_of(fwd), 1);
        assert_eq!(m.vn_of(data), 2);
    }

    #[test]
    fn one_per_message_is_injective() {
        let m = VnMap::one_per_message(5);
        assert_eq!(m.n_vns(), 5);
        let vns: std::collections::BTreeSet<usize> =
            (0..5).map(|i| m.vn_of(MsgId(i))).collect();
        assert_eq!(vns.len(), 5);
    }

    #[test]
    fn general_config_matches_paper_sizes() {
        let spec = protocols::msi_blocking_cache();
        let c = McConfig::general(&spec);
        assert_eq!((c.n_caches, c.n_addrs, c.n_dirs), (3, 2, 2));
        assert_eq!(c.home_of(0), 0);
        assert_eq!(c.home_of(1), 1);
        assert_eq!(c.n_endpoints(), 5);
    }

    #[test]
    fn with_symmetry_fails_closed_on_incompatible_configs() {
        let spec = protocols::msi_blocking_cache();
        let err = McConfig::figure3(&spec).with_symmetry().unwrap_err();
        assert!(err.contains("per-cache budget"), "{err}");
        let p2p = McConfig::general(&spec).with_order(IcnOrder::PointToPoint { salt: 0 });
        let err = p2p.with_symmetry().unwrap_err();
        assert!(err.contains("unordered"), "{err}");
        assert!(McConfig::general(&spec).with_symmetry().unwrap().symmetry);
    }

    #[test]
    fn validate_enforces_codec_limits() {
        let spec = protocols::msi_blocking_cache();
        assert!(McConfig::general(&spec).validate().is_ok());
        let big = McConfig {
            n_caches: 9,
            ..McConfig::general(&spec)
        };
        assert!(big.validate().unwrap_err().contains("n_caches"));
        let none = McConfig {
            n_caches: 0,
            ..McConfig::general(&spec)
        };
        assert!(none.validate().is_err());
        let dirs = McConfig {
            n_dirs: 128,
            ..McConfig::general(&spec)
        };
        assert!(dirs.validate().unwrap_err().contains("n_dirs"));
        let addrs = McConfig {
            n_addrs: 254,
            ..McConfig::general(&spec)
        };
        assert!(addrs.validate().unwrap_err().contains("n_addrs"));
    }

    #[test]
    fn validate_bounds_queue_capacities() {
        let spec = protocols::msi_blocking_cache();
        for (global_capacity, endpoint_capacity) in [(256, 4), (4, 256)] {
            let cfg = McConfig {
                global_capacity,
                endpoint_capacity,
                ..McConfig::general(&spec)
            };
            assert!(cfg.validate().is_err_and(|e| e.contains("capacities")));
        }
        let zero = McConfig {
            global_capacity: 0,
            endpoint_capacity: 255,
            ..McConfig::general(&spec)
        };
        assert!(zero.validate().is_ok());
    }

    #[test]
    fn from_assignment_round_trips() {
        let spec = protocols::chi();
        let outcome = vnet_core::minimize_vns(&spec);
        let a = outcome.assignment().unwrap();
        let m = VnMap::from_assignment(a, spec.messages().len());
        assert_eq!(m.n_vns(), 2);
    }
}
