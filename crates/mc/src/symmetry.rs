//! Symmetry reduction: cache permutations × address permutations.
//!
//! With a uniform injection budget, the caches are interchangeable: any
//! permutation of cache indices maps reachable states to reachable
//! states. Addresses are interchangeable too, but only *within a home
//! class* — address `a` is homed at `a % n_dirs`, so a permutation that
//! moved an address across directories would also have to move the
//! directory state and endpoint FIFOs of distinct `Dir` nodes, which
//! the protocol rules distinguish. Home-preserving address permutations
//! keep every `Dir` endpoint fixed, which is exactly why they commute
//! with the transition relation.
//!
//! Canonicalizing each state to the lexicographically smallest image
//! under the product group collapses symmetric orbits and shrinks the
//! explored space by up to `n_caches! · Π_h (class_h)!` — the standard
//! scalar-set reduction of Murphi, specialized to the cache array and
//! the address set.
//!
//! Not applicable to [`crate::InjectionBudget::Explicit`] scripts (the
//! script names specific caches and addresses, breaking the symmetry)
//! or to point-to-point ICN ordering (the static buffer pinning hashes
//! endpoint identities); [`crate::McConfig::with_symmetry`] and the
//! explorers enforce both, failing closed instead of panicking.

use crate::config::McConfig;
use crate::state::{GlobalState, Msg, Node, MSG_LEN};

/// Applies a cache-index and address-index permutation to a state:
/// `cache_perm[i]` is the new index of old cache `i`, `addr_perm[a]`
/// the new index of old address `a`. The address permutation must be
/// home-preserving (`addr_perm[a] % n_dirs == a % n_dirs`) for the
/// image to be reachable; this function applies whatever it is given.
pub fn permute(
    cfg: &McConfig,
    gs: &GlobalState,
    cache_perm: &[usize],
    addr_perm: &[usize],
) -> GlobalState {
    let n = cache_perm.len();
    debug_assert_eq!(gs.n_caches(), n);
    debug_assert_eq!(gs.n_addrs(), addr_perm.len());
    let cache_inv = invert(cache_perm);
    let addr_inv = invert(addr_perm);

    let remap_mask = |mask: u8| -> u8 {
        let mut out = 0u8;
        for (i, &p) in cache_perm.iter().enumerate() {
            if mask & (1 << i) != 0 {
                out |= 1 << p;
            }
        }
        out
    };
    let remap_cache = |c: u8| cache_perm[c as usize] as u8;
    // Home-preserving address permutations never move a `Dir` node.
    let remap_node = |nd: Node| match nd {
        Node::Cache(c) => Node::Cache(remap_cache(c)),
        Node::Dir(d) => Node::Dir(d),
    };
    let remap_msg = |m: Msg| Msg {
        addr: addr_perm[m.addr as usize] as u8,
        src: remap_node(m.src),
        dst: remap_node(m.dst),
        requestor: remap_cache(m.requestor),
        ..m
    };

    let mut out = gs.clone();
    for (nc, &oc) in cache_inv.iter().enumerate() {
        for (na, &oa) in addr_inv.iter().enumerate() {
            let mut line = gs.line(oc, oa);
            line.readers = remap_mask(line.readers);
            if let Some((w, a)) = line.writer {
                line.writer = Some((remap_cache(w), a));
            }
            out.set_line(nc, na, line);
        }
    }

    // Directory lines are indexed by address, so rows move with the
    // address permutation while their cache references are remapped.
    for (na, &oa) in addr_inv.iter().enumerate() {
        let mut d = gs.dir(oa);
        d.sharers = remap_mask(d.sharers);
        d.owner = d.owner.map(remap_cache);
        out.set_dir(na, d);
    }

    for (i, &b) in gs.budgets().iter().enumerate() {
        out.budgets_mut()[cache_perm[i]] = b;
    }

    // A message's *queue position* is part of the state; only identities
    // are remapped. The per-endpoint FIFOs, however, move with their
    // endpoint (dir endpoints are fixed points).
    out.clear_queues();
    for bi in 0..gs.n_global_bufs() {
        for m in gs.queue(bi).iter() {
            out.push_back(bi, remap_msg(m));
        }
    }
    let n_vns = cfg.vns.n_vns().max(1);
    let n_eps = gs.n_endpoint_fifos() / n_vns;
    for new_ep in 0..n_eps {
        let old_ep = cache_inv.get(new_ep).copied().unwrap_or(new_ep);
        for vn in 0..n_vns {
            let to = out.fifo_queue(new_ep * n_vns + vn);
            for m in gs.queue(gs.fifo_queue(old_ep * n_vns + vn)).iter() {
                out.push_back(to, remap_msg(m));
            }
        }
    }
    out
}

/// Inverse of a permutation given as `perm[old] = new`.
fn invert(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new] = old;
    }
    inv
}

fn is_identity(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i == p)
}

/// All permutations of `0..n` (n ≤ 8 in practice).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    heap_permute(&mut items, n, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

/// All home-preserving address permutations: the cartesian product of
/// the within-class permutations, where class `h` is the set of
/// addresses homed at directory `h` (`a % n_dirs == h`). On the default
/// 2-address/2-directory config each class is a singleton, so only the
/// identity survives; 1-directory or 4-address/2-directory configs get
/// a nontrivial address group.
fn address_permutations(n_addrs: usize, n_dirs: usize) -> Vec<Vec<usize>> {
    let nd = n_dirs.max(1);
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); nd];
    for a in 0..n_addrs {
        classes[a % nd].push(a);
    }
    let mut out: Vec<Vec<usize>> = vec![(0..n_addrs).collect()];
    for class in classes.iter().filter(|c| c.len() > 1) {
        let perms = permutations(class.len());
        let mut next = Vec::with_capacity(out.len() * perms.len());
        for base in &out {
            for p in &perms {
                let mut ap = base.clone();
                for (slot, &to) in p.iter().enumerate() {
                    ap[class[slot]] = class[to];
                }
                next.push(ap);
            }
        }
        out = next;
    }
    out
}

/// A precomputed group element with its inverse, so the permuted
/// encoding can be emitted in output order without materializing a
/// permuted state.
struct PermPair {
    cache: Vec<usize>,
    cache_inv: Vec<usize>,
    addr: Vec<usize>,
    addr_inv: Vec<usize>,
}

/// How a candidate image compared with the running best key.
enum Outcome {
    /// Strictly smaller: the candidate, written in full, is the new best.
    Smaller,
    /// Equal to the best, or larger somewhere the prefix skip cannot
    /// vouch for; the next element is tried.
    NotSmaller,
    /// Larger within cache row `k`, and rows `0..=k` hold no cache ids.
    LostAtCleanRow(usize),
}

/// Precomputed symmetry group plus reusable scratch buffers: the fast
/// path the explorers use per successor. Create one per worker (the
/// scratch makes it `!Sync`-shaped by design) and reuse it across
/// millions of states — canonicalization then costs at most one
/// bounded encoding per non-identity group element, and zero state
/// clones.
pub struct Canonicalizer {
    /// Non-identity elements sorted by `(addr_inv, cache_inv)`, so the
    /// elements sharing a prefix of cache rows are contiguous.
    pairs: Vec<PermPair>,
    /// `skip[i * n_caches + k]`: the first element after `i` whose
    /// `(addr_inv, cache_inv[..=k])` differs from element `i`'s.
    skip: Vec<u32>,
    n_caches: usize,
    n_vns: usize,
    scratch: Vec<u8>,
    /// Candidate images started since the tallies were last taken.
    images: u64,
    /// Canonical keys produced since the tallies were last taken.
    keys: u64,
}

impl Canonicalizer {
    /// Builds the product group for `cfg`'s shape.
    pub fn new(cfg: &McConfig) -> Self {
        let cps = permutations(cfg.n_caches);
        let aps = address_permutations(cfg.n_addrs, cfg.n_dirs);
        let mut pairs = Vec::with_capacity(cps.len() * aps.len());
        for cp in &cps {
            for ap in &aps {
                if is_identity(cp) && is_identity(ap) {
                    continue;
                }
                pairs.push(PermPair {
                    cache: cp.clone(),
                    cache_inv: invert(cp),
                    addr: ap.clone(),
                    addr_inv: invert(ap),
                });
            }
        }
        pairs.sort_by(|a, b| (&a.addr_inv, &a.cache_inv).cmp(&(&b.addr_inv, &b.cache_inv)));
        let n = cfg.n_caches;
        let mut skip = vec![0u32; pairs.len() * n];
        for i in (0..pairs.len()).rev() {
            for k in 0..n {
                let shares_prefix = pairs.get(i + 1).is_some_and(|next| {
                    next.addr_inv == pairs[i].addr_inv
                        && next.cache_inv[..=k] == pairs[i].cache_inv[..=k]
                });
                skip[i * n + k] = if shares_prefix {
                    skip[(i + 1) * n + k]
                } else {
                    (i + 1) as u32
                };
            }
        }
        Canonicalizer {
            pairs,
            skip,
            n_caches: n,
            n_vns: cfg.vns.n_vns().max(1),
            scratch: Vec::with_capacity(160),
            images: 0,
            keys: 0,
        }
    }

    /// Group order including the identity (the maximum orbit size, and
    /// so the upper bound on the state-count reduction).
    pub fn group_order(&self) -> usize {
        self.pairs.len() + 1
    }

    /// Writes the canonical key of `gs`'s orbit — the lexicographically
    /// smallest permutation image's encoding — into `best` (cleared
    /// first). Key-only and exact: each candidate is encoded section by
    /// section into a reused scratch buffer and abandoned at the first
    /// section where it already exceeds the running best; a candidate
    /// that loses within cache rows free of cache ids takes every
    /// element sharing those rows' prefix down with it (see DESIGN.md,
    /// "Canonicalization is key-only").
    pub fn canonical_key_into(&mut self, gs: &GlobalState, best: &mut Vec<u8>) {
        gs.encode_into(best);
        self.keys += 1;
        // Bit `c` set: old cache row `c` names a cache (a deferred
        // reader or writer), so its image bytes depend on the whole
        // cache permutation, not just on where the row lands.
        let id_rows = (0..gs.n_caches()).fold(0u32, |acc, c| {
            let ids = gs.row(c).any(|l| l.readers != 0 || l.writer.is_some());
            acc | (u32::from(ids) << c)
        });
        let mut i = 0;
        while let Some(pair) = self.pairs.get(i) {
            self.images += 1;
            let outcome = encode_bounded(gs, pair, self.n_vns, id_rows, best, &mut self.scratch);
            i = match outcome {
                Outcome::Smaller => {
                    std::mem::swap(best, &mut self.scratch);
                    i + 1
                }
                Outcome::NotSmaller => i + 1,
                Outcome::LostAtCleanRow(k) => self.skip[i * self.n_caches + k] as usize,
            };
        }
    }

    /// Candidate images started and canonical keys produced since the
    /// last call, as `(images, keys)`; both tallies restart from zero.
    pub(crate) fn take_tallies(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.images),
            std::mem::take(&mut self.keys),
        )
    }

    /// Adds the tallies gathered since the last flush to the
    /// `explore.symmetry_images_total` / `explore.symmetry_keys_total`
    /// counters. Callers gate it on [`vnet_obs::metrics_enabled`].
    pub(crate) fn flush_metrics(&mut self) {
        let (images, keys) = self.take_tallies();
        vnet_obs::counter("explore.symmetry_images_total").add(images);
        vnet_obs::counter("explore.symmetry_keys_total").add(keys);
    }

    /// The canonical representative of `gs`'s orbit together with its
    /// key. The key is an exact [`GlobalState::encode`] image, so the
    /// state is materialized by decoding it — one allocation, no
    /// per-permutation clones.
    pub fn canonicalize(&mut self, cfg: &McConfig, gs: &GlobalState) -> (GlobalState, Vec<u8>) {
        let mut key = Vec::with_capacity(160);
        self.canonical_key_into(gs, &mut key);
        let state = GlobalState::decode(&key, cfg).unwrap_or_else(|| gs.clone());
        (state, key)
    }
}

/// Folds the section just written at `out[start..]` into the running
/// comparison, given `out[..start] == best[..start]` unless `below`.
/// Returns `true` when the candidate is now known to be larger than
/// `best`. Comparing section by section in order is comparing the whole
/// byte strings: the first differing byte decides, and a `best` that
/// ends inside the section is a proper prefix of the candidate.
fn lost(out: &[u8], best: &[u8], start: usize, below: &mut bool) -> bool {
    if *below {
        return false;
    }
    match out[start..].cmp(&best[start..best.len().min(out.len())]) {
        std::cmp::Ordering::Less => {
            *below = true;
            false
        }
        std::cmp::Ordering::Equal => false,
        std::cmp::Ordering::Greater => true,
    }
}

/// Writes the encoding of `permute(gs, p)` into `out` — byte-for-byte
/// [`GlobalState::encode_into`] on the permuted state — one section at
/// a time (each cache row; the dir, budget and injection block; each
/// buffer; each FIFO), stopping at the first section where it exceeds
/// `best`. Output positions are walked in order and filled via the
/// inverse maps, so nothing is cloned. `id_rows` marks the old cache
/// rows that hold cache ids.
fn encode_bounded(
    gs: &GlobalState,
    p: &PermPair,
    n_vns: usize,
    id_rows: u32,
    best: &[u8],
    out: &mut Vec<u8>,
) -> Outcome {
    out.clear();
    let (n_caches, n_addrs) = (p.cache.len(), p.addr.len());
    let mut below = false;
    let remap_mask = |mask: u8| -> u8 {
        let mut r = 0u8;
        for (i, &np) in p.cache.iter().enumerate() {
            if mask & (1 << i) != 0 {
                r |= 1 << np;
            }
        }
        r
    };
    let remap_cache = |c: u8| p.cache[c as usize] as u8;
    let mut clean = true;
    for nc in 0..n_caches {
        let start = out.len();
        let oc = p.cache_inv[nc];
        for na in 0..n_addrs {
            let l = gs.line(oc, p.addr_inv[na]);
            out.push(l.state);
            out.push(l.needed_acks as u8);
            out.push(remap_mask(l.readers));
            match l.writer {
                None => out.extend([0xff, 0]),
                Some((w, a)) => out.extend([remap_cache(w), a as u8]),
            }
        }
        clean &= id_rows & (1 << oc) == 0;
        if lost(out, best, start, &mut below) {
            return if clean {
                Outcome::LostAtCleanRow(nc)
            } else {
                Outcome::NotSmaller
            };
        }
    }
    let start = out.len();
    for na in 0..n_addrs {
        let d = gs.dir(p.addr_inv[na]);
        out.push(d.state);
        out.push(d.owner.map_or(0xff, remap_cache));
        out.push(remap_mask(d.sharers));
        out.push(d.pending as u8);
    }
    let budgets = gs.budgets();
    for nc in 0..budgets.len() {
        out.push(budgets[p.cache_inv[nc]]);
    }
    out.extend(gs.used_injections().to_le_bytes());
    if lost(out, best, start, &mut below) {
        return Outcome::NotSmaller;
    }
    // A message's node bytes name a cache below 0x80 and a directory
    // (a fixed point) from 0x80 up.
    let node = |b: u8| if b & 0x80 != 0 { b } else { p.cache[b as usize] as u8 };
    let enc_queue = |out: &mut Vec<u8>, q: usize| {
        for m in gs.queue(q).as_bytes().chunks_exact(MSG_LEN) {
            out.extend([
                m[0],
                p.addr[m[1] as usize] as u8,
                node(m[2]),
                node(m[3]),
                p.cache[m[4] as usize] as u8,
                m[5],
            ]);
        }
    };
    for bi in 0..gs.n_global_bufs() {
        let start = out.len();
        out.push(0xfe);
        enc_queue(out, bi);
        if lost(out, best, start, &mut below) {
            return Outcome::NotSmaller;
        }
    }
    let n_eps = gs.n_endpoint_fifos() / n_vns;
    for ne in 0..n_eps {
        let oe = if ne < n_caches { p.cache_inv[ne] } else { ne };
        for vn in 0..n_vns {
            let start = out.len();
            out.push(0xfd);
            enc_queue(out, gs.fifo_queue(oe * n_vns + vn));
            if lost(out, best, start, &mut below) {
                return Outcome::NotSmaller;
            }
        }
    }
    // Images of one state have equal lengths, so a candidate that tied
    // every section equals the best.
    if below {
        Outcome::Smaller
    } else {
        Outcome::NotSmaller
    }
}

/// The key a successor is interned under: with a canonicalizer, its
/// canonical key, written into `buf`; without one, its own bytes,
/// borrowed with no copy.
pub(crate) fn interned_key<'a>(
    canon: Option<&mut Canonicalizer>,
    gs: &'a GlobalState,
    buf: &'a mut Vec<u8>,
) -> &'a [u8] {
    match canon {
        Some(c) => {
            c.canonical_key_into(gs, buf);
            buf
        }
        None => gs.as_bytes(),
    }
}

/// One-shot canonicalization (tests, cold paths). Hot paths hold a
/// [`Canonicalizer`] instead.
pub fn canonicalize(cfg: &McConfig, gs: &GlobalState) -> (GlobalState, Vec<u8>) {
    Canonicalizer::new(cfg).canonicalize(cfg, gs)
}

// Test-only panics below (unwrap/expect on known-good fixtures,
// aborts on impossible verdicts) stop just the failing test; the
// production paths above are panic-free.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::McConfig;
    use vnet_protocol::protocols;

    fn setup() -> (vnet_protocol::ProtocolSpec, McConfig, GlobalState) {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let gs = GlobalState::initial(&spec, &cfg);
        (spec, cfg, gs)
    }

    /// General config with a single directory, so both addresses share
    /// a home class and the address group is nontrivial.
    fn setup_one_dir() -> (vnet_protocol::ProtocolSpec, McConfig, GlobalState) {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig {
            n_dirs: 1,
            ..McConfig::general(&spec)
        };
        let gs = GlobalState::initial(&spec, &cfg);
        (spec, cfg, gs)
    }

    fn id(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn identity_permutation_is_identity() {
        let (_, cfg, gs) = setup();
        assert_eq!(permute(&cfg, &gs, &[0, 1, 2], &id(2)), gs);
    }

    #[test]
    fn permutation_composes_to_identity() {
        let (spec, cfg, mut gs) = setup();
        let m = spec.cache().state_by_name("M").unwrap();
        gs.update_line(0, 0, |l| l.state = m.index() as u8);
        gs.update_dir(0, |d| d.owner = Some(0));
        gs.update_dir(0, |d| d.sharers = 0b011);
        let once = permute(&cfg, &gs, &[1, 2, 0], &id(2));
        let back = permute(&cfg, &once, &[2, 0, 1], &id(2));
        assert_eq!(back, gs);
    }

    #[test]
    fn symmetric_states_share_a_canonical_form() {
        let (spec, cfg, base) = setup();
        let m = spec.cache().state_by_name("M").unwrap();
        // Two states that differ only by which cache holds M.
        let mut a = base.clone();
        a.update_line(0, 0, |l| l.state = m.index() as u8);
        a.update_dir(0, |d| d.owner = Some(0));
        let mut b = base.clone();
        b.update_line(2, 0, |l| l.state = m.index() as u8);
        b.update_dir(0, |d| d.owner = Some(2));
        assert_eq!(canonicalize(&cfg, &a).1, canonicalize(&cfg, &b).1);
    }

    #[test]
    fn asymmetric_states_stay_distinct() {
        let (spec, cfg, base) = setup();
        let m = spec.cache().state_by_name("M").unwrap();
        let s = spec.cache().state_by_name("S").unwrap();
        let mut a = base.clone();
        a.update_line(0, 0, |l| l.state = m.index() as u8);
        let mut b = base.clone();
        b.update_line(0, 0, |l| l.state = s.index() as u8);
        assert_ne!(canonicalize(&cfg, &a).1, canonicalize(&cfg, &b).1);
    }

    #[test]
    fn messages_are_remapped_with_their_endpoints() {
        let (spec, cfg, mut gs) = setup();
        let gets = spec.message_by_name("GetS").unwrap();
        let n_vns = cfg.vns.n_vns();
        let msg = Msg {
            msg: gets.index() as u8,
            addr: 0,
            src: Node::Cache(0),
            dst: Node::Dir(0),
            requestor: 0,
            ack: 0,
        };
        let q = gs.fifo_queue(Node::Cache(0).index(3) * n_vns);
        gs.push_back(q, msg);
        let p = permute(&cfg, &gs, &[2, 0, 1], &id(2));
        // The FIFO moved from endpoint 0 to endpoint 2, and the message's
        // identity fields were remapped.
        let moved = p.queue(p.fifo_queue(Node::Cache(2).index(3) * n_vns));
        let moved: Vec<Msg> = moved.iter().collect();
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].src, Node::Cache(2));
        assert_eq!(moved[0].requestor, 2);
        assert!(p.queue(p.fifo_queue(0)).is_empty());
    }

    #[test]
    fn budgets_permute() {
        let (_, cfg, mut gs) = setup();
        gs.budgets_mut().copy_from_slice(&[0, 1, 2]);
        let p = permute(&cfg, &gs, &[1, 2, 0], &id(2));
        assert_eq!(p.budgets(), [2, 0, 1]);
    }

    #[test]
    fn address_permutation_moves_dir_rows_and_cache_columns() {
        let (spec, cfg, mut gs) = setup_one_dir();
        let m = spec.cache().state_by_name("M").unwrap();
        let gets = spec.message_by_name("GetS").unwrap();
        gs.update_line(1, 0, |l| l.state = m.index() as u8);
        gs.update_dir(0, |d| d.owner = Some(1));
        gs.update_dir(0, |d| d.pending = 1);
        gs.push_back(
            0,
            Msg {
                msg: gets.index() as u8,
                addr: 0,
                src: Node::Cache(1),
                dst: Node::Dir(0),
                requestor: 1,
                ack: 0,
            },
        );
        let p = permute(&cfg, &gs, &id(3), &[1, 0]);
        let head = p.queue(0).first().unwrap();
        // Cache columns swapped per row; dir rows swapped; message
        // addresses remapped; dir endpoints untouched.
        assert_eq!(p.line(1, 1).state, m.index() as u8);
        assert_eq!(p.line(1, 0).state, gs.line(1, 1).state);
        assert_eq!(p.dir(1).owner, Some(1));
        assert_eq!(p.dir(1).pending, 1);
        assert_eq!(head.addr, 1);
        assert_eq!(head.dst, Node::Dir(0));
    }

    #[test]
    fn address_permutations_are_home_preserving() {
        // 2 addrs / 2 dirs: singleton home classes, identity only.
        assert_eq!(address_permutations(2, 2), vec![vec![0, 1]]);
        // 2 addrs / 1 dir: one class of two.
        let mut aps = address_permutations(2, 1);
        aps.sort();
        assert_eq!(aps, vec![vec![0, 1], vec![1, 0]]);
        // 4 addrs / 2 dirs: {0,2} and {1,3} each permute internally —
        // 2·2 = 4 elements, all home-preserving.
        let aps = address_permutations(4, 2);
        assert_eq!(aps.len(), 4);
        for ap in &aps {
            for (a, &to) in ap.iter().enumerate() {
                assert_eq!(a % 2, to % 2, "home class broken by {ap:?}");
            }
        }
    }

    #[test]
    fn all_permutations_enumerated() {
        for (n, want) in [(3usize, 6usize), (4, 24), (5, 120)] {
            let mut ps = permutations(n);
            assert_eq!(ps.len(), want);
            ps.sort();
            ps.dedup();
            assert_eq!(ps.len(), want, "duplicate permutations at n={n}");
        }
    }

    /// Deterministic pseudo-random walk over real successors, so the
    /// property tests below run on reachable (codec-valid) states.
    fn seeded_walk(
        spec: &vnet_protocol::ProtocolSpec,
        cfg: &McConfig,
        seed: u64,
        steps: usize,
    ) -> GlobalState {
        let mut cur = GlobalState::initial(spec, cfg);
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        for _ in 0..steps {
            let crate::rules::Expansion::Ok(mut succs) = crate::rules::successors(spec, cfg, &cur)
            else {
                break;
            };
            if succs.is_empty() {
                break;
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % succs.len();
            cur = succs.swap_remove(i).state;
        }
        cur
    }

    #[test]
    fn permute_then_inverse_is_identity_on_walked_states() {
        let (spec, cfg, _) = setup_one_dir();
        for seed in 0..6u64 {
            let gs = seeded_walk(&spec, &cfg, seed, 12);
            for cp in permutations(cfg.n_caches) {
                for ap in address_permutations(cfg.n_addrs, cfg.n_dirs) {
                    let img = permute(&cfg, &gs, &cp, &ap);
                    let back = permute(&cfg, &img, &invert(&cp), &invert(&ap));
                    assert_eq!(back, gs, "seed {seed} cp {cp:?} ap {ap:?}");
                }
            }
        }
    }

    /// The shapes the exactness properties cover: the 3-cache, 1-dir
    /// config (group order 12); the benchmark's 4 caches × 2 addresses
    /// × 1 dir (order 48); and a nonblocking cache, whose deferred
    /// readers and writer put cache ids inside cache rows — the case
    /// where the prefix skip must not fire.
    fn property_subjects() -> Vec<(&'static str, vnet_protocol::ProtocolSpec, McConfig, usize)> {
        let one_dir = |spec: &vnet_protocol::ProtocolSpec, n_caches| McConfig {
            n_caches,
            n_dirs: 1,
            ..McConfig::general(spec)
        };
        let blocking = protocols::msi_blocking_cache();
        let nonblocking = protocols::msi_nonblocking_cache();
        vec![
            (
                "MSI-blocking 3c",
                blocking.clone(),
                one_dir(&blocking, 3),
                12,
            ),
            (
                "MSI-blocking 4c",
                blocking.clone(),
                one_dir(&blocking, 4).with_budget(crate::config::InjectionBudget::PerCache(1)),
                48,
            ),
            (
                "MSI-nonblocking 3c",
                nonblocking.clone(),
                one_dir(&nonblocking, 3),
                12,
            ),
        ]
    }

    const SEEDS: u64 = 32;

    /// Walk lengths vary with the seed so shallow and deep states both
    /// get checked.
    fn walk_steps(seed: u64) -> usize {
        8 + (seed % 4) as usize * 4
    }

    /// `gs` with pseudo-random deferred readers and writers written
    /// into about half of its cache lines. Not reachable, but every
    /// image is still well defined, and ids scattered over the rows
    /// are what would expose a prefix skip taken past a row that
    /// names a cache.
    fn scatter_ids(gs: &GlobalState, seed: u64) -> GlobalState {
        let mut out = gs.clone();
        let n = out.n_caches();
        let mut x = seed.wrapping_mul(0x2545f4914f6cdd1d) | 1;
        for i in 0..n * out.n_addrs() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.update_line(i / gs.n_addrs(), i % gs.n_addrs(), |line| match x % 4 {
                0 => line.readers = (x >> 8) as u8 & ((1u8 << n) - 1),
                1 => line.writer = Some((((x >> 8) as usize % n) as u8, 0)),
                _ => {}
            });
        }
        out
    }

    fn has_ids_in_cache_rows(gs: &GlobalState) -> bool {
        (0..gs.n_caches())
            .flat_map(|c| gs.row(c))
            .any(|l| l.readers != 0 || l.writer.is_some())
    }

    #[test]
    fn orbit_members_share_one_canonical_key() -> Result<(), String> {
        for (name, spec, cfg, order) in property_subjects() {
            let mut canon = Canonicalizer::new(&cfg);
            assert_eq!(canon.group_order(), order, "{name}");
            let cps = permutations(cfg.n_caches);
            let aps = address_permutations(cfg.n_addrs, cfg.n_dirs);
            assert_eq!(cps.len() * aps.len(), order, "{name}");
            for seed in 0..SEEDS {
                let gs = seeded_walk(&spec, &cfg, seed, walk_steps(seed));
                let (rep, key) = canon.canonicalize(&cfg, &gs);
                assert_eq!(
                    rep.encode(),
                    key,
                    "{name}: canonical state must decode from its key"
                );
                for cp in &cps {
                    for ap in &aps {
                        let img = permute(&cfg, &gs, cp, ap);
                        let mut k2 = Vec::new();
                        canon.canonical_key_into(&img, &mut k2);
                        if k2 != key {
                            return Err(format!("{name}: seed {seed} cp {cp:?} ap {ap:?}"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn fast_canonical_key_matches_brute_force() -> Result<(), String> {
        for (name, spec, cfg, _) in property_subjects() {
            let mut canon = Canonicalizer::new(&cfg);
            let cps = permutations(cfg.n_caches);
            let aps = address_permutations(cfg.n_addrs, cfg.n_dirs);
            let mut with_ids = 0;
            for seed in 0..SEEDS {
                let walked = seeded_walk(&spec, &cfg, seed, 4 + walk_steps(seed));
                with_ids += usize::from(has_ids_in_cache_rows(&walked));
                for gs in [scatter_ids(&walked, seed), walked] {
                    // Brute force: materialize every image and encode it.
                    let mut best = gs.encode();
                    for cp in &cps {
                        for ap in &aps {
                            let key = permute(&cfg, &gs, cp, ap).encode();
                            if key < best {
                                best = key;
                            }
                        }
                    }
                    let mut fast = Vec::new();
                    canon.canonical_key_into(&gs, &mut fast);
                    if fast != best {
                        return Err(format!(
                            "{name}: seed {seed}: fast key differs from brute force"
                        ));
                    }
                }
            }
            if name.contains("nonblocking") && with_ids == 0 {
                return Err(format!(
                    "{name}: no walked state holds cache ids in a cache row"
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn prefix_skip_starts_fewer_images_than_the_group() {
        let (spec, cfg, _) = setup_one_dir();
        let mut canon = Canonicalizer::new(&cfg);
        let mut key = Vec::new();
        let mut walked = 0u64;
        for seed in 0..SEEDS {
            for steps in [0, 4, 8, 12, 16] {
                canon.canonical_key_into(&seeded_walk(&spec, &cfg, seed, steps), &mut key);
                walked += 1;
            }
        }
        let (images, keys) = canon.take_tallies();
        assert_eq!(keys, walked);
        let per_key = images as f64 / keys as f64;
        assert!(
            per_key < (canon.group_order() - 1) as f64,
            "{per_key:.2} images per key on a group of order {}",
            canon.group_order()
        );
        assert_eq!(canon.take_tallies(), (0, 0), "tallies restart after a take");
    }
}
