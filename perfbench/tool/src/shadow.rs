//! The traced shadow BFS: a level-synchronous breadth-first search that
//! drives a model-checking subject through the same public functions the
//! serial explorer calls (`rules::expand`, `GlobalState::encode_into` /
//! `decode`, `Canonicalizer::canonical_key_into`, `StateArena::intern`,
//! `Swmr::check`, `Trace::replay`) and charges each call to its layer.
//!
//! Each frontier batch runs phase by phase — decode, expand, encode (or
//! canonicalize), intern, SWMR check — so the clock is read once per
//! phase per batch, never per call. The phases' self times sum to nearly
//! the whole traced wall; the remainder (frontier bookkeeping) is what
//! `mc.layer_cover` leaves out.

use std::time::Instant;

use vnet_mc::rules::{self, ExpandOutcome, Scratch};
use vnet_mc::symmetry::Canonicalizer;
use vnet_mc::{GlobalState, McConfig, StateArena, StateId, Swmr, Trace};
use vnet_protocol::ProtocolSpec;

/// Frontier states expanded per phase batch.
const BATCH: usize = 512;

/// Layer totals of one shadow run.
#[derive(Default)]
pub struct ShadowReport {
    pub states: usize,
    pub levels: usize,
    pub deadlock_depth: Option<usize>,
    pub wall_s: f64,
    pub decode_s: f64,
    pub expand_s: f64,
    pub encode_s: f64,
    pub canon_s: f64,
    pub intern_s: f64,
    pub swmr_s: f64,
    pub replay_s: f64,
    pub expanded: u64,
    pub successors: u64,
    pub key_bytes: u64,
    pub fresh: u64,
    pub arena_bytes: usize,
    pub load_factor_pct: u64,
    pub candidates_per_key: usize,
    pub swmr_violations: u64,
    /// `Some(true)` when the deadlock witness replayed to its recorded
    /// terminal state; `None` for a complete run.
    pub witness_ok: Option<bool>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs the shadow BFS on `spec` under `cfg`.
pub fn run(spec: &ProtocolSpec, cfg: &McConfig) -> Result<ShadowReport, String> {
    cfg.validate_for_run()?;
    let mut r = ShadowReport::default();
    let swmr = Swmr::by_convention(spec);
    let mut canon = cfg.symmetry.then(|| Canonicalizer::new(cfg));
    r.candidates_per_key = canon.as_ref().map_or(0, |c| c.group_order() - 1);

    let start = Instant::now();
    let mut arena = StateArena::new();
    let mut parent: Vec<StateId> = Vec::new();
    let initial = GlobalState::initial(spec, cfg);
    let mut key = Vec::with_capacity(160);
    match canon.as_mut() {
        Some(c) => c.canonical_key_into(&initial, &mut key),
        None => initial.encode_into(&mut key),
    }
    let (root, _) = arena.intern(&key).map_err(|e| e.to_string())?;
    parent.push(root);

    let mut scratch = Scratch::new(spec, cfg);
    let mut frontier: Vec<StateId> = vec![root];
    // Reused per-batch buffers: decoded frontier states, a pool of
    // successor states (grown on demand, refilled with `copy_from`),
    // each successor's source index, and the successors' keys laid end
    // to end.
    let mut decoded: Vec<GlobalState> = Vec::with_capacity(BATCH);
    let mut pool: Vec<GlobalState> = Vec::new();
    let mut source: Vec<usize> = Vec::new();
    let mut keys: Vec<u8> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut fresh_idx: Vec<usize> = Vec::new();

    'bfs: while !frontier.is_empty() {
        let mut next: Vec<StateId> = Vec::new();
        for chunk in frontier.chunks(BATCH) {
            let t = Instant::now();
            decoded.clear();
            for &id in chunk {
                let gs = GlobalState::decode(arena.get(id), cfg)
                    .ok_or_else(|| format!("interned state {id} failed to decode"))?;
                decoded.push(gs);
            }
            r.decode_s += secs(t);

            let t = Instant::now();
            let mut n = 0usize;
            source.clear();
            let mut dead: Option<usize> = None;
            for (j, gs) in decoded.iter().enumerate() {
                let outcome = rules::expand(spec, cfg, gs, &mut scratch, |succ, _label| {
                    if n == pool.len() {
                        pool.push(succ.clone());
                    } else {
                        pool[n].copy_from(succ);
                    }
                    source.push(j);
                    n += 1;
                    true
                });
                match outcome {
                    ExpandOutcome::Done(0) if !gs.is_quiescent(spec) => {
                        dead = Some(j);
                        break;
                    }
                    ExpandOutcome::Done(_) => {}
                    ExpandOutcome::Stopped => return Err("expansion stopped early".into()),
                    ExpandOutcome::Bug { rule, detail } => {
                        return Err(format!("specification bug in `{rule}`: {detail}"))
                    }
                }
            }
            // The explorer stops at the first deadlocked state, having
            // claimed only the successors of the states before it.
            if let Some(j) = dead {
                n = source.iter().take_while(|&&s| s < j).count();
            }
            r.expand_s += secs(t);
            r.expanded += dead.map_or(decoded.len(), |j| j + 1) as u64;
            r.successors += n as u64;

            let t = Instant::now();
            keys.clear();
            ends.clear();
            for s in &pool[..n] {
                match canon.as_mut() {
                    Some(c) => c.canonical_key_into(s, &mut key),
                    None => s.encode_into(&mut key),
                }
                keys.extend_from_slice(&key);
                ends.push(keys.len());
            }
            if canon.is_some() {
                r.canon_s += secs(t);
            } else {
                r.encode_s += secs(t);
            }
            r.key_bytes += keys.len() as u64;

            let t = Instant::now();
            fresh_idx.clear();
            let mut from = 0usize;
            for (i, &end) in ends.iter().enumerate() {
                let (sid, fresh) = arena.intern(&keys[from..end]).map_err(|e| e.to_string())?;
                from = end;
                if fresh {
                    parent.push(chunk[source[i]]);
                    next.push(sid);
                    fresh_idx.push(i);
                }
            }
            r.intern_s += secs(t);
            r.fresh += fresh_idx.len() as u64;

            let t = Instant::now();
            for &i in &fresh_idx {
                if swmr.check(&pool[i], spec).is_some() {
                    r.swmr_violations += 1;
                }
            }
            r.swmr_s += secs(t);

            if let Some(j) = dead {
                r.deadlock_depth = Some(r.levels);
                r.states = arena.len();
                let t = Instant::now();
                r.witness_ok = Some(replay_witness(spec, cfg, &arena, &parent, chunk[j])?);
                r.replay_s = secs(t);
                break 'bfs;
            }
        }
        r.levels += 1;
        frontier = next;
    }
    r.wall_s = secs(start);
    if r.deadlock_depth.is_none() {
        r.states = arena.len();
    }
    r.arena_bytes = arena.data_len();
    r.load_factor_pct = arena.load_factor_pct();
    Ok(r)
}

/// Rebuilds the witness of deadlocked state `dead` from the parent
/// links, labels each step by re-expanding the parent and matching the
/// child's encoding, and replays it with `Trace::replay`. The label
/// search covers plain (non-symmetric) runs, which is what the deadlock
/// subject uses.
fn replay_witness(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    arena: &StateArena,
    parent: &[StateId],
    dead: StateId,
) -> Result<bool, String> {
    if cfg.symmetry {
        return Err("witness relabelling needs a plain (non-symmetric) run".into());
    }
    let mut chain = vec![dead];
    let mut cur = dead;
    while parent[cur as usize] != cur {
        cur = parent[cur as usize];
        chain.push(cur);
    }
    chain.reverse();
    let decode = |id: StateId| {
        GlobalState::decode(arena.get(id), cfg).ok_or_else(|| format!("state {id} undecodable"))
    };
    let mut scratch = Scratch::new(spec, cfg);
    let mut steps = Vec::with_capacity(chain.len());
    let mut buf = Vec::with_capacity(160);
    for pair in chain.windows(2) {
        let from = decode(pair[0])?;
        let want = arena.get(pair[1]);
        let mut label = None;
        rules::expand(spec, cfg, &from, &mut scratch, |succ, l| {
            succ.encode_into(&mut buf);
            if buf.as_slice() == want {
                label = Some(l.render(spec));
                return false;
            }
            true
        });
        steps.push(label.ok_or("no enabled rule reaches the next witness state")?);
    }
    let last = decode(dead)?;
    let trace = Trace { steps, last };
    let end = trace.replay(spec, cfg)?;
    Ok(end == trace.last)
}
