//! Counterexample traces.

use crate::config::McConfig;
use crate::rules::{expand, ExpandOutcome, Scratch};
use crate::state::GlobalState;
use vnet_protocol::ProtocolSpec;

/// A rule-labeled path from the initial state to a witness state.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The rule labels, in execution order.
    pub steps: Vec<String>,
    /// The final (witness) state.
    pub last: GlobalState,
}

impl Trace {
    /// Trace length in rules.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the trace is empty (the initial state itself is the
    /// witness).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Replays the trace from `GlobalState::initial`, matching each
    /// step label against the enabled successors of the current state.
    /// Returns the terminal state, or a description of the first step
    /// whose label is not enabled — which would mean the trace does not
    /// describe a real execution (the check the differential tests
    /// lean on to validate parallel-explorer witnesses).
    pub fn replay(&self, spec: &ProtocolSpec, cfg: &McConfig) -> Result<GlobalState, String> {
        let mut cur = GlobalState::initial(spec, cfg);
        let mut next = cur.clone();
        let mut scratch = Scratch::new(spec, cfg);
        let mut label = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            // The first successor carrying the step's label is taken;
            // the expansion runs to the end so that a spec bug in any
            // rule of the state is reported.
            let mut found = false;
            let outcome = expand(spec, cfg, &cur, &mut scratch, |succ, l| {
                if !found {
                    l.render_into(spec, &mut label);
                    if label == *step {
                        next.copy_from(succ);
                        found = true;
                    }
                }
                true
            });
            if let ExpandOutcome::Bug { rule, detail } = outcome {
                return Err(format!(
                    "step {}: expansion hit a spec bug in `{rule}`: {detail}",
                    i + 1
                ));
            }
            if !found {
                return Err(format!(
                    "step {}: label `{step}` is not enabled in the replayed state",
                    i + 1
                ));
            }
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(cur)
    }

    /// Renders the trace with the final state dump.
    pub fn display(&self, spec: &ProtocolSpec, cfg: &McConfig) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let _ = writeln!(out, "{:>3}. {step}", i + 1);
        }
        let _ = writeln!(out, "final state:");
        out.push_str(&self.last.dump(spec, cfg));
        out
    }
}


/// Rebuilds a *concrete* execution from a chain of canonical state
/// keys, root first (the per-step parent links a symmetry-mode explorer
/// stores). Under symmetry reduction the stored labels reference
/// permuted cache/address indices and do not describe any real
/// execution; instead of trusting them, this walks forward from the
/// concrete initial state and, at each step, picks the concrete
/// successor whose canonical key matches the recorded child — so the
/// returned steps are real concrete rule labels and
/// [`Trace::replay`] reaches `last` by construction. Every recorded
/// canonical child has at least one matching concrete successor (the
/// transition relation commutes with the symmetry group), so `Err`
/// here means the chain itself is damaged.
pub(crate) fn decanonicalize_chain(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    chain: &[Vec<u8>],
) -> Result<Trace, String> {
    let mut canon = crate::symmetry::Canonicalizer::new(cfg);
    let mut cur = GlobalState::initial(spec, cfg);
    let mut next = cur.clone();
    let mut scratch = Scratch::new(spec, cfg);
    let mut key = Vec::with_capacity(160);
    canon.canonical_key_into(&cur, &mut key);
    let Some(first) = chain.first() else {
        return Err("empty canonical chain".into());
    };
    if *first != key {
        return Err("canonical chain does not start at the initial state".into());
    }
    let mut steps = Vec::with_capacity(chain.len().saturating_sub(1));
    for (depth, want) in chain.iter().enumerate().skip(1) {
        // The first successor whose canonical key is the recorded child
        // is taken; the expansion runs to the end so that a spec bug in
        // any rule of the state is reported.
        let mut found = None;
        let outcome = expand(spec, cfg, &cur, &mut scratch, |succ, l| {
            if found.is_none() {
                canon.canonical_key_into(succ, &mut key);
                if key == *want {
                    next.copy_from(succ);
                    found = Some(l.render(spec));
                }
            }
            true
        });
        if let ExpandOutcome::Bug { rule, detail } = outcome {
            return Err(format!(
                "expansion hit a spec bug at depth {depth} in `{rule}`: {detail}"
            ));
        }
        let Some(label) = found else {
            return Err(format!(
                "no successor at depth {depth} maps onto the recorded canonical state"
            ));
        };
        steps.push(label);
        std::mem::swap(&mut cur, &mut next);
    }
    Ok(Trace { steps, last: cur })
}

/// The witness ending at `start`, walked root-ward over parent links.
/// This is the one walk every explorer uses. `step(state, key, label)`
/// writes the state's key and its rule label, then returns its parent,
/// or `None` at the root; an `Err` names a broken link. A state seen
/// twice ends the walk, so a crafted parent cycle terminates.
///
/// Outside symmetry mode the labels already form a concrete execution
/// ending in `last`. Under symmetry they name canonical (permuted)
/// indices, so the trace is de-canonicalized from the chain of keys
/// (see [`decanonicalize_chain`]).
pub(crate) fn witness<R: Copy + Eq + std::hash::Hash>(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    start: R,
    last: GlobalState,
    mut step: impl FnMut(R, &mut Vec<u8>, &mut String) -> Result<Option<R>, String>,
) -> Result<Trace, String> {
    let (mut steps, mut chain) = (Vec::new(), Vec::new());
    let mut seen = std::collections::HashSet::new();
    let mut cur = start;
    while seen.insert(cur) {
        let (mut key, mut label) = (Vec::new(), String::new());
        let parent = step(cur, &mut key, &mut label)?;
        chain.push(key);
        let Some(parent) = parent else { break };
        steps.push(label);
        cur = parent;
    }
    steps.reverse();
    chain.reverse();
    if !cfg.symmetry {
        return Ok(Trace { steps, last });
    }
    Ok(decanonicalize_chain(spec, cfg, &chain)
        .unwrap_or_else(|why| decanonicalize_failed(&why, last)))
}

/// A loud, replay-failing trace for the (provably unreachable) case
/// where de-canonicalization could not reconstruct a concrete
/// execution: the sentinel step is never an enabled rule label, so a
/// differential replay reports the damage instead of silently passing.
pub(crate) fn decanonicalize_failed(why: &str, last: GlobalState) -> Trace {
    Trace {
        steps: vec![format!("<witness de-canonicalization failed: {why}>")],
        last,
    }
}

/// Re-expands a concrete witness state to recover the concrete
/// `(rule, detail)` of a model error that was recorded against its
/// canonical image (whose rule label names permuted indices).
pub(crate) fn concrete_bug(
    spec: &ProtocolSpec,
    cfg: &McConfig,
    last: &GlobalState,
) -> Option<(String, String)> {
    match crate::rules::successors(spec, cfg, last) {
        crate::rules::Expansion::Bug { rule, detail } => Some((rule, detail)),
        crate::rules::Expansion::Ok(_) => None,
    }
}

/// Parsed form of a trace step (recovered from the rule labels, whose
/// format this crate controls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChartEvent {
    /// A core operation issued at a cache.
    Inject {
        /// Cache lane label ("C1").
        cache: String,
        /// e.g. "Store Y".
        what: String,
    },
    /// A message arriving at its destination's input FIFO (it may then
    /// sit there stalled — exactly the Figure-3 situation).
    Deliver {
        /// Source lane label.
        src: String,
        /// Destination lane label.
        dst: String,
        /// e.g. "Fwd-GetM(X)".
        what: String,
    },
    /// A message processed (consumed) by its destination controller.
    Process {
        /// The processing lane.
        at: String,
        /// e.g. "Fwd-GetM(X)".
        what: String,
    },
}

impl Trace {
    /// Extracts chart events from the rule labels (injections and
    /// deliveries; buffer movements are omitted).
    pub fn chart_events(&self) -> Vec<ChartEvent> {
        let mut out = Vec::new();
        for step in &self.steps {
            if let Some(rest) = step.strip_prefix("inject ") {
                // "inject C1 Store Y [GetM→vn0b1]"
                let mut it = rest.split_whitespace();
                let cache = it.next().unwrap_or("?").to_string();
                let op = it.next().unwrap_or("?");
                let addr = it.next().unwrap_or("?");
                out.push(ChartEvent::Inject {
                    cache,
                    what: format!("{op} {addr}"),
                });
            } else if let Some(rest) = step.strip_prefix("advance ") {
                // "advance vn0.b1 GetM(Y) C1→Dir2 req=C1"
                let mut it = rest.split_whitespace();
                let _buf = it.next();
                let what = it.next().unwrap_or("?").to_string();
                let route = it.next().unwrap_or("?");
                let mut ends = route.split('\u{2192}');
                let src = ends.next().unwrap_or("?").to_string();
                let dst = ends.next().unwrap_or("?").to_string();
                out.push(ChartEvent::Deliver { src, dst, what });
            } else if let Some(rest) = step.strip_prefix("consume ") {
                // "consume Fwd-GetM(X) C1→C2 req=C3 at C2 [...]"
                let what = rest.split_whitespace().next().unwrap_or("?").to_string();
                let at = rest
                    .split(" at ")
                    .nth(1)
                    .and_then(|t| t.split_whitespace().next())
                    .unwrap_or("?")
                    .to_string();
                out.push(ChartEvent::Process { at, what });
            }
        }
        out
    }

    /// Renders the trace as an ASCII message-sequence chart in the style
    /// of the paper's Figure 3: one lane per endpoint, one row per
    /// injection or delivery.
    pub fn sequence_chart(&self, cfg: &McConfig) -> String {
        use std::fmt::Write as _;
        const LANE_W: usize = 14;
        let mut lanes: Vec<String> = (0..cfg.n_caches).map(|i| format!("C{}", i + 1)).collect();
        lanes.extend((0..cfg.n_dirs).map(|i| format!("Dir{}", i + 1)));
        let col = |lane: &str| lanes.iter().position(|l| l == lane);
        let center = |i: usize| i * LANE_W + LANE_W / 2;

        let mut out = String::new();
        for lane in &lanes {
            let _ = write!(out, "{lane:^LANE_W$}");
        }
        out.push('\n');
        for (n, ev) in self.chart_events().into_iter().enumerate() {
            // Slack beyond the last lane so local markers don't truncate.
            let mut row = vec![b' '; lanes.len() * LANE_W + 24];
            for i in 0..lanes.len() {
                row[center(i)] = b'|';
            }
            match ev {
                ChartEvent::Inject { cache, what } => {
                    if let Some(i) = col(&cache) {
                        let label = format!("*{what}");
                        let start = center(i) + 1;
                        for (k, b) in label.bytes().enumerate() {
                            if start + k < row.len() {
                                row[start + k] = b;
                            }
                        }
                    }
                }
                ChartEvent::Process { at, what } => {
                    if let Some(i) = col(&at) {
                        let label = format!("!{what}");
                        let start = center(i) + 1;
                        for (k, b) in label.bytes().enumerate() {
                            if start + k < row.len() {
                                row[start + k] = b;
                            }
                        }
                    }
                }
                ChartEvent::Deliver { src, dst, what } => {
                    if let (Some(si), Some(di)) = (col(&src), col(&dst)) {
                        let (a, b) = (center(si).min(center(di)), center(si).max(center(di)));
                        for cell in row.iter_mut().take(b).skip(a + 1) {
                            *cell = b'-';
                        }
                        row[if si < di { b } else { a }] =
                            if si < di { b'>' } else { b'<' };
                        // Overlay the label mid-arrow.
                        let mid = (a + b) / 2;
                        let start = mid.saturating_sub(what.len() / 2);
                        for (k, byte) in what.bytes().enumerate() {
                            if start + k < row.len() && start + k > a && start + k < b {
                                row[start + k] = byte;
                            }
                        }
                    }
                }
            }
            let _ = writeln!(
                out,
                "{:>3} {}",
                n + 1,
                String::from_utf8_lossy(&row).trim_end()
            );
        }
        out
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

    #[test]
    fn chart_events_parse_inject_and_consume() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let t = Trace {
            steps: vec![
                "inject C1 Store Y [GetM\u{2192}vn0b1]".into(),
                "advance vn0.b1 GetM(Y) C1\u{2192}Dir2 req=C1".into(),
                "consume GetM(Y) C1\u{2192}Dir2 req=C1 at Dir2 [Fwd-GetM\u{2192}vn1b1]".into(),
            ],
            last: GlobalState::initial(&spec, &cfg),
        };
        let evs = t.chart_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs[0],
            ChartEvent::Inject { cache: "C1".into(), what: "Store Y".into() }
        );
        assert_eq!(
            evs[1],
            ChartEvent::Deliver {
                src: "C1".into(),
                dst: "Dir2".into(),
                what: "GetM(Y)".into()
            }
        );
        assert_eq!(
            evs[2],
            ChartEvent::Process { at: "Dir2".into(), what: "GetM(Y)".into() }
        );
    }

    #[test]
    fn sequence_chart_draws_lanes_and_arrows() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let t = Trace {
            steps: vec![
                "inject C1 Store Y [GetM\u{2192}vn0b1]".into(),
                "advance vn0.b1 GetM(Y) C1\u{2192}Dir2 req=C1".into(),
                "advance vn2.b0 Data(Y) Dir2\u{2192}C1 req=C1".into(),
                "consume Data(Y) Dir2\u{2192}C1 req=C1 at C1".into(),
            ],
            last: GlobalState::initial(&spec, &cfg),
        };
        let chart = t.sequence_chart(&cfg);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].contains("C1") && lines[0].contains("Dir2"));
        assert!(lines[1].contains("*Store Y"));
        assert!(lines[2].contains('>') && lines[2].contains("GetM(Y)"));
        assert!(lines[3].contains('<') && lines[3].contains("Data(Y)"));
        assert!(lines[4].contains("!Data(Y)"));
    }

    #[test]
    fn fig3_trace_charts_without_panic() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        if let crate::Verdict::Deadlock { trace, .. } = crate::explore(&spec, &cfg) {
            let chart = trace.sequence_chart(&cfg);
            assert!(chart.contains("Fwd-GetM"));
            assert!(chart.lines().count() > 10);
        } else {
            panic!("expected deadlock");
        }
    }

    #[test]
    fn fig3_deadlock_trace_replays_to_its_witness() -> Result<(), String> {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let crate::Verdict::Deadlock { trace, .. } = crate::explore(&spec, &cfg) else {
            return Err("expected deadlock".into());
        };
        let end = trace.replay(&spec, &cfg)?;
        assert_eq!(end, trace.last, "replay must land on the recorded witness");
        Ok(())
    }

    #[test]
    fn replay_rejects_a_corrupted_trace() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::figure3(&spec);
        let t = Trace {
            steps: vec!["inject C9 Flurp Z".into()],
            last: GlobalState::initial(&spec, &cfg),
        };
        let err = t.replay(&spec, &cfg).unwrap_err();
        assert!(err.contains("not enabled"), "{err}");
    }

    #[test]
    fn display_numbers_steps() {
        let spec = protocols::msi_blocking_cache();
        let cfg = McConfig::general(&spec);
        let t = Trace {
            steps: vec!["inject C1 Store X".into(), "advance vn0.b0".into()],
            last: GlobalState::initial(&spec, &cfg),
        };
        let text = t.display(&spec, &cfg);
        assert!(text.contains("  1. inject C1 Store X"));
        assert!(text.contains("  2. advance"));
        assert!(text.contains("final state:"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
