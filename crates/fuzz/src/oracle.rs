//! The fail-closed differential oracle: static analyzer vs bounded
//! explicit-state model checker.
//!
//! For a validated mutant the oracle asks one question: **does the model
//! checker ever find a deadlock under a VN configuration the analyzer
//! certified as safe?** A deadlock trace is definitive no matter how much
//! of the space was left unexplored, so a single bounded run suffices to
//! *refute* the analyzer — while agreement is only ever claimed when the
//! bounded run completed. Every other case degrades to a non-pass.
//!
//! Determinism: the oracle is bounded exclusively by state/node counts,
//! never wall-clock, so the same mutant always produces the same outcome
//! byte-for-byte (a requirement for replayable campaign reports).

use vnet_core::{analyze_budgeted, Budget, VnOutcome};
use vnet_mc::{
    check_parameterized, run, CheckpointedRun, McConfig, McRequest, RunPlan, Verdict, VnChoice,
    VnMap,
};
use vnet_protocol::ProtocolSpec;

/// Oracle bounds and drill switches.
#[derive(Debug, Clone)]
pub struct OracleOpts {
    /// Model-checker state cap per run (deterministic truncation).
    pub max_states: usize,
    /// Model-checker depth cap per run, if any.
    pub max_depth: Option<usize>,
    /// Node budget for the static analyzer's solvers.
    pub analyzer_nodes: u64,
    /// Drill switch: check safety under the assigned VN count **minus
    /// one** (top VN merged down) instead of the assigned map. On a
    /// protocol whose minimum is tight this deterministically
    /// manufactures a `Disagreement`, exercising the full exit-8 →
    /// shrink → repro-bundle path end to end. Never set outside drills.
    pub skew: bool,
    /// Run the bounded checker on the general scenario under cache ×
    /// address symmetry reduction instead of the Figure-3 script. A
    /// different (larger, folded) state space per bound — recorded in
    /// the recipe so replays stay byte-identical.
    pub symmetry: bool,
}

impl Default for OracleOpts {
    fn default() -> Self {
        OracleOpts {
            // Sized so the Table I Class-3 protocols (e.g. CHI: ~203k
            // states) explore figure3 to completion under their assigned
            // maps — a complete run is what lets `Consistent` be claimed.
            max_states: 250_000,
            max_depth: None,
            analyzer_nodes: 2_000_000,
            skew: false,
            symmetry: false,
        }
    }
}

/// What the pipeline concluded about one mutant. Only `Consistent` is a
/// pass; everything else is fail-closed in its own way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutantOutcome {
    /// The mutant's DSL rendering failed to re-parse or re-render
    /// canonically — a round-trip defect, attributed to the DSL itself.
    RoundTripFailed {
        /// The parse error or canonicalization mismatch.
        error: String,
    },
    /// `validate` rejected the mutant (the expected fate of most
    /// structural edits).
    ValidateRejected {
        /// The validation error rendering.
        error: String,
    },
    /// The model checker rejected the mutant as semantically broken
    /// (undefined reception or SWMR violation) — not a VN disagreement,
    /// but never a pass either.
    ModelRejected {
        /// The verdict detail.
        detail: String,
    },
    /// Analyzer and model checker agree within the explored bound.
    Consistent {
        /// Analyzer-assigned VN count (`None` for Class 2).
        n_vns: Option<usize>,
        /// Human-readable agreement summary.
        detail: String,
    },
    /// A bound was exhausted before either side could commit — never
    /// counted as a pass.
    Undetermined {
        /// Which bound and where.
        reason: String,
    },
    /// The analyzer certified a configuration the model checker
    /// deadlocks under. The finding the fuzzer exists for; exit 8.
    Disagreement {
        /// VN count of the checked (deadlocking) configuration.
        checked_vns: usize,
        /// Analyzer-assigned VN count.
        assigned_vns: usize,
        /// BFS depth of the counterexample.
        depth: usize,
        /// States explored at detection time.
        states: usize,
        /// Counterexample summary.
        detail: String,
    },
}

impl MutantOutcome {
    /// Short machine-stable tag for reports and metrics.
    pub fn tag(&self) -> &'static str {
        match self {
            MutantOutcome::RoundTripFailed { .. } => "roundtrip_failed",
            MutantOutcome::ValidateRejected { .. } => "validate_rejected",
            MutantOutcome::ModelRejected { .. } => "model_rejected",
            MutantOutcome::Consistent { .. } => "consistent",
            MutantOutcome::Undetermined { .. } => "undetermined",
            MutantOutcome::Disagreement { .. } => "disagreement",
        }
    }

    /// `true` for the exit-8 finding.
    pub fn is_disagreement(&self) -> bool {
        matches!(self, MutantOutcome::Disagreement { .. })
    }

    /// The detail/error/reason payload, whichever the variant carries.
    pub fn detail(&self) -> &str {
        match self {
            MutantOutcome::RoundTripFailed { error } => error,
            MutantOutcome::ValidateRejected { error } => error,
            MutantOutcome::ModelRejected { detail } => detail,
            MutantOutcome::Consistent { detail, .. } => detail,
            MutantOutcome::Undetermined { reason } => reason,
            MutantOutcome::Disagreement { detail, .. } => detail,
        }
    }
}

/// Merges the top VN into the one below it: a deterministic
/// under-provisioning of an `n`-VN map to `n - 1` VNs.
fn merge_top_vn(map: &VnMap) -> VnMap {
    let n = map.n_vns();
    debug_assert!(n >= 2);
    let vns = map
        .vn_vector()
        .iter()
        .map(|&v| if v == n - 1 { n - 2 } else { v })
        .collect();
    VnMap::from_vns(vns)
}

/// The bounded serial run under `vns` (Figure 3, or general under
/// symmetry), configured by [`McRequest`]; `Err` is a refusal.
fn bounded_run(
    spec: &ProtocolSpec,
    opts: &OracleOpts,
    vns: VnMap,
) -> Result<(McConfig, Verdict), String> {
    let request = McRequest {
        vns: VnChoice::Single,
        general: opts.symmetry,
        symmetry: opts.symmetry,
        ..McRequest::default()
    };
    let cfg = (request.config(spec)?.0)
        .with_vns(vns)
        .with_limits(opts.max_states, opts.max_depth);
    match run(spec, &cfg, &RunPlan::default(), |_, _| {}).map_err(|e| e.to_string())? {
        CheckpointedRun::Finished(v) => Ok((cfg, v)),
        CheckpointedRun::Interrupted { .. } => Err("run interrupted".to_string()),
    }
}

/// Runs the differential oracle on a **validated** mutant. A refused run
/// is never a pass, nor a panic (a harness panic is a finding lost).
pub fn run_oracle(spec: &ProtocolSpec, opts: &OracleOpts) -> MutantOutcome {
    oracle(spec, opts).unwrap_or_else(|error| MutantOutcome::Undetermined {
        reason: format!("model checker refused the run: {error}"),
    })
}

/// [`run_oracle`], with the model checker's refusals as `Err`.
fn oracle(spec: &ProtocolSpec, opts: &OracleOpts) -> Result<MutantOutcome, String> {
    // Bound the analyzer by node count only: wall-clock budgets would
    // make outcomes (and thus reports) machine-dependent.
    let analyzer_budget = Budget::unlimited().with_node_limit(opts.analyzer_nodes);
    let report = analyze_budgeted(spec, &analyzer_budget);
    let n_messages = spec.messages().len();

    match report.outcome() {
        VnOutcome::Class2(_) => {
            // The analyzer claims *no* per-message-name assignment can
            // prevent deadlock. A bounded run that deadlocks even with
            // one VN per message corroborates it; a clean bounded run
            // does not contradict it (one scenario, bounded) — either
            // way this is not the analyzer making an unsafe promise.
            let (cfg, verdict) = bounded_run(spec, opts, VnMap::one_per_message(n_messages))?;
            // Third advisory leg: the flow-abstraction checker on the
            // same config. It derives from the same waits relation the
            // analyzer's Class-2 verdict does, so a free-for-all-N
            // claim here is a certifier contradiction — escalated,
            // never reconciled. Under the Figure-3 script the
            // abstraction is inapplicable and the leg honestly records
            // `flow-inapplicable`.
            let flow = check_parameterized(spec, &cfg);
            let flow_note = flow.summary();
            Ok(match verdict {
                Verdict::Deadlock { depth, stats, .. } => {
                    if flow.is_free_for_all_n() {
                        return Ok(MutantOutcome::Disagreement {
                            checked_vns: n_messages,
                            assigned_vns: n_messages,
                            depth,
                            states: stats.states,
                            detail: format!(
                                "class2 analyzer verdict (corroborated by an mc deadlock at \
                                 depth {depth}) contradicted by the flow leg: {flow_note}"
                            ),
                        });
                    }
                    MutantOutcome::Consistent {
                        n_vns: None,
                        detail: format!(
                            "class2; mc deadlocks at depth {depth} even with one VN per \
                             message; flow leg: {flow_note}"
                        ),
                    }
                }
                Verdict::NoDeadlock(stats) => {
                    if flow.is_free_for_all_n() {
                        return Ok(MutantOutcome::Disagreement {
                            checked_vns: n_messages,
                            assigned_vns: n_messages,
                            depth: 0,
                            states: stats.states,
                            detail: format!(
                                "class2 analyzer verdict contradicted by the flow leg: \
                                 {flow_note}"
                            ),
                        });
                    }
                    MutantOutcome::Consistent {
                        n_vns: None,
                        detail: format!(
                            "class2; bounded scenario found no deadlock (not a \
                             contradiction); flow leg: {flow_note}"
                        ),
                    }
                }
                Verdict::ModelError { detail, .. } => MutantOutcome::ModelRejected {
                    detail: format!("model error: {detail}"),
                },
                Verdict::InvariantViolation { detail, .. } => MutantOutcome::ModelRejected {
                    detail: format!("invariant violation: {detail}"),
                },
            })
        }
        VnOutcome::Assigned {
            assignment,
            provenance,
            ..
        } => {
            if !provenance.is_exact() {
                return Ok(MutantOutcome::Undetermined {
                    reason: "analyzer solvers degraded; assignment may be non-minimal".to_string(),
                });
            }
            let assigned_vns = assignment.n_vns();
            let assigned_map = VnMap::from_assignment(assignment, n_messages);
            let (checked_map, skewed) = if opts.skew && assigned_vns >= 2 {
                (merge_top_vn(&assigned_map), true)
            } else {
                (assigned_map.clone(), false)
            };
            let checked_vns = checked_map.n_vns();

            let (cfg, verdict) = bounded_run(spec, opts, checked_map)?;
            // Third advisory leg on the checked map. A free-for-all-N
            // claim that the explicit leg then refutes with a deadlock
            // is already a Disagreement; the note keeps the
            // contradiction on record either way.
            let flow = check_parameterized(spec, &cfg);
            let flow_note = flow.summary();
            Ok(match verdict {
                Verdict::Deadlock { depth, stats, .. } => MutantOutcome::Disagreement {
                    checked_vns,
                    assigned_vns,
                    depth,
                    states: stats.states,
                    detail: if skewed {
                        format!(
                            "oracle skew drill: mc deadlock at depth {depth} under {checked_vns} \
                             VNs (analyzer assigned {assigned_vns}); flow leg: {flow_note}"
                        )
                    } else {
                        format!(
                            "mc deadlock at depth {depth} under the analyzer-certified \
                             {assigned_vns}-VN assignment; flow leg: {flow_note}"
                        )
                    },
                },
                Verdict::ModelError { detail, .. } => MutantOutcome::ModelRejected {
                    detail: format!("model error: {detail}"),
                },
                Verdict::InvariantViolation { detail, .. } => MutantOutcome::ModelRejected {
                    detail: format!("invariant violation: {detail}"),
                },
                Verdict::NoDeadlock(stats) if stats.complete => {
                    // Safety agreed. Probe minimality at n-1 VNs: a
                    // deadlock there *witnesses* the assignment is tight;
                    // a clean bounded run proves nothing (one scenario)
                    // and is NOT a disagreement.
                    let detail = if skewed || assigned_vns < 2 {
                        format!("no deadlock under {checked_vns} VNs (complete)")
                    } else {
                        match bounded_run(spec, opts, merge_top_vn(&assigned_map)) {
                            Ok((_, Verdict::Deadlock { depth, .. })) => format!(
                                "no deadlock under {assigned_vns} VNs (complete); minimality \
                                 witnessed: {} VNs deadlock at depth {depth}",
                                assigned_vns - 1
                            ),
                            _ => format!(
                                "no deadlock under {assigned_vns} VNs (complete); minimality not \
                                 witnessed in this bounded scenario"
                            ),
                        }
                    };
                    MutantOutcome::Consistent {
                        n_vns: Some(assigned_vns),
                        detail: format!("{detail}; flow leg: {flow_note}"),
                    }
                }
                // Bound exhaustion is never a pass — even a
                // free-for-all-N flow claim stays advisory here, since
                // the explicit leg could not weigh in.
                Verdict::NoDeadlock(stats) => MutantOutcome::Undetermined {
                    reason: format!(
                        "safety check under {checked_vns} VNs hit the {}-state bound at level {} \
                         without a verdict; flow leg (advisory, not a pass): {flow_note}",
                        opts.max_states, stats.levels
                    ),
                },
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_protocol::protocols;

    fn small_opts() -> OracleOpts {
        OracleOpts {
            max_states: 60_000,
            ..OracleOpts::default()
        }
    }

    #[test]
    fn unmutated_chi_is_consistent() {
        // CHI is Class 3 with a 2-VN assignment whose figure3 space
        // (~203k states) completes within the default bound.
        let spec = protocols::chi();
        let out = run_oracle(&spec, &OracleOpts::default());
        match &out {
            MutantOutcome::Consistent { n_vns, detail } => {
                assert_eq!(*n_vns, Some(2), "CHI assigns 2 VNs");
                assert!(detail.contains("complete"), "{detail}");
                // The flow leg is always on record; the Figure-3 script
                // names specific caches, so it honestly reports
                // inapplicable rather than claiming a parameterized
                // result it cannot certify.
                assert!(detail.contains("flow leg: flow-inapplicable"), "{detail}");
            }
            other => panic!("expected Consistent, got {other:?}"),
        }
    }

    #[test]
    fn flow_free_claim_never_upgrades_an_exhausted_bound_to_a_pass() {
        // Symmetric general MSI-nonblocking under its assigned 2-VN map:
        // the flow leg certifies freedom for all N, but the tiny state
        // bound stops the explicit leg short — the outcome must stay
        // Undetermined with the flow claim recorded as advisory only.
        let spec = protocols::msi_nonblocking_cache();
        let opts = OracleOpts {
            max_states: 20_000,
            symmetry: true,
            ..OracleOpts::default()
        };
        let out = run_oracle(&spec, &opts);
        match &out {
            MutantOutcome::Undetermined { reason } => {
                assert!(
                    reason.contains("flow leg (advisory, not a pass): flow-free-all-n"),
                    "{reason}"
                );
            }
            other => panic!("expected Undetermined, got {other:?}"),
        }
    }

    #[test]
    fn class2_blocking_msi_is_consistent() {
        // Textbook blocking MSI has a waits cycle (Class 2); the bounded
        // checker corroborates it dynamically.
        let spec = protocols::msi_blocking_cache();
        let out = run_oracle(&spec, &small_opts());
        match &out {
            MutantOutcome::Consistent { n_vns, detail } => {
                assert_eq!(*n_vns, None);
                assert!(detail.starts_with("class2"), "{detail}");
            }
            other => panic!("expected Consistent, got {other:?}"),
        }
    }

    #[test]
    fn skew_drill_forces_a_disagreement_on_chi() {
        // Merging CHI's 2-VN assignment down to one VN deadlocks the
        // directed scenario at depth 20 — the drill that exercises the
        // exit-8 → shrink → bundle path without a real analyzer bug.
        let spec = protocols::chi();
        let opts = OracleOpts {
            skew: true,
            ..OracleOpts::default()
        };
        let out = run_oracle(&spec, &opts);
        match &out {
            MutantOutcome::Disagreement {
                checked_vns,
                assigned_vns,
                ..
            } => {
                assert_eq!(*assigned_vns, 2);
                assert_eq!(*checked_vns, 1);
            }
            other => panic!("expected Disagreement under skew, got {other:?}"),
        }
    }

    #[test]
    fn oracle_outcome_is_deterministic() {
        let spec = protocols::mesi_blocking_cache();
        let a = run_oracle(&spec, &small_opts());
        let b = run_oracle(&spec, &small_opts());
        assert_eq!(a, b);
    }
}
