//! Computation budgets and result provenance.
//!
//! The exact kernels in this crate (branch-and-bound FAS, exact
//! coloring) and the explorer in `vnet-mc` are exponential in the worst
//! case. A [`Budget`] bounds how much work such a solver may do — a
//! wall-clock deadline and/or an explored-node limit — and a
//! [`Provenance`] tag records whether the result is exact or was
//! produced by a degraded path (heuristic fallback, partial
//! exploration) after the budget ran out. Budgeted solvers never hang
//! and never panic on exhaustion: they return their best fallback,
//! tagged.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] was fired. The service layer maps each reason
/// to a distinct structured response; the kernels only need to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The per-request deadline imposed by admission control expired.
    Deadline,
    /// The requesting client disconnected; nobody will read the result.
    ClientGone,
    /// The process is draining for shutdown.
    Shutdown,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Deadline => write!(f, "deadline"),
            CancelReason::ClientGone => write!(f, "client gone"),
            CancelReason::Shutdown => write!(f, "shutdown"),
        }
    }
}

/// Cooperative cancellation handle, checked by every budgeted kernel at
/// its meter poll points (one check per [`BudgetMeter::tick`], i.e. per
/// search node / claimed state). Cancelling is one-way and idempotent:
/// the first reason wins, later calls are no-ops.
///
/// Cloning is cheap (an `Arc`); the canceller keeps one clone, the
/// kernel's [`Budget`] carries another.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicU8>);

const CANCEL_LIVE: u8 = 0;

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token. The first reason sticks; later calls lose.
    pub fn cancel(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::Deadline => 1,
            CancelReason::ClientGone => 2,
            CancelReason::Shutdown => 3,
        };
        let _ = self
            .0
            .compare_exchange(CANCEL_LIVE, code, Ordering::AcqRel, Ordering::Acquire);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire) != CANCEL_LIVE
    }

    /// The reason the token was fired, if it was.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.0.load(Ordering::Acquire) {
            1 => Some(CancelReason::Deadline),
            2 => Some(CancelReason::ClientGone),
            3 => Some(CancelReason::Shutdown),
            _ => None,
        }
    }
}

/// Work limits for a solver call. The default ([`Budget::unlimited`])
/// imposes no bound, matching the historical behaviour of the exact
/// solvers.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Give up after this much wall-clock time.
    pub deadline: Option<Duration>,
    /// Give up after this many explored search nodes (branch-and-bound
    /// nodes, BFS states, …; each solver documents its unit).
    pub node_limit: Option<u64>,
    /// Give up once the solver's accounted allocations exceed this many
    /// bytes. The accounting is an estimate (each kernel charges its
    /// dominant structures — visited maps, frontiers, constraint sets —
    /// not every allocation), so treat it as a guardrail, not `ulimit`.
    pub mem_limit: Option<u64>,
    /// Cooperative cancellation: checked at every meter poll point.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits: solvers run to completion.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Limits wall-clock time.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Limits explored search nodes.
    pub fn with_node_limit(mut self, n: u64) -> Self {
        self.node_limit = Some(n);
        self
    }

    /// Limits accounted peak memory (bytes).
    pub fn with_mem_limit(mut self, bytes: u64) -> Self {
        self.mem_limit = Some(bytes);
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// `true` if no limit is set (a cancel token does not count: an
    /// unfired token imposes no bound).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.node_limit.is_none() && self.mem_limit.is_none()
    }

    /// Parses `--budget` clauses: `500ms` / `2s` deadlines and
    /// `nodes=N` work limits, comma-separated.
    pub fn parse_clauses(text: &str) -> Result<Budget, String> {
        let mut budget = Budget::unlimited();
        for clause in text.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            // Zero limits are rejected fail-closed: a zero budget is
            // always a typo, and silently treating it as "unlimited" (or
            // as "instantly exhausted") would invert the intent either
            // way.
            if let Some(n) = clause.strip_prefix("nodes=") {
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("bad node limit `{clause}`"))?;
                if n == 0 {
                    return Err(format!("node limit must be positive in `{clause}`"));
                }
                budget = budget.with_node_limit(n);
                continue;
            }
            let (digits, unit): (&str, fn(u64) -> Duration) = match clause.strip_suffix("ms") {
                Some(ms) => (ms, Duration::from_millis),
                None => match clause.strip_suffix('s') {
                    Some(s) => (s, Duration::from_secs),
                    None => {
                        return Err(format!(
                            "bad budget clause `{clause}` (want `500ms`, `2s`, or `nodes=100000`)"
                        ))
                    }
                },
            };
            let n: u64 = digits
                .parse()
                .map_err(|_| format!("bad deadline `{clause}`"))?;
            if n == 0 {
                return Err(format!("deadline must be positive in `{clause}`"));
            }
            budget = budget.with_deadline(unit(n));
        }
        Ok(budget)
    }

    /// The deadline and node limit as clauses [`Budget::parse_clauses`]
    /// reads back, or `None` when neither is set. The deadline is
    /// rendered in whole milliseconds, at least 1: a deadline that has
    /// almost run out stays a deadline. The memory limit and the cancel
    /// token are not clauses.
    pub fn to_clauses(&self) -> Option<String> {
        let mut clauses = Vec::new();
        if let Some(d) = self.deadline {
            clauses.push(format!("{}ms", d.as_millis().max(1)));
        }
        if let Some(n) = self.node_limit {
            clauses.push(format!("nodes={n}"));
        }
        (!clauses.is_empty()).then(|| clauses.join(","))
    }

    /// Starts metering against this budget.
    pub fn start(&self) -> BudgetMeter {
        self.start_from(0)
    }

    /// Starts metering with `nodes` units already spent — the resume
    /// path for checkpointed solvers. The node limit is cumulative
    /// across resumes (a checkpoint records the spent count); the
    /// wall-clock deadline is per-process and restarts here.
    pub fn start_from(&self, nodes: u64) -> BudgetMeter {
        let mut meter = BudgetMeter {
            started: Instant::now(),
            deadline: self.deadline,
            node_limit: self.node_limit,
            mem_limit: self.mem_limit,
            cancel: self.cancel.clone(),
            nodes,
            mem_bytes: 0,
            mem_peak: 0,
            exhausted: None,
        };
        if let Some(limit) = meter.node_limit {
            if nodes > limit {
                meter.exhausted = Some(DegradeReason::NodeLimit { limit });
            }
        }
        meter
    }
}

/// How often (in ticks) the deadline clock is consulted; `Instant::now`
/// is too slow to call on every branch-and-bound node.
const CLOCK_STRIDE: u64 = 1024;

/// Running meter for one solver call.
#[derive(Debug)]
pub struct BudgetMeter {
    started: Instant,
    deadline: Option<Duration>,
    node_limit: Option<u64>,
    mem_limit: Option<u64>,
    cancel: Option<CancelToken>,
    nodes: u64,
    mem_bytes: u64,
    mem_peak: u64,
    exhausted: Option<DegradeReason>,
}

impl BudgetMeter {
    /// Accounts one unit of work. Returns `false` once the budget is
    /// exhausted (and keeps returning `false` thereafter), so solvers
    /// can use it directly as a continue-condition.
    ///
    /// The cancel token is polled on every tick, so a cancelled kernel
    /// stops within one node expansion of the poll point — the bound
    /// the service layer documents.
    pub fn tick(&mut self) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        if let Some(token) = &self.cancel {
            if let Some(reason) = token.reason() {
                self.exhausted = Some(DegradeReason::Cancelled { reason });
                return false;
            }
        }
        self.nodes += 1;
        if let Some(limit) = self.node_limit {
            if self.nodes > limit {
                self.exhausted = Some(DegradeReason::NodeLimit { limit });
                return false;
            }
        }
        if let Some(deadline) = self.deadline {
            if self.nodes.is_multiple_of(CLOCK_STRIDE) && self.started.elapsed() >= deadline {
                self.exhausted = Some(DegradeReason::DeadlineExpired { deadline });
                return false;
            }
        }
        true
    }

    /// Accounts `bytes` of solver-owned allocation against the memory
    /// limit. Returns `false` once the budget is exhausted (memory or
    /// otherwise), mirroring [`BudgetMeter::tick`]. Charges are
    /// estimates of the dominant structures, not a malloc hook; see
    /// [`Budget::mem_limit`].
    pub fn charge_bytes(&mut self, bytes: u64) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        self.mem_bytes = self.mem_bytes.saturating_add(bytes);
        self.mem_peak = self.mem_peak.max(self.mem_bytes);
        if let Some(limit) = self.mem_limit {
            if self.mem_bytes > limit {
                self.exhausted = Some(DegradeReason::MemLimit {
                    limit,
                    peak: self.mem_peak,
                });
                return false;
            }
        }
        true
    }

    /// Returns previously charged bytes to the budget (a freed frontier
    /// level, a dropped constraint set). Peak accounting is unaffected.
    pub fn release_bytes(&mut self, bytes: u64) {
        self.mem_bytes = self.mem_bytes.saturating_sub(bytes);
    }

    /// Currently charged bytes.
    pub fn current_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// High-water mark of charged bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.mem_peak
    }

    /// The cancellation reason, if the attached token has fired. Also
    /// latches the exhaustion state, so callers that only consult this
    /// between kernel calls still get a cancelled provenance.
    pub fn cancelled(&mut self) -> Option<CancelReason> {
        if let Some(DegradeReason::Cancelled { reason }) = &self.exhausted {
            return Some(*reason);
        }
        let reason = self.cancel.as_ref().and_then(CancelToken::reason)?;
        if self.exhausted.is_none() {
            self.exhausted = Some(DegradeReason::Cancelled { reason });
        }
        Some(reason)
    }

    /// The exhaustion reason, if the budget ran out.
    pub fn exhaustion(&self) -> Option<&DegradeReason> {
        self.exhausted.as_ref()
    }

    /// Wall-clock time spent under this meter so far.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// `true` once less than `window` remains before the deadline (and
    /// always `false` for deadline-free budgets). Long-running solvers
    /// use this as the flush-now trigger: emit a checkpoint *before*
    /// the deadline kills the run, so the work survives.
    pub fn deadline_imminent(&self, window: Duration) -> bool {
        match self.deadline {
            None => false,
            Some(d) => d.saturating_sub(self.started.elapsed()) < window,
        }
    }

    /// Nodes accounted so far.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// The provenance tag for a result produced under this meter:
    /// [`Provenance::Exact`] if the budget never ran out, otherwise
    /// [`Provenance::Degraded`].
    pub fn provenance(&self) -> Provenance {
        match &self.exhausted {
            None => Provenance::Exact,
            Some(reason) => Provenance::Degraded {
                reason: reason.clone(),
            },
        }
    }
}

/// Why a solver degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// The wall-clock deadline expired.
    DeadlineExpired {
        /// The deadline that expired.
        deadline: Duration,
    },
    /// The explored-node limit was hit.
    NodeLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// The accounted-memory limit was hit.
    MemLimit {
        /// The byte limit that was hit.
        limit: u64,
        /// The accounted high-water mark when it tripped.
        peak: u64,
    },
    /// The attached [`CancelToken`] fired; the partial result (if any)
    /// covers the work done up to the poll point that observed it.
    Cancelled {
        /// Why the token was fired.
        reason: CancelReason,
    },
    /// A caller-specified bound (e.g. the model checker's state or
    /// depth cap) truncated the run.
    Bound {
        /// Human-readable description of the bound.
        what: String,
    },
    /// Parallel worker threads were lost (panicked) and the bounded
    /// restart budget ran out, so part of the search space was
    /// abandoned. The result covers everything the surviving workers
    /// explored, but is no longer a complete claim.
    WorkerLoss {
        /// How many frontier states were abandoned with the workers.
        lost_states: usize,
        /// How many restarts were attempted before giving up.
        restarts: u32,
    },
    /// The process allocator itself refused memory (`try_reserve`
    /// failed) before any configured byte budget tripped. Distinct from
    /// [`DegradeReason::MemLimit`]: this is the machine saying no, not
    /// the caller's budget — the run degrades to a bounded claim
    /// instead of aborting.
    MemoryPressure {
        /// Which allocation was refused.
        what: String,
    },
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::DeadlineExpired { deadline } => {
                write!(f, "deadline of {deadline:?} expired")
            }
            DegradeReason::NodeLimit { limit } => write!(f, "node limit of {limit} reached"),
            DegradeReason::MemLimit { limit, peak } => {
                write!(f, "memory budget of {limit} bytes exceeded (peak {peak})")
            }
            DegradeReason::Cancelled { reason } => write!(f, "cancelled: {reason}"),
            DegradeReason::Bound { what } => write!(f, "{what}"),
            DegradeReason::WorkerLoss {
                lost_states,
                restarts,
            } => write!(
                f,
                "worker loss: {lost_states} frontier state(s) abandoned after {restarts} restart(s)"
            ),
            DegradeReason::MemoryPressure { what } => {
                write!(f, "memory pressure: allocation refused for {what}")
            }
        }
    }
}

/// Whether a result is exact or came from a degraded path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// The solver ran to completion; the result is exact/complete.
    Exact,
    /// The budget ran out; the result is a heuristic or partial answer.
    Degraded {
        /// Why the exact path was abandoned.
        reason: DegradeReason,
    },
}

impl Provenance {
    /// `true` for [`Provenance::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, Provenance::Exact)
    }

    /// One-line suffix for reports: empty for exact results, a
    /// parenthesized explanation for degraded ones.
    pub fn annotation(&self) -> String {
        match self {
            Provenance::Exact => String::new(),
            Provenance::Degraded { reason } => format!(" (degraded: {reason})"),
        }
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Provenance::Exact => write!(f, "exact"),
            Provenance::Degraded { reason } => write!(f, "degraded ({reason})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut m = Budget::unlimited().start();
        for _ in 0..100_000 {
            assert!(m.tick());
        }
        assert!(m.exhaustion().is_none());
        assert!(m.provenance().is_exact());
    }

    #[test]
    fn node_limit_trips_and_stays_tripped() {
        let mut m = Budget::unlimited().with_node_limit(10).start();
        let ok = (0..20).filter(|_| m.tick()).count();
        assert_eq!(ok, 10);
        assert!(!m.tick());
        assert!(matches!(
            m.exhaustion(),
            Some(DegradeReason::NodeLimit { limit: 10 })
        ));
        assert!(!m.provenance().is_exact());
    }

    #[test]
    fn zero_deadline_trips_at_the_clock_stride() {
        let mut m = Budget::unlimited()
            .with_deadline(Duration::ZERO)
            .start();
        let mut ticks = 0u64;
        while m.tick() {
            ticks += 1;
            assert!(ticks < 10_000, "deadline never consulted");
        }
        assert!(matches!(
            m.exhaustion(),
            Some(DegradeReason::DeadlineExpired { .. })
        ));
    }

    #[test]
    fn start_from_is_cumulative_across_resumes() {
        let budget = Budget::unlimited().with_node_limit(10);
        let mut first = budget.start();
        let spent = (0..6).filter(|_| first.tick()).count();
        assert_eq!(spent, 6);
        // Resume: only 4 of the 10 remain.
        let mut resumed = budget.start_from(first.nodes());
        let more = (0..20).filter(|_| resumed.tick()).count();
        assert_eq!(more, 4);
        assert!(matches!(
            resumed.exhaustion(),
            Some(DegradeReason::NodeLimit { limit: 10 })
        ));
        // Resuming past the limit is exhausted from the first tick.
        let mut over = budget.start_from(11);
        assert!(!over.tick());
    }

    #[test]
    fn deadline_imminent_tracks_the_window() {
        let m = Budget::unlimited().start();
        assert!(!m.deadline_imminent(Duration::from_secs(3600)));
        let m = Budget::unlimited()
            .with_deadline(Duration::from_millis(1))
            .start();
        assert!(m.deadline_imminent(Duration::from_secs(3600)));
    }

    #[test]
    fn mem_limit_trips_at_the_boundary_and_tracks_peak() {
        let mut m = Budget::unlimited().with_mem_limit(1000).start();
        assert!(m.charge_bytes(600));
        m.release_bytes(200);
        assert_eq!(m.current_bytes(), 400);
        assert_eq!(m.peak_bytes(), 600);
        assert!(m.charge_bytes(600)); // back to 1000 exactly: within budget
        assert!(!m.charge_bytes(1)); // 1001: over
        assert!(!m.tick(), "memory exhaustion must stop tick too");
        assert!(matches!(
            m.exhaustion(),
            Some(DegradeReason::MemLimit { limit: 1000, .. })
        ));
    }

    #[test]
    fn cancel_token_stops_tick_within_one_poll() {
        let token = CancelToken::new();
        let mut m = Budget::unlimited().with_cancel(token.clone()).start();
        assert!(m.tick());
        token.cancel(CancelReason::ClientGone);
        assert!(!m.tick());
        assert_eq!(m.cancelled(), Some(CancelReason::ClientGone));
        assert!(matches!(
            m.exhaustion(),
            Some(DegradeReason::Cancelled {
                reason: CancelReason::ClientGone
            })
        ));
    }

    #[test]
    fn first_cancel_reason_wins() {
        let token = CancelToken::new();
        token.cancel(CancelReason::Deadline);
        token.cancel(CancelReason::Shutdown);
        assert_eq!(token.reason(), Some(CancelReason::Deadline));
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancelled_latches_between_kernel_calls() {
        // A meter that never ticks after the cancel must still report a
        // cancelled provenance once consulted.
        let token = CancelToken::new();
        let mut m = Budget::unlimited().with_cancel(token.clone()).start();
        assert!(m.tick());
        token.cancel(CancelReason::Shutdown);
        assert_eq!(m.cancelled(), Some(CancelReason::Shutdown));
        assert!(!m.provenance().is_exact());
    }

    #[test]
    fn worker_loss_reason_displays() {
        let r = DegradeReason::WorkerLoss {
            lost_states: 7,
            restarts: 3,
        };
        let s = r.to_string();
        assert!(s.contains("worker loss"), "{s}");
        assert!(s.contains('7') && s.contains('3'), "{s}");
    }

    #[test]
    fn provenance_annotations() {
        assert_eq!(Provenance::Exact.annotation(), "");
        let d = Provenance::Degraded {
            reason: DegradeReason::Bound {
                what: "state limit of 5 reached".into(),
            },
        };
        assert!(d.annotation().contains("degraded"));
        assert!(d.to_string().contains("state limit"));
    }

    #[test]
    fn clauses_round_trip_through_the_parser() -> Result<(), String> {
        let parsed = Budget::parse_clauses(" 2s, nodes=50000 ,")?;
        assert_eq!(parsed.deadline, Some(Duration::from_secs(2)));
        assert_eq!(parsed.node_limit, Some(50_000));
        let rendered = parsed.to_clauses();
        assert_eq!(rendered.as_deref(), Some("2000ms,nodes=50000"));
        let again = Budget::parse_clauses(rendered.as_deref().unwrap_or_default())?;
        assert_eq!(
            (again.deadline, again.node_limit),
            (parsed.deadline, parsed.node_limit)
        );

        // A nearly spent deadline renders as 1 ms, never as a zero the
        // parser refuses; memory and cancellation are not clauses.
        let tiny = Budget::unlimited()
            .with_deadline(Duration::from_micros(300))
            .with_mem_limit(1 << 20);
        assert_eq!(tiny.to_clauses().as_deref(), Some("1ms"));
        assert!(Budget::parse_clauses("1ms").is_ok());
        assert_eq!(Budget::unlimited().with_mem_limit(7).to_clauses(), None);
        assert!(Budget::parse_clauses("")?.is_unlimited());

        for (bad, why) in [
            ("nodes=0", "node limit must be positive"),
            ("0ms", "deadline must be positive"),
            ("0s", "deadline must be positive"),
            ("nodes=x", "bad node limit"),
            ("xs", "bad deadline"),
            ("5m", "bad budget clause"),
        ] {
            let err = Budget::parse_clauses(bad).err().unwrap_or_default();
            assert!(err.contains(why), "{bad}: {err}");
        }
        Ok(())
    }
}
