//! Request and response types for the newline-delimited JSON protocol.
//!
//! One request object per line in, one response object per line out.
//! Every response carries a `status` from the closed taxonomy:
//!
//! | status      | meaning                                              |
//! |-------------|------------------------------------------------------|
//! | `ok`        | the work ran; `provenance` says exact vs degraded    |
//! | `error`     | the request never ran (malformed, unknown protocol)  |
//! | `rejected`  | admission control shed it (`queue_full`, `too_large`,|
//! |             | `shutting_down`) — resubmit later                    |
//! | `cancelled` | it started but was stopped (`deadline`,              |
//! |             | `client_gone`, `shutdown`)                           |
//! | `panicked`  | the worker died mid-request; the daemon survived     |

use crate::json::Json;
use vnet_graph::{Budget, CancelReason};
pub use vnet_mc::{McRequest, VnChoice};

/// What a request asks the daemon to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Minimum-VN computation (`vnet analyze`).
    Analyze,
    /// Bounded model check (`vnet mc`).
    Mc {
        /// What decides the config: `vns` (`minimal` by default,
        /// `single` or `unique`) and `symmetry: true`, which explores
        /// the general scenario under cache × address symmetry
        /// reduction instead of the Figure-3 script — a distinct state
        /// space, so a distinct store key.
        request: McRequest,
        /// Whether to checkpoint (and flush on drain).
        checkpoint: bool,
        /// Run in a dedicated worker *process* instead of on the
        /// daemon's thread pool: a run the OOM killer takes out — or
        /// one that trips a kernel bug — costs one child, not the
        /// daemon. `dispatch: "process"` in the request.
        process: bool,
        /// Stream `event: "progress"` lines (level, states, peak
        /// bytes) while the explorer runs. Inline dispatch only;
        /// progress lines carry no `status` and are not responses.
        progress: bool,
        /// Additionally run the flow-abstraction checker
        /// (`parameterized: true` in the request): the response gains
        /// `parameterized`/`param_verdict`/`param_provenance` fields,
        /// and the run addresses a distinct store key so cached plain
        /// results are never served with a parameterized claim.
        parameterized: bool,
    },
    /// NoC simulation (`vnet sim`).
    Sim {
        /// Operations per cache pair.
        ops: usize,
        /// Workload / fault seed.
        seed: u64,
        /// Cycle cap.
        max_cycles: u64,
        /// Fault plan clauses (`FaultPlan::parse` syntax), if any.
        faults: Option<String>,
    },
    /// Deliberately panic the worker. Only honored when the daemon was
    /// started with test faults enabled; the soak test uses it to prove
    /// worker isolation.
    Panic,
    /// Observability snapshot: queue depth, request counters, and the
    /// process metrics registry. Answered inline, never queued, so it
    /// stays responsive even when the pool is saturated.
    Metrics,
    /// Compact the durable result store, optionally down to
    /// `max_bytes`. Admin-gated like `metrics`: answered inline, never
    /// queued, so operators can reclaim disk even when the pool is
    /// saturated. Errors with `store_unavailable` when the daemon runs
    /// without a store.
    Gc {
        /// Evict oldest-written entries until the log fits, if given.
        max_bytes: Option<u64>,
    },
    /// Many requests, one queue slot, one NDJSON response stream: one
    /// response line per item (each with its own `status`, counted in
    /// the taxonomy individually) followed by a `cmd: "batch"` summary
    /// line. Items are re-parsed and panic-isolated individually — one
    /// poisoned spec cannot kill the batch. Items are stored as
    /// re-rendered JSON lines so a malformed item surfaces as that
    /// item's `error` response, not the batch's.
    Batch {
        /// One rendered JSON object per item, in request order.
        items: Vec<String>,
    },
}

/// A parsed, validated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<String>,
    /// What to run.
    pub cmd: Command,
    /// Protocol source: a built-in name or inline DSL text.
    pub protocol: ProtocolRef,
    /// Client-requested degradation budget (merged with server caps).
    pub budget: Budget,
}

/// Where the protocol spec comes from. The daemon never reads files on
/// behalf of a client — a network request naming a server-side path
/// would be a confused-deputy hole.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolRef {
    /// No protocol needed (ping/panic).
    None,
    /// A built-in protocol name (`vnet list`).
    Builtin(String),
    /// Inline `.vnp` DSL text, parsed fail-closed per request.
    Inline(String),
}

/// Why admission control refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is full; retry after the hinted delay.
    QueueFull,
    /// The request exceeds a size cap (line bytes, ops, cycles).
    TooLarge {
        /// Which cap, for the diagnostic.
        what: String,
    },
    /// The daemon is draining; no new work is admitted.
    ShuttingDown,
}

/// Parses and validates one request line (already bounds-checked by the
/// reader). Errors are client errors — the structured `error` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = crate::json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let id = match v.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::Num(n)) => Some(Json::Num(*n).render()),
        Some(_) => return Err("`id` must be a string or number".into()),
    };
    let cmd_name = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing `cmd`")?;

    let budget = parse_budget(v.get("budget"))?;
    let protocol = match (v.get("protocol"), v.get("spec")) {
        (Some(_), Some(_)) => return Err("give `protocol` or `spec`, not both".into()),
        (Some(p), None) => ProtocolRef::Builtin(
            p.as_str().ok_or("`protocol` must be a string")?.to_string(),
        ),
        (None, Some(s)) => {
            ProtocolRef::Inline(s.as_str().ok_or("`spec` must be a string")?.to_string())
        }
        (None, None) => ProtocolRef::None,
    };

    let cmd = match cmd_name {
        "ping" => Command::Ping,
        "panic" => Command::Panic,
        "metrics" => Command::Metrics,
        "gc" => Command::Gc {
            max_bytes: match u64_field(&v, "max_bytes")? {
                Some(0) => return Err("gc max_bytes must be positive".into()),
                other => other,
            },
        },
        "analyze" => Command::Analyze,
        "mc" => Command::Mc {
            request: {
                let vns = match v.get("vns").and_then(Json::as_str) {
                    None | Some("minimal") => VnChoice::Minimal,
                    Some("single") => VnChoice::Single,
                    Some("unique") => VnChoice::Unique,
                    Some(other) => {
                        return Err(format!(
                            "unknown vns `{other}` (want minimal, single, or unique)"
                        ))
                    }
                };
                let request = McRequest {
                    vns,
                    ..McRequest::default()
                };
                if v.get("symmetry").and_then(Json::as_bool).unwrap_or(false) {
                    request.with_symmetry()
                } else {
                    request
                }
            },
            checkpoint: v.get("checkpoint").and_then(Json::as_bool).unwrap_or(false),
            process: match v.get("dispatch").and_then(Json::as_str) {
                None | Some("inline") => false,
                Some("process") => true,
                Some(other) => {
                    return Err(format!(
                        "unknown dispatch `{other}` (want inline or process)"
                    ))
                }
            },
            progress: v.get("progress").and_then(Json::as_bool).unwrap_or(false),
            parameterized: v
                .get("parameterized")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        },
        "batch" => {
            let Some(Json::Arr(items)) = v.get("items") else {
                return Err("`batch` needs an `items` array".into());
            };
            if items.is_empty() {
                return Err("`batch` items must not be empty".into());
            }
            let mut rendered = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                if !matches!(item, Json::Obj(_)) {
                    return Err(format!("batch item {i} must be an object"));
                }
                rendered.push(item.render());
            }
            Command::Batch { items: rendered }
        }
        "sim" => Command::Sim {
            ops: u64_field(&v, "ops")?.unwrap_or(40) as usize,
            seed: u64_field(&v, "seed")?.unwrap_or(1),
            max_cycles: u64_field(&v, "max_cycles")?.unwrap_or(300_000),
            faults: v.get("faults").and_then(Json::as_str).map(str::to_string),
        },
        other => return Err(format!("unknown cmd `{other}`")),
    };

    if matches!(cmd, Command::Analyze | Command::Mc { .. } | Command::Sim { .. })
        && matches!(protocol, ProtocolRef::None)
    {
        return Err(format!("`{cmd_name}` needs a `protocol` or `spec`"));
    }

    Ok(Request {
        id,
        cmd,
        protocol,
        budget,
    })
}

fn u64_field(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

/// Parses the client's `budget` object. Zero limits are rejected
/// fail-closed, mirroring the CLI: a zero budget is always a typo, and
/// silently treating it as "unlimited" would invert the intent.
fn parse_budget(v: Option<&Json>) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    let Some(v) = v else {
        return Ok(budget);
    };
    if let Some(ms) = u64_field(v, "deadline_ms")? {
        if ms == 0 {
            return Err("budget deadline_ms must be positive".into());
        }
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = u64_field(v, "nodes")? {
        if n == 0 {
            return Err("budget nodes must be positive".into());
        }
        budget = budget.with_node_limit(n);
    }
    if let Some(b) = u64_field(v, "mem_bytes")? {
        if b == 0 {
            return Err("budget mem_bytes must be positive".into());
        }
        budget = budget.with_mem_limit(b);
    }
    Ok(budget)
}

fn id_json(id: &Option<String>) -> Json {
    match id {
        Some(s) => Json::str(s.clone()),
        None => Json::Null,
    }
}

/// Renders an `ok` response with result fields merged in.
pub fn ok_response(id: &Option<String>, cmd: &str, fields: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![
        ("id", id_json(id)),
        ("status", Json::str("ok")),
        ("cmd", Json::str(cmd)),
    ];
    pairs.extend(fields);
    Json::obj(pairs).render()
}

/// Renders a structured `error` response (the request never ran).
pub fn error_response(id: &Option<String>, detail: &str) -> String {
    error_response_with_reason(id, "bad_request", detail)
}

/// Renders an `error` response with an explicit machine-readable
/// reason (`bad_request`, `spawn_failed`, `store_unavailable`, ...).
pub fn error_response_with_reason(id: &Option<String>, reason: &str, detail: &str) -> String {
    Json::obj(vec![
        ("id", id_json(id)),
        ("status", Json::str("error")),
        ("reason", Json::str(reason)),
        ("detail", Json::str(detail)),
    ])
    .render()
}

/// Renders a structured `rejected` response (admission control).
pub fn rejected_response(
    id: &Option<String>,
    reason: &RejectReason,
    retry_after_ms: Option<u64>,
) -> String {
    let mut pairs = vec![("id", id_json(id)), ("status", Json::str("rejected"))];
    match reason {
        RejectReason::QueueFull => pairs.push(("reason", Json::str("queue_full"))),
        RejectReason::TooLarge { what } => {
            pairs.push(("reason", Json::str("too_large")));
            pairs.push(("detail", Json::str(what.clone())));
        }
        RejectReason::ShuttingDown => pairs.push(("reason", Json::str("shutting_down"))),
    }
    if let Some(ms) = retry_after_ms {
        pairs.push(("retry_after_ms", Json::num(ms)));
    }
    Json::obj(pairs).render()
}

/// Renders a structured `cancelled` response, with any partial result
/// fields the kernel produced before the poll point that stopped it.
pub fn cancelled_response(
    id: &Option<String>,
    reason: CancelReason,
    partial: Vec<(&str, Json)>,
) -> String {
    let reason = match reason {
        CancelReason::Deadline => "deadline",
        CancelReason::ClientGone => "client_gone",
        CancelReason::Shutdown => "shutdown",
    };
    let mut pairs = vec![
        ("id", id_json(id)),
        ("status", Json::str("cancelled")),
        ("reason", Json::str(reason)),
    ];
    pairs.extend(partial);
    Json::obj(pairs).render()
}

/// Renders a `panicked` response: the worker died, the daemon did not.
pub fn panicked_response(id: &Option<String>, detail: &str) -> String {
    Json::obj(vec![
        ("id", id_json(id)),
        ("status", Json::str("panicked")),
        ("detail", Json::str(detail)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_analyze() {
        let r = parse_request(r#"{"id":"a","cmd":"analyze","protocol":"MSI"}"#).unwrap();
        assert_eq!(r.id.as_deref(), Some("a"));
        assert_eq!(r.cmd, Command::Analyze);
        assert_eq!(r.protocol, ProtocolRef::Builtin("MSI".into()));
        assert!(r.budget.is_unlimited());
    }

    #[test]
    fn rejects_zero_budgets_fail_closed() {
        for bad in ["deadline_ms", "nodes", "mem_bytes"] {
            let line = format!(r#"{{"cmd":"analyze","protocol":"MSI","budget":{{"{bad}":0}}}}"#);
            let e = parse_request(&line).unwrap_err();
            assert!(e.contains("positive"), "{bad}: {e}");
        }
    }

    #[test]
    fn rejects_missing_protocol_and_unknown_cmd() {
        assert!(parse_request(r#"{"cmd":"analyze"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"frobnicate","protocol":"MSI"}"#).is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"cmd":"mc","protocol":"MSI","vns":"weird"}"#).is_err());
    }

    #[test]
    fn responses_are_parseable_json_lines() {
        let id = Some("x".to_string());
        for line in [
            ok_response(&id, "analyze", vec![("min_vns", Json::num(2))]),
            error_response(&None, "bad JSON: x at byte 0"),
            rejected_response(&id, &RejectReason::QueueFull, Some(50)),
            cancelled_response(&id, CancelReason::Shutdown, vec![]),
            panicked_response(&id, "boom"),
        ] {
            assert!(!line.contains('\n'), "{line}");
            let v = crate::json::parse(&line).unwrap();
            assert!(v.get("status").is_some());
        }
    }
}
