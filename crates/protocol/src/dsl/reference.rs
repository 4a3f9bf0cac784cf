//! The builder-based parser and the `format!`-based renderer that
//! [`super::parse`] and [`super::to_text`] replaced, kept as test
//! oracles: the differential test in `super::tests` runs both sides over
//! the builtins, the shipped `.vnp` files, the bad-spec corpus and
//! seeded line mutations, and requires the same result, error and text.
//!
//! One divergence is deliberate. Two cells that only resolve to the same
//! `(state, trigger)` (a core event written once bare and once with a
//! guard) pass this parser's textual duplicate check and then trip the
//! builder's duplicate-cell assertion; the one-pass parser reports them
//! as a duplicate cell instead.

use super::{err, ParseError};
use crate::action::{Payload, Target};
use crate::builder::{acts, Acts, ProtocolBuilder};
use crate::event::{CoreOp, Event, Guard};
use crate::message::MsgType;
use crate::spec::{ControllerKind, ProtocolSpec};
use crate::state::StateKind;
use crate::table::Cell;
use crate::Action;

/// Parses the text format into a [`ProtocolSpec`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input or
/// unresolved names.
pub fn parse(text: &str) -> Result<ProtocolSpec, ParseError> {
    let mut name: Option<String> = None;
    // Builder insertion panics on unknown names; pre-validate instead.
    let mut messages: Vec<(String, MsgType)> = Vec::new();
    let mut cache_states: Vec<(String, StateKind)> = Vec::new();
    let mut dir_states: Vec<(String, StateKind)> = Vec::new();
    let mut pending: Vec<(usize, String)> = Vec::new();
    let mut cache_initial: Option<String> = None;
    let mut dir_initial: Option<String> = None;

    for (i, raw) in text.lines().enumerate() {
        let lno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(2, ' ');
        let head = parts.next().unwrap_or("");
        let rest = parts.next().unwrap_or("").trim();
        match head {
            "protocol" => {
                if rest.is_empty() {
                    return Err(err(lno, "protocol needs a name"));
                }
                name = Some(rest.to_string());
            }
            "message" => {
                let mut it = rest.split_whitespace();
                let (Some(m), Some(t)) = (it.next(), it.next()) else {
                    return Err(err(lno, "expected: message <name> <req|fwd|data|resp>"));
                };
                let ty = match t {
                    "req" => MsgType::Request,
                    "fwd" => MsgType::FwdRequest,
                    "data" => MsgType::DataResponse,
                    "resp" => MsgType::CtrlResponse,
                    other => return Err(err(lno, format!("unknown message type {other}"))),
                };
                messages.push((m.to_string(), ty));
            }
            "cache-states" | "dir-states" => {
                let (kind_str, names) = rest
                    .split_once(':')
                    .ok_or_else(|| err(lno, "expected: <stable|transient>: names…"))?;
                let kind = match kind_str.trim() {
                    "stable" => StateKind::Stable,
                    "transient" => StateKind::Transient,
                    other => return Err(err(lno, format!("unknown state kind {other}"))),
                };
                let bucket = if head == "cache-states" {
                    &mut cache_states
                } else {
                    &mut dir_states
                };
                for n in names.split_whitespace() {
                    bucket.push((n.to_string(), kind));
                }
            }
            "cache-initial" => cache_initial = Some(rest.to_string()),
            "dir-initial" => dir_initial = Some(rest.to_string()),
            "cache" | "dir" => pending.push((lno, line.to_string())),
            other => return Err(err(lno, format!("unknown directive {other}"))),
        }
    }

    let name = name.ok_or_else(|| err(1, "missing `protocol <name>` header"))?;
    let cache_names: Vec<String> = cache_states.iter().map(|(s, _)| s.clone()).collect();
    let dir_names: Vec<String> = dir_states.iter().map(|(s, _)| s.clone()).collect();

    // Pre-validate everything the builder would otherwise panic on:
    // parsing must fail with an error, never a panic.
    let dup = |items: &[String]| -> Option<String> {
        let mut seen = std::collections::BTreeSet::new();
        items.iter().find(|i| !seen.insert(i.as_str())).cloned()
    };
    let msg_list: Vec<String> = messages.iter().map(|(m, _)| m.clone()).collect();
    if let Some(m) = dup(&msg_list) {
        return Err(err(1, format!("duplicate message {m}")));
    }
    if let Some(s) = dup(&cache_names) {
        return Err(err(1, format!("duplicate cache state {s}")));
    }
    if let Some(s) = dup(&dir_names) {
        return Err(err(1, format!("duplicate dir state {s}")));
    }
    for (label, states, initial) in [
        ("cache", &cache_states, &cache_initial),
        ("dir", &dir_states, &dir_initial),
    ] {
        match initial {
            Some(init) => match states.iter().find(|(n, _)| n == init) {
                None => return Err(err(1, format!("unknown {label} initial state {init}"))),
                Some((_, StateKind::Transient)) => {
                    return Err(err(1, format!("{label} initial state {init} is transient")))
                }
                Some(_) => {}
            },
            None => {
                if !states.iter().any(|(_, k)| *k == StateKind::Stable) {
                    return Err(err(1, format!("no stable {label} state to use as initial")));
                }
            }
        }
    }

    let mut builder = ProtocolBuilder::new(&name);
    for (m, t) in &messages {
        builder.msg(m, *t);
    }
    for (s, k) in &cache_states {
        match k {
            StateKind::Stable => builder.cache_stable(&[s]),
            StateKind::Transient => builder.cache_transient(&[s]),
        };
    }
    for (s, k) in &dir_states {
        match k {
            StateKind::Stable => builder.dir_stable(&[s]),
            StateKind::Transient => builder.dir_transient(&[s]),
        };
    }
    if let Some(s) = &cache_initial {
        builder.cache_initial(s);
    }
    if let Some(s) = &dir_initial {
        builder.dir_initial(s);
    }

    let msg_names: Vec<&str> = messages.iter().map(|(m, _)| m.as_str()).collect();
    let mut seen_cells: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (lno, line) in &pending {
        // Duplicate-cell detection on the normalized left-hand side.
        let lhs = line
            .split_once(" = ")
            .map(|(l, _)| l)
            .unwrap_or_else(|| line.strip_suffix(" =").unwrap_or(line));
        let key = lhs.split_whitespace().collect::<Vec<_>>().join(" ");
        if !seen_cells.insert(key.clone()) {
            return Err(err(*lno, format!("duplicate cell `{key}`")));
        }
        parse_cell_line(
            *lno,
            line,
            &mut builder,
            &msg_names,
            &cache_names,
            &dir_names,
        )?;
    }
    Ok(builder.build())
}

fn parse_cell_line(
    lno: usize,
    line: &str,
    b: &mut ProtocolBuilder,
    msgs: &[&str],
    cache_names: &[String],
    dir_names: &[String],
) -> Result<(), ParseError> {
    // The cell separator is ` = ` with mandatory spaces: guards
    // (`[ack=0]`) and actions (`owner=req`) contain bare `=`. A line may
    // end at the separator ("hit" cells with no actions and no state
    // change).
    let (lhs, rhs) = match line.split_once(" = ") {
        Some(pair) => pair,
        None => (
            line.strip_suffix(" =")
                .ok_or_else(|| err(lno, "expected `<side> <state> <trigger> = <cell>`"))?,
            "",
        ),
    };
    let lhs_parts: Vec<&str> = lhs.split_whitespace().collect();
    let [side, state, trigger_str] = lhs_parts[..] else {
        return Err(err(lno, "expected `<side> <state> <trigger>` before `=`"));
    };
    let states: Vec<&str> = if side == "cache" {
        cache_names.iter().map(String::as_str).collect()
    } else {
        dir_names.iter().map(String::as_str).collect()
    };
    if !states.contains(&state) {
        return Err(err(lno, format!("unknown {side} state {state}")));
    }

    // Trigger: core op, or message with optional [guard].
    let (ev_name, guard) = match trigger_str.split_once('[') {
        Some((m, g)) => {
            let g = g
                .strip_suffix(']')
                .ok_or_else(|| err(lno, "unclosed guard"))?;
            (m, parse_guard(lno, g)?)
        }
        None => (trigger_str, Guard::Always),
    };
    enum T {
        Core(CoreOp),
        Msg(String),
    }
    // Core-op names win on the cache side; directories have no core
    // events, so there a name like "Evict" can only be a message.
    let trig = match ev_name {
        "Load" if side == "cache" => T::Core(CoreOp::Load),
        "Store" if side == "cache" => T::Core(CoreOp::Store),
        "Evict" if side == "cache" => T::Core(CoreOp::Evict),
        m if msgs.contains(&m) => T::Msg(m.to_string()),
        m => return Err(err(lno, format!("unknown trigger {m}"))),
    };

    let rhs = rhs.trim();
    if rhs == "stall" {
        match (side, trig) {
            ("cache", T::Core(op)) => {
                b.cache_stall_core(state, op);
            }
            ("cache", T::Msg(m)) => {
                b.cache_stall_msg_if(state, &m, guard);
            }
            ("dir", T::Msg(m)) => {
                b.dir_stall_msg_if(state, &m, guard);
            }
            ("dir", T::Core(_)) => {
                return Err(err(lno, "directories have no core events"));
            }
            _ => return Err(err(lno, "unknown side")),
        }
        return Ok(());
    }

    let mut a = acts();
    for piece in rhs.split(';') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        a = parse_action(lno, piece, a, msgs, &states)?;
    }

    match (side, trig) {
        ("cache", T::Core(op)) => {
            b.cache_on_core(state, op, a);
        }
        ("cache", T::Msg(m)) => {
            b.cache_on_msg_if(state, &m, guard, a);
        }
        ("dir", T::Msg(m)) => {
            b.dir_on_msg_if(state, &m, guard, a);
        }
        ("dir", T::Core(_)) => return Err(err(lno, "directories have no core events")),
        _ => return Err(err(lno, "unknown side")),
    }
    Ok(())
}

fn parse_guard(lno: usize, g: &str) -> Result<Guard, ParseError> {
    Ok(match g {
        "ack=0" => Guard::AckZero,
        "ack>0" => Guard::AckPositive,
        "last-ack" => Guard::LastAck,
        "not-last-ack" => Guard::NotLastAck,
        "last-sharer" => Guard::LastSharer,
        "not-last-sharer" => Guard::NotLastSharer,
        "from-owner" => Guard::FromOwner,
        "from-non-owner" => Guard::NotFromOwner,
        "last-snpack" => Guard::LastSnpAck,
        "not-last-snpack" => Guard::NotLastSnpAck,
        "no-other-sharers" => Guard::NoOtherSharers,
        "has-other-sharers" => Guard::HasOtherSharers,
        "req-is-owner" => Guard::ReqIsOwner,
        "req-not-owner" => Guard::ReqNotOwner,
        other => return Err(err(lno, format!("unknown guard {other}"))),
    })
}

fn parse_action(
    lno: usize,
    piece: &str,
    a: Acts,
    msgs: &[&str],
    states: &[&str],
) -> Result<Acts, ParseError> {
    if let Some(next) = piece.strip_prefix("->") {
        let next = next.trim();
        if !states.contains(&next) {
            return Err(err(lno, format!("unknown next state {next}")));
        }
        return Ok(a.goto(next));
    }
    let words: Vec<&str> = piece.split_whitespace().collect();
    Ok(match words[..] {
        ["send", m, t] | ["send", m, t, "none"] => {
            check_msg(lno, m, msgs)?;
            a.send(m, parse_target(lno, t)?)
        }
        ["send", m, t, "data"] => {
            check_msg(lno, m, msgs)?;
            a.send_data(m, parse_target(lno, t)?)
        }
        ["send", m, t, "data+acks"] => {
            check_msg(lno, m, msgs)?;
            a.send_data_acks(m, parse_target(lno, t)?)
        }
        ["send", m, t, "acks"] => {
            check_msg(lno, m, msgs)?;
            a.send_acks_from_sharers(m, parse_target(lno, t)?)
        }
        ["send", m, t, "data+acks-from-msg"] => {
            check_msg(lno, m, msgs)?;
            a.send_data_acks_from_msg(m, parse_target(lno, t)?)
        }
        ["send", m, t, "data+acks-stored"] => {
            check_msg(lno, m, msgs)?;
            a.send_data_acks_stored(m, parse_target(lno, t)?)
        }
        ["to-sharers", m] => {
            check_msg(lno, m, msgs)?;
            a.to_sharers(m)
        }
        ["owner=req"] => a.set_owner_to_req(),
        ["owner=none"] => a.clear_owner(),
        ["sharers+=req"] => a.add_req_to_sharers(),
        ["sharers+=owner"] => a.add_owner_to_sharers(),
        ["sharers-=req"] => a.remove_req_from_sharers(),
        ["sharers=none"] => a.clear_sharers(),
        ["mem<=data"] => a.copy_to_mem(),
        ["record-reader"] => a.record_reader(),
        ["record-writer"] => a.record_writer(),
        ["pending=other-sharers"] => a.set_pending_other_sharers(),
        ["pending-=1"] => a.dec_pending(),
        ["acks+=msg"] => a.add_acks_from_msg(),
        ["acks-=1"] => a.dec_needed_acks(),
        _ => return Err(err(lno, format!("unknown action `{piece}`"))),
    })
}

fn check_msg(lno: usize, m: &str, msgs: &[&str]) -> Result<(), ParseError> {
    if msgs.contains(&m) {
        Ok(())
    } else {
        Err(err(lno, format!("unknown message {m}")))
    }
}

fn parse_target(lno: usize, t: &str) -> Result<Target, ParseError> {
    Ok(match t {
        "Req" => Target::Req,
        "Dir" => Target::Dir,
        "Owner" => Target::Owner,
        "Readers" => Target::Readers,
        "Writer" => Target::Writer,
        other => return Err(err(lno, format!("unknown target {other}"))),
    })
}

/// Serializes a [`ProtocolSpec`] to the text format.
pub fn to_text(spec: &ProtocolSpec) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "protocol {}", spec.name());
    for def in spec.messages() {
        let t = match def.mtype {
            MsgType::Request => "req",
            MsgType::FwdRequest => "fwd",
            MsgType::DataResponse => "data",
            MsgType::CtrlResponse => "resp",
        };
        let _ = writeln!(out, "message {} {}", def.name, t);
    }
    for (label, kind) in [
        ("cache", ControllerKind::Cache),
        ("dir", ControllerKind::Directory),
    ] {
        let ctrl = spec.controller(kind);
        for sk in [StateKind::Stable, StateKind::Transient] {
            let names: Vec<&str> = ctrl
                .states()
                .iter()
                .filter(|s| s.kind == sk)
                .map(|s| s.name.as_str())
                .collect();
            if !names.is_empty() {
                let kname = if sk == StateKind::Stable {
                    "stable"
                } else {
                    "transient"
                };
                let _ = writeln!(out, "{label}-states {kname}: {}", names.join(" "));
            }
        }
        let _ = writeln!(out, "{label}-initial {}", ctrl.state(ctrl.initial()).name);
    }
    for (label, kind) in [
        ("cache", ControllerKind::Cache),
        ("dir", ControllerKind::Directory),
    ] {
        let ctrl = spec.controller(kind);
        for (state, trigger, cell) in ctrl.iter() {
            let sname = &ctrl.state(state).name;
            let tname = match trigger.event {
                Event::Core(op) => format!("{op}"),
                Event::Msg(m) => {
                    let base = spec.message_name(m).to_string();
                    if trigger.guard == Guard::Always {
                        base
                    } else {
                        format!("{base}[{}]", trigger.guard)
                    }
                }
            };
            let rhs = match cell {
                Cell::Stall => "stall".to_string(),
                Cell::Entry(e) => {
                    let mut pieces: Vec<String> =
                        e.actions.iter().map(|a| action_to_text(spec, a)).collect();
                    if let Some(n) = e.next {
                        pieces.push(format!("-> {}", ctrl.state(n).name));
                    }
                    pieces.join("; ")
                }
            };
            let _ = writeln!(out, "{label} {sname} {tname} = {rhs}");
        }
    }
    out
}

fn action_to_text(spec: &ProtocolSpec, a: &Action) -> String {
    match a {
        Action::Send { msg, to, payload } => {
            let p = match payload {
                Payload::None => "none",
                Payload::Data => "data",
                Payload::DataAckFromSharers => "data+acks",
                Payload::AckFromSharers => "acks",
                Payload::DataAckFromMsg => "data+acks-from-msg",
                Payload::DataAckStored => "data+acks-stored",
            };
            format!("send {} {} {}", spec.message_name(*msg), to, p)
        }
        Action::SendToSharersExceptReq { msg } => {
            format!("to-sharers {}", spec.message_name(*msg))
        }
        Action::SetOwnerToReq => "owner=req".into(),
        Action::ClearOwner => "owner=none".into(),
        Action::AddReqToSharers => "sharers+=req".into(),
        Action::AddOwnerToSharers => "sharers+=owner".into(),
        Action::RemoveReqFromSharers => "sharers-=req".into(),
        Action::ClearSharers => "sharers=none".into(),
        Action::CopyDataToMem => "mem<=data".into(),
        Action::RecordReader => "record-reader".into(),
        Action::RecordWriter => "record-writer".into(),
        Action::SetPendingToOtherSharers => "pending=other-sharers".into(),
        Action::DecPending => "pending-=1".into(),
        Action::AddAcksFromMsg => "acks+=msg".into(),
        Action::DecNeededAcks => "acks-=1".into(),
    }
}
