//! A line-oriented text format for protocol specifications.
//!
//! Lets protocols be written, diffed, and shipped as plain text files —
//! the moral equivalent of the tabular figures in the Primer. The format
//! round-trips through [`to_text`] / [`parse`].
//!
//! ```text
//! protocol tiny
//! message Get req
//! message Dat data
//! cache-states stable: I V
//! cache-states transient: IV
//! cache-initial I
//! dir-states stable: I
//! cache I Load = send Get Dir; -> IV
//! cache IV Dat[ack=0] = -> V
//! cache IV Get = stall
//! dir I Get = send Dat Req data
//! ```
//!
//! Triggers are `Load`/`Store`/`Evict` or a message name with an optional
//! `[guard]`. Actions are separated by `;`; the final `-> State` sets the
//! next state. `stall` marks a stall cell.

use crate::action::{Action, Payload, Target};
use crate::event::{CoreOp, Event, Guard, Trigger};
use crate::message::{MessageDef, MsgId, MsgType};
use crate::spec::{ControllerKind, ProtocolSpec};
use crate::state::{StateDef, StateId, StateKind};
use crate::table::{Cell, ControllerSpec, Entry};
use std::fmt;

#[cfg(test)]
mod reference;

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// The cell-line keyword of each controller, indexed like the
/// controllers [`parse`] builds: cache, then directory.
const SIDES: [&str; 2] = ["cache", "dir"];
const CACHE: usize = 0;
const DIR: usize = 1;

/// Parses the text format into a [`ProtocolSpec`].
///
/// Header lines are read first, straight into message and state
/// definitions, so a cell may name a state or message declared below
/// it, and a header error outranks any cell error. Each cell line is
/// then resolved to ids as it is read and set into its controller,
/// without copying a name.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input or
/// unresolved names.
pub fn parse(text: &str) -> Result<ProtocolSpec, ParseError> {
    let mut name: Option<&str> = None;
    let mut messages: Vec<MessageDef> = Vec::new();
    let mut states: [Vec<StateDef>; 2] = Default::default();
    let mut names = Names::default();
    let mut initial: [Option<&str>; 2] = [None, None];
    // (line number, side, line) of each cell line, for the second pass;
    // most of a table's lines are cells of about 40 bytes.
    let mut cells: Vec<(usize, usize, &str)> = Vec::with_capacity(text.len() / 32);

    for (i, raw) in text.lines().enumerate() {
        let lno = i + 1;
        let line = raw.split_once('#').map_or(raw, |(l, _)| l).trim();
        if line.is_empty() {
            continue;
        }
        let (head, rest) = line
            .split_once(' ')
            .map_or((line, ""), |(h, r)| (h, r.trim()));
        match head {
            "protocol" => {
                if rest.is_empty() {
                    return Err(err(lno, "protocol needs a name"));
                }
                name = Some(rest);
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
                names.messages.declare(m);
                messages.push(MessageDef::new(m, ty));
            }
            "cache-states" | "dir-states" => {
                let (kind_str, list) = rest
                    .split_once(':')
                    .ok_or_else(|| err(lno, "expected: <stable|transient>: names…"))?;
                let kind = match kind_str.trim() {
                    "stable" => StateKind::Stable,
                    "transient" => StateKind::Transient,
                    other => return Err(err(lno, format!("unknown state kind {other}"))),
                };
                let side = if head == "cache-states" { CACHE } else { DIR };
                for n in list.split_whitespace() {
                    names.states[side].declare(n);
                    states[side].push(StateDef::new(n, kind));
                }
            }
            "cache-initial" => initial[CACHE] = Some(rest),
            "dir-initial" => initial[DIR] = Some(rest),
            "cache" => cells.push((lno, CACHE, line)),
            "dir" => cells.push((lno, DIR, line)),
            other => return Err(err(lno, format!("unknown directive {other}"))),
        }
    }

    let name = name.ok_or_else(|| err(1, "missing `protocol <name>` header"))?;
    if let Some(m) = names.messages.repeat {
        return Err(err(1, format!("duplicate message {m}")));
    }
    for (side, ids) in names.states.iter().enumerate() {
        if let Some(s) = ids.repeat {
            return Err(err(1, format!("duplicate {} state {s}", SIDES[side])));
        }
    }
    let [cache, dir] = states;
    let mut ctrls = [
        controller(SIDES[CACHE], cache, initial[CACHE])?,
        controller(SIDES[DIR], dir, initial[DIR])?,
    ];

    // The guards each side's cells were written with, one bit per
    // guard, by `(state, event)`. A message's guarded variants are
    // distinct cells; a core event takes no guard, so `Load` and
    // `Load[ack=0]` are one cell written two ways.
    let events = CoreOp::all().len() + messages.len();
    let mut written = ctrls
        .each_ref()
        .map(|c| vec![0u16; c.states().len() * events]);
    let slot = |state: StateId, trigger: Trigger| {
        let event = match trigger.event {
            Event::Core(op) => op as usize,
            Event::Msg(m) => CoreOp::all().len() + m.0,
        };
        state.0 * events + event
    };
    let bit = |guard: Guard| 1u16 << (guard as u16);
    let mut tables: [Vec<((StateId, Trigger), Cell)>; 2] =
        [CACHE, DIR].map(|side| Vec::with_capacity(cells.iter().filter(|c| c.1 == side).count()));
    // The first cell that repeats another only once resolved. The
    // textual duplicate check never saw these, so they are reported only
    // when no other line fails, where a builder-based parse panicked.
    let mut clash: Option<ParseError> = None;
    for &(lno, side, line) in &cells {
        let (lhs, rhs) = split_cell(line);
        let key = cell_key(lno, side, lhs, &names);
        if let Ok((state, trigger, guard)) = key {
            // The same left-hand side word for word: a duplicate, before
            // anything else on the line counts.
            if written[side][slot(state, trigger)] & bit(guard) != 0 {
                return Err(err(lno, format!("duplicate cell `{}`", squeeze(lhs))));
            }
        }
        let Some(rhs) = rhs else {
            return Err(err(lno, "expected `<side> <state> <trigger> = <cell>`"));
        };
        let (state, trigger, guard) = key?;
        let cell = parse_cell(lno, rhs, &names.states[side], &names.messages)?;
        let seen = &mut written[side][slot(state, trigger)];
        if matches!(trigger.event, Event::Core(_)) && *seen != 0 && clash.is_none() {
            clash = Some(err(
                lno,
                format!(
                    "duplicate cell `{}`: a core event takes no guard",
                    squeeze(lhs)
                ),
            ));
        }
        *seen |= bit(guard);
        tables[side].push(((state, trigger), cell));
    }
    if let Some(e) = clash {
        return Err(e);
    }
    for (ctrl, table) in ctrls.iter_mut().zip(tables) {
        ctrl.set_all(table);
    }
    let [cache, dir] = ctrls;
    Ok(ProtocolSpec::new(name, messages, cache, dir))
}

/// Declared names, whose ids are their positions. A repeated name
/// keeps its first id, and the first repeat is kept for the error.
/// Tables declare a few dozen names, so a scan beats hashing.
#[derive(Default)]
struct Ids<'t> {
    names: Vec<&'t str>,
    repeat: Option<&'t str>,
}

impl<'t> Ids<'t> {
    fn declare(&mut self, name: &'t str) {
        if self.repeat.is_none() && self.names.contains(&name) {
            self.repeat = Some(name);
        }
        self.names.push(name);
    }

    fn get(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|&n| n == name)
    }
}

/// The names a cell line may use: each side's states and the messages.
#[derive(Default)]
struct Names<'t> {
    states: [Ids<'t>; 2],
    messages: Ids<'t>,
}

/// One side's controller: its states, and the initial state named or,
/// when none is, the first stable one.
fn controller(
    label: &str,
    states: Vec<StateDef>,
    initial: Option<&str>,
) -> Result<ControllerSpec, ParseError> {
    let init = match initial {
        Some(init) => match states.iter().position(|s| s.name == init) {
            None => return Err(err(1, format!("unknown {label} initial state {init}"))),
            Some(i) if states[i].kind == StateKind::Transient => {
                return Err(err(1, format!("{label} initial state {init} is transient")))
            }
            Some(i) => i,
        },
        None => states
            .iter()
            .position(|s| s.kind == StateKind::Stable)
            .ok_or_else(|| err(1, format!("no stable {label} state to use as initial")))?,
    };
    Ok(ControllerSpec::new(states, StateId(init)))
}

fn msg_id(lno: usize, messages: &Ids, name: &str) -> Result<MsgId, ParseError> {
    match messages.get(name) {
        Some(i) => Ok(MsgId(i)),
        None => Err(err(lno, format!("unknown message {name}"))),
    }
}

/// `s` with each run of whitespace squeezed to one space.
fn squeeze(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Splits a cell line at its separator, ` = ` with mandatory spaces:
/// guards (`[ack=0]`) and actions (`owner=req`) contain bare `=`. A line
/// may end at the separator ("hit" cells with no actions and no state
/// change); a line without one has no right-hand side.
fn split_cell(line: &str) -> (&str, Option<&str>) {
    let b = line.as_bytes();
    for (i, _) in line.match_indices('=') {
        if i > 0 && b[i - 1] == b' ' {
            match b.get(i + 1) {
                None => return (&line[..i - 1], Some("")),
                Some(b' ') => return (&line[..i - 1], Some(&line[i + 2..])),
                Some(_) => {}
            }
        }
    }
    (line, None)
}

/// Resolves a cell's `<side> <state> <trigger>` to its state, its
/// trigger, and the guard as written (which a core event drops).
fn cell_key(
    lno: usize,
    side: usize,
    lhs: &str,
    names: &Names,
) -> Result<(StateId, Trigger, Guard), ParseError> {
    let mut words = lhs.split_whitespace();
    let (Some(_), Some(state), Some(trigger), None) =
        (words.next(), words.next(), words.next(), words.next())
    else {
        return Err(err(lno, "expected `<side> <state> <trigger>` before `=`"));
    };
    let state = names.states[side]
        .get(state)
        .map(StateId)
        .ok_or_else(|| err(lno, format!("unknown {} state {state}", SIDES[side])))?;
    let (ev_name, guard) = match trigger.split_once('[') {
        Some((m, g)) => {
            let g = g
                .strip_suffix(']')
                .ok_or_else(|| err(lno, "unclosed guard"))?;
            (m, parse_guard(lno, g)?)
        }
        None => (trigger, Guard::Always),
    };
    // Core-op names win on the cache side; directories have no core
    // events, so there a name like "Evict" can only be a message.
    let trigger = match ev_name {
        "Load" if side == CACHE => Trigger::core(CoreOp::Load),
        "Store" if side == CACHE => Trigger::core(CoreOp::Store),
        "Evict" if side == CACHE => Trigger::core(CoreOp::Evict),
        m => match names.messages.get(m) {
            Some(i) => Trigger::msg_if(MsgId(i), guard),
            None => return Err(err(lno, format!("unknown trigger {m}"))),
        },
    };
    Ok((state, trigger, guard))
}

/// A cell's right-hand side: `stall`, or `;`-separated actions with an
/// optional `-> <state>` (the last one wins).
fn parse_cell(lno: usize, rhs: &str, states: &Ids, messages: &Ids) -> Result<Cell, ParseError> {
    let rhs = rhs.trim();
    if rhs == "stall" {
        return Ok(Cell::Stall);
    }
    let mut entry = Entry::default();
    for piece in rhs.split(';') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        if let Some(next) = piece.strip_prefix("->") {
            let next = next.trim();
            let id = states
                .get(next)
                .map(StateId)
                .ok_or_else(|| err(lno, format!("unknown next state {next}")))?;
            entry.next = Some(id);
        } else {
            entry.actions.push(parse_action(lno, piece, messages)?);
        }
    }
    Ok(Cell::Entry(entry))
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

fn parse_action(lno: usize, piece: &str, messages: &Ids) -> Result<Action, ParseError> {
    let unknown = || err(lno, format!("unknown action `{piece}`"));
    let mut w = piece.split_whitespace();
    Ok(match (w.next(), w.next(), w.next(), w.next(), w.next()) {
        (Some("send"), Some(m), Some(t), payload, None) => {
            let payload = match payload {
                None | Some("none") => Payload::None,
                Some("data") => Payload::Data,
                Some("data+acks") => Payload::DataAckFromSharers,
                Some("acks") => Payload::AckFromSharers,
                Some("data+acks-from-msg") => Payload::DataAckFromMsg,
                Some("data+acks-stored") => Payload::DataAckStored,
                Some(_) => return Err(unknown()),
            };
            Action::Send {
                msg: msg_id(lno, messages, m)?,
                to: parse_target(lno, t)?,
                payload,
            }
        }
        (Some("to-sharers"), Some(m), None, ..) => Action::SendToSharersExceptReq {
            msg: msg_id(lno, messages, m)?,
        },
        (Some(word), None, ..) => match word {
            "owner=req" => Action::SetOwnerToReq,
            "owner=none" => Action::ClearOwner,
            "sharers+=req" => Action::AddReqToSharers,
            "sharers+=owner" => Action::AddOwnerToSharers,
            "sharers-=req" => Action::RemoveReqFromSharers,
            "sharers=none" => Action::ClearSharers,
            "mem<=data" => Action::CopyDataToMem,
            "record-reader" => Action::RecordReader,
            "record-writer" => Action::RecordWriter,
            "pending=other-sharers" => Action::SetPendingToOtherSharers,
            "pending-=1" => Action::DecPending,
            "acks+=msg" => Action::AddAcksFromMsg,
            "acks-=1" => Action::DecNeededAcks,
            _ => return Err(unknown()),
        },
        _ => return Err(unknown()),
    })
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

/// Serializes a [`ProtocolSpec`] to the text format, straight into one
/// string. The text is what store keys and checkpoint fingerprints hash,
/// so it must not change by a byte.
pub fn to_text(spec: &ProtocolSpec) -> String {
    let kinds = [
        ("cache", ControllerKind::Cache),
        ("dir", ControllerKind::Directory),
    ];
    let cells: usize = kinds
        .iter()
        .map(|&(_, k)| spec.controller(k).iter().count())
        .sum();
    let mut out = String::with_capacity(256 + 24 * spec.messages().len() + 48 * cells);
    push(&mut out, &["protocol ", spec.name(), "\n"]);
    for def in spec.messages() {
        let t = match def.mtype {
            MsgType::Request => "req",
            MsgType::FwdRequest => "fwd",
            MsgType::DataResponse => "data",
            MsgType::CtrlResponse => "resp",
        };
        push(&mut out, &["message ", &def.name, " ", t, "\n"]);
    }
    for (label, kind) in kinds {
        let ctrl = spec.controller(kind);
        for (sk, kname) in [
            (StateKind::Stable, "stable"),
            (StateKind::Transient, "transient"),
        ] {
            let mut names = ctrl.states().iter().filter(|s| s.kind == sk);
            if let Some(first) = names.next() {
                push(&mut out, &[label, "-states ", kname, ": ", &first.name]);
                for s in names {
                    push(&mut out, &[" ", &s.name]);
                }
                out.push('\n');
            }
        }
        push(
            &mut out,
            &[label, "-initial ", &ctrl.state(ctrl.initial()).name, "\n"],
        );
    }
    for (label, kind) in kinds {
        let ctrl = spec.controller(kind);
        for (state, trigger, cell) in ctrl.iter() {
            push(&mut out, &[label, " ", &ctrl.state(state).name, " "]);
            match trigger.event {
                Event::Core(op) => out.push_str(op.as_str()),
                Event::Msg(m) => {
                    out.push_str(spec.message_name(m));
                    if trigger.guard != Guard::Always {
                        push(&mut out, &["[", trigger.guard.as_str(), "]"]);
                    }
                }
            }
            out.push_str(" = ");
            match cell {
                Cell::Stall => out.push_str("stall"),
                Cell::Entry(e) => {
                    for (i, a) in e.actions.iter().enumerate() {
                        if i > 0 {
                            out.push_str("; ");
                        }
                        push_action(&mut out, spec, a);
                    }
                    if let Some(n) = e.next {
                        if !e.actions.is_empty() {
                            out.push_str("; ");
                        }
                        push(&mut out, &["-> ", &ctrl.state(n).name]);
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

fn push(out: &mut String, parts: &[&str]) {
    for p in parts {
        out.push_str(p);
    }
}

fn push_action(out: &mut String, spec: &ProtocolSpec, a: &Action) {
    let word = match a {
        Action::Send { msg, to, payload } => {
            let p = match payload {
                Payload::None => "none",
                Payload::Data => "data",
                Payload::DataAckFromSharers => "data+acks",
                Payload::AckFromSharers => "acks",
                Payload::DataAckFromMsg => "data+acks-from-msg",
                Payload::DataAckStored => "data+acks-stored",
            };
            return push(
                out,
                &["send ", spec.message_name(*msg), " ", to.as_str(), " ", p],
            );
        }
        Action::SendToSharersExceptReq { msg } => {
            return push(out, &["to-sharers ", spec.message_name(*msg)]);
        }
        Action::SetOwnerToReq => "owner=req",
        Action::ClearOwner => "owner=none",
        Action::AddReqToSharers => "sharers+=req",
        Action::AddOwnerToSharers => "sharers+=owner",
        Action::RemoveReqFromSharers => "sharers-=req",
        Action::ClearSharers => "sharers=none",
        Action::CopyDataToMem => "mem<=data",
        Action::RecordReader => "record-reader",
        Action::RecordWriter => "record-writer",
        Action::SetPendingToOtherSharers => "pending=other-sharers",
        Action::DecPending => "pending-=1",
        Action::AddAcksFromMsg => "acks+=msg",
        Action::DecNeededAcks => "acks-=1",
    };
    out.push_str(word);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols;
    use crate::Trigger;

    const TINY: &str = "\
protocol tiny
message Get req
message Dat data
cache-states stable: I V
cache-states transient: IV
cache-initial I
dir-states stable: I
cache I Load = send Get Dir; -> IV
cache IV Dat[ack=0] = -> V
cache IV Get = stall
dir I Get = send Dat Req data
";

    #[test]
    fn parses_tiny() {
        let p = parse(TINY).unwrap();
        assert_eq!(p.name(), "tiny");
        assert_eq!(p.messages().len(), 2);
        let iv = p.cache().state_by_name("IV").unwrap();
        let get = p.message_by_name("Get").unwrap();
        assert!(p.cache().cell(iv, Trigger::msg(get)).unwrap().is_stall());
    }

    #[test]
    fn round_trips_every_builtin_protocol() {
        for p in protocols::all() {
            let text = to_text(&p);
            let q = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert_eq!(p.name(), q.name());
            assert_eq!(p.messages(), q.messages());
            assert_eq!(p.cache().states(), q.cache().states());
            assert_eq!(p.directory().states(), q.directory().states());
            // Cell-for-cell equality.
            let cells = |s: &ProtocolSpec, k| {
                s.controller(k)
                    .iter()
                    .map(|(st, t, c)| (st, *t, c.clone()))
                    .collect::<Vec<_>>()
            };
            for k in [ControllerKind::Cache, ControllerKind::Directory] {
                assert_eq!(cells(&p, k), cells(&q, k), "{} {k}", p.name());
            }
        }
    }

    #[test]
    fn guarded_stall_in_a_transient_state_survives_round_trip() {
        let text = TINY.replace(
            "cache IV Get = stall\n",
            "cache IV Get = stall\ncache IV Dat[ack>0] = stall\n",
        );
        let p = parse(&text).unwrap();
        let iv = p.cache().state_by_name("IV").unwrap();
        let dat = p.message_by_name("Dat").unwrap();
        let guarded = Trigger::msg_if(dat, Guard::AckPositive);
        assert!(p.cache().cell(iv, guarded).unwrap().is_stall());
        assert!(!p
            .cache()
            .cell(iv, Trigger::msg_if(dat, Guard::AckZero))
            .unwrap()
            .is_stall());
        let q = parse(&to_text(&p)).unwrap();
        assert!(q.cache().cell(iv, guarded).unwrap().is_stall());
        assert_eq!(to_text(&q), to_text(&p));
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse("protocol x\nbogus line\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn unknown_message_rejected() {
        let bad = "protocol x\ncache-states stable: I\ndir-states stable: I\ncache I Load = send Nope Dir\n";
        let e = parse(bad).unwrap_err();
        assert!(e.message.contains("Nope"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = format!("# header\n\n{TINY}\n# trailer\n");
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn missing_header_rejected() {
        assert!(parse("message Get req\n").is_err());
    }

    #[test]
    fn a_core_event_written_bare_and_guarded_is_a_duplicate_cell() {
        let text = TINY.replace(
            "cache IV Get = stall\n",
            "cache IV Get = stall\ncache I Load[ack=0] = stall\n",
        );
        let e = parse(&text).unwrap_err();
        assert_eq!(e.line, 11);
        assert!(
            e.message
                .starts_with("duplicate cell `cache I Load[ack=0]`"),
            "{e}"
        );
        // A later error on another line is still the one reported.
        let e = parse(&format!("{text}dir I Nope = stall\n")).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (13, "unknown trigger Nope"));
    }

    thread_local! {
        static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// The reference parser's result, or `None` where it panics. Its
    /// panics are silenced on this thread only; every other panic still
    /// reports through the hook that was installed before.
    fn reference_parse(text: &str) -> Option<Result<ProtocolSpec, ParseError>> {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !QUIET.with(std::cell::Cell::get) {
                    prev(info);
                }
            }));
        });
        QUIET.with(|q| q.set(true));
        let got = std::panic::catch_unwind(|| reference::parse(text)).ok();
        QUIET.with(|q| q.set(false));
        got
    }

    /// What the differential test saw: inputs checked, inputs the new
    /// parser accepted, and inputs where the reference panicked.
    #[derive(Default)]
    struct Tally {
        inputs: usize,
        accepted: usize,
        reference_panics: usize,
    }

    /// Runs the one-pass parser and renderer against the builder-based
    /// reference on `text`: the same acceptance, the same error line and
    /// message, and byte-identical text from both renderers. Where the
    /// reference panics, the new parser must return an error.
    fn agree(text: &str, tally: &mut Tally) -> Result<(), String> {
        tally.inputs += 1;
        let new = parse(text);
        let Some(old) = reference_parse(text) else {
            tally.reference_panics += 1;
            return match new {
                Err(_) => Ok(()),
                Ok(_) => Err(format!("the reference panics but this parses:\n{text}")),
            };
        };
        match (old, new) {
            (Err(o), Err(n)) if o == n => Ok(()),
            (Ok(o), Ok(n)) => {
                tally.accepted += 1;
                let rendered = to_text(&n);
                if rendered != reference::to_text(&n) {
                    return Err(format!("the renderers differ on:\n{text}"));
                }
                if rendered != reference::to_text(&o) {
                    return Err(format!("the parsers build different specs from:\n{text}"));
                }
                Ok(())
            }
            (o, n) => Err(format!(
                "reference {:?}, one-pass {:?} on:\n{text}",
                o.map(|s| s.name().to_string()),
                n.map(|s| s.name().to_string()),
            )),
        }
    }

    fn vnp_files(dir: &str) -> Vec<String> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "vnp"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display())))
            .collect()
    }

    /// One seeded line mutation of `lines`, in the style of the
    /// `parser_fuzz` suite: lines deleted, repeated, swapped, moved,
    /// truncated or inserted; words replaced or given guards; lines
    /// repeated with a guarded trigger; separators dropped; cell lines cut
    /// back to their left-hand side.
    fn mutate(lines: &mut Vec<String>, pool: &[&str], rng: &mut vnet_graph::Rng64) {
        const SOUP: [&str; 8] = [
            "protocol p",
            "message Get req",
            "cache-states stable: I",
            "dir-states transient: B",
            "cache-initial I",
            "cache I Load = bogus action",
            "dir I Nope = stall",
            "# comment",
        ];
        const GUARDS: [&str; 5] = ["ack=0", "last-ack", "from-owner", "bogus", ""];
        if lines.is_empty() {
            lines.push(SOUP[rng.gen_range(0, SOUP.len())].to_string());
            return;
        }
        let i = rng.gen_range(0, lines.len());
        let j = rng.gen_range(0, lines.len());
        match rng.gen_range(0, 11) {
            0 => {
                lines.remove(i);
            }
            1 => {
                let l = lines[i].clone();
                lines.insert(j, l);
            }
            2 => lines.swap(i, j),
            3 => {
                let l = lines.remove(i);
                lines.insert(j.min(lines.len()), l);
            }
            4 => {
                let mut cut = rng.gen_range(0, lines[i].len() + 1);
                while !lines[i].is_char_boundary(cut) {
                    cut -= 1;
                }
                lines[i].truncate(cut);
            }
            5 => lines.insert(j, SOUP[rng.gen_range(0, SOUP.len())].to_string()),
            6 | 7 => {
                let mut words: Vec<String> = lines[i].split(' ').map(str::to_string).collect();
                let w = rng.gen_range(0, words.len());
                if rng.gen_range(0, 2) == 0 {
                    words[w] = pool[rng.gen_range(0, pool.len())].to_string();
                } else {
                    words[w] = format!("{}[{}]", words[w], GUARDS[rng.gen_range(0, GUARDS.len())]);
                }
                lines[i] = words.join(" ");
            }
            8 => lines[i] = lines[i].replacen(" = ", " ", 1),
            9 => {
                let mut words: Vec<&str> = lines[i].split(' ').collect();
                let guarded = words
                    .get(2)
                    .map(|w| format!("{w}[{}]", GUARDS[rng.gen_range(0, 3)]));
                if let Some(g) = &guarded {
                    words[2] = g;
                }
                let copy = words.join(" ");
                lines.insert(j, copy);
            }
            _ => {
                let lhs = lines[i].split(" = ").next().unwrap_or("").to_string();
                lines.insert(j, lhs);
            }
        }
    }

    /// The one-pass parser and renderer against the builder-based
    /// reference they replaced: every builtin, every shipped `.vnp`
    /// file, the bad-spec corpus, and 24k seeded line mutations of them.
    #[test]
    fn one_pass_parser_and_renderer_agree_with_the_builder_reference() -> Result<(), String> {
        let mut bases: Vec<String> = protocols::all().iter().map(to_text).collect();
        bases.extend(vnp_files("../../protocols"));
        bases.extend(vnp_files("../../tests/bad_specs"));
        bases.push(TINY.to_string());
        let mut tally = Tally::default();
        for p in protocols::all() {
            if to_text(&p) != reference::to_text(&p) {
                return Err(format!("the renderers differ on {}", p.name()));
            }
        }
        for text in &bases {
            agree(text, &mut tally)?;
        }
        let mut rng = vnet_graph::Rng64::seed_from_u64(0x0DE5_1A11);
        for k in 0..24_000 {
            let base = &bases[k % bases.len()];
            let pool: Vec<&str> = base.split_whitespace().collect();
            let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
            for _ in 0..rng.gen_range(1, 4) {
                mutate(&mut lines, &pool, &mut rng);
            }
            agree(&lines.join("\n"), &mut tally)?;
        }
        // The corpus reaches both outcomes and the reference's panic.
        assert!(tally.inputs > 24_000);
        assert!(
            tally.accepted > 1_000,
            "only {} inputs parsed",
            tally.accepted
        );
        assert!(
            tally.reference_panics > 100,
            "{} inputs reached the reference's panic",
            tally.reference_panics
        );
        Ok(())
    }
}
