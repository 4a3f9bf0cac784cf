//! The durable result store through the real binary: a warm-store soak
//! (hit ratio and hit latency under sustained load, with counter
//! reconciliation at the end), cache survival across a daemon restart,
//! and the batch/progress streaming surfaces.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use vnet::serve::json;

#[path = "support/daemon.rs"]
mod daemon;
use daemon::DaemonGuard;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vnet-servestore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("creating the test scratch dir");
    d
}

fn spawn_serve(extra: &[&str]) -> (DaemonGuard, String) {
    let mut child = DaemonGuard::new(
        Command::new(env!("CARGO_BIN_EXE_vnet"))
            .args(["serve", "--listen", "127.0.0.1:0", "--drain-grace", "1s"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning vnet serve"),
    );
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("reading the listening banner");
    assert!(banner.contains("listening on"), "bad banner: {banner}");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("banner ends with the address")
        .to_string();
    (child, addr)
}

fn connect(addr: &str) -> (impl Write, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connecting to the daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("setting a read timeout");
    stream.set_nodelay(true).expect("setting TCP_NODELAY");
    let w = stream.try_clone().expect("cloning the stream");
    (w, BufReader::new(stream))
}

fn roundtrip(w: &mut impl Write, r: &mut BufReader<TcpStream>, line: &str) -> json::Json {
    writeln!(w, "{line}").expect("sending a request");
    w.flush().expect("flushing a request");
    let mut resp = String::new();
    let n = r.read_line(&mut resp).expect("reading a response");
    assert!(n > 0, "daemon hung up on: {line}");
    json::parse(resp.trim()).unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}"))
}

fn shutdown(child: DaemonGuard) {
    let ok = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("running kill")
        .success();
    assert!(ok, "kill -TERM failed");
    let code = wait_exit(child, 60);
    assert_eq!(code, 0, "drain must exit 0");
}

fn wait_exit(mut child: DaemonGuard, secs: u64) -> i32 {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            return st.code().expect("exit code");
        }
        assert!(Instant::now() < deadline, "daemon did not exit in {secs}s");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn provenance(v: &json::Json) -> Option<&str> {
    v.get("provenance").and_then(json::Json::as_str)
}

/// The warm-store soak of the acceptance checklist: 10k analyze
/// requests cycling a handful of protocols against a stored daemon.
/// All but the first occurrence of each protocol must come back
/// `provenance:"cached"`, cache hits must answer in single-digit
/// milliseconds at p99 even in a debug build, and the server's own
/// counters must reconcile with the client tally afterwards.
#[test]
fn soak_10k_requests_against_a_warm_store() {
    const TOTAL: usize = 10_000;
    const PROTOCOLS: [&str; 7] = [
        "CHI",
        "MSI-blocking-cache",
        "MESI-blocking-cache",
        "MOSI-nonblocking-cache",
        "MOESI-nonblocking-cache",
        "MESIF-blocking-cache",
        "CHI-DCT",
    ];
    let dir = tmp_dir("soak");
    let (child, addr) = spawn_serve(&["--store-dir", dir.to_str().expect("utf-8 path")]);
    let (mut w, mut r) = connect(&addr);

    let mut hits = 0usize;
    let mut hit_wall = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL {
        let proto = PROTOCOLS[i % PROTOCOLS.len()];
        let line = format!(r#"{{"id":"s{i}","cmd":"analyze","protocol":"{proto}"}}"#);
        let t0 = Instant::now();
        let v = roundtrip(&mut w, &mut r, &line);
        let wall = t0.elapsed();
        assert_eq!(
            v.get("status").and_then(json::Json::as_str),
            Some("ok"),
            "request {i} failed: {v:?}"
        );
        if provenance(&v) == Some("cached") {
            hits += 1;
            hit_wall.push(wall);
        }
    }

    let ratio = hits as f64 / TOTAL as f64;
    assert!(
        ratio > 0.9,
        "hit ratio {ratio:.4} ({hits}/{TOTAL}) is below the 90% floor"
    );
    hit_wall.sort();
    let p99 = hit_wall[hit_wall.len() * 99 / 100];
    assert!(
        p99 < Duration::from_millis(5),
        "p99 cache-hit latency {p99:?} breaches the 5ms budget"
    );

    // Reconcile: the daemon's counters must agree with what the client
    // saw — every request completed, every status counted exactly once,
    // and the store counters partition the requests into hits + misses.
    let m = roundtrip(&mut w, &mut r, r#"{"id":"m","cmd":"metrics"}"#);
    let counter = |key: &str| {
        m.get("counters")
            .and_then(|c| c.get(key))
            .and_then(json::Json::as_u64)
            .unwrap_or_else(|| panic!("counters.{key} missing: {m:?}"))
    };
    assert_eq!(counter("completed"), TOTAL as u64);
    assert_eq!(
        counter("submitted"),
        counter("completed")
            + counter("errors")
            + counter("rejected")
            + counter("cancelled")
            + counter("panicked"),
        "status taxonomy does not partition the submitted total"
    );
    let reg_counter = |key: &str| {
        m.get("registry")
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get(key))
            .and_then(json::Json::as_u64)
            .unwrap_or(0)
    };
    assert_eq!(reg_counter("serve.cache_hits_total"), hits as u64);
    assert_eq!(
        reg_counter("serve.cache_hits_total") + reg_counter("serve.cache_misses_total"),
        TOTAL as u64,
        "hits + misses must cover every cacheable request"
    );
    // The server's own latency histogram agrees: with >99% of requests
    // answered from the store, at least 99% of `serve.request_wall_ms`
    // samples must sit in the <=5ms buckets.
    let wall = m
        .get("registry")
        .and_then(|r| r.get("histograms"))
        .and_then(|h| h.get("serve.request_wall_ms"))
        .expect("serve.request_wall_ms histogram missing");
    let count = wall.get("count").and_then(json::Json::as_u64).expect("count");
    let under_5ms: u64 = wall
        .get("buckets")
        .and_then(|b| match b {
            json::Json::Arr(items) => Some(items),
            _ => None,
        })
        .expect("buckets array")
        .iter()
        .filter(|b| b.get("le").and_then(json::Json::as_u64).is_some_and(|le| le <= 5))
        .map(|b| b.get("n").and_then(json::Json::as_u64).unwrap_or(0))
        .sum();
    assert!(
        under_5ms * 100 >= count * 99,
        "server-side p99 breaches 5ms: {under_5ms}/{count} samples <=5ms"
    );

    shutdown(child);
    // Durability: the store holds exactly one record per protocol.
    let store = vnet::store::Store::open_existing(&dir).expect("reopening the soak store");
    assert_eq!(store.len(), PROTOCOLS.len());
    let _ = std::fs::remove_dir_all(dir);
}

/// Kill the daemon, restart it on the same store directory, and the
/// repeat of an already-answered request must be served `cached`
/// without re-running any analysis.
#[test]
fn restarted_daemon_answers_repeats_from_the_store() {
    let dir = tmp_dir("restart");
    let flags = ["--store-dir", dir.to_str().expect("utf-8 path")];
    let req = r#"{"id":"a1","cmd":"analyze","protocol":"MOESI-blocking-cache"}"#;

    let (child, addr) = spawn_serve(&flags);
    let (mut w, mut r) = connect(&addr);
    let v = roundtrip(&mut w, &mut r, req);
    assert_eq!(v.get("status").and_then(json::Json::as_str), Some("ok"));
    assert_ne!(provenance(&v), Some("cached"), "first answer cannot be a hit");
    shutdown(child);

    let (child, addr) = spawn_serve(&flags);
    let (mut w, mut r) = connect(&addr);
    let v = roundtrip(&mut w, &mut r, req);
    assert_eq!(v.get("status").and_then(json::Json::as_str), Some("ok"), "{v:?}");
    assert_eq!(
        provenance(&v),
        Some("cached"),
        "restart lost the stored answer: {v:?}"
    );
    // The cached line still carries the actual result payload.
    assert!(
        v.get("min_vns").is_some(),
        "cached answer dropped its fields: {v:?}"
    );
    shutdown(child);
    let _ = std::fs::remove_dir_all(dir);
}

/// A batch with a poisoned item: every item gets its own response line
/// (the panic cannot take down its neighbours), then a summary closes
/// the batch.
#[test]
fn batch_isolates_a_poisoned_item_end_to_end() {
    let (child, addr) = spawn_serve(&["--enable-test-faults"]);
    let (mut w, mut r) = connect(&addr);
    writeln!(
        w,
        r#"{{"id":"b1","cmd":"batch","items":[{{"cmd":"analyze","protocol":"CHI"}},{{"cmd":"panic"}},{{"cmd":"analyze","protocol":"no-such-protocol"}}]}}"#
    )
    .expect("sending the batch");
    w.flush().expect("flushing the batch");

    let mut statuses = Vec::new();
    let summary = loop {
        let mut line = String::new();
        assert!(r.read_line(&mut line).expect("reading") > 0, "hung up mid-batch");
        let v = json::parse(line.trim()).expect("structured line");
        if v.get("cmd").and_then(json::Json::as_str) == Some("batch") {
            break v;
        }
        statuses.push(
            v.get("status")
                .and_then(json::Json::as_str)
                .expect("item line has a status")
                .to_string(),
        );
    };
    assert_eq!(statuses, ["ok", "panicked", "error"], "per-item isolation broke");
    assert_eq!(summary.get("items").and_then(json::Json::as_u64), Some(3));
    assert_eq!(summary.get("ok").and_then(json::Json::as_u64), Some(1));
    assert_eq!(summary.get("panicked").and_then(json::Json::as_u64), Some(1));
    assert_eq!(summary.get("errors").and_then(json::Json::as_u64), Some(1));
    shutdown(child);
}

/// An inline `mc` with `progress:true` streams level-boundary events
/// before the final verdict line.
#[test]
fn progress_events_stream_ahead_of_the_mc_verdict() {
    let (child, addr) = spawn_serve(&[]);
    let (mut w, mut r) = connect(&addr);
    writeln!(
        w,
        r#"{{"id":"p1","cmd":"mc","protocol":"MSI-nonblocking-cache","progress":true,"budget":{{"nodes":20000}}}}"#
    )
    .expect("sending the mc request");
    w.flush().expect("flushing");

    let mut events = 0usize;
    let mut last_level = 0u64;
    let verdict = loop {
        let mut line = String::new();
        assert!(r.read_line(&mut line).expect("reading") > 0, "hung up mid-stream");
        let v = json::parse(line.trim()).expect("structured line");
        if v.get("event").and_then(json::Json::as_str) == Some("progress") {
            assert!(v.get("status").is_none(), "progress is not a response: {v:?}");
            let level = v.get("level").and_then(json::Json::as_u64).expect("level");
            assert!(level > last_level, "levels must be strictly increasing");
            last_level = level;
            assert!(v.get("states").and_then(json::Json::as_u64).unwrap_or(0) > 0);
            events += 1;
            continue;
        }
        break v;
    };
    assert!(events > 0, "no progress events arrived before the verdict");
    assert!(
        verdict.get("status").is_some(),
        "stream must end with a real response: {verdict:?}"
    );
    shutdown(child);
}

/// Every cacheable command shape as a request line body: `analyze`, then
/// `mc` × `vns` × `symmetry` × `parameterized`.
fn cacheable_shapes() -> Vec<String> {
    let mut shapes = vec![r#""cmd":"analyze""#.to_string()];
    for vns in ["minimal", "single", "unique"] {
        for symmetry in [false, true] {
            for parameterized in [false, true] {
                shapes.push(format!(
                    r#""cmd":"mc","vns":"{vns}","symmetry":{symmetry},"parameterized":{parameterized}"#
                ));
            }
        }
    }
    shapes
}

/// A request line for `shape` on the inline spec `text`.
fn inline_line(id: &str, shape: &str, text: &str) -> String {
    let spec = json::Json::str(text).render();
    format!(r#"{{"id":"{id}",{shape},"spec":{spec}}}"#)
}

/// The per-process memo of built-in store keys must hand out exactly
/// the key a fresh derivation computes, for every Table I built-in and
/// every cacheable command shape, on every read and from any thread.
/// Distinct shapes must never share a slot.
#[test]
fn memoized_builtin_keys_equal_a_fresh_derivation() {
    use vnet::serve::exec::{admission_key, store_key};
    let requests: Vec<vnet::serve::Request> = vnet::protocol::protocols::all()
        .iter()
        .flat_map(|spec| {
            cacheable_shapes().into_iter().map(move |shape| {
                let line = format!(r#"{{{shape},"protocol":"{}"}}"#, spec.name());
                vnet::serve::parse_request(&line).expect("a well-formed request")
            })
        })
        .collect();
    assert_eq!(requests.len(), 9 * 13);
    let read_all = || -> Vec<_> {
        requests
            .iter()
            .map(|req| {
                let (first, resolved) = admission_key(req);
                assert!(resolved.is_none(), "a built-in is never resolved at admission");
                let (second, _) = admission_key(req);
                assert_eq!(first, second, "two reads of one slot disagree");
                first
            })
            .collect()
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(read_all);
        let b = s.spawn(read_all);
        (a.join().expect("reader thread"), b.join().expect("reader thread"))
    });
    let fresh: Vec<_> = requests.iter().map(store_key).collect();
    assert_eq!(a, fresh, "memoized keys differ from a fresh derivation");
    assert_eq!(b, fresh, "memoized keys differ from a fresh derivation");
    // Every shape of every built-in is cacheable, so the comparison
    // above is over keys, not over `None`s. (Keys may repeat across
    // shapes: a Class 2 protocol's minimal map is its unique map.)
    assert!(fresh.iter().all(Option::is_some), "a built-in request has no key");
}

/// A file and a built-in share one store entry: an inline request
/// carrying a built-in's own DSL export hits the record stored under
/// the built-in's name, for `analyze` and for `mc`.
#[test]
fn inline_export_of_a_builtin_hits_the_builtin_record() {
    let dir = tmp_dir("inline-hit");
    let (child, addr) = spawn_serve(&["--store-dir", dir.to_str().expect("utf-8 path")]);
    let (mut w, mut r) = connect(&addr);
    let name = "MSI-nonblocking-cache";
    let text = vnet::protocol::dsl::to_text(
        &vnet::protocol::protocols::by_name(name).expect("a built-in"),
    );
    for (i, shape) in [r#""cmd":"analyze""#, r#""cmd":"mc","vns":"unique""#]
        .iter()
        .enumerate()
    {
        let by_name = format!(r#"{{"id":"n{i}",{shape},"protocol":"{name}"}}"#);
        let first = roundtrip(&mut w, &mut r, &by_name);
        assert_eq!(provenance(&first), Some("exact"), "{first:?}");
        let inline = roundtrip(&mut w, &mut r, &inline_line(&format!("s{i}"), shape, &text));
        assert_eq!(provenance(&inline), Some("cached"), "{inline:?}");
        let strip = |v: &json::Json| match v {
            json::Json::Obj(m) => m
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "id" | "provenance" | "wall_ms"))
                .map(|(k, v)| (k.clone(), v.render()))
                .collect::<Vec<_>>(),
            other => panic!("a response is an object: {other:?}"),
        };
        assert_eq!(strip(&first), strip(&inline), "cached fields differ");
    }
    shutdown(child);
    let _ = std::fs::remove_dir_all(dir);
}

/// Admission resolves an inline spec to derive its key, and the worker
/// reuses that resolution and that key: k cold inline `analyze`
/// requests resolve k times, not 2k, and render their spec for the key
/// k times, one by one and as a batch. An unparseable spec still
/// answers with its positioned `bad spec` error, resolved once and
/// never rendered.
#[test]
fn cold_inline_requests_resolve_their_spec_once() {
    let dir = tmp_dir("resolve-once");
    let (child, addr) = spawn_serve(&["--store-dir", dir.to_str().expect("utf-8 path")]);
    let (mut w, mut r) = connect(&addr);
    // (resolves, renders) so far.
    let resolves = |w: &mut _, r: &mut _| {
        let m = roundtrip(w, r, r#"{"id":"m","cmd":"metrics"}"#);
        let counter = |name| {
            m.get("registry")
                .and_then(|r| r.get("counters"))
                .and_then(|c| c.get(name))
                .and_then(json::Json::as_u64)
                .unwrap_or(0)
        };
        (
            counter("serve.spec_resolves_total"),
            counter("serve.spec_renders_total"),
        )
    };
    let delta = |after: (u64, u64), before: (u64, u64)| (after.0 - before.0, after.1 - before.1);
    let texts: Vec<String> = vnet::protocol::protocols::all()
        .iter()
        .map(vnet::protocol::dsl::to_text)
        .collect();
    let analyze = r#""cmd":"analyze""#;

    // One request per line.
    let before = resolves(&mut w, &mut r);
    for (i, text) in texts[..3].iter().enumerate() {
        let v = roundtrip(&mut w, &mut r, &inline_line(&format!("a{i}"), analyze, text));
        assert_eq!(provenance(&v), Some("exact"), "a cold request is computed: {v:?}");
    }
    let d = delta(resolves(&mut w, &mut r), before);
    assert_eq!(d, (3, 3), "single requests resolved or rendered twice");

    // The same through a batch.
    let before = resolves(&mut w, &mut r);
    let items: Vec<String> = texts[3..6]
        .iter()
        .enumerate()
        .map(|(i, text)| inline_line(&format!("b{i}"), analyze, text))
        .collect();
    writeln!(w, r#"{{"id":"b","cmd":"batch","items":[{}]}}"#, items.join(","))
        .expect("sending the batch");
    w.flush().expect("flushing the batch");
    for _ in 0..=items.len() {
        let mut line = String::new();
        assert!(r.read_line(&mut line).expect("reading") > 0, "hung up mid-batch");
        let v = json::parse(line.trim()).expect("structured line");
        assert_eq!(v.get("status").and_then(json::Json::as_str), Some("ok"), "{v:?}");
    }
    let d = delta(resolves(&mut w, &mut r), before);
    assert_eq!(d, (3, 3), "batch items resolved or rendered twice");

    // A spec that does not parse: the same error text the parser gives,
    // from one resolution.
    let bad = "protocol Broken\nthis is not a table";
    let want = match vnet::protocol::dsl::parse(bad) {
        Err(e) => format!("bad spec: {e}"),
        Ok(_) => panic!("the broken spec parsed"),
    };
    let before = resolves(&mut w, &mut r);
    let v = roundtrip(&mut w, &mut r, &inline_line("bad", analyze, bad));
    assert_eq!(v.get("status").and_then(json::Json::as_str), Some("error"), "{v:?}");
    assert_eq!(v.get("reason").and_then(json::Json::as_str), Some("bad_request"));
    assert_eq!(v.get("detail").and_then(json::Json::as_str), Some(want.as_str()));
    let d = delta(resolves(&mut w, &mut r), before);
    assert_eq!(d, (1, 0), "a bad spec resolved twice or rendered");

    shutdown(child);
    let _ = std::fs::remove_dir_all(dir);
}

/// A spec that writes one core-event cell twice, once bare and once
/// with a guard, is a bad request with the parser's positioned error:
/// admission's resolution neither panics its connection thread nor
/// leaves the client without an answer, and the daemon keeps serving.
#[test]
fn a_cell_written_twice_through_a_guard_is_a_bad_request() {
    let dir = tmp_dir("dup-core-cell");
    let (child, addr) = spawn_serve(&["--store-dir", dir.to_str().expect("utf-8 path")]);
    let (mut w, mut r) = connect(&addr);
    let spec = "protocol bad\nmessage Get req\ncache-states stable: I V\n\
                dir-states stable: I\ncache I Load = send Get Dir\n\
                cache I Load[ack=0] = stall\n";
    let want = match vnet::protocol::dsl::parse(spec) {
        Err(e) => format!("bad spec: {e}"),
        Ok(_) => panic!("the spec parsed"),
    };
    assert!(
        want.starts_with("bad spec: line 6: duplicate cell"),
        "{want}"
    );
    let v = roundtrip(
        &mut w,
        &mut r,
        &inline_line("dup", r#""cmd":"analyze""#, spec),
    );
    assert_eq!(
        v.get("status").and_then(json::Json::as_str),
        Some("error"),
        "{v:?}"
    );
    assert_eq!(
        v.get("reason").and_then(json::Json::as_str),
        Some("bad_request")
    );
    assert_eq!(
        v.get("detail").and_then(json::Json::as_str),
        Some(want.as_str())
    );
    let pong = roundtrip(&mut w, &mut r, r#"{"id":"p","cmd":"ping"}"#);
    assert_eq!(
        pong.get("status").and_then(json::Json::as_str),
        Some("ok"),
        "{pong:?}"
    );
    shutdown(child);
    let _ = std::fs::remove_dir_all(dir);
}
