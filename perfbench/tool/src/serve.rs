//! The serve-mix side of the benchmark: the seeded request stream, the
//! store pre-fill, the closed-loop client, and the in-process timing of
//! the protocol, core, json and store layers on the stream's inputs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vnet_graph::Rng64;
use vnet_protocol::{dsl, protocols, ProtocolSpec};
use vnet_serve::json::{self, Json};
use vnet_store::{Key, RecordKind, Store};

/// Gap, in stream positions, between a mutant's cold request and its
/// first repeat: with two requests in flight at most, the cold answer
/// has long been written through when the repeat is sent.
const REPEAT_GAP: usize = 64;

fn request(id: usize, cmd: &str, proto: (&str, &str)) -> String {
    Json::obj(vec![
        ("id", Json::num(id as u64)),
        ("cmd", Json::str(cmd)),
        (proto.0, Json::str(proto.1)),
    ])
    .render()
}

/// Seeded fuzz mutants of the Table I builtins that parse and validate,
/// rendered as DSL text, distinct from each other and from the bases.
fn mutants(seed: u64, count: usize) -> Vec<String> {
    let bases = protocols::all();
    let mut rng = Rng64::seed_from_u64(seed);
    std::panic::set_hook(Box::new(|_| {}));
    let mut seen: std::collections::HashSet<String> = bases.iter().map(dsl::to_text).collect();
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 50 {
        attempts += 1;
        let base = &bases[rng.gen_range(0, bases.len())];
        let (mutant, ops) = vnet_fuzz::generate(base, &mut rng, 3);
        if ops.is_empty() {
            continue;
        }
        let text = dsl::to_text(&mutant);
        // Some rendered mutants make the parser panic instead of
        // returning an error; they do not parse, so they are skipped.
        let Ok(Ok(parsed)) = std::panic::catch_unwind(|| dsl::parse(&text)) else {
            continue;
        };
        if parsed.validate().is_err() || !seen.insert(text.clone()) {
            continue;
        }
        out.push(text);
    }
    drop(std::panic::take_hook());
    out
}

/// Writes the request stream: one JSON object per line with the
/// benchmark's own bookkeeping (`kind`, `key`) and the rendered request
/// line the daemon receives (`req`). Kinds: `hit-analyze` and `hit-mc`
/// (Table I builtins; `mc_hits` names the ones whose `mc` answer is
/// repeated), `cold` (a mutant's first request) and `repeat` (a later
/// request for the same mutant).
pub fn write_stream(
    out: &Path,
    seed: u64,
    len: usize,
    miss_pct: usize,
    mc_hits: &[&str],
) -> Result<(), String> {
    let builtins: Vec<String> = protocols::all()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let n_cold = len * miss_pct / 100;
    let muts = mutants(seed ^ 0x6d75_7461_6e74, n_cold);
    if muts.len() < n_cold {
        return Err(format!(
            "only {} of {n_cold} mutants parse and validate",
            muts.len()
        ));
    }
    let mut rng = Rng64::seed_from_u64(seed);
    let mut next_cold = 0usize;
    // (position due, mutant index) of repeats not yet emitted
    let mut due: std::collections::VecDeque<(usize, usize)> = Default::default();
    let mut lines = String::new();
    for i in 0..len {
        let (kind, key, req) = if due.front().is_some_and(|&(at, _)| at <= i) {
            let (_, m) = due.pop_front().expect("front checked");
            (
                "repeat",
                format!("m{m}"),
                request(i, "analyze", ("spec", &muts[m])),
            )
        } else if next_cold < n_cold && rng.gen_range(0, 100) < miss_pct {
            let m = next_cold;
            next_cold += 1;
            due.push_back((i + REPEAT_GAP, m));
            (
                "cold",
                format!("m{m}"),
                request(i, "analyze", ("spec", &muts[m])),
            )
        } else if rng.gen_range(0, 4) == 0 {
            let name = mc_hits[rng.gen_range(0, mc_hits.len())];
            (
                "hit-mc",
                name.to_string(),
                request(i, "mc", ("protocol", name)),
            )
        } else {
            let name = &builtins[rng.gen_range(0, builtins.len())];
            (
                "hit-analyze",
                name.clone(),
                request(i, "analyze", ("protocol", name)),
            )
        };
        let line = Json::obj(vec![
            ("kind", Json::str(kind)),
            ("key", Json::str(key)),
            ("req", Json::str(req)),
        ]);
        lines.push_str(&line.render());
        lines.push('\n');
    }
    std::fs::write(out, lines).map_err(|e| format!("{}: {e}", out.display()))
}

/// A representative analyze body, so pre-filled records have the size
/// of real ones.
const PREFILL_BODY: &str = r#"{"cmd":"analyze","min_vns":2,"protocol":"prefill","provenance":"exact","textbook_vns":4,"vns":[["GetS","GetM","PutM","PutS"],["Fwd-GetS","Fwd-GetM","Inv","Put-Ack","Data","Inv-Ack"]],"wall_ms":1}"#;

/// Fills `dir` with `records` analyze records under keys no request in
/// the stream can derive.
pub fn prefill(dir: &Path, records: usize) -> Result<(), String> {
    let mut store = Store::open(dir).map_err(|e| e.to_string())?;
    for i in 0..records {
        let key = Key::derive(&[b"analyze/1", format!("perfbench-prefill-{i}").as_bytes()]);
        store
            .put(key, RecordKind::Analyze, PREFILL_BODY)
            .map_err(|e| e.to_string())?;
    }
    if store.len() != records {
        return Err(format!(
            "pre-fill holds {} records, wanted {records}",
            store.len()
        ));
    }
    Ok(())
}

/// Drives the stream's request lines through `conns` closed-loop
/// connections until the stream ends or `seconds` pass, then writes one
/// `{"i", "rtt_us", "resp"}` line per answered request and prints the
/// loop's wall time. A request whose connection fails is recorded with
/// an empty `resp`.
pub fn client(
    addr: &str,
    stream: &Path,
    conns: usize,
    seconds: f64,
    out: &Path,
) -> Result<(), String> {
    let text = std::fs::read_to_string(stream).map_err(|e| format!("{}: {e}", stream.display()))?;
    let reqs: Vec<String> = text
        .lines()
        .map(|l| {
            json::parse(l)
                .ok()
                .and_then(|v| v.get("req").and_then(Json::as_str).map(str::to_string))
                .ok_or_else(|| format!("bad stream line: {l}"))
        })
        .collect::<Result<_, _>>()?;
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, u64, String)>> = Mutex::new(Vec::with_capacity(reqs.len()));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let run = || -> Result<(), String> {
                    let sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    sock.set_nodelay(true).map_err(|e| e.to_string())?;
                    let mut reader = BufReader::new(sock.try_clone().map_err(|e| e.to_string())?);
                    let mut writer = sock;
                    let mut line = String::new();
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        let t = Instant::now();
                        line.clear();
                        let ok = writer
                            .write_all(req.as_bytes())
                            .and_then(|_| writer.write_all(b"\n"))
                            .and_then(|_| reader.read_line(&mut line));
                        let rtt = t.elapsed().as_micros() as u64;
                        match ok {
                            Ok(n) if n > 0 => mine.push((i, rtt, line.trim_end().to_string())),
                            _ => {
                                mine.push((i, rtt, String::new()));
                                break;
                            }
                        }
                    }
                    results.lock().expect("results lock poisoned").extend(mine);
                    Ok(())
                };
                if let Err(e) = run() {
                    errors.lock().expect("errors lock poisoned").push(e);
                }
            });
        }
    });
    let errors = errors.into_inner().expect("errors lock poisoned");
    if let Some(e) = errors.first() {
        return Err(e.clone());
    }
    let wall_s = started.elapsed().as_secs_f64();
    let mut results = results.into_inner().expect("results lock poisoned");
    results.sort_by_key(|r| r.0);
    let mut body = String::new();
    for (i, rtt, resp) in results {
        let line = Json::obj(vec![
            ("i", Json::num(i as u64)),
            ("rtt_us", Json::num(rtt)),
            ("resp", Json::str(resp)),
        ]);
        body.push_str(&line.render());
        body.push('\n');
    }
    std::fs::write(out, body).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("{{\"wall_s\": {wall_s}}}");
    Ok(())
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median per-call times of the analyzer's phases, and the FAS/coloring
/// work counters per analysis, over `specs`.
pub fn core_phases(specs: &[ProtocolSpec], out: &mut Vec<(String, f64)>) {
    use vnet_core::assignment::minimize_vns_from_relations;
    use vnet_core::{causes::compute_causes, stalls::compute_stalls, waits::waits_from};
    let (mut c, mut st, mut w, mut m) = (vec![], vec![], vec![], vec![]);
    vnet_obs::set_metrics_enabled(true);
    let fas0 = vnet_obs::counter("fas.nodes_total").get();
    let col0 = vnet_obs::counter("coloring.backtracks_total").get();
    for spec in specs {
        let t = Instant::now();
        let causes = std::hint::black_box(compute_causes(spec));
        c.push(us(t));
        let t = Instant::now();
        let (stalls, _) = std::hint::black_box(compute_stalls(spec));
        st.push(us(t));
        let t = Instant::now();
        let waits = std::hint::black_box(waits_from(&stalls, &causes));
        w.push(us(t));
        let t = Instant::now();
        std::hint::black_box(minimize_vns_from_relations(spec, &waits));
        m.push(us(t));
    }
    let n = specs.len().max(1) as f64;
    let fas = (vnet_obs::counter("fas.nodes_total").get() - fas0) as f64 / n;
    let col = (vnet_obs::counter("coloring.backtracks_total").get() - col0) as f64 / n;
    vnet_obs::set_metrics_enabled(false);
    out.push(("core.causes_us".into(), median(c)));
    out.push(("core.stalls_us".into(), median(st)));
    out.push(("core.waits_us".into(), median(w)));
    out.push(("core.minimize_us".into(), median(m)));
    out.push(("graph.fas_nodes".into(), fas));
    out.push(("graph.coloring_backtracks".into(), col));
}

/// In-process timings of the protocol, core, json and store layers on
/// the stream's inputs: every mutant's DSL text and request line, and a
/// copy of the pre-filled store at `store_dir`.
pub fn layers(
    stream: &Path,
    store_dir: &Path,
    scratch: &Path,
) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(stream).map_err(|e| format!("{}: {e}", stream.display()))?;
    let mut req_lines = Vec::new();
    let mut dsl_texts = Vec::new();
    for l in text.lines() {
        let v = json::parse(l).map_err(|e| format!("bad stream line: {e}"))?;
        let req = v
            .get("req")
            .and_then(Json::as_str)
            .ok_or("stream line without req")?;
        if v.get("kind").and_then(Json::as_str) == Some("cold") {
            let r = json::parse(req).map_err(|e| format!("bad request: {e}"))?;
            dsl_texts.push(
                r.get("spec")
                    .and_then(Json::as_str)
                    .ok_or("cold without spec")?
                    .to_string(),
            );
        }
        req_lines.push(req.to_string());
    }
    let mut out = Vec::new();

    let (mut parse, mut validate, mut specs) = (vec![], vec![], vec![]);
    let mut spec_bytes = 0usize;
    for t in &dsl_texts {
        spec_bytes += t.len();
        let c = Instant::now();
        let spec = dsl::parse(t).map_err(|e| format!("mutant does not parse: {e}"))?;
        parse.push(us(c));
        let c = Instant::now();
        spec.validate()
            .map_err(|e| format!("mutant does not validate: {e}"))?;
        validate.push(us(c));
        specs.push(spec);
    }
    out.push(("protocol.parse_us".into(), median(parse)));
    out.push(("protocol.validate_us".into(), median(validate)));
    out.push((
        "protocol.spec_bytes".into(),
        spec_bytes as f64 / dsl_texts.len().max(1) as f64,
    ));
    core_phases(&specs, &mut out);

    let (mut jp, mut jr) = (vec![], vec![]);
    for l in &req_lines {
        let c = Instant::now();
        let v = std::hint::black_box(json::parse(l).map_err(|e| format!("bad request: {e}"))?);
        jp.push(us(c));
        let c = Instant::now();
        std::hint::black_box(v.render());
        jr.push(us(c));
    }
    out.push(("serve.json_parse_us".into(), median(jp)));
    out.push(("serve.json_render_us".into(), median(jr)));

    let mut opens = Vec::new();
    let mut store = None;
    for _ in 0..3 {
        let c = Instant::now();
        let s = Store::open(store_dir).map_err(|e| e.to_string())?;
        opens.push(c.elapsed().as_secs_f64());
        store = Some(s);
    }
    let store = store.expect("opened three times");
    let n = store.len();
    let mut gets = Vec::new();
    for i in (0..n).step_by((n / 2000).max(1)) {
        let key = Key::derive(&[b"analyze/1", format!("perfbench-prefill-{i}").as_bytes()]);
        let c = Instant::now();
        let hit = std::hint::black_box(store.get(&key)).is_some();
        gets.push(us(c));
        if !hit {
            return Err(format!("pre-filled record {i} is missing"));
        }
    }
    out.push(("store.open_s".into(), median(opens)));
    out.push(("store.records".into(), n as f64));
    out.push(("store.get_us".into(), median(gets)));
    out.push(("store.log_mb".into(), store.log_bytes() as f64 / 1e6));
    drop(store);

    let mut fresh = Store::open(scratch).map_err(|e| e.to_string())?;
    let mut puts = Vec::new();
    for i in 0..200 {
        let key = Key::derive(&[b"analyze/1", format!("perfbench-put-{i}").as_bytes()]);
        let c = Instant::now();
        fresh
            .put(key, RecordKind::Analyze, PREFILL_BODY)
            .map_err(|e| e.to_string())?;
        puts.push(us(c));
    }
    out.push(("store.put_us".into(), median(puts)));
    Ok(out)
}
