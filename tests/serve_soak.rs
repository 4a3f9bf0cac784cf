//! Soak test: hundreds of mixed requests — valid work, malformed JSON,
//! oversized lines, deliberate worker panics, deadline-busting jobs,
//! memory-limited jobs, and mid-flight disconnects — hammered over
//! concurrent connections. The daemon must answer every request with a
//! structured line, keep its RSS bounded, survive everything, and still
//! drain to a clean exit 0 at the end.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use vnet::serve::json;

#[path = "support/daemon.rs"]
mod daemon;
use daemon::DaemonGuard;

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 90; // 540 lockstep requests overall
const RSS_CEILING_KB: u64 = 1_500_000; // 1.5 GiB — far above a healthy daemon

fn spawn_serve() -> (DaemonGuard, String) {
    let mut child = DaemonGuard::new(
        Command::new(env!("CARGO_BIN_EXE_vnet"))
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "4",
                "--queue",
                "16",
                "--deadline",
                "2s",
                "--mem-budget",
                "33554432", // 32 MiB accounted per request
                "--max-request-bytes",
                "8192",
                "--drain-grace",
                "1s",
                "--enable-test-faults",
            ])
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
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("banner ends with the address")
        .to_string();
    (child, addr)
}

/// The request mix, by slot. Slot 7 is "oversized line", slot 8 is
/// "mid-flight disconnect" (handled by the caller, not sent lockstep).
fn request_for(client: usize, i: usize) -> String {
    let id = format!("c{client}-r{i}");
    match i % 12 {
        0 => format!(r#"{{"id":"{id}","cmd":"ping"}}"#),
        1 => format!(r#"{{"id":"{id}","cmd":"analyze","protocol":"CHI"}}"#),
        2 => format!(
            r#"{{"id":"{id}","cmd":"analyze","protocol":"MOESI-nonblocking-cache"}}"#
        ),
        3 => format!(
            r#"{{"id":"{id}","cmd":"mc","protocol":"MESI-nonblocking-cache","budget":{{"nodes":15000}}}}"#
        ),
        // Memory-limited: a 2 MiB accounted cap degrades the explorer
        // long before the state space ends.
        4 => format!(
            r#"{{"id":"{id}","cmd":"mc","protocol":"MSI-nonblocking-cache","budget":{{"mem_bytes":2097152}}}}"#
        ),
        5 => format!(
            r#"{{"id":"{id}","cmd":"sim","protocol":"MESI-nonblocking-cache","ops":8,"seed":{i}}}"#
        ),
        6 => format!(
            r#"{{"id":"{id}","cmd":"sim","protocol":"MOSI-nonblocking-cache","ops":6,"faults":"drop=0.05,dup=0.05"}}"#
        ),
        // Malformed / hostile inputs:
        7 => "this is not json at all {{{".to_string(),
        8 => format!(r#"{{"id":"{id}","cmd":"frobnicate","protocol":"CHI"}}"#),
        9 => format!(r#"{{"id":"{id}","cmd":"analyze","protocol":"CHI","budget":{{"nodes":0}}}}"#),
        10 => format!(r#"{{"id":"{id}","cmd":"panic"}}"#),
        // Oversized sim shed at admission:
        _ => format!(
            r#"{{"id":"{id}","cmd":"sim","protocol":"CHI","ops":999999,"max_cycles":9}}"#
        ),
    }
}

fn client_worker(addr: String, client: usize) -> Vec<String> {
    let stream = TcpStream::connect(&addr).expect("connecting to the daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("setting a read timeout");
    let mut w = stream.try_clone().expect("cloning the stream");
    let mut r = BufReader::new(stream);
    let mut statuses = Vec::new();

    for i in 0..REQUESTS_PER_CLIENT {
        // Every 20th slot: a mid-flight disconnect on a throwaway
        // connection — send a slow request and hang up immediately.
        if i % 20 == 19 {
            let mut burn = TcpStream::connect(&addr).expect("connecting the throwaway");
            writeln!(
                burn,
                r#"{{"id":"gone-{client}-{i}","cmd":"mc","protocol":"MSI-nonblocking-cache"}}"#
            )
            .expect("sending the abandoned request");
            burn.flush().expect("flushing the abandoned request");
            drop(burn);
        }

        let line = if i % 12 == 7 && i % 24 == 7 {
            // Oversized line: exceeds --max-request-bytes, must come
            // back as a structured too_large rejection.
            format!(r#"{{"id":"big","cmd":"analyze","pad":"{}"}}"#, "x".repeat(16_000))
        } else {
            request_for(client, i)
        };
        writeln!(w, "{line}").expect("sending a request");
        w.flush().expect("flushing a request");

        let mut resp = String::new();
        let n = r.read_line(&mut resp).expect("reading a response");
        assert!(n > 0, "daemon hung up mid-soak (client {client}, i {i})");
        assert!(resp.ends_with('\n'), "torn response: {resp:?}");
        let v = json::parse(resp.trim())
            .unwrap_or_else(|e| panic!("unstructured response {resp:?}: {e}"));
        let status = v
            .get("status")
            .and_then(json::Json::as_str)
            .unwrap_or_else(|| panic!("response without status: {resp:?}"))
            .to_string();
        assert!(
            ["ok", "error", "rejected", "cancelled", "panicked"].contains(&status.as_str()),
            "status outside the taxonomy: {resp:?}"
        );
        statuses.push(status);
    }
    statuses
}

/// Sends one `metrics` request on a fresh connection and returns the
/// parsed response. The probe is answered inline, so it works even
/// while the pool is busy.
fn query_metrics(addr: &str) -> json::Json {
    let stream = TcpStream::connect(addr).expect("connecting for metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("setting a read timeout");
    let mut w = stream.try_clone().expect("cloning the stream");
    let mut r = BufReader::new(stream);
    writeln!(w, r#"{{"id":"metrics-probe","cmd":"metrics"}}"#).expect("sending metrics");
    w.flush().expect("flushing metrics");
    let mut resp = String::new();
    r.read_line(&mut resp).expect("reading the metrics response");
    json::parse(resp.trim()).expect("metrics response is valid JSON")
}

fn counter_of(m: &json::Json, key: &str) -> u64 {
    m.get("counters")
        .and_then(|c| c.get(key))
        .and_then(json::Json::as_u64)
        .unwrap_or_else(|| panic!("metrics response without counters.{key}: {m:?}"))
}

fn rss_kb(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn soak_500_mixed_requests_without_a_crash() {
    let (child, addr) = spawn_serve();
    let pid = child.id();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || client_worker(addr, c))
        })
        .collect();

    // Watch the daemon's RSS while the fleet hammers it.
    let mut peak_rss = 0u64;
    let mut done = 0;
    let mut results: Vec<Option<Vec<String>>> = (0..CLIENTS).map(|_| None).collect();
    let mut pending: Vec<_> = handles.into_iter().map(Some).collect();
    let deadline = Instant::now() + Duration::from_secs(240);
    while done < CLIENTS {
        assert!(Instant::now() < deadline, "soak did not finish in time");
        if let Some(kb) = rss_kb(pid) {
            peak_rss = peak_rss.max(kb);
        }
        for (i, slot) in pending.iter_mut().enumerate() {
            let finished = slot.as_ref().is_some_and(|h| h.is_finished());
            if finished {
                let h = slot.take().expect("slot was just checked");
                results[i] = Some(h.join().expect("client thread must not panic"));
                done += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let statuses: Vec<String> = results
        .into_iter()
        .flat_map(|r| r.expect("every client finished"))
        .collect();
    assert_eq!(statuses.len(), CLIENTS * REQUESTS_PER_CLIENT);
    let count = |s: &str| statuses.iter().filter(|x| x.as_str() == s).count();
    // The mix guarantees every taxonomy arm fires.
    assert!(count("ok") > 0, "no successes in the soak");
    assert!(count("error") > 0, "no client errors in the soak");
    assert!(count("rejected") > 0, "no shed requests in the soak");
    assert!(count("panicked") > 0, "worker panics were not surfaced");
    assert!(
        peak_rss < RSS_CEILING_KB,
        "daemon RSS grew to {peak_rss} kB under soak"
    );

    // Reconcile the server-side metrics counters with the tally the
    // clients observed. Pings are answered inline and deliberately
    // uncounted; the abandoned (mid-flight disconnect) requests are
    // counted server-side but never observed client-side, so the
    // abandoned total must close the gap exactly.
    let pings = CLIENTS * (0..REQUESTS_PER_CLIENT).filter(|i| i % 12 == 0).count();
    let abandoned = CLIENTS * (0..REQUESTS_PER_CLIENT).filter(|i| i % 20 == 19).count();
    let expected_submitted = (statuses.len() - pings + abandoned) as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    let metrics = loop {
        let m = query_metrics(&addr);
        let submitted = counter_of(&m, "submitted");
        assert!(
            submitted <= expected_submitted,
            "server counted more requests than were sent: {submitted} > {expected_submitted}"
        );
        if submitted == expected_submitted {
            break m;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned requests never settled: submitted {submitted} of {expected_submitted}"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    // Every answered request lands in exactly one status counter.
    assert_eq!(
        counter_of(&metrics, "submitted"),
        counter_of(&metrics, "completed")
            + counter_of(&metrics, "errors")
            + counter_of(&metrics, "rejected")
            + counter_of(&metrics, "cancelled")
            + counter_of(&metrics, "panicked"),
        "status taxonomy does not partition the submitted total: {metrics:?}"
    );
    // Error and panic verdicts come only from lockstep requests (the
    // abandoned ones are valid mc jobs), so those counters must match
    // the client tally exactly; shed/cancel/complete can also hit the
    // abandoned requests, so they only carry lower bounds.
    assert_eq!(counter_of(&metrics, "errors"), count("error") as u64);
    assert_eq!(counter_of(&metrics, "panicked"), count("panicked") as u64);
    assert!(counter_of(&metrics, "rejected") >= count("rejected") as u64);
    assert_eq!(
        counter_of(&metrics, "completed")
            + counter_of(&metrics, "cancelled")
            + counter_of(&metrics, "rejected"),
        (count("ok") - pings + count("cancelled") + count("rejected") + abandoned) as u64,
        "abandoned requests must settle as completed, cancelled, or shed"
    );
    // Idle daemon: nothing left queued, and the registry mirrors ride
    // along with the standard snapshot shape.
    assert_eq!(
        metrics.get("queue_depth").and_then(json::Json::as_u64),
        Some(0)
    );
    let registry = metrics.get("registry").expect("registry in the response");
    for section in ["counters", "gauges", "histograms"] {
        assert!(registry.get(section).is_some(), "registry.{section} missing");
    }
    assert!(
        registry
            .get("histograms")
            .and_then(|h| h.get("serve.request_wall_ms"))
            .is_some(),
        "per-request latency histogram missing: {registry:?}"
    );

    // The daemon survived everything; it must still drain cleanly.
    let ok = Command::new("kill")
        .arg("-TERM")
        .arg(pid.to_string())
        .status()
        .expect("running kill")
        .success();
    assert!(ok, "kill -TERM failed");
    let code = wait_exit(child, 60);
    assert_eq!(code, 0, "post-soak drain must exit 0");
}

fn wait_exit(mut child: DaemonGuard, secs: u64) -> i32 {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            return st.code().expect("exit code");
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not exit within {secs}s of drain"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}
