//! Graceful-drain guarantees of `vnet serve`, end to end against the
//! real binary:
//!
//! * SIGTERM mid-request: the in-flight request is answered with a
//!   complete, never-torn JSON line, and the daemon exits 0.
//! * Stop-file mid-request: same contract through the file trigger.
//! * A checkpointing `mc` request cancelled by drain leaves a loadable
//!   checkpoint on disk — verified by resuming it with the library and
//!   driving it to the uninterrupted verdict.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use vnet::serve::json;

#[path = "support/daemon.rs"]
mod daemon;
use daemon::DaemonGuard;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vnet-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("creating the test scratch dir");
    d
}

struct Daemon {
    child: DaemonGuard,
    addr: String,
}

/// Spawns `vnet serve` on an ephemeral port and waits for its
/// `listening on` banner.
fn spawn_serve(extra: &[&str]) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vnet"));
    cmd.arg("serve")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = DaemonGuard::new(cmd.spawn().expect("spawning vnet serve"));
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader
        .read_line(&mut banner)
        .expect("reading the listening banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("banner ends with the address")
        .to_string();
    assert!(
        banner.contains("listening on"),
        "unexpected banner: {banner}"
    );
    Daemon { child, addr }
}

/// Sends SIGTERM (std's `Child::kill` sends SIGKILL, which is exactly
/// what graceful drain must *not* need).
fn sigterm(child: &Child) {
    let ok = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("running kill")
        .success();
    assert!(ok, "kill -TERM failed");
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

/// A long-running request: the full MSI-nonblocking state space is
/// ~1M states (tens of seconds in a dev build), so it reliably
/// outlives the drain trigger.
const SLOW_MC: &str = r#"{"id":"slow","cmd":"mc","protocol":"MSI-nonblocking-cache","checkpoint":true}"#;

/// One complete response line, parsed — the "never torn" check.
fn read_response(stream: &TcpStream) -> json::Json {
    let mut reader = BufReader::new(stream.try_clone().expect("cloning the stream"));
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("reading the response");
    assert!(n > 0, "connection closed without a response");
    assert!(line.ends_with('\n'), "response line was torn: {line:?}");
    json::parse(line.trim()).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
}

/// Drives one slow request into a daemon and drains it with `trigger`.
/// `tag` names the scratch directory (and so the stop file): the tests
/// in this binary run in parallel and must not share one.
fn drain_mid_request(
    tag: &str,
    trigger: &dyn Fn(&Daemon, &PathBuf),
) -> (json::Json, i32, PathBuf) {
    let dir = tmp_dir(tag);
    let stop = dir.join("stop");
    let daemon = spawn_serve(&[
        "--workers",
        "2",
        "--drain-grace",
        "1s",
        "--checkpoint-dir",
        dir.to_str().expect("utf-8 tmp path"),
        "--stop-file",
        stop.to_str().expect("utf-8 tmp path"),
    ]);

    let stream = TcpStream::connect(&daemon.addr).expect("connecting to the daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("setting a read timeout");
    let mut w = stream.try_clone().expect("cloning the stream");
    writeln!(w, "{SLOW_MC}").expect("sending the request");
    w.flush().expect("flushing the request");

    // Let the worker get well into the exploration, then trigger drain.
    std::thread::sleep(Duration::from_millis(400));
    trigger(&daemon, &stop);

    let response = read_response(&stream);
    let code = wait_exit(daemon.child, 30);
    (response, code, dir)
}

fn assert_drained_response(v: &json::Json) {
    let status = v
        .get("status")
        .and_then(json::Json::as_str)
        .expect("response has a status");
    match status {
        // The expected path: drain cancelled it with reason=shutdown
        // and the partial exploration stats are attached.
        "cancelled" => {
            assert_eq!(
                v.get("reason").and_then(json::Json::as_str),
                Some("shutdown"),
                "{v:?}"
            );
            assert!(
                v.get("states").and_then(json::Json::as_u64).unwrap_or(0) > 0,
                "cancelled response carries no partial stats: {v:?}"
            );
        }
        // Legal on a fast machine: the request beat the grace period.
        "ok" => {}
        other => panic!("in-flight request ended as `{other}`: {v:?}"),
    }
}

#[test]
fn sigterm_mid_request_completes_the_response_and_exits_clean() {
    let (response, code, dir) =
        drain_mid_request("drain-sigterm", &|daemon, _| sigterm(&daemon.child));
    assert_drained_response(&response);
    assert_eq!(code, 0, "graceful drain must exit 0");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stop_file_mid_request_completes_the_response_and_exits_clean() {
    let (response, code, dir) = drain_mid_request("drain-stop-file", &|_, stop| {
        std::fs::write(stop, b"drain").expect("writing the stop file");
    });
    assert_drained_response(&response);
    assert_eq!(code, 0, "graceful drain must exit 0");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn drained_checkpoint_is_loadable_and_resumable() {
    let (response, code, dir) =
        drain_mid_request("drain-checkpoint", &|daemon, _| sigterm(&daemon.child));
    assert_eq!(code, 0);

    // The slow request cannot finish before the grace period, so drain
    // must have cancelled it and flushed its checkpoint.
    assert_eq!(
        response.get("status").and_then(json::Json::as_str),
        Some("cancelled"),
        "{response:?}"
    );
    let flushed_states = response
        .get("states")
        .and_then(json::Json::as_u64)
        .expect("cancelled mc response carries partial stats");
    let ckpt = PathBuf::from(
        response
            .get("checkpoint")
            .and_then(json::Json::as_str)
            .expect("cancelled checkpointing request names its checkpoint"),
    );
    assert!(ckpt.exists(), "no checkpoint at {}", ckpt.display());

    // Resume with the exact configuration serve used for this request
    // (figure3 scenario, the analyzer's minimal VN mapping) under a
    // small additional node budget: the checkpoint must load and the
    // exploration must pick up where the drain stopped it. Full
    // resume-to-verdict equivalence is covered by checkpoint_resume.rs.
    use vnet::core::{analyze, Budget, VnOutcome};
    use vnet::mc::{resume, CheckpointedRun, McConfig, VnMap};
    use vnet::protocol::protocols;
    let spec = protocols::extended()
        .into_iter()
        .find(|p| p.name() == "MSI-nonblocking-cache")
        .expect("MSI-nonblocking-cache is built in");
    let n_msgs = spec.messages().len();
    let vns = match analyze(&spec).outcome() {
        VnOutcome::Assigned { assignment, .. } => VnMap::from_assignment(assignment, n_msgs),
        VnOutcome::Class2(_) => panic!("MSI-nonblocking-cache is not Class 2"),
    };
    let cfg = McConfig::figure3(&spec).with_vns(vns);
    let budget = Budget::unlimited().with_node_limit(flushed_states + 20_000);
    let run = resume(&ckpt, &spec, &cfg, &budget, None, |_, _| {})
        .expect("the drained checkpoint must load");
    let v = match run {
        CheckpointedRun::Finished(v) => v,
        CheckpointedRun::Interrupted { .. } => panic!("no stop file configured on resume"),
    };
    assert!(
        v.stats().states > flushed_states as usize,
        "resume made no progress past the drained snapshot ({} vs {flushed_states})",
        v.stats().states
    );
    let _ = std::fs::remove_dir_all(dir);
}
