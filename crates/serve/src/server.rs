//! The daemon: admission control in front of a worker pool.
//!
//! ```text
//!  TCP / stdin ──lines──▶ admission ──try_push──▶ bounded queue
//!                            │ shed: queue_full / too_large /        │
//!                            │       shutting_down                   ▼
//!                            ▼                                 worker pool
//!                      structured rejection                (catch_unwind each)
//! ```
//!
//! Guarantees (see DESIGN.md "Service & admission-control semantics"):
//!
//! * **Bounded queueing.** Admission is `try_push` on a bounded queue;
//!   a full queue rejects immediately with a `retry_after_ms` hint.
//! * **Per-request deadline.** The watchdog fires each request's
//!   [`CancelToken`] when `deadline` elapses (measured from admission,
//!   so queue wait counts). Kernels observe it within one poll point.
//! * **Memory budget.** Every request's [`Budget`] carries
//!   `min(client mem_bytes, server --mem-budget)`.
//! * **Worker isolation.** Each request runs under `catch_unwind`; a
//!   panicking request yields a `panicked` response and the worker
//!   lives on.
//! * **Graceful drain.** SIGTERM, SIGINT, or the stop file close
//!   admission, finish in-flight work (a grace period, then a
//!   `Shutdown` cancel that checkpointing `mc` runs turn into a final
//!   flush), and never tear a response mid-line.

use crate::exec::{self, ExecError, ExecResult};
use crate::proto::{self, Command, RejectReason, Request};
use crate::queue::{BoundedQueue, PushError};
use crate::signal;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vnet_graph::{CancelReason, CancelToken, DegradeReason, Provenance};

/// Shared line-oriented output sink. Workers take the lock, write the
/// whole line plus `\n`, and flush — responses are never torn.
pub type LineOut = Arc<Mutex<Box<dyn Write + Send>>>;

/// Writes one response line atomically. Write errors are swallowed:
/// the client is gone and the cancellation path already covers it.
pub fn write_line(out: &LineOut, line: &str) {
    // One write_all for line-plus-newline, not two: a separate 1-byte
    // `\n` write becomes its own TCP segment, and Nagle holds it for
    // the peer's delayed ACK (~40ms) — which would put a hard floor
    // under every response, cache hits included.
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    let mut g = out.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = g.write_all(&buf);
    let _ = g.flush();
}

/// Longest retry hint a `rejected{queue_full}` response will carry.
/// Past this, a longer queue carries no extra information for the
/// client — "come back in a few seconds" is the honest ceiling.
const MAX_RETRY_HINT_MS: u64 = 5_000;

/// Deterministic backoff hint for a full queue: one 25 ms queue-slot
/// service estimate per waiting request, saturating at
/// [`MAX_RETRY_HINT_MS`]. Clients treat it as a floor, not a lease.
/// Saturating arithmetic plus the cap keeps the hint meaningful (and
/// overflow-free) no matter how large the queue length is.
fn retry_hint_ms(queue_len: usize) -> u64 {
    (queue_len as u64)
        .saturating_add(1)
        .saturating_mul(25)
        .min(MAX_RETRY_HINT_MS)
}

/// Daemon tuning knobs. [`ServeOpts::default`] is sized for tests and
/// small hosts; `vnet serve` flags override each field.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Worker threads (0 = available parallelism).
    pub workers: usize,
    /// Bounded-queue capacity.
    pub queue_cap: usize,
    /// Per-request deadline, admission to finish.
    pub deadline: Duration,
    /// Per-request accounted-memory cap (bytes).
    pub mem_budget: u64,
    /// Request-line byte cap; longer lines are shed as `too_large`.
    pub max_request_bytes: usize,
    /// `sim` ops cap (admission-time `too_large` check).
    pub max_sim_ops: usize,
    /// `sim` cycle cap.
    pub max_sim_cycles: u64,
    /// How long drain waits for in-flight work before cancelling it —
    /// and then again for the cancelled work to stop.
    pub drain_grace: Duration,
    /// Touching this file triggers graceful drain (the same cooperative
    /// interrupt the checkpointed explorers honor).
    pub stop_file: Option<PathBuf>,
    /// Where checkpointing `mc` requests flush. `None` disables
    /// checkpointing fail-closed.
    pub checkpoint_dir: Option<PathBuf>,
    /// Durable result store directory. `None` disables caching and
    /// write-through; the daemon then recomputes every request.
    pub store_dir: Option<PathBuf>,
    /// Soft cap on the store log; when a write-through pushes the log
    /// past it, GC compacts to the newest record per key and evicts
    /// oldest-first back under the cap.
    pub store_max_bytes: Option<u64>,
    /// Most items one `batch` request may carry; larger batches are
    /// shed as `too_large` before occupying a queue slot.
    pub max_batch_items: usize,
    /// Honor the `panic` test command (worker-isolation drills).
    pub test_faults: bool,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            workers: 0,
            queue_cap: 32,
            deadline: Duration::from_secs(10),
            mem_budget: 256 * 1024 * 1024,
            max_request_bytes: 64 * 1024,
            max_sim_ops: 10_000,
            max_sim_cycles: 10_000_000,
            drain_grace: Duration::from_secs(5),
            stop_file: None,
            checkpoint_dir: None,
            store_dir: None,
            store_max_bytes: None,
            max_batch_items: 256,
            test_faults: false,
        }
    }
}

/// One admitted unit of work.
struct Job {
    req: Request,
    /// Admission's resolution of an inline spec, reused by the worker.
    resolved: Option<exec::Resolution>,
    cancel: CancelToken,
    out: LineOut,
    admitted: Instant,
    seq: u64,
}

/// Monotonic counters, reported at drain and polled by tests.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests admitted to the queue.
    pub admitted: AtomicU64,
    /// Requests shed by admission control.
    pub rejected: AtomicU64,
    /// Requests answered with a client error.
    pub errors: AtomicU64,
    /// Requests whose worker panicked.
    pub panicked: AtomicU64,
    /// Requests cancelled (deadline, client gone, shutdown).
    pub cancelled: AtomicU64,
    /// Requests completed `ok`.
    pub completed: AtomicU64,
}

/// Bucket edges (milliseconds) for the per-request latency histogram:
/// sub-ms inline work up through deadline-scale model checks.
const REQUEST_WALL_MS_BOUNDS: &[u64] = &[1, 5, 25, 100, 500, 2_000, 10_000, 60_000];

/// Bucket edges (microseconds) for the cache-hit latency histogram:
/// a warm-store answer is lock + map lookup + body clone + one line
/// write, so the interesting range is tens of µs to a few ms.
const CACHE_HIT_US_BOUNDS: &[u64] = &[16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144];

/// Records the milliseconds from `admitted` to `picked` in
/// `serve.queue_wait_ms`. `picked` is `None` when metrics are off, so
/// the disabled path reads no clock.
fn record_queue_wait(admitted: Instant, picked: Option<Instant>) {
    if let Some(picked) = picked {
        let ms = picked.saturating_duration_since(admitted).as_millis() as u64;
        vnet_obs::histogram("serve.queue_wait_ms", REQUEST_WALL_MS_BOUNDS).record(ms);
    }
}

/// Bucket edges (microseconds) of the worker's phase histograms,
/// `serve.compute_us` and `serve.store_write_us`: a cold `analyze` or a
/// store append with its two `fdatasync`s takes tens to hundreds of µs,
/// an `mc` run up to the deadline.
const PHASE_US_BOUNDS: &[u64] = &[
    16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 16_777_216,
];

/// Runs `f`, recording its wall time in `name` (microseconds). With
/// metrics off this costs one relaxed load and reads no clock.
fn timed_us<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let started = vnet_obs::metrics_enabled().then(Instant::now);
    let out = f();
    if let Some(started) = started {
        vnet_obs::histogram(name, PHASE_US_BOUNDS).record(started.elapsed().as_micros() as u64);
    }
    out
}

/// Bumps one serve counter and its mirror in the process metrics
/// registry. The daemon's own `Counters` stay authoritative for drain
/// summaries; the mirrors make serve traffic visible in `metrics`
/// snapshots alongside solver and explorer telemetry.
fn bump(cell: &AtomicU64, mirror: &'static str) {
    cell.fetch_add(1, Ordering::Relaxed);
    vnet_obs::counter(mirror).inc();
}

struct Shared {
    opts: ServeOpts,
    queue: BoundedQueue<Job>,
    draining: AtomicBool,
    active: AtomicUsize,
    /// Deadline registry: (deadline, token) per in-flight request,
    /// scanned by the watchdog, drained by shutdown.
    inflight: Mutex<Vec<(u64, Instant, CancelToken)>>,
    seq: AtomicU64,
    counters: Counters,
    /// The durable result store, when the daemon was started with one.
    /// One mutex is enough: lookups clone a body out in microseconds
    /// and write-through is one buffered append + two syncs.
    store: Option<Mutex<vnet_store::Store>>,
}

impl Shared {
    fn register(&self, seq: u64, deadline: Instant, token: CancelToken) {
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((seq, deadline, token));
    }

    fn deregister(&self, seq: u64) {
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .retain(|(s, _, _)| *s != seq);
    }
}

/// A running daemon (worker pool + deadline watchdog). Frontends feed
/// it lines via [`Server::submit_line`]; [`Server::drain`] shuts it
/// down gracefully.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the worker pool and watchdog. Fails only when a result
    /// store was requested and cannot be opened — fail-closed: the
    /// daemon never starts half-configured and silently recomputes
    /// what the operator asked it to persist.
    pub fn start(opts: ServeOpts) -> Result<Server, String> {
        // A daemon always records metrics: the `metrics` request is part
        // of its protocol, and the per-request overhead is a handful of
        // relaxed atomic ops.
        vnet_obs::set_metrics_enabled(true);
        let store = match &opts.store_dir {
            Some(dir) => {
                let mut s = vnet_store::Store::open(dir)
                    .map_err(|e| format!("cannot open result store: {e}"))?;
                let r = s.open_report().clone();
                if r.quarantined > 0 || r.rolled_back_bytes > 0 {
                    eprintln!(
                        "vnet-serve: store recovery: {} record(s) quarantined, {} torn byte(s) rolled back",
                        r.quarantined, r.rolled_back_bytes
                    );
                }
                if let Some(max) = opts.store_max_bytes {
                    if s.log_bytes() > max {
                        let _ = s.gc(Some(max));
                    }
                }
                Some(Mutex::new(s))
            }
            None => None,
        };
        let n_workers = if opts.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            opts.workers
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(opts.queue_cap),
            opts,
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            inflight: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            counters: Counters::default(),
            store,
        });

        let workers = (0..n_workers)
            .map(|i| {
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name(format!("vnet-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawning a worker thread")
            })
            .collect();

        let watchdog = {
            let sh = shared.clone();
            std::thread::Builder::new()
                .name("vnet-watchdog".into())
                .spawn(move || watchdog_loop(&sh))
                .expect("spawning the watchdog thread")
        };

        Ok(Server {
            shared,
            workers,
            watchdog: Some(watchdog),
        })
    }

    /// The counters (for drain summaries and tests).
    pub fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    /// `true` once drain has begun.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Admission control for one request line. Always answers: a line
    /// in yields exactly one line out (ok, error, rejected, cancelled,
    /// or panicked). `conn_tokens`, when given, collects the cancel
    /// tokens of this connection's requests so a disconnect can fire
    /// `ClientGone` on all of them.
    pub fn submit_line(
        &self,
        line: &str,
        out: &LineOut,
        conn_tokens: Option<&Mutex<Vec<CancelToken>>>,
    ) {
        let sh = &self.shared;
        let req = match proto::parse_request(line) {
            Ok(r) => r,
            Err(detail) => {
                bump(&sh.counters.errors, "serve.errors_total");
                write_line(out, &proto::error_response(&None, &detail));
                return;
            }
        };

        // Answered inline: liveness must not depend on queue headroom.
        if matches!(req.cmd, Command::Ping) {
            write_line(out, &proto::ok_response(&req.id, "ping", vec![]));
            return;
        }
        // Also inline: an observability probe must stay answerable while
        // the pool is saturated — that is exactly when it matters.
        if matches!(req.cmd, Command::Metrics) {
            write_line(out, &metrics_response(&req.id, sh));
            return;
        }
        // Store compaction is an admin action like `metrics`: answered
        // inline, never queued, so disk can be reclaimed even when the
        // pool is saturated (exactly when the log is likely largest).
        if let Command::Gc { max_bytes } = req.cmd {
            write_line(out, &gc_response(&req.id, sh, max_bytes));
            return;
        }
        if matches!(req.cmd, Command::Panic) && !sh.opts.test_faults {
            bump(&sh.counters.errors, "serve.errors_total");
            write_line(
                out,
                &proto::error_response(&req.id, "unknown cmd `panic` (test faults disabled)"),
            );
            return;
        }

        if self.draining() {
            bump(&sh.counters.rejected, "serve.rejected_total");
            write_line(
                out,
                &proto::rejected_response(&req.id, &RejectReason::ShuttingDown, None),
            );
            return;
        }

        if let Some(what) = oversized(&req, &sh.opts) {
            bump(&sh.counters.rejected, "serve.rejected_total");
            write_line(
                out,
                &proto::rejected_response(&req.id, &RejectReason::TooLarge { what }, None),
            );
            return;
        }

        // A warm store answers repeat analyze/mc requests inline: no
        // queue slot, no worker, no re-exploration — one map lookup and
        // one line write, with `provenance: "cached"` saying so.
        let mut resolved = None;
        if let Some(line) = cache_lookup(sh, &req, &mut resolved) {
            bump(&sh.counters.completed, "serve.completed_total");
            write_line(out, &line);
            return;
        }

        let cancel = CancelToken::new();
        if let Some(tokens) = conn_tokens {
            let mut g = tokens.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            g.push(cancel.clone());
        }
        let job = Job {
            req,
            resolved,
            cancel,
            out: out.clone(),
            admitted: Instant::now(),
            seq: sh.seq.fetch_add(1, Ordering::Relaxed),
        };
        match sh.queue.try_push(job) {
            Ok(()) => {
                bump(&sh.counters.admitted, "serve.admitted_total");
                vnet_obs::gauge("serve.queue_depth").set(sh.queue.len() as i64);
            }
            Err((job, PushError::Full)) => {
                bump(&sh.counters.rejected, "serve.rejected_total");
                let hint = retry_hint_ms(sh.queue.len());
                write_line(
                    out,
                    &proto::rejected_response(&job.req.id, &RejectReason::QueueFull, Some(hint)),
                );
            }
            Err((job, PushError::Closed)) => {
                bump(&sh.counters.rejected, "serve.rejected_total");
                write_line(
                    out,
                    &proto::rejected_response(&job.req.id, &RejectReason::ShuttingDown, None),
                );
            }
        }
    }

    /// Graceful drain: close admission, finish in-flight requests,
    /// then cancel whatever outlives the grace period with `Shutdown`
    /// (checkpointing `mc` runs flush on that cancel) and wait again.
    /// Returns when the pool is idle; every admitted request has been
    /// answered.
    pub fn drain(mut self) {
        drain_shared(&self.shared);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

/// The drain sequence itself, callable through any handle on the shared
/// state (the TCP frontend drains via the `Arc` because connection
/// reader threads may still hold `Server` clones).
fn drain_shared(sh: &Shared) {
    sh.draining.store(true, Ordering::SeqCst);
    sh.queue.close();

    // Phase 1: let queued + running work finish within the grace.
    let patience = Instant::now() + sh.opts.drain_grace;
    while (sh.active.load(Ordering::SeqCst) > 0 || !sh.queue.is_empty())
        && Instant::now() < patience
    {
        std::thread::sleep(Duration::from_millis(10));
    }

    // Phase 2: grace expired — reject what never started, cancel what
    // did. The Shutdown cancel is what turns an in-flight checkpointing
    // mc run into a final flush.
    for job in sh.queue.drain_remaining() {
        bump(&sh.counters.cancelled, "serve.cancelled_total");
        write_line(
            &job.out,
            &proto::cancelled_response(&job.req.id, CancelReason::Shutdown, vec![]),
        );
    }
    {
        let g = sh
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (_, _, token) in g.iter() {
            token.cancel(CancelReason::Shutdown);
        }
    }
    // Cancelled work terminates on its own (poll-point bound plus one
    // checkpoint flush), so this wait is a backstop against kernel
    // bugs, not a tunable — it must outlast a worst-case flush, which
    // the configured grace need not.
    let patience = Instant::now() + sh.opts.drain_grace.max(Duration::from_secs(30));
    while sh.active.load(Ordering::SeqCst) > 0 && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Builds the inline `metrics` response: live queue depth, the
/// daemon's request counters (with the derived `submitted` total the
/// soak test reconciles against), and the full process metrics
/// registry. Shape is deterministic — every map is a `BTreeMap` and
/// the registry snapshot is name-sorted.
fn metrics_response(id: &Option<String>, sh: &Shared) -> String {
    use crate::json::Json;
    let c = &sh.counters;
    let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
    // Every answered request carries exactly one status from the closed
    // taxonomy, so the statuses sum to the number of answered requests.
    let submitted = load(&c.completed)
        + load(&c.errors)
        + load(&c.rejected)
        + load(&c.cancelled)
        + load(&c.panicked);
    let counters = Json::obj(vec![
        ("admitted", Json::num(load(&c.admitted))),
        ("completed", Json::num(load(&c.completed))),
        ("errors", Json::num(load(&c.errors))),
        ("rejected", Json::num(load(&c.rejected))),
        ("cancelled", Json::num(load(&c.cancelled))),
        ("panicked", Json::num(load(&c.panicked))),
        ("submitted", Json::num(submitted)),
    ]);
    let fields = vec![
        ("queue_depth", Json::num(sh.queue.len() as u64)),
        ("counters", counters),
        ("registry", registry_json()),
    ];
    proto::ok_response(id, "metrics", fields)
}

/// Inline store compaction for a `gc` request. A daemon without a
/// store answers `store_unavailable`; a failed compaction surfaces as
/// `gc_failed` rather than pretending bytes were reclaimed.
fn gc_response(id: &Option<String>, sh: &Shared, max_bytes: Option<u64>) -> String {
    use crate::json::Json;
    let Some(store) = &sh.store else {
        return proto::error_response_with_reason(
            id,
            "store_unavailable",
            "daemon is running without --store-dir",
        );
    };
    let mut g = store.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    match g.gc(max_bytes) {
        Ok(report) => proto::ok_response(
            id,
            "gc",
            vec![
                (
                    "reclaimed_bytes",
                    Json::num(report.bytes_before.saturating_sub(report.bytes_after)),
                ),
                ("records_kept", Json::num(report.kept as u64)),
            ],
        ),
        Err(e) => proto::error_response_with_reason(id, "gc_failed", &e.to_string()),
    }
}

/// The process metrics registry as a JSON value (same content as
/// `vnet_obs::Snapshot::to_json`, rebuilt on the daemon's own
/// serializer so it nests inside a response line).
fn registry_json() -> crate::json::Json {
    use crate::json::Json;
    let snap = vnet_obs::snapshot();
    let counters = Json::Obj(
        snap.counters
            .into_iter()
            .map(|(k, v)| (k, Json::num(v)))
            .collect(),
    );
    let gauges = Json::Obj(
        snap.gauges
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v as f64)))
            .collect(),
    );
    let histograms = Json::Obj(
        snap.histograms
            .into_iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, n)| {
                        let le = match h.bounds.get(i) {
                            Some(b) => Json::num(*b),
                            None => Json::str("inf"),
                        };
                        Json::obj(vec![("le", le), ("n", Json::num(*n))])
                    })
                    .collect();
                let body = Json::obj(vec![
                    ("count", Json::num(h.count)),
                    ("sum", Json::num(h.sum)),
                    ("buckets", Json::Arr(buckets)),
                ]);
                (k, body)
            })
            .collect(),
    );
    Json::obj(vec![
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

/// Admission-time size caps: requests that would obviously exceed their
/// budget are shed before they occupy a queue slot.
fn oversized(req: &Request, opts: &ServeOpts) -> Option<String> {
    if let Command::Sim { ops, max_cycles, .. } = &req.cmd {
        if *ops > opts.max_sim_ops {
            return Some(format!("ops {} exceeds cap {}", ops, opts.max_sim_ops));
        }
        if *max_cycles > opts.max_sim_cycles {
            return Some(format!(
                "max_cycles {} exceeds cap {}",
                max_cycles, opts.max_sim_cycles
            ));
        }
    }
    if let Command::Batch { items } = &req.cmd {
        if items.len() > opts.max_batch_items {
            return Some(format!(
                "batch of {} items exceeds cap {}",
                items.len(),
                opts.max_batch_items
            ));
        }
    }
    None
}

/// Inline cache lookup against the durable result store. Returns the
/// complete response line on a hit. On a miss, `resolved` receives the
/// resolution of an inline spec made while deriving its key, for the
/// worker to reuse. Both the admission path and batch items go through here, so
/// hit semantics are identical everywhere.
fn cache_lookup(
    sh: &Shared,
    req: &Request,
    resolved: &mut Option<exec::Resolution>,
) -> Option<String> {
    use crate::json::Json;
    let store = sh.store.as_ref()?;
    // The hit wall covers key derivation: a table read for a built-in,
    // a parse and render for an inline spec. A request that does not
    // resolve has no key and falls through to the worker, which answers
    // with the resolution error admission carried along.
    let started = Instant::now();
    let (key, resolution) = exec::admission_key(req);
    *resolved = resolution;
    let key = key?;
    let body = {
        let g = store.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        g.get(&key).map(|r| r.body.clone())
    };
    let body = match body {
        Some(b) => b,
        None => {
            vnet_obs::counter("serve.cache_misses_total").inc();
            return None;
        }
    };
    // A committed, checksummed body that fails to parse would mean the
    // store's own verification missed something; recompute rather than
    // serve garbage, and make the event visible.
    let Ok(Json::Obj(map)) = crate::json::parse(&body) else {
        vnet_obs::counter("serve.cache_unparseable_total").inc();
        vnet_obs::counter("serve.cache_misses_total").inc();
        return None;
    };
    let mut fields: Vec<(&str, Json)> =
        map.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    fields.push(("provenance", Json::str("cached")));
    let line = proto::ok_response(&req.id, cmd_name(&req.cmd), fields);
    vnet_obs::counter("serve.cache_hits_total").inc();
    let us = started.elapsed().as_micros() as u64;
    vnet_obs::histogram("serve.cache_hit_wall_us", CACHE_HIT_US_BOUNDS).record(us);
    vnet_obs::histogram("serve.request_wall_ms", REQUEST_WALL_MS_BOUNDS)
        .record(us.div_ceil(1_000));
    Some(line)
}

/// Write-through of an exact result. A store failure never fails the
/// request — the computed answer is still correct — but it is counted
/// and logged: a dying disk should be loud, not silent.
fn store_write_through(sh: &Shared, entry: &exec::StoreEntry) {
    let Some(store) = &sh.store else { return };
    timed_us("serve.store_write_us", || {
        let mut g = store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match g.put(entry.key, entry.kind, &entry.body) {
            Ok(_) => {
                if let Some(max) = sh.opts.store_max_bytes {
                    if g.log_bytes() > max {
                        if let Err(e) = g.gc(Some(max)) {
                            eprintln!("vnet-serve: store gc failed: {e}");
                        }
                    }
                }
            }
            Err(e) => {
                vnet_obs::counter("serve.store_write_errors_total").inc();
                eprintln!("vnet-serve: store write-through failed: {e}");
            }
        }
    });
}

/// The `cmd` echo for a response line.
fn cmd_name(cmd: &Command) -> &'static str {
    match cmd {
        Command::Analyze => "analyze",
        Command::Mc { .. } => "mc",
        Command::Sim { .. } => "sim",
        Command::Ping => "ping",
        Command::Panic => "panic",
        Command::Metrics => "metrics",
        Command::Gc { .. } => "gc",
        Command::Batch { .. } => "batch",
    }
}

/// Progress-event emitter for an inline `mc` run that asked for one:
/// one NDJSON line per BFS level boundary, distinguishable from
/// responses by its `event` field (and the absence of `status`). The
/// peak-bytes figure rides the explorer's own gauge, refreshed at the
/// same level boundary that fires this hook.
fn progress_hook(req: &Request, out: &LineOut) -> Box<dyn FnMut(usize, usize)> {
    let wants = matches!(
        req.cmd,
        Command::Mc {
            progress: true,
            process: false,
            ..
        }
    );
    if !wants {
        return Box::new(|_, _| {});
    }
    let id = req.id.clone();
    let out = out.clone();
    Box::new(move |level, states| {
        use crate::json::Json;
        vnet_obs::counter("serve.progress_events_total").inc();
        let peak = vnet_obs::gauge("explore.peak_bytes").get().max(0) as u64;
        let line = Json::obj(vec![
            (
                "id",
                match &id {
                    Some(s) => Json::str(s.clone()),
                    None => Json::Null,
                },
            ),
            ("event", Json::str("progress")),
            ("level", Json::num(level as u64)),
            ("states", Json::num(states as u64)),
            ("peak_bytes", Json::num(peak)),
        ])
        .render();
        write_line(&out, &line);
    })
}

/// How one executed request ended (the closed status taxonomy, minus
/// `rejected`, which never reaches a worker).
enum Done {
    Ok,
    Error,
    Cancelled,
    Panicked,
}

/// Maps one execution outcome onto its response line, bumping exactly
/// one status counter — the invariant the metrics reconciliation
/// (`submitted` = sum of statuses) rests on. Shared by the single
/// request path and every batch item; exact results are written
/// through to the store here.
fn finish(
    sh: &Shared,
    req: &Request,
    outcome: std::thread::Result<Result<ExecResult, ExecError>>,
    wall_ms: u64,
) -> (String, Done) {
    use crate::json::Json;
    match outcome {
        Err(payload) => {
            bump(&sh.counters.panicked, "serve.panicked_total");
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            (proto::panicked_response(&req.id, &detail), Done::Panicked)
        }
        Ok(Err(e)) => {
            bump(&sh.counters.errors, "serve.errors_total");
            (
                proto::error_response_with_reason(&req.id, e.reason, &e.detail),
                Done::Error,
            )
        }
        Ok(Ok(ExecResult {
            mut fields,
            provenance,
            store,
        })) => {
            fields.push(("wall_ms", Json::num(wall_ms)));
            if let Provenance::Degraded {
                reason: DegradeReason::Cancelled { reason },
            } = provenance
            {
                bump(&sh.counters.cancelled, "serve.cancelled_total");
                (proto::cancelled_response(&req.id, reason, fields), Done::Cancelled)
            } else {
                if let Some(entry) = &store {
                    store_write_through(sh, entry);
                }
                bump(&sh.counters.completed, "serve.completed_total");
                fields.push(("provenance", Json::str(provenance.to_string())));
                (
                    proto::ok_response(&req.id, cmd_name(&req.cmd), fields),
                    Done::Ok,
                )
            }
        }
    }
}

fn watchdog_loop(sh: &Shared) {
    // Runs until drain closes the queue and the pool goes idle; fires
    // Deadline cancels and prunes completed entries.
    loop {
        {
            let mut g = sh
                .inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let now = Instant::now();
            for (_, deadline, token) in g.iter() {
                if now >= *deadline {
                    token.cancel(CancelReason::Deadline);
                }
            }
            g.retain(|(_, _, t)| !t.is_cancelled());
        }
        if sh.draining.load(Ordering::SeqCst)
            && sh.queue.is_empty()
            && sh.active.load(Ordering::SeqCst) == 0
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn worker_loop(sh: &Shared) {
    while let Some(job) = sh.queue.pop() {
        vnet_obs::gauge("serve.queue_depth").set(sh.queue.len() as i64);
        sh.active.fetch_add(1, Ordering::SeqCst);
        handle(sh, job);
        sh.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle(sh: &Shared, mut job: Job) {
    let started = Instant::now();
    // A batch records the wait of each of its items instead.
    if !matches!(job.req.cmd, Command::Batch { .. }) {
        record_queue_wait(job.admitted, vnet_obs::metrics_enabled().then_some(started));
    }
    // Cancelled while queued (client hung up, or drain raced us).
    if let Some(reason) = job.cancel.reason() {
        bump(&sh.counters.cancelled, "serve.cancelled_total");
        write_line(&job.out, &proto::cancelled_response(&job.req.id, reason, vec![]));
        return;
    }

    // The admission deadline runs from admission, so queue wait counts.
    let deadline = job.admitted + sh.opts.deadline;
    sh.register(job.seq, deadline, job.cancel.clone());

    let mut budget = job.req.budget.clone().with_cancel(job.cancel.clone());
    budget.mem_limit = Some(match budget.mem_limit {
        Some(client) => client.min(sh.opts.mem_budget),
        None => sh.opts.mem_budget,
    });

    let ckpt_path = match &job.req.cmd {
        Command::Mc { checkpoint: true, .. } => match &sh.opts.checkpoint_dir {
            Some(dir) => Some(dir.join(format!("req-{}.ckpt", job.seq))),
            None => {
                sh.deregister(job.seq);
                bump(&sh.counters.errors, "serve.errors_total");
                write_line(
                    &job.out,
                    &proto::error_response(
                        &job.req.id,
                        "checkpointing disabled (start the daemon with --checkpoint-dir)",
                    ),
                );
                return;
            }
        },
        _ => None,
    };

    // A batch unpacks on this worker: one line per item, then a
    // summary line for the batch itself.
    if let Command::Batch { items } = &job.req.cmd {
        run_batch(sh, &job, items, started);
        sh.deregister(job.seq);
        return;
    }

    let mut on_level = progress_hook(&job.req, &job.out);
    let resolved = job.resolved.take();
    let outcome = timed_us("serve.compute_us", || {
        catch_unwind(AssertUnwindSafe(|| {
            exec::execute(
                &job.req,
                resolved,
                &budget,
                ckpt_path.as_deref(),
                &mut *on_level,
            )
        }))
    });
    drop(on_level);
    sh.deregister(job.seq);

    let wall_ms = started.elapsed().as_millis() as u64;
    vnet_obs::histogram("serve.request_wall_ms", REQUEST_WALL_MS_BOUNDS).record(wall_ms);
    let (line, _) = finish(sh, &job.req, outcome, wall_ms);
    write_line(&job.out, &line);
}

/// Executes a `batch` request item by item, in order, on the calling
/// worker. Isolation is per item: a malformed, oversized, panicking,
/// or failing item answers for itself and the rest of the batch keeps
/// going. Cancellation (deadline, drain, disconnect) is observed
/// between items — the item that was running answers through its own
/// budget, every remaining item answers `cancelled` — so the batch
/// still produces exactly one line per item plus its summary.
fn run_batch(sh: &Shared, job: &Job, items: &[String], started: Instant) {
    use crate::json::Json;
    let (mut ok, mut errs, mut rejected, mut cancelled, mut panicked) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (idx, item) in items.iter().enumerate() {
        record_queue_wait(job.admitted, vnet_obs::metrics_enabled().then(Instant::now));
        let req = match proto::parse_request(item) {
            Ok(r) => r,
            Err(detail) => {
                bump(&sh.counters.errors, "serve.errors_total");
                errs += 1;
                write_line(&job.out, &proto::error_response(&None, &detail));
                continue;
            }
        };
        if let Some(reason) = job.cancel.reason() {
            bump(&sh.counters.cancelled, "serve.cancelled_total");
            cancelled += 1;
            write_line(&job.out, &proto::cancelled_response(&req.id, reason, vec![]));
            continue;
        }
        if matches!(req.cmd, Command::Panic) && !sh.opts.test_faults {
            bump(&sh.counters.errors, "serve.errors_total");
            errs += 1;
            write_line(
                &job.out,
                &proto::error_response(&req.id, "unknown cmd `panic` (test faults disabled)"),
            );
            continue;
        }
        if let Some(what) = oversized(&req, &sh.opts) {
            bump(&sh.counters.rejected, "serve.rejected_total");
            rejected += 1;
            write_line(
                &job.out,
                &proto::rejected_response(&req.id, &RejectReason::TooLarge { what }, None),
            );
            continue;
        }
        let mut resolved = None;
        if let Some(line) = cache_lookup(sh, &req, &mut resolved) {
            bump(&sh.counters.completed, "serve.completed_total");
            ok += 1;
            write_line(&job.out, &line);
            continue;
        }

        let item_started = Instant::now();
        let mut budget = req.budget.clone().with_cancel(job.cancel.clone());
        budget.mem_limit = Some(match budget.mem_limit {
            Some(client) => client.min(sh.opts.mem_budget),
            None => sh.opts.mem_budget,
        });
        let ckpt_path = match &req.cmd {
            Command::Mc { checkpoint: true, .. } => match &sh.opts.checkpoint_dir {
                Some(dir) => Some(dir.join(format!("req-{}-{idx}.ckpt", job.seq))),
                None => {
                    bump(&sh.counters.errors, "serve.errors_total");
                    errs += 1;
                    write_line(
                        &job.out,
                        &proto::error_response(
                            &req.id,
                            "checkpointing disabled (start the daemon with --checkpoint-dir)",
                        ),
                    );
                    continue;
                }
            },
            _ => None,
        };
        let mut on_level = progress_hook(&req, &job.out);
        let outcome = timed_us("serve.compute_us", || {
            catch_unwind(AssertUnwindSafe(|| {
                exec::execute(
                    &req,
                    resolved,
                    &budget,
                    ckpt_path.as_deref(),
                    &mut *on_level,
                )
            }))
        });
        drop(on_level);
        let wall_ms = item_started.elapsed().as_millis() as u64;
        vnet_obs::histogram("serve.request_wall_ms", REQUEST_WALL_MS_BOUNDS).record(wall_ms);
        let (line, done) = finish(sh, &req, outcome, wall_ms);
        match done {
            Done::Ok => ok += 1,
            Done::Error => errs += 1,
            Done::Cancelled => cancelled += 1,
            Done::Panicked => panicked += 1,
        }
        write_line(&job.out, &line);
    }

    let wall_ms = started.elapsed().as_millis() as u64;
    vnet_obs::histogram("serve.request_wall_ms", REQUEST_WALL_MS_BOUNDS).record(wall_ms);
    bump(&sh.counters.completed, "serve.completed_total");
    let fields = vec![
        ("items", Json::num(items.len() as u64)),
        ("ok", Json::num(ok)),
        ("errors", Json::num(errs)),
        ("rejected", Json::num(rejected)),
        ("cancelled", Json::num(cancelled)),
        ("panicked", Json::num(panicked)),
        ("wall_ms", Json::num(wall_ms)),
    ];
    write_line(&job.out, &proto::ok_response(&job.req.id, "batch", fields));
}

/// Reads one `\n`-terminated line of at most `max` bytes. Overlong
/// lines are consumed to the newline and reported as [`ReadLine::TooLong`]
/// without ever buffering more than `max` bytes.
pub enum ReadLine {
    /// A complete line (newline stripped).
    Line(String),
    /// The line exceeded the byte cap and was discarded.
    TooLong,
    /// End of stream.
    Eof,
}

/// Bounded line reader for the newline-delimited protocol.
pub fn read_line_bounded(r: &mut impl std::io::BufRead, max: usize) -> std::io::Result<ReadLine> {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF: a non-terminated trailing line still counts.
            if discarding {
                return Ok(ReadLine::TooLong);
            }
            if buf.is_empty() {
                return Ok(ReadLine::Eof);
            }
            return Ok(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()));
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let over = discarding || buf.len() + i > max;
                if !over {
                    buf.extend_from_slice(&chunk[..i]);
                }
                r.consume(i + 1);
                if over {
                    return Ok(ReadLine::TooLong);
                }
                return Ok(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            None => {
                let len = chunk.len();
                if !discarding {
                    if buf.len() + len > max {
                        discarding = true;
                        buf.clear();
                    } else {
                        buf.extend_from_slice(chunk);
                    }
                }
                r.consume(len);
            }
        }
    }
}

/// Serves connections on `listener` until SIGTERM/SIGINT or the stop
/// file appears, then drains. Prints one `listening on <addr>` line to
/// stdout first so scripted clients can find an ephemeral port.
pub fn serve_tcp(listener: std::net::TcpListener, opts: ServeOpts) -> std::io::Result<()> {
    signal::install_handlers();
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    println!("vnet-serve listening on {addr}");
    let _ = std::io::stdout().flush();

    let server = Arc::new(Server::start(opts.clone()).map_err(std::io::Error::other)?);
    let stop_file = opts.stop_file.clone();
    let max_line = opts.max_request_bytes;

    loop {
        if signal::termination_requested() || stop_file.as_ref().is_some_and(|p| p.exists()) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let server = server.clone();
                let _ = std::thread::Builder::new()
                    .name("vnet-conn".into())
                    .spawn(move || serve_conn(stream, &server, max_line));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }

    eprintln!("vnet-serve: drain requested, finishing in-flight work");
    // Connection reader threads may still hold `Server` clones (they
    // block on client reads), so drain through the shared state rather
    // than by consuming the `Server`.
    drain_shared(&server.shared);
    let c = server.counters();
    eprintln!(
        "vnet-serve: drained (completed {}, cancelled {}, rejected {}, errors {}, panicked {})",
        c.completed.load(Ordering::Relaxed),
        c.cancelled.load(Ordering::Relaxed),
        c.rejected.load(Ordering::Relaxed),
        c.errors.load(Ordering::Relaxed),
        c.panicked.load(Ordering::Relaxed),
    );
    Ok(())
}

fn serve_conn(stream: std::net::TcpStream, server: &Server, max_line: usize) {
    // Responses are written whole, so batching them behind Nagle buys
    // nothing and costs a delayed-ACK stall between back-to-back lines
    // (batch items, progress events). Best-effort: latency tuning must
    // not kill an otherwise healthy connection.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out: LineOut = Arc::new(Mutex::new(Box::new(write_half)));
    let tokens: Mutex<Vec<CancelToken>> = Mutex::new(Vec::new());
    let mut reader = std::io::BufReader::new(stream);
    loop {
        match read_line_bounded(&mut reader, max_line) {
            Ok(ReadLine::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                server.submit_line(&line, &out, Some(&tokens));
                // Prune tokens for finished requests (only the kernel's
                // meter still holds a clone while one runs).
                let mut g = tokens.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                g.retain(|t| !t.is_cancelled());
            }
            Ok(ReadLine::TooLong) => {
                bump(&server.counters().rejected, "serve.rejected_total");
                write_line(
                    &out,
                    &proto::rejected_response(
                        &None,
                        &RejectReason::TooLarge {
                            what: format!("request line exceeds {max_line} bytes"),
                        },
                        None,
                    ),
                );
            }
            Ok(ReadLine::Eof) | Err(_) => break,
        }
    }
    // Disconnect: nobody will read these results — stop burning CPU.
    let g = tokens.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for t in g.iter() {
        t.cancel(CancelReason::ClientGone);
    }
}

/// Serves newline-delimited requests from stdin, answering on stdout,
/// until EOF, SIGTERM/SIGINT, or the stop file; then drains. The
/// scripted-client mode: `printf '...' | vnet serve --stdin`.
pub fn serve_stdio(opts: ServeOpts) -> std::io::Result<()> {
    signal::install_handlers();
    let server = Server::start(opts.clone()).map_err(std::io::Error::other)?;
    let out: LineOut = Arc::new(Mutex::new(Box::new(std::io::stdout())));
    let mut reader = std::io::BufReader::new(std::io::stdin());
    loop {
        if signal::termination_requested()
            || opts.stop_file.as_ref().is_some_and(|p| p.exists())
        {
            break;
        }
        match read_line_bounded(&mut reader, opts.max_request_bytes) {
            Ok(ReadLine::Line(line)) => {
                if !line.trim().is_empty() {
                    server.submit_line(&line, &out, None);
                }
            }
            Ok(ReadLine::TooLong) => {
                write_line(
                    &out,
                    &proto::rejected_response(
                        &None,
                        &RejectReason::TooLarge {
                            what: format!(
                                "request line exceeds {} bytes",
                                opts.max_request_bytes
                            ),
                        },
                        None,
                    ),
                );
            }
            Ok(ReadLine::Eof) => break,
            Err(_) => break,
        }
    }
    server.drain();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn capture() -> (LineOut, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let store = Arc::new(Mutex::new(Vec::new()));
        let out: LineOut = Arc::new(Mutex::new(Box::new(Sink(store.clone()))));
        (out, store)
    }

    fn lines(store: &Arc<Mutex<Vec<u8>>>) -> Vec<json::Json> {
        String::from_utf8(store.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(|l| json::parse(l).expect("every response line is valid JSON"))
            .collect()
    }

    fn status_of(v: &json::Json) -> String {
        v.get("status").and_then(json::Json::as_str).unwrap().to_string()
    }

    #[test]
    fn retry_hint_scales_then_saturates_at_the_cap() {
        // Linear region: one 25 ms slot per waiting request, plus one.
        assert_eq!(retry_hint_ms(0), 25);
        assert_eq!(retry_hint_ms(3), 100);
        // Last length below the cap and the first at it.
        assert_eq!(retry_hint_ms(198), 4_975);
        assert_eq!(retry_hint_ms(199), MAX_RETRY_HINT_MS);
        // Beyond the boundary the hint is pinned, never larger.
        assert_eq!(retry_hint_ms(200), MAX_RETRY_HINT_MS);
        assert_eq!(retry_hint_ms(1_000_000), MAX_RETRY_HINT_MS);
        // Pathological lengths must not overflow the multiply.
        assert_eq!(retry_hint_ms(usize::MAX), MAX_RETRY_HINT_MS);
    }

    fn small_opts() -> ServeOpts {
        ServeOpts {
            workers: 2,
            queue_cap: 4,
            deadline: Duration::from_secs(30),
            drain_grace: Duration::from_secs(2),
            test_faults: true,
            ..ServeOpts::default()
        }
    }

    fn wait_for_responses(store: &Arc<Mutex<Vec<u8>>>, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while lines(store).len() < n {
            assert!(Instant::now() < deadline, "timed out waiting for {n} responses");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn answers_ping_inline_and_analyze_via_the_pool() {
        let server = Server::start(small_opts()).expect("server starts");
        let (out, store) = capture();
        server.submit_line(r#"{"id":"p","cmd":"ping"}"#, &out, None);
        server.submit_line(r#"{"id":"a","cmd":"analyze","protocol":"MESI-nonblocking-cache"}"#, &out, None);
        wait_for_responses(&store, 2);
        server.drain();
        let all = lines(&store);
        assert!(all.iter().all(|v| status_of(v) == "ok"), "{all:?}");
    }

    #[test]
    fn malformed_and_unknown_requests_get_structured_errors() {
        let server = Server::start(small_opts()).expect("server starts");
        let (out, store) = capture();
        server.submit_line("{not json", &out, None);
        server.submit_line(r#"{"cmd":"analyze","protocol":"NOPE"}"#, &out, None);
        wait_for_responses(&store, 2);
        server.drain();
        for v in lines(&store) {
            assert_eq!(status_of(&v), "error", "{v:?}");
        }
    }

    #[test]
    fn a_panicking_request_kills_neither_daemon_nor_worker() {
        let server = Server::start(small_opts()).expect("server starts");
        let (out, store) = capture();
        server.submit_line(r#"{"id":"boom","cmd":"panic"}"#, &out, None);
        wait_for_responses(&store, 1);
        // The pool still serves afterwards.
        server.submit_line(r#"{"id":"ok","cmd":"analyze","protocol":"MSI-nonblocking-cache"}"#, &out, None);
        wait_for_responses(&store, 2);
        server.drain();
        let all = lines(&store);
        let statuses: Vec<String> = all.iter().map(status_of).collect();
        assert!(statuses.contains(&"panicked".to_string()), "{statuses:?}");
        assert!(statuses.contains(&"ok".to_string()), "{statuses:?}");
    }

    #[test]
    fn metrics_is_answered_inline_with_consistent_counters() -> Result<(), String> {
        let server = Server::start(small_opts()).expect("server starts");
        let (out, store) = capture();
        server.submit_line(r#"{"id":"e","cmd":"frobnicate"}"#, &out, None);
        server.submit_line(
            r#"{"id":"a","cmd":"analyze","protocol":"MESI-nonblocking-cache"}"#,
            &out,
            None,
        );
        wait_for_responses(&store, 2);
        server.submit_line(r#"{"id":"m","cmd":"metrics"}"#, &out, None);
        wait_for_responses(&store, 3);
        server.drain();
        let all = lines(&store);
        let m = all
            .iter()
            .find(|v| v.get("cmd").and_then(json::Json::as_str) == Some("metrics"))
            .ok_or("metrics response missing")?;
        assert_eq!(status_of(m), "ok");
        assert_eq!(m.get("queue_depth").and_then(json::Json::as_u64), Some(0));
        let c = m.get("counters").ok_or("counters object missing")?;
        // A missing counter reads as MAX so the equality asserts below
        // fail loudly instead of silently passing on 0 == 0.
        let n = |key: &str| c.get(key).and_then(json::Json::as_u64).unwrap_or(u64::MAX);
        // One status per answered request: the parts sum to the total,
        // and the probe itself is never counted.
        assert_eq!(n("errors"), 1);
        assert_eq!(n("completed"), 1);
        assert_eq!(n("admitted"), 1);
        assert_eq!(
            n("submitted"),
            n("completed") + n("errors") + n("rejected") + n("cancelled") + n("panicked")
        );
        // The registry rides along with the standard snapshot shape.
        let reg = m.get("registry").ok_or("registry object missing")?;
        assert!(reg.get("counters").is_some(), "{m:?}");
        assert!(reg.get("gauges").is_some(), "{m:?}");
        assert!(reg.get("histograms").is_some(), "{m:?}");
        assert!(
            reg.get("counters")
                .and_then(|r| r.get("serve.completed_total"))
                .and_then(json::Json::as_u64)
                .is_some_and(|v| v >= 1),
            "mirror counter missing from the registry: {m:?}"
        );
        Ok(())
    }

    #[test]
    fn queue_full_sheds_with_a_retry_hint() {
        // One worker, capacity-1 queue, slow-ish jobs: the third and
        // later submissions must shed deterministically.
        let opts = ServeOpts {
            workers: 1,
            queue_cap: 1,
            test_faults: true,
            ..small_opts()
        };
        let server = Server::start(opts).expect("server starts");
        let (out, store) = capture();
        for i in 0..6 {
            server.submit_line(
                &format!(r#"{{"id":"q{i}","cmd":"mc","protocol":"MESI-nonblocking-cache","vns":"unique","budget":{{"nodes":200000}}}}"#),
                &out,
                None,
            );
        }
        wait_for_responses(&store, 6);
        server.drain();
        let all = lines(&store);
        let shed: Vec<_> = all.iter().filter(|v| status_of(v) == "rejected").collect();
        assert!(
            shed.len() >= 3,
            "expected most of the burst shed, got {} of {}",
            shed.len(),
            all.len()
        );
        for v in &shed {
            assert_eq!(
                v.get("reason").and_then(json::Json::as_str),
                Some("queue_full")
            );
            assert!(v.get("retry_after_ms").and_then(json::Json::as_u64).is_some());
        }
    }

    #[test]
    fn deadline_cancellation_is_structured_and_prompt() {
        let opts = ServeOpts {
            workers: 1,
            deadline: Duration::from_millis(40),
            ..small_opts()
        };
        let server = Server::start(opts).expect("server starts");
        let (out, store) = capture();
        // MOESI-nonblocking under one VN in the symmetric general
        // scenario is far too big to finish in 40 ms: it runs about
        // 4.3 s in a release build on a 2-vCPU host before the default
        // 2 M-state limit stops it, a margin of about 100x that does not
        // shrink with each explorer speedup the way a small subject's
        // does.
        let slow = concat!(
            r#"{"id":"slow","cmd":"mc","protocol":"MOESI-nonblocking-cache","#,
            r#""vns":"single","symmetry":true}"#
        );
        server.submit_line(slow, &out, None);
        wait_for_responses(&store, 1);
        server.drain();
        let v = &lines(&store)[0];
        assert_eq!(status_of(v), "cancelled", "{v:?}");
        assert_eq!(v.get("reason").and_then(json::Json::as_str), Some("deadline"));
    }

    #[test]
    fn drain_rejects_new_work_but_finishes_old() {
        let server = Server::start(small_opts()).expect("server starts");
        let (out, store) = capture();
        server.submit_line(r#"{"id":"w","cmd":"analyze","protocol":"MOESI-nonblocking-cache"}"#, &out, None);
        server.shared.draining.store(true, Ordering::SeqCst);
        server.submit_line(r#"{"id":"late","cmd":"analyze","protocol":"MSI-nonblocking-cache"}"#, &out, None);
        wait_for_responses(&store, 2);
        server.drain();
        let all = lines(&store);
        let mut by_id: std::collections::BTreeMap<String, String> = Default::default();
        for v in &all {
            by_id.insert(
                v.get("id").and_then(json::Json::as_str).unwrap().into(),
                status_of(v),
            );
        }
        assert_eq!(by_id["w"], "ok");
        assert_eq!(by_id["late"], "rejected");
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vnet-serve-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn repeat_requests_are_served_from_the_store_as_cached() {
        let dir = tmp_dir("cache");
        let opts = ServeOpts {
            store_dir: Some(dir.clone()),
            ..small_opts()
        };
        let server = Server::start(opts).expect("server starts");
        let (out, store) = capture();
        let line = r#"{"id":"a1","cmd":"analyze","protocol":"MESI-nonblocking-cache"}"#;
        server.submit_line(line, &out, None);
        wait_for_responses(&store, 1);
        // The repeat must answer inline from the store: identical
        // result fields, provenance rewritten to `cached`.
        server.submit_line(&line.replace("a1", "a2"), &out, None);
        wait_for_responses(&store, 2);
        server.drain();
        let all = lines(&store);
        let by_id = |id: &str| {
            all.iter()
                .find(|v| v.get("id").and_then(json::Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("no response with id {id}: {all:?}"))
        };
        let first = by_id("a1");
        let second = by_id("a2");
        assert_eq!(status_of(first), "ok");
        assert_eq!(status_of(second), "ok");
        assert_eq!(
            first.get("provenance").and_then(json::Json::as_str),
            Some("exact")
        );
        assert_eq!(
            second.get("provenance").and_then(json::Json::as_str),
            Some("cached")
        );
        assert_eq!(second.get("min_vns"), first.get("min_vns"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_store_survives_a_daemon_restart() {
        let dir = tmp_dir("restart");
        let opts = ServeOpts {
            store_dir: Some(dir.clone()),
            ..small_opts()
        };
        {
            let server = Server::start(opts.clone()).expect("server starts");
            let (out, store) = capture();
            server.submit_line(
                r#"{"id":"m1","cmd":"mc","protocol":"MSI-nonblocking-cache","vns":"unique"}"#,
                &out,
                None,
            );
            wait_for_responses(&store, 1);
            server.drain();
        }
        // "Restart": a fresh Server over the same directory. The mc
        // repeat must come back cached without re-exploring.
        let server = Server::start(opts).expect("server reopens the store");
        let states_before = vnet_obs::counter("explore.states_total").get();
        let (out, store) = capture();
        server.submit_line(
            r#"{"id":"m2","cmd":"mc","protocol":"MSI-nonblocking-cache","vns":"unique"}"#,
            &out,
            None,
        );
        wait_for_responses(&store, 1);
        server.drain();
        let v = &lines(&store)[0];
        assert_eq!(status_of(v), "ok", "{v:?}");
        assert_eq!(
            v.get("provenance").and_then(json::Json::as_str),
            Some("cached"),
            "{v:?}"
        );
        assert_eq!(
            vnet_obs::counter("explore.states_total").get(),
            states_before,
            "a cached answer must not re-explore"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_over_the_wire_compacts_and_reports() {
        let dir = tmp_dir("wire-gc");
        let opts = ServeOpts {
            store_dir: Some(dir.clone()),
            ..small_opts()
        };
        let server = Server::start(opts).expect("server starts");
        let (out, store) = capture();
        // Warm the store, then gc it over the wire. The answer must be
        // inline (no queue involvement) and carry the two report fields.
        server.submit_line(
            r#"{"id":"a","cmd":"analyze","protocol":"MSI-nonblocking-cache"}"#,
            &out,
            None,
        );
        wait_for_responses(&store, 1);
        server.submit_line(r#"{"id":"g","cmd":"gc"}"#, &out, None);
        wait_for_responses(&store, 2);
        server.drain();
        let all = lines(&store);
        let g = all
            .iter()
            .find(|v| v.get("id").and_then(json::Json::as_str) == Some("g"))
            .unwrap();
        assert_eq!(status_of(g), "ok", "{g:?}");
        assert_eq!(g.get("cmd").and_then(json::Json::as_str), Some("gc"));
        assert!(g.get("reclaimed_bytes").and_then(json::Json::as_u64).is_some(), "{g:?}");
        assert!(
            g.get("records_kept").and_then(json::Json::as_u64).unwrap() >= 1,
            "the warmed analyze record must survive a budget-less gc: {g:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_without_a_store_fails_closed_and_is_answered_while_draining() {
        let server = Server::start(small_opts()).expect("server starts");
        let (out, store) = capture();
        server.submit_line(r#"{"id":"g","cmd":"gc"}"#, &out, None);
        wait_for_responses(&store, 1);
        let v = &lines(&store)[0];
        assert_eq!(status_of(v), "error", "{v:?}");
        assert_eq!(
            v.get("reason").and_then(json::Json::as_str),
            Some("store_unavailable"),
            "{v:?}"
        );
        // Zero max_bytes is a typo, rejected at parse time like zero
        // budgets everywhere else.
        server.submit_line(r#"{"id":"z","cmd":"gc","max_bytes":0}"#, &out, None);
        wait_for_responses(&store, 2);
        assert_eq!(status_of(&lines(&store)[1]), "error");
        server.drain();
    }

    #[test]
    fn batch_answers_every_item_plus_a_summary_with_per_item_isolation() {
        let server = Server::start(small_opts()).expect("server starts");
        let (out, store) = capture();
        server.submit_line(
            concat!(
                r#"{"id":"b","cmd":"batch","items":["#,
                r#"{"id":"i0","cmd":"analyze","protocol":"MSI-nonblocking-cache"},"#,
                r#"{"id":"i1","cmd":"panic"},"#,
                r#"{"id":"i2","cmd":"analyze","protocol":"NOPE"},"#,
                r#"{"id":"i3","cmd":"analyze","protocol":"MESI-nonblocking-cache"}"#,
                r#"]}"#
            ),
            &out,
            None,
        );
        // 4 item lines + 1 summary.
        wait_for_responses(&store, 5);
        // Reconciliation: the batch counts one completed for itself
        // plus one status per item (counters bump before lines write).
        let c = server.counters();
        assert_eq!(c.completed.load(Ordering::Relaxed), 3);
        assert_eq!(c.errors.load(Ordering::Relaxed), 1);
        assert_eq!(c.panicked.load(Ordering::Relaxed), 1);
        server.drain();
        let all = lines(&store);
        let by_id = |id: &str| {
            all.iter()
                .find(|v| v.get("id").and_then(json::Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("no response with id {id}: {all:?}"))
        };
        assert_eq!(status_of(by_id("i0")), "ok");
        assert_eq!(status_of(by_id("i1")), "panicked");
        assert_eq!(status_of(by_id("i2")), "error");
        assert_eq!(status_of(by_id("i3")), "ok", "items after a panic still run");
        let summary = by_id("b");
        assert_eq!(status_of(summary), "ok");
        assert_eq!(summary.get("cmd").and_then(json::Json::as_str), Some("batch"));
        let n = |k: &str| summary.get(k).and_then(json::Json::as_u64).unwrap_or(u64::MAX);
        assert_eq!(n("items"), 4);
        assert_eq!(n("ok"), 2);
        assert_eq!(n("errors"), 1);
        assert_eq!(n("panicked"), 1);
    }

    #[test]
    fn nested_batches_are_refused_per_item() {
        let server = Server::start(small_opts()).expect("server starts");
        let (out, store) = capture();
        server.submit_line(
            r#"{"id":"b","cmd":"batch","items":[{"id":"inner","cmd":"batch","items":[{"cmd":"ping"}]}]}"#,
            &out,
            None,
        );
        wait_for_responses(&store, 2);
        server.drain();
        let all = lines(&store);
        let inner = all
            .iter()
            .find(|v| v.get("id").and_then(json::Json::as_str) == Some("inner"))
            .expect("inner item answered");
        assert_eq!(status_of(inner), "error", "{inner:?}");
        assert!(
            inner
                .get("detail")
                .and_then(json::Json::as_str)
                .is_some_and(|d| d.contains("nest")),
            "{inner:?}"
        );
    }

    #[test]
    fn inline_mc_streams_progress_events_before_its_response() {
        let server = Server::start(small_opts()).expect("server starts");
        let (out, store) = capture();
        server.submit_line(
            r#"{"id":"p","cmd":"mc","protocol":"MSI-nonblocking-cache","vns":"unique","progress":true}"#,
            &out,
            None,
        );
        // The response line arrives last; progress lines precede it.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !lines(&store)
            .iter()
            .any(|v| v.get("status").is_some())
        {
            assert!(Instant::now() < deadline, "timed out waiting for the response");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.drain();
        let all = lines(&store);
        let progress: Vec<_> = all
            .iter()
            .filter(|v| v.get("event").and_then(json::Json::as_str) == Some("progress"))
            .collect();
        assert!(!progress.is_empty(), "expected progress events: {all:?}");
        for (i, p) in progress.iter().enumerate() {
            assert_eq!(p.get("id").and_then(json::Json::as_str), Some("p"));
            assert!(p.get("status").is_none(), "progress lines are not responses");
            assert_eq!(
                p.get("level").and_then(json::Json::as_u64),
                Some(i as u64 + 1),
                "levels arrive in order: {p:?}"
            );
            assert!(p.get("states").and_then(json::Json::as_u64).is_some());
            assert!(p.get("peak_bytes").is_some());
        }
        let resp = all.last().expect("a final response line");
        assert_eq!(status_of(resp), "ok", "{resp:?}");
        // Exactly one line carries a status: one request, one response.
        assert_eq!(
            all.iter().filter(|v| v.get("status").is_some()).count(),
            1
        );
    }

    #[test]
    fn bounded_reader_sheds_overlong_lines_without_buffering_them() {
        let long = format!("{}\nshort\n", "x".repeat(1_000_000));
        let mut r = std::io::BufReader::new(long.as_bytes());
        match read_line_bounded(&mut r, 1024).unwrap() {
            ReadLine::TooLong => {}
            _ => panic!("expected TooLong"),
        }
        match read_line_bounded(&mut r, 1024).unwrap() {
            ReadLine::Line(l) => assert_eq!(l, "short"),
            _ => panic!("expected the next line to survive"),
        }
        assert!(matches!(read_line_bounded(&mut r, 1024).unwrap(), ReadLine::Eof));
    }
}
