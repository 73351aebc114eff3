//! Multi-threaded throughput A/B of the gateway hot path: the concurrent
//! snapshot/shard architecture (the [`TimingFaultHandler`] shared by all
//! caller threads / [`MuxHandle`]) against the retained single-lock
//! baseline (the same handler behind one mutex and a dispatcher thread /
//! [`SerializedClient`]), on identical workloads.
//!
//! Two workload modes, both closed-loop with N caller threads:
//!
//! * **`gateway` mode (the headline and the `--check` gate)** drives the
//!   two handler architectures directly, with M in-process replicas that
//!   reply as soon as the request is planned. The old architecture is
//!   reproduced from the serialized client's data flow: one mutex over
//!   handler + pending waiters, callers plan and multicast under the
//!   lock, and every reply hops through a single dispatcher thread that
//!   re-takes the lock to classify it. Both paths run the one real-time
//!   handler, so the A/B isolates the architecture around it. The new
//!   architecture plans lock-free on the caller's thread and applies
//!   replies on whatever thread holds them (in the socket runtime that is
//!   the reactor thread; here it is the caller). This isolates exactly
//!   what the refactor changed — planning, reply classification, pending
//!   bookkeeping — from loopback-TCP costs that both paths share.
//!   With the PR 3 model cache making warm plans sub-microsecond, the
//!   serialization points (lock + dispatcher hop) dominate this path.
//!
//! * **`socket` mode (supplementary)** drives the full TCP runtime —
//!   [`SerializedClient`] vs a one-handle [`MuxPool`] against real replica servers
//!   on loopback. Reported in the JSON for end-to-end context, but not
//!   gated: on loopback both paths spend most of each call in kernel
//!   round trips they share, so the curve compresses toward 1× on small
//!   machines regardless of how the client is architected.
//!
//! The timed cells carry no observability (neither path pays span
//! bookkeeping); one extra instrumented cell per path harvests the
//! `aqua_lock_wait_ns_total` counters that show where the serialized
//! path burns its time.
//!
//! * **`e2e` mode (gated)** A/Bs the two *socket transports* at scale:
//!   L logical clients against R replicas with a fixed 2-way multicast
//!   per call. The `threaded` path is the retained thread-per-connection
//!   client — L independent [`ThreadedClient`]s, so `L x R` sockets and
//!   `2 x L x R` OS threads, every connection subscribed to the server's
//!   `PerfUpdate` broadcast. The `mux` path multiplexes the same L
//!   logical clients as [`MuxHandle`]s over a single [`MuxPool`] — R
//!   sockets total, one reactor thread, batched vectored writes. This is
//!   the workload the reactor rework targets: few sockets, many logical
//!   clients, coalesced syscalls.
//!
//! Usage: `throughput_bench [--check] [--out PATH] [--duration-ms D]
//!         [--threads N,N,...] [--no-socket] [--no-e2e]`
//!
//! `--check` exits non-zero unless gateway mode clears the CI perf-smoke
//! gate: >= 3x the serialized throughput at N = 8, and N = 1 p99 latency
//! no worse than the baseline's (within a noise allowance). It also runs
//! the tracing-overhead probe — the socket runtime with causal spans
//! journalled to disk vs no observability, on replicas with a realistic
//! service time — and fails unless the traced path retains >= 90% of the
//! untraced req/s. The e2e gate demands the mux transport reach >= 2x the
//! threaded baseline's req/s at L = 64 logical clients, with a mean
//! writev batch above 1.5 frames per syscall.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant as StdInstant};

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{MethodId, PerfReport};
use aqua_core::time::{Duration, Instant};
use aqua_gateway::{ReplyOutcome, TimingFaultHandler};
use aqua_obs::contention::LockContention;
use aqua_obs::json::JsonValue;
use aqua_runtime::{
    CallError, CallOutcome, MuxHandle, MuxPool, MuxPoolConfig, ReplicaServer, ReplicaServerConfig,
    SerializedClient, ThreadedClient,
};
use aqua_strategies::{ModelBased, StaticK};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

/// The throughput multiple the CI perf-smoke gate demands at the checked N.
const CHECK_MIN_SPEEDUP: f64 = 3.0;
const CHECK_N: usize = 8;
/// Noise allowance on the single-thread p99 comparison: tail latency
/// jitters run-to-run, so "no worse" means within this factor.
const CHECK_P99_TOLERANCE: f64 = 1.25;
/// Tracing-overhead gate: with spans journalled the end-to-end socket
/// path must retain at least this fraction of its spans-off throughput
/// (i.e. tracing may cost at most 10% of req/s).
const CHECK_TRACE_RETENTION: f64 = 0.90;
/// Thread count for the tracing-overhead probe: enough concurrency to
/// stress the journal lock without saturating small CI machines.
const TRACE_PROBE_N: usize = 4;

const REPLICAS: u64 = 3;
/// Sliding-window size `l` (paper default, same as `MuxPoolConfig`).
const WINDOW: usize = 5;

/// e2e mode: replica count (one socket per replica on the mux path).
const E2E_REPLICAS: u64 = 4;
/// e2e mode: fixed multicast fan-out per call (`StaticK`), so both
/// transports do deterministic 2-way redundancy on every request.
const E2E_FANOUT: usize = 2;
/// e2e mode: logical-client grid.
const E2E_LOGICAL: [usize; 2] = [8, 64];
/// e2e gate: checked logical-client count.
const E2E_CHECK_L: usize = 64;
/// e2e gate: the mux transport must reach this multiple of the threaded
/// baseline's req/s at [`E2E_CHECK_L`].
const CHECK_E2E_MIN_SPEEDUP: f64 = 2.0;
/// e2e gate: mean frames per `writev` on the mux path must exceed this
/// (proof that multicast batching actually coalesces syscalls).
const CHECK_E2E_MIN_BATCH: f64 = 1.5;

fn qos() -> QosSpec {
    QosSpec::new(Duration::from_millis(200), 0.9).unwrap()
}

/// One measured cell: N closed-loop threads on one shared gateway path.
struct Cell {
    mode: &'static str,
    path: &'static str,
    threads: usize,
    calls: u64,
    req_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drives `threads` closed-loop callers through `call` for `duration`,
/// after a warm-up that takes the planner out of cold start.
fn drive<F>(
    mode: &'static str,
    path: &'static str,
    threads: usize,
    duration: StdDuration,
    call: F,
) -> Cell
where
    F: Fn(&[u8]) + Sync,
{
    for _ in 0..20 {
        call(b"warm");
    }
    let stop = AtomicBool::new(false);
    let started = StdInstant::now();
    let mut per_thread: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let stop = &stop;
            let call = &call;
            handles.push(scope.spawn(move || {
                let mut lat: Vec<u64> = Vec::with_capacity(4096);
                while !stop.load(Ordering::Relaxed) {
                    let t = StdInstant::now();
                    call(b"bench");
                    lat.push(t.elapsed().as_nanos() as u64);
                }
                lat
            }));
        }
        std::thread::sleep(duration);
        // aqua-lint: allow(atomics-ordering) pure termination latch; `join` below synchronizes the latency buffers
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            per_thread.push(h.join().expect("caller thread"));
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut lat: Vec<u64> = per_thread.into_iter().flatten().collect();
    lat.sort_unstable();
    Cell {
        mode,
        path,
        threads,
        calls: lat.len() as u64,
        req_per_sec: lat.len() as f64 / elapsed,
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
        p999_ns: percentile(&lat, 0.999),
    }
}

// ---------------------------------------------------------------------------
// Gateway mode: the two handler architectures with in-process replicas.
// ---------------------------------------------------------------------------

/// Synthesizes the per-reply performance report a replica would piggyback.
/// Varies service time by sequence number so the sliding-window model sees
/// a spread of samples, like a real replica under jitter.
fn perf_for(seq: u64) -> PerfReport {
    PerfReport {
        service_time: Duration::from_nanos(100_000 + (seq.wrapping_mul(37) % 900_000)),
        queuing_delay: Duration::from_nanos(0),
        queue_len: 0,
        method: MethodId::DEFAULT,
    }
}

/// A reply in flight from an in-process replica to the dispatcher.
struct GwEvent {
    seq: u64,
    replica: ReplicaId,
    perf: PerfReport,
}

struct GwState {
    handler: TimingFaultHandler,
    /// seq → channel delivering the first reply back to the caller.
    waiters: HashMap<u64, Sender<CallOutcome>>,
}

/// The old architecture, reproduced from the serialized client's data
/// flow: one mutex over handler + pending table, and a single dispatcher
/// thread that is the only place replies may touch the handler.
struct SerializedGateway {
    state: Arc<Mutex<GwState>>,
    contention: Arc<LockContention>,
    event_tx: Sender<GwEvent>,
    epoch: StdInstant,
}

impl SerializedGateway {
    fn new(obs: Option<&aqua_obs::Obs>) -> SerializedGateway {
        let mut handler = TimingFaultHandler::new(qos(), WINDOW, Box::new(ModelBased::default()));
        if let Some(obs) = obs {
            handler.attach_obs(obs, Some(0));
        }
        for i in 0..REPLICAS {
            handler.insert_replica(Instant::from_nanos(0), ReplicaId::new(i));
        }
        let contention = Arc::new(match obs {
            Some(obs) => LockContention::new(obs.registry(), "client-state"),
            None => LockContention::detached(),
        });
        let state = Arc::new(Mutex::new(GwState {
            handler,
            waiters: HashMap::new(),
        }));
        let (event_tx, event_rx): (Sender<GwEvent>, Receiver<GwEvent>) = unbounded();
        let epoch = StdInstant::now();
        {
            let state = Arc::clone(&state);
            let contention = Arc::clone(&contention);
            // aqua-lint: allow(spawn-join) faithful replica of the old dispatcher under test; exits when the last event_tx drops
            std::thread::spawn(move || {
                // The dispatcher: sole reply path, re-taking the global
                // lock for every classification, exactly as the old
                // client's dispatcher_loop did.
                while let Ok(ev) = event_rx.recv() {
                    let now = Instant::from_nanos(epoch.elapsed().as_nanos() as u64);
                    let mut state =
                        contention.acquire(|| state.lock().unwrap_or_else(|p| p.into_inner()));
                    let outcome = state.handler.on_reply(now, ev.seq, ev.replica, ev.perf);
                    if let ReplyOutcome::Deliver {
                        response_time,
                        verdict,
                    } = outcome
                    {
                        if let Some(tx) = state.waiters.remove(&ev.seq) {
                            let _ = tx.send(CallOutcome {
                                response_time,
                                timely: verdict.is_timely(),
                                callback: verdict.should_notify(),
                                redundancy: 0,
                                replica: ev.replica,
                                payload: bytes::Bytes::new(),
                            });
                        }
                    }
                }
            });
        }
        SerializedGateway {
            state,
            contention,
            event_tx,
            epoch,
        }
    }

    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn call(&self) -> CallOutcome {
        let (tx, rx) = bounded(2);
        {
            // Plan + multicast + waiter registration all under the one
            // lock, as in the old client's call().
            let mut state = self
                .contention
                .acquire(|| self.state.lock().unwrap_or_else(|p| p.into_inner()));
            let plan = state.handler.plan_request_for(self.now(), None);
            state.waiters.insert(plan.seq, tx);
            for id in plan.replicas.iter() {
                // The in-process replica answers immediately; its reply
                // still must travel through the dispatcher.
                self.event_tx
                    .send(GwEvent {
                        seq: plan.seq,
                        replica: *id,
                        perf: perf_for(plan.seq),
                    })
                    .expect("dispatcher alive");
            }
        }
        rx.recv().expect("first reply delivered")
    }
}

/// The new architecture: lock-free planning on the caller's thread,
/// replies applied by whatever thread holds them — here the caller, in
/// the socket runtime the per-replica reader. No dispatcher, no global
/// lock.
struct ConcurrentGateway {
    handler: TimingFaultHandler,
    epoch: StdInstant,
}

impl ConcurrentGateway {
    fn new(obs: Option<&aqua_obs::Obs>) -> ConcurrentGateway {
        let mut handler = TimingFaultHandler::new(qos(), WINDOW, Box::new(ModelBased::default()));
        if let Some(obs) = obs {
            handler.attach_obs(obs, Some(0));
        }
        let epoch = StdInstant::now();
        for i in 0..REPLICAS {
            handler.insert_replica(Instant::from_nanos(0), ReplicaId::new(i));
        }
        ConcurrentGateway { handler, epoch }
    }

    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn call(&self) -> CallOutcome {
        let plan = self.handler.plan_request_for(self.now(), None);
        let mut delivered: Option<CallOutcome> = None;
        for id in plan.replicas.iter() {
            let outcome = self
                .handler
                .on_reply(self.now(), plan.seq, *id, perf_for(plan.seq));
            if let ReplyOutcome::Deliver {
                response_time,
                verdict,
            } = outcome
            {
                delivered = Some(CallOutcome {
                    response_time,
                    timely: verdict.is_timely(),
                    callback: verdict.should_notify(),
                    redundancy: plan.replicas.len(),
                    replica: *id,
                    payload: bytes::Bytes::new(),
                });
            }
        }
        delivered.expect("first reply delivered")
    }
}

fn run_gateway_serialized(threads: usize, duration: StdDuration) -> Cell {
    let gw = SerializedGateway::new(None);
    drive("gateway", "serialized", threads, duration, |_| {
        gw.call();
    })
}

fn run_gateway_concurrent(threads: usize, duration: StdDuration) -> Cell {
    let gw = ConcurrentGateway::new(None);
    drive("gateway", "concurrent", threads, duration, |_| {
        gw.call();
    })
}

// ---------------------------------------------------------------------------
// Socket mode: the full TCP runtime against real replica servers.
// ---------------------------------------------------------------------------

fn spawn_servers() -> Vec<ReplicaServer> {
    spawn_servers_with(0)
}

fn spawn_servers_with(service_ms: u64) -> Vec<ReplicaServer> {
    (0..REPLICAS)
        .map(|i| {
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i), service_ms))
                .expect("spawn")
        })
        .collect()
}

fn replicas_of(servers: &[ReplicaServer]) -> Vec<(ReplicaId, SocketAddr)> {
    servers.iter().map(|s| (s.replica(), s.addr())).collect()
}

fn client_config(obs: Option<aqua_obs::Obs>) -> MuxPoolConfig {
    let mut config = MuxPoolConfig::new(qos());
    config.give_up_after = Duration::from_secs(5);
    config.obs = obs;
    config
}

fn expect_call(r: Result<CallOutcome, CallError>) {
    r.expect("bench call");
}

fn run_socket_serialized(threads: usize, duration: StdDuration) -> Cell {
    let servers = spawn_servers();
    let client = SerializedClient::connect(
        &replicas_of(&servers),
        client_config(None),
        Box::new(ModelBased::default()),
    )
    .expect("connect serialized");
    drive("socket", "serialized", threads, duration, |p| {
        expect_call(client.call(MethodId::DEFAULT, p));
    })
}

/// A one-handle pool: the socket client a single logical caller uses.
fn socket_client(servers: &[ReplicaServer], obs: Option<aqua_obs::Obs>) -> (MuxPool, MuxHandle) {
    let pool = MuxPool::connect(&replicas_of(servers), client_config(obs)).expect("connect pool");
    let handle = pool.handle(Box::new(ModelBased::default()));
    (pool, handle)
}

fn run_socket_concurrent(threads: usize, duration: StdDuration) -> Cell {
    let servers = spawn_servers();
    let (_pool, client) = socket_client(&servers, None);
    drive("socket", "concurrent", threads, duration, |p| {
        expect_call(client.call(MethodId::DEFAULT, p));
    })
}

// ---------------------------------------------------------------------------
// e2e mode: the reactor/mux transport vs the thread-per-connection
// baseline, L logical clients with fixed 2-way multicast per call.
// ---------------------------------------------------------------------------

/// An e2e grid cell: the measured throughput plus the transport's
/// resource footprint and (mux only) the writev batching it achieved.
struct E2eCell {
    cell: Cell,
    connections: usize,
    os_threads: usize,
    frames_per_writev: Option<f64>,
}

/// Like [`drive`], but each caller thread owns its *own* client object —
/// a `MuxHandle` or a whole `ThreadedClient` — instead of sharing one.
/// Callers warm up, rendezvous on a barrier, then run closed-loop.
fn drive_fleet<T, F>(
    mode: &'static str,
    path: &'static str,
    clients: Vec<T>,
    duration: StdDuration,
    call: F,
) -> Cell
where
    T: Send,
    F: Fn(&T, &[u8]) + Sync,
{
    let threads = clients.len();
    let stop = AtomicBool::new(false);
    let barrier = std::sync::Barrier::new(threads + 1);
    let mut per_thread: Vec<Vec<u64>> = Vec::new();
    let mut elapsed = 0.0f64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in clients {
            let stop = &stop;
            let call = &call;
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                for _ in 0..5 {
                    call(&client, b"warm");
                }
                barrier.wait();
                let mut lat: Vec<u64> = Vec::with_capacity(4096);
                while !stop.load(Ordering::Relaxed) {
                    let t = StdInstant::now();
                    call(&client, b"bench");
                    lat.push(t.elapsed().as_nanos() as u64);
                }
                lat
            }));
        }
        barrier.wait();
        let started = StdInstant::now();
        std::thread::sleep(duration);
        // aqua-lint: allow(atomics-ordering) pure termination latch; `join` below synchronizes the latency buffers
        stop.store(true, Ordering::Relaxed);
        elapsed = started.elapsed().as_secs_f64();
        for h in handles {
            per_thread.push(h.join().expect("caller thread"));
        }
    });
    let mut lat: Vec<u64> = per_thread.into_iter().flatten().collect();
    lat.sort_unstable();
    Cell {
        mode,
        path,
        threads,
        calls: lat.len() as u64,
        req_per_sec: lat.len() as f64 / elapsed.max(1e-9),
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
        p999_ns: percentile(&lat, 0.999),
    }
}

fn e2e_servers() -> Vec<ReplicaServer> {
    (0..E2E_REPLICAS)
        .map(|i| {
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i), 0)).expect("spawn")
        })
        .collect()
}

fn run_e2e_threaded(logical: usize, duration: StdDuration) -> E2eCell {
    let servers = e2e_servers();
    let replicas = replicas_of(&servers);
    let clients: Vec<ThreadedClient> = (0..logical)
        .map(|i| {
            let mut config = client_config(None);
            config.id = i as u64;
            ThreadedClient::connect(&replicas, config, Box::new(StaticK { k: E2E_FANOUT }))
                .expect("connect threaded")
        })
        .collect();
    let cell = drive_fleet("e2e", "threaded", clients, duration, |c, p| {
        expect_call(c.call(MethodId::DEFAULT, p));
    });
    E2eCell {
        cell,
        connections: logical * E2E_REPLICAS as usize,
        // Writer + reader per connection, plus the callers themselves.
        os_threads: 2 * logical * E2E_REPLICAS as usize + logical,
        frames_per_writev: None,
    }
}

fn run_e2e_mux(logical: usize, duration: StdDuration) -> E2eCell {
    let servers = e2e_servers();
    let obs = aqua_obs::Obs::metrics_only();
    // Only the mux cell carries obs: the syscall counters it pays for
    // are what prove the batching claim, and the cost lands on the path
    // being gated, not the baseline.
    let config = client_config(Some(obs.clone()));
    let pool = MuxPool::connect(&replicas_of(&servers), config).expect("connect mux pool");
    let handles: Vec<_> = (0..logical)
        .map(|_| pool.handle(Box::new(StaticK { k: E2E_FANOUT })))
        .collect();
    let cell = drive_fleet("e2e", "mux", handles, duration, |h, p| {
        expect_call(h.call(MethodId::DEFAULT, p));
    });
    let frames_per_writev = obs
        .registry()
        .histogram("aqua_net_writev_batch_frames", &[])
        .mean();
    E2eCell {
        cell,
        connections: E2E_REPLICAS as usize,
        // One reactor thread plus the callers.
        os_threads: logical + 1,
        frames_per_writev,
    }
}

fn e2e_json(c: &E2eCell) -> JsonValue {
    let mut b = JsonValue::object()
        .field("path", c.cell.path)
        .field("logical_clients", c.cell.threads)
        .field("connections", c.connections)
        .field("os_threads", c.os_threads)
        .field("calls", c.cell.calls)
        .field("req_per_sec", c.cell.req_per_sec)
        .field("p50_ns", c.cell.p50_ns)
        .field("p99_ns", c.cell.p99_ns);
    if let Some(m) = c.frames_per_writev {
        b = b.field("frames_per_writev", m);
    }
    b.build()
}

// ---------------------------------------------------------------------------
// Tracing-overhead probe: the full socket runtime A/B'd with causal spans
// journalled to disk vs no observability at all. The gateway
// microbenchmark would be the wrong place to measure this — its warm
// plans are sub-microsecond, so any journal write dwarfs them. The probe
// servers take [`TRACE_PROBE_SERVICE_MS`] per request (the paper's
// replicas take ~100 ms), so span emission competes with a realistic
// request cost, which is what the ≤10% budget is a claim about; a
// zero-work loopback cell would gate the observer's lock against a
// workload that cannot occur.
// ---------------------------------------------------------------------------

/// Deterministic service time for the tracing-overhead probe's replicas.
const TRACE_PROBE_SERVICE_MS: u64 = 1;

fn run_socket_trace_cell(
    path: &'static str,
    threads: usize,
    duration: StdDuration,
    obs: Option<aqua_obs::Obs>,
) -> Cell {
    let servers = spawn_servers_with(TRACE_PROBE_SERVICE_MS);
    let (_pool, client) = socket_client(&servers, obs);
    drive("socket", path, threads, duration, |p| {
        expect_call(client.call(MethodId::DEFAULT, p));
    })
}

/// Back-to-back spans-off / spans-on cells on the socket runtime.
fn trace_overhead_probe(duration: StdDuration) -> (Cell, Cell) {
    let off = run_socket_trace_cell("untraced", TRACE_PROBE_N, duration, None);
    let dir = std::env::temp_dir().join(format!("aqua-trace-overhead-{}", std::process::id()));
    let obs = aqua_obs::Obs::to_dir_rotating(&dir, 64 * 1024 * 1024).expect("trace journal dir");
    let on = run_socket_trace_cell("traced", TRACE_PROBE_N, duration, Some(obs));
    let _ = std::fs::remove_dir_all(&dir);
    (off, on)
}

// ---------------------------------------------------------------------------
// Lock-wait probe: short instrumented gateway cells harvesting the
// `aqua_lock_wait_ns_total` counters.
// ---------------------------------------------------------------------------

fn lock_waits(obs: &aqua_obs::Obs, locks: &[&str]) -> JsonValue {
    let mut b = JsonValue::object();
    for lock in locks {
        let wait = obs
            .registry()
            .counter("aqua_lock_wait_ns_total", &[("lock", lock)])
            .get();
        b = b.field(*lock, wait);
    }
    b.build()
}

fn contention_probe(threads: usize, duration: StdDuration) -> (JsonValue, JsonValue) {
    let obs_s = aqua_obs::Obs::metrics_only();
    let calls_s = {
        let gw = SerializedGateway::new(Some(&obs_s));
        drive("gateway", "serialized+obs", threads, duration, |_| {
            gw.call();
        })
        .calls
    };
    let obs_c = aqua_obs::Obs::metrics_only();
    let calls_c = {
        let gw = ConcurrentGateway::new(Some(&obs_c));
        drive("gateway", "concurrent+obs", threads, duration, |_| {
            gw.call();
        })
        .calls
    };
    (
        JsonValue::object()
            .field("calls", calls_s)
            .field("waits", lock_waits(&obs_s, &["client-state"]))
            .build(),
        JsonValue::object()
            .field("calls", calls_c)
            .field(
                "waits",
                lock_waits(&obs_c, &["pending-shard", "ingest-shard", "publish"]),
            )
            .build(),
    )
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

fn print_cell(c: &Cell) {
    println!(
        "{:>8} {:>11} {:>3} {:>9} {:>10.0} {:>9.1} {:>9.1} {:>9.1}",
        c.mode,
        c.path,
        c.threads,
        c.calls,
        c.req_per_sec,
        c.p50_ns as f64 / 1_000.0,
        c.p99_ns as f64 / 1_000.0,
        c.p999_ns as f64 / 1_000.0,
    );
}

fn cell_json(c: &Cell) -> JsonValue {
    JsonValue::object()
        .field("path", c.path)
        .field("threads", c.threads)
        .field("calls", c.calls)
        .field("req_per_sec", c.req_per_sec)
        .field("p50_ns", c.p50_ns)
        .field("p99_ns", c.p99_ns)
        .field("p999_ns", c.p999_ns)
        .build()
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: throughput_bench [--check] [--no-socket] [--no-e2e] [--out PATH] \
         [--duration-ms MS] [--threads N,N,...]"
    );
    std::process::exit(2);
}

fn main() {
    let mut check = false;
    let mut out = String::from("BENCH_THROUGHPUT.json");
    let mut duration = StdDuration::from_millis(500);
    let mut grid: Vec<usize> = vec![1, 2, 4, 8, 16];
    let mut socket = true;
    let mut e2e = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--no-socket" => socket = false,
            "--no-e2e" => e2e = false,
            "--out" => out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--duration-ms" => {
                let ms: u64 = args
                    .next()
                    .unwrap_or_else(|| usage("--duration-ms needs a value"))
                    .parse()
                    .unwrap_or_else(|_| usage("--duration-ms must be an integer"));
                duration = StdDuration::from_millis(ms);
            }
            "--threads" => {
                grid = args
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a list"))
                    .split(',')
                    .map(|t| {
                        t.parse()
                            .unwrap_or_else(|_| usage("--threads must be integers"))
                    })
                    .collect();
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if check && !grid.contains(&CHECK_N) {
        grid.push(CHECK_N);
    }
    if check && !grid.contains(&1) {
        grid.insert(0, 1);
    }
    if check {
        // The e2e transport comparison is part of the gate.
        e2e = true;
    }

    println!(
        "{:>8} {:>11} {:>3} {:>9} {:>10} {:>9} {:>9} {:>9}",
        "mode", "path", "N", "calls", "req/s", "p50 (us)", "p99 (us)", "p999 (us)"
    );
    let mut gateway_cells: Vec<Cell> = Vec::new();
    for &n in &grid {
        for run in [run_gateway_serialized, run_gateway_concurrent] {
            let cell = run(n, duration);
            print_cell(&cell);
            gateway_cells.push(cell);
        }
    }
    let mut socket_cells: Vec<Cell> = Vec::new();
    if socket {
        // End-to-end context only: a reduced grid keeps the run short.
        for n in [1usize, CHECK_N] {
            for run in [run_socket_serialized, run_socket_concurrent] {
                let cell = run(n, duration);
                print_cell(&cell);
                socket_cells.push(cell);
            }
        }
    }

    let mut e2e_cells: Vec<E2eCell> = Vec::new();
    if e2e {
        for &l in &E2E_LOGICAL {
            for run in [run_e2e_threaded, run_e2e_mux] {
                let c = run(l, duration);
                print_cell(&c.cell);
                e2e_cells.push(c);
            }
        }
    }

    // Always measured, even with --no-socket: two short cells on the real
    // runtime are what the ≤10% tracing budget is defined against.
    let (trace_off, trace_on) = trace_overhead_probe(duration);
    print_cell(&trace_off);
    print_cell(&trace_on);
    let trace_retention = trace_on.req_per_sec / trace_off.req_per_sec.max(1.0);

    let probe_n = CHECK_N.min(*grid.iter().max().unwrap_or(&CHECK_N));
    let (ser_locks, conc_locks) =
        contention_probe(probe_n, duration.min(StdDuration::from_millis(300)));

    let gw = |path: &str, n: usize| -> (f64, u64) {
        let c = gateway_cells
            .iter()
            .find(|c| c.path == path && c.threads == n)
            .expect("gateway cell measured");
        (c.req_per_sec, c.p99_ns)
    };
    let speedups: Vec<JsonValue> = grid
        .iter()
        .map(|&n| {
            let (s, _) = gw("serialized", n);
            let (c, _) = gw("concurrent", n);
            JsonValue::object()
                .field("threads", n)
                .field("throughput_ratio", c / s)
                .build()
        })
        .collect();
    let report = JsonValue::object()
        .field("bench", "throughput_bench")
        .field("replicas", REPLICAS)
        .field("duration_ms_per_cell", duration.as_millis() as u64)
        .field(
            "check_criterion",
            format!(
                "gateway mode: concurrent >= {CHECK_MIN_SPEEDUP}x serialized req/s at \
                 N={CHECK_N}; concurrent p99 <= {CHECK_P99_TOLERANCE}x serialized p99 at N=1; \
                 e2e mode: mux >= {CHECK_E2E_MIN_SPEEDUP}x threaded req/s at L={E2E_CHECK_L} \
                 with > {CHECK_E2E_MIN_BATCH} frames per writev"
            ),
        )
        .field(
            "gateway_hot_path",
            JsonValue::object()
                .field(
                    "description",
                    "planning + reply classification + pending bookkeeping with in-process \
                     replicas; the paths differ only in the concurrency architecture",
                )
                .field(
                    "curve",
                    JsonValue::Array(gateway_cells.iter().map(cell_json).collect()),
                )
                .field("speedup", JsonValue::Array(speedups))
                .build(),
        )
        .field(
            "socket_end_to_end",
            JsonValue::object()
                .field(
                    "description",
                    "full TCP runtime on loopback; both paths share the kernel round \
                     trips, so this curve compresses toward 1x on small machines",
                )
                .field(
                    "curve",
                    JsonValue::Array(socket_cells.iter().map(cell_json).collect()),
                )
                .build(),
        )
        .field(
            "end_to_end",
            JsonValue::object()
                .field(
                    "description",
                    "socket transports A/B'd at L logical clients with fixed 2-way \
                     multicast: mux = one reactor + R sockets shared by all handles, \
                     threaded = L independent thread-per-connection clients",
                )
                .field("replicas", E2E_REPLICAS)
                .field("fanout", E2E_FANOUT)
                .field(
                    "grid",
                    JsonValue::Array(e2e_cells.iter().map(e2e_json).collect()),
                )
                .build(),
        )
        .field(
            "tracing_overhead",
            JsonValue::object()
                .field(
                    "description",
                    "socket runtime at fixed N with causal spans journalled to disk vs no \
                     observability; retention = traced req/s over untraced req/s",
                )
                .field("threads", TRACE_PROBE_N)
                .field("untraced", cell_json(&trace_off))
                .field("traced", cell_json(&trace_on))
                .field("retention", trace_retention)
                .field("min_retention", CHECK_TRACE_RETENTION)
                .build(),
        )
        .field(
            "lock_wait_ns",
            JsonValue::object()
                .field("probe_threads", probe_n)
                .field("serialized", ser_locks)
                .field("concurrent", conc_locks)
                .build(),
        )
        .build();
    std::fs::write(&out, report.render_pretty() + "\n").expect("write BENCH_THROUGHPUT.json");
    println!("\nwrote {out}");

    if check {
        let (ser8, _) = gw("serialized", CHECK_N);
        let (conc8, _) = gw("concurrent", CHECK_N);
        let speedup = conc8 / ser8;
        let (_, ser1_p99) = gw("serialized", 1);
        let (_, conc1_p99) = gw("concurrent", 1);
        let p99_ratio = conc1_p99 as f64 / ser1_p99.max(1) as f64;
        let mut failed = false;
        if speedup < CHECK_MIN_SPEEDUP {
            eprintln!(
                "FAIL: concurrent gateway path is only {speedup:.2}x the serialized \
                 throughput at N={CHECK_N} (need >= {CHECK_MIN_SPEEDUP}x)"
            );
            failed = true;
        }
        if p99_ratio > CHECK_P99_TOLERANCE {
            eprintln!(
                "FAIL: concurrent gateway p99 at N=1 is {p99_ratio:.2}x the serialized \
                 baseline (allowed <= {CHECK_P99_TOLERANCE}x)"
            );
            failed = true;
        }
        if trace_retention < CHECK_TRACE_RETENTION {
            eprintln!(
                "FAIL: causal tracing keeps only {:.1}% of the untraced socket throughput \
                 at N={TRACE_PROBE_N} (need >= {:.0}%)",
                trace_retention * 100.0,
                CHECK_TRACE_RETENTION * 100.0
            );
            failed = true;
        }
        let e2e_at = |path: &str| -> &E2eCell {
            e2e_cells
                .iter()
                .find(|c| c.cell.path == path && c.cell.threads == E2E_CHECK_L)
                .expect("e2e cell measured")
        };
        let mux = e2e_at("mux");
        let threaded = e2e_at("threaded");
        let e2e_speedup = mux.cell.req_per_sec / threaded.cell.req_per_sec.max(1.0);
        let batch = mux.frames_per_writev.unwrap_or(0.0);
        if e2e_speedup < CHECK_E2E_MIN_SPEEDUP {
            eprintln!(
                "FAIL: mux transport is only {e2e_speedup:.2}x the threaded baseline at \
                 L={E2E_CHECK_L} logical clients (need >= {CHECK_E2E_MIN_SPEEDUP}x)"
            );
            failed = true;
        }
        if batch <= CHECK_E2E_MIN_BATCH {
            eprintln!(
                "FAIL: mux writev batches average {batch:.2} frames per syscall at \
                 L={E2E_CHECK_L} (need > {CHECK_E2E_MIN_BATCH})"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: {speedup:.1}x throughput at N={CHECK_N}, p99 ratio {p99_ratio:.2} \
             at N=1, tracing retains {:.1}% of untraced req/s, e2e mux {e2e_speedup:.1}x \
             threaded at L={E2E_CHECK_L} with {batch:.1} frames/writev",
            trace_retention * 100.0
        );
    }
}
