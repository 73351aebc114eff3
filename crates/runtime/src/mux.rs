//! The socket client: logical client handles multiplexed over one
//! reactor-managed socket set.
//!
//! A [`MuxPool`] opens **one** socket per replica, all owned by a single
//! reactor event-loop thread in nonblocking mode, and carves the
//! request sequence space into per-handle namespaces: the top
//! [`HANDLE_BITS`] bits of the wire `seq` carry the handle id, the low
//! bits the handle-local sequence number. Servers echo `seq` verbatim,
//! so multiplexing is invisible on the wire — replies route back to the
//! owning handle by their high bits. `L` logical clients against `R`
//! replicas cost `R` sockets and one I/O thread, not `L × R` connections.
//!
//! Each [`MuxHandle`] is one gateway handler of §5.4: it owns a full
//! `ConcurrentHandler` (its own sliding windows, failure detector, and
//! selection strategy), plans lock-free on the caller's thread against
//! the handler's published snapshot, multicasts the request (encoded
//! once, queued on every selected replica's outbound ring, flushed with
//! vectored writes), and delivers the earliest reply. A handle may be
//! shared by many caller threads: in-flight calls wait on a sharded
//! waiter table keyed by sequence number. Replies observed by one handle
//! are fanned to the others as passive perf updates — over a shared
//! socket every handle sees every reply, which keeps all repositories
//! warm without extra wire traffic.
//!
//! Resilience: with `retry_after` set, a call whose first selection has
//! not answered by then re-runs Algorithm 1 over the remaining replicas
//! and multicasts a sibling attempt. TCP teardown is the crash detector:
//! a lost socket evicts the replica from every handle, and under a
//! [`ReconnectPolicy`] a background thread reconnects with exponential
//! backoff, after which the replica rejoins every handle's repository
//! **on probation**.
//!
//! The previous clients are preserved behind feature flags as A/B
//! baselines: [`crate::serialized::SerializedClient`] (feature
//! `serialized-baseline`, single global lock) and
//! [`crate::threaded::ThreadedClient`] (feature `threaded-baseline`,
//! thread-per-connection writer/reader pairs).

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant as StdInstant;

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{MethodId, PerfReport};
use aqua_core::time::{Duration, Instant};
use aqua_gateway::{ConcurrentHandler, ReplyOutcome};
use aqua_strategies::SelectionStrategy;
use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;

use crate::reactor::{NetMetrics, Reactor, ReactorSink};
use crate::wire::Frame;

/// Bits of the wire sequence number reserved for the handle id.
pub const HANDLE_BITS: u32 = 24;
/// Bit position where the handle id starts (low bits are handle-local).
const HANDLE_SHIFT: u32 = 64 - HANDLE_BITS;
/// Mask selecting the handle-local sequence number.
const SEQ_MASK: u64 = (1 << HANDLE_SHIFT) - 1;

/// Number of waiter-table shards per handle (sequence numbers hash
/// across them).
const WAITER_SHARDS: usize = 16;

/// Configuration of a [`MuxPool`] and every handle it creates.
#[derive(Debug, Clone)]
pub struct MuxPoolConfig {
    /// QoS specification every handle starts from.
    pub qos: QosSpec,
    /// Sliding-window size `l` for each handle's repository.
    pub window: usize,
    /// Handles give up on a call after this long (must exceed the
    /// deadline).
    pub give_up_after: Duration,
    /// Pool identifier sent in `Hello` and used as the wire-metric
    /// `client` label. Handle `h` reports handler metrics and spans as
    /// client `id + h`, so pools sharing one journal need disjoint
    /// ranges.
    pub id: u64,
    /// Optional observability sink: pool-level wire and syscall counters,
    /// plus handler metrics and spans on every handle.
    pub obs: Option<aqua_obs::Obs>,
    /// Optional deadline-driven retry: when the first selection has not
    /// produced a reply after this long, Algorithm 1 re-runs over the
    /// *remaining* replicas and the request is re-multicast as a sibling
    /// attempt (the original stays live; the earliest reply of either
    /// wins). `None` disables retries.
    pub retry_after: Option<Duration>,
    /// Reconnect policy for replicas lost to TCP teardown. With the
    /// default policy a recovered replica rejoins the connection set and
    /// every handle's repository **on probation**; `None` evicts a lost
    /// replica for good.
    pub reconnect: Option<ReconnectPolicy>,
}

impl MuxPoolConfig {
    /// Paper defaults: window 5, give up after 5 s, reconnect with the
    /// default backoff, no retry stage.
    pub fn new(qos: QosSpec) -> Self {
        MuxPoolConfig {
            qos,
            window: 5,
            give_up_after: Duration::from_secs(5),
            id: 0,
            obs: None,
            retry_after: None,
            reconnect: Some(ReconnectPolicy::default()),
        }
    }
}

/// Exponential-backoff reconnect policy for replicas lost to TCP teardown.
///
/// Backoff state is kept per replica and only resets once a **frame**
/// arrives from the recovered replica — a refusing server that accepts and
/// immediately drops connections therefore keeps escalating the delay
/// instead of ping-ponging at the initial backoff.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Delay before the first reconnect attempt.
    pub initial_backoff: Duration,
    /// Ceiling for the doubled backoff delay.
    pub max_backoff: Duration,
    /// Give up on the replica after this many consecutive attempts
    /// without receiving a frame from it.
    pub max_attempts: u32,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            max_attempts: 20,
        }
    }
}

/// A successful call.
#[derive(Debug, Clone)]
pub struct CallOutcome {
    /// End-to-end response time `tr`.
    pub response_time: Duration,
    /// Whether the deadline was met.
    pub timely: bool,
    /// Whether the QoS-violation callback fired.
    pub callback: bool,
    /// How many replicas the request was multicast to.
    pub redundancy: usize,
    /// The replying replica.
    pub replica: ReplicaId,
    /// The reply payload.
    pub payload: Bytes,
}

/// A failed call.
#[derive(Debug)]
pub enum CallError {
    /// No replicas are connected.
    NoReplicas,
    /// No reply arrived within the give-up window (counted as a timing
    /// failure).
    GaveUp {
        /// How many replicas had been selected.
        redundancy: usize,
    },
    /// Transport-level failure.
    Io(io::Error),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::NoReplicas => write!(f, "no replicas available"),
            CallError::GaveUp { redundancy } => {
                write!(f, "no reply from any of {redundancy} selected replicas")
            }
            CallError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for CallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CallError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CallError {
    fn from(e: io::Error) -> Self {
        CallError::Io(e)
    }
}

/// Cached wire-level counters (frames/bytes in each direction), so the
/// hot path never touches the registry lock.
#[derive(Clone)]
pub(crate) struct WireMetrics {
    pub(crate) frames_sent: Arc<aqua_obs::metrics::Counter>,
    pub(crate) bytes_sent: Arc<aqua_obs::metrics::Counter>,
    pub(crate) frames_received: Arc<aqua_obs::metrics::Counter>,
    pub(crate) bytes_received: Arc<aqua_obs::metrics::Counter>,
    pub(crate) reconnects: Arc<aqua_obs::metrics::Counter>,
}

impl WireMetrics {
    pub(crate) fn new(obs: &aqua_obs::Obs, client: u64) -> Self {
        let client = client.to_string();
        let labels = [("client", client.as_str())];
        let registry = obs.registry();
        WireMetrics {
            frames_sent: registry.counter("aqua_wire_frames_sent_total", &labels),
            bytes_sent: registry.counter("aqua_wire_bytes_sent_total", &labels),
            frames_received: registry.counter("aqua_wire_frames_received_total", &labels),
            bytes_received: registry.counter("aqua_wire_bytes_received_total", &labels),
            reconnects: registry.counter("aqua_client_reconnects_total", &labels),
        }
    }

    pub(crate) fn on_sent(&self, frame: &Frame) {
        self.frames_sent.inc();
        self.bytes_sent.add(frame.encoded_len() as u64);
    }

    pub(crate) fn on_received(&self, frame: &Frame) {
        self.frames_received.inc();
        self.bytes_received.add(frame.encoded_len() as u64);
    }
}

/// A latch that background reconnect threads wait on instead of plain
/// sleeping, so teardown can interrupt a backoff wait and join promptly.
pub(crate) struct StopSignal {
    state: StdMutex<bool>,
    cv: Condvar,
}

impl StopSignal {
    pub(crate) fn new() -> StopSignal {
        StopSignal {
            state: StdMutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Raises the signal and wakes every waiter. Idempotent.
    pub(crate) fn raise(&self) {
        {
            let mut raised = self.state.lock().unwrap_or_else(|p| p.into_inner());
            *raised = true;
        }
        self.cv.notify_all();
    }

    /// Whether the signal has been raised.
    pub(crate) fn is_raised(&self) -> bool {
        *self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Blocks up to `dur`; returns `true` if the signal was raised before
    /// the timeout elapsed.
    pub(crate) fn wait(&self, dur: std::time::Duration) -> bool {
        let deadline = StdInstant::now() + dur;
        let mut raised = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while !*raised {
            let left = deadline.saturating_duration_since(StdInstant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(raised, left)
                .unwrap_or_else(|p| p.into_inner());
            raised = guard;
        }
        true
    }
}

/// One resolved call message on a waiter channel.
enum WaitMsg {
    Outcome(CallOutcome),
    /// Every replica disconnected while the call was in flight.
    NoReplicas,
}

fn resolve(msg: WaitMsg) -> Result<CallOutcome, CallError> {
    match msg {
        WaitMsg::Outcome(outcome) => Ok(outcome),
        WaitMsg::NoReplicas => Err(CallError::NoReplicas),
    }
}

/// An in-flight call attempt awaiting its first reply.
struct Waiter {
    tx: Sender<WaitMsg>,
    /// Total replicas multicast to across all sibling attempts.
    redundancy: usize,
    /// All attempt seqs of the same logical request (including this one);
    /// resolving any attempt retires the rest.
    group: Vec<u64>,
}

/// One gateway handler and its waiter table: a handle's state, shared
/// between its caller threads and the thread applying replies.
pub(crate) struct HandleState {
    pub(crate) handler: ConcurrentHandler,
    /// In-flight call attempts, sharded by handle-local seq:
    /// shard → seq → waiter.
    waiters: Vec<Mutex<HashMap<u64, Waiter>>>,
}

impl HandleState {
    pub(crate) fn new(handler: ConcurrentHandler) -> HandleState {
        HandleState {
            handler,
            waiters: (0..WAITER_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, seq: u64) -> &Mutex<HashMap<u64, Waiter>> {
        &self.waiters[(seq as usize) % WAITER_SHARDS]
    }

    fn park(&self, seq: u64, waiter: Waiter) {
        let mut shard = self.shard(seq).lock();
        shard.insert(seq, waiter);
    }

    /// Rewrites the sibling group and redundancy of a still-parked
    /// attempt.
    fn regroup(&self, seq: u64, group: Vec<u64>, redundancy: usize) {
        let mut shard = self.shard(seq).lock();
        if let Some(w) = shard.get_mut(&seq) {
            w.group = group;
            w.redundancy = redundancy;
        }
    }

    /// Removes any leftover waiter entries for the given attempts (the
    /// delivery path retires what it can see; the caller sweeps the rest
    /// once the call resolves).
    fn clear_waiters(&self, seqs: &[u64]) {
        for s in seqs {
            let mut shard = self.shard(*s).lock();
            shard.remove(s);
        }
    }

    /// Applies a reply to attempt `seq`; if it is the first of its
    /// request, resolves the waiting caller and retires the sibling
    /// waiters (the handler has already retired the sibling pending
    /// entries).
    pub(crate) fn on_reply(
        &self,
        now: Instant,
        seq: u64,
        replica: ReplicaId,
        perf: PerfReport,
        payload: Bytes,
    ) {
        let ReplyOutcome::Deliver {
            response_time,
            verdict,
        } = self.handler.on_reply(now, seq, replica, perf)
        else {
            return;
        };
        let waiter = {
            let mut shard = self.shard(seq).lock();
            shard.remove(&seq)
        };
        let Some(waiter) = waiter else {
            return; // resolved concurrently (give-up or disconnect sweep)
        };
        self.clear_waiters(&waiter.group);
        let outcome = CallOutcome {
            response_time,
            timely: verdict.is_timely(),
            callback: verdict.should_notify(),
            redundancy: waiter.redundancy,
            replica,
            payload,
        };
        let _ = waiter.tx.send(WaitMsg::Outcome(outcome));
    }

    /// Nobody left who could ever answer: fails every in-flight call
    /// immediately instead of letting each caller ride out its give-up
    /// timer.
    pub(crate) fn fail_all(&self, now: Instant) {
        let mut drained: Vec<(u64, Waiter)> = Vec::new();
        for shard in &self.waiters {
            let mut shard = shard.lock();
            drained.extend(shard.drain());
        }
        // One timing failure per logical request: the newest attempt
        // carries it, earlier ones retire as superseded.
        let mut handled: HashSet<u64> = HashSet::new();
        for (seq, mut waiter) in drained {
            if handled.contains(&seq) {
                continue; // a sibling of this group was already processed
            }
            waiter.group.sort_unstable();
            let last = *waiter.group.last().unwrap_or(&seq);
            for s in &waiter.group {
                handled.insert(*s);
                if *s != last {
                    self.handler.on_abandon(now, *s);
                }
            }
            self.handler.on_give_up(now, last);
            let _ = waiter.tx.send(WaitMsg::NoReplicas);
        }
    }

    /// The §12 call protocol over any transport: plans lock-free, parks
    /// the waiter, multicasts, optionally retries over the remaining
    /// replicas after `retry_after`, and waits out `give_up_after`.
    /// `clock` reads the client clock; `multicast(seq, payload, replicas)`
    /// sends attempt `seq` and returns how many replicas accepted it.
    pub(crate) fn call(
        &self,
        clock: impl Fn() -> Instant,
        give_up_after: Duration,
        retry_after: Option<Duration>,
        method: MethodId,
        payload: &[u8],
        multicast: impl Fn(u64, &Bytes, &[ReplicaId]) -> usize,
    ) -> Result<CallOutcome, CallError> {
        let t0 = clock();
        let started = StdInstant::now();
        let give_up = std::time::Duration::from(give_up_after);
        let payload = Bytes::copy_from_slice(payload);

        // Plan lock-free against the published snapshot, then park the
        // waiter *before* multicasting so even a lightning-fast reply
        // finds it.
        let plan = self.handler.plan_request_for(t0, Some(method));
        if plan.replicas.is_empty() {
            self.handler.on_give_up(clock(), plan.seq);
            return Err(CallError::NoReplicas);
        }
        let first_seq = plan.seq;
        let first_selection = plan.replicas;
        let mut redundancy = first_selection.len();
        let (tx, rx) = bounded(2);
        self.park(
            first_seq,
            Waiter {
                tx: tx.clone(),
                redundancy,
                group: vec![first_seq],
            },
        );
        if multicast(first_seq, &payload, &first_selection) == 0 {
            self.clear_waiters(&[first_seq]);
            self.handler.on_give_up(clock(), first_seq);
            return Err(CallError::GaveUp { redundancy });
        }
        let mut seqs = vec![first_seq];

        // Stage 1 (optional): wait until the intermediate retry deadline,
        // then re-run Algorithm 1 over the remaining replicas and multicast
        // a sibling attempt. The original stays live; earliest reply wins.
        if let Some(retry_after) = retry_after {
            let wait = std::time::Duration::from(retry_after).min(give_up);
            if let Ok(msg) = rx.recv_timeout(wait) {
                self.clear_waiters(&seqs);
                return resolve(msg);
            }
            let now = clock();
            // plan_retry handles the sibling-group protocol and returns
            // None if the request resolved meanwhile.
            let retry = self
                .handler
                .plan_retry(now, Some(method), t0, first_seq, &first_selection);
            if let Some(plan) = retry {
                let total = redundancy + plan.replicas.len();
                let group = vec![first_seq, plan.seq];
                self.regroup(first_seq, group.clone(), total);
                self.park(
                    plan.seq,
                    Waiter {
                        tx: tx.clone(),
                        redundancy: total,
                        group,
                    },
                );
                if multicast(plan.seq, &payload, &plan.replicas) > 0 {
                    redundancy = total;
                    seqs.push(plan.seq);
                } else {
                    // Nobody reachable for the retry: retire the attempt
                    // quietly.
                    self.clear_waiters(&[plan.seq]);
                    self.regroup(first_seq, vec![first_seq], redundancy);
                    self.handler.on_abandon(now, plan.seq);
                }
            }
        }

        // Stage 2: wait out the rest of the give-up window.
        let remaining = give_up.saturating_sub(started.elapsed());
        if let Ok(msg) = rx.recv_timeout(remaining) {
            self.clear_waiters(&seqs);
            return resolve(msg);
        }
        let now = clock();
        // One timing failure per logical request: the newest attempt
        // carries the give-up, earlier ones retire.
        if let Some((last, earlier)) = seqs.split_last() {
            for s in earlier {
                self.handler.on_abandon(now, *s);
            }
            if !self.handler.on_give_up(now, *last) {
                // A first reply (or the disconnect sweep) won the race
                // against our timer: the resolution is on the channel, or
                // arrives momentarily.
                let msg = rx.recv_timeout(std::time::Duration::from_secs(1)).ok();
                self.clear_waiters(&seqs);
                if let Some(msg) = msg {
                    return resolve(msg);
                }
                return Err(CallError::GaveUp { redundancy });
            }
        }
        self.clear_waiters(&seqs);
        Err(CallError::GaveUp { redundancy })
    }
}

struct Inner {
    config: MuxPoolConfig,
    /// Handle id → state. Read-mostly: writes only when a handle is
    /// created or dropped.
    handles: RwLock<HashMap<u64, Arc<HandleState>>>,
    /// Replica → reactor connection id; the reactor owns the sockets.
    conns: RwLock<HashMap<ReplicaId, u64>>,
    /// Last known address of every replica, for reconnects.
    addrs: Mutex<HashMap<ReplicaId, SocketAddr>>,
    /// Consecutive reconnect attempts per replica since its last frame.
    backoff: Mutex<HashMap<ReplicaId, u32>>,
    /// The event-loop thread owning every socket.
    reactor: Reactor,
    wire: Option<WireMetrics>,
    epoch: StdInstant,
    next_handle: AtomicU64,
    /// Self-reference handed to background reconnect threads.
    weak: Weak<Inner>,
    /// Interrupts reconnect backoff waits on teardown.
    stop: Arc<StopSignal>,
    /// Live reconnect threads, joined on teardown (finished handles are
    /// reaped opportunistically).
    reconnect_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn handle_state(&self, hid: u64) -> Option<Arc<HandleState>> {
        let handles = self.handles.read().unwrap_or_else(|p| p.into_inner());
        handles.get(&hid).cloned()
    }

    /// Every handle except `skip`, snapshotted so no lock is held while
    /// the handlers run.
    fn states(&self, skip: Option<u64>) -> Vec<Arc<HandleState>> {
        let handles = self.handles.read().unwrap_or_else(|p| p.into_inner());
        handles
            .iter()
            .filter(|(hid, _)| Some(**hid) != skip)
            .map(|(_, s)| Arc::clone(s))
            .collect()
    }

    /// Opens (or re-opens) the connection to one replica: the socket is
    /// handed to the reactor, which does all I/O from then on.
    fn open_connection(&self, id: ReplicaId, addr: SocketAddr) -> io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let conn = self.reactor.register(stream, id.index())?;
        // The subscription handshake goes into the outbound ring before
        // the connection id is published, so it precedes any request.
        let hello = Frame::Hello {
            client: self.config.id,
        };
        if self.reactor.send(conn, &hello) {
            if let Some(wire) = &self.wire {
                wire.on_sent(&hello);
            }
        }
        {
            let mut conns = self.conns.write().unwrap_or_else(|p| p.into_inner());
            conns.insert(id, conn);
        }
        {
            let mut addrs = self.addrs.lock();
            addrs.insert(id, addr);
        }
        Ok(())
    }

    /// Multicasts one request: the reactor encodes the frame once and
    /// queues its bytes on every listed replica's outbound ring; returns
    /// how many connections accepted it. Wire counters account at
    /// enqueue time, per accepted connection.
    fn multicast(
        &self,
        seq: u64,
        method: MethodId,
        payload: &Bytes,
        replicas: &[ReplicaId],
    ) -> usize {
        let targets: Vec<u64> = {
            let conns = self.conns.read().unwrap_or_else(|p| p.into_inner());
            replicas
                .iter()
                .filter_map(|id| conns.get(id).copied())
                .collect()
        };
        let frame = Frame::Request {
            seq,
            method: method.index(),
            payload: payload.clone(),
        };
        let sent = self.reactor.multicast(&targets, &frame);
        if let Some(wire) = &self.wire {
            for _ in 0..sent {
                wire.on_sent(&frame);
            }
        }
        sent
    }

    /// Starts the background reconnect loop for a lost replica (if a
    /// policy is configured). On success the replica rejoins the
    /// connection set and every handle's repository **on probation**.
    /// The thread's handle is tracked so teardown joins it; its backoff
    /// waits ride the stop latch, so the join is prompt.
    fn spawn_reconnect(&self, id: ReplicaId) {
        let Some(policy) = self.config.reconnect.clone() else {
            return;
        };
        let weak = self.weak.clone();
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::spawn(move || loop {
            if stop.is_raised() {
                return;
            }
            let Some(inner) = weak.upgrade() else { return };
            {
                let conns = inner.conns.read().unwrap_or_else(|p| p.into_inner());
                if conns.contains_key(&id) {
                    return; // already reconnected elsewhere
                }
            }
            let addr = {
                let addrs = inner.addrs.lock();
                addrs.get(&id).copied()
            };
            let Some(addr) = addr else { return };
            let attempt = {
                let mut backoff = inner.backoff.lock();
                let counter = backoff.entry(id).or_insert(0);
                let attempt = *counter;
                *counter += 1;
                attempt
            };
            if attempt >= policy.max_attempts {
                return;
            }
            let delay = std::time::Duration::from(policy.initial_backoff)
                .saturating_mul(1u32 << attempt.min(16))
                .min(std::time::Duration::from(policy.max_backoff));
            drop(inner); // don't pin the pool alive while waiting
            if stop.wait(delay) {
                return;
            }
            let Some(inner) = weak.upgrade() else { return };
            if inner.open_connection(id, addr).is_err() {
                continue;
            }
            if let Some(wire) = &inner.wire {
                wire.reconnects.inc();
            }
            let now = inner.now();
            for state in inner.states(None) {
                state.handler.on_rejoin(now, id);
            }
            return;
        });
        let mut threads = self.reconnect_threads.lock();
        threads.retain(|t| !t.is_finished());
        threads.push(handle);
    }
}

pub(crate) fn perf_report(
    service_ns: u64,
    queue_ns: u64,
    queue_len: u32,
    method: u32,
) -> PerfReport {
    PerfReport {
        service_time: Duration::from_nanos(service_ns),
        queuing_delay: Duration::from_nanos(queue_ns),
        queue_len,
        method: MethodId::new(method),
    }
}

impl ReactorSink for Inner {
    /// Applies one inbound frame (on the reactor thread): a reply goes to
    /// the handle named by its seq's high bits and is fanned to the others
    /// as a perf update; a pushed perf update goes to every handle.
    fn on_frame(&self, tag: u64, _conn: u64, frame: Frame) {
        if let Some(wire) = &self.wire {
            wire.on_received(&frame);
        }
        // A frame is proof of life: the replica's reconnect backoff
        // starts over.
        {
            let mut backoff = self.backoff.lock();
            backoff.remove(&ReplicaId::new(tag));
        }
        let now = self.now();
        match frame {
            Frame::Reply {
                seq,
                replica,
                service_ns,
                queue_ns,
                queue_len,
                method,
                payload,
            } => {
                let perf = perf_report(service_ns, queue_ns, queue_len, method);
                let replica = ReplicaId::new(replica);
                debug_assert_eq!(
                    replica.index(),
                    tag,
                    "replies come from their own connection"
                );
                let hid = seq >> HANDLE_SHIFT;
                let local = seq & SEQ_MASK;
                if let Some(state) = self.handle_state(hid) {
                    state.on_reply(now, local, replica, perf, payload);
                }
                for state in self.states(Some(hid)) {
                    state.handler.on_perf_update(now, replica, perf);
                }
            }
            Frame::PerfUpdate {
                replica,
                service_ns,
                queue_ns,
                queue_len,
                method,
            } => {
                let perf = perf_report(service_ns, queue_ns, queue_len, method);
                for state in self.states(None) {
                    state
                        .handler
                        .on_perf_update(now, ReplicaId::new(replica), perf);
                }
            }
            _ => {}
        }
    }

    /// TCP teardown is the crash detector: the replica leaves every
    /// handle's view. `conn` guards against stale events — if a reconnect
    /// already replaced this connection, the old one's teardown is
    /// ignored.
    fn on_disconnect(&self, tag: u64, conn: u64) {
        let id = ReplicaId::new(tag);
        let remaining: Vec<ReplicaId> = {
            let mut conns = self.conns.write().unwrap_or_else(|p| p.into_inner());
            match conns.get(&id) {
                Some(&current) if current == conn => {
                    conns.remove(&id);
                }
                _ => return,
            }
            conns.keys().copied().collect()
        };
        let now = self.now();
        for state in self.states(None) {
            state.handler.on_view(now, remaining.iter().copied());
            if remaining.is_empty() {
                state.fail_all(now);
            }
        }
        self.spawn_reconnect(id);
    }
}

/// The user-side owner of a pool's shared state, held by the [`MuxPool`]
/// and every [`MuxHandle`] but never by the reactor or a reconnect
/// thread. Whichever of them drops last tears the pool down on its own
/// thread: interrupt backoff waits, stop and join the reactor, then join
/// every reconnect thread — no thread outlives the pool.
struct Owner(Arc<Inner>);

impl std::ops::Deref for Owner {
    type Target = Inner;

    fn deref(&self) -> &Inner {
        &self.0
    }
}

impl Drop for Owner {
    fn drop(&mut self) {
        self.stop.raise();
        // The reactor goes first: its disconnect path is what spawns
        // reconnect threads, so none can start after the join below.
        self.reactor.shutdown();
        let threads: Vec<JoinHandle<()>> = {
            let mut threads = self.reconnect_threads.lock();
            threads.drain(..).collect()
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

/// A pool of reactor-managed replica sockets shared by many logical
/// client handles. See the module docs.
pub struct MuxPool {
    inner: Arc<Owner>,
}

impl std::fmt::Debug for MuxPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let handles = {
            let handles = self.inner.handles.read().unwrap_or_else(|p| p.into_inner());
            handles.len()
        };
        f.debug_struct("MuxPool")
            .field("connections", &self.connection_count())
            .field("handles", &handles)
            .finish()
    }
}

impl MuxPool {
    /// Opens one socket per replica on a fresh reactor and subscribes to
    /// the replicas' performance updates.
    ///
    /// # Errors
    ///
    /// Fails if any connection cannot be established.
    pub fn connect(
        replicas: &[(ReplicaId, SocketAddr)],
        config: MuxPoolConfig,
    ) -> io::Result<MuxPool> {
        let net = config.obs.as_ref().map(NetMetrics::new);
        let reactor = Reactor::spawn(net)?;
        let wire = config
            .obs
            .as_ref()
            .map(|obs| WireMetrics::new(obs, config.id));
        let inner = Arc::new_cyclic(|weak| Inner {
            config,
            handles: RwLock::new(HashMap::new()),
            conns: RwLock::new(HashMap::new()),
            addrs: Mutex::new(HashMap::new()),
            backoff: Mutex::new(HashMap::new()),
            reactor,
            wire,
            epoch: StdInstant::now(),
            next_handle: AtomicU64::new(0),
            weak: weak.clone(),
            stop: Arc::new(StopSignal::new()),
            reconnect_threads: Mutex::new(Vec::new()),
        });
        let weak = Arc::downgrade(&inner);
        let sink: Weak<dyn ReactorSink> = weak;
        inner.reactor.set_sink(sink);
        let pool = MuxPool {
            inner: Arc::new(Owner(inner)),
        };
        for (id, addr) in replicas {
            pool.inner.open_connection(*id, *addr)?;
        }
        Ok(pool)
    }

    /// Creates a logical client handle with its own selection strategy
    /// and repository, initialized with the pool's current replica set.
    ///
    /// # Panics
    ///
    /// Panics once [`HANDLE_BITS`] worth of handles have been created
    /// over the pool's lifetime.
    pub fn handle(&self, strategy: Box<dyn SelectionStrategy>) -> MuxHandle {
        let inner = &self.inner;
        let hid = inner.next_handle.fetch_add(1, Ordering::Relaxed);
        assert!(hid < (1 << HANDLE_BITS), "handle id space exhausted");
        let config = &inner.config;
        let mut handler = ConcurrentHandler::new(config.qos, config.window, strategy);
        if let Some(obs) = &config.obs {
            handler.attach_obs(obs, Some(config.id.wrapping_add(hid)));
        }
        let state = Arc::new(HandleState::new(handler));
        // Publish the handle before reading the replica set, so a replica
        // joining concurrently is seen either here or by its joiner.
        {
            let mut handles = inner.handles.write().unwrap_or_else(|p| p.into_inner());
            handles.insert(hid, Arc::clone(&state));
        }
        let replicas: Vec<ReplicaId> = {
            let conns = inner.conns.read().unwrap_or_else(|p| p.into_inner());
            conns.keys().copied().collect()
        };
        let now = inner.now();
        for id in replicas {
            state.handler.insert_replica(now, id);
        }
        MuxHandle {
            inner: Arc::clone(inner),
            state,
            hid,
        }
    }

    /// Connects to an additional replica at runtime (a new member joining
    /// the service group) and inserts it into every handle. The replica
    /// starts cold, so each handle's next request is a full multicast
    /// that warms it up (§5.4.1's bootstrap rule).
    ///
    /// # Errors
    ///
    /// Propagates connection errors; the pool is unchanged on failure.
    pub fn add_replica(&self, id: ReplicaId, addr: SocketAddr) -> io::Result<()> {
        self.inner.open_connection(id, addr)?;
        let now = self.inner.now();
        for state in self.inner.states(None) {
            state.handler.insert_replica(now, id);
        }
        Ok(())
    }

    /// Number of live replica connections.
    pub fn connection_count(&self) -> usize {
        let conns = self.inner.conns.read().unwrap_or_else(|p| p.into_inner());
        conns.len()
    }
}

/// One logical client multiplexed over a [`MuxPool`]'s sockets.
///
/// Independent in its selection decisions, and safe to share behind an
/// `Arc`: concurrent [`MuxHandle::call`]s plan, send, and resolve in
/// parallel. Dropping a handle closes no socket; the pool's sockets and
/// threads go once the pool and all its handles are gone.
pub struct MuxHandle {
    inner: Arc<Owner>,
    state: Arc<HandleState>,
    hid: u64,
}

impl std::fmt::Debug for MuxHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxHandle").field("id", &self.hid).finish()
    }
}

impl Drop for MuxHandle {
    fn drop(&mut self) {
        let mut handles = self
            .inner
            .handles
            .write()
            .unwrap_or_else(|p| p.into_inner());
        handles.remove(&self.hid);
    }
}

impl MuxHandle {
    /// Runs `f` against this handle's handler (repository inspection,
    /// stats, …).
    pub fn with_handler<R>(&self, f: impl FnOnce(&ConcurrentHandler) -> R) -> R {
        f(&self.state.handler)
    }

    /// Emits any request spans still buffered by the handler's observer
    /// and flushes the journal. Call once at the end of an observed run.
    pub fn finish_observability(&self) {
        self.state.handler.flush_observability();
    }

    /// Installs a fault timeline (e.g. from a chaos test's
    /// [`aqua_faults::FaultSchedule`]): every journalled span is tagged
    /// with the stable ids of overlapping fault windows so offline
    /// forensics can join misses to faults exactly. No-op without
    /// observability configured.
    pub fn set_fault_windows(&self, windows: Vec<aqua_faults::FaultWindow>) {
        self.state.handler.set_fault_windows(windows);
    }

    /// Replaces the QoS-calibration watchdog configuration (margin,
    /// window, alert cooldown). No-op without observability configured.
    pub fn configure_watchdog(&self, config: aqua_gateway::CalibrationConfig) {
        self.state
            .handler
            .with_observer(|observer| observer.configure_watchdog(config));
    }

    /// Registers a hook invoked on every QoS-calibration alert (the
    /// dependability-manager integration point). No-op without
    /// observability configured.
    pub fn on_calibration_alert(
        &self,
        hook: impl FnMut(&aqua_gateway::CalibrationAlert) + Send + 'static,
    ) {
        self.state
            .handler
            .with_observer(|observer| observer.watchdog_mut().add_hook(hook));
    }

    /// Renegotiates this handle's QoS spec at runtime (§5.4.2): the
    /// failure detector restarts under the new deadline and the planning
    /// snapshot is republished, so subsequent calls plan against the new
    /// spec.
    pub fn renegotiate(&self, qos: QosSpec) {
        self.state.handler.renegotiate(self.inner.now(), qos);
    }

    /// Invokes the replicated service through the shared socket pool:
    /// selects replicas per the QoS spec, multicasts the request, and
    /// returns the earliest reply.
    ///
    /// # Errors
    ///
    /// [`CallError::NoReplicas`] when every replica is gone,
    /// [`CallError::GaveUp`] when no selected replica answered within the
    /// give-up window.
    pub fn call(&self, method: MethodId, payload: &[u8]) -> Result<CallOutcome, CallError> {
        let inner = &self.inner;
        let config = &inner.config;
        let multicast = |seq: u64, payload: &Bytes, replicas: &[ReplicaId]| {
            // Attempt `seq` travels under this handle's wire namespace.
            debug_assert!(seq <= SEQ_MASK, "handle-local seq overflowed its field");
            let wire_seq = (self.hid << HANDLE_SHIFT) | (seq & SEQ_MASK);
            inner.multicast(wire_seq, method, payload, replicas)
        };
        self.state.call(
            || inner.now(),
            config.give_up_after,
            config.retry_after,
            method,
            payload,
            multicast,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ReplicaServer, ReplicaServerConfig};
    use aqua_strategies::{ModelBased, StaticK};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn spawn_servers(service_ms: &[u64]) -> Vec<ReplicaServer> {
        service_ms
            .iter()
            .enumerate()
            .map(|(i, s)| {
                ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i as u64), *s))
                    .expect("spawn")
            })
            .collect()
    }

    fn replicas_of(servers: &[ReplicaServer]) -> Vec<(ReplicaId, SocketAddr)> {
        servers.iter().map(|s| (s.replica(), s.addr())).collect()
    }

    fn connect(servers: &[ReplicaServer], config: MuxPoolConfig) -> MuxPool {
        MuxPool::connect(&replicas_of(servers), config).expect("connect")
    }

    /// A pool with one model-based handle: the single-client setup.
    fn client_for(servers: &[ReplicaServer], qos: QosSpec) -> (MuxPool, MuxHandle) {
        let pool = connect(servers, MuxPoolConfig::new(qos));
        let handle = pool.handle(Box::new(ModelBased::default()));
        (pool, handle)
    }

    /// Attempts currently parked in a handle's waiter table.
    fn parked(handle: &MuxHandle) -> usize {
        handle.state.waiters.iter().map(|s| s.lock().len()).sum()
    }

    #[test]
    fn end_to_end_calls_over_sockets() {
        let servers = spawn_servers(&[5, 10, 15]);
        let (_pool, client) = client_for(&servers, QosSpec::new(ms(500), 0.9).unwrap());
        let mut redundancies = Vec::new();
        for _ in 0..6 {
            let out = client
                .call(MethodId::DEFAULT, b"hello")
                .expect("call succeeds");
            assert!(out.timely, "500 ms deadline vs ≤15 ms service");
            assert_eq!(out.payload, Bytes::from_static(b"hello"), "echoed");
            redundancies.push(out.redundancy);
        }
        assert_eq!(redundancies[0], 3, "cold start selects all");
        assert_eq!(
            *redundancies.last().unwrap(),
            2,
            "warm Pc=0.9 needs only 2: {redundancies:?}"
        );
    }

    #[test]
    fn crash_is_detected_and_masked() {
        let servers = spawn_servers(&[5, 5, 5]);
        let (_pool, client) = client_for(&servers, QosSpec::new(ms(500), 0.9).unwrap());
        for _ in 0..3 {
            client.call(MethodId::DEFAULT, b"x").expect("warm up");
        }
        servers[0].crash();
        // The very next calls still succeed via the other replicas.
        let mut successes = 0;
        for _ in 0..5 {
            if client.call(MethodId::DEFAULT, b"x").is_ok() {
                successes += 1;
            }
        }
        assert!(successes >= 4, "only the in-flight call may be lost");
        client.with_handler(|h| {
            assert!(
                !h.repository().contains(ReplicaId::new(0)),
                "disconnect evicted the crashed replica"
            );
        });
    }

    #[test]
    fn all_crashed_yields_no_replicas() {
        let servers = spawn_servers(&[5]);
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(200), 0.0).unwrap());
        config.give_up_after = ms(400);
        let pool = connect(&servers, config);
        let client = pool.handle(Box::new(ModelBased::default()));
        client.call(MethodId::DEFAULT, b"x").expect("first ok");
        servers[0].crash();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let err = client.call(MethodId::DEFAULT, b"x").unwrap_err();
        assert!(
            matches!(err, CallError::NoReplicas | CallError::GaveUp { .. }),
            "{err}"
        );
        // Once the disconnect is processed, further calls fail fast.
        let err = client.call(MethodId::DEFAULT, b"x").unwrap_err();
        assert!(matches!(err, CallError::NoReplicas), "{err}");
    }

    #[test]
    fn measurements_fill_the_repository() {
        let servers = spawn_servers(&[20, 20]);
        let (_pool, client) = client_for(&servers, QosSpec::new(ms(500), 0.5).unwrap());
        for _ in 0..4 {
            client.call(MethodId::DEFAULT, b"y").expect("ok");
        }
        client.with_handler(|h| {
            let repo = h.repository();
            assert!(repo.all_warm(), "both replicas have measurements");
            for (_, stats) in repo.iter() {
                let hist = stats.history(MethodId::DEFAULT).unwrap();
                let latest = *hist.service_times().latest().unwrap();
                assert!(
                    latest >= ms(20) && latest < ms(200),
                    "measured ts ≈ slept 20 ms, got {latest}"
                );
            }
        });
    }

    #[test]
    fn timing_failures_are_detected_on_the_wall_clock() {
        let servers = spawn_servers(&[80]);
        // 30 ms deadline vs 80 ms service: every reply is late.
        let (_pool, client) = client_for(&servers, QosSpec::new(ms(30), 0.0).unwrap());
        let out = client.call(MethodId::DEFAULT, b"z").expect("reply arrives");
        assert!(!out.timely);
        assert!(out.response_time >= ms(80));
        client.with_handler(|h| {
            assert_eq!(h.detector().failures(), 1);
        });
    }

    #[test]
    fn observed_calls_emit_metrics_and_spans() {
        let (obs, reader) = aqua_obs::Obs::in_memory();
        let mut servers = Vec::new();
        for i in 0..2u64 {
            let mut cfg = ReplicaServerConfig::quick(ReplicaId::new(i), 5);
            cfg.obs = Some(obs.clone());
            servers.push(ReplicaServer::spawn(cfg).expect("spawn"));
        }
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        config.id = 42;
        config.obs = Some(obs.clone());
        let pool = connect(&servers, config);
        let a = pool.handle(Box::new(ModelBased::default()));
        let b = pool.handle(Box::new(ModelBased::default()));
        for _ in 0..4 {
            a.call(MethodId::DEFAULT, b"obs").expect("call ok");
        }
        b.call(MethodId::DEFAULT, b"obs").expect("call ok");
        a.finish_observability();
        b.finish_observability();

        // Each handle journals its own spans under its own client id, so
        // equal handle-local seqs stay distinguishable.
        let spans: Vec<String> = reader.lines_containing(r#""type":"request""#);
        assert_eq!(spans.len(), 5, "{spans:?}");
        assert!(
            spans[0].contains(r#""outcome":"delivered""#),
            "{}",
            spans[0]
        );
        let of = |client: &str| spans.iter().filter(|l| l.contains(client)).count();
        assert_eq!(of(r#""client":42"#), 4, "{spans:?}");
        assert_eq!(of(r#""client":43"#), 1, "{spans:?}");

        let prom = obs.prometheus();
        assert!(
            prom.contains("aqua_requests_total{client=\"42\"} 4"),
            "{prom}"
        );
        assert!(prom.contains("aqua_requests_total{client=\"43\"} 1"));
        assert!(prom.contains("aqua_wire_frames_sent_total{client=\"42\"}"));
        assert!(prom.contains("aqua_wire_bytes_received_total{client=\"42\"}"));
        assert!(prom.contains("aqua_server_serviced_total{replica=\"0\"}"));
        assert!(prom.contains("aqua_server_service_ns"));
        let delivered = a.with_handler(|h| h.stats().delivered);
        assert_eq!(delivered, 4);
    }

    #[test]
    fn wire_byte_counters_match_framing() {
        // The batching writer must account exactly the framing bytes the
        // old per-frame path would have: counters equal the sum of
        // `encoded_len` over everything sent.
        let (obs, _reader) = aqua_obs::Obs::in_memory();
        let servers = spawn_servers(&[5]);
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
        config.obs = Some(obs.clone());
        let pool = connect(&servers, config);
        let client = pool.handle(Box::new(ModelBased::default()));
        for _ in 0..3 {
            client.call(MethodId::DEFAULT, b"frame-check").expect("ok");
        }
        // Everything this pool sends has a fixed shape: one Hello plus
        // one Request per call (single replica, no retries).
        let hello = Frame::Hello { client: 0 }.encoded_len() as u64;
        let request = Frame::Request {
            seq: 0,
            method: 0,
            payload: Bytes::from_static(b"frame-check"),
        }
        .encoded_len() as u64;
        let frames = obs
            .registry()
            .counter("aqua_wire_frames_sent_total", &[("client", "0")])
            .get();
        let bytes = obs
            .registry()
            .counter("aqua_wire_bytes_sent_total", &[("client", "0")])
            .get();
        assert_eq!(frames, 4, "one hello + three requests");
        assert_eq!(bytes, hello + 3 * request, "framing unchanged");
    }

    #[test]
    fn concurrent_calls_share_the_client() {
        let servers = spawn_servers(&[10, 10, 10]);
        let (_pool, client) = client_for(&servers, QosSpec::new(ms(800), 0.9).unwrap());
        let client = Arc::new(client);
        let mut handles = Vec::new();
        for i in 0..8 {
            let c = Arc::clone(&client);
            handles.push(std::thread::spawn(move || {
                c.call(MethodId::DEFAULT, format!("c{i}").as_bytes())
                    .map(|o| o.timely)
            }));
        }
        for h in handles {
            assert!(h.join().unwrap().expect("call ok"), "all timely");
        }
        client.with_handler(|h| {
            assert_eq!(h.stats().delivered, 8);
            assert_eq!(h.pending_count(), 0);
        });
        assert_eq!(parked(&client), 0, "waiter table drained");
    }

    #[test]
    fn handles_share_sockets() {
        let servers = spawn_servers(&[1, 1]);
        let pool = connect(
            &servers,
            MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap()),
        );
        let a = pool.handle(Box::new(ModelBased::default()));
        let b = pool.handle(Box::new(ModelBased::default()));
        assert_eq!(pool.connection_count(), 2);
        let out = a.call(MethodId::DEFAULT, b"from-a").expect("call a");
        assert_eq!(out.payload, Bytes::from_static(b"from-a"));
        let out = b.call(MethodId::DEFAULT, b"from-b").expect("call b");
        assert_eq!(out.payload, Bytes::from_static(b"from-b"));
        a.with_handler(|h| assert_eq!(h.stats().delivered, 1));
        b.with_handler(|h| assert_eq!(h.stats().delivered, 1));
    }

    #[test]
    fn interleaved_replies_route_to_their_handle() {
        // Many handles calling concurrently with distinct payloads: each
        // reply must come back on the logical handle that issued it, even
        // though every frame shares the same few sockets.
        let servers = spawn_servers(&[0, 0]);
        let pool = connect(
            &servers,
            MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap()),
        );
        let mut joins = Vec::new();
        for h in 0..8u64 {
            let handle = pool.handle(Box::new(ModelBased::default()));
            joins.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    let tag = format!("handle-{h}-call-{i}");
                    let out = handle
                        .call(MethodId::DEFAULT, tag.as_bytes())
                        .expect("call");
                    assert_eq!(
                        out.payload.as_slice(),
                        tag.as_bytes(),
                        "reply crossed handles"
                    );
                }
                handle.with_handler(|st| assert_eq!(st.stats().delivered, 16));
            }));
        }
        for j in joins {
            j.join().expect("caller thread");
        }
    }

    #[test]
    fn pool_reports_no_replicas_once_all_sockets_drop() {
        let servers = spawn_servers(&[1]);
        let (pool, handle) = client_for(&servers, QosSpec::new(ms(500), 0.9).unwrap());
        handle.call(MethodId::DEFAULT, b"x").expect("first call");
        drop(servers);
        let deadline = StdInstant::now() + std::time::Duration::from_secs(2);
        loop {
            match handle.call(MethodId::DEFAULT, b"x") {
                Err(CallError::NoReplicas) => break,
                _ if StdInstant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                other => panic!("expected NoReplicas, got {other:?}"),
            }
        }
        // Teardown joins the reactor and the reconnect threads from the
        // handle's thread even though the pool went first.
        drop(pool);
        drop(handle);
    }

    #[test]
    fn deadline_retry_stays_on_its_handle() {
        // StaticK k=1 always selects replica 0, which takes 900 ms per
        // request; the retry after 300 ms re-plans over replica 1, which
        // answers 200 ms later.
        let servers = spawn_servers(&[900, 200]);
        let mut config = MuxPoolConfig::new(QosSpec::new(ms(200), 0.9).unwrap());
        config.give_up_after = ms(3_000);
        config.retry_after = Some(ms(300));
        let pool = connect(&servers, config);
        let a = Arc::new(pool.handle(Box::new(StaticK { k: 1 })));
        let b = pool.handle(Box::new(ModelBased::default()));
        // b's cold-start multicast answers from replica 1 and leaves its
        // redundant copy queued on replica 0.
        let out = b.call(MethodId::DEFAULT, b"b").expect("b's call");
        assert_eq!(out.replica, ReplicaId::new(1));
        let issued = StdInstant::now();
        let caller = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || a.call(MethodId::DEFAULT, b"a"))
        };
        // Past the retry deadline, before replica 1's reply: both sibling
        // attempts are parked on `a`, none on `b`.
        std::thread::sleep(std::time::Duration::from_millis(400));
        assert_eq!(parked(&a), 2, "original and retry both wait on a");
        assert_eq!(a.with_handler(|h| h.pending_count()), 2);
        assert_eq!(parked(&b), 0, "b holds no attempt of a's request");

        let out = caller.join().expect("caller").expect("retry answers");
        assert_eq!(out.payload.as_slice(), b"a");
        assert_eq!(
            out.replica,
            ReplicaId::new(1),
            "the retry's replica answered"
        );
        assert_eq!(out.redundancy, 2, "one original target + one retry target");
        // Let replica 0's backlog drain: the late reply to a's original
        // attempt routes to `a` and finds it already retired.
        std::thread::sleep(
            std::time::Duration::from_millis(2_000).saturating_sub(issued.elapsed()),
        );
        for (h, retries) in [(&*a, 1), (&b, 0)] {
            assert_eq!(parked(h), 0, "no waiter left behind");
            h.with_handler(|x| {
                assert_eq!(x.pending_count(), 0);
                assert_eq!(x.stats().delivered, 1);
                assert_eq!(x.stats().retries, retries);
            });
        }
    }

    /// A lost reactor wakeup leaves queued requests unflushed until the
    /// event loop's 100 ms `epoll_wait` timeout. Bursts of calls from
    /// several threads against zero-service replicas, separated by idle
    /// gaps so no socket traffic can mask a stuck wake flag, must each
    /// finish far below that timeout.
    #[test]
    fn bursts_after_idle_gaps_never_wait_for_the_poll_timeout() {
        const SENDERS: usize = 16;
        const BURSTS: usize = 50;
        const CALLS: usize = 16;
        const LIMIT: std::time::Duration = std::time::Duration::from_millis(50);
        let servers = spawn_servers(&[0, 0, 0]);
        let pool = connect(
            &servers,
            MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap()),
        );
        let handle = Arc::new(pool.handle(Box::new(ModelBased::default())));
        let barrier = Arc::new(std::sync::Barrier::new(SENDERS));
        let slowest = Arc::new(Mutex::new(std::time::Duration::ZERO));
        let senders: Vec<_> = (0..SENDERS)
            .map(|_| {
                let (handle, barrier, slowest) = (
                    Arc::clone(&handle),
                    Arc::clone(&barrier),
                    Arc::clone(&slowest),
                );
                std::thread::spawn(move || {
                    for _ in 0..BURSTS {
                        // Every sender sees the same verdict past the
                        // barrier, so all stop together after a slow call.
                        barrier.wait();
                        if *slowest.lock() >= LIMIT {
                            return;
                        }
                        for _ in 0..CALLS {
                            let t = StdInstant::now();
                            handle.call(MethodId::DEFAULT, b"burst").expect("call");
                            let took = t.elapsed();
                            let mut slowest = slowest.lock();
                            *slowest = (*slowest).max(took);
                        }
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                })
            })
            .collect();
        for s in senders {
            s.join().expect("sender");
        }
        let slowest = *slowest.lock();
        assert!(
            slowest < LIMIT,
            "a call waited {slowest:?}: a wakeup was lost"
        );
    }
}
