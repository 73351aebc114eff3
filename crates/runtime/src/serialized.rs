//! The retained single-lock baseline: the serialized socket client that
//! the reactor client [`crate::MuxPool`] replaced.
//!
//! Every state transition — planning, sending, reply ingestion, reconnect
//! bookkeeping — funnels through one `Mutex<State>`, and all network
//! events hop through a dispatcher thread before touching the handler.
//! [`SerializedClient`] is kept (behind the `serialized-baseline` feature)
//! purely so `throughput_bench` can A/B the old path against the
//! lock-free snapshot/shard path on identical workloads. Don't use it for
//! anything else; it is the slow path by construction.
//!
//! The state mutex is instrumented with [`aqua_obs::contention::LockContention`]
//! (`lock="client-state"`) so the benchmark can report lock-wait time.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant as StdInstant;

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{MethodId, PerfReport};
use aqua_core::time::{Duration, Instant};
use aqua_gateway::{ReplyOutcome, TimingFaultHandler};
use aqua_obs::contention::LockContention;
use aqua_strategies::SelectionStrategy;
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::mux::{CallError, CallOutcome, MuxPoolConfig, ReconnectPolicy, WireMetrics};
use crate::wire::Frame;

enum NetEvent {
    Frame(ReplicaId, Frame),
    Disconnected(ReplicaId),
}

/// One resolved call message on a waiter channel.
enum WaitMsg {
    Outcome(CallOutcome),
    /// Every replica disconnected while the call was in flight.
    NoReplicas,
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

struct State {
    handler: TimingFaultHandler,
    writers: HashMap<ReplicaId, TcpStream>,
    /// In-flight call attempts: seq → waiter.
    waiters: HashMap<u64, Waiter>,
    /// Last known address of every replica, for reconnects.
    addrs: HashMap<ReplicaId, SocketAddr>,
    /// Consecutive reconnect attempts per replica since its last frame.
    backoff: HashMap<ReplicaId, u32>,
}

struct Inner {
    state: Mutex<State>,
    /// Wait-time/acquisition counters on the global state mutex
    /// (`lock="client-state"`), the contention the concurrent client
    /// exists to eliminate.
    contention: LockContention,
    event_tx: Sender<NetEvent>,
    epoch: StdInstant,
    wire: Option<WireMetrics>,
    reconnect: Option<ReconnectPolicy>,
    client_id: u64,
}

impl Inner {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn lock_state(&self) -> parking_lot::MutexGuard<'_, State> {
        self.contention.acquire(|| self.state.lock())
    }

    /// Applies one network event to the handler; completed calls are
    /// resolved through their waiter channel.
    fn apply_event(self: &Arc<Self>, event: NetEvent) {
        let mut state = self.lock_state();
        // Waiter notifications go out after the guard is released: a
        // channel send under the state lock would stall every other
        // connection thread behind a slow waiter (lock-order rule).
        let mut deferred: Vec<(Sender<WaitMsg>, WaitMsg)> = Vec::new();
        let mut lost: Option<ReplicaId> = None;
        match event {
            NetEvent::Frame(id, frame) => {
                if let Some(wire) = &self.wire {
                    wire.on_received(&frame);
                }
                // A frame is proof of life: the replica's reconnect
                // backoff starts over.
                state.backoff.remove(&id);
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
                        let perf = PerfReport {
                            service_time: Duration::from_nanos(service_ns),
                            queuing_delay: Duration::from_nanos(queue_ns),
                            queue_len,
                            method: MethodId::new(method),
                        };
                        let replica = ReplicaId::new(replica);
                        debug_assert_eq!(replica, id, "replies come from their own connection");
                        let now = self.now();
                        let outcome = state.handler.on_reply(now, seq, replica, perf);
                        if let ReplyOutcome::Deliver {
                            response_time,
                            verdict,
                        } = outcome
                        {
                            if let Some(waiter) = state.waiters.remove(&seq) {
                                // The winning attempt retires its siblings:
                                // they are neither failures nor deliveries.
                                for sibling in &waiter.group {
                                    if *sibling != seq {
                                        state.waiters.remove(sibling);
                                        state.handler.on_abandon(now, *sibling);
                                    }
                                }
                                let outcome = CallOutcome {
                                    response_time,
                                    timely: verdict.is_timely(),
                                    callback: verdict.should_notify(),
                                    redundancy: waiter.redundancy,
                                    replica,
                                    payload,
                                };
                                deferred.push((waiter.tx, WaitMsg::Outcome(outcome)));
                            }
                        }
                    }
                    Frame::PerfUpdate {
                        replica,
                        service_ns,
                        queue_ns,
                        queue_len,
                        method,
                    } => {
                        let perf = PerfReport {
                            service_time: Duration::from_nanos(service_ns),
                            queuing_delay: Duration::from_nanos(queue_ns),
                            queue_len,
                            method: MethodId::new(method),
                        };
                        state
                            .handler
                            .on_perf_update(self.now(), ReplicaId::new(replica), perf);
                    }
                    _ => {}
                }
            }
            NetEvent::Disconnected(id) => {
                // TCP teardown is our crash detector: the replica leaves
                // the "view".
                state.writers.remove(&id);
                let now = self.now();
                let remaining: Vec<ReplicaId> = state.writers.keys().copied().collect();
                state.handler.on_view(now, remaining);
                if state.writers.is_empty() {
                    // Nobody left who could ever answer: fail every
                    // in-flight call immediately instead of letting each
                    // caller ride out its give-up timer.
                    let seqs: Vec<u64> = state.waiters.keys().copied().collect();
                    for seq in seqs {
                        let Some(waiter) = state.waiters.remove(&seq) else {
                            continue; // retired as a sibling already
                        };
                        let mut group = waiter.group.clone();
                        group.sort_unstable();
                        let last = *group.last().unwrap_or(&seq);
                        for s in &group {
                            if *s != seq {
                                state.waiters.remove(s);
                            }
                        }
                        // One timing failure per logical request: the
                        // newest attempt carries it, earlier ones retire.
                        for s in &group {
                            if *s != last {
                                state.handler.on_abandon(now, *s);
                            }
                        }
                        state.handler.on_give_up(now, last);
                        deferred.push((waiter.tx, WaitMsg::NoReplicas));
                    }
                }
                lost = Some(id);
            }
        }
        drop(state);
        for (tx, msg) in deferred {
            let _ = tx.send(msg);
        }
        if let Some(id) = lost {
            self.spawn_reconnect(id);
        }
    }

    /// Starts the background reconnect loop for a lost replica (if a
    /// policy is configured). On success the replica rejoins the
    /// connection set and the repository **on probation**.
    fn spawn_reconnect(self: &Arc<Self>, id: ReplicaId) {
        let Some(policy) = self.reconnect.clone() else {
            return;
        };
        let weak = Arc::downgrade(self);
        // aqua-lint: allow(spawn-join) A/B baseline; holds only a Weak and exits once the client drops or the replica rejoins
        std::thread::spawn(move || loop {
            let Some(inner) = weak.upgrade() else { return };
            let (addr, attempt) = {
                let mut state = inner.lock_state();
                if state.writers.contains_key(&id) {
                    return; // already reconnected elsewhere
                }
                let Some(addr) = state.addrs.get(&id).copied() else {
                    return;
                };
                let counter = state.backoff.entry(id).or_insert(0);
                let attempt = *counter;
                *counter += 1;
                (addr, attempt)
            };
            if attempt >= policy.max_attempts {
                return;
            }
            let delay = std::time::Duration::from(policy.initial_backoff)
                .saturating_mul(1u32 << attempt.min(16))
                .min(std::time::Duration::from(policy.max_backoff));
            drop(inner); // don't pin the client alive while sleeping
            std::thread::sleep(delay);
            let Some(inner) = weak.upgrade() else { return };
            let Ok(stream) = TcpStream::connect(addr) else {
                continue;
            };
            stream.set_nodelay(true).ok();
            let Ok(mut writer) = stream.try_clone() else {
                continue;
            };
            let hello = Frame::Hello {
                client: inner.client_id,
            };
            if hello.write_to(&mut writer).is_err() {
                continue;
            }
            if let Some(wire) = &inner.wire {
                wire.on_sent(&hello);
                wire.reconnects.inc();
            }
            let now = inner.now();
            {
                let mut state = inner.lock_state();
                state.writers.insert(id, writer);
                state.handler.on_rejoin(now, id);
            }
            let tx = inner.event_tx.clone();
            // aqua-lint: allow(spawn-join) serialized-baseline reader; exits when the replica closes the stream
            std::thread::spawn(move || reader_loop(stream, id, tx));
            return;
        });
    }
}

/// The socket client gateway. See the module docs.
///
/// Safe to share behind an `Arc`; concurrent [`SerializedClient::call`]s proceed
/// in parallel (their requests genuinely queue at the replicas).
pub struct SerializedClient {
    inner: Arc<Inner>,
    give_up_after: Duration,
    retry_after: Option<Duration>,
}

impl std::fmt::Debug for SerializedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SerializedClient")
            .field("replicas", &self.inner.lock_state().writers.len())
            .finish()
    }
}

impl SerializedClient {
    /// Connects to every replica, subscribes to performance updates, and
    /// initializes the handler with the given strategy.
    ///
    /// # Errors
    ///
    /// Fails if any initial connection cannot be established.
    pub fn connect(
        replicas: &[(ReplicaId, SocketAddr)],
        config: MuxPoolConfig,
        strategy: Box<dyn SelectionStrategy>,
    ) -> io::Result<SerializedClient> {
        let mut handler = TimingFaultHandler::new(config.qos, config.window, strategy);
        if let Some(obs) = &config.obs {
            handler.attach_obs(obs, Some(config.id));
        }
        let wire = config
            .obs
            .as_ref()
            .map(|obs| WireMetrics::new(obs, config.id));
        let (event_tx, event_rx) = unbounded();
        let mut writers = HashMap::new();
        let mut addrs = HashMap::new();
        for (id, addr) in replicas {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            let mut writer = stream.try_clone()?;
            let hello = Frame::Hello { client: config.id };
            hello.write_to(&mut writer)?;
            if let Some(wire) = &wire {
                wire.on_sent(&hello);
            }
            handler.repository_mut().insert_replica(*id);
            writers.insert(*id, writer);
            addrs.insert(*id, *addr);
            let tx = event_tx.clone();
            let id = *id;
            // aqua-lint: allow(spawn-join) serialized-baseline reader; exits when the replica closes the stream
            std::thread::spawn(move || reader_loop(stream, id, tx));
        }
        let contention = match &config.obs {
            Some(obs) => LockContention::new(obs.registry(), "client-state"),
            None => LockContention::detached(),
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                handler,
                writers,
                waiters: HashMap::new(),
                addrs,
                backoff: HashMap::new(),
            }),
            contention,
            event_tx,
            epoch: StdInstant::now(),
            wire,
            reconnect: config.reconnect.clone(),
            client_id: config.id,
        });
        {
            let inner = Arc::clone(&inner);
            // aqua-lint: allow(spawn-join) serialized-baseline dispatcher; exits when every reader drops its event_tx clone
            std::thread::spawn(move || dispatcher_loop(inner, event_rx));
        }
        Ok(SerializedClient {
            inner,
            give_up_after: config.give_up_after,
            retry_after: config.retry_after,
        })
    }

    /// Runs `f` against the handler (repository inspection, stats, …).
    pub fn with_handler<R>(&self, f: impl FnOnce(&TimingFaultHandler) -> R) -> R {
        f(&self.inner.lock_state().handler)
    }

    /// Emits any request spans still buffered by the handler's observer
    /// and flushes the journal. Call once at the end of an observed run.
    pub fn finish_observability(&self) {
        self.inner.lock_state().handler.flush_observability();
    }

    /// Renegotiates the QoS specification.
    pub fn renegotiate(&self, qos: QosSpec) {
        self.inner.lock_state().handler.renegotiate(qos);
    }

    /// Connects to an additional replica at runtime (a new member joining
    /// the service group). The replica starts cold, so the next request is
    /// a full multicast that warms it up (§5.4.1's bootstrap rule).
    ///
    /// # Errors
    ///
    /// Propagates connection errors; the client is unchanged on failure.
    pub fn add_replica(&self, id: ReplicaId, addr: SocketAddr) -> io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut writer = stream.try_clone()?;
        let hello = Frame::Hello { client: 0 };
        hello.write_to(&mut writer)?;
        if let Some(wire) = &self.inner.wire {
            wire.on_sent(&hello);
        }
        {
            let mut state = self.inner.lock_state();
            state.handler.repository_mut().insert_replica(id);
            state.writers.insert(id, writer);
            state.addrs.insert(id, addr);
        }
        let tx = self.inner.event_tx.clone();
        // aqua-lint: allow(spawn-join) serialized-baseline reader; exits when the replica closes the stream
        std::thread::spawn(move || reader_loop(stream, id, tx));
        Ok(())
    }

    /// Invokes the replicated service: selects replicas per the QoS spec,
    /// multicasts the request, and returns the earliest reply.
    ///
    /// # Errors
    ///
    /// [`CallError::NoReplicas`] when every replica is gone,
    /// [`CallError::GaveUp`] when no selected replica answered within the
    /// give-up window, [`CallError::Io`] on transport failures during send.
    pub fn call(&self, method: MethodId, payload: &[u8]) -> Result<CallOutcome, CallError> {
        let t0 = self.inner.now();
        let started = StdInstant::now();
        let give_up = std::time::Duration::from(self.give_up_after);
        let frame_for = |seq: u64| Frame::Request {
            seq,
            method: method.index(),
            payload: Bytes::copy_from_slice(payload),
        };

        let (first_seq, first_selection, mut redundancy, tx, rx) = {
            let mut state = self.inner.lock_state();
            let plan = state.handler.plan_request_for(t0, Some(method));
            if plan.replicas.is_empty() {
                state.handler.on_give_up(t0, plan.seq);
                return Err(CallError::NoReplicas);
            }
            let sent = self.multicast(&mut state, &frame_for(plan.seq), &plan.replicas);
            let redundancy = plan.replicas.len();
            if sent == 0 {
                state.handler.on_give_up(t0, plan.seq);
                return Err(CallError::GaveUp { redundancy });
            }
            let (tx, rx) = bounded(2);
            state.waiters.insert(
                plan.seq,
                Waiter {
                    tx: tx.clone(),
                    redundancy,
                    group: vec![plan.seq],
                },
            );
            (plan.seq, plan.replicas, redundancy, tx, rx)
        };
        let mut seqs = vec![first_seq];

        // Stage 1 (optional): wait until the intermediate retry deadline,
        // then re-run Algorithm 1 over the remaining replicas and multicast
        // a sibling attempt. The original stays live; earliest reply wins.
        if let Some(retry_after) = self.retry_after {
            let wait = std::time::Duration::from(retry_after).min(give_up);
            match rx.recv_timeout(wait) {
                Ok(msg) => return resolve(msg),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    let mut state = self.inner.lock_state();
                    if let Ok(msg) = rx.try_recv() {
                        return resolve(msg);
                    }
                    if state.waiters.contains_key(&first_seq) {
                        let now = self.inner.now();
                        let retry = state.handler.plan_retry(
                            now,
                            Some(method),
                            t0,
                            first_seq,
                            &first_selection,
                        );
                        if let Some(plan) = retry {
                            let sent =
                                self.multicast(&mut state, &frame_for(plan.seq), &plan.replicas);
                            if sent > 0 {
                                redundancy += plan.replicas.len();
                                let group = vec![first_seq, plan.seq];
                                if let Some(w) = state.waiters.get_mut(&first_seq) {
                                    w.group.clone_from(&group);
                                    w.redundancy = redundancy;
                                }
                                state.waiters.insert(
                                    plan.seq,
                                    Waiter {
                                        tx: tx.clone(),
                                        redundancy,
                                        group,
                                    },
                                );
                                seqs.push(plan.seq);
                            } else {
                                // Nobody reachable for the retry: retire
                                // the attempt quietly.
                                state.handler.on_abandon(now, plan.seq);
                            }
                        }
                    }
                }
            }
        }

        // Stage 2: wait out the rest of the give-up window.
        let remaining = give_up.saturating_sub(started.elapsed());
        match rx.recv_timeout(remaining) {
            Ok(msg) => resolve(msg),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                // Race window: the dispatcher may have resolved the call
                // between the timeout and us taking the lock.
                let mut state = self.inner.lock_state();
                if let Ok(msg) = rx.try_recv() {
                    return resolve(msg);
                }
                // One timing failure per logical request: the newest
                // attempt carries the give-up, earlier ones retire.
                let now = self.inner.now();
                for s in &seqs {
                    state.waiters.remove(s);
                }
                if let Some((last, earlier)) = seqs.split_last() {
                    for s in earlier {
                        state.handler.on_abandon(now, *s);
                    }
                    state.handler.on_give_up(now, *last);
                }
                drop(tx);
                Err(CallError::GaveUp { redundancy })
            }
        }
    }

    /// Writes `frame` to every listed replica that still has a live
    /// connection; returns how many writes succeeded.
    fn multicast(&self, state: &mut State, frame: &Frame, replicas: &[ReplicaId]) -> usize {
        let mut sent = 0usize;
        for id in replicas {
            if let Some(writer) = state.writers.get_mut(id) {
                if frame.write_to(writer).is_ok() {
                    sent += 1;
                    if let Some(wire) = &self.inner.wire {
                        wire.on_sent(frame);
                    }
                }
            }
        }
        sent
    }
}

fn resolve(msg: WaitMsg) -> Result<CallOutcome, CallError> {
    match msg {
        WaitMsg::Outcome(outcome) => Ok(outcome),
        WaitMsg::NoReplicas => Err(CallError::NoReplicas),
    }
}

fn dispatcher_loop(inner: Arc<Inner>, events: Receiver<NetEvent>) {
    while let Ok(ev) = events.recv() {
        inner.apply_event(ev);
    }
}

fn reader_loop(mut stream: TcpStream, id: ReplicaId, tx: Sender<NetEvent>) {
    loop {
        match Frame::read_from(&mut stream) {
            Ok(frame) => {
                if tx.send(NetEvent::Frame(id, frame)).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = tx.send(NetEvent::Disconnected(id));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ReplicaServer, ReplicaServerConfig};
    use aqua_strategies::ModelBased;

    /// The baseline must stay a faithful, working implementation of the
    /// old path — otherwise the A/B benchmark compares against a strawman.
    #[test]
    fn baseline_still_serves_calls() {
        let servers: Vec<ReplicaServer> = (0..3u64)
            .map(|i| {
                ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i), 5))
                    .expect("spawn")
            })
            .collect();
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let qos = QosSpec::new(Duration::from_millis(500), 0.9).unwrap();
        let client = SerializedClient::connect(
            &replicas,
            MuxPoolConfig::new(qos),
            Box::new(ModelBased::default()),
        )
        .expect("connect");
        let mut redundancies = Vec::new();
        for _ in 0..6 {
            let out = client.call(MethodId::DEFAULT, b"hello").expect("call ok");
            assert!(out.timely);
            redundancies.push(out.redundancy);
        }
        assert_eq!(redundancies[0], 3, "cold start selects all");
        assert_eq!(
            *redundancies.last().unwrap(),
            2,
            "warm Pc=0.9 needs only 2: {redundancies:?}"
        );
    }
}
