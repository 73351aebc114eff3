//! The retained thread-per-connection baseline: the writer/reader-thread
//! socket client that the reactor-based [`crate::MuxPool`] replaced.
//!
//! One OS thread pair per replica connection: a writer thread that
//! batch-drains its frame channel into a reusable buffer and flushes with
//! one `write`, and a reader thread that blocks on the socket and applies
//! frames into the handler's sharded write path. Byte-compatible with the
//! reactor client — identical frames in identical order per connection —
//! so `throughput_bench` can A/B the two transports on identical
//! workloads (feature `threaded-baseline`, mirroring `serialized-baseline`
//! from the concurrent-gateway PR). Unlike its ancestor it tracks every
//! spawned thread and joins them on drop.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant as StdInstant;

use aqua_core::qos::ReplicaId;
use aqua_core::repository::MethodId;
use aqua_core::time::{Duration, Instant};
use aqua_gateway::TimingFaultHandler;
use aqua_strategies::SelectionStrategy;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::mux::{
    perf_report, CallError, CallOutcome, HandleState, MuxPoolConfig, ReconnectPolicy, StopSignal,
    WireMetrics,
};
use crate::wire::Frame;

struct Inner {
    /// The handler and its waiter table, shared with the reactor client.
    state: HandleState,
    /// Per-replica writer channels; the writer threads own the sockets.
    conns: RwLock<HashMap<ReplicaId, Sender<Frame>>>,
    addrs: Mutex<HashMap<ReplicaId, SocketAddr>>,
    backoff: Mutex<HashMap<ReplicaId, u32>>,
    epoch: StdInstant,
    wire: Option<WireMetrics>,
    reconnect: Option<ReconnectPolicy>,
    client_id: u64,
    /// Raised on teardown: readers skip disconnect handling, reconnect
    /// waits abort.
    stop: Arc<StopSignal>,
    /// Every spawned thread (writers, readers, reconnectors), joined on
    /// drop.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Reader-side socket clones, shut down on teardown to unblock reads.
    sockets: Mutex<Vec<TcpStream>>,
}

impl Inner {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn conn(&self, id: ReplicaId) -> Option<Sender<Frame>> {
        let conns = self.conns.read().unwrap_or_else(|p| p.into_inner());
        conns.get(&id).cloned()
    }

    fn track(&self, handle: JoinHandle<()>) {
        let mut threads = self.threads.lock();
        threads.retain(|t| !t.is_finished());
        threads.push(handle);
    }

    fn open_connection(self: &Arc<Self>, id: ReplicaId, addr: SocketAddr) -> io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        if let Ok(clone) = stream.try_clone() {
            self.sockets.lock().push(clone);
        }
        let (tx, rx) = unbounded();
        let _ = tx.send(Frame::Hello {
            client: self.client_id,
        });
        {
            let mut conns = self.conns.write().unwrap_or_else(|p| p.into_inner());
            conns.insert(id, tx);
        }
        {
            let mut addrs = self.addrs.lock();
            addrs.insert(id, addr);
        }
        let wire = self.wire.clone();
        self.track(std::thread::spawn(move || writer_loop(writer, rx, wire)));
        let weak = Arc::downgrade(self);
        self.track(std::thread::spawn(move || reader_loop(weak, stream, id)));
        Ok(())
    }

    fn multicast(
        &self,
        seq: u64,
        method: MethodId,
        payload: &Bytes,
        replicas: &[ReplicaId],
    ) -> usize {
        let mut sent = 0usize;
        for id in replicas {
            let Some(tx) = self.conn(*id) else { continue };
            let frame = Frame::Request {
                seq,
                method: method.index(),
                payload: payload.clone(),
            };
            if tx.send(frame).is_ok() {
                sent += 1;
            }
        }
        sent
    }

    fn on_frame(&self, id: ReplicaId, frame: Frame) {
        if let Some(wire) = &self.wire {
            wire.on_received(&frame);
        }
        {
            let mut backoff = self.backoff.lock();
            backoff.remove(&id);
        }
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
                self.state
                    .on_reply(self.now(), seq, ReplicaId::new(replica), perf, payload);
            }
            Frame::PerfUpdate {
                replica,
                service_ns,
                queue_ns,
                queue_len,
                method,
            } => {
                let perf = perf_report(service_ns, queue_ns, queue_len, method);
                self.state
                    .handler
                    .on_perf_update(self.now(), ReplicaId::new(replica), perf);
            }
            _ => {}
        }
    }

    fn on_disconnect(self: &Arc<Self>, id: ReplicaId) {
        let remaining: Vec<ReplicaId> = {
            let mut conns = self.conns.write().unwrap_or_else(|p| p.into_inner());
            conns.remove(&id);
            conns.keys().copied().collect()
        };
        let now = self.now();
        self.state.handler.on_view(now, remaining.iter().copied());
        if remaining.is_empty() {
            self.state.fail_all(now);
        }
        self.spawn_reconnect(id);
    }

    fn spawn_reconnect(self: &Arc<Self>, id: ReplicaId) {
        let Some(policy) = self.reconnect.clone() else {
            return;
        };
        let weak = Arc::downgrade(self);
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::spawn(move || loop {
            if stop.is_raised() {
                return;
            }
            let Some(inner) = weak.upgrade() else { return };
            {
                let conns = inner.conns.read().unwrap_or_else(|p| p.into_inner());
                if conns.contains_key(&id) {
                    return;
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
            drop(inner);
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
            inner.state.handler.on_rejoin(inner.now(), id);
            return;
        });
        self.track(handle);
    }
}

/// Owns one replica socket's send half: drains the frame channel into a
/// reusable buffer — batching whatever has queued up — and flushes the
/// batch with a single write.
fn writer_loop(mut stream: TcpStream, rx: Receiver<Frame>, wire: Option<WireMetrics>) {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut frames: Vec<Frame> = Vec::new();
    loop {
        let Ok(first) = rx.recv() else { return };
        buf.clear();
        frames.clear();
        first.encode_into(&mut buf);
        frames.push(first);
        while let Ok(next) = rx.try_recv() {
            next.encode_into(&mut buf);
            frames.push(next);
        }
        if stream.write_all(&buf).is_err() {
            return; // the reader observes the teardown and handles it
        }
        if let Some(wire) = &wire {
            for frame in &frames {
                wire.on_sent(frame);
            }
        }
    }
}

fn reader_loop(weak: Weak<Inner>, mut stream: TcpStream, id: ReplicaId) {
    loop {
        match Frame::read_from(&mut stream) {
            Ok(frame) => {
                let Some(inner) = weak.upgrade() else { return };
                inner.on_frame(id, frame);
            }
            Err(_) => {
                let Some(inner) = weak.upgrade() else { return };
                if inner.stop.is_raised() {
                    return; // teardown, not a crash
                }
                inner.on_disconnect(id);
                return;
            }
        }
    }
}

/// The thread-per-connection baseline client. See the module docs; the
/// call protocol is identical to [`crate::MuxHandle`], only the
/// transport differs.
pub struct ThreadedClient {
    inner: Arc<Inner>,
    give_up_after: Duration,
    retry_after: Option<Duration>,
}

impl std::fmt::Debug for ThreadedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let replicas = {
            let conns = self.inner.conns.read().unwrap_or_else(|p| p.into_inner());
            conns.len()
        };
        f.debug_struct("ThreadedClient")
            .field("replicas", &replicas)
            .finish()
    }
}

impl Drop for ThreadedClient {
    fn drop(&mut self) {
        self.inner.stop.raise();
        // Dropping the senders stops the writers; shutting the sockets
        // down unblocks the readers.
        {
            let mut conns = self.inner.conns.write().unwrap_or_else(|p| p.into_inner());
            conns.clear();
        }
        for socket in self.inner.sockets.lock().drain(..) {
            let _ = socket.shutdown(std::net::Shutdown::Both);
        }
        let threads: Vec<JoinHandle<()>> = {
            let mut threads = self.inner.threads.lock();
            threads.drain(..).collect()
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

impl ThreadedClient {
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
    ) -> io::Result<ThreadedClient> {
        let mut handler = TimingFaultHandler::new(config.qos, config.window, strategy);
        if let Some(obs) = &config.obs {
            handler.attach_obs(obs, Some(config.id));
        }
        let wire = config
            .obs
            .as_ref()
            .map(|obs| WireMetrics::new(obs, config.id));
        let inner = Arc::new(Inner {
            state: HandleState::new(handler),
            conns: RwLock::new(HashMap::new()),
            addrs: Mutex::new(HashMap::new()),
            backoff: Mutex::new(HashMap::new()),
            epoch: StdInstant::now(),
            wire,
            reconnect: config.reconnect.clone(),
            client_id: config.id,
            stop: Arc::new(StopSignal::new()),
            threads: Mutex::new(Vec::new()),
            sockets: Mutex::new(Vec::new()),
        });
        for (id, addr) in replicas {
            inner.open_connection(*id, *addr)?;
            inner.state.handler.insert_replica(inner.now(), *id);
        }
        Ok(ThreadedClient {
            inner,
            give_up_after: config.give_up_after,
            retry_after: config.retry_after,
        })
    }

    /// Runs `f` against the handler (repository inspection, stats, …).
    pub fn with_handler<R>(&self, f: impl FnOnce(&TimingFaultHandler) -> R) -> R {
        f(&self.inner.state.handler)
    }

    /// Emits any request spans still buffered by the handler's observer
    /// and flushes the journal.
    pub fn finish_observability(&self) {
        self.inner.state.handler.flush_observability();
    }

    /// Invokes the replicated service: selects replicas per the QoS spec,
    /// multicasts the request, and returns the earliest reply. Identical
    /// protocol to [`crate::MuxHandle::call`].
    ///
    /// # Errors
    ///
    /// [`CallError::NoReplicas`] when every replica is gone,
    /// [`CallError::GaveUp`] when no selected replica answered within the
    /// give-up window, [`CallError::Io`] on transport failures during send.
    pub fn call(&self, method: MethodId, payload: &[u8]) -> Result<CallOutcome, CallError> {
        let inner = &self.inner;
        inner.state.call(
            || inner.now(),
            self.give_up_after,
            self.retry_after,
            method,
            payload,
            |seq, payload, replicas| inner.multicast(seq, method, payload, replicas),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ReplicaServer, ReplicaServerConfig};
    use aqua_core::qos::QosSpec;
    use aqua_strategies::ModelBased;

    #[test]
    fn threaded_baseline_calls_and_joins_on_drop() {
        let servers: Vec<ReplicaServer> = (0..2)
            .map(|i| {
                ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i), 2)).unwrap()
            })
            .collect();
        let replicas: Vec<(ReplicaId, SocketAddr)> =
            servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let qos = QosSpec::new(Duration::from_millis(500), 0.9).unwrap();
        let client = ThreadedClient::connect(
            &replicas,
            MuxPoolConfig::new(qos),
            Box::new(ModelBased::default()),
        )
        .expect("connect");
        for _ in 0..4 {
            let out = client.call(MethodId::DEFAULT, b"ab").expect("call");
            assert_eq!(out.payload, Bytes::from_static(b"ab"));
        }
        client.with_handler(|h| assert_eq!(h.stats().delivered, 4));
        // Drop must return promptly with no leaked threads blocking it.
        drop(client);
    }
}
