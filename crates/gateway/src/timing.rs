//! The timing fault handler (§5.4), transport-agnostic.
//!
//! [`TimingFaultHandler`] owns the per-service state of a client gateway:
//! the QoS spec, the information repository, the selection strategy, the
//! pending-request table and the timing-failure detector. It is pure
//! bookkeeping — the caller (a simulated node or a socket client) feeds it
//! events and performs the sends it plans — and every method takes
//! `&self`, so one handler serves a single-threaded simulator and many
//! socket threads alike:
//!
//! * **Planning** reads an immutable [`PlanningView`] published through a
//!   [`SnapshotCell`]: per-replica cumulative response-time tables plus
//!   probation flags. Algorithm 1 runs on the caller's thread against that
//!   view with no lock held. Strategies that cannot be evaluated from a
//!   snapshot (stateful baselines) go through a strategy mutex instead.
//! * **Reply ingestion** only writes the replica's repository shard and
//!   marks the view dirty. The next plan that finds the view dirty merges
//!   the shards and republishes it (§5.2 windows, unchanged).
//! * **The pending-request table** is sharded by sequence number. Sibling
//!   attempts of one logical request (retries) share an `answered` flag:
//!   exactly one of deliver/give-up wins it, and the winner retires the
//!   siblings.
//!
//! The substrate picks the clock at construction. In real time
//! ([`TimingFaultHandler::new`], the sockets) a plan targets `t − δ` with
//! the measured selection overhead δ of §5.3.3, and the view republishes
//! at most once per 500 µs. In virtual time
//! ([`TimingFaultHandler::in_virtual_time`], the simulator) no time passes
//! while selecting, so δ = 0 and every plan sees every earlier sample:
//! seeded runs replay exactly. Both clocks measure δ for observability.
//!
//! The publish-vs-plan and reply-vs-retry protocols are model-checked by
//! `aqua-lint`'s bounded interleaving checker (`interleave.rs`).

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use aqua_core::aqua;
use aqua_core::failure::{TimingFailureDetector, TimingVerdict};
use aqua_core::model::{ModelConfig, ResponseTimeModel};
use aqua_core::pmf::ConvScratch;
use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::{InfoRepository, MethodId, PerfReport, ReplicaStats};
use aqua_core::scheduler::ColdStartPolicy;
use aqua_core::select::{select_replicas_tolerating, Candidate};
use aqua_core::snapshot::{method_slot, PlanningView, ReplicaSnapshot, SnapshotCell};
use aqua_core::time::{Duration, Instant};
use aqua_obs::contention::LockContention;
use aqua_strategies::{SelectionInput, SelectionStrategy, SnapshotPlanSpec};
use parking_lot::Mutex;

use crate::obs::{HandlerObserver, PlanObservation};

/// Number of pending-table shards (sequence numbers hash across them).
const PENDING_SHARDS: usize = 16;
/// Number of reply-ingestion shards (replicas hash across them).
const INGEST_SHARDS: usize = 16;
/// In real time, the minimum interval between two republishes of the
/// planning view: a burst of replies costs one rebuild, and a plan may miss
/// the samples that arrived within this interval of the previous publish.
const REAL_TIME_DEBOUNCE: Duration = Duration::from_micros(500);

/// The plan produced for one intercepted request: multicast the request
/// with this sequence number to these replicas.
#[derive(Debug, Clone)]
pub struct RequestPlan {
    /// Client-local sequence number identifying the request.
    pub seq: u64,
    /// Replicas to multicast to (empty when none are known — the caller
    /// should fail the request immediately).
    pub replicas: Arc<[ReplicaId]>,
}

/// What [`TimingFaultHandler::on_reply`] decided about a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyOutcome {
    /// First reply for the request: deliver it to the client.
    Deliver {
        /// End-to-end response time `tr = t4 − t0`.
        response_time: Duration,
        /// Timing classification (and whether to fire the QoS callback).
        verdict: TimingVerdict,
    },
    /// A redundant reply: discard, but its performance data was used.
    Redundant,
    /// Reply for an unknown/expired request (e.g. after give-up).
    Unknown,
}

/// Aggregate counters for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandlerStats {
    /// Requests planned.
    pub requests: u64,
    /// Sum of selected-set sizes (for average redundancy).
    pub replicas_selected: u64,
    /// Replies delivered to the client (first replies).
    pub delivered: u64,
    /// Redundant replies discarded.
    pub redundant: u64,
    /// Requests finalized as failures because no reply ever arrived.
    pub gave_up: u64,
    /// QoS-violation callbacks issued.
    pub callbacks: u64,
    /// Active probes sent to replicas with stale performance data.
    pub probes: u64,
    /// Deadline-driven retry attempts issued (re-run Algorithm 1 over the
    /// remaining replicas when the first selection misses an intermediate
    /// deadline).
    pub retries: u64,
    /// Attempts retired without delivery or failure because a sibling
    /// attempt resolved the logical request.
    pub abandoned: u64,
}

impl HandlerStats {
    /// Average number of replicas selected per request.
    pub fn mean_redundancy(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.replicas_selected as f64 / self.requests as f64
        }
    }
}

/// The attempts of one logical request: the original and its retries.
/// Sharing it is what makes delivery, give-up, and retry registration
/// race-safe (see module docs).
#[derive(Debug)]
struct AttemptGroup {
    /// "A first reply was delivered (or the request was given up)";
    /// exactly one CAS ever wins it.
    answered: AtomicBool,
    /// Every attempt seq, the original first. A retry registers itself
    /// here *before* inserting its entry, so the winner's retire pass can
    /// never miss it entirely.
    seqs: Mutex<Vec<u64>>,
}

/// One attempt awaiting replies.
#[derive(Debug, Clone)]
struct PendingEntry {
    /// `t0` of the *logical* request (retries inherit the original).
    intercepted_at: Instant,
    /// `t1` of this attempt.
    sent_at: Instant,
    group: Arc<AttemptGroup>,
    /// Probes refresh the repository but are invisible to the client: no
    /// delivery, no timing-failure accounting (§8, extension 3).
    probe: bool,
}

/// Lifetime counters, updated with relaxed atomics from any thread.
#[derive(Debug, Default)]
struct AtomicStats {
    requests: AtomicU64,
    replicas_selected: AtomicU64,
    delivered: AtomicU64,
    redundant: AtomicU64,
    gave_up: AtomicU64,
    callbacks: AtomicU64,
    probes: AtomicU64,
    retries: AtomicU64,
    abandoned: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> HandlerStats {
        HandlerStats {
            requests: self.requests.load(Ordering::Relaxed),
            replicas_selected: self.replicas_selected.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            redundant: self.redundant.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
            callbacks: self.callbacks.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
        }
    }
}

/// How plans are produced.
enum PlannerMode {
    /// The strategy is a pure function of the response-time distributions:
    /// evaluate Algorithm 1 against the published snapshot, lock-free.
    Snapshot {
        spec: SnapshotPlanSpec,
        model: ResponseTimeModel,
    },
    /// Opaque or stateful strategy: serialize calls through a mutex; it
    /// reads a copy of the merged repository.
    Strategy(Mutex<Box<dyn SelectionStrategy>>),
}

/// Group membership bookkeeping (view changes, rejoin detection).
#[derive(Debug, Default)]
struct Membership {
    /// Current members.
    present: BTreeSet<ReplicaId>,
    /// Every replica ever seen — a present-again member that left before
    /// is a *rejoin* and starts on probation.
    seen: BTreeSet<ReplicaId>,
}

/// Publisher-only state, serialized by the publish mutex.
struct PublishState {
    scratch: ConvScratch,
    /// Model used to build snapshot tables when the strategy itself is
    /// not snapshot-plannable (the tables are then unused by planning, but
    /// the view's probation and warm flags still are).
    fallback_model: ResponseTimeModel,
}

/// The per-service client-side handler state. See the module docs.
pub struct TimingFaultHandler {
    /// Canonical QoS spec, read by publishers at rebuild time; planners
    /// read the copy published inside the [`PlanningView`] instead.
    qos: Mutex<QosSpec>,
    window: usize,
    strategy_name: &'static str,
    planner: PlannerMode,
    /// Virtual time: δ = 0 and no republish debounce (see module docs).
    virtual_time: bool,
    snapshot: SnapshotCell,
    publish: Mutex<PublishState>,
    /// Set by ingestion when shard state moved past the published view.
    dirty: AtomicBool,
    /// `Instant::as_nanos` of the last publish, for the debounce check.
    last_publish_ns: AtomicU64,
    ingest: Vec<Mutex<InfoRepository>>,
    membership: Mutex<Membership>,
    pending: Vec<Mutex<HashMap<u64, PendingEntry>>>,
    next_seq: AtomicU64,
    /// Most recent δ (§5.3.3) in nanoseconds, read by the next real-time
    /// plan.
    last_overhead_ns: AtomicU64,
    detector: Mutex<TimingFailureDetector>,
    stats: AtomicStats,
    obs: Option<Mutex<HandlerObserver>>,
    client_id: Option<u64>,
    pending_contention: LockContention,
    ingest_contention: LockContention,
    publish_contention: LockContention,
}

impl std::fmt::Debug for TimingFaultHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingFaultHandler")
            .field("qos", &*self.qos.lock())
            .field("strategy", &self.strategy_name)
            .field("virtual_time", &self.virtual_time)
            .field("version", &self.snapshot.version())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl TimingFaultHandler {
    /// Creates a real-time handler (wall-clock substrates such as the
    /// socket runtime) with sliding window `l` and the given strategy.
    ///
    /// Strategies that expose a [`SnapshotPlanSpec`] (the paper's
    /// model-based selection) are planned lock-free from the published
    /// snapshot; others go through a strategy mutex.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(qos: QosSpec, window: usize, strategy: Box<dyn SelectionStrategy>) -> Self {
        Self::with_clock(qos, window, strategy, false)
    }

    /// Creates a virtual-time handler (the simulator, tests): plans target
    /// the deadline itself (δ = 0) and see every earlier sample, so the
    /// same event sequence always yields the same plans.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn in_virtual_time(
        qos: QosSpec,
        window: usize,
        strategy: Box<dyn SelectionStrategy>,
    ) -> Self {
        Self::with_clock(qos, window, strategy, true)
    }

    fn with_clock(
        qos: QosSpec,
        window: usize,
        strategy: Box<dyn SelectionStrategy>,
        virtual_time: bool,
    ) -> Self {
        let strategy_name = strategy.name();
        let planner = match strategy.snapshot_spec() {
            Some(spec) => PlannerMode::Snapshot {
                spec,
                model: ResponseTimeModel::new(spec.model),
            },
            None => PlannerMode::Strategy(Mutex::new(strategy)),
        };
        TimingFaultHandler {
            qos: Mutex::new(qos),
            window,
            strategy_name,
            planner,
            virtual_time,
            snapshot: SnapshotCell::new(PlanningView::empty(qos)),
            publish: Mutex::new(PublishState {
                scratch: ConvScratch::new(),
                fallback_model: ResponseTimeModel::new(ModelConfig::default()),
            }),
            dirty: AtomicBool::new(false),
            last_publish_ns: AtomicU64::new(0),
            ingest: (0..INGEST_SHARDS)
                .map(|_| Mutex::new(InfoRepository::new(window)))
                .collect(),
            membership: Mutex::new(Membership::default()),
            pending: (0..PENDING_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_seq: AtomicU64::new(0),
            last_overhead_ns: AtomicU64::new(0),
            detector: Mutex::new(TimingFailureDetector::new(qos)),
            stats: AtomicStats::default(),
            obs: None,
            client_id: None,
            pending_contention: LockContention::detached(),
            ingest_contention: LockContention::detached(),
            publish_contention: LockContention::detached(),
        }
    }

    /// Attaches an observability sink (must happen before the handler is
    /// shared): from now on every planned request, reply, and give-up
    /// updates the `obs` registry and opens/extends a journal span labelled
    /// with `client`. Also registers the lock-contention counters
    /// `aqua_lock_wait_ns_total{lock=…}` for the shard and publish locks.
    pub fn attach_obs(&mut self, obs: &aqua_obs::Obs, client: Option<u64>) {
        self.obs = Some(Mutex::new(HandlerObserver::new(obs, client)));
        self.client_id = client;
        self.pending_contention = LockContention::new(obs.registry(), "pending-shard");
        self.ingest_contention = LockContention::new(obs.registry(), "ingest-shard");
        self.publish_contention = LockContention::new(obs.registry(), "publish");
    }

    /// The QoS specification in force.
    pub fn qos(&self) -> QosSpec {
        *self.qos.lock()
    }

    /// Renegotiates the QoS spec (§4, §5.4.2): the detector starts a clean
    /// history under the new deadline, and the planning snapshot is
    /// republished immediately so in-flight planners switch over at their
    /// next pointer load.
    pub fn renegotiate(&self, now: Instant, qos: QosSpec) {
        *self.qos.lock() = qos;
        self.detector.lock().renegotiate(qos);
        self.maybe_publish(now, true);
    }

    /// The active strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy_name
    }

    /// A point-in-time copy of the information repository, merged from
    /// the shards one shard lock at a time (what reporting, probing and
    /// stateful strategies read; snapshot planning uses the published
    /// view).
    pub fn repository(&self) -> InfoRepository {
        let present: Vec<ReplicaId> = self.membership.lock().present.iter().copied().collect();
        let mut merged = InfoRepository::new(self.window);
        for id in present {
            let stats = self.ingest_shard(id).lock().stats(id).cloned();
            if let Some(stats) = stats {
                merged.insert_stats(id, stats);
            }
        }
        merged
    }

    /// Reads one value from every present replica's entry, in ascending
    /// replica order, each under its own ingest-shard lock: no window is
    /// copied. Replicas without an entry yet are skipped.
    pub fn read_replicas<T>(
        &self,
        mut read: impl FnMut(&ReplicaStats) -> T,
    ) -> Vec<(ReplicaId, T)> {
        let present: Vec<ReplicaId> = self.membership.lock().present.iter().copied().collect();
        present
            .into_iter()
            .filter_map(|id| {
                let shard = self.ingest_shard(id).lock();
                shard.stats(id).map(|stats| (id, read(stats)))
            })
            .collect()
    }

    /// A point-in-time copy of the timing-failure detector.
    pub fn detector(&self) -> TimingFailureDetector {
        self.detector.lock().clone()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> HandlerStats {
        self.stats.snapshot()
    }

    /// The currently published planning view.
    pub fn planning_view(&self) -> Arc<PlanningView> {
        self.snapshot.load()
    }

    /// Attempts currently awaiting a first reply.
    pub fn pending_count(&self) -> usize {
        self.pending
            .iter()
            .map(|shard| {
                let shard = self.pending_contention.acquire(|| shard.lock());
                shard
                    .values()
                    .filter(|p| !p.group.answered.load(Ordering::Acquire))
                    .count()
            })
            .sum()
    }

    /// Emits every span still held by the observer (delivered requests
    /// keep their span open to absorb late redundant replies) and flushes
    /// the journal. No-op without an attached observer.
    pub fn flush_observability(&self) {
        self.with_observer(HandlerObserver::flush);
    }

    /// Installs the run's fault timeline on the observer so every emitted
    /// span is tagged with the stable ids of overlapping fault windows.
    /// No-op without an attached observer.
    pub fn set_fault_windows(&self, windows: Vec<aqua_faults::FaultWindow>) {
        self.with_observer(|observer| observer.set_fault_windows(windows));
    }

    /// Runs `f` against the attached observer (watchdog reconfiguration,
    /// alert hooks). Returns `None` without an attached observer.
    pub fn with_observer<T>(&self, f: impl FnOnce(&mut HandlerObserver) -> T) -> Option<T> {
        self.obs.as_ref().map(|obs| f(&mut obs.lock()))
    }

    // -- membership ---------------------------------------------------------

    /// Registers a replica (connect time / service discovery).
    pub fn insert_replica(&self, now: Instant, id: ReplicaId) -> bool {
        {
            let mut membership = self.membership.lock();
            membership.present.insert(id);
            membership.seen.insert(id);
        }
        let inserted = self.ingest_shard(id).lock().insert_replica(id);
        self.maybe_publish(now, true);
        inserted
    }

    /// Marks `replica` as rejoined after an outage (e.g. a socket reconnect
    /// after a crash-and-recover): it re-enters the repository **on
    /// probation**, shadowing selections until `l` fresh samples arrive.
    /// A no-op for a present member.
    pub fn on_rejoin(&self, now: Instant, replica: ReplicaId) {
        let fresh = {
            let mut membership = self.membership.lock();
            membership.seen.insert(replica);
            membership.present.insert(replica)
        };
        if !fresh {
            return;
        }
        self.ingest_shard(replica).lock().insert_replica(replica);
        self.begin_probation(now, replica);
        self.maybe_publish(now, true);
    }

    /// Installs a new server membership (from a group view change):
    /// departed replicas are dropped and will "not be considered in the
    /// selection process for future requests" (§5.4). A member that was
    /// seen before, left, and now reappears is a *rejoin* and starts on
    /// probation; first-time members are warmed by the cold-start
    /// multicast as usual.
    pub fn on_view<I: IntoIterator<Item = ReplicaId>>(&self, now: Instant, servers: I) {
        let servers: Vec<ReplicaId> = servers.into_iter().collect();
        let (departed, rejoining) = {
            let mut membership = self.membership.lock();
            let rejoining: Vec<ReplicaId> = servers
                .iter()
                .filter(|id| membership.seen.contains(id) && !membership.present.contains(id))
                .copied()
                .collect();
            let departed: Vec<ReplicaId> = membership
                .present
                .iter()
                .filter(|id| !servers.contains(id))
                .copied()
                .collect();
            membership.present = servers.iter().copied().collect();
            membership.seen.extend(servers.iter().copied());
            (departed, rejoining)
        };
        for id in departed {
            self.ingest_shard(id).lock().remove_replica(id);
        }
        for id in &servers {
            self.ingest_shard(*id).lock().insert_replica(*id);
        }
        for id in rejoining {
            self.begin_probation(now, id);
        }
        self.maybe_publish(now, true);
    }

    fn begin_probation(&self, now: Instant, replica: ReplicaId) {
        self.ingest_shard(replica)
            .lock()
            .set_probation(replica, self.window as u32);
        self.with_observer(|o| o.on_probation(replica, true, now.as_nanos()));
    }

    // -- ingestion ----------------------------------------------------------

    /// Processes a pushed performance update from a subscriber channel.
    pub fn on_perf_update(&self, now: Instant, replica: ReplicaId, perf: PerfReport) {
        self.ingest(now, replica, Some(perf), None);
    }

    /// Records into the replica's shard; emits the probation-cleared event
    /// when the sample completes a fresh window (§5.2); marks the view
    /// dirty. Publishing is left to the next plan.
    fn ingest(
        &self,
        now: Instant,
        replica: ReplicaId,
        perf: Option<PerfReport>,
        delay: Option<Duration>,
    ) {
        let cleared = {
            let mut repo = self
                .ingest_contention
                .acquire(|| self.ingest_shard(replica).lock());
            if !repo.contains(replica) {
                // Unknown replica (departed mid-flight): drop the sample.
                return;
            }
            let was_on_probation = repo.stats(replica).is_some_and(|s| s.is_on_probation());
            if let Some(report) = perf {
                repo.record_perf(replica, report, now);
            }
            if let Some(td) = delay {
                repo.record_gateway_delay(replica, td, now);
            }
            was_on_probation && repo.stats(replica).is_some_and(|s| !s.is_on_probation())
        };
        if cleared {
            self.with_observer(|o| o.on_probation(replica, false, now.as_nanos()));
        }
        self.dirty.store(true, Ordering::Release);
    }

    // -- publishing ---------------------------------------------------------

    /// Rebuilds and publishes the planning view if it is stale (or
    /// `force`d by a membership change). In real time at most one publish
    /// happens per `REAL_TIME_DEBOUNCE`, so a burst of replies costs one
    /// rebuild. Returns how many replica snapshots this call rebuilt.
    fn maybe_publish(&self, now: Instant, force: bool) -> u64 {
        if !force {
            if !self.dirty.load(Ordering::Acquire) {
                return 0;
            }
            let last = self.last_publish_ns.load(Ordering::Relaxed);
            if !self.virtual_time
                && now.as_nanos().saturating_sub(last) < REAL_TIME_DEBOUNCE.as_nanos()
            {
                return 0;
            }
        }
        let mut state = self.publish_contention.acquire(|| self.publish.lock());
        if !force && !self.dirty.load(Ordering::Acquire) {
            // A queued publisher already covered this batch of updates.
            return 0;
        }
        self.dirty.store(false, Ordering::Release);
        let last = self.last_publish_ns.load(Ordering::Relaxed);
        // aqua-lint: allow(atomics-ordering) debounce timestamp only; the snapshot is published via the version-guarded cell, a stale read costs one extra rebuild
        self.last_publish_ns
            .store(now.as_nanos().max(last), Ordering::Relaxed);

        let current = self.snapshot.load();
        let present: Vec<ReplicaId> = self.membership.lock().present.iter().copied().collect();
        let PublishState {
            scratch,
            fallback_model,
        } = &mut *state;
        let model = match &self.planner {
            PlannerMode::Snapshot { model, .. } => model,
            PlannerMode::Strategy(_) => &*fallback_model,
        };
        let mut rebuilt = 0;
        let mut snaps: Vec<Arc<ReplicaSnapshot>> = Vec::with_capacity(present.len());
        for id in present {
            let previous = current
                .replicas()
                .binary_search_by_key(&id, |r| r.id())
                .ok()
                .and_then(|i| current.replicas().get(i));
            // A moved replica is rebuilt under its shard lock: copying its
            // windows out first costs more than the rebuild itself, and
            // ingestion into the shard waits for one replica's rebuild.
            let shard = self.ingest_shard(id).lock();
            let Some(stats) = shard.stats(id) else {
                continue;
            };
            match previous.filter(|snap| snap.is_current(stats)) {
                Some(snap) => snaps.push(Arc::clone(snap)),
                None => {
                    rebuilt += 1;
                    snaps.push(Arc::new(ReplicaSnapshot::build(id, stats, model, scratch)));
                }
            }
        }
        let view = PlanningView::assemble(current.version() + 1, snaps, self.qos());
        self.snapshot.publish(Arc::new(view));
        rebuilt
    }

    // -- planning -----------------------------------------------------------

    /// Intercepts a client request at `now` (= `t0` = `t1`) and selects the
    /// replica subset. The caller multicasts the request and later reports
    /// replies via [`TimingFaultHandler::on_reply`].
    pub fn plan_request(&self, now: Instant) -> RequestPlan {
        self.plan_request_for(now, None)
    }

    /// Like [`TimingFaultHandler::plan_request`] with a method id for
    /// per-method performance classification (§8 ext. 1).
    pub fn plan_request_for(&self, now: Instant, method: Option<MethodId>) -> RequestPlan {
        let (seq, replicas) = self
            .plan_with(now, method, None, &[])
            // aqua-lint: allow(no-panic-in-hot-path) plan_with returns None only for a retry with every replica excluded
            .expect("initial selections always produce a plan");
        self.insert_pending(seq, now, now, Self::new_group(seq), false);
        RequestPlan { seq, replicas }
    }

    /// Plans a **deadline-driven retry** for a logical request first issued
    /// at `t0` whose attempt `retry_of` has missed an intermediate deadline:
    /// Algorithm 1 re-runs over the *remaining* replicas (the original
    /// selection is passed in `exclude`) and the new attempt joins the
    /// original's group. Returns `None` when no replica is left to ask or
    /// the logical request already resolved.
    pub fn plan_retry(
        &self,
        now: Instant,
        method: Option<MethodId>,
        t0: Instant,
        retry_of: u64,
        exclude: &[ReplicaId],
    ) -> Option<RequestPlan> {
        let origin = self.pending_entry(retry_of)?;
        if origin.group.answered.load(Ordering::Acquire) {
            return None;
        }
        let (seq, replicas) = self.plan_with(now, method, Some(retry_of), exclude)?;
        // Join the group *before* inserting the entry: the delivery path
        // snapshots the group and retires every member it finds, so a
        // concurrent winner either sees our seq (and retires the entry
        // once we insert it — or misses it and we self-retire below) or
        // has not delivered yet, in which case the flag check below is
        // still false and the attempt proceeds normally.
        origin.group.seqs.lock().push(seq);
        self.insert_pending(seq, t0, now, Arc::clone(&origin.group), false);
        if origin.group.answered.load(Ordering::Acquire) {
            // The sibling resolved while we were registering. The winner's
            // retire pass may have run before our insert; retire ourselves
            // (idempotent — at most one of the two removals succeeds).
            self.retire_attempt(now, seq);
            return None;
        }
        Some(RequestPlan { seq, replicas })
    }

    /// Plans an **active probe** to one replica (§8, extension 3: "use
    /// active probes \[5\] when a replica's performance information is
    /// obsolete"). The caller sends a minimal request with the returned
    /// sequence number; the reply refreshes the repository (including the
    /// gateway delay, which needs the recorded `t1`) but is never delivered
    /// and never counts toward the timing-failure statistics.
    pub fn plan_probe(&self, now: Instant, replica: ReplicaId) -> RequestPlan {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.stats.probes.fetch_add(1, Ordering::Relaxed);
        let qos = self.qos();
        self.with_observer(|o| {
            o.on_plan(PlanObservation {
                seq,
                method: MethodId::DEFAULT.index(),
                client: self.client_id,
                now_nanos: now.as_nanos(),
                deadline_nanos: qos.deadline().as_nanos(),
                promised: qos.min_probability(),
                selected: std::slice::from_ref(&replica),
                predicted: &[],
                view_version: None,
                probe: true,
                overhead_nanos: None,
                retry_of: None,
            })
        });
        self.insert_pending(seq, now, now, Self::new_group(seq), true);
        RequestPlan {
            seq,
            replicas: Arc::from([replica]),
        }
    }

    /// Replicas whose repository entry is older than `staleness` at `now`
    /// (or has no data at all) — the probe candidates.
    pub fn stale_replicas(&self, now: Instant, staleness: Duration) -> Vec<ReplicaId> {
        self.read_replicas(ReplicaStats::last_update)
            .into_iter()
            .filter(|(_, last)| last.is_none_or(|at| now.saturating_duration_since(at) > staleness))
            .map(|(id, _)| id)
            .collect()
    }

    /// Shared planning core: publishes the view if it is dirty, runs the
    /// selection (snapshot or strategy mode), appends probation shadows,
    /// updates stats and the observer.
    fn plan_with(
        &self,
        now: Instant,
        method: Option<MethodId>,
        retry_of: Option<u64>,
        exclude: &[ReplicaId],
    ) -> Option<(u64, Arc<[ReplicaId]>)> {
        // δ (§5.3.3) is the wall-clock cost from interception to send,
        // publish included.
        let started = std::time::Instant::now();
        let rebuilt = self.maybe_publish(now, false);
        let view = self.snapshot.load();
        let (mut replicas, predicted) = match &self.planner {
            PlannerMode::Snapshot { spec, .. } => {
                self.plan_from_snapshot(&view, spec, method, exclude)
            }
            PlannerMode::Strategy(strategy) => {
                let repository = self.repository();
                let mut strategy = strategy.lock();
                let selected = strategy.select(&SelectionInput {
                    repository: &repository,
                    qos: &view.qos(),
                    method,
                    now,
                    exclude,
                });
                // Strategies that model per-replica success expose this
                // plan's predictions; baselines return an empty slice.
                let predictions = strategy.last_predictions();
                let predicted: Vec<f64> = selected
                    .iter()
                    .map(|r| predictions.iter().find(|(id, _)| id == r).map(|(_, p)| *p))
                    .collect::<Option<Vec<f64>>>()
                    .unwrap_or_default();
                (selected, predicted)
            }
        };
        if retry_of.is_some() && replicas.is_empty() {
            // A retry with nobody left to ask is pointless; the original
            // attempt (or the give-up timer) resolves the request.
            return None;
        }
        // Probation members ride along as shadow traffic (§5.2): never
        // trusted candidates, but their replies rebuild the fresh window.
        for snap in view.replicas() {
            let id = snap.id();
            if !snap.is_selectable() && !replicas.contains(&id) && !exclude.contains(&id) {
                replicas.push(id);
            }
        }
        let overhead_nanos = started.elapsed().as_nanos() as u64;
        // aqua-lint: allow(atomics-ordering) standalone overhead gauge; readers tolerate staleness and no other data is published under it
        self.last_overhead_ns
            .store(overhead_nanos, Ordering::Relaxed);
        let replicas: Arc<[ReplicaId]> = replicas.into();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if retry_of.is_none() {
            self.stats.requests.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
        }
        self.stats
            .replicas_selected
            .fetch_add(replicas.len() as u64, Ordering::Relaxed);
        self.with_observer(|o| {
            o.on_plan(PlanObservation {
                seq,
                method: method.unwrap_or_default().index(),
                client: self.client_id,
                now_nanos: now.as_nanos(),
                deadline_nanos: view.qos().deadline().as_nanos(),
                promised: view.qos().min_probability(),
                selected: &replicas,
                predicted: &predicted,
                view_version: Some(view.version()),
                probe: false,
                overhead_nanos: Some(overhead_nanos),
                retry_of,
            });
            if matches!(self.planner, PlannerMode::Snapshot { .. }) {
                // Each replica's published table is this plan's model
                // cache: reused is a hit, rebuilt by this plan a miss.
                let misses = rebuilt.min(view.replicas().len() as u64);
                o.on_model_cache(view.replicas().len() as u64 - misses, misses);
            }
        });
        Some((seq, replicas))
    }

    /// Algorithm 1 over the published snapshot: evaluate `F_Ri(t − δ)`
    /// from the memoized tables (δ = 0 in virtual time), then run the
    /// crash-tolerant subset selection. Runs entirely on the caller's
    /// thread. Returns the selection plus each chosen replica's predicted
    /// `P(meet deadline)` (empty on a cold-start multicast, which has no
    /// model to consult).
    #[aqua::hot_path]
    fn plan_from_snapshot(
        &self,
        view: &PlanningView,
        spec: &SnapshotPlanSpec,
        method: Option<MethodId>,
        exclude: &[ReplicaId],
    ) -> (Vec<ReplicaId>, Vec<f64>) {
        let delta = if self.virtual_time {
            0
        } else {
            self.last_overhead_ns.load(Ordering::Relaxed)
        };
        let deadline = view
            .qos()
            .deadline()
            .saturating_sub(Duration::from_nanos(delta));
        let slot = method_slot(spec.model.method_scope, method);
        // aqua-lint: allow(no-alloc-in-select) the candidate list is the function's output; one exact-size reservation, no per-replica reallocation
        let mut candidates = Vec::with_capacity(view.replicas().len());
        for snap in view.replicas() {
            let id = snap.id();
            if !snap.is_selectable() || exclude.contains(&id) {
                continue;
            }
            match snap.probability_by(slot, deadline) {
                Some(p) => candidates.push(Candidate::new(id, p)),
                None => match spec.cold_start {
                    ColdStartPolicy::SelectAll => {
                        // Cold start (§5.4.1): multicast to every
                        // selectable member in one round.
                        let everyone = view
                            .replicas()
                            .iter()
                            .filter(|s| s.is_selectable() && !exclude.contains(&s.id()))
                            .map(|s| s.id())
                            .collect();
                        // aqua-lint: allow(no-alloc-in-select) Vec::new is allocation-free; a cold-start multicast has no predictions to report
                        return (everyone, Vec::new());
                    }
                    ColdStartPolicy::Optimistic(p) => {
                        candidates.push(Candidate::new(id, p.clamp(0.0, 1.0)));
                    }
                },
            }
        }
        let chosen =
            select_replicas_tolerating(&candidates, view.qos().min_probability(), spec.crashes)
                .into_replicas();
        let predicted = chosen
            .iter()
            .map(|id| {
                candidates
                    .iter()
                    .find(|c| c.id == *id)
                    .map_or(0.0, |c| c.probability)
            })
            .collect();
        (chosen, predicted)
    }

    // -- replies ------------------------------------------------------------

    /// Processes a reply that arrived at `now` (= `t4`) from `replica` for
    /// attempt `seq`, carrying piggybacked perf data. Lock scope: one
    /// pending-shard lookup, one ingest-shard update, and (on a first
    /// reply) the detector and the sibling retire pass — never the
    /// planning path.
    pub fn on_reply(
        &self,
        now: Instant,
        seq: u64,
        replica: ReplicaId,
        perf: PerfReport,
    ) -> ReplyOutcome {
        let Some(entry) = self.pending_entry(seq) else {
            // Expired request: still mine the perf data (no td — the
            // attempt's t1 is gone).
            self.ingest(now, replica, Some(perf), None);
            return ReplyOutcome::Unknown;
        };

        // td = t4 − t1 − tq − ts (§5.4.1). Clamped at zero: bucketed or
        // skewed measurements must never underflow.
        let in_flight = now.saturating_duration_since(entry.sent_at);
        let td = in_flight
            .saturating_sub(perf.queuing_delay)
            .saturating_sub(perf.service_time);
        // Exactly one reply (or the give-up timer) wins the group flag.
        let first = entry
            .group
            .answered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        // Ingest-shard handling cost, recorded on the span as `ingest_ns`
        // so forensics can separate wire delay from ingest stalls (timed
        // only when there is a span to record it on).
        let ingest_started = self.obs.is_some().then(std::time::Instant::now);
        self.ingest(now, replica, Some(perf), Some(td));
        let ingest_nanos = ingest_started.map(|t| t.elapsed().as_nanos() as u64);
        let observe = |first: bool, verdict: Option<TimingVerdict>| {
            self.with_observer(|o| {
                o.on_reply(
                    seq,
                    replica,
                    now.as_nanos(),
                    perf.service_time.as_nanos(),
                    perf.queuing_delay.as_nanos(),
                    td.as_nanos(),
                    in_flight.as_nanos(),
                    ingest_nanos,
                    first,
                    entry.probe,
                    verdict,
                )
            });
        };

        if entry.probe {
            // Probe replies only feed the repository.
            observe(first, None);
            ReplyOutcome::Redundant
        } else if first {
            let response_time = now.saturating_duration_since(entry.intercepted_at);
            let verdict = self.detector.lock().record(response_time);
            self.stats.delivered.fetch_add(1, Ordering::Relaxed);
            if verdict.should_notify() {
                self.stats.callbacks.fetch_add(1, Ordering::Relaxed);
            }
            observe(true, Some(verdict));
            self.retire_siblings(now, &entry, seq);
            ReplyOutcome::Deliver {
                response_time,
                verdict,
            }
        } else {
            self.stats.redundant.fetch_add(1, Ordering::Relaxed);
            observe(false, None);
            self.retire_old_entries(seq);
            ReplyOutcome::Redundant
        }
    }

    /// Retires every sibling attempt of `winner` (their entries go away;
    /// the winner's stays, flagged answered, so late duplicates classify
    /// as redundant rather than unknown).
    fn retire_siblings(&self, now: Instant, entry: &PendingEntry, winner: u64) {
        let siblings: Vec<u64> = {
            let seqs = entry.group.seqs.lock();
            if seqs.len() == 1 {
                return; // no retry was issued
            }
            seqs.clone()
        };
        for seq in siblings {
            if seq != winner {
                self.retire_attempt(now, seq);
            }
        }
    }

    /// Removes one attempt's entry; counts and journals the abandonment
    /// iff this call actually removed it (races are idempotent).
    fn retire_attempt(&self, now: Instant, seq: u64) -> bool {
        let removed = self
            .pending_contention
            .acquire(|| self.pending_shard(seq).lock())
            .remove(&seq)
            .is_some();
        if removed {
            self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
            self.with_observer(|o| o.on_abandon(seq, now.as_nanos()));
        }
        removed
    }

    /// Answered entries are kept so later duplicates count as `Redundant`
    /// rather than `Unknown`; memory is bounded by retiring, in the shard
    /// the reply hashed to, answered entries older than the most recent
    /// 1024 sequence numbers.
    fn retire_old_entries(&self, seq: u64) {
        let next = self.next_seq.load(Ordering::Relaxed);
        if next > 1024 {
            let cutoff = next - 1024;
            let mut shard = self
                .pending_contention
                .acquire(|| self.pending_shard(seq).lock());
            shard.retain(|s, p| *s >= cutoff || !p.group.answered.load(Ordering::Relaxed));
        }
    }

    /// Retires attempt `seq` because a sibling attempt of the same logical
    /// request resolved it. Not a delivery and not a failure: the request
    /// span closes as `superseded`, and late replies degrade to
    /// [`ReplyOutcome::Unknown`] (still mining their perf data). Returns
    /// `true` if the attempt was still open.
    pub fn on_abandon(&self, now: Instant, seq: u64) -> bool {
        match self.pending_entry(seq) {
            Some(entry) if !entry.probe && !entry.group.answered.load(Ordering::Acquire) => {
                self.retire_attempt(now, seq)
            }
            _ => false,
        }
    }

    /// Finalizes a request that never received any reply (all selected
    /// replicas crashed or the caller's give-up timer fired) at `now`.
    /// Counts as a timing failure. Wins or loses the group's answered flag
    /// against a concurrent first reply — returns `false` when the reply
    /// got there first (the caller should then drain its delivery channel
    /// instead of failing the call), and for probes, whose silence is not
    /// a client-visible failure.
    pub fn on_give_up(&self, now: Instant, seq: u64) -> bool {
        let Some(entry) = self.pending_entry(seq) else {
            return false;
        };
        if !entry.probe
            && entry
                .group
                .answered
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            return false;
        }
        self.pending_contention
            .acquire(|| self.pending_shard(seq).lock())
            .remove(&seq);
        if entry.probe {
            self.with_observer(|o| o.on_give_up(seq, true, None, false, now.as_nanos()));
            return false;
        }
        self.stats.gave_up.fetch_add(1, Ordering::Relaxed);
        // An unbounded response time: record as "missed by a lot".
        let deadline = self.qos.lock().deadline();
        let verdict = self.detector.lock().record(deadline.saturating_mul(1_000));
        if verdict.should_notify() {
            self.stats.callbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.with_observer(|o| {
            o.on_give_up(
                seq,
                false,
                Some(verdict),
                verdict.should_notify(),
                now.as_nanos(),
            )
        });
        true
    }

    // -- helpers ------------------------------------------------------------

    /// Registers attempt `seq` as a member of `group`.
    fn insert_pending(
        &self,
        seq: u64,
        t0: Instant,
        now: Instant,
        group: Arc<AttemptGroup>,
        probe: bool,
    ) {
        let entry = PendingEntry {
            intercepted_at: t0,
            sent_at: now,
            group,
            probe,
        };
        self.pending_contention
            .acquire(|| self.pending_shard(seq).lock())
            .insert(seq, entry);
    }

    /// A fresh group whose only attempt is `seq`.
    fn new_group(seq: u64) -> Arc<AttemptGroup> {
        Arc::new(AttemptGroup {
            answered: AtomicBool::new(false),
            seqs: Mutex::new(vec![seq]),
        })
    }

    fn pending_entry(&self, seq: u64) -> Option<PendingEntry> {
        self.pending_contention
            .acquire(|| self.pending_shard(seq).lock())
            .get(&seq)
            .cloned()
    }

    fn pending_shard(&self, seq: u64) -> &Mutex<HashMap<u64, PendingEntry>> {
        // aqua-lint: allow(no-panic-in-hot-path) the index is reduced modulo the shard count
        &self.pending[(seq as usize) % PENDING_SHARDS]
    }

    fn ingest_shard(&self, id: ReplicaId) -> &Mutex<InfoRepository> {
        // aqua-lint: allow(no-panic-in-hot-path) the index is reduced modulo the shard count
        &self.ingest[(id.index() as usize) % INGEST_SHARDS]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_strategies::{FastestMean, ModelBased};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn handler(pc: f64) -> TimingFaultHandler {
        let qos = QosSpec::new(ms(200), pc).unwrap();
        TimingFaultHandler::in_virtual_time(qos, 5, Box::new(ModelBased::default()))
    }

    /// Inserts `ids` at `Instant::EPOCH` and gives replica `i` three
    /// service samples of `service_ms + 10·i` and a 2 ms gateway delay.
    fn warm(h: &TimingFaultHandler, ids: &[u64], service_ms: u64) {
        for i in ids {
            let r = ReplicaId::new(*i);
            h.insert_replica(Instant::EPOCH, r);
            for _ in 0..3 {
                let perf = PerfReport::new(ms(service_ms + *i * 10), ms(0), 0);
                h.on_perf_update(Instant::EPOCH, r, perf);
            }
            h.ingest(Instant::EPOCH, r, None, Some(ms(2)));
        }
    }

    #[test]
    fn cold_start_plans_full_multicast() {
        let h = handler(0.9);
        for i in 0..3 {
            h.insert_replica(Instant::EPOCH, ReplicaId::new(i));
        }
        let plan = h.plan_request(Instant::EPOCH);
        assert_eq!(plan.replicas.len(), 3);
        assert_eq!(plan.seq, 0);
        assert_eq!(h.pending_count(), 1);
        assert_eq!(h.stats().requests, 1);
    }

    #[test]
    fn warm_snapshot_plan_matches_serialized_handler() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        let plan = h.plan_request(Instant::from_millis(100));

        // Reference: the strategy's own answer on the same repository.
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let repository = h.repository();
        let expected = ModelBased::default().select(&SelectionInput {
            repository: &repository,
            qos: &qos,
            method: None,
            now: Instant::from_millis(100),
            exclude: &[],
        });

        assert_eq!(plan.replicas.as_ref(), expected.as_slice());
        assert!(plan.replicas.len() < 3, "warm plans are selective");
    }

    #[test]
    fn first_reply_delivers_and_updates_everything() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 100);
        let t0 = Instant::from_millis(1_000);
        let plan = h.plan_request(t0);
        assert_eq!(plan.replicas.len(), 2, "warm Pc=0.9 needs m0 + 1");

        let r = plan.replicas[0];
        let t4 = t0 + ms(110);
        let perf = PerfReport::new(ms(100), ms(3), 1);
        let outcome = h.on_reply(t4, plan.seq, r, perf);
        match outcome {
            ReplyOutcome::Deliver {
                response_time,
                verdict,
            } => {
                assert_eq!(response_time, ms(110));
                assert!(verdict.is_timely());
            }
            other => panic!("expected Deliver, got {other:?}"),
        }
        // td = 110 − 3 − 100 = 7 ms.
        let repo = h.repository();
        assert_eq!(repo.stats(r).unwrap().last_gateway_delay(), Some(ms(7)));
        assert_eq!(repo.stats(r).unwrap().outstanding(), 1);
        assert_eq!(h.stats().delivered, 1);
    }

    #[test]
    fn first_reply_delivers_then_duplicates_are_redundant() {
        let h = handler(0.9);
        warm(&h, &[0, 1], 20);
        let t0 = Instant::from_millis(100);
        let plan = h.plan_request(t0);
        let r = plan.replicas[0];
        let t4 = t0 + ms(30);
        match h.on_reply(t4, plan.seq, r, PerfReport::new(ms(20), ms(0), 0)) {
            ReplyOutcome::Deliver {
                response_time,
                verdict,
            } => {
                assert_eq!(response_time, ms(30));
                assert!(verdict.is_timely());
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        let again = h.on_reply(t4 + ms(5), plan.seq, r, PerfReport::new(ms(20), ms(0), 0));
        assert_eq!(again, ReplyOutcome::Redundant);
        let stats = h.stats();
        assert_eq!((stats.delivered, stats.redundant), (1, 1));
        assert_eq!(h.pending_count(), 0);
    }

    #[test]
    fn second_reply_is_redundant_but_mined() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 100);
        let t0 = Instant::from_millis(1_000);
        let plan = h.plan_request(t0);
        let (a, b) = (plan.replicas[0], plan.replicas[1]);
        let perf = PerfReport::new(ms(100), ms(0), 0);
        assert!(matches!(
            h.on_reply(t0 + ms(105), plan.seq, a, perf),
            ReplyOutcome::Deliver { .. }
        ));
        let delays =
            |h: &TimingFaultHandler| h.repository().stats(b).unwrap().gateway_delays().len();
        let before = delays(&h);
        assert_eq!(
            h.on_reply(t0 + ms(140), plan.seq, b, perf),
            ReplyOutcome::Redundant
        );
        assert_eq!(delays(&h), before + 1, "redundant reply updated the delay");
        assert_eq!(h.stats().redundant, 1);
        assert_eq!(h.stats().delivered, 1);
    }

    #[test]
    fn late_first_reply_is_a_timing_failure() {
        let h = handler(0.0);
        warm(&h, &[0, 1], 100);
        let t0 = Instant::EPOCH;
        let plan = h.plan_request(t0);
        let outcome = h.on_reply(
            t0 + ms(500),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(480), ms(0), 0),
        );
        match outcome {
            ReplyOutcome::Deliver { verdict, .. } => {
                assert!(!verdict.is_timely());
                assert!(!verdict.should_notify(), "Pc = 0 tolerates failures");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(h.detector().failures(), 1);
    }

    #[test]
    fn callback_fires_when_violating() {
        let h = handler(0.9);
        warm(&h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        let outcome = h.on_reply(
            Instant::EPOCH + ms(900),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(880), ms(0), 0),
        );
        match outcome {
            ReplyOutcome::Deliver { verdict, .. } => assert!(verdict.should_notify()),
            other => panic!("{other:?}"),
        }
        assert_eq!(h.stats().callbacks, 1);
    }

    #[test]
    fn unknown_seq_still_mines_perf() {
        let h = handler(0.5);
        warm(&h, &[0], 100);
        let r = ReplicaId::new(0);
        let out = h.on_reply(Instant::EPOCH, 999, r, PerfReport::new(ms(50), ms(0), 0));
        assert_eq!(out, ReplyOutcome::Unknown);
        // The perf sample reached the window: 50 ms is now the newest entry.
        let repo = h.repository();
        let history = repo.stats(r).unwrap().history(MethodId::DEFAULT).unwrap();
        assert_eq!(history.len(), 4);
        assert_eq!(*history.service_times().latest().unwrap(), ms(50));
    }

    #[test]
    fn give_up_counts_failure_once() {
        let h = handler(0.0);
        warm(&h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        assert!(h.on_give_up(Instant::from_secs(5), plan.seq));
        assert!(!h.on_give_up(Instant::from_secs(5), plan.seq), "idempotent");
        assert_eq!(h.stats().gave_up, 1);
        assert_eq!(h.detector().failures(), 1);
        // A straggler reply after give-up is Unknown.
        assert_eq!(
            h.on_reply(
                Instant::from_secs(10),
                plan.seq,
                plan.replicas[0],
                PerfReport::new(ms(1), ms(0), 0)
            ),
            ReplyOutcome::Unknown
        );
    }

    #[test]
    fn give_up_and_reply_race_has_one_winner() {
        let h = handler(0.9);
        warm(&h, &[0, 1], 20);
        let t0 = Instant::from_millis(100);

        // Give-up first: the late reply degrades to Unknown.
        let plan = h.plan_request(t0);
        assert!(h.on_give_up(t0 + ms(300), plan.seq));
        assert!(
            !h.on_give_up(t0 + ms(301), plan.seq),
            "second give-up is a no-op"
        );
        let late = h.on_reply(
            t0 + ms(400),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert_eq!(late, ReplyOutcome::Unknown);

        // Reply first: the give-up loses and reports so.
        let plan2 = h.plan_request(t0 + ms(500));
        let out = h.on_reply(
            t0 + ms(520),
            plan2.seq,
            plan2.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert!(matches!(out, ReplyOutcome::Deliver { .. }));
        assert!(
            !h.on_give_up(t0 + ms(900), plan2.seq),
            "delivered request cannot fail"
        );
        let stats = h.stats();
        assert_eq!((stats.gave_up, stats.delivered), (1, 1));
        assert_eq!(h.detector().failures(), 1);
    }

    #[test]
    fn probes_refresh_without_touching_statistics() {
        let h = handler(0.9);
        warm(&h, &[0, 1], 100);
        let r = ReplicaId::new(0);
        let t0 = Instant::from_secs(1);
        let plan = h.plan_probe(t0, r);
        assert_eq!(&plan.replicas[..], &[r]);
        assert_eq!(h.stats().probes, 1);
        assert_eq!(h.stats().requests, 0, "probes are not client requests");

        // The probe reply is never delivered, even though it is the first.
        let outcome = h.on_reply(
            t0 + ms(700), // way past any deadline — still no failure
            plan.seq,
            r,
            PerfReport::new(ms(650), ms(40), 2),
        );
        assert_eq!(outcome, ReplyOutcome::Redundant);
        assert_eq!(h.stats().delivered, 0);
        assert_eq!(h.detector().total(), 0, "no timing accounting for probes");
        // But the measurements landed: td = 700 − 40 − 650 = 10 ms.
        let repo = h.repository();
        let stats = repo.stats(r).unwrap();
        assert_eq!(stats.last_gateway_delay(), Some(ms(10)));
        assert_eq!(stats.outstanding(), 2);
    }

    #[test]
    fn unanswered_probes_give_up_silently() {
        let h = handler(0.9);
        warm(&h, &[0, 1], 100);
        let plan = h.plan_probe(Instant::EPOCH, ReplicaId::new(1));
        assert!(
            !h.on_give_up(Instant::from_secs(5), plan.seq),
            "probe give-up is not a failure"
        );
        assert_eq!(h.stats().gave_up, 0);
        assert_eq!(h.detector().total(), 0);
    }

    #[test]
    fn stale_replicas_reports_old_and_empty_entries() {
        let h = handler(0.5);
        warm(&h, &[0], 100); // warmed at Instant::EPOCH
        h.insert_replica(Instant::EPOCH, ReplicaId::new(9)); // never updated
        let stale = h.stale_replicas(Instant::from_secs(10), Duration::from_secs(5));
        assert_eq!(stale, vec![ReplicaId::new(0), ReplicaId::new(9)]);
        let fresh = h.stale_replicas(Instant::from_millis(1), Duration::from_secs(5));
        assert_eq!(fresh, vec![ReplicaId::new(9)], "only the blank entry");
    }

    #[test]
    fn view_change_evicts_crashed_replica() {
        let h = handler(0.0);
        warm(&h, &[0, 1, 2], 100);
        h.on_view(Instant::EPOCH, [ReplicaId::new(0), ReplicaId::new(2)]);
        assert!(!h.repository().contains(ReplicaId::new(1)));
        let plan = h.plan_request(Instant::EPOCH);
        assert!(!plan.replicas.contains(&ReplicaId::new(1)));
    }

    #[test]
    fn perf_update_warms_repository() {
        let h = handler(0.0);
        h.insert_replica(Instant::EPOCH, ReplicaId::new(0));
        h.on_perf_update(
            Instant::EPOCH,
            ReplicaId::new(0),
            PerfReport::new(ms(10), ms(1), 0),
        );
        let repo = h.repository();
        let stats = repo.stats(ReplicaId::new(0)).unwrap();
        assert_eq!(stats.outstanding(), 0);
        assert!(stats.history(MethodId::DEFAULT).is_some());
        assert!(!stats.is_warm(), "still no gateway delay measured");
    }

    #[test]
    fn renegotiate_resets_detector() {
        let h = handler(0.9);
        warm(&h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        h.on_reply(
            Instant::EPOCH + ms(900),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(880), ms(0), 0),
        );
        assert!(h.detector().is_violating());
        h.renegotiate(
            Instant::EPOCH + ms(900),
            QosSpec::new(ms(1_000), 0.5).unwrap(),
        );
        assert!(!h.detector().is_violating());
        assert_eq!(h.qos().deadline(), ms(1_000));
        assert_eq!(h.planning_view().qos().deadline(), ms(1_000));
    }

    #[test]
    fn mean_redundancy_tracks_selections() {
        let h = handler(0.0);
        warm(&h, &[0, 1, 2, 3], 100);
        for i in 0..4 {
            let plan = h.plan_request(Instant::from_millis(i * 10));
            assert_eq!(plan.replicas.len(), 2, "Pc = 0 warm selects 2");
        }
        assert_eq!(h.stats().mean_redundancy(), 2.0);
    }

    #[test]
    fn retry_replans_over_remaining_replicas() {
        let h = handler(0.0);
        warm(&h, &[0, 1, 2, 3], 100);
        let first = h.plan_request(Instant::EPOCH);
        let retry = h
            .plan_retry(
                Instant::from_millis(150),
                None,
                Instant::EPOCH,
                first.seq,
                &first.replicas,
            )
            .expect("others remain");
        assert!(!retry.replicas.is_empty());
        for r in retry.replicas.iter() {
            assert!(
                !first.replicas.contains(r),
                "retry must use the remaining replicas only"
            );
        }
        assert_eq!(h.stats().requests, 1, "a retry is not a new request");
        assert_eq!(h.stats().retries, 1);
        // The retried attempt keeps the original interception time, so the
        // end-to-end response time spans both attempts.
        let outcome = h.on_reply(
            Instant::from_millis(170),
            retry.seq,
            retry.replicas[0],
            PerfReport::new(ms(10), ms(0), 0),
        );
        match outcome {
            ReplyOutcome::Deliver { response_time, .. } => assert_eq!(response_time, ms(170)),
            other => panic!("expected Deliver, got {other:?}"),
        }
    }

    #[test]
    fn retry_with_nobody_left_is_refused() {
        let h = handler(0.0);
        warm(&h, &[0, 1], 100);
        let first = h.plan_request(Instant::EPOCH);
        assert_eq!(first.replicas.len(), 2);
        assert!(
            h.plan_retry(
                Instant::from_millis(150),
                None,
                Instant::EPOCH,
                first.seq,
                &first.replicas
            )
            .is_none(),
            "every replica is already serving the first attempt"
        );
        assert_eq!(h.stats().retries, 0);
    }

    #[test]
    fn retry_joins_group_and_delivery_retires_the_loser() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        let t0 = Instant::from_millis(100);
        let plan = h.plan_request(t0);
        let retry = h
            .plan_retry(t0 + ms(150), None, t0, plan.seq, &plan.replicas)
            .expect("replicas remain for the retry");
        for r in retry.replicas.iter() {
            assert!(
                !plan.replicas.contains(r),
                "retry must exclude the original selection"
            );
        }
        // The retry's replica answers first: its attempt delivers, the
        // original is retired as superseded.
        let out = h.on_reply(
            t0 + ms(170),
            retry.seq,
            retry.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert!(matches!(out, ReplyOutcome::Deliver { .. }));
        let late = h.on_reply(
            t0 + ms(180),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert_eq!(late, ReplyOutcome::Unknown, "retired attempt is gone");
        let stats = h.stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.abandoned, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(h.pending_count(), 0);
    }

    #[test]
    fn retry_after_resolution_returns_none() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        let t0 = Instant::from_millis(100);
        let plan = h.plan_request(t0);
        h.on_reply(
            t0 + ms(25),
            plan.seq,
            plan.replicas[0],
            PerfReport::new(ms(20), ms(0), 0),
        );
        assert!(h
            .plan_retry(t0 + ms(150), None, t0, plan.seq, &plan.replicas)
            .is_none());
    }

    #[test]
    fn abandoned_attempt_is_neither_delivery_nor_failure() {
        let h = handler(0.0);
        warm(&h, &[0, 1], 100);
        let plan = h.plan_request(Instant::EPOCH);
        assert!(h.on_abandon(Instant::from_millis(50), plan.seq));
        assert!(
            !h.on_abandon(Instant::from_millis(51), plan.seq),
            "already retired"
        );
        let stats = h.stats();
        assert_eq!(stats.abandoned, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.gave_up, 0);
        assert_eq!(h.detector().failures(), 0);
        // A late reply from the abandoned attempt still mines perf data.
        let replica = plan.replicas[0];
        let outcome = h.on_reply(
            Instant::from_millis(120),
            plan.seq,
            replica,
            PerfReport::new(ms(100), ms(0), 0),
        );
        assert!(matches!(outcome, ReplyOutcome::Unknown));
        assert!(
            !h.on_give_up(Instant::from_millis(130), plan.seq),
            "nothing left to give up on"
        );
    }

    #[test]
    fn rejoining_replica_serves_probation_until_fresh_window() {
        let h = handler(0.0);
        warm(&h, &[0, 1, 2], 100);
        h.on_view(Instant::EPOCH, [ReplicaId::new(0), ReplicaId::new(1)]);
        assert!(!h.repository().contains(ReplicaId::new(2)));
        // Replica 2 recovers and rejoins the view: probation, not trust.
        h.on_view(
            Instant::from_millis(10),
            [ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
        );
        let on_probation = |h: &TimingFaultHandler| {
            h.repository()
                .stats(ReplicaId::new(2))
                .unwrap()
                .is_on_probation()
        };
        assert!(on_probation(&h));
        // It shadows the next selection (so its window can refill) but is
        // never a trusted candidate while on probation.
        let plan = h.plan_request(Instant::from_millis(20));
        assert!(plan.replicas.contains(&ReplicaId::new(2)));
        assert_eq!(
            *plan.replicas.last().unwrap(),
            ReplicaId::new(2),
            "shadows are appended after the trusted selection"
        );
        // l fresh samples clear probation.
        for i in 0..5u64 {
            h.on_perf_update(
                Instant::from_millis(30 + i),
                ReplicaId::new(2),
                PerfReport::new(ms(90), ms(0), 0),
            );
        }
        assert!(!on_probation(&h));
    }

    #[test]
    fn first_time_members_join_without_probation() {
        let h = handler(0.0);
        warm(&h, &[0, 1], 100);
        h.on_view(
            Instant::EPOCH,
            [ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
        );
        assert!(
            !h.repository()
                .stats(ReplicaId::new(2))
                .unwrap()
                .is_on_probation(),
            "a never-seen member is warmed by the cold-start multicast instead"
        );
    }

    #[test]
    fn explicit_rejoin_starts_probation() {
        let h = handler(0.0);
        warm(&h, &[0, 1], 100);
        h.on_view(Instant::EPOCH, [ReplicaId::new(0)]);
        h.on_rejoin(Instant::from_millis(5), ReplicaId::new(1));
        let on_probation = |h: &TimingFaultHandler, i| {
            h.repository()
                .stats(ReplicaId::new(i))
                .unwrap()
                .is_on_probation()
        };
        assert!(on_probation(&h, 1));
        // It shadows the next plan, after the trusted selection.
        let plan = h.plan_request(Instant::from_millis(6));
        assert_eq!(plan.replicas.last(), Some(&ReplicaId::new(1)));
        // Rejoining while still connected is a no-op.
        h.on_rejoin(Instant::from_millis(6), ReplicaId::new(0));
        assert!(!on_probation(&h, 0));
    }

    #[test]
    fn strategy_mode_plans_through_the_published_view() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = TimingFaultHandler::in_virtual_time(qos, 5, Box::new(FastestMean { k: 1 }));
        assert_eq!(h.strategy_name(), "fastest-mean");
        warm(&h, &[0, 1], 20);
        let plan = h.plan_request(Instant::from_millis(100));
        assert_eq!(
            plan.replicas.as_ref(),
            &[ReplicaId::new(0)],
            "fastest-mean picks the fastest replica from the snapshot"
        );
    }

    /// Three replicas whose response time is exactly the 200 ms deadline:
    /// `F(t) = 1`, while `F(t − δ) = 0` for any δ > 0.
    fn at_the_deadline_edge(h: &TimingFaultHandler) {
        for i in 0..3 {
            let r = ReplicaId::new(i);
            h.insert_replica(Instant::EPOCH, r);
            h.on_perf_update(Instant::EPOCH, r, PerfReport::new(ms(190), ms(0), 0));
            h.ingest(Instant::EPOCH, r, None, Some(ms(10)));
        }
    }

    #[test]
    fn virtual_time_plans_at_a_bucket_edge_replay() {
        let h = handler(0.9);
        at_the_deadline_edge(&h);
        let first = h.plan_request(Instant::from_millis(1));
        let second = h.plan_request(Instant::from_millis(1));
        assert_eq!(first.replicas.len(), 2, "P = 1 each: m0 + 1 replicas");
        assert_eq!(
            first.replicas, second.replicas,
            "the second plan must not subtract a measured δ"
        );
    }

    #[test]
    fn real_time_plans_subtract_the_measured_overhead() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = TimingFaultHandler::new(qos, 5, Box::new(ModelBased::default()));
        at_the_deadline_edge(&h);
        let first = h.plan_request(Instant::from_millis(1));
        let second = h.plan_request(Instant::from_millis(1));
        assert_eq!(first.replicas.len(), 2, "no δ measured yet");
        assert_eq!(second.replicas.len(), 3, "F(t − δ) = 0: everyone");
    }

    #[test]
    fn virtual_time_plan_sees_a_sample_ingested_right_after_a_publish() {
        let h = handler(0.9);
        warm(&h, &[0, 1, 2], 20);
        let (r0, now) = (ReplicaId::new(0), Instant::from_millis(1));
        h.on_perf_update(now, ReplicaId::new(2), PerfReport::new(ms(20), ms(0), 0));
        let before = h.plan_request(now);
        assert!(before.replicas.contains(&r0), "{:?}", before.replicas);
        // Within the real-time debounce interval of that publish, r0
        // turns slow: F_r0(200 ms) drops from 1 to 3/4.
        h.on_perf_update(now, r0, PerfReport::new(ms(500), ms(0), 0));
        let after = h.plan_request(now);
        assert!(!after.replicas.contains(&r0), "{:?}", after.replicas);
    }

    #[test]
    fn debounce_coalesces_publishes() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = TimingFaultHandler::new(qos, 5, Box::new(ModelBased::default()));
        let r = ReplicaId::new(0);
        h.insert_replica(Instant::EPOCH, r);
        let v0 = h.planning_view().version();
        // Whether the published snapshot of r0 reflects every ingested sample.
        let current = |h: &TimingFaultHandler| {
            let repo = h.repository();
            h.planning_view()
                .replica(r)
                .is_some_and(|snap| snap.is_current(repo.stats(r).unwrap()))
        };
        let perf = PerfReport::new(ms(20), ms(0), 0);
        // Ingestion alone never publishes.
        for k in 1..4u64 {
            h.on_perf_update(Instant::EPOCH + Duration::from_micros(k * 100), r, perf);
        }
        assert_eq!(h.planning_view().version(), v0);
        assert!(!current(&h));
        // A plan inside the debounce interval of the last publish does not
        // publish either …
        h.plan_request(Instant::EPOCH + Duration::from_micros(400));
        assert_eq!(h.planning_view().version(), v0);
        // … the first plan past it publishes the whole burst at once.
        h.plan_request(Instant::EPOCH + Duration::from_micros(600));
        assert_eq!(h.planning_view().version(), v0 + 1);
        assert!(current(&h), "the coalesced publish carries every sample");
        // A clean view is never republished.
        h.plan_request(Instant::from_millis(5));
        assert_eq!(h.planning_view().version(), v0 + 1);
    }

    #[test]
    fn snapshot_plans_count_reused_tables_as_cache_hits() {
        let obs = aqua_obs::Obs::metrics_only();
        let mut h = handler(0.9);
        h.attach_obs(&obs, None);
        warm(&h, &[0, 1, 2], 20);
        let counts = || {
            let count = |name: &str| obs.registry().counter(name, &[("client", "-")]).get();
            (
                count("aqua_model_cache_hits_total"),
                count("aqua_model_cache_misses_total"),
            )
        };
        // Every plan accounts for each of the three replica tables once.
        h.plan_request(Instant::from_millis(1));
        let (hits, misses) = counts();
        assert_eq!(hits + misses, 3);
        assert!(misses > 0, "the first plan publishes the warm-up samples");
        // One replica moves: its table is rebuilt, the other two reused.
        h.on_perf_update(
            Instant::from_millis(2),
            ReplicaId::new(1),
            PerfReport::new(ms(30), ms(0), 0),
        );
        h.plan_request(Instant::from_millis(2));
        assert_eq!(counts(), (hits + 2, misses + 1));
        // Nothing moved: all three reused.
        h.plan_request(Instant::from_millis(3));
        assert_eq!(counts(), (hits + 5, misses + 1));
    }

    #[test]
    fn concurrent_plans_and_replies_share_the_handler() {
        let qos = QosSpec::new(ms(200), 0.9).unwrap();
        let h = Arc::new(TimingFaultHandler::new(
            qos,
            5,
            Box::new(ModelBased::default()),
        ));
        warm(&h, &[0, 1, 2], 20);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for k in 0..50u64 {
                        let now = Instant::from_millis(1_000 + t * 100 + k);
                        let plan = h.plan_request(now);
                        assert!(!plan.replicas.is_empty());
                        let out = h.on_reply(
                            now + ms(20),
                            plan.seq,
                            plan.replicas[0],
                            PerfReport::new(ms(20), ms(0), 0),
                        );
                        assert!(matches!(out, ReplyOutcome::Deliver { .. }));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = h.stats();
        assert_eq!(stats.requests, 200);
        assert_eq!(stats.delivered, 200);
        assert_eq!(h.pending_count(), 0);
    }
}
