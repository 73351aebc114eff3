//! Bounded exhaustive interleaving checker (loom-style, but tiny).
//!
//! A [`Model`] is a fixed set of threads, each a straight-line sequence of
//! [`Step`]s over a `Clone`-able shadow state (built from the
//! [`shadow`] crate's [`ShadowLock`]/[`ShadowAtomicU64`] primitives). The
//! explorer enumerates **every** interleaving by depth-first search,
//! cloning the state at each branch point, and checks the model invariant
//! after every step. All-threads-blocked with work remaining is reported
//! as a deadlock.
//!
//! Seven models port real synchronization hot spots from the workspace:
//!
//! * [`registry_scrape_model`] — `aqua-obs` metric registration racing a
//!   scrape: registration writes two parallel vectors under the registry
//!   mutex, and histogram recording bumps `count` before the bucket. A
//!   scrape must never observe torn vectors, and must read buckets before
//!   the count so the documented `count >= sum(buckets)` quantile fallback
//!   holds.
//! * [`repository_epoch_model`] — `aqua-core` repository `record_perf`
//!   racing a remove/re-insert: model-cache keys carry the replica
//!   `epoch`, so a generation counter that restarts after re-insert can
//!   never alias a stale cache entry (the ABA hazard the epoch exists
//!   for). [`repository_no_epoch_model`] is the deliberately buggy
//!   variant; tests use it to prove the checker actually catches the bug.
//! * [`snapshot_publish_model`] — the gateway handler's snapshot
//!   pipeline: sharded ingestion only marks a dirty flag; a planner that
//!   finds it set rebuilds under a publish mutex and installs through a
//!   version-guarded cell before loading the view lock-free. [`snapshot_publish_racy_model`] drops both
//!   the mutex and the guard to exhibit the lost-update/stale-snapshot
//!   ABA the protocol prevents.
//! * [`pending_retry_model`] — the sharded pending-request table: a first
//!   reply CASes the shared `answered` flag and retires sibling attempts
//!   while the retry path inserts its entry; the retry's post-insert
//!   re-check closes the lost-entry window.
//!   [`pending_retry_no_recheck_model`] and [`pending_retry_toctou_model`]
//!   are the buggy variants (leaked pending entry, double delivery).
//! * [`reactor_wake_model`] — the socket runtime's self-pipe wake path:
//!   submitters coalesce pokes through the `wake_pending` flag (only the
//!   0→1 `swap` writes a wake byte, and the pipe holds a byte count), and
//!   the reactor loop polls, drains the pipe, clears the flag, and *then*
//!   harvests outboxes, each a separate step; every sender sends twice.
//!   Draining before clearing is load-bearing:
//!   [`reactor_lost_wakeup_model`] clears first, the order the loop once
//!   shipped, and exhibits the lost wakeup (a swallowed byte leaves the
//!   flag set over an empty pipe, so the second sends sit in dirty
//!   outboxes with the reactor parked).
//! * [`mux_reply_model`] — the multiplexed client's reply routing: wire
//!   sequence numbers carry the logical handle in the top 24 bits and a
//!   handle-local seq in the low 40 (`mux.rs`), so the router can
//!   demultiplex replies back to the right parked caller while give-up
//!   races delivery. [`mux_seq_collision_model`] composes wire seqs from
//!   the local counter alone, so two handles' seqs collide and a reply
//!   resolves the wrong caller's waiter.
//! * [`shard_barrier_model`] — `lan-sim`'s sharded DES round protocol:
//!   worker shards publish next-event times, the leader computes the
//!   inclusive window horizon `min(next) + L − 1` from the topology
//!   lookahead `L`, and cross-shard sends distribute at the barrier,
//!   arriving at send-time + `L` — strictly *after* every window that
//!   could have produced them. [`shard_barrier_off_by_one_model`] widens
//!   the window to `min(next) + L`, so an arrival at exactly `T + L`
//!   lands inside a window the receiver already closed — the causality
//!   violation the shipped `−1` prevents.

use shadow::{ShadowAtomicU64, ShadowLock};

/// One atomic action a thread can take.
pub struct Step<S> {
    /// Display name used in violation traces.
    pub name: &'static str,
    /// Whether the step can run in `state` (lock acquisition gates here).
    pub enabled: fn(&S, usize) -> bool,
    /// Execute the step.
    pub run: fn(&mut S, usize),
}

/// A complete model: initial state, per-thread step sequences, invariant.
pub struct Model<S> {
    /// Model name for reporting.
    pub name: &'static str,
    /// Build the initial state.
    pub init: fn() -> S,
    /// One straight-line step sequence per thread.
    pub threads: Vec<Vec<Step<S>>>,
    /// Checked after every step and at the end of every schedule.
    pub invariant: fn(&S) -> Result<(), String>,
}

/// Outcome of exhaustively exploring a model.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Complete interleavings explored (leaves of the schedule tree).
    pub schedules: u64,
    /// Schedules that wedged with runnable work remaining.
    pub deadlocks: u64,
    /// Invariant violations: (trace of step names, message).
    pub violations: Vec<(Vec<String>, String)>,
}

impl Exploration {
    /// True when every schedule completed and the invariant always held.
    pub fn passed(&self) -> bool {
        self.deadlocks == 0 && self.violations.is_empty()
    }
}

/// Upper bound on recorded violations; exploration keeps counting past it.
const MAX_VIOLATIONS: usize = 16;

/// Exhaustively explore every interleaving of `model`'s threads.
pub fn explore<S: Clone>(model: &Model<S>) -> Exploration {
    let mut out = Exploration::default();
    let state = (model.init)();
    let pcs = vec![0usize; model.threads.len()];
    let mut trace = Vec::new();
    dfs(model, state, pcs, &mut trace, &mut out);
    out
}

fn dfs<S: Clone>(
    model: &Model<S>,
    state: S,
    pcs: Vec<usize>,
    trace: &mut Vec<String>,
    out: &mut Exploration,
) {
    let mut ran_any = false;
    let mut all_done = true;
    for tid in 0..model.threads.len() {
        let pc = pcs[tid];
        if pc >= model.threads[tid].len() {
            continue;
        }
        all_done = false;
        let step = &model.threads[tid][pc];
        if !(step.enabled)(&state, tid) {
            continue;
        }
        ran_any = true;
        let mut next = state.clone();
        (step.run)(&mut next, tid);
        trace.push(format!("t{tid}:{}", step.name));
        if let Err(msg) = (model.invariant)(&next) {
            if out.violations.len() < MAX_VIOLATIONS {
                out.violations.push((trace.clone(), msg));
            }
        }
        let mut next_pcs = pcs.clone();
        next_pcs[tid] += 1;
        dfs(model, next, next_pcs, trace, out);
        trace.pop();
    }
    if all_done {
        out.schedules += 1;
    } else if !ran_any {
        out.deadlocks += 1;
        if out.violations.len() < MAX_VIOLATIONS {
            out.violations
                .push((trace.clone(), "deadlock: all threads blocked".to_string()));
        }
    }
}

// ---------------------------------------------------------------------------
// Model 1: obs registry — register vs scrape.
// ---------------------------------------------------------------------------

/// Shadow of the `aqua-obs` registry hot spot.
#[derive(Clone)]
pub struct RegistryState {
    /// The registry mutex serializing registration against scrapes.
    lock: ShadowLock,
    /// `RegistryInner::names.len()` — first half of a registration.
    names: ShadowAtomicU64,
    /// `RegistryInner::values.len()` — second half of a registration.
    values: ShadowAtomicU64,
    /// Histogram observation count (bumped before the bucket, lock-free).
    hist_count: ShadowAtomicU64,
    /// Histogram bucket total (bumped after the count, lock-free).
    hist_bucket: ShadowAtomicU64,
    /// Scrape-side snapshots (`None` until read).
    snap_names: Option<u64>,
    snap_values: Option<u64>,
    snap_bucket: Option<u64>,
    snap_count: Option<u64>,
}

/// Register-vs-scrape model. Thread 0 registers a metric (two vector
/// pushes under the lock) then records two histogram samples (count, then
/// bucket, each time). Thread 1 scrapes: vector lengths under the lock,
/// then two read rounds of buckets-before-count. Invariants: the scrape
/// never sees torn vectors, and every observed `(bucket, count)` pair
/// satisfies `bucket <= count` so the quantile fallback holds.
pub fn registry_scrape_model() -> Model<RegistryState> {
    fn init() -> RegistryState {
        RegistryState {
            lock: ShadowLock::new(),
            names: ShadowAtomicU64::new(0),
            values: ShadowAtomicU64::new(0),
            hist_count: ShadowAtomicU64::new(0),
            hist_bucket: ShadowAtomicU64::new(0),
            snap_names: None,
            snap_values: None,
            snap_bucket: None,
            snap_count: None,
        }
    }
    fn can_lock(s: &RegistryState, tid: usize) -> bool {
        s.lock.can_acquire(tid)
    }
    fn always(_: &RegistryState, _: usize) -> bool {
        true
    }
    fn invariant(s: &RegistryState) -> Result<(), String> {
        if let (Some(n), Some(v)) = (s.snap_names, s.snap_values) {
            if n != v {
                return Err(format!("torn registration observed: names={n} values={v}"));
            }
        }
        if let (Some(b), Some(c)) = (s.snap_bucket, s.snap_count) {
            if b > c {
                return Err(format!(
                    "bucket sum {b} exceeds count {c}; quantile fallback breaks"
                ));
            }
        }
        Ok(())
    }

    let register: Vec<Step<RegistryState>> = vec![
        Step {
            name: "reg.lock",
            enabled: can_lock,
            run: |s, tid| s.lock.acquire(tid),
        },
        Step {
            name: "reg.push_name",
            enabled: always,
            run: |s, _| {
                s.names.fetch_add(1);
            },
        },
        Step {
            name: "reg.push_value",
            enabled: always,
            run: |s, _| {
                s.values.fetch_add(1);
            },
        },
        Step {
            name: "reg.unlock",
            enabled: always,
            run: |s, tid| s.lock.release(tid),
        },
        Step {
            name: "hist.count+=1",
            enabled: always,
            run: |s, _| {
                s.hist_count.fetch_add(1);
            },
        },
        Step {
            name: "hist.bucket+=1",
            enabled: always,
            run: |s, _| {
                s.hist_bucket.fetch_add(1);
            },
        },
        Step {
            name: "hist.count+=1 (2)",
            enabled: always,
            run: |s, _| {
                s.hist_count.fetch_add(1);
            },
        },
        Step {
            name: "hist.bucket+=1 (2)",
            enabled: always,
            run: |s, _| {
                s.hist_bucket.fetch_add(1);
            },
        },
    ];
    let scrape: Vec<Step<RegistryState>> = vec![
        Step {
            name: "scrape.lock",
            enabled: can_lock,
            run: |s, tid| s.lock.acquire(tid),
        },
        Step {
            name: "scrape.read_names",
            enabled: always,
            run: |s, _| s.snap_names = Some(s.names.load()),
        },
        Step {
            name: "scrape.read_values",
            enabled: always,
            run: |s, _| s.snap_values = Some(s.values.load()),
        },
        Step {
            name: "scrape.unlock",
            enabled: always,
            run: |s, tid| s.lock.release(tid),
        },
        Step {
            name: "scrape.read_bucket",
            enabled: always,
            run: |s, _| s.snap_bucket = Some(s.hist_bucket.load()),
        },
        Step {
            name: "scrape.read_count",
            enabled: always,
            run: |s, _| s.snap_count = Some(s.hist_count.load()),
        },
        Step {
            name: "scrape.read_bucket (2)",
            enabled: always,
            run: |s, _| {
                // A new read round: the round-1 count snapshot must not be
                // compared against a round-2 bucket read.
                s.snap_count = None;
                s.snap_bucket = Some(s.hist_bucket.load());
            },
        },
        Step {
            name: "scrape.read_count (2)",
            enabled: always,
            run: |s, _| s.snap_count = Some(s.hist_count.load()),
        },
        Step {
            name: "scrape.render",
            enabled: always,
            run: |_, _| {},
        },
    ];

    Model {
        name: "obs-registry-register-vs-scrape",
        init,
        threads: vec![register, scrape],
        invariant,
    }
}

/// Buggy registry variant: the scrape reads `count` *before* `bucket`,
/// so a concurrent record can land between the two reads and the scrape
/// observes `bucket > count`. Exists to prove the checker catches it.
pub fn registry_scrape_buggy_model() -> Model<RegistryState> {
    let mut model = registry_scrape_model();
    model.name = "obs-registry-buggy-read-order";
    // Swap the two lock-free reads in the scrape thread.
    model.threads[1].swap(4, 5);
    model
}

// ---------------------------------------------------------------------------
// Model 2: repository — record vs remove/re-insert (ABA epoch).
// ---------------------------------------------------------------------------

/// Shadow of the repository entry a model-cache key is derived from.
#[derive(Clone)]
pub struct RepoState {
    /// Bumped on every (re-)insert; part of the cache key.
    epoch: ShadowAtomicU64,
    /// Per-entry update generation; restarts at 0 on re-insert.
    generation: ShadowAtomicU64,
    /// Which incarnation of the replica the stats describe.
    incarnation: ShadowAtomicU64,
    /// Whether the cache key includes the epoch (the fix under test).
    key_includes_epoch: bool,
    /// Cached `(epoch, generation, incarnation)` from the reader side.
    cached: Option<(u64, u64, u64)>,
    /// First invariant violation observed by a lookup step.
    violation: Option<String>,
}

fn repo_lookup(s: &mut RepoState) {
    let Some((e, g, inc)) = s.cached else { return };
    let key_matches = if s.key_includes_epoch {
        e == s.epoch.load() && g == s.generation.load()
    } else {
        g == s.generation.load()
    };
    if key_matches && inc != s.incarnation.load() {
        s.violation = Some(format!(
            "stale cache hit: key matched but data is from incarnation {inc}, repo at {}",
            s.incarnation.load()
        ));
    }
}

fn repo_model(key_includes_epoch: bool, name: &'static str) -> Model<RepoState> {
    fn always(_: &RepoState, _: usize) -> bool {
        true
    }
    fn invariant(s: &RepoState) -> Result<(), String> {
        match &s.violation {
            Some(msg) => Err(msg.clone()),
            None => Ok(()),
        }
    }
    fn lookup_step(s: &mut RepoState, _: usize) {
        repo_lookup(s);
    }

    // Thread 0 — the gateway's model cache: snapshot a key, then keep
    // validating cached data against the live entry (probability_by_cached).
    let cache: Vec<Step<RepoState>> = vec![
        Step {
            name: "cache.build",
            enabled: always,
            run: |s, _| {
                s.cached = Some((s.epoch.load(), s.generation.load(), s.incarnation.load()));
            },
        },
        Step {
            name: "cache.lookup1",
            enabled: always,
            run: lookup_step,
        },
        Step {
            name: "cache.lookup2",
            enabled: always,
            run: lookup_step,
        },
        Step {
            name: "cache.lookup3",
            enabled: always,
            run: lookup_step,
        },
        Step {
            name: "cache.lookup4",
            enabled: always,
            run: lookup_step,
        },
        Step {
            name: "cache.lookup5",
            enabled: always,
            run: lookup_step,
        },
        Step {
            name: "cache.lookup6",
            enabled: always,
            run: lookup_step,
        },
    ];

    // Thread 1 — membership + measurement pipeline: two perf records, a
    // crash-driven remove, a re-insert (new incarnation, generation reset),
    // then two records for the *new* incarnation. The final generation
    // equals the cached one, which is exactly the ABA collision.
    let membership: Vec<Step<RepoState>> = vec![
        Step {
            name: "repo.record1",
            enabled: always,
            run: |s, _| {
                s.generation.fetch_add(1);
            },
        },
        Step {
            name: "repo.record2",
            enabled: always,
            run: |s, _| {
                s.generation.fetch_add(1);
            },
        },
        Step {
            name: "repo.remove",
            enabled: always,
            run: |s, _| s.generation.store(0),
        },
        Step {
            name: "repo.reinsert",
            enabled: always,
            run: |s, _| {
                s.epoch.fetch_add(1);
                s.incarnation.fetch_add(1);
            },
        },
        Step {
            name: "repo.record3",
            enabled: always,
            run: |s, _| {
                s.generation.fetch_add(1);
            },
        },
        Step {
            name: "repo.record4",
            enabled: always,
            run: |s, _| {
                s.generation.fetch_add(1);
            },
        },
    ];

    Model {
        name,
        init: if key_includes_epoch {
            || RepoState {
                epoch: ShadowAtomicU64::new(7),
                generation: ShadowAtomicU64::new(0),
                incarnation: ShadowAtomicU64::new(0),
                key_includes_epoch: true,
                cached: None,
                violation: None,
            }
        } else {
            || RepoState {
                epoch: ShadowAtomicU64::new(7),
                generation: ShadowAtomicU64::new(0),
                incarnation: ShadowAtomicU64::new(0),
                key_includes_epoch: false,
                cached: None,
                violation: None,
            }
        },
        threads: vec![cache, membership],
        invariant,
    }
}

/// Epoch-keyed repository cache model (the shipped design). Must pass.
pub fn repository_epoch_model() -> Model<RepoState> {
    repo_model(true, "repository-record-vs-remove-epoch")
}

/// Generation-only cache key (no epoch): the ABA bug the epoch prevents.
/// Exists to prove the checker catches it.
pub fn repository_no_epoch_model() -> Model<RepoState> {
    repo_model(false, "repository-no-epoch-aba")
}

// ---------------------------------------------------------------------------
// Model 3: gateway handler — publish on plan vs ingestion.
// ---------------------------------------------------------------------------

/// Shadow of the `TimingFaultHandler` snapshot pipeline as shipped:
/// ingestion only writes its shard and marks the view dirty; each planner
/// checks the flag lock-free, and if it is set takes the publish mutex,
/// harvests (re-checks and clears the flag, rebuilds from all shards),
/// installs through a version-guarded cell, unlocks, and then loads the
/// published pointer to plan.
#[derive(Clone)]
pub struct SnapshotState {
    /// Per-shard ingested sample counts (two ingestion shards).
    shard: [ShadowAtomicU64; 2],
    /// The "snapshot is stale" flag (`TimingFaultHandler::dirty`).
    dirty: ShadowAtomicU64,
    /// Serializes rebuild+install (`TimingFaultHandler::publish`).
    publish_lock: ShadowLock,
    /// Published snapshot: version and content (samples included).
    snap_version: ShadowAtomicU64,
    snap_content: ShadowAtomicU64,
    /// Whether install refuses `version <= current` (`SnapshotCell::publish`).
    version_guard: bool,
    /// Whether rebuild+install run under the publish mutex.
    use_mutex: bool,
    /// Per-thread: the planner's lock-free check found the view clean, so
    /// it plans without publishing.
    clean: [bool; 4],
    /// Per-thread scratch: the snapshot a planner built `(version,
    /// content)`; `None` when the re-check said someone else published.
    built: [Option<(u64, u64)>; 4],
    /// Per-thread "finished every step" flags.
    done: [bool; 4],
    /// The last `(version, content)` any planner loaded (loads are
    /// totally ordered, so a later load may never see an older version).
    planned: Option<(u64, u64)>,
    /// First violation observed by a planner or final-state check.
    violation: Option<String>,
}

fn snapshot_model_with(
    use_mutex: bool,
    version_guard: bool,
    name: &'static str,
) -> Model<SnapshotState> {
    fn init_guarded() -> SnapshotState {
        snapshot_init(true, true)
    }
    fn init_racy() -> SnapshotState {
        snapshot_init(false, false)
    }
    fn snapshot_init(use_mutex: bool, version_guard: bool) -> SnapshotState {
        SnapshotState {
            shard: [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
            dirty: ShadowAtomicU64::new(0),
            publish_lock: ShadowLock::new(),
            snap_version: ShadowAtomicU64::new(0),
            snap_content: ShadowAtomicU64::new(0),
            version_guard,
            use_mutex,
            clean: [false; 4],
            built: [None; 4],
            done: [false; 4],
            planned: None,
            violation: None,
        }
    }
    fn lock_gate(s: &SnapshotState, tid: usize) -> bool {
        s.clean[tid] || !s.use_mutex || s.publish_lock.can_acquire(tid)
    }
    fn always(_: &SnapshotState, _: usize) -> bool {
        true
    }
    fn invariant(s: &SnapshotState) -> Result<(), String> {
        if let Some(msg) = &s.violation {
            return Err(msg.clone());
        }
        if s.done.iter().all(|d| *d) && s.dirty.load() == 0 {
            let total = s.shard[0].load() + s.shard[1].load();
            let content = s.snap_content.load();
            if content != total {
                return Err(format!(
                    "published snapshot lost samples: contains {content}, shards hold {total}"
                ));
            }
        }
        Ok(())
    }

    // Each ingester mirrors `ingest`: write its shard and mark dirty (one
    // step — the shard mutex covers both). It never publishes.
    fn ingester() -> Vec<Step<SnapshotState>> {
        vec![Step {
            name: "ingest.write+dirty",
            enabled: always,
            run: |s, tid| {
                s.shard[tid].fetch_add(1);
                s.dirty.store(1);
                s.done[tid] = true;
            },
        }]
    }

    // A planner's view load, exactly like `plan_with` after its publish.
    // Versions must never regress, and one version must never expose two
    // different contents (stale-snapshot ABA).
    fn plan_load(s: &mut SnapshotState) {
        let seen = (s.snap_version.load(), s.snap_content.load());
        if let Some((pv, pc)) = s.planned {
            if seen.0 < pv {
                s.violation = Some(format!(
                    "snapshot version regressed: a plan saw v{pv}, a later one v{}",
                    seen.0
                ));
            } else if seen.0 == pv && seen.1 != pc {
                s.violation = Some(format!(
                    "stale-snapshot ABA: v{pv} observed with content {pc} and then {}",
                    seen.1
                ));
            }
        }
        s.planned = Some(seen);
    }

    // Each planner mirrors `plan_with` → `maybe_publish`: the lock-free
    // dirty check, then lock, harvest (re-check dirty, clear it, rebuild
    // from ALL shards at version current+1), install, unlock, load.
    fn planner() -> Vec<Step<SnapshotState>> {
        vec![
            Step {
                name: "plan.check",
                enabled: always,
                run: |s, tid| s.clean[tid] = s.dirty.load() == 0,
            },
            Step {
                name: "publish.lock",
                enabled: lock_gate,
                run: |s, tid| {
                    if !s.clean[tid] && s.use_mutex {
                        s.publish_lock.acquire(tid);
                    }
                },
            },
            Step {
                name: "publish.harvest",
                enabled: always,
                run: |s, tid| {
                    if s.clean[tid] || s.dirty.load() == 0 {
                        s.built[tid] = None; // nothing new, or already published
                    } else {
                        s.dirty.store(0);
                        let content = s.shard[0].load() + s.shard[1].load();
                        s.built[tid] = Some((s.snap_version.load() + 1, content));
                    }
                },
            },
            Step {
                name: "publish.install",
                enabled: always,
                run: |s, tid| {
                    if let Some((version, content)) = s.built[tid] {
                        if !s.version_guard || version > s.snap_version.load() {
                            s.snap_version.store(version);
                            s.snap_content.store(content);
                        }
                    }
                },
            },
            Step {
                name: "publish.unlock",
                enabled: always,
                run: |s, tid| {
                    if !s.clean[tid] && s.use_mutex {
                        s.publish_lock.release(tid);
                    }
                },
            },
            Step {
                name: "plan.load",
                enabled: always,
                run: |s, tid| {
                    plan_load(s);
                    s.done[tid] = true;
                },
            },
        ]
    }

    Model {
        name,
        init: if use_mutex && version_guard {
            init_guarded
        } else {
            init_racy
        },
        threads: vec![ingester(), ingester(), planner(), planner()],
        invariant,
    }
}

/// Snapshot publish-vs-plan model as shipped: planners publish, rebuilds
/// serialized by the publish mutex, installs guarded by the version check.
/// Must pass.
pub fn snapshot_publish_model() -> Model<SnapshotState> {
    snapshot_model_with(true, true, "gateway-snapshot-publish-vs-plan")
}

/// Deliberately broken publish path: no publish mutex and an unguarded
/// install, so a rebuild computed before a peer's sample can overwrite
/// the newer snapshot (lost update + same-version ABA). Exists to prove
/// the checker catches it.
pub fn snapshot_publish_racy_model() -> Model<SnapshotState> {
    snapshot_model_with(false, false, "gateway-snapshot-unserialized-publish")
}

// ---------------------------------------------------------------------------
// Model 4: gateway handler — first reply vs retry re-plan.
// ---------------------------------------------------------------------------

/// Shadow of the sharded pending-request table: an original attempt and a
/// retry attempt share an `answered` flag and a sibling group; replies
/// race the retry's insertion.
#[derive(Clone)]
pub struct PendingState {
    /// The shared `answered` CAS flag (0 = open, 1 = resolved).
    answered: ShadowAtomicU64,
    /// Pending-table entries: `[original, retry]`, 1 = present.
    pending: [ShadowAtomicU64; 2],
    /// Sibling group length: 1 until the retry registers itself.
    group_len: ShadowAtomicU64,
    /// First-reply deliveries to the caller.
    deliveries: ShadowAtomicU64,
    /// Whether the retry re-checks `answered` after inserting its entry.
    retry_rechecks: bool,
    /// Per-reply-thread scratch: whether this reply won the CAS.
    won: [bool; 2],
    /// Completion flags: `[reply0, retry, reply1]`.
    done: [bool; 3],
}

fn pending_model_with(
    retry_rechecks: bool,
    atomic_cas: bool,
    name: &'static str,
) -> Model<PendingState> {
    fn init_shipped() -> PendingState {
        pending_init(true)
    }
    fn init_no_recheck() -> PendingState {
        pending_init(false)
    }
    fn pending_init(retry_rechecks: bool) -> PendingState {
        PendingState {
            answered: ShadowAtomicU64::new(0),
            // The original attempt is already in flight; the retry entry
            // does not exist until the retry thread inserts it.
            pending: [ShadowAtomicU64::new(1), ShadowAtomicU64::new(0)],
            group_len: ShadowAtomicU64::new(1),
            deliveries: ShadowAtomicU64::new(0),
            retry_rechecks,
            won: [false, false],
            done: [false, false, false],
        }
    }
    fn always(_: &PendingState, _: usize) -> bool {
        true
    }
    fn invariant(s: &PendingState) -> Result<(), String> {
        if s.deliveries.load() > 1 {
            return Err("duplicate first-reply delivery".to_string());
        }
        if s.done[0] && s.done[1] && s.done[2] && s.answered.load() == 1 {
            if s.pending[0].load() != 0 || s.pending[1].load() != 0 {
                return Err(format!(
                    "lost pending entry: request resolved but table holds [{}, {}]",
                    s.pending[0].load(),
                    s.pending[1].load()
                ));
            }
            if s.deliveries.load() != 1 {
                return Err("resolved request was never delivered".to_string());
            }
        }
        Ok(())
    }

    /// The signature every pending-model step action shares.
    type PendingAction = fn(&mut PendingState, usize);

    /// A reply to attempt `attempt`, raced by everything else. With
    /// `atomic_cas` the claim is one indivisible compare-and-swap (the
    /// shipped `AtomicBool` CAS); without it the check and the mark are
    /// two separate steps — the classic TOCTOU bug.
    fn reply_thread(attempt: usize, atomic_cas: bool) -> Vec<Step<PendingState>> {
        let mut steps: Vec<Step<PendingState>> = Vec::new();
        let (claim, retire, finish): (PendingAction, PendingAction, PendingAction) = if attempt == 0
        {
            (
                |s, _| {
                    // Unknown seqs (entry absent) only mine perf data.
                    if s.pending[0].load() == 1 && s.answered.load() == 0 {
                        s.answered.store(1);
                        s.won[0] = true;
                    }
                },
                |s, _| {
                    if s.won[0] {
                        s.pending[0].store(0);
                        s.deliveries.fetch_add(1);
                    }
                },
                |s, _| {
                    if s.won[0] && s.group_len.load() == 2 {
                        s.pending[1].store(0);
                    }
                    s.done[0] = true;
                },
            )
        } else {
            (
                |s, _| {
                    if s.pending[1].load() == 1 && s.answered.load() == 0 {
                        s.answered.store(1);
                        s.won[1] = true;
                    }
                },
                |s, _| {
                    if s.won[1] {
                        s.pending[1].store(0);
                        s.deliveries.fetch_add(1);
                    }
                },
                |s, _| {
                    if s.won[1] {
                        s.pending[0].store(0);
                    }
                    s.done[2] = true;
                },
            )
        };
        if atomic_cas {
            steps.push(Step {
                name: "reply.cas",
                enabled: always,
                run: claim,
            });
        } else {
            // TOCTOU split: observe `answered`, then mark it, with a
            // window in between for the sibling reply to do the same.
            let (check, mark): (PendingAction, PendingAction) = if attempt == 0 {
                (
                    |s, _| {
                        s.won[0] = s.pending[0].load() == 1 && s.answered.load() == 0;
                    },
                    |s, _| {
                        if s.won[0] {
                            s.answered.store(1);
                        }
                    },
                )
            } else {
                (
                    |s, _| {
                        s.won[1] = s.pending[1].load() == 1 && s.answered.load() == 0;
                    },
                    |s, _| {
                        if s.won[1] {
                            s.answered.store(1);
                        }
                    },
                )
            };
            steps.push(Step {
                name: "reply.check",
                enabled: always,
                run: check,
            });
            steps.push(Step {
                name: "reply.mark",
                enabled: always,
                run: mark,
            });
        }
        steps.push(Step {
            name: "reply.deliver",
            enabled: always,
            run: retire,
        });
        steps.push(Step {
            name: "reply.retire_siblings",
            enabled: always,
            run: finish,
        });
        steps
    }

    // The client's timeout path: register the retry in the sibling group
    // *before* inserting its pending entry, then re-check `answered` so an
    // in-between first reply (whose retire-siblings pass ran too early to
    // see the new entry) cannot leak it.
    let retry: Vec<Step<PendingState>> = vec![
        Step {
            name: "retry.join_group",
            enabled: always,
            run: |s, _| s.group_len.store(2),
        },
        Step {
            name: "retry.insert",
            enabled: always,
            run: |s, _| s.pending[1].store(1),
        },
        Step {
            name: "retry.recheck",
            enabled: always,
            run: |s, _| {
                if s.retry_rechecks && s.answered.load() == 1 {
                    s.pending[1].store(0); // self-retire: lost the race
                }
                s.done[1] = true;
            },
        },
    ];

    Model {
        name,
        init: if retry_rechecks {
            init_shipped
        } else {
            init_no_recheck
        },
        threads: vec![
            reply_thread(0, atomic_cas),
            retry,
            reply_thread(1, atomic_cas),
        ],
        invariant,
    }
}

/// Reply-vs-retry model as shipped: atomic CAS claim plus the retry's
/// post-insert re-check. Must pass.
pub fn pending_retry_model() -> Model<PendingState> {
    pending_model_with(true, true, "gateway-reply-vs-retry")
}

/// Deliberately broken retry: no post-insert re-check, so a first reply
/// that retired siblings before the insert leaks the retry's pending
/// entry forever. Exists to prove the checker catches it.
pub fn pending_retry_no_recheck_model() -> Model<PendingState> {
    pending_model_with(false, true, "gateway-retry-missing-recheck")
}

/// Deliberately broken reply claim: check-then-mark instead of one CAS,
/// so two replies can both think they are first and deliver twice.
/// Exists to prove the checker catches it.
pub fn pending_retry_toctou_model() -> Model<PendingState> {
    pending_model_with(true, false, "gateway-reply-toctou-claim")
}

// ---------------------------------------------------------------------------
// Model 5: socket runtime reactor — self-pipe wake coalescing.
// ---------------------------------------------------------------------------

/// Shadow of the reactor's wake path (`reactor.rs`): submitters enqueue
/// into per-connection outboxes and poke the self-pipe, coalescing pokes
/// through `wake_pending` (`swap(true, AcqRel)` — only the 0→1 transition
/// writes a wake byte). Each loop round polls, and on a wake drains every
/// pipe byte, clears the flag, then harvests, as four separate steps. A
/// poke coalesced away (flag already set) is covered by the harvest that
/// follows the clear; a poke after the clear writes a byte the drain can
/// no longer swallow, so the *next* poll round sees it. Each sender sends
/// twice, so a flag left set over an empty pipe strands the second send.
#[derive(Clone)]
pub struct WakeState {
    /// The wake-coalescing flag (`Reactor::wake_pending`).
    wake_pending: ShadowAtomicU64,
    /// Bytes readable from the self-pipe (poll readiness while non-zero).
    pipe: ShadowAtomicU64,
    /// Enqueued-but-unharvested submissions across all outboxes.
    dirty: ShadowAtomicU64,
    /// Submissions the loop has flushed to sockets.
    flushed: ShadowAtomicU64,
    /// Whether the current poll round observed a wake.
    woke: bool,
    /// Completion flags: `[sender0, sender1, reactor]`.
    done: [bool; 3],
}

fn wake_model_with(drain_before_clear: bool, name: &'static str) -> Model<WakeState> {
    fn init() -> WakeState {
        WakeState {
            wake_pending: ShadowAtomicU64::new(0),
            pipe: ShadowAtomicU64::new(0),
            dirty: ShadowAtomicU64::new(0),
            flushed: ShadowAtomicU64::new(0),
            woke: false,
            done: [false, false, false],
        }
    }
    fn step(name: &'static str, run: fn(&mut WakeState, usize)) -> Step<WakeState> {
        fn always(_: &WakeState, _: usize) -> bool {
            true
        }
        Step {
            name,
            enabled: always,
            run,
        }
    }
    fn invariant(s: &WakeState) -> Result<(), String> {
        // Once every thread has parked, unharvested work must have a wake
        // byte pending — otherwise the reactor sleeps on it until the
        // poll timeout.
        if s.done[0] && s.done[1] && s.done[2] && s.dirty.load() > 0 && s.pipe.load() == 0 {
            return Err(format!(
                "lost wakeup: {} dirty item(s) with an empty self-pipe; the parked reactor never flushes them",
                s.dirty.load()
            ));
        }
        Ok(())
    }
    fn enqueue(s: &mut WakeState, _: usize) {
        s.dirty.fetch_add(1);
    }
    fn wake(s: &mut WakeState, _: usize) {
        // `wake_pending.swap(true, AcqRel)` — one indivisible RMW; only
        // the 0→1 edge writes a pipe byte.
        let prev = s.wake_pending.load();
        s.wake_pending.store(1);
        if prev == 0 {
            s.pipe.fetch_add(1);
        }
    }
    fn sender() -> Vec<Step<WakeState>> {
        vec![
            step("send.enqueue", enqueue),
            step("send.wake", wake),
            step("send.enqueue", enqueue),
            step("send.wake", |s, tid| {
                wake(s, tid);
                s.done[tid] = true;
            }),
        ]
    }
    fn poll(s: &mut WakeState, _: usize) {
        s.woke = s.pipe.load() > 0;
    }
    fn drain(s: &mut WakeState, _: usize) {
        if s.woke {
            s.pipe.store(0);
        }
    }
    fn clear(s: &mut WakeState, _: usize) {
        if s.woke {
            s.wake_pending.store(0);
        }
    }
    fn harvest(s: &mut WakeState, _: usize) {
        if s.woke {
            let n = s.dirty.load();
            s.dirty.store(0);
            s.flushed.fetch_add(n);
        }
    }

    // Two poll rounds, then park. The shipped order drains before it
    // clears; the buggy variant clears first, so a poke landing between
    // the clear and the drain has its byte swallowed and leaves the flag
    // set over an empty pipe — every later poke is coalesced away.
    let mut reactor: Vec<Step<WakeState>> = Vec::new();
    for _ in 0..2 {
        reactor.push(step("loop.poll", poll));
        if drain_before_clear {
            reactor.push(step("loop.drain", drain));
            reactor.push(step("loop.clear_flag", clear));
        } else {
            reactor.push(step("loop.clear_flag", clear));
            reactor.push(step("loop.drain", drain));
        }
        reactor.push(step("loop.harvest+flush", harvest));
    }
    reactor.push(step("loop.park", |s, tid| s.done[tid] = true));

    Model {
        name,
        init,
        threads: vec![sender(), sender(), reactor],
        invariant,
    }
}

/// Reactor wake-coalescing model as shipped: the loop drains the pipe,
/// *then* clears `wake_pending`, then harvests outboxes. Must pass.
pub fn reactor_wake_model() -> Model<WakeState> {
    wake_model_with(true, "reactor-wake-coalescing")
}

/// The earlier loop order: clear the flag, then drain the pipe, so a
/// poke between the two loses its byte and strands the flag. Exists to
/// prove the checker catches the lost wakeup.
pub fn reactor_lost_wakeup_model() -> Model<WakeState> {
    wake_model_with(false, "reactor-lost-wakeup")
}

// ---------------------------------------------------------------------------
// Model 6: socket runtime mux — reply routing across the handle/seq split.
// ---------------------------------------------------------------------------

/// Mirrors `mux.rs`: wire seqs are 24 bits of handle id over 40 bits of
/// handle-local sequence.
const MUX_HANDLE_SHIFT: u32 = 40;
const MUX_SEQ_MASK: u64 = (1 << MUX_HANDLE_SHIFT) - 1;

/// Shadow of the mux pool's reply routing: two logical handles each park
/// waiters on handle-local seqs, the reader thread routes wire replies
/// back by splitting the wire seq, and the deadline path gives up on
/// un-replied attempts concurrently.
#[derive(Clone)]
pub struct MuxState {
    /// `waiters[handle][local]`: 1 = a caller is parked on this attempt.
    waiters: [[ShadowAtomicU64; 2]; 2],
    /// Wire replies awaiting routing: `(wire_seq, origin_handle)`.
    outbox: Vec<(u64, u64)>,
    /// Router cursor into `outbox` (replies route in arrival order).
    routed: usize,
    delivered: ShadowAtomicU64,
    dropped: ShadowAtomicU64,
    /// Replies that resolved a waiter of a different handle.
    crossed: ShadowAtomicU64,
    /// Whether wire seqs carry the handle in the top 24 bits (the fix).
    split_compose: bool,
    /// Completion flags: `[caller0, caller1, router]`.
    done: [bool; 3],
}

fn mux_register(s: &mut MuxState, tid: usize, local: u64) {
    let h = tid as u64;
    s.waiters[tid][local as usize].store(1);
    let wire = if s.split_compose {
        (h << MUX_HANDLE_SHIFT) | local
    } else {
        local // collision: both handles emit bare local counters
    };
    s.outbox.push((wire, h));
}

fn mux_model_with(split_compose: bool, name: &'static str) -> Model<MuxState> {
    fn init_split() -> MuxState {
        mux_init(true)
    }
    fn init_collision() -> MuxState {
        mux_init(false)
    }
    fn mux_init(split_compose: bool) -> MuxState {
        MuxState {
            waiters: [
                [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
                [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
            ],
            outbox: Vec::new(),
            routed: 0,
            delivered: ShadowAtomicU64::new(0),
            dropped: ShadowAtomicU64::new(0),
            crossed: ShadowAtomicU64::new(0),
            split_compose,
            done: [false, false, false],
        }
    }
    fn always(_: &MuxState, _: usize) -> bool {
        true
    }
    fn invariant(s: &MuxState) -> Result<(), String> {
        if s.crossed.load() > 0 {
            return Err(
                "cross-handle delivery: a reply escaped its 24-bit handle namespace and resolved another handle's waiter"
                    .to_string(),
            );
        }
        if s.done[0] && s.done[1] && s.done[2] {
            let routed = s.delivered.load() + s.dropped.load();
            if routed != 4 {
                return Err(format!("router parked with {routed} of 4 replies routed"));
            }
            for (h, row) in s.waiters.iter().enumerate() {
                for (l, w) in row.iter().enumerate() {
                    if w.load() == 1 {
                        return Err(format!(
                            "parked caller never resolved: handle {h} attempt {l} still waiting"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
    fn caller() -> Vec<Step<MuxState>> {
        vec![
            Step {
                name: "call.register(local=0)",
                enabled: always,
                run: |s, tid| mux_register(s, tid, 0),
            },
            Step {
                name: "call.register(local=1)",
                enabled: always,
                run: |s, tid| mux_register(s, tid, 1),
            },
            Step {
                name: "call.give_up",
                enabled: always,
                run: |s, tid| {
                    // Caller h abandons attempt local == h if still
                    // un-replied (the deadline path retiring its own
                    // pending entry); the reply then routes to nobody.
                    if s.waiters[tid][tid].load() == 1 {
                        s.waiters[tid][tid].store(0);
                    }
                    s.done[tid] = true;
                },
            },
        ]
    }
    fn route_enabled(s: &MuxState, _: usize) -> bool {
        s.outbox.len() > s.routed
    }
    fn route(s: &mut MuxState, _: usize) {
        let (wire, origin) = s.outbox[s.routed];
        s.routed += 1;
        let hid = (wire >> MUX_HANDLE_SHIFT) as usize;
        let local = (wire & MUX_SEQ_MASK) as usize;
        if hid < 2 && local < 2 && s.waiters[hid][local].load() == 1 {
            s.waiters[hid][local].store(0);
            s.delivered.fetch_add(1);
            if hid as u64 != origin {
                s.crossed.fetch_add(1);
            }
        } else {
            s.dropped.fetch_add(1);
        }
    }

    // The router drains all four replies in arrival order, each gated on
    // the reply actually having been sent, then parks.
    let mut router: Vec<Step<MuxState>> = Vec::new();
    for _ in 0..4 {
        router.push(Step {
            name: "route.next",
            enabled: route_enabled,
            run: route,
        });
    }
    router.push(Step {
        name: "route.park",
        enabled: always,
        run: |s, tid| s.done[tid] = true,
    });

    Model {
        name,
        init: if split_compose {
            init_split
        } else {
            init_collision
        },
        threads: vec![caller(), caller(), router],
        invariant,
    }
}

/// Mux reply-routing model as shipped: wire seqs carry the handle id in
/// the top 24 bits, so routing is collision-free. Must pass.
pub fn mux_reply_model() -> Model<MuxState> {
    mux_model_with(true, "mux-reply-routing")
}

/// Deliberately broken compose: wire seqs are the bare handle-local
/// counter, so two handles collide and a reply resolves the wrong
/// caller's waiter (and the right caller parks forever). Exists to prove
/// the checker catches it.
pub fn mux_seq_collision_model() -> Model<MuxState> {
    mux_model_with(false, "mux-seq-collision")
}

// ---------------------------------------------------------------------------
// Model 7: sharded DES — conservative time-window barrier lookahead.
// ---------------------------------------------------------------------------

/// Shard A's pending event time in the barrier model.
const SHARD_A_EVENT: u64 = 10;
/// Shard B's pending local event time.
const SHARD_B_LOCAL: u64 = 15;
/// The topology lookahead: minimum cross-shard one-way delay.
const SHARD_LOOKAHEAD: u64 = 5;

/// Shadow of the sharded simulator's round protocol (`sharded.rs`): each
/// worker shard publishes its next pending event time, the leader
/// computes the round horizon from the global minimum `T` and the
/// topology lookahead `L`, each shard executes exactly the events inside
/// the inclusive window `[T, horizon]`, and cross-shard sends stage in an
/// outbox that distributes at the barrier — arriving at send-time + `L`.
/// An obs scrape reads the per-shard event counters lock-free throughout,
/// exactly like `export_obs` against a running simulation.
#[derive(Clone)]
pub struct ShardBarrierState {
    /// Window end rule: `T + L − 1` as shipped, `T + L` in the buggy
    /// variant.
    off_by_one: bool,
    /// Published next-event times (0 = not yet published this round).
    next: [ShadowAtomicU64; 2],
    /// Round horizon the leader computed (0 = unset).
    horizon: ShadowAtomicU64,
    /// Shard A's pending event time (0 = consumed).
    a_event: ShadowAtomicU64,
    /// Shard B's pending local event time (0 = consumed).
    b_local: ShadowAtomicU64,
    /// Cross-shard arrival staged by A until the barrier.
    outbox_a: ShadowAtomicU64,
    /// B's post-barrier inbox (0 = empty).
    inbox_b: ShadowAtomicU64,
    /// Per-shard executed-event counters (what the scrape reads).
    events: [ShadowAtomicU64; 2],
    /// Window end each shard has fully executed (0 = none yet).
    closed: [ShadowAtomicU64; 2],
    /// Scrape scratch: last counter sum observed.
    scraped: Option<u64>,
    /// First violation observed (causality at drain, or a counter that
    /// ran backwards under the scrape).
    violation: Option<String>,
}

fn shard_barrier_model_with(off_by_one: bool, name: &'static str) -> Model<ShardBarrierState> {
    fn init_shipped() -> ShardBarrierState {
        shard_init(false)
    }
    fn init_off_by_one() -> ShardBarrierState {
        shard_init(true)
    }
    fn shard_init(off_by_one: bool) -> ShardBarrierState {
        ShardBarrierState {
            off_by_one,
            next: [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
            horizon: ShadowAtomicU64::new(0),
            a_event: ShadowAtomicU64::new(SHARD_A_EVENT),
            b_local: ShadowAtomicU64::new(SHARD_B_LOCAL),
            outbox_a: ShadowAtomicU64::new(0),
            inbox_b: ShadowAtomicU64::new(0),
            events: [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
            closed: [ShadowAtomicU64::new(0), ShadowAtomicU64::new(0)],
            scraped: None,
            violation: None,
        }
    }
    fn always(_: &ShardBarrierState, _: usize) -> bool {
        true
    }
    fn both_published(s: &ShardBarrierState, _: usize) -> bool {
        s.next[0].load() != 0 && s.next[1].load() != 0
    }
    fn horizon_set(s: &ShardBarrierState, _: usize) -> bool {
        s.horizon.load() != 0
    }
    fn peer_window_closed(s: &ShardBarrierState, _: usize) -> bool {
        s.closed[1].load() != 0
    }
    fn inbox_ready(s: &ShardBarrierState, _: usize) -> bool {
        s.inbox_b.load() != 0
    }
    fn invariant(s: &ShardBarrierState) -> Result<(), String> {
        match &s.violation {
            Some(msg) => Err(msg.clone()),
            None => Ok(()),
        }
    }
    fn scrape(s: &mut ShardBarrierState, _: usize) {
        let sum = s.events[0].load() + s.events[1].load();
        if let Some(prev) = s.scraped {
            if sum < prev {
                s.violation = Some(format!("event counter ran backwards: {prev} then {sum}"));
            }
        }
        s.scraped = Some(sum);
    }

    // Shard A — the round leader: publish, compute the horizon once both
    // shards have published, execute its in-window event (staging the
    // cross-shard send in the outbox), then distribute at the barrier.
    let shard_a: Vec<Step<ShardBarrierState>> = vec![
        Step {
            name: "a.publish_next",
            enabled: always,
            run: |s, _| s.next[0].store(s.a_event.load()),
        },
        Step {
            name: "a.lead_horizon",
            enabled: both_published,
            run: |s, _| {
                let t = s.next[0].load().min(s.next[1].load());
                let end = t + SHARD_LOOKAHEAD - if s.off_by_one { 0 } else { 1 };
                s.horizon.store(end);
            },
        },
        Step {
            name: "a.exec_window",
            enabled: horizon_set,
            run: |s, _| {
                let h = s.horizon.load();
                let at = s.a_event.load();
                if at != 0 && at <= h {
                    s.a_event.store(0);
                    s.events[0].fetch_add(1);
                    s.outbox_a.store(at + SHARD_LOOKAHEAD);
                }
                s.closed[0].store(h);
            },
        },
        Step {
            name: "a.barrier_distribute",
            enabled: peer_window_closed,
            run: |s, _| {
                let arrival = s.outbox_a.load();
                if arrival != 0 {
                    s.outbox_a.store(0);
                    s.inbox_b.store(arrival);
                }
            },
        },
    ];

    // Shard B — a follower: publish, execute whatever of its queue falls
    // inside the leader's window, then drain the barrier inbox. A drained
    // arrival at or before the window it just closed is an event executed
    // out of timestamp order — the committed window can no longer admit
    // it at its proper place in the merged history.
    let shard_b: Vec<Step<ShardBarrierState>> = vec![
        Step {
            name: "b.publish_next",
            enabled: always,
            run: |s, _| s.next[1].store(s.b_local.load()),
        },
        Step {
            name: "b.exec_window",
            enabled: horizon_set,
            run: |s, _| {
                let h = s.horizon.load();
                let at = s.b_local.load();
                if at != 0 && at <= h {
                    s.b_local.store(0);
                    s.events[1].fetch_add(1);
                }
                s.closed[1].store(h);
            },
        },
        Step {
            name: "b.drain_inbox",
            enabled: inbox_ready,
            run: |s, _| {
                let arrival = s.inbox_b.load();
                s.inbox_b.store(0);
                let closed = s.closed[1].load();
                if arrival <= closed {
                    s.violation = Some(format!(
                        "causality violation: cross-shard arrival at t={arrival} lands inside \
                         a window already closed at t={closed}"
                    ));
                }
            },
        },
    ];

    // The obs scrape: five lock-free counter reads racing the round.
    let scraper: Vec<Step<ShardBarrierState>> = (0..5)
        .map(|_| Step {
            name: "scrape.read_counters",
            enabled: always,
            run: scrape,
        })
        .collect();

    Model {
        name,
        init: if off_by_one {
            init_off_by_one
        } else {
            init_shipped
        },
        threads: vec![shard_a, shard_b, scraper],
        invariant,
    }
}

/// Time-window barrier model as shipped: the inclusive window end is
/// `min(next) + L − 1`, so a cross-shard send from inside the window
/// arrives strictly after it. Must pass.
pub fn shard_barrier_model() -> Model<ShardBarrierState> {
    shard_barrier_model_with(false, "sim-shard-window-barrier")
}

/// Deliberately broken window end `min(next) + L`: shard B executes its
/// local `t = T + L` event and closes the window, then the barrier
/// delivers a cross-shard arrival at exactly `T + L` — into a window
/// that already committed. Exists to prove the checker catches the
/// off-by-one.
pub fn shard_barrier_off_by_one_model() -> Model<ShardBarrierState> {
    shard_barrier_model_with(true, "sim-shard-lookahead-off-by-one")
}

/// Run the shipped models; returns `(name, exploration)` pairs.
pub fn run_all() -> Vec<(&'static str, Exploration)> {
    vec![
        (
            "obs-registry-register-vs-scrape",
            explore(&registry_scrape_model()),
        ),
        (
            "repository-record-vs-remove-epoch",
            explore(&repository_epoch_model()),
        ),
        (
            "gateway-snapshot-publish-vs-plan",
            explore(&snapshot_publish_model()),
        ),
        ("gateway-reply-vs-retry", explore(&pending_retry_model())),
        ("reactor-wake-coalescing", explore(&reactor_wake_model())),
        ("mux-reply-routing", explore(&mux_reply_model())),
        ("sim-shard-window-barrier", explore(&shard_barrier_model())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_model_passes_exhaustively() {
        let e = explore(&registry_scrape_model());
        assert!(e.passed(), "violations: {:?}", e.violations);
        // 8 + 9 steps across two threads, 4 of each serialized by the
        // registry lock: 2002 feasible interleavings.
        assert_eq!(e.schedules, 2002);
        assert!(e.schedules >= 1000);
    }

    #[test]
    fn buggy_registry_read_order_is_caught() {
        let e = explore(&registry_scrape_buggy_model());
        assert!(
            !e.violations.is_empty(),
            "flipped read order must surface bucket > count"
        );
        assert!(e.violations[0].1.contains("bucket"));
    }

    #[test]
    fn repository_epoch_model_passes_exhaustively() {
        let e = explore(&repository_epoch_model());
        assert!(e.passed(), "violations: {:?}", e.violations);
        // 7 + 6 steps: C(13, 6) = 1716 interleavings.
        assert_eq!(e.schedules, 1716);
        assert!(e.schedules >= 1000);
    }

    #[test]
    fn generation_only_key_hits_the_aba_bug() {
        let e = explore(&repository_no_epoch_model());
        assert!(
            !e.violations.is_empty(),
            "dropping the epoch from the key must reintroduce the ABA race"
        );
        assert!(e.violations[0].1.contains("stale cache hit"));
    }

    #[test]
    fn snapshot_publish_model_passes_exhaustively() {
        let e = explore(&snapshot_publish_model());
        assert!(e.passed(), "violations: {:?}", e.violations);
        // Two 1-step ingesters and two 6-step planners, the publish mutex
        // serializing the planners' rebuild/install windows: 149,128
        // feasible interleavings.
        assert_eq!(e.schedules, 149_128);
    }

    #[test]
    fn unserialized_publish_loses_an_update() {
        let e = explore(&snapshot_publish_racy_model());
        assert!(
            !e.violations.is_empty(),
            "dropping the publish mutex and version guard must lose a sample"
        );
        assert!(
            e.violations
                .iter()
                .any(|(_, msg)| msg.contains("lost samples")
                    || msg.contains("ABA")
                    || msg.contains("regressed")),
            "violations: {:?}",
            e.violations
        );
    }

    #[test]
    fn pending_retry_model_passes_exhaustively() {
        let e = explore(&pending_retry_model());
        assert!(e.passed(), "violations: {:?}", e.violations);
        assert!(e.schedules >= 1000, "schedules: {}", e.schedules);
    }

    #[test]
    fn missing_retry_recheck_leaks_a_pending_entry() {
        let e = explore(&pending_retry_no_recheck_model());
        assert!(
            !e.violations.is_empty(),
            "dropping the post-insert re-check must leak the retry's entry"
        );
        assert!(
            e.violations
                .iter()
                .any(|(_, msg)| msg.contains("lost pending entry")),
            "violations: {:?}",
            e.violations
        );
    }

    #[test]
    fn toctou_reply_claim_delivers_twice() {
        let e = explore(&pending_retry_toctou_model());
        assert!(
            !e.violations.is_empty(),
            "splitting the CAS into check+mark must double-deliver"
        );
        assert!(
            e.violations
                .iter()
                .any(|(_, msg)| msg.contains("duplicate first-reply delivery")),
            "violations: {:?}",
            e.violations
        );
    }

    #[test]
    fn reactor_wake_model_passes_exhaustively() {
        let e = explore(&reactor_wake_model());
        assert!(e.passed(), "violations: {:?}", e.violations);
        // 4 + 4 + 9 always-enabled steps: 17!/(4!·4!·9!) = 1701700
        // interleavings.
        assert_eq!(e.schedules, 1_701_700);
        assert!(e.schedules >= 1000);
    }

    #[test]
    fn lost_wakeup_variant_is_caught() {
        let e = explore(&reactor_lost_wakeup_model());
        assert!(
            !e.violations.is_empty(),
            "clearing the flag before draining the pipe must lose a wakeup"
        );
        assert!(
            e.violations
                .iter()
                .any(|(_, msg)| msg.contains("lost wakeup")),
            "violations: {:?}",
            e.violations
        );
    }

    #[test]
    fn mux_reply_model_passes_exhaustively() {
        let e = explore(&mux_reply_model());
        assert!(e.passed(), "violations: {:?}", e.violations);
        // 3 + 3 + 5 steps with each route gated on its reply having been
        // sent: 2554 feasible interleavings.
        assert_eq!(e.schedules, 2554);
        assert!(e.schedules >= 1000);
    }

    #[test]
    fn seq_collision_variant_is_caught() {
        let e = explore(&mux_seq_collision_model());
        assert!(
            !e.violations.is_empty(),
            "dropping the handle bits from wire seqs must misroute a reply"
        );
        assert!(
            e.violations.iter().any(|(_, msg)| msg.contains("handle")),
            "violations: {:?}",
            e.violations
        );
    }

    #[test]
    fn shard_barrier_model_passes_exhaustively() {
        let e = explore(&shard_barrier_model());
        assert!(e.passed(), "violations: {:?}", e.violations);
        assert!(e.schedules >= 1000, "schedules: {}", e.schedules);
    }

    #[test]
    fn lookahead_off_by_one_is_caught() {
        let e = explore(&shard_barrier_off_by_one_model());
        assert!(
            !e.violations.is_empty(),
            "widening the window to T + L must deliver into a closed window"
        );
        assert!(
            e.violations
                .iter()
                .any(|(_, msg)| msg.contains("causality violation")),
            "violations: {:?}",
            e.violations
        );
    }

    #[test]
    fn run_all_covers_the_shipped_models() {
        let results = run_all();
        assert_eq!(results.len(), 7);
        for (name, e) in &results {
            assert!(e.passed(), "{name} failed: {:?}", e.violations);
        }
    }

    #[test]
    fn lock_steps_gate_on_the_holder() {
        // A model where both threads only lock/unlock can never deadlock
        // and never runs a critical section concurrently.
        let e = explore(&registry_scrape_model());
        assert_eq!(e.deadlocks, 0);
    }
}
