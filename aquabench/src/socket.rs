//! The two socket workloads: replica servers and one `MuxPool` on
//! loopback, driven by a closed loop (`mux_closed`) or by a fixed arrival
//! schedule (`mux_paced`).

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration as StdDuration, Instant};

use aqua_core::model::ModelConfig;
use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::MethodId;
use aqua_core::select::{select_replicas_tolerating, Candidate};
use aqua_core::snapshot::method_slot;
use aqua_core::time::Duration;
use aqua_obs::metrics::MetricsSnapshot;
use aqua_obs::Obs;
use aqua_replica::ServiceTimeModel;
use aqua_runtime::{
    CallError, MuxHandle, MuxPool, MuxPoolConfig, ReplicaServer, ReplicaServerConfig,
};
use aqua_strategies::ModelBased;

use crate::util::{self, mix, quantile, ratio, secs};
use crate::Pass;

/// A call at least this long waited out the reactor's `epoll_wait`
/// timeout: a transport stall.
const STALL: StdDuration = StdDuration::from_millis(100);
/// Set-up repetitions per run (the reported set-up time is their median).
const SETUPS: usize = 3;
/// Arrival rate of `mux_paced`: the paper's load scaled by 1/20.
const PACED_RATE: f64 = 150.0;
/// Longest warm-up a rig gets before it is rebuilt.
const WARM_UP_LIMIT: StdDuration = StdDuration::from_secs(3);
/// Plans timed per handle view for `core.plan_ns_*`.
const PLAN_SAMPLES: usize = 4096;
/// Latency quantiles are medians over windows of this many consecutive
/// calls, so that a burst of host noise moves one window rather than the
/// result; each window's p99 has ten calls beyond it.
const WINDOW_CALLS: usize = 1_000;

/// The shape of one socket workload.
struct Spec {
    name: &'static str,
    servers: u64,
    service: ServiceTimeModel,
    handles: usize,
    model: ModelConfig,
    qos: QosSpec,
    /// `None`: closed loop; `Some(rate)`: paced at `rate` calls/s.
    rate: Option<f64>,
}

fn qos() -> QosSpec {
    QosSpec::new(Duration::from_millis(10), 0.9).expect("valid constant spec")
}

fn closed_spec() -> Spec {
    Spec {
        name: "mux_closed",
        servers: 4,
        service: ServiceTimeModel::Deterministic(Duration::ZERO),
        handles: 64,
        model: ModelConfig::default(),
        qos: qos(),
        rate: None,
    }
}

fn paced_spec() -> Spec {
    Spec {
        name: "mux_paced",
        servers: 7,
        service: ServiceTimeModel::Normal {
            mean: Duration::from_millis(5),
            std_dev: Duration::from_micros(2_500),
            min: Duration::ZERO,
        },
        handles: 2,
        model: ModelConfig {
            bucket: Duration::from_micros(250),
            ..ModelConfig::default()
        },
        qos: qos(),
        rate: Some(PACED_RATE),
    }
}

/// One call as the benchmark saw it. Kept small (times saturate at
/// about 4.3 s), since the records count towards the peak RSS reported.
#[derive(Clone, Copy, Debug)]
struct Call {
    /// From issue (closed loop) or from the due time (paced) to the reply.
    latency_ns: u32,
    /// Time spent inside the call.
    busy_ns: u32,
    /// How late the generator issued the call (paced only).
    lag_ns: u32,
    /// When the call returned, in µs from the start of the load.
    done_us: u32,
    ok: bool,
    /// Replicas the call was sent to.
    redundancy: u8,
}

impl Call {
    /// When the call was due (paced) or issued (closed loop), in ns from
    /// the start of the load.
    fn start_ns(&self) -> u64 {
        (u64::from(self.done_us) * 1_000).saturating_sub(u64::from(self.latency_ns))
    }
}

fn sat(d: StdDuration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

fn sat_us(d: StdDuration) -> u32 {
    u32::try_from(d.as_micros()).unwrap_or(u32::MAX)
}

/// What a set of caller threads produced.
struct Load {
    calls: Vec<Call>,
    wall_s: f64,
    /// `(tid, CPU ns)` of each caller thread over its run.
    callers: Vec<(String, u64)>,
}

/// Servers, pool and handles of one socket workload. Fields drop in
/// order: handles, then the pool and its reactor, then the servers.
struct Rig {
    handles: Vec<MuxHandle>,
    _pool: MuxPool,
    servers: Vec<ReplicaServer>,
    /// Replicas addressed by every call made through the rig so far.
    issued: AtomicU64,
    /// Replies that did not echo their call's payload or came from no
    /// pool replica.
    bad_replies: AtomicU64,
}

impl Rig {
    fn build(spec: &Spec, seed: u64, obs: Option<&Obs>) -> Result<Rig, String> {
        let servers = (0..spec.servers)
            .map(|i| {
                ReplicaServer::spawn(ReplicaServerConfig {
                    replica: ReplicaId::new(i),
                    service: spec.service.clone(),
                    seed: mix(seed, 100 + i),
                    crash_after: None,
                    obs: obs.cloned(),
                    faults: None,
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{}: cannot spawn a replica server: {e}", spec.name))?;
        let addrs: Vec<_> = servers.iter().map(|s| (s.replica(), s.addr())).collect();
        let pool = MuxPool::connect(
            &addrs,
            MuxPoolConfig {
                id: 1,
                obs: obs.cloned(),
                ..MuxPoolConfig::new(spec.qos)
            },
        )
        .map_err(|e| format!("{}: cannot connect the pool: {e}", spec.name))?;
        let handles = (0..spec.handles)
            .map(|_| pool.handle(Box::new(ModelBased::new(spec.model))))
            .collect();
        Ok(Rig {
            handles,
            _pool: pool,
            servers,
            issued: AtomicU64::new(0),
            bad_replies: AtomicU64::new(0),
        })
    }

    /// One call on handle `h`; its payload carries `tag` and `h`, and the
    /// reply must echo it. Returns `(ok, redundancy)`.
    fn call(&self, h: usize, tag: u64) -> (bool, u8) {
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&tag.to_le_bytes());
        payload[8..].copy_from_slice(&(h as u64).to_le_bytes());
        let (ok, redundancy) = match self.handles[h].call(MethodId::DEFAULT, &payload) {
            Ok(out) => {
                if out.payload.as_ref() != payload
                    || out.replica.index() >= self.servers.len() as u64
                    || out.redundancy == 0
                {
                    self.bad_replies.fetch_add(1, Ordering::Relaxed);
                }
                (true, out.redundancy)
            }
            Err(CallError::GaveUp { redundancy }) => (false, redundancy),
            Err(_) => (false, 0),
        };
        self.issued.fetch_add(redundancy as u64, Ordering::Relaxed);
        (ok, u8::try_from(redundancy).unwrap_or(u8::MAX))
    }

    /// Calls every handle in turn until each has a warm model (the
    /// cold-start multicast of §5.4.1 is over). Gives up after
    /// [`WARM_UP_LIMIT`], which only a stuck reactor reaches.
    fn warm_up(&self) -> bool {
        let until = Instant::now() + WARM_UP_LIMIT;
        for round in 0.. {
            for h in 0..self.handles.len() {
                if Instant::now() >= until {
                    return false;
                }
                self.call(h, u64::MAX - round);
            }
            if self
                .handles
                .iter()
                .all(|h| h.with_handler(|x| x.planning_view().all_warm()))
            {
                return true;
            }
        }
        false
    }

    fn serviced(&self) -> u64 {
        self.servers.iter().map(ReplicaServer::serviced).sum()
    }

    /// Waits until the servers have serviced every request sent so far.
    fn drain(&self) -> bool {
        let until = Instant::now() + StdDuration::from_secs(3);
        while Instant::now() < until {
            if self.serviced() >= self.issued.load(Ordering::Relaxed) {
                return true;
            }
            std::thread::sleep(StdDuration::from_millis(1));
        }
        false
    }

    fn probe(&self, obs: Option<&Obs>) -> Probe {
        let mut probe = Probe {
            snap: obs.map(|o| o.registry().snapshot()).unwrap_or_default(),
            threads: util::threads(),
            serviced: self.serviced(),
            ..Probe::default()
        };
        for h in &self.handles {
            let (version, stats) = h.with_handler(|x| (x.planning_view().version(), x.stats()));
            probe.versions += version;
            probe.delivered += stats.delivered;
            probe.redundant += stats.redundant;
        }
        probe
    }

    /// Times Algorithm 1 (`F_Ri(t)` over every replica of the view, then
    /// the crash-tolerant subset selection) on each handle's live view.
    fn plan_ns(&self, spec: &Spec) -> Vec<f64> {
        let slot = method_slot(spec.model.method_scope, Some(MethodId::DEFAULT));
        let deadline = spec.qos.deadline();
        let samples = PLAN_SAMPLES / self.handles.len();
        let mut out = Vec::with_capacity(samples * self.handles.len());
        for h in &self.handles {
            let view = h.with_handler(|x| x.planning_view());
            let mut candidates = Vec::with_capacity(view.replicas().len());
            for _ in 0..samples {
                let t = Instant::now();
                candidates.clear();
                for snap in view.replicas() {
                    if let Some(p) = view.probability_by(snap.id(), slot, deadline) {
                        candidates.push(Candidate::new(snap.id(), p));
                    }
                }
                black_box(select_replicas_tolerating(
                    black_box(&candidates),
                    spec.qos.min_probability(),
                    1,
                ));
                out.push(t.elapsed().as_nanos() as f64);
            }
        }
        out
    }
}

/// Counters read before and after the measured window.
#[derive(Default)]
struct Probe {
    snap: MetricsSnapshot,
    threads: BTreeMap<String, (String, u64)>,
    serviced: u64,
    versions: u64,
    delivered: u64,
    redundant: u64,
}

/// Closed loop: each of `threads` callers takes its share of the handles
/// round-robin and calls the next as soon as the previous call returns.
fn closed_loop(rig: &Rig, threads: usize, seconds: f64) -> Load {
    let started = Instant::now();
    let until = started + StdDuration::from_secs_f64(seconds);
    let workers: Vec<_> = std::thread::scope(|s| {
        let spawned: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let cpu = util::own_cpu_ns();
                    let mine: Vec<usize> = (t..rig.handles.len()).step_by(threads).collect();
                    // Reserved up front (untouched pages cost no RSS), so
                    // growth does not copy the records.
                    let mut calls = Vec::with_capacity((seconds * 20_000.0) as usize);
                    for (tag, &h) in ((t as u64) << 48..).zip(mine.iter().cycle()) {
                        let began = Instant::now();
                        if began >= until {
                            break;
                        }
                        let (ok, redundancy) = rig.call(h, tag);
                        let busy = began.elapsed();
                        calls.push(Call {
                            latency_ns: sat(busy),
                            busy_ns: sat(busy),
                            lag_ns: 0,
                            done_us: sat_us(started.elapsed()),
                            ok,
                            redundancy,
                        });
                    }
                    (calls, util::own_tid(), util::own_cpu_ns() - cpu)
                })
            })
            .collect();
        spawned
            .into_iter()
            .map(|w| w.join().expect("caller thread panicked"))
            .collect()
    });
    collect(workers, secs(started))
}

fn collect(workers: Vec<(Vec<Call>, String, u64)>, wall_s: f64) -> Load {
    let mut load = Load {
        calls: Vec::new(),
        wall_s,
        callers: Vec::new(),
    };
    for (calls, tid, cpu) in workers {
        load.calls.extend(calls);
        load.callers.push((tid, cpu));
    }
    load
}

/// Open loop on a fixed schedule: call `i` is due `i / rate` seconds after
/// the start and is issued by thread `i mod threads`, which sleeps until
/// it is due or issues it at once when it is already late. Latency runs
/// from the due time, so a slow call also counts against the calls it
/// delays, and `lag_ns` records how late each call left.
fn paced_loop<F>(threads: usize, rate: f64, count: u64, call: F) -> Load
where
    F: Fn(usize, u64) -> (bool, u8) + Sync,
{
    let started = Instant::now() + StdDuration::from_millis(5);
    let workers: Vec<_> = std::thread::scope(|s| {
        let call = &call;
        let spawned: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let cpu = util::own_cpu_ns();
                    let mut calls = Vec::with_capacity(count as usize / threads + 1);
                    for i in (t as u64..count).step_by(threads) {
                        let due = started + StdDuration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let began = Instant::now();
                        let (ok, redundancy) = call(t, i);
                        let done = Instant::now();
                        calls.push(Call {
                            latency_ns: sat(done - due),
                            busy_ns: sat(done - began),
                            lag_ns: sat(began.saturating_duration_since(due)),
                            done_us: sat_us(done.saturating_duration_since(started)),
                            ok,
                            redundancy,
                        });
                    }
                    (calls, util::own_tid(), util::own_cpu_ns() - cpu)
                })
            })
            .collect();
        spawned
            .into_iter()
            .map(|w| w.join().expect("caller thread panicked"))
            .collect()
    });
    let wall_s = secs(started);
    collect(workers, wall_s)
}

/// Fills the end-to-end fields of `pass` from the calls of one load.
fn summarize(spec: &Spec, load: &Load, pass: &mut Pass) {
    let calls = &load.calls;
    let n = calls.len() as f64;
    pass.attempted = calls.len() as u64;
    pass.failed = calls.iter().filter(|c| !c.ok).count() as u64;
    pass.calls_per_s = (n - pass.failed as f64) / load.wall_s;
    let deadline_ns = u32::try_from(spec.qos.deadline().as_nanos()).unwrap_or(u32::MAX);
    let late = calls
        .iter()
        .filter(|c| !c.ok || c.latency_ns > deadline_ns)
        .count();
    pass.deadline_miss_share = ratio(late as f64, n);
    pass.failed_share = ratio(pass.failed as f64, n);
    let stall_ns = sat(STALL);
    let stalls = calls.iter().filter(|c| c.busy_ns >= stall_ns).count();
    pass.stall_share = ratio(stalls as f64, n);
    pass.replicas_per_call = ratio(
        calls.iter().map(|c| u64::from(c.redundancy)).sum::<u64>() as f64,
        n,
    );

    let mut ordered: Vec<&Call> = calls.iter().collect();
    ordered.sort_by_key(|c| c.start_ns());
    let latencies: Vec<f64> = ordered.iter().map(|c| f64::from(c.latency_ns)).collect();
    let chunks = (latencies.len() / WINDOW_CALLS).max(1);
    let size = latencies.len().div_ceil(chunks).max(1);
    let mut windows: Vec<Vec<f64>> = latencies.chunks(size).map(<[f64]>::to_vec).collect();
    let mut at = |q: f64| {
        let per: Vec<f64> = windows.iter_mut().filter_map(|w| quantile(w, q)).collect();
        util::median(&per) / 1e3
    };
    pass.latency_p50_us = at(0.5);
    pass.latency_p99_us = at(0.99);
}

pub fn mux_closed(seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    run(&closed_spec(), seed, seconds, traced)
}

pub fn mux_paced(seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    run(&paced_spec(), seed, seconds, traced)
}

fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let name = spec.name;
    let obs = traced.then(Obs::metrics_only);
    let mut pass = Pass::default();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut rig = None;
    let mut attempt = 0;
    while setups.len() < SETUPS {
        // The previous rig is torn down before the next is timed.
        drop(rig.take());
        attempt += 1;
        let t = Instant::now();
        let built = Rig::build(spec, mix(seed, attempt), obs.as_ref())?;
        let build_s = secs(t);
        if !(built.warm_up() && built.drain()) {
            if attempt > 2 * SETUPS as u64 {
                return Err(format!("{name}: no rig warmed up in {attempt} attempts"));
            }
            pass.notes.push(format!(
                "{name}: a rig did not warm up within {} s (a stuck reactor); rebuilt it",
                WARM_UP_LIMIT.as_secs()
            ));
            continue;
        }
        builds.push(build_s);
        setups.push(secs(t));
        rig = Some(built);
    }
    let rig = rig.expect("at least one set-up");
    pass.setup_s = util::median(&setups);
    pass.build_s = util::median(&builds);

    let threads = crate::cores();
    let before = rig.probe(obs.as_ref());
    let load = match spec.rate {
        None => closed_loop(&rig, threads, seconds),
        Some(rate) => {
            let count = (rate * seconds).round() as u64;
            paced_loop(threads, rate, count, |t, i| {
                rig.call(t % rig.handles.len(), i)
            })
        }
    };
    let drained = rig.drain();
    pass.peak_rss_mb = util::peak_rss_mb();
    pass.host_speed = util::host_speed();
    let after = rig.probe(obs.as_ref());
    check(spec, &rig, &load, &before, &after, drained, &mut pass);
    summarize(spec, &load, &mut pass);
    let stalls = (pass.stall_share * pass.attempted as f64).round();
    pass.notes.push(format!(
        "{name}: {} calls on {threads} caller thread(s) over {:.2} s, {} failed, {stalls} stalled >= {} ms",
        pass.attempted,
        load.wall_s,
        pass.failed,
        STALL.as_millis()
    ));
    if stalls > 0.0 {
        pass.notes.push(format!(
            "{name}: calls waited out the reactor's {} ms epoll_wait timeout: the reactor lost a wakeup (ROADMAP open item 2)",
            STALL.as_millis()
        ));
    }
    if traced {
        layers(spec, &rig, &load, &before, &after, &mut pass);
    }
    Ok(pass)
}

/// The output checks of one load: every reply echoed its call and came
/// from a pool replica, the servers serviced exactly the replicas the
/// calls selected, and the handlers delivered one first reply per
/// successful call.
fn check(
    spec: &Spec,
    rig: &Rig,
    load: &Load,
    before: &Probe,
    after: &Probe,
    drained: bool,
    pass: &mut Pass,
) {
    let name = spec.name;
    let ok = load.calls.iter().filter(|c| c.ok).count() as u64;
    let selected: u64 = load.calls.iter().map(|c| u64::from(c.redundancy)).sum();
    let serviced = after.serviced - before.serviced;
    let delivered = after.delivered - before.delivered;
    let bad = rig.bad_replies.load(Ordering::Relaxed);
    if bad > 0 {
        pass.errors.push(format!(
            "{name}: {bad} replies did not echo their call or came from outside the pool"
        ));
    }
    if !drained || serviced != selected {
        pass.errors.push(format!(
            "{name}: servers serviced {serviced} requests for {selected} selected replicas"
        ));
    }
    if delivered != ok {
        pass.errors.push(format!(
            "{name}: handlers delivered {delivered} first replies for {ok} successful calls"
        ));
    }
}

/// How late the generator issued its calls: the p99 of `lag_ns`, in µs.
fn gen_lag_p99_us(load: &Load) -> f64 {
    let mut lags: Vec<f64> = load.calls.iter().map(|c| f64::from(c.lag_ns)).collect();
    quantile(&mut lags, 0.99).unwrap_or(0.0) / 1e3
}

fn layers(spec: &Spec, rig: &Rig, load: &Load, before: &Probe, after: &Probe, pass: &mut Pass) {
    let calls = load.calls.len() as f64;
    let per_call = |v: u64| ratio(v as f64, calls);
    let counter = |name: &str, op: &str| {
        util::counter_with(&after.snap, name, ("op", op))
            - util::counter_with(&before.snap, name, ("op", op))
    };
    let histogram = |name: &str| {
        util::bucket_delta(
            &util::histogram_buckets(&after.snap, name),
            &util::histogram_buckets(&before.snap, name),
        )
    };
    let totals = |snap: &MetricsSnapshot, name: &str| {
        snap.histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .fold((0, 0), |(c, s), (_, h)| (c + h.count, s + h.sum))
    };
    let (writevs_after, frames_after) = totals(&after.snap, "aqua_net_writev_batch_frames");
    let (writevs_before, frames_before) = totals(&before.snap, "aqua_net_writev_batch_frames");
    let wire = |snap: &MetricsSnapshot| {
        util::counter_total(snap, "aqua_wire_bytes_sent_total")
            + util::counter_total(snap, "aqua_wire_bytes_received_total")
    };

    // CPU by thread: the reactor by name, the callers by their own
    // reading, and the servers as everything else but this thread.
    let cpu_delta = |tid: &str| {
        let (_, end) = &after.threads[tid];
        end - before.threads.get(tid).map_or(0, |(_, start)| *start)
    };
    let main = util::own_tid();
    let callers: BTreeSet<&str> = load.callers.iter().map(|(tid, _)| tid.as_str()).collect();
    let mut reactor_ns = 0;
    let mut server_ns = 0;
    for (tid, (name, _)) in &after.threads {
        if name == "aqua-reactor" {
            reactor_ns += cpu_delta(tid);
        } else if *tid != main && !callers.contains(tid.as_str()) {
            server_ns += cpu_delta(tid);
        }
    }
    let caller_ns: u64 = load.callers.iter().map(|(_, cpu)| cpu).sum();

    let queue = histogram("aqua_server_queue_ns");
    let service = histogram("aqua_server_service_ns");
    let service_p50_us = util::bucket_quantile(&service, 0.5) / 1e3;
    let expected_us = match spec.service {
        ServiceTimeModel::Normal { mean, .. } | ServiceTimeModel::Deterministic(mean) => {
            mean.as_nanos() as f64 / 1e3
        }
        _ => 0.0,
    };
    // Sleep overshoot and bucket rounding allow up to 1 ms above the
    // configured median and 10% below it.
    if service_p50_us > expected_us + 1_000.0 || service_p50_us < 0.9 * expected_us {
        pass.errors.push(format!(
            "{}: measured service p50 {service_p50_us:.0} µs does not match the configured {expected_us:.0} µs",
            spec.name
        ));
    }
    let mut plan = rig.plan_ns(spec);

    pass.layers.extend([
        ("core.plan_ns_p50", quantile(&mut plan, 0.5).unwrap_or(0.0)),
        ("core.plan_ns_p99", quantile(&mut plan, 0.99).unwrap_or(0.0)),
        (
            "gateway.view_versions_per_call",
            per_call(after.versions - before.versions),
        ),
        (
            "gateway.redundant_reply_share",
            ratio(
                (after.redundant - before.redundant) as f64,
                (after.redundant - before.redundant + after.delivered - before.delivered) as f64,
            ),
        ),
        (
            "runtime.reactor.cpu_us_per_call",
            per_call(reactor_ns) / 1e3,
        ),
        (
            "runtime.reactor.syscalls_per_call.read",
            per_call(counter("aqua_net_syscalls_total", "read")),
        ),
        (
            "runtime.reactor.syscalls_per_call.writev",
            per_call(counter("aqua_net_syscalls_total", "writev")),
        ),
        (
            "runtime.reactor.syscalls_per_call.epoll_wait",
            per_call(counter("aqua_net_syscalls_total", "epoll_wait")),
        ),
        (
            "runtime.reactor.frames_per_writev",
            ratio(
                (frames_after - frames_before) as f64,
                (writevs_after - writevs_before) as f64,
            ),
        ),
        (
            "runtime.mux.caller_cpu_us_per_call",
            per_call(caller_ns) / 1e3,
        ),
        (
            "runtime.wire.bytes_per_call",
            per_call(wire(&after.snap) - wire(&before.snap)),
        ),
        (
            "runtime.server.queue_us_p50",
            util::bucket_quantile(&queue, 0.5) / 1e3,
        ),
        (
            "runtime.server.queue_us_p99",
            util::bucket_quantile(&queue, 0.99) / 1e3,
        ),
        ("runtime.server.service_us_p50", service_p50_us),
        (
            "runtime.server.requests_per_call",
            per_call(after.serviced - before.serviced),
        ),
        ("runtime.server.cpu_us_per_call", per_call(server_ns) / 1e3),
    ]);
    if spec.rate.is_some() {
        pass.layers
            .insert("bench.gen_lag_p99_us", gen_lag_p99_us(load));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake call that sleeps 1 ms, except call 30 which sleeps 200 ms.
    /// The calls due during that sleep leave late, so the delay must show
    /// in `mux_paced`'s latency (timed from the due time) and in the
    /// generator lag, while timing only the calls themselves hides it.
    #[test]
    fn a_slow_call_shows_in_latency_from_due_time_and_in_generator_lag() {
        let spec = paced_spec();
        let run = |slow: StdDuration| {
            paced_loop(2, PACED_RATE, 300, |_, i| {
                std::thread::sleep(if i == 30 {
                    slow
                } else {
                    StdDuration::from_millis(1)
                });
                (true, 2)
            })
        };
        let stalled = run(StdDuration::from_millis(200));
        let mut pass = Pass::default();
        summarize(&spec, &stalled, &mut pass);
        assert_eq!(pass.attempted, 300);
        assert!(
            pass.latency_p99_us > 50_000.0,
            "p99 {} µs",
            pass.latency_p99_us
        );
        assert!(gen_lag_p99_us(&stalled) > 50_000.0);
        let mut busy: Vec<f64> = stalled.calls.iter().map(|c| f64::from(c.busy_ns)).collect();
        assert!(quantile(&mut busy, 0.99).unwrap() < 50e6);

        let steady = run(StdDuration::from_millis(1));
        let mut pass = Pass::default();
        summarize(&spec, &steady, &mut pass);
        assert!(
            pass.latency_p99_us < 50_000.0,
            "p99 {} µs",
            pass.latency_p99_us
        );
        assert!(gen_lag_p99_us(&steady) < 50_000.0);
    }
}
