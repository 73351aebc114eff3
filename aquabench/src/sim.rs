//! The two simulator workloads: the paper's §6 sweep on the sequential
//! engine, and the committed 10k-node WAN scenario on the sharded engine.

use std::hint::black_box;
use std::time::Instant;

use aqua_bench::paper_eval::{paper_deadlines, PAPER_PROBABILITIES};
use aqua_core::qos::QosSpec;
use aqua_core::time::{Duration, Instant as SimInstant};
use aqua_obs::Obs;
use aqua_workload::{
    run_experiment, run_experiment_observed, ExperimentConfig, ScaleClient, ScaleReplica, Scenario,
};
use lan_sim::NodeId;

use crate::util::{self, mix, quantile, ratio, secs, Fnv};
use crate::Pass;

/// Runs per cell of the 3 × 11 grid in one sweep. Every run has its own
/// seed, so the sweep's latency quantiles rest on independent samples.
const PAPER_RUNS: u64 = 6;
/// Set-up repetitions per run (the reported set-up time is their median;
/// one set-up takes a few milliseconds).
const SETUPS: usize = 9;

/// The committed geo-scale scenario, read from the checkout at run time.
const GEO_SCENARIO: &str = "examples/scenarios/geo_wan_10k.json";
/// What the committed scenario must produce with its own seed (the
/// sharded engine's digest is worker-count invariant).
const GEO_DIGEST: u64 = 0x1752_6e7d_5c21_543a;
const GEO_EVENTS: u64 = 2_085_661;
const GEO_REPLIES: u64 = 449_793;

/// One (Pc, deadline, seed) cell of the sweep.
struct Cell {
    pc: f64,
    config: ExperimentConfig,
}

/// What one full sweep produced.
#[derive(Default)]
struct Sweep {
    wall_s: f64,
    /// Host speed read right after the sweep.
    speed: f64,
    /// Requests of both clients.
    requests: u64,
    events: u64,
    digest: u64,
    /// Client-under-test response times (ns) of answered requests.
    latencies_ns: Vec<f64>,
    cut_requests: u64,
    cut_late: u64,
    cut_failed: u64,
    cut_replicas: u64,
    delivered: u64,
    redundant: u64,
    /// Per Pc series: (late, requests) of the client under test.
    series: Vec<(f64, u64, u64)>,
}

fn paper_cells(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for pc in PAPER_PROBABILITIES {
        for deadline in paper_deadlines() {
            for _ in 0..PAPER_RUNS {
                let qos = QosSpec::new(Duration::from_millis(deadline), pc)
                    .expect("sweep parameters are valid");
                let index = cells.len() as u64;
                cells.push(Cell {
                    pc,
                    config: ExperimentConfig::paper(qos, mix(seed, index)),
                });
            }
        }
    }
    cells
}

fn sweep(cells: &[Cell], obs: Option<&Obs>) -> Sweep {
    let started = Instant::now();
    let mut out = Sweep {
        series: PAPER_PROBABILITIES.iter().map(|pc| (*pc, 0, 0)).collect(),
        ..Sweep::default()
    };
    let mut digest = Fnv::new();
    for cell in cells {
        let report = run_experiment_observed(&cell.config, obs);
        out.events += report.events;
        for client in &report.clients {
            out.requests += client.records.len() as u64;
            for r in &client.records {
                digest.word(r.seq);
                digest.word(r.sent_at.as_nanos());
                digest.word(r.redundancy as u64);
                digest.word(r.response_time.map_or(u64::MAX, Duration::as_nanos));
                digest.word(u64::from(r.timely) | u64::from(r.callback) << 1);
            }
        }
        let cut = report.client_under_test();
        out.delivered += cut.stats.delivered;
        out.redundant += cut.stats.redundant;
        let late = cut.records.iter().filter(|r| !r.timely).count() as u64;
        out.cut_requests += cut.records.len() as u64;
        out.cut_late += late;
        out.cut_failed += cut
            .records
            .iter()
            .filter(|r| r.response_time.is_none())
            .count() as u64;
        out.cut_replicas += cut.records.iter().map(|r| r.redundancy as u64).sum::<u64>();
        out.latencies_ns.extend(
            cut.records
                .iter()
                .filter_map(|r| r.response_time.map(|d| d.as_nanos() as f64)),
        );
        let series = out
            .series
            .iter_mut()
            .find(|s| s.0 == cell.pc)
            .expect("cell Pc is a sweep probability");
        series.1 += late;
        series.2 += cut.records.len() as u64;
    }
    out.digest = digest.finish();
    out.wall_s = secs(started);
    out.speed = util::host_speed();
    out
}

/// `sim_paper`: repeats the §6 sweep of [`PAPER_RUNS`] runs per cell until
/// `seconds` have passed. Every repeat has the same inputs, so its digest
/// must repeat; a change is reported as the δ wall-clock leak.
pub fn sim_paper(seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        cells = paper_cells(seed);
        let build_s = secs(t);
        black_box(run_experiment(&cells[0].config));
        let setup_s = secs(t);
        let speed = util::host_speed();
        builds.push(build_s * speed);
        setups.push(setup_s * speed);
    }
    pass.setup_s = util::median(&setups);
    pass.build_s = util::median(&builds);

    let obs = traced.then(Obs::metrics_only);
    let started = Instant::now();
    let mut sweeps = vec![sweep(&cells, obs.as_ref())];
    pass.peak_rss_mb = util::peak_rss_mb();
    while secs(started) < seconds {
        sweeps.push(sweep(&cells, obs.as_ref()));
    }
    for (pc, late, total) in &sweeps[0].series {
        let observed = ratio(*late as f64, *total as f64);
        if observed > 1.0 - pc {
            pass.errors.push(format!(
                "sim_paper: Fig. 5 budget broken for Pc = {pc}: observed miss share {observed:.4} > {:.4}",
                1.0 - pc
            ));
        }
    }
    let mismatches = sweeps
        .iter()
        .filter(|s| s.digest != sweeps[0].digest)
        .count();
    pass.notes.push(format!(
        "sim_paper: record digest {:016x} over {} sweep(s) of {} cells",
        sweeps[0].digest,
        sweeps.len(),
        cells.len()
    ));
    if mismatches > 0 {
        pass.notes.push(format!(
            "sim_paper: {mismatches} of {} repeats of one seed set gave another digest: the selection overhead δ is read from the wall clock (the δ leak), so seeded runs do not replay",
            sweeps.len()
        ));
    }
    let events_per_request: Vec<f64> = sweeps
        .iter()
        .map(|s| ratio(s.events as f64, s.requests as f64))
        .collect();
    if events_per_request
        .iter()
        .any(|e| *e != events_per_request[0])
    {
        pass.notes.push(
            "sim_paper: events per request differ between repeats of one seed set (the δ leak)"
                .into(),
        );
    }

    let first = &mut sweeps[0];
    pass.attempted = first.cut_requests;
    pass.failed = first.cut_failed;
    pass.latency_p50_us = quantile(&mut first.latencies_ns, 0.5).unwrap_or(0.0) / 1e3;
    pass.latency_p99_us = quantile(&mut first.latencies_ns, 0.99).unwrap_or(0.0) / 1e3;
    pass.deadline_miss_share = ratio(first.cut_late as f64, first.cut_requests as f64);
    pass.failed_share = ratio(first.cut_failed as f64, first.cut_requests as f64);
    pass.replicas_per_call = ratio(first.cut_replicas as f64, first.cut_requests as f64);
    let rates: Vec<f64> = sweeps
        .iter()
        .map(|s| s.requests as f64 / (s.wall_s * s.speed))
        .collect();
    pass.calls_per_s = util::median(&rates);
    pass.host_speed = util::median(&sweeps.iter().map(|s| s.speed).collect::<Vec<_>>());

    if let Some(obs) = &obs {
        let snap = obs.registry().snapshot();
        let overhead = util::histogram_buckets(&snap, "aqua_selection_overhead_ns");
        let hits = util::counter_total(&snap, "aqua_model_cache_hits_total");
        let misses = util::counter_total(&snap, "aqua_model_cache_misses_total");
        let first = &sweeps[0];
        let events_per_s: Vec<f64> = sweeps
            .iter()
            .map(|s| s.events as f64 / (s.wall_s * s.speed))
            .collect();
        pass.layers.extend([
            (
                "gateway.selection_overhead_ns_p50",
                util::bucket_quantile(&overhead, 0.5),
            ),
            (
                "core.model_cache_hit_share",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            (
                "gateway.redundant_reply_share",
                ratio(
                    first.redundant as f64,
                    (first.delivered + first.redundant) as f64,
                ),
            ),
            ("sim.events_per_request", events_per_request[0]),
            ("sim.events_per_s", util::median(&events_per_s)),
            ("sim.paper_digest_mismatches", mismatches as f64),
        ]);
    }
    Ok(pass)
}

/// One build-and-run of the geo scenario.
/// Times are scaled by the host speed read right after the run.
struct GeoRun {
    setup_s: f64,
    build_s: f64,
    run_s: f64,
    speed: f64,
    events: u64,
    messages: u64,
    requests: u64,
    replies: u64,
    served: u64,
    digest: u64,
    rounds: u64,
    /// Per-client mean first-reply latency, µs of simulated time.
    client_latency_us: Vec<f64>,
    /// Events per shard (traced runs only).
    shard_events: Vec<u64>,
}

fn geo_run(text: &str, seed: Option<u64>, workers: usize, traced: bool) -> Result<GeoRun, String> {
    let t = Instant::now();
    let mut scenario = Scenario::from_json(text)?;
    if let Some(seed) = seed {
        scenario.seed = seed;
    }
    let b = Instant::now();
    let mut sim = scenario.build(workers);
    let build_s = secs(b);
    let setup_s = secs(t);
    let r = Instant::now();
    sim.run_until(SimInstant::EPOCH.saturating_add(scenario.duration));
    let run_s = secs(r);
    let speed = util::host_speed();

    let mut run = GeoRun {
        setup_s: setup_s * speed,
        build_s: build_s * speed,
        run_s: run_s * speed,
        speed,
        events: sim.events_processed(),
        messages: sim.messages_sent(),
        requests: 0,
        replies: 0,
        served: 0,
        digest: sim.trace_digest(),
        rounds: sim.rounds(),
        client_latency_us: Vec::new(),
        shard_events: Vec::new(),
    };
    for index in 0..scenario.node_count() {
        let id = NodeId::new(index as u32);
        if let Some(c) = sim.node::<ScaleClient>(id) {
            run.requests += c.sent;
            run.replies += c.received;
            if c.received > 0 {
                run.client_latency_us
                    .push(c.total_latency_ns as f64 / c.received as f64 / 1e3);
            }
        } else if let Some(r) = sim.node::<ScaleReplica>(id) {
            run.served += r.served;
        }
    }
    if traced {
        let obs = Obs::metrics_only();
        sim.export_obs(&obs);
        run.shard_events = obs
            .registry()
            .snapshot()
            .counters
            .iter()
            .filter(|(k, _)| k.name == "sim_shard_events_total")
            .map(|(_, v)| *v)
            .collect();
    }
    Ok(run)
}

/// `sim_geo10k`: checks the committed scenario against its committed
/// digest, then reruns it under a seed derived from the benchmark seed
/// until `seconds` have passed, on as many shards as the host has cores.
pub fn sim_geo10k(seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let text = std::fs::read_to_string(GEO_SCENARIO)
        .map_err(|e| format!("cannot read {GEO_SCENARIO}: {e}"))?;
    let workers = crate::cores();
    let mut pass = Pass::default();

    let committed = geo_run(&text, None, workers, false)?;
    pass.peak_rss_mb = util::peak_rss_mb();
    if (committed.digest, committed.events, committed.replies)
        != (GEO_DIGEST, GEO_EVENTS, GEO_REPLIES)
    {
        pass.errors.push(format!(
            "sim_geo10k: committed scenario gave digest {:016x}, {} events, {} replies; expected {GEO_DIGEST:016x}, {GEO_EVENTS}, {GEO_REPLIES}",
            committed.digest, committed.events, committed.replies
        ));
    }

    let seed = mix(seed, 0x6e0);
    let started = Instant::now();
    let mut runs = vec![geo_run(&text, Some(seed), workers, traced)?];
    while secs(started) < seconds {
        runs.push(geo_run(&text, Some(seed), workers, traced)?);
    }
    let first = &runs[0];
    if runs
        .iter()
        .any(|r| (r.digest, r.events, r.replies) != (first.digest, first.events, first.replies))
    {
        pass.errors
            .push("sim_geo10k: runs of one seed gave different digests or event counts".into());
    }
    pass.notes.push(format!(
        "sim_geo10k: {} run(s) on {workers} shard(s), seed {seed}: digest {:016x}, {} events, {} replies",
        runs.len(),
        first.digest,
        first.events,
        first.replies
    ));

    let median_of =
        |f: &dyn Fn(&GeoRun) -> f64| util::median(&runs.iter().map(f).collect::<Vec<_>>());
    pass.setup_s = median_of(&|r| r.setup_s);
    pass.build_s = median_of(&|r| r.build_s);
    pass.calls_per_s = median_of(&|r| r.replies as f64 / r.run_s);
    pass.host_speed = median_of(&|r| r.speed);
    pass.attempted = first.requests;
    let mut latencies = first.client_latency_us.clone();
    pass.latency_p50_us = quantile(&mut latencies, 0.5).unwrap_or(0.0);
    pass.latency_p99_us = quantile(&mut latencies, 0.99).unwrap_or(0.0);
    // Every serviced request sent one reply; the other messages are the
    // requests' copies to replicas.
    pass.replicas_per_call = ratio(
        (first.messages - first.served) as f64,
        first.requests as f64,
    );

    if traced {
        let mean = ratio(
            first.shard_events.iter().sum::<u64>() as f64,
            first.shard_events.len() as f64,
        );
        let max = first.shard_events.iter().copied().max().unwrap_or(0) as f64;
        pass.layers.extend([
            (
                "sim.events_per_request",
                ratio(first.events as f64, first.requests as f64),
            ),
            (
                "sim.events_per_s",
                median_of(&|r| r.events as f64 / r.run_s),
            ),
            ("sim.sharded.barrier_rounds", first.rounds as f64),
            ("sim.sharded.shard_event_imbalance", ratio(max, mean)),
        ]);
    }
    Ok(pass)
}
