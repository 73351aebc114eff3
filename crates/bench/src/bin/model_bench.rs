//! Micro-benchmark for the generation-keyed model cache: cold vs warm
//! `plan_request` latency across window sizes `l` and replica counts `n`.
//!
//! * **cold** — every replica receives a fresh perf sample immediately
//!   before the timed plan, so each per-replica generation has moved and
//!   the plan's publish must rebuild every response distribution (the
//!   pre-cache worst case, and the steady state of a from-scratch
//!   pipeline);
//! * **warm** — the repository is untouched between plans, so every
//!   distribution is answered from the published cumulative table.
//!
//! Writes `BENCH_MODEL.json` (grid of median latencies plus the speedup
//! ratio) and prints a human-readable table.
//!
//! Usage: `model_bench [iters] [--check] [--out PATH]`
//!
//! `--check` exits non-zero unless the warm path is at least 3× faster
//! than the cold path at `l = 100, n = 8` — the CI perf-smoke criterion.

use aqua_core::prelude::*;
use aqua_gateway::TimingFaultHandler;
use aqua_obs::json::JsonValue;
use aqua_strategies::ModelBased;

/// The speedup the CI smoke test demands at the checked grid point.
const CHECK_MIN_SPEEDUP: f64 = 3.0;
const CHECK_L: usize = 100;
const CHECK_N: usize = 8;

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

struct Cell {
    l: usize,
    n: usize,
    cold_ns: u64,
    warm_ns: u64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        if self.warm_ns == 0 {
            f64::INFINITY
        } else {
            self.cold_ns as f64 / self.warm_ns as f64
        }
    }
}

/// A virtual-time handler with `n` replicas whose windows (size `l`) are
/// completely full, so every plan runs the whole model rather than the
/// cold-start multicast. The last sample of each replica arrives as the
/// reply to a probe, which also measures its gateway delay.
fn warmed_handler(l: usize, n: usize) -> TimingFaultHandler {
    let qos = QosSpec::new(ms(150), 0.9).expect("valid spec");
    let handler = TimingFaultHandler::in_virtual_time(qos, l, Box::new(ModelBased::default()));
    for i in 0..n {
        let r = ReplicaId::new(i as u64);
        handler.insert_replica(Instant::EPOCH, r);
        let sample = |k: usize| {
            PerfReport::new(
                ms(40 + ((i * 7 + k * 13) % 60) as u64),
                ms((k % 9) as u64),
                0,
            )
        };
        for k in 0..l - 1 {
            handler.on_perf_update(Instant::EPOCH, r, sample(k));
        }
        let last = sample(l - 1);
        let probe = handler.plan_probe(Instant::EPOCH, r);
        let delay = ms(1 + (i % 5) as u64);
        let replied = Instant::EPOCH + last.service_time + last.queuing_delay + delay;
        handler.on_reply(replied, probe.seq, r, last);
    }
    handler
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One timed `plan_request`; the pending-entry retirement happens outside
/// the timed region so only the selection path is measured.
fn timed_plan(handler: &TimingFaultHandler, now: Instant) -> u64 {
    let started = std::time::Instant::now();
    let plan = handler.plan_request(now);
    let elapsed = started.elapsed().as_nanos() as u64;
    assert!(!plan.replicas.is_empty(), "warm plans always select");
    handler.on_abandon(now, plan.seq);
    elapsed
}

fn measure(l: usize, n: usize, iters: u32) -> Cell {
    let handler = warmed_handler(l, n);
    let mut clock = 0u64;

    // Cold: move every replica's perf generation before each timed plan.
    let mut cold = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        clock += 1;
        let now = Instant::from_millis(clock);
        for i in 0..n {
            handler.on_perf_update(
                now,
                ReplicaId::new(i as u64),
                PerfReport::new(ms(40 + (clock % 60)), ms(0), 0),
            );
        }
        cold.push(timed_plan(&handler, now));
    }

    // Warm: one priming plan rebuilds the cache, then the repository is
    // left untouched so every subsequent plan is all hits.
    clock += 1;
    timed_plan(&handler, Instant::from_millis(clock));
    let mut warm = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        clock += 1;
        warm.push(timed_plan(&handler, Instant::from_millis(clock)));
    }

    Cell {
        l,
        n,
        cold_ns: median(cold),
        warm_ns: median(warm),
    }
}

fn main() {
    let mut iters: u32 = 200;
    let mut check = false;
    let mut out = String::from("BENCH_MODEL.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => iters = other.parse().expect("iters must be an integer"),
        }
    }

    let mut cells = Vec::new();
    println!(
        "{:>5} {:>4} {:>12} {:>12} {:>9}",
        "l", "n", "cold (ns)", "warm (ns)", "speedup"
    );
    for l in [5usize, 20, 100] {
        for n in [4usize, 8, 32] {
            let cell = measure(l, n, iters);
            println!(
                "{:>5} {:>4} {:>12} {:>12} {:>8.1}x",
                cell.l,
                cell.n,
                cell.cold_ns,
                cell.warm_ns,
                cell.speedup()
            );
            cells.push(cell);
        }
    }

    let grid: Vec<JsonValue> = cells
        .iter()
        .map(|c| {
            JsonValue::object()
                .field("window", c.l)
                .field("replicas", c.n)
                .field("cold_plan_ns_median", c.cold_ns)
                .field("warm_plan_ns_median", c.warm_ns)
                .field("warm_speedup", c.speedup())
                .build()
        })
        .collect();
    let report = JsonValue::object()
        .field("bench", "model_bench")
        .field("iters_per_cell", iters)
        .field(
            "check_criterion",
            format!("warm >= {CHECK_MIN_SPEEDUP}x faster than cold at l={CHECK_L}, n={CHECK_N}"),
        )
        .field("grid", JsonValue::Array(grid))
        .build();
    std::fs::write(&out, report.render_pretty() + "\n").expect("write BENCH_MODEL.json");
    println!("\nwrote {out}");

    if check {
        let cell = cells
            .iter()
            .find(|c| c.l == CHECK_L && c.n == CHECK_N)
            .expect("checked grid point is always measured");
        let speedup = cell.speedup();
        if speedup < CHECK_MIN_SPEEDUP {
            eprintln!(
                "FAIL: warm plan is only {speedup:.2}x faster than cold at l={CHECK_L}, \
                 n={CHECK_N} (need >= {CHECK_MIN_SPEEDUP}x)"
            );
            std::process::exit(1);
        }
        println!(
            "check passed: warm plan {speedup:.1}x faster than cold at l={CHECK_L}, n={CHECK_N}"
        );
    }
}
