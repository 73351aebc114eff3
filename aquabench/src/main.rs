//! # aquabench — the repository's benchmark
//!
//! Runs one workload through the public entry points of the repository's
//! crates and prints, as its last line, one JSON object with the outcome
//! of the output checks and the metrics:
//!
//! ```text
//! aquabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `LAYERS.md` for why each exists and which metrics each
//! layer should move):
//!
//! * `sim_paper` — the paper's §6 sweep on the sequential simulator.
//! * `sim_geo10k` — the committed 10k-node WAN scenario on the sharded
//!   simulator, one shard per core.
//! * `mux_closed` — 4 zero-service replica servers, one `MuxPool` with 64
//!   handles, one closed-loop caller thread per core.
//! * `mux_paced` — 7 replica servers with Normal(5 ms, σ2.5 ms) service,
//!   2 handles, 150 calls/s on a fixed schedule.
//!
//! `--trace 0` measures the end-to-end metrics with observability off.
//! `--trace 1` runs the workload untraced and then traced for half the
//! time each, and prints the per-layer ledger: each layer metric comes
//! from the traced workload when it exercises that layer, and otherwise
//! from a short traced run of the workload that does.

mod sim;
mod socket;
mod util;

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// What one measured pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Calls (or simulated requests) attempted in the measured window.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Median set-up time: building the workload and warming it up.
    pub setup_s: f64,
    /// Median of the build part of set-up.
    pub build_s: f64,
    pub calls_per_s: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub deadline_miss_share: f64,
    pub failed_share: f64,
    pub stall_share: f64,
    pub replicas_per_call: f64,
    /// Peak RSS once the first unit of work is done (set-up plus one
    /// sweep, one scenario run, or the whole load); repeats of the same
    /// unit only add allocator fragmentation.
    pub peak_rss_mb: f64,
    /// Median host speed read during the pass (see `util::host_speed`).
    pub host_speed: f64,
    /// Layer metrics measured by a traced pass.
    pub layers: BTreeMap<&'static str, f64>,
    /// Failed output checks; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Findings reported without failing the run.
    pub notes: Vec<String>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Workload {
    SimPaper,
    SimGeo10k,
    MuxClosed,
    MuxPaced,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SimPaper,
        Workload::SimGeo10k,
        Workload::MuxClosed,
        Workload::MuxPaced,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SimPaper => "sim_paper",
            Workload::SimGeo10k => "sim_geo10k",
            Workload::MuxClosed => "mux_closed",
            Workload::MuxPaced => "mux_paced",
        }
    }

    fn run(self, seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
        match self {
            Workload::SimPaper => sim::sim_paper(seed, seconds, traced),
            Workload::SimGeo10k => sim::sim_geo10k(seed, seconds, traced),
            Workload::MuxClosed => socket::mux_closed(seed, seconds, traced),
            Workload::MuxPaced => socket::mux_paced(seed, seconds, traced),
        }
    }
}

/// The per-layer ledger: metric, unit, and the workload it is taken from
/// when the traced workload does not measure it itself. The last six
/// are filled in from the traced workload's own pass.
const LAYERS: &[(&str, &str, Option<Workload>)] = &[
    ("core.plan_ns_p50", "ns", Some(Workload::MuxPaced)),
    ("core.plan_ns_p99", "ns", Some(Workload::MuxPaced)),
    (
        "gateway.selection_overhead_ns_p50",
        "ns",
        Some(Workload::SimPaper),
    ),
    (
        "core.model_cache_hit_share",
        "share",
        Some(Workload::SimPaper),
    ),
    (
        "gateway.view_versions_per_call",
        "count",
        Some(Workload::MuxClosed),
    ),
    (
        "gateway.redundant_reply_share",
        "share",
        Some(Workload::MuxPaced),
    ),
    (
        "runtime.reactor.cpu_us_per_call",
        "us",
        Some(Workload::MuxClosed),
    ),
    (
        "runtime.reactor.syscalls_per_call.read",
        "count",
        Some(Workload::MuxClosed),
    ),
    (
        "runtime.reactor.syscalls_per_call.writev",
        "count",
        Some(Workload::MuxClosed),
    ),
    (
        "runtime.reactor.syscalls_per_call.epoll_wait",
        "count",
        Some(Workload::MuxClosed),
    ),
    (
        "runtime.reactor.frames_per_writev",
        "count",
        Some(Workload::MuxClosed),
    ),
    (
        "runtime.mux.caller_cpu_us_per_call",
        "us",
        Some(Workload::MuxClosed),
    ),
    (
        "runtime.wire.bytes_per_call",
        "B",
        Some(Workload::MuxClosed),
    ),
    (
        "runtime.server.queue_us_p50",
        "us",
        Some(Workload::MuxPaced),
    ),
    (
        "runtime.server.queue_us_p99",
        "us",
        Some(Workload::MuxPaced),
    ),
    (
        "runtime.server.service_us_p50",
        "us",
        Some(Workload::MuxPaced),
    ),
    (
        "runtime.server.requests_per_call",
        "count",
        Some(Workload::MuxPaced),
    ),
    (
        "runtime.server.cpu_us_per_call",
        "us",
        Some(Workload::MuxClosed),
    ),
    ("sim.events_per_request", "count", Some(Workload::SimGeo10k)),
    ("sim.events_per_s", "1/s", Some(Workload::SimGeo10k)),
    (
        "sim.sharded.barrier_rounds",
        "count",
        Some(Workload::SimGeo10k),
    ),
    (
        "sim.sharded.shard_event_imbalance",
        "ratio",
        Some(Workload::SimGeo10k),
    ),
    (
        "sim.paper_digest_mismatches",
        "count",
        Some(Workload::SimPaper),
    ),
    ("bench.gen_lag_p99_us", "us", Some(Workload::MuxPaced)),
    ("workload.build_s", "s", None),
    ("trace_overhead_share", "share", None),
    ("deadline_miss_share", "share", None),
    ("failed_share", "share", None),
    ("stall_share", "share", None),
    ("bench.host_speed", "ratio", None),
];

/// Worker threads the benchmark uses: shards of the sharded engine and
/// caller threads of the socket workloads.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit under test, when the benchmark runs in a git checkout.
fn commit() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| Some(d.parent()?.to_path_buf()))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

fn header(args: &Args) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# aquabench {{\"cores\": {}, \"commit\": \"{}\", \"profile\": \"{profile}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"network\": \"socket traffic crossed loopback (127.0.0.1) only\"}}",
        cores(),
        commit(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

/// The end-to-end metrics. The two shares that are often exactly 0 are
/// reported as their complements, so that each metric has a non-zero
/// median for a relative bound; the raw shares are in the ledger. The
/// stall share applies only to the socket workloads, which are outside
/// the gated set (see `LAYERS.md`), so it is printed but not a metric.
fn end_to_end(pass: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", pass.setup_s, "s"),
        ("calls_per_s", pass.calls_per_s, "1/s"),
        ("latency_p50_us", pass.latency_p50_us, "us"),
        ("latency_p99_us", pass.latency_p99_us, "us"),
        (
            "deadline_met_share",
            1.0 - pass.deadline_miss_share,
            "share",
        ),
        ("call_ok_share", 1.0 - pass.failed_share, "share"),
        ("replicas_per_call", pass.replicas_per_call, "count"),
        ("peak_rss_mb", pass.peak_rss_mb, "MB"),
    ]
}

/// Runs the workload untraced and traced, and completes the ledger from
/// short traced runs of the workloads that exercise the remaining layers.
fn traced(args: &Args) -> Result<(Pass, Vec<String>), String> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let plain = w.run(args.seed, half, false)?;
    let mut pass = w.run(args.seed, half, true)?;
    let mut errors = plain.errors;
    errors.append(&mut pass.errors);
    pass.notes.extend(plain.notes);

    let overhead = match w {
        // The paced workload's rate is fixed; tracing shows in latency.
        Workload::MuxPaced => pass.latency_p50_us / plain.latency_p50_us - 1.0,
        _ => 1.0 - pass.calls_per_s / plain.calls_per_s,
    };
    let own = [
        ("workload.build_s", pass.build_s),
        ("trace_overhead_share", overhead),
        ("deadline_miss_share", pass.deadline_miss_share),
        ("failed_share", pass.failed_share),
        ("stall_share", pass.stall_share),
        ("bench.host_speed", pass.host_speed),
    ];
    pass.layers.extend(own);

    let slice = (args.seconds / 8.0).clamp(1.0, 3.0);
    let homes: BTreeSet<Workload> = LAYERS
        .iter()
        .filter(|(name, _, _)| !pass.layers.contains_key(name))
        .filter_map(|(_, _, home)| *home)
        .collect();
    for home in homes {
        let other = home.run(args.seed, slice, true)?;
        for (name, _, from) in LAYERS {
            if *from == Some(home) && !pass.layers.contains_key(name) {
                if let Some(value) = other.layers.get(name) {
                    pass.layers.insert(name, *value);
                }
            }
        }
        errors.extend(other.errors);
        pass.notes.extend(
            other
                .notes
                .into_iter()
                .map(|n| format!("(ledger slice) {n}")),
        );
    }
    Ok((pass, errors))
}

fn json_number(value: f64, errors: &mut Vec<String>, name: &str) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        errors.push(format!("metric {name} is not a finite number"));
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("aquabench: {e}");
            eprintln!(
                "usage: aquabench --workload <sim_paper|sim_geo10k|mux_closed|mux_paced> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    header(&args);
    let outcome = if args.trace {
        traced(&args)
    } else {
        args.workload
            .run(args.seed, args.seconds, false)
            .map(|mut pass| {
                let errors = std::mem::take(&mut pass.errors);
                (pass, errors)
            })
    };
    let (pass, mut errors) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("aquabench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if pass.attempted == 0 {
        eprintln!("aquabench: the measured window attempted no calls");
        return ExitCode::FAILURE;
    }
    for note in &pass.notes {
        println!("# {note}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        LAYERS
            .iter()
            .map(|(name, unit, _)| {
                (
                    *name,
                    pass.layers.get(name).copied().unwrap_or(f64::NAN),
                    *unit,
                )
            })
            .collect()
    } else {
        let m = end_to_end(&pass);
        // The raw shares behind the complements, and the simulated
        // request rate under its own name, for reading only.
        for (name, value, unit) in [
            ("deadline_miss_share", pass.deadline_miss_share, "share"),
            ("failed_share", pass.failed_share, "share"),
            ("stall_share", pass.stall_share, "share"),
        ] {
            println!("# {name} = {value} {unit}");
        }
        if matches!(args.workload, Workload::SimPaper | Workload::SimGeo10k) {
            println!("# sim_requests_per_s = {} 1/s", pass.calls_per_s);
        }
        m
    };
    let mut body = Vec::new();
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
        let number = json_number(*value, &mut errors, name);
        body.push(format!(
            "\"{name}\": {{\"value\": {number}, \"unit\": \"{unit}\"}}"
        ));
    }
    for e in &errors {
        eprintln!("aquabench: check failed: {e}");
        println!("# check failed: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        pass.attempted,
        pass.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
