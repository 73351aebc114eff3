//! Golden request histories: fixed seeds must keep producing the exact
//! records and handler counters they produced when these digests were
//! taken (before the shared event queue and the last-reply end-of-run
//! rule landed). An engine or harness change that claims to be history-preserving
//! (event queue layout, end-of-run rule, membership bookkeeping) has to
//! leave every line of this table untouched.

use aqua::core::qos::QosSpec;
use aqua::core::time::{Duration, Instant};
use aqua::gateway::{ArrivalModel, HandlerStats};
use aqua::replica::CrashPlan;
use aqua::workload::{run_experiment, ExperimentConfig};

fn qos(deadline_ms: u64, pc: f64) -> QosSpec {
    QosSpec::new(Duration::from_millis(deadline_ms), pc).expect("valid spec")
}

/// `(requests, replicas_selected, delivered, redundant, gave_up,
/// callbacks)` per client; probes, retries and abandonments are zero in
/// every cell below.
type Counters = (u64, u64, u64, u64, u64, u64);

fn counters(stats: HandlerStats) -> Counters {
    assert_eq!(
        (stats.probes, stats.retries, stats.abandoned),
        (0, 0, 0),
        "no cell probes or retries"
    );
    (
        stats.requests,
        stats.replicas_selected,
        stats.delivered,
        stats.redundant,
        stats.gave_up,
        stats.callbacks,
    )
}

/// The §6 paper setup with the client under test at `(deadline, pc)`.
fn paper(deadline_ms: u64, pc: f64, seed: u64) -> ExperimentConfig {
    ExperimentConfig::paper(qos(deadline_ms, pc), seed)
}

/// The paper setup with the client under test switched to Poisson
/// arrivals, so its requests overlap and queue at the replicas.
fn poisson(seed: u64) -> ExperimentConfig {
    let mut config = paper(150, 0.9, seed);
    let cut = config.clients.last_mut().expect("two clients");
    cut.arrivals = ArrivalModel::OpenLoopPoisson {
        mean_interarrival: Duration::from_millis(150),
    };
    cut.num_requests = 60;
    config
}

/// The paper setup losing two replicas: one at a fixed time, one after
/// servicing 15 requests.
fn crashes(seed: u64) -> ExperimentConfig {
    let mut config = paper(130, 0.9, seed);
    config.servers[2].crash = CrashPlan::AtTime(Instant::from_secs(20));
    config.servers[5].crash = CrashPlan::AfterRequests(15);
    config
}

fn check(name: &str, config: &ExperimentConfig, digest: u64, expected: &[Counters]) {
    let report = run_experiment(config);
    let got: Vec<Counters> = report.clients.iter().map(|c| counters(c.stats)).collect();
    assert_eq!(
        (report.digest(), got.as_slice()),
        (digest, expected),
        "{name}: history changed (digest {:#018x}, counters {got:?})",
        report.digest()
    );
}

#[test]
fn paper_cell_pc_0_9_replays_its_golden_history() {
    check(
        "paper Pc=0.9",
        &paper(140, 0.9, 21),
        0x568f_1453_3e0a_33e5,
        &[(50, 105, 50, 55, 0, 0), (50, 153, 50, 103, 0, 0)],
    );
}

#[test]
fn paper_cell_pc_0_5_replays_its_golden_history() {
    check(
        "paper Pc=0.5",
        &paper(120, 0.5, 22),
        0x0dff_05ca_740e_6e24,
        &[(50, 105, 50, 55, 0, 0), (50, 117, 50, 67, 0, 0)],
    );
}

#[test]
fn paper_cell_pc_0_replays_its_golden_history() {
    check(
        "paper Pc=0",
        &paper(160, 0.0, 23),
        0x55a8_fa1e_b1ea_8252,
        &[(50, 105, 50, 55, 0, 0), (50, 105, 50, 55, 0, 0)],
    );
}

#[test]
fn poisson_cell_replays_its_golden_history() {
    check(
        "poisson",
        &poisson(24),
        0xbc14_d707_c70d_c343,
        &[(50, 105, 50, 55, 0, 0), (60, 323, 60, 263, 0, 14)],
    );
}

#[test]
fn crash_cell_replays_its_golden_history() {
    check(
        "crashes",
        &crashes(25),
        0x06b5_1e45_3427_a75c,
        &[(50, 105, 50, 55, 0, 0), (50, 179, 50, 129, 0, 0)],
    );
}
