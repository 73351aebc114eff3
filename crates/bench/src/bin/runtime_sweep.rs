//! Figures 4/5 **over real sockets**: a scaled-down deadline sweep against
//! live replica servers on localhost, validating that the shapes measured
//! in the simulator also hold with wall-clock time, real TCP, and real
//! thread scheduling.
//!
//! Scaled for wall-time: 5 replicas, service Normal(40 ms, σ20 ms),
//! deadlines 50–90 ms, 30 requests per cell.
//!
//! Usage: `runtime_sweep [requests_per_cell]` (default 30; the whole sweep
//! takes ~15 s of real time). Set `AQUA_OBS=DIR` to capture the socket
//! runtime's observability bundle (wire frame/byte counters, server
//! service/queue metrics, per-request spans).

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::MethodId;
use aqua_core::time::Duration;
use aqua_replica::ServiceTimeModel;
use aqua_runtime::{MuxPool, MuxPoolConfig, ReplicaServer, ReplicaServerConfig};
use aqua_strategies::ModelBased;

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn run_cell(
    servers: &[ReplicaServer],
    deadline_ms: u64,
    pc: f64,
    requests: u32,
    obs: Option<&aqua_obs::Obs>,
    cell: u64,
) -> (f64, f64) {
    let replicas: Vec<_> = servers.iter().map(|s| (s.replica(), s.addr())).collect();
    let mut config = MuxPoolConfig::new(QosSpec::new(ms(deadline_ms), pc).expect("valid"));
    config.give_up_after = ms(2_000);
    config.obs = obs.cloned();
    config.id = cell;
    let pool = MuxPool::connect(&replicas, config).expect("connect to local replicas");
    let client = pool.handle(Box::new(ModelBased::default()));
    let mut failures = 0u32;
    let mut redundancy_sum = 0usize;
    for _ in 0..requests {
        match client.call(MethodId::DEFAULT, b"sweep") {
            Ok(out) => {
                redundancy_sum += out.redundancy;
                if !out.timely {
                    failures += 1;
                }
            }
            Err(_) => {
                redundancy_sum += servers.len();
                failures += 1;
            }
        }
        // Closed-loop think time (the paper uses 1 s; scaled down): lets
        // the redundant copies drain so queues do not snowball.
        std::thread::sleep(std::time::Duration::from_millis(120));
    }
    client.finish_observability();
    (
        redundancy_sum as f64 / requests as f64,
        failures as f64 / requests as f64,
    )
}

fn main() {
    let requests: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);

    let obs = aqua_bench::obs_from_env();

    eprintln!("spawning 5 replica servers (Normal 40 ms, σ20 ms) on localhost…");
    let servers: Vec<ReplicaServer> = (0..5)
        .map(|i| {
            ReplicaServer::spawn(ReplicaServerConfig {
                replica: ReplicaId::new(i),
                service: ServiceTimeModel::Normal {
                    mean: ms(40),
                    std_dev: ms(20),
                    min: Duration::ZERO,
                },
                seed: 500 + i,
                crash_after: None,
                faults: None,
                obs: obs.as_ref().map(|(obs, _)| obs.clone()),
            })
            .expect("spawn replica server")
        })
        .collect();

    println!("| deadline (ms) | Pc | mean redundancy | observed P(failure) | budget | ok? |");
    println!("|---|---|---|---|---|---|");
    let mut all_ok = true;
    let mut cell = 0u64;
    for pc in [0.9, 0.0] {
        for deadline in [50u64, 70, 90] {
            let (redundancy, failures) = run_cell(
                &servers,
                deadline,
                pc,
                requests,
                obs.as_ref().map(|(obs, _)| obs),
                cell,
            );
            cell += 1;
            let budget = 1.0 - pc;
            let ok = failures <= budget + 1e-9;
            all_ok &= ok;
            println!(
                "| {} | {} | {:.2} | {:.3} | {:.2} | {} |",
                deadline,
                pc,
                redundancy,
                failures,
                budget,
                if ok { "✓" } else { "✗" }
            );
        }
    }
    println!();
    println!("expected (the Figure 4/5 shapes on real TCP): redundancy falls");
    println!("with the deadline and with Pc; every cell within its budget.");
    if !all_ok {
        println!("WARNING: a cell exceeded its budget — wall-clock noise on a");
        println!("loaded machine can do this; re-run with more requests.");
    }
    if let Some((obs, dir)) = &obs {
        aqua_bench::obs_dump(obs, dir);
    }
}
