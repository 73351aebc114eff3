//! Search engine over real sockets: the other workload class the paper
//! names (§1). Replica servers run as threads on localhost TCP; the client
//! gateway runs the timing fault handler against wall-clock measurements.
//!
//! Run with: `cargo run --example search_engine`

use aqua::core::qos::{QosSpec, ReplicaId};
use aqua::core::repository::MethodId;
use aqua::core::time::Duration;
use aqua::runtime::{MuxPool, MuxPoolConfig, ReplicaServer, ReplicaServerConfig};
use aqua::strategies::ModelBased;
use aqua_replica::ServiceTimeModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ms = Duration::from_millis;

    // Four index shards replicas with different speeds; the slowest one
    // also jitters a lot (log-normal tail).
    println!("spawning 4 replica servers on localhost…");
    let mut servers = Vec::new();
    for i in 0..4u64 {
        let service = if i == 3 {
            ServiceTimeModel::LogNormal {
                median: ms(25),
                sigma: 0.8,
            }
        } else {
            ServiceTimeModel::Normal {
                mean: ms(8 + 4 * i),
                std_dev: ms(3),
                min: Duration::ZERO,
            }
        };
        servers.push(ReplicaServer::spawn(ReplicaServerConfig {
            replica: ReplicaId::new(i),
            service,
            seed: 100 + i,
            crash_after: None,
            faults: None,
            obs: None,
        })?);
    }
    let replicas: Vec<_> = servers.iter().map(|s| (s.replica(), s.addr())).collect();

    // "answer within 60 ms, 90% of the time".
    let qos = QosSpec::new(ms(60), 0.9)?;
    let pool = MuxPool::connect(&replicas, MuxPoolConfig::new(qos))?;
    let client = pool.handle(Box::new(ModelBased::default()));

    println!("issuing 30 queries with a 60 ms / 90% QoS spec…\n");
    let mut timely = 0u32;
    let mut min_tr = Duration::MAX;
    for i in 0..30 {
        let query = format!("q{i:02} site:example.com");
        let outcome = client.call(MethodId::DEFAULT, query.as_bytes())?;
        min_tr = min_tr.min(outcome.response_time);
        if outcome.timely {
            timely += 1;
        }
        if i % 6 == 0 {
            println!(
                "  query {i:>2}: {} from {} via {} replica(s){}",
                outcome.response_time,
                outcome.replica,
                outcome.redundancy,
                if outcome.timely { "" } else { "  ← LATE" }
            );
        }
    }
    println!("\ntimely: {timely}/30 (budget allows 3 misses)");
    println!("fastest observed response: {min_tr} (the paper's testbed floor was ~3.5 ms)");
    client.with_handler(|h| {
        println!(
            "handler stats: {} delivered, {} redundant replies mined, mean redundancy {:.2}",
            h.stats().delivered,
            h.stats().redundant,
            h.stats().mean_redundancy()
        );
    });
    Ok(())
}
