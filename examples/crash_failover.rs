//! The single-crash guarantee (Eq. 3), live on real sockets.
//!
//! Algorithm 1 reserves the most promising replica `m0` outside its
//! acceptance test, so the selected set still meets the client's QoS if
//! any one member crashes. Here we crash the fastest replica *while the
//! client is mid-workload* and watch the calls keep succeeding; then we
//! crash everything and watch the handler fail cleanly.
//!
//! Run with: `cargo run --example crash_failover`

use aqua::core::qos::{QosSpec, ReplicaId};
use aqua::core::repository::MethodId;
use aqua::core::time::Duration;
use aqua::runtime::{MuxPool, MuxPoolConfig, ReplicaServer, ReplicaServerConfig};
use aqua::strategies::ModelBased;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ms = Duration::from_millis;

    // r0 is clearly fastest → it will be m0, the reserved best replica.
    let profiles = [5u64, 20, 20, 25];
    let servers: Vec<ReplicaServer> = profiles
        .iter()
        .enumerate()
        .map(|(i, s)| {
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i as u64), *s))
        })
        .collect::<Result<_, _>>()?;
    let replicas: Vec<_> = servers.iter().map(|s| (s.replica(), s.addr())).collect();

    let qos = QosSpec::new(ms(150), 0.9)?;
    let mut config = MuxPoolConfig::new(qos);
    config.give_up_after = ms(600);
    let pool = MuxPool::connect(&replicas, config)?;
    let client = pool.handle(Box::new(ModelBased::default()));

    println!("phase 1: warm up (5 calls)…");
    for _ in 0..5 {
        let out = client.call(MethodId::DEFAULT, b"tick")?;
        assert!(out.timely);
    }

    println!("phase 2: CRASHING the fastest replica (r0) mid-workload…");
    servers[0].crash();
    let mut ok = 0;
    for i in 0..10 {
        match client.call(MethodId::DEFAULT, b"tick") {
            Ok(out) => {
                ok += 1;
                if i < 3 {
                    println!(
                        "  call after crash: {} from {} ({} selected)",
                        out.response_time, out.replica, out.redundancy
                    );
                }
            }
            Err(e) => println!("  call failed: {e}"),
        }
    }
    println!("  {ok}/10 calls succeeded despite losing the best replica");
    client.with_handler(|h| {
        assert!(!h.repository().contains(ReplicaId::new(0)));
        println!("  r0 evicted from the information repository ✓");
    });

    println!("phase 3: crashing everything…");
    for s in &servers {
        s.crash();
    }
    std::thread::sleep(std::time::Duration::from_millis(150));
    match client.call(MethodId::DEFAULT, b"tick") {
        Err(e) => println!("  expected failure: {e} ✓"),
        Ok(_) => println!("  (a straggler reply still made it)"),
    }
    match client.call(MethodId::DEFAULT, b"tick") {
        Err(e) => println!("  and again, fail-fast now: {e} ✓"),
        Ok(_) => unreachable!("no replicas are left"),
    }
    Ok(())
}
