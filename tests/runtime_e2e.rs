//! End-to-end tests of the socket runtime beyond the crate's unit tests:
//! multiple clients sharing replicas, cross-client performance updates,
//! strategy plumbing, and renegotiation on real connections.

use std::net::SocketAddr;

use aqua::core::qos::{QosSpec, ReplicaId};
use aqua::core::repository::MethodId;
use aqua::core::time::Duration;
use aqua::runtime::{MuxHandle, MuxPool, MuxPoolConfig, ReplicaServer, ReplicaServerConfig};
use aqua::strategies::{ModelBased, RoundRobin, SelectionStrategy};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn spawn(service_ms: &[u64]) -> (Vec<ReplicaServer>, Vec<(ReplicaId, SocketAddr)>) {
    let servers: Vec<ReplicaServer> = service_ms
        .iter()
        .enumerate()
        .map(|(i, s)| {
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i as u64), *s))
                .expect("spawn server")
        })
        .collect();
    let addrs = servers.iter().map(|s| (s.replica(), s.addr())).collect();
    (servers, addrs)
}

/// One client: a pool of its own with a single handle.
fn connect(
    addrs: &[(ReplicaId, SocketAddr)],
    qos: QosSpec,
    strategy: Box<dyn SelectionStrategy>,
) -> (MuxPool, MuxHandle) {
    let pool = MuxPool::connect(addrs, MuxPoolConfig::new(qos)).unwrap();
    let handle = pool.handle(strategy);
    (pool, handle)
}

#[test]
fn two_clients_share_replicas_and_updates() {
    let (_servers, addrs) = spawn(&[5, 8, 12]);
    let qos = QosSpec::new(ms(300), 0.9).unwrap();
    let (_a_pool, a) = connect(&addrs, qos, Box::new(ModelBased::default()));
    let (_b_pool, b) = connect(&addrs, qos, Box::new(ModelBased::default()));

    // Only client A issues requests…
    for _ in 0..5 {
        a.call(MethodId::DEFAULT, b"from-a").expect("a ok");
    }
    // …but B's repository fills via the pushed PerfUpdates. B's first call
    // still multicasts to everyone (no gateway delays measured yet), but
    // the perf histories must already be populated.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let out = b.call(MethodId::DEFAULT, b"from-b").expect("b ok");
    assert_eq!(
        out.redundancy, 3,
        "B's first call is a cold-start multicast"
    );
    b.with_handler(|h| {
        for (_, stats) in h.repository().iter() {
            assert!(
                stats.histories().count() > 0,
                "A's traffic warmed B's perf histories"
            );
        }
    });
    // After one own call — and once the redundant replies (which carry the
    // remaining replicas' gateway delays) have landed — B selects the
    // minimal set.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let out = b.call(MethodId::DEFAULT, b"from-b").expect("b ok");
    assert_eq!(out.redundancy, 2);
}

#[test]
fn alternate_strategies_run_over_sockets() {
    let (_servers, addrs) = spawn(&[5, 5, 5]);
    let qos = QosSpec::new(ms(300), 0.0).unwrap();
    let (_pool, client) = connect(&addrs, qos, Box::new(RoundRobin::new(1)));
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..6 {
        let out = client.call(MethodId::DEFAULT, b"x").expect("ok");
        assert_eq!(out.redundancy, 1);
        seen.insert(out.replica);
    }
    assert_eq!(seen.len(), 3, "round-robin visited every replica: {seen:?}");
}

#[test]
fn renegotiation_resets_the_detector_live() {
    let (_servers, addrs) = spawn(&[50]);
    // Impossible 5 ms deadline → every reply late.
    let qos = QosSpec::new(ms(5), 0.9).unwrap();
    let (_pool, client) = connect(&addrs, qos, Box::new(ModelBased::default()));
    let out = client.call(MethodId::DEFAULT, b"x").expect("reply arrives");
    assert!(!out.timely);
    assert!(out.callback, "first late reply already violates Pc = 0.9");

    client.renegotiate(QosSpec::new(ms(500), 0.9).unwrap());
    let out = client.call(MethodId::DEFAULT, b"x").expect("ok");
    assert!(out.timely, "the renegotiated spec is holdable");
    client.with_handler(|h| {
        assert!(!h.detector().is_violating());
        assert_eq!(h.qos().deadline(), ms(500));
    });
}

#[test]
fn per_method_histories_over_sockets() {
    let (_servers, addrs) = spawn(&[10, 10]);
    let qos = QosSpec::new(ms(300), 0.5).unwrap();
    let (_pool, client) = connect(&addrs, qos, Box::new(ModelBased::default()));
    let fast = MethodId::new(1);
    let slow = MethodId::new(2);
    for _ in 0..3 {
        client.call(fast, b"f").expect("ok");
        client.call(slow, b"s").expect("ok");
    }
    client.with_handler(|h| {
        let repo = h.repository();
        let (_, stats) = repo.iter().next().expect("has replicas");
        assert!(stats.history(fast).is_some(), "method 1 classified");
        assert!(stats.history(slow).is_some(), "method 2 classified");
    });
}

#[test]
fn replicas_can_join_at_runtime() {
    let (mut servers, addrs) = spawn(&[30]);
    let qos = QosSpec::new(ms(300), 0.9).unwrap();
    let (pool, client) = connect(&addrs, qos, Box::new(ModelBased::default()));
    for _ in 0..3 {
        let out = client.call(MethodId::DEFAULT, b"x").expect("ok");
        assert_eq!(out.redundancy, 1, "only one replica exists");
    }
    // A faster replica joins the service group.
    let newcomer = ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(9), 5)).unwrap();
    pool.add_replica(newcomer.replica(), newcomer.addr())
        .expect("connects");
    servers.push(newcomer);

    // Next call: cold newcomer → full multicast, which warms it.
    let out = client.call(MethodId::DEFAULT, b"x").expect("ok");
    assert_eq!(out.redundancy, 2);
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Once warm, the 5 ms newcomer becomes the preferred (first) replica.
    let out = client.call(MethodId::DEFAULT, b"x").expect("ok");
    assert_eq!(out.redundancy, 2, "Pc=0.9 with 2 replicas selects both");
    assert_eq!(
        out.replica,
        ReplicaId::new(9),
        "the faster newcomer answers first"
    );
}

#[test]
fn queue_buildup_is_reported() {
    // A slow replica with several queued requests reports non-zero queue
    // lengths, which flow into the repository's outstanding counts.
    let (servers, addrs) = spawn(&[40]);
    let qos = QosSpec::new(ms(2_000), 0.0).unwrap();
    let (_pool, client) = connect(&addrs, qos, Box::new(ModelBased::default()));
    let client = std::sync::Arc::new(client);
    // Fire 4 calls from parallel threads so they pile up in the FIFO.
    let mut handles = Vec::new();
    for _ in 0..4 {
        let c = std::sync::Arc::clone(&client);
        handles.push(std::thread::spawn(move || {
            c.call(MethodId::DEFAULT, b"q").map(|o| o.response_time)
        }));
    }
    let latencies: Vec<Duration> = handles
        .into_iter()
        .map(|h| h.join().unwrap().expect("ok"))
        .collect();
    assert_eq!(servers[0].serviced(), 4);
    // FIFO service: the slowest call waited behind the other three.
    let max = latencies.iter().max().unwrap();
    assert!(
        *max >= ms(120),
        "4 × 40 ms FIFO service must delay the last call: {max}"
    );
}
