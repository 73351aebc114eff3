//! Resilience of the socket runtime under injected faults: scheduled
//! crash-and-recover windows, reconnect-with-probation, deadline-driven
//! retries, and fast failure when every replica is gone.
//!
//! These tests drive real TCP connections and threads, so every timing
//! constant is chosen with a wide margin: fault windows are hundreds of
//! milliseconds long and assertions only order events, never measure them
//! tightly.

use std::net::SocketAddr;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use aqua_core::qos::{QosSpec, ReplicaId};
use aqua_core::repository::MethodId;
use aqua_core::time::{Duration, Instant};
use aqua_faults::FaultPlan;
use aqua_runtime::{
    CallError, MuxPool, MuxPoolConfig, ReconnectPolicy, ReplicaServer, ReplicaServerConfig,
};
use aqua_strategies::{FastestMean, ModelBased};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn replicas_of(servers: &[ReplicaServer]) -> Vec<(ReplicaId, SocketAddr)> {
    servers.iter().map(|s| (s.replica(), s.addr())).collect()
}

/// The acceptance scenario: a replica crashes on a schedule and recovers;
/// the pool reconnects with backoff, the replica rejoins the repository of
/// every handle on probation, serves shadow traffic until `l` fresh samples
/// arrive, and re-enters each selection set — all visible in the obs
/// journal.
#[test]
fn crashed_replica_recovers_and_reenters_selection_after_probation() {
    let (obs, reader) = aqua_obs::Obs::in_memory();

    // Replica 0 crashes 600 ms into its life and recovers 700 ms later.
    let plan = FaultPlan::new().crash_recover(0, Instant::from_millis(600), ms(700));
    let mut servers = Vec::new();
    for i in 0..3u64 {
        let mut cfg = ReplicaServerConfig::quick(ReplicaId::new(i), if i == 0 { 5 } else { 10 });
        if i == 0 {
            cfg.faults = Some(plan.instantiate(7));
            cfg.obs = Some(obs.clone());
        }
        servers.push(ReplicaServer::spawn(cfg).expect("spawn"));
    }

    let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.9).unwrap());
    config.window = 3; // probation clears after 3 fresh samples
    config.give_up_after = ms(2_000);
    config.obs = Some(obs.clone());
    config.reconnect = Some(ReconnectPolicy {
        initial_backoff: ms(50),
        max_backoff: ms(200),
        max_attempts: 100,
    });
    let pool = MuxPool::connect(&replicas_of(&servers), config).expect("connect");
    let handles = [
        pool.handle(Box::new(ModelBased::default())),
        pool.handle(Box::new(ModelBased::default())),
    ];

    // Call steadily across the whole fault window (~3 s of wall clock):
    // warm-up, the down window (masked by the survivors), reconnect, and
    // enough post-recovery traffic to clear probation via shadow requests.
    let mut failures = 0;
    for _ in 0..60 {
        for client in &handles {
            if client.call(MethodId::DEFAULT, b"steady").is_err() {
                failures += 1;
            }
        }
        std::thread::sleep(StdDuration::from_millis(50));
    }
    for client in &handles {
        client.finish_observability();
    }
    assert!(
        failures <= 2,
        "the crash window must be masked by the other replicas, {failures} calls failed"
    );

    // (a) The recovered replica is back in every handle's repository and
    // selectable: probation has been served and cleared.
    for client in &handles {
        client.with_handler(|h| {
            let repo = h.repository();
            assert!(
                repo.contains(ReplicaId::new(0)),
                "recovered replica rejoined the repository"
            );
            assert!(
                repo.selectable_ids().any(|id| id == ReplicaId::new(0)),
                "probation cleared: replica 0 is selectable again"
            );
        });
    }

    // The journal shows the full story: the fault window opening and
    // closing, and probation starting and clearing.
    let faults: Vec<String> = reader.lines_containing(r#""type":"fault""#);
    assert!(
        faults
            .iter()
            .any(|l| l.contains(r#""phase":"active""#) && l.contains(r#""kind":"crash""#)),
        "fault activation journalled: {faults:?}"
    );
    assert!(
        faults.iter().any(|l| l.contains(r#""phase":"cleared""#)),
        "fault clearance journalled: {faults:?}"
    );
    // Each handle (clients 0 and 1) put the replica on probation and
    // cleared it.
    let probation: Vec<String> = reader.lines_containing(r#""type":"probation""#);
    for client in [r#""client":"0""#, r#""client":"1""#] {
        for phase in [r#""phase":"started""#, r#""phase":"cleared""#] {
            assert!(
                probation
                    .iter()
                    .any(|l| l.contains(client) && l.contains(phase)),
                "{client} {phase} journalled: {probation:?}"
            );
        }
    }
    assert!(
        obs.prometheus().contains("aqua_client_reconnects_total"),
        "reconnects counted"
    );
}

/// The deadline-driven retry: when the sole selected replica stalls, the
/// intermediate retry deadline re-runs Algorithm 1 over the *remaining*
/// replicas and the sibling attempt completes well before the give-up
/// window.
#[test]
fn stalled_replica_is_masked_by_deadline_retry() {
    let (obs, reader) = aqua_obs::Obs::in_memory();

    // Replica 0 is the fastest — and pauses (queued work stalls but
    // survives) from 700 ms to 2.2 s on its own clock.
    let plan = FaultPlan::new().pause(0, Instant::from_millis(700), ms(1_500));
    let spawn_t = StdInstant::now();
    let mut servers = Vec::new();
    for i in 0..2u64 {
        let mut cfg = ReplicaServerConfig::quick(ReplicaId::new(i), if i == 0 { 5 } else { 20 });
        if i == 0 {
            cfg.faults = Some(plan.instantiate(7));
        }
        servers.push(ReplicaServer::spawn(cfg).expect("spawn"));
    }

    let mut config = MuxPoolConfig::new(QosSpec::new(ms(200), 0.9).unwrap());
    config.give_up_after = ms(2_500);
    config.retry_after = Some(ms(300));
    config.obs = Some(obs.clone());
    let pool = MuxPool::connect(&replicas_of(&servers), config).expect("connect");
    // FastestMean k=1 pins the selection to replica 0 once it is warm.
    let client = pool.handle(Box::new(FastestMean { k: 1 }));

    // Warm both replicas up (cold start multicasts to everyone).
    for _ in 0..3 {
        client.call(MethodId::DEFAULT, b"warm").expect("warm-up ok");
    }
    client.with_handler(|h| assert!(h.repository().all_warm()));

    // Step into the pause window, then call: the selection (replica 0)
    // stalls, the retry re-plans over the remainder (replica 1) and wins.
    let into_window = StdDuration::from_millis(900).saturating_sub(spawn_t.elapsed());
    std::thread::sleep(into_window);
    let issued = StdInstant::now();
    let out = client
        .call(MethodId::DEFAULT, b"stalled")
        .expect("retry masks the stall");
    let elapsed = issued.elapsed();
    client.finish_observability();

    assert_eq!(
        out.replica,
        ReplicaId::new(1),
        "the retry's replica answered"
    );
    assert_eq!(out.redundancy, 2, "one original target + one retry target");
    assert!(
        elapsed >= StdDuration::from_millis(300),
        "no reply can precede the retry deadline, got {elapsed:?}"
    );
    assert!(
        elapsed < StdDuration::from_millis(2_000),
        "the retry resolved the call well before the give-up window, got {elapsed:?}"
    );
    let retries = client.with_handler(|h| h.stats().retries);
    assert_eq!(retries, 1, "exactly one retry was planned");

    // The journal records the retry and the superseded original attempt.
    let retry_events = reader.lines_containing(r#""type":"retry""#);
    assert_eq!(retry_events.len(), 1, "{retry_events:?}");
    let superseded = reader.lines_containing(r#""outcome":"superseded""#);
    assert_eq!(superseded.len(), 1, "{superseded:?}");
}

/// Satellite: when every replica is evicted while a call is in flight, the
/// call fails with [`CallError::NoReplicas`] immediately rather than
/// riding out the give-up timer.
#[test]
fn in_flight_call_fails_fast_when_all_replicas_evicted() {
    let servers = vec![
        ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(0), 800)).expect("spawn"),
    ];
    let mut config = MuxPoolConfig::new(QosSpec::new(ms(500), 0.0).unwrap());
    config.give_up_after = Duration::from_secs(10);
    config.reconnect = None; // eviction is final
    let pool = MuxPool::connect(&replicas_of(&servers), config).expect("connect");
    let client = std::sync::Arc::new(pool.handle(Box::new(ModelBased::default())));

    let caller = {
        let client = std::sync::Arc::clone(&client);
        std::thread::spawn(move || {
            let issued = StdInstant::now();
            let res = client.call(MethodId::DEFAULT, b"doomed");
            (res, issued.elapsed())
        })
    };
    // Let the request reach the (slow) replica, then crash it mid-service.
    std::thread::sleep(StdDuration::from_millis(150));
    servers[0].crash();

    let (res, elapsed) = caller.join().expect("caller thread");
    let err = res.expect_err("no replica could have answered");
    assert!(matches!(err, CallError::NoReplicas), "{err}");
    assert!(
        elapsed < StdDuration::from_secs(5),
        "failed fast, not at the 10 s give-up: {elapsed:?}"
    );
    // The failure is accounted: the logical request gave up.
    client.with_handler(|h| {
        assert_eq!(h.pending_count(), 0, "no orphaned pending request");
        assert_eq!(h.detector().failures(), 1, "one timing failure recorded");
    });
}

/// Satellite: a replica crashing *while servicing* an in-flight request is
/// masked by the redundant targets of the same multicast.
#[test]
fn crash_during_inflight_request_is_masked_by_redundancy() {
    // Replica 0 would answer first (100 ms) but crashes mid-service;
    // replicas 1 and 2 (400 ms) carry the request home.
    let services = [100u64, 400, 400];
    let servers: Vec<ReplicaServer> = services
        .iter()
        .enumerate()
        .map(|(i, s)| {
            ReplicaServer::spawn(ReplicaServerConfig::quick(ReplicaId::new(i as u64), *s))
                .expect("spawn")
        })
        .collect();
    let mut config = MuxPoolConfig::new(QosSpec::new(Duration::from_secs(1), 0.9).unwrap());
    config.give_up_after = Duration::from_secs(5);
    config.reconnect = None;
    let pool = MuxPool::connect(&replicas_of(&servers), config).expect("connect");
    let client = std::sync::Arc::new(pool.handle(Box::new(ModelBased::default())));

    // The cold-start call multicasts to all three replicas.
    let caller = {
        let client = std::sync::Arc::clone(&client);
        std::thread::spawn(move || client.call(MethodId::DEFAULT, b"first"))
    };
    std::thread::sleep(StdDuration::from_millis(30));
    servers[0].crash();

    let out = caller
        .join()
        .expect("caller thread")
        .expect("the surviving replicas answered");
    assert_ne!(
        out.replica,
        ReplicaId::new(0),
        "the crashed replica cannot win"
    );
    assert_eq!(out.redundancy, 3, "cold start selected everyone");
    assert!(out.timely, "a 400 ms reply meets the 1 s deadline");
    client.with_handler(|h| {
        assert!(
            !h.repository().contains(ReplicaId::new(0)),
            "the disconnect evicted the crashed replica"
        );
        assert_eq!(h.stats().delivered, 1);
    });
}
