//! Socket-runtime actuation for the elastic supervisor (DESIGN.md §14).
//!
//! The decision engine is the same [`SupervisorPolicy`] the simulator's
//! `DependabilityManager` runs — pure logic, shared verbatim — and this
//! driver is the thin seam that feeds it from a live [`MuxHandle`]:
//! replica-scoped calibration alerts arrive through the handle's
//! watchdog hook, queue depths are sampled from the merged information
//! repository's piggybacked `outstanding` counts, and the embedder calls
//! [`SupervisorDriver::tick`] on its own cadence (a timer thread, the
//! chaos harness's loop, …) and actuates the returned actions with the
//! client API: [`MuxHandle::renegotiate`] on an escalation,
//! [`MuxPool::add_replica`](crate::MuxPool::add_replica) to cover a
//! deficit, dropping a server handle to drain it.
//!
//! Splitting decision from actuation keeps the policy testable and the
//! replay story intact: a seeded driver produces the same action
//! sequence as the simulated manager fed the same observations.

use std::sync::{Arc, Mutex};

use aqua_core::time::Instant;
use aqua_gateway::{SupervisorAction, SupervisorConfig, SupervisorPolicy};

use crate::mux::MuxHandle;

/// Hosts one [`SupervisorPolicy`] for a socket deployment. Cheap to
/// clone (shared state); hooks registered with [`watch`] keep feeding
/// the same policy.
///
/// [`watch`]: SupervisorDriver::watch
#[derive(Clone)]
pub struct SupervisorDriver {
    policy: Arc<Mutex<SupervisorPolicy>>,
}

impl SupervisorDriver {
    /// A driver starting at `initial_target` replicas (clamped to the
    /// configured bounds).
    pub fn new(initial_target: usize, config: SupervisorConfig) -> Self {
        SupervisorDriver {
            policy: Arc::new(Mutex::new(SupervisorPolicy::new(initial_target, config))),
        }
    }

    /// Registers this driver on the handle's calibration watchdog:
    /// replica-scoped alerts become quarantine evidence, set-scoped
    /// alerts become overload evidence. No-op without observability
    /// configured on the pool.
    pub fn watch(&self, client: &MuxHandle) {
        let policy = Arc::clone(&self.policy);
        client.on_calibration_alert(move |alert| {
            policy
                .lock()
                .expect("supervisor policy poisoned")
                .on_alert(Instant::from_nanos(alert.at_nanos), alert.replica);
        });
    }

    /// Samples every replica's smoothed queue depth from the handle's
    /// merged repository (the `outstanding` counts piggybacked on perf
    /// reports). Call alongside [`tick`](SupervisorDriver::tick).
    pub fn sample_queues(&self, client: &MuxHandle) {
        let repository = client.with_handler(|h| h.repository());
        let mut policy = self.policy.lock().expect("supervisor policy poisoned");
        for (id, stats) in repository.iter() {
            policy.on_queue_sample(id.index(), stats.outstanding());
        }
    }

    /// Feeds one queue-depth observation directly (for embedders that
    /// tap perf updates themselves).
    pub fn on_queue_sample(&self, replica: u64, queue_len: u32) {
        self.policy
            .lock()
            .expect("supervisor policy poisoned")
            .on_queue_sample(replica, queue_len);
    }

    /// Forgets a replica's signal history (it left the fleet); a rejoin
    /// starts clean.
    pub fn forget(&self, replica: u64) {
        self.policy
            .lock()
            .expect("supervisor policy poisoned")
            .forget(replica);
    }

    /// The current effective replication target.
    pub fn target(&self) -> usize {
        self.policy
            .lock()
            .expect("supervisor policy poisoned")
            .target()
    }

    /// Runs one decision round against the live fleet and returns the
    /// actions to actuate, in order. The policy assumes every returned
    /// action is carried out.
    pub fn tick(&self, now: Instant, live: &[u64]) -> Vec<SupervisorAction> {
        self.policy
            .lock()
            .expect("supervisor policy poisoned")
            .tick(now, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_core::time::Duration;

    fn config(seed: u64) -> SupervisorConfig {
        SupervisorConfig {
            min_replication: 1,
            max_replication: 4,
            overload_queue: 4.0,
            underload_queue: 1.0,
            decision_interval: Duration::from_secs(1),
            seed,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn queue_pressure_walks_the_target_both_ways() {
        let driver = SupervisorDriver::new(3, config(7));
        let live = [0, 1, 2];
        for r in live {
            for _ in 0..20 {
                driver.on_queue_sample(r, 9);
            }
        }
        let actions = driver.tick(Instant::from_secs(1), &live);
        assert!(actions
            .iter()
            .any(|a| matches!(a, SupervisorAction::SetTarget { target: 2, .. })));
        assert_eq!(driver.target(), 2);
        for r in live {
            for _ in 0..40 {
                driver.on_queue_sample(r, 0);
            }
        }
        let actions = driver.tick(Instant::from_secs(3), &live);
        assert!(actions
            .iter()
            .any(|a| matches!(a, SupervisorAction::SetTarget { target: 3, .. })));
    }

    #[test]
    fn shared_policy_is_seed_deterministic() {
        let run = |seed| {
            let driver = SupervisorDriver::new(3, config(seed));
            let now = Instant::from_secs(5);
            for r in [0, 1] {
                driver.policy.lock().unwrap().on_alert(now, Some(r));
                driver.policy.lock().unwrap().on_alert(now, Some(r));
            }
            driver.tick(Instant::from_secs(6), &[0, 1, 2])
        };
        assert_eq!(run(42), run(42), "same seed, same victim");
    }
}
