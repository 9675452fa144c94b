//! The two named workloads. Each is a `SimulationConfig` built from the
//! run's seed; the horizons are chosen so one engine run takes one to two
//! seconds of wall time on a 2-core 2 GHz Xeon VM, which lets a 55-second
//! measurement take the median of thirty or more runs.
//!
//! Arrivals are Poisson in *virtual* time at rate = workload fraction ×
//! total capacity ÷ mean query cost, and one engine thread runs them as
//! fast as it can: in real time each workload is a closed loop with one
//! query outstanding, so throughput is work per second at a fixed input
//! size.

use sqlb_agents::{ConsumerDepartureRule, EnabledReasons, ProviderDepartureRule};
use sqlb_sim::{MediationMode, RoutingPolicyKind, SimulationConfig, WorkloadPattern};

/// The workload names, in the order the summary prints them.
pub const NAMES: [&str; 2] = ["sharded-k8", "socket-loopback"];

/// Virtual seconds of one `sharded-k8` run: 100 `SyncViews` rounds, 25
/// `Rebalance` rounds and 100 assessments at the scaled configuration's
/// intervals.
const SHARDED_SECS: f64 = 1_000.0;
/// Virtual seconds of one `socket-loopback` run.
const SOCKET_SECS: f64 = 16.0;

/// The configuration of workload `name` for `seed`, or `None` for an
/// unknown name. Every workload scores with one thread (`nproc` = 2
/// leaves the second core to the socket workload's host thread).
pub fn config(name: &str, seed: u64) -> Option<SimulationConfig> {
    let config = match name {
        // 200 × 400, K = 8, least-loaded routing with migration, 80% load,
        // every provider departure reason plus consumer departures.
        "sharded-k8" => SimulationConfig::scaled(200, 400, SHARDED_SECS, seed)
            .with_workload(WorkloadPattern::Fixed(0.8))
            .with_mediator_shards(8)
            .with_routing(RoutingPolicyKind::LeastLoaded)
            .with_migration(true)
            .with_provider_departures(ProviderDepartureRule::with_enabled(EnabledReasons::ALL))
            .with_consumer_departures(ConsumerDepartureRule::default()),
        // 200 × 400, K = 1 over loopback TCP, one host, coalescing on.
        "socket-loopback" => SimulationConfig::scaled(200, 400, SOCKET_SECS, seed)
            .with_workload(WorkloadPattern::Fixed(0.6))
            .with_mediation(MediationMode::Socket)
            .with_socket_hosts(1)
            .with_socket_wave_coalescing(true),
        _ => return None,
    };
    Some(config.with_scoring_threads(1).with_observability(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_has_a_valid_config() {
        for name in NAMES {
            let config = config(name, 7).expect(name);
            config.validate().expect(name);
            assert_eq!(config.scoring_threads, 1, "{name}");
            assert!(!config.observability, "{name}");
        }
        assert!(config("no-such-workload", 7).is_none());
    }
}
