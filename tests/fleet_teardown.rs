//! Dropping a fleet frees everything it built. The network's registry
//! owns the services bound on it, so a service that held a strong
//! network handle (the server for its plan counters, a mirror for its
//! read-through requests) used to keep itself and the whole network
//! alive after the fleet was gone: every benchmark iteration leaked a
//! server, its database and its mirrors. Each fleet here runs a full
//! upgrade first, so every lifecycle task and cache has been touched.

use std::sync::{Arc, Weak};

use drivolution::bootloader::Bootloader;
use drivolution::fleet::{FleetSim, RenewalAggregator};
use drivolution::netsim::WeakNetwork;
use drivolution::prelude::*;

const MINUTE: u64 = 60_000;

struct Probes {
    net: WeakNetwork,
    server: Weak<DrivolutionServer>,
    mirrors: Vec<Weak<MirrorDepot>>,
    aggregators: Vec<Weak<RenewalAggregator>>,
    clients: Vec<Weak<Bootloader>>,
}

fn upgrade_then_probe(sim: &FleetSim) -> Probes {
    sim.bootstrap_all();
    sim.publish_upgrade(false);
    let r = sim.run_until_upgraded(1_000, 30 * MINUTE);
    assert!(
        (sim.fraction_on(DriverVersion::new(2, 0, 0)) - 1.0).abs() < f64::EPSILON,
        "fleet did not converge: {r:?}"
    );
    Probes {
        net: sim.net().downgrade(),
        server: Arc::downgrade(sim.server()),
        mirrors: sim.mirrors().iter().map(Arc::downgrade).collect(),
        aggregators: sim.aggregators().iter().map(Arc::downgrade).collect(),
        clients: sim.clients().iter().map(Arc::downgrade).collect(),
    }
}

fn assert_freed(p: &Probes, fleet: &str) {
    assert!(p.server.upgrade().is_none(), "{fleet}: server leaked");
    for (i, m) in p.mirrors.iter().enumerate() {
        assert!(m.upgrade().is_none(), "{fleet}: mirror {i} leaked");
    }
    for (i, a) in p.aggregators.iter().enumerate() {
        assert!(a.upgrade().is_none(), "{fleet}: aggregator {i} leaked");
    }
    for (i, c) in p.clients.iter().enumerate() {
        assert!(c.upgrade().is_none(), "{fleet}: client {i} leaked");
    }
    assert!(p.net.upgrade().is_none(), "{fleet}: network leaked");
}

#[test]
fn dropping_a_hotswap_fleet_frees_server_and_clients() {
    let sim = FleetSim::build_hotswap(4, 10 * MINUTE, Some(SwapConfig::default()));
    let probes = upgrade_then_probe(&sim);
    assert_eq!(probes.clients.len(), 4);
    drop(sim);
    assert_freed(&probes, "hotswap");
}

#[test]
fn dropping_a_cdn_fleet_frees_server_mirrors_and_clients() {
    let zones = ["east", "west", "south"];
    let sim = FleetSim::build_cdn(6, 10 * MINUTE, &zones, 16 * 1024, 1, 25);
    let probes = upgrade_then_probe(&sim);
    assert_eq!(probes.mirrors.len(), zones.len());
    drop(sim);
    assert_freed(&probes, "cdn");
}

#[test]
fn dropping_a_batched_rollout_fleet_frees_server_aggregators_and_clients() {
    let sim = FleetSim::build_rollout_batched(8, 10 * MINUTE, 0);
    let probes = upgrade_then_probe(&sim);
    assert!(!probes.aggregators.is_empty());
    drop(sim);
    assert_freed(&probes, "rollout_batched");
}
