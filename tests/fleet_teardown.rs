//! Dropping a fleet frees everything it built. The network's registry
//! owns the services bound on it, so a service that held a strong
//! network handle (the server for its plan counters, a mirror for its
//! read-through requests) used to keep itself and the whole network
//! alive after the fleet was gone: every benchmark iteration leaked a
//! server, its database and its mirrors. Each fleet here runs a full
//! upgrade first, so every lifecycle task and cache has been touched.
//! The cluster case does the same for a controller group: a cluster
//! controller is itself a bound service, and group members used to hold
//! each other through the group.

use std::sync::{Arc, Weak};

use drivolution::bootloader::Bootloader;
use drivolution::cluster::{
    cluster_image, Backend, ConnFactory, Controller, Group, VirtualDb, CLUSTER_V2,
};
use drivolution::core::pack::pack_driver;
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

/// A replica backend whose connection factory looks the network up per
/// connection. A factory that owned a driver holding the network (as
/// `Backend::with_driver(legacy_driver(..))` does) would keep it alive
/// from inside the bound controller.
fn replica(net: &Network, ctrl: u32, r: u32) -> (Backend, Arc<MiniDb>) {
    let host = format!("replica{ctrl}{r}");
    let db = Arc::new(MiniDb::with_clock("vdb", net.clock().clone()));
    {
        let mut s = db.admin_session();
        db.exec(&mut s, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
    }
    net.bind_arc(
        Addr::new(host.clone(), 5432),
        Arc::new(DbServer::new(db.clone())),
    )
    .unwrap();
    let url = DbUrl::direct(Addr::new(host.clone(), 5432), "vdb");
    let weak = net.downgrade();
    let local = Addr::new(format!("controller{ctrl}"), 1);
    let u = url.clone();
    let factory: ConnFactory = Arc::new(move || {
        let net = weak
            .upgrade()
            .ok_or_else(|| DkError::Closed("network torn down".into()))?;
        legacy_driver(&net, &local, 2)?.connect(&u, &ConnectProps::user("admin", "admin"))
    });
    (Backend::new(host, url, factory), db)
}

#[test]
fn dropping_a_cluster_frees_network_controllers_group_servers_and_mirror() {
    let net = Network::new();
    let group = Group::new("g");
    let mut ctrls = Vec::new();
    let mut dbs = Vec::new();
    for id in 1u32..=2 {
        let (b0, db0) = replica(&net, id, 0);
        let (b1, db1) = replica(&net, id, 1);
        dbs.extend([db0, db1]);
        let ctrl = Controller::launch(
            &net,
            id,
            Addr::new(format!("controller{id}"), 25322),
            VirtualDb::new("vdb", vec![b0, b1]),
            CLUSTER_V2,
        )
        .unwrap();
        group.join(&ctrl);
        ctrls.push(ctrl);
    }
    let s1 = ctrls[0].embed_drivolution(ServerConfig::default()).unwrap();
    let s2 = ctrls[1].embed_drivolution(ServerConfig::default()).unwrap();
    let mirror = ctrls[1].attach_depot_mirror(7000).unwrap();

    // One replicated driver install and one replicated write, then a
    // rolling restart of the mirror's controller.
    let v1 = DriverVersion::new(1, 0, 0);
    s1.install_driver(
        &DriverRecord::new(
            DriverId(1),
            ApiName::rdbc(),
            BinaryFormat::Djar,
            pack_driver(BinaryFormat::Djar, &cluster_image("sequoia-driver", v1, 2)),
        )
        .with_version(v1),
    )
    .unwrap();
    assert_eq!(
        s2.store().records().unwrap().len(),
        1,
        "install did not replicate"
    );
    group
        .ordered_write(&ctrls[0], "INSERT INTO t VALUES (1)")
        .unwrap();
    for db in &dbs {
        assert_eq!(db.table_len("t").unwrap(), 1, "write did not replicate");
    }
    ctrls[1].stop();
    ctrls[1].start().unwrap();
    net.run_until(net.clock().now_ms() + 10 * MINUTE);
    assert!(ctrls[1].is_running());

    let net_probe = net.downgrade();
    let ctrl_probes: Vec<Weak<Controller>> = ctrls.iter().map(Arc::downgrade).collect();
    let group_probe = Arc::downgrade(&group);
    let server_probes = [Arc::downgrade(&s1), Arc::downgrade(&s2)];
    let mirror_probe = Arc::downgrade(&mirror);
    drop((net, group, ctrls, dbs, s1, s2, mirror));

    for (i, c) in ctrl_probes.iter().enumerate() {
        assert!(c.upgrade().is_none(), "cluster: controller {i} leaked");
    }
    assert!(group_probe.upgrade().is_none(), "cluster: group leaked");
    for (i, s) in server_probes.iter().enumerate() {
        assert!(s.upgrade().is_none(), "cluster: server {i} leaked");
    }
    assert!(mirror_probe.upgrade().is_none(), "cluster: mirror leaked");
    assert!(net_probe.upgrade().is_none(), "cluster: network leaked");
}
