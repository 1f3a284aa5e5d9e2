//! `cdn_chaos`: the data plane under the chaos schedule.
//!
//! 192 clients across three zones, one depot mirror per zone, 1 MiB
//! drivers. Two seeded delta upgrades run while a byzantine mirror
//! corrupts 25 % of its serves, an east–south partition heals, and a 6×
//! latency storm passes. There is no shared image cache, no batching
//! and no rollout orchestrator: every client chunks, fetches and
//! verifies its own delta.

use drivolution_core::RenewPolicy;
use fleet::FleetSim;
use netsim::ChaosSchedule;

use crate::common::{self, Counters, Outcome};
use crate::inputs::{driver_chain, txn_rng, DriverChain};
use crate::speed;
use crate::trace::{span, wrap_services};

const CLIENTS: usize = 192;
const ZONES: [&str; 3] = ["east", "west", "south"];
const MINUTE: u64 = 60_000;
const LEASE_MS: u64 = 10 * MINUTE;
const STEP_MS: u64 = 5_000;
const MAX_MS: u64 = 90 * MINUTE;
const SAME_ZONE_MS: u64 = 1;
const CROSS_ZONE_MS: u64 = 25;
const CODE_LEN: usize = 1024 * 1024;
const REGION_LEN: usize = 256 * 1024;
const CORRUPT_RATE: f64 = 0.25;
const BYZANTINE: &str = "mirror-west";
/// Every PROBE_STRIDE-th client (16 per zone) runs PROBE_TXNS
/// post-upgrade transactions.
const PROBE_STRIDE: usize = 4;
const PROBE_TXNS: usize = 208;

pub fn inputs(seed: u64) -> DriverChain {
    driver_chain(seed, CODE_LEN, REGION_LEN, 2)
}

/// Pumps until every client runs `version` (or `MAX_MS` passes);
/// returns the virtual ms that took.
fn converge(sim: &FleetSim, drv: &crate::inputs::Driver, fired: &mut u64) -> Option<u64> {
    let start = sim.net().clock().now_ms();
    loop {
        let now = sim.net().clock().now_ms();
        if sim.count_on(drv.version) == CLIENTS {
            return Some(now - start);
        }
        if now - start >= MAX_MS {
            return None;
        }
        *fired += common::pump(sim, now + STEP_MS);
    }
}

pub fn run(chain: &DriverChain, seed: u64, traced: bool) -> Result<Outcome, String> {
    let (v2, v3) = (&chain.upgrades[0], &chain.upgrades[1]);
    let mut out = Outcome {
        clients: CLIENTS,
        ..Outcome::default()
    };

    let t = speed::mark();
    let sim = span("phase.setup", || -> Result<FleetSim, String> {
        let sim = FleetSim::build_cdn(CLIENTS, LEASE_MS, &ZONES, 0, SAME_ZONE_MS, CROSS_ZONE_MS);
        sim.net().scheduler().reseed(seed);
        sim.net().reseed(seed);
        if traced {
            wrap_services(
                sim.net(),
                &common::server_addr(),
                sim.server(),
                sim.mirrors(),
            )?;
        }
        common::install_base(&sim, &chain.base, LEASE_MS)?;
        let mut conn = common::boot_all(&sim)?;
        common::create_table(&mut conn)?;
        let t0 = sim.net().clock().now_ms();
        sim.install_chaos(
            &ChaosSchedule::new()
                .byzantine_mirror(BYZANTINE, CORRUPT_RATE, t0, t0 + 200 * MINUTE)
                .zone_partition("east", "south", t0 + 2 * MINUTE, t0 + 8 * MINUTE)
                .latency_storm(6, t0 + 3 * MINUTE, t0 + 10 * MINUTE),
        );
        common::publish(
            &sim,
            v2,
            LEASE_MS,
            Some(chain.base.record.id),
            RenewPolicy::Upgrade,
        )?;
        Ok(sim)
    })?;
    out.setup = speed::since(t);

    sim.net().stats().reset();
    let before = Counters::capture(&sim);
    let t = speed::mark();
    let converged = span("phase.run", || -> Result<_, String> {
        let c2 = converge(&sim, v2, &mut out.fired);
        let off2 = common::off_target(&sim, v2);
        common::publish(&sim, v3, LEASE_MS, Some(v2.record.id), RenewPolicy::Upgrade)?;
        let c3 = converge(&sim, v3, &mut out.fired);
        Ok(([c2, c3], off2))
    })?;
    let (converged, off2) = converged;
    out.run = speed::since(t);
    out.counters = Counters::capture(&sim).since(&before);

    for (c, name) in converged.iter().zip(["v2", "v3"]) {
        out.convergence_ms.push(c.unwrap_or(u64::MAX));
        out.check(c.is_some(), || format!("{name} never converged"));
    }
    let off = off2 + common::off_target(&sim, v3);
    out.upgrades_attempted = 2 * CLIENTS as u64;
    out.upgrades_failed = off as u64;
    out.check(off == 0, || {
        format!("{off} client upgrades did not end on the published image")
    });
    let dir = sim.server().mirror_directory();
    let byzantine = format!("{BYZANTINE}:1071");
    out.healthy_demotions = dir
        .snapshot()
        .iter()
        .filter(|e| e.location != byzantine && e.demoted)
        .count() as u64;
    out.check(out.healthy_demotions == 0, || {
        "a healthy mirror was demoted".to_string()
    });

    let mut rng = txn_rng(seed);
    let offset = rng.below(PROBE_STRIDE as u64) as usize;
    let sample: Vec<usize> = (offset..CLIENTS).step_by(PROBE_STRIDE).collect();
    common::probe(&sim, &sample, PROBE_TXNS, &mut rng, &mut out)?;

    out.shape = vec![
        ("clients", CLIENTS as u64),
        ("upgrades", out.counters.upgrades),
        ("image_reuses", out.counters.image_reuses),
        ("batch_frames", out.counters.batch_frames),
        ("probe_txns", out.txn_us.len() as u64),
    ];
    Ok(out)
}
