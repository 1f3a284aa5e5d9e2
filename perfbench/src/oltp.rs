//! `hotswap_oltp`: the per-statement path under a hot swap.
//!
//! 50 clients each hold one bootloader-managed connection and run a
//! closed loop of seeded transactions over a fixed-size table: in each
//! round every client runs one transaction and waits for it to finish,
//! then the scheduler advances two virtual seconds (lease renewals,
//! swap-coordinator ticks). The target driver is published half-way;
//! every client upgrades at its next renewal and its session migrates
//! at a transaction boundary while the load continues.

use driverkit::Connection;
use drivolution_bootloader::{ManagedConnection, SwapConfig};
use drivolution_core::RenewPolicy;
use fleet::FleetSim;

use crate::common::{self, Counters, Outcome};
use crate::inputs::{driver_chain, txn_rng, DriverChain};
use crate::speed;
use crate::trace::{span, wrap_services};

const CLIENTS: usize = 50;
const LEASE_MS: u64 = 5 * 60_000;
const CODE_LEN: usize = 1024 * 1024;
const REGION_LEN: usize = 256 * 1024;
/// Closed-loop rounds, each one transaction per client, and the round
/// the target is published at.
const ROUNDS: usize = 400;
const PUBLISH_ROUND: usize = 200;
const STEP_MS: u64 = 2_000;

pub fn inputs(seed: u64) -> DriverChain {
    driver_chain(seed, CODE_LEN, REGION_LEN, 1)
}

pub fn run(chain: &DriverChain, seed: u64, traced: bool) -> Result<Outcome, String> {
    let target = &chain.upgrades[0];
    let mut out = Outcome {
        clients: CLIENTS,
        ..Outcome::default()
    };

    let t = speed::mark();
    let (sim, mut conns) = span("phase.setup", || -> Result<_, String> {
        let sim = FleetSim::build_hotswap(CLIENTS, LEASE_MS, Some(SwapConfig::default()));
        if traced {
            wrap_services(
                sim.net(),
                &common::server_addr(),
                sim.server(),
                sim.mirrors(),
            )?;
        }
        common::install_base(&sim, &chain.base, LEASE_MS)?;
        let mut conns: Vec<ManagedConnection> = Vec::with_capacity(CLIENTS);
        for (i, c) in sim.clients().iter().enumerate() {
            conns.push(common::connect(c, &sim).map_err(|e| format!("client {i} boot: {e}"))?);
        }
        common::create_table(&mut conns[0])?;
        Ok((sim, conns))
    })?;
    out.setup = speed::since(t);

    sim.net().stats().reset();
    let before = Counters::capture(&sim);
    let mut rng = txn_rng(seed);
    out.txn_us.reserve(ROUNDS * CLIENTS);
    out.txn_raw_us.reserve(ROUNDS * CLIENTS);
    let t = speed::mark();
    let converged = span("phase.run", || -> Result<Option<u64>, String> {
        let mut published_at = None;
        let mut converged = None;
        for round in 0..ROUNDS {
            if round == PUBLISH_ROUND {
                common::publish(
                    &sim,
                    target,
                    LEASE_MS,
                    Some(chain.base.record.id),
                    RenewPolicy::Upgrade,
                )?;
                published_at = Some(sim.net().clock().now_ms());
            }
            for (i, conn) in conns.iter_mut().enumerate() {
                if !common::timed_txn(conn, &mut rng, &mut out) && !conn.is_open() {
                    *conn = common::connect(&sim.clients()[i], &sim)
                        .map_err(|e| format!("client {i} reconnect: {e}"))?;
                }
            }
            let now = sim.net().clock().now_ms();
            out.fired += common::pump(&sim, now + STEP_MS);
            if let (Some(at), None) = (published_at, converged) {
                if sim.count_on(target.version) == CLIENTS {
                    converged = Some(sim.net().clock().now_ms() - at);
                }
            }
        }
        Ok(converged)
    })?;
    out.run = speed::since(t);
    out.counters = Counters::capture(&sim).since(&before);
    out.txn_db_requests = out.counters.db_requests;

    out.convergence_ms.push(converged.unwrap_or(u64::MAX));
    out.check(converged.is_some(), || "the fleet never converged".into());
    let off = common::off_target(&sim, target);
    out.upgrades_attempted = CLIENTS as u64;
    out.upgrades_failed = off as u64;
    out.check(off == 0, || {
        format!("{off} clients not running the published image")
    });
    match span("phase.check", || common::check_table(&mut conns[0])) {
        Ok(f) => out.table_fingerprint = f,
        Err(e) => out.errors.push(e),
    }

    out.shape = vec![
        ("clients", CLIENTS as u64),
        ("txns", out.txn_us.len() as u64),
        ("upgrades", out.counters.upgrades),
        ("windows_opened", out.counters.windows_opened),
    ];
    Ok(out)
}
