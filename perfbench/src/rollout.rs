//! `rollout_10k`: the control plane at fleet scale.
//!
//! 10 000 unzoned clients renew through one `RENEW_BATCH` aggregator
//! and share one assembled-image cache. A staged rollout (canary 10,
//! then 10 %, 30 %, the rest) delivers a 64 KiB driver whose
//! seed-chosen 4 KiB region differs from the base. The measured phase
//! is the rollout, from its start until the orchestrator reports
//! `Complete`; this is the loop `BENCH_rollout.json`'s upgrade wall
//! time comes from.

use std::time::Duration;

use drivolution_core::RenewPolicy;
use drivolution_server::{RolloutConfig, RolloutPhase, RolloutPlan};
use fleet::FleetSim;

use crate::common::{self, Counters, Outcome};
use crate::inputs::{driver_chain, txn_rng, DriverChain};
use crate::speed;
use crate::trace::{span, wrap_services};

const CLIENTS: usize = 10_000;
const MINUTE: u64 = 60_000;
const LEASE_MS: u64 = 10 * MINUTE;
const STEP_MS: u64 = MINUTE;
const CODE_LEN: usize = 64 * 1024;
const REGION_LEN: usize = 4 * 1024;
/// Clients that run post-upgrade transactions, and how many each. Few
/// clients with many transactions keep the probe's working set small,
/// so its latency is the transaction path's, not cache misses across
/// the fleet's heap.
const PROBE_CLIENTS: usize = 100;
const PROBE_TXNS: usize = 100;

pub fn inputs(seed: u64) -> DriverChain {
    driver_chain(seed, CODE_LEN, REGION_LEN, 1)
}

fn plan() -> RolloutPlan {
    RolloutPlan {
        canary: 10,
        wave_pcts: vec![10, 30],
    }
}

fn config() -> RolloutConfig {
    RolloutConfig {
        evaluate_every: Duration::from_secs(60),
        // The observation window outlasts a lease, so every wave member
        // renews (and reports) inside it.
        observe: Duration::from_millis(LEASE_MS + 5 * MINUTE),
        min_reports: 3,
        ..RolloutConfig::default()
    }
}

pub fn run(chain: &DriverChain, seed: u64, traced: bool) -> Result<Outcome, String> {
    let target = &chain.upgrades[0];
    let mut out = Outcome {
        clients: CLIENTS,
        ..Outcome::default()
    };

    let t = speed::mark();
    let sim = span("phase.setup", || -> Result<FleetSim, String> {
        let sim = FleetSim::build_rollout_batched(CLIENTS, LEASE_MS, 0);
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
        common::publish(&sim, target, LEASE_MS, None, RenewPolicy::Upgrade)?;
        Ok(sim)
    })?;
    out.setup = speed::since(t);

    sim.net().stats().reset();
    let before = Counters::capture(&sim);
    let t = speed::mark();
    let (phase, converged) = span("phase.run", || {
        let ro = sim.start_rollout(chain.base.record.id, target.record.id, &plan(), config());
        let start = sim.net().clock().now_ms();
        let deadline = start + 20 * (LEASE_MS + 5 * MINUTE);
        let mut converged = None;
        loop {
            let now = sim.net().clock().now_ms();
            if now >= deadline {
                break;
            }
            out.fired += common::pump(&sim, now + STEP_MS);
            let status = ro.status();
            // Counting the fleet costs ~10 ms; only the last wave can
            // complete it.
            let last_open = status
                .waves
                .last()
                .is_some_and(|w| w.opened_at_ms.is_some());
            if converged.is_none() && last_open && sim.count_on(target.version) == CLIENTS {
                converged = Some(sim.net().clock().now_ms() - start);
            }
            if !matches!(status.phase, RolloutPhase::Wave(_)) {
                return (status.phase, converged);
            }
        }
        (ro.status().phase, converged)
    });
    out.run = speed::since(t);
    out.counters = Counters::capture(&sim).since(&before);

    out.check(phase == RolloutPhase::Complete, || {
        format!("rollout ended in {phase:?}, not Complete")
    });
    out.convergence_ms.push(converged.unwrap_or(u64::MAX));
    out.check(converged.is_some(), || "the fleet never converged".into());
    let off = common::off_target(&sim, target);
    out.upgrades_attempted = CLIENTS as u64;
    out.upgrades_failed = off as u64;
    out.check(off == 0, || {
        format!("{off} clients not running the published image")
    });

    // Post-upgrade application probe: a seeded, evenly spread sample of
    // clients connects through the new driver and transacts.
    let mut rng = txn_rng(seed);
    let offset = rng.below(CLIENTS as u64) as usize;
    let sample: Vec<usize> = (0..PROBE_CLIENTS)
        .map(|j| (offset + j * (CLIENTS / PROBE_CLIENTS)) % CLIENTS)
        .collect();
    common::probe(&sim, &sample, PROBE_TXNS, &mut rng, &mut out)?;

    out.shape = vec![
        ("clients", CLIENTS as u64),
        ("upgrades", out.counters.upgrades),
        ("plan_misses", out.counters.plan_misses),
        ("plan_hits", out.counters.plan_hits),
        ("batch_frames", out.counters.batch_frames),
        ("batched_renewals", out.counters.batched_renewals),
        ("image_reuses", out.counters.image_reuses),
        ("probe_txns", out.txn_us.len() as u64),
    ];
    Ok(out)
}
