//! Staged-rollout control plane at fleet scale.
//!
//! Two scenarios over a 10 000-client fleet (smoke mode shrinks it):
//!
//! 1. **Healthy staged upgrade** — canary → two percentage waves → full
//!    fleet, every advance gated on activation reports plus an
//!    observation window. Reports per-wave virtual latency and real
//!    wall-clock, and the delta-plan memoization ratio: the server must
//!    *compute* orders of magnitude fewer chunk plans than the clients
//!    it serves (the 10k-client fast path).
//! 2. **Mid-rollout regression** — the canary wave passes, then an
//!    activation fault is injected while a percentage wave is live. The
//!    health gate must halt the rollout and auto-roll every upgraded
//!    client back to the depot-held prior version: zero stranded
//!    clients, zero re-downloaded bytes.
//!
//! This target uses `harness = false`: it is a report generator emitting
//! `BENCH_rollout.json` at the workspace root, and exits nonzero when
//! the rollout claims regress (CI runs it in smoke mode via
//! `ROLLOUT_BENCH_SMOKE=1`).
//!
//! Run with: `cargo bench -p drivolution-bench --bench rollout`

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use drivolution_core::{DriverId, DriverVersion};
use drivolution_server::{RolloutConfig, RolloutPhase, RolloutPlan};
use fleet::FleetSim;

const MINUTE: u64 = 60_000;
const LEASE_MS: u64 = 10 * MINUTE;
const STEP_MS: u64 = MINUTE;
const DRIVER_PADDING: usize = 64 * 1024;

fn v1() -> DriverVersion {
    DriverVersion::new(1, 0, 0)
}

fn v2() -> DriverVersion {
    DriverVersion::new(2, 0, 0)
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
        // The observation window must outlast a lease so every wave
        // member renews (and reports) inside it.
        observe: Duration::from_millis(LEASE_MS + 5 * MINUTE),
        min_reports: 3,
        ..RolloutConfig::default()
    }
}

struct WaveTrace {
    members: usize,
    opened_at_ms: u64,
    ok: usize,
    err: usize,
    /// Real time from the previous wave's opening to this one's.
    wall: Duration,
}

struct HealthyOutcome {
    waves: Vec<WaveTrace>,
    virtual_ms: u64,
    wall: Duration,
    plan_hits: u64,
    plan_misses: u64,
    upgraded: usize,
    complete: bool,
    batch_frames: u64,
    batched_renewals: u64,
    shared_image_reuses: u64,
}

/// Pumps the network until the orchestrator settles, sampling real time
/// whenever a new wave opens. The fleet runs the batched shape: one
/// `RENEW_BATCH` frame per aggregator tick instead of one request per
/// client.
fn run_healthy(clients: usize) -> HealthyOutcome {
    let sim = FleetSim::build_rollout_batched(clients, LEASE_MS, DRIVER_PADDING);
    sim.bootstrap_all();
    sim.publish_staged(2, v2(), DRIVER_PADDING);
    sim.net().stats().reset();
    let ro = sim.start_rollout(DriverId(1), DriverId(2), &plan(), config());

    let started_wall = Instant::now();
    let started_virtual = sim.net().clock().now_ms();
    let deadline = started_virtual + 20 * (LEASE_MS + 5 * MINUTE);
    let mut wave_walls: Vec<(usize, Instant)> = vec![(0, started_wall)];
    loop {
        let now = sim.net().clock().now_ms();
        if now >= deadline {
            break;
        }
        sim.net().run_until(now + STEP_MS);
        match ro.status().phase {
            RolloutPhase::Complete => break,
            RolloutPhase::RolledBack { .. } => break,
            RolloutPhase::Wave(i) => {
                if i >= wave_walls.len() {
                    wave_walls.push((i, Instant::now()));
                }
            }
        }
    }

    let st = ro.status();
    let mut waves = Vec::new();
    for (i, w) in st.waves.iter().enumerate() {
        let here = wave_walls.iter().find(|(wi, _)| *wi == i).map(|(_, t)| *t);
        let prev = if i == 0 {
            Some(started_wall)
        } else {
            wave_walls
                .iter()
                .find(|(wi, _)| *wi == i - 1)
                .map(|(_, t)| *t)
        };
        waves.push(WaveTrace {
            members: w.members,
            opened_at_ms: w.opened_at_ms.unwrap_or(0).saturating_sub(started_virtual),
            ok: w.ok,
            err: w.err,
            wall: match (prev, here) {
                (Some(p), Some(h)) => h.duration_since(p),
                _ => Duration::ZERO,
            },
        });
    }
    let (plan_hits, plan_misses) = sim.net().stats().plan_counters();
    let srv = sim.server().stats();
    HealthyOutcome {
        waves,
        virtual_ms: sim.net().clock().now_ms() - started_virtual,
        wall: started_wall.elapsed(),
        plan_hits,
        plan_misses,
        upgraded: sim.count_on(v2()),
        complete: st.phase == RolloutPhase::Complete,
        batch_frames: srv.batch_frames,
        batched_renewals: srv.batched_renewals,
        shared_image_reuses: sim
            .clients()
            .iter()
            .map(|c| c.stats().shared_image_reuses)
            .sum(),
    }
}

struct RollbackOutcome {
    upgraded_at_fault: usize,
    rolled_back: bool,
    failed_wave: Option<usize>,
    stranded: usize,
    on_prior: usize,
    err_reports: usize,
    virtual_ms_to_recover: u64,
    redownloads: u64,
    revalidations: u64,
}

/// Lets the canary pass, injects an activation fault mid-percentage-wave,
/// and measures the halt plus auto-rollback.
fn run_regression(clients: usize) -> RollbackOutcome {
    let sim = FleetSim::build_rollout_batched(clients, LEASE_MS, DRIVER_PADDING);
    sim.bootstrap_all();
    sim.publish_staged(2, v2(), DRIVER_PADDING);
    let ro = sim.start_rollout(DriverId(1), DriverId(2), &plan(), config());

    // Pump until the first percentage wave is visibly upgrading — the
    // canary wave passed its gate and the blast radius is now real.
    let canary = plan().canary;
    let deadline = sim.net().clock().now_ms() + 20 * (LEASE_MS + 5 * MINUTE);
    while sim.count_on(v2()) <= canary {
        let now = sim.net().clock().now_ms();
        assert!(now < deadline, "rollout never progressed past the canary");
        sim.net().run_until(now + STEP_MS);
    }
    let upgraded_at_fault = sim.count_on(v2());
    sim.inject_activation_fault(Some(v2()));

    // Fetch-counter baseline: from here on, every byte a client fetches
    // again for the *prior* version is a rollback that failed to use
    // the depot.
    let fetches_before: u64 = sim
        .clients()
        .iter()
        .map(|c| {
            let s = c.stats();
            s.downloads + s.delta_downloads
        })
        .sum();
    let reval_before: u64 = sim.clients().iter().map(|c| c.stats().revalidations).sum();

    let fault_at = sim.net().clock().now_ms();
    // Upgrades in flight when the fault lands still complete (and
    // fail); the gate halts the rollout, then every upgraded client
    // rolls back at its next renewal.
    loop {
        let now = sim.net().clock().now_ms();
        if now >= deadline {
            break;
        }
        let st = ro.status();
        if matches!(st.phase, RolloutPhase::RolledBack { .. }) && sim.count_on(v1()) == clients {
            break;
        }
        sim.net().run_until(now + STEP_MS);
    }

    let st = ro.status();
    // Clients that fetched v2 *after* the fault landed also re-fetched
    // nothing on the way back: only revalidations move them.
    let fetches_after: u64 = sim
        .clients()
        .iter()
        .map(|c| {
            let s = c.stats();
            s.downloads + s.delta_downloads
        })
        .sum();
    let reval_after: u64 = sim.clients().iter().map(|c| c.stats().revalidations).sum();
    let late_upgrades = reval_after - reval_before; // every rollback revalidated
    RollbackOutcome {
        upgraded_at_fault,
        rolled_back: matches!(st.phase, RolloutPhase::RolledBack { .. }),
        failed_wave: match st.phase {
            RolloutPhase::RolledBack { failed_wave } => Some(failed_wave),
            _ => None,
        },
        stranded: clients - sim.count_on(v1()),
        on_prior: sim.count_on(v1()),
        err_reports: st.waves.iter().map(|w| w.err).sum(),
        virtual_ms_to_recover: sim.net().clock().now_ms() - fault_at,
        // v2 deltas pulled after the fault are legitimate (in-flight
        // waves); what must be zero is fetches beyond those upgrades.
        redownloads: (fetches_after - fetches_before).saturating_sub(late_upgrades),
        revalidations: reval_after - reval_before,
    }
}

fn main() {
    let smoke = std::env::var("ROLLOUT_BENCH_SMOKE").is_ok();
    let clients = if smoke { 400 } else { 10_000 };

    println!(
        "\nstaged rollout — {clients}-client fleet, canary + {:?}% waves",
        plan().wave_pcts
    );

    let healthy = run_healthy(clients);
    println!("  healthy staged upgrade:");
    for (i, w) in healthy.waves.iter().enumerate() {
        println!(
            "    wave {i}: {:>6} clients, opened t+{:>8} virtual ms, ok {:>6}, wall {:?}",
            w.members, w.opened_at_ms, w.ok, w.wall
        );
    }
    println!(
        "    complete: {} ({} on v2) in {} virtual ms, {:?} wall",
        healthy.complete, healthy.upgraded, healthy.virtual_ms, healthy.wall
    );
    println!(
        "    delta plans: {} computed, {} served from memo",
        healthy.plan_misses, healthy.plan_hits
    );
    println!(
        "    batching: {} renewals coalesced into {} RENEW_BATCH frames",
        healthy.batched_renewals, healthy.batch_frames
    );
    println!(
        "    image sharing: {} upgrades adopted a peer's assembled image",
        healthy.shared_image_reuses
    );
    let rb = run_regression(clients);
    println!("  mid-rollout regression:");
    println!(
        "    fault landed with {} clients upgraded; {} failure reports",
        rb.upgraded_at_fault, rb.err_reports
    );
    println!(
        "    rolled back: {} (failed wave {:?}), {} on prior version, {} stranded",
        rb.rolled_back, rb.failed_wave, rb.on_prior, rb.stranded
    );
    println!(
        "    recovery: {} virtual ms, {} revalidations, {} re-downloads",
        rb.virtual_ms_to_recover, rb.revalidations, rb.redownloads
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"rollout\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"lease_ms\": {LEASE_MS},");
    let _ = writeln!(json, "  \"canary\": {},", plan().canary);
    let _ = writeln!(
        json,
        "  \"wave_pcts\": [{}],",
        plan()
            .wave_pcts
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str("  \"waves\": [\n");
    for (i, w) in healthy.waves.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"wave\": {i}, \"members\": {}, \"opened_at_virtual_ms\": {}, \"ok\": {}, \"err\": {}, \"wall_ms\": {}}}{}",
            w.members,
            w.opened_at_ms,
            w.ok,
            w.err,
            w.wall.as_millis(),
            if i + 1 == healthy.waves.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"upgrade_complete\": {},", healthy.complete);
    let _ = writeln!(json, "  \"upgraded_clients\": {},", healthy.upgraded);
    let _ = writeln!(json, "  \"upgrade_virtual_ms\": {},", healthy.virtual_ms);
    let _ = writeln!(json, "  \"upgrade_wall_ms\": {},", healthy.wall.as_millis());
    let _ = writeln!(json, "  \"delta_plans_computed\": {},", healthy.plan_misses);
    let _ = writeln!(json, "  \"delta_plans_memoized\": {},", healthy.plan_hits);
    let _ = writeln!(json, "  \"batch_frames\": {},", healthy.batch_frames);
    let _ = writeln!(
        json,
        "  \"batched_renewals\": {},",
        healthy.batched_renewals
    );
    let _ = writeln!(
        json,
        "  \"shared_image_reuses\": {},",
        healthy.shared_image_reuses
    );
    let _ = writeln!(
        json,
        "  \"regression_upgraded_at_fault\": {},",
        rb.upgraded_at_fault
    );
    let _ = writeln!(json, "  \"regression_rolled_back\": {},", rb.rolled_back);
    let _ = writeln!(
        json,
        "  \"regression_failed_wave\": {},",
        rb.failed_wave.map_or("null".to_string(), |w| w.to_string())
    );
    let _ = writeln!(json, "  \"regression_stranded\": {},", rb.stranded);
    let _ = writeln!(
        json,
        "  \"regression_recovery_virtual_ms\": {},",
        rb.virtual_ms_to_recover
    );
    let _ = writeln!(json, "  \"rollback_revalidations\": {},", rb.revalidations);
    let _ = writeln!(json, "  \"rollback_redownloads\": {}", rb.redownloads);
    json.push_str("}\n");
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_rollout.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("failed to write {}: {e}", out.display()),
    }

    // Regression gates (CI runs this in smoke mode).
    let mut bad = false;
    if !healthy.complete || healthy.upgraded != clients {
        eprintln!(
            "REGRESSION: healthy rollout did not complete ({} of {clients} upgraded)",
            healthy.upgraded
        );
        bad = true;
    }
    let opens: Vec<u64> = healthy.waves.iter().map(|w| w.opened_at_ms).collect();
    if !opens.windows(2).all(|w| w[0] < w[1]) {
        eprintln!("REGRESSION: waves opened out of order: {opens:?}");
        bad = true;
    }
    if healthy.waves.len() < 4 {
        eprintln!(
            "REGRESSION: expected canary + 2 percentage waves + remainder, got {} waves",
            healthy.waves.len()
        );
        bad = true;
    }
    // The fast path: the server memoizes delta plans, so plans computed
    // must be a sliver of the clients served.
    if healthy.plan_misses * 50 > healthy.plan_hits.max(1) {
        eprintln!(
            "REGRESSION: computed {} delta plans for {} memoized serves — memoization broke",
            healthy.plan_misses, healthy.plan_hits
        );
        bad = true;
    }
    if !rb.rolled_back {
        eprintln!("REGRESSION: injected activation fault did not halt the rollout");
        bad = true;
    }
    if rb.stranded != 0 {
        eprintln!(
            "REGRESSION: {} clients stranded on the bad version after rollback",
            rb.stranded
        );
        bad = true;
    }
    if rb.redownloads != 0 {
        eprintln!(
            "REGRESSION: rollback re-transferred {} driver fetches the depot already held",
            rb.redownloads
        );
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
}
