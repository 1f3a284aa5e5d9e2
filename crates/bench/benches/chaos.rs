//! Chaos tier: fleet convergence under a seed-reproducible fault
//! schedule.
//!
//! A 3-zone CDN fleet performs two driver upgrades while a
//! [`netsim::ChaosSchedule`] drives one byzantine mirror (25% of its
//! serves corrupted in flight), a zone partition that heals, and a
//! latency storm. Swept across seeds, the run records the *worst-case*
//! convergence time and checks the chaos-tier property end to end: every
//! upgrade converges with correct bytes, corrupted serves are reported
//! via `MIRROR_COMPLAINT` and demote the byzantine mirror, no healthy
//! mirror is ever demoted, and a same-seed replay reproduces every
//! `NetStats` counter.
//!
//! This target uses `harness = false`: it is a report generator emitting
//! `BENCH_chaos.json` at the workspace root, and exits nonzero when any
//! of those claims regress (CI runs it in smoke mode via
//! `CHAOS_BENCH_SMOKE=1`).
//!
//! Run with: `cargo bench -p drivolution-bench --bench chaos`

use std::fmt::Write as _;
use std::path::PathBuf;

use drivolution_core::DriverVersion;
use fleet::FleetSim;
use netsim::{Addr, AddrStats, ChaosSchedule};

const ZONES: [&str; 3] = ["east", "west", "south"];
const DRIVER_PADDING: usize = 32 * 1024;
const LEASE_MS: u64 = 600_000; // 10 virtual minutes
const MINUTE: u64 = 60_000;
const SAME_ZONE_MS: u64 = 1;
const CROSS_ZONE_MS: u64 = 25;
const CORRUPT_RATE: f64 = 0.25;
const BYZANTINE: &str = "mirror-west";

struct SeedOutcome {
    seed: u64,
    convergence_v2_ms: u64,
    convergence_v3_ms: u64,
    failed_upgrades: usize,
    wrong_byte_installs: usize,
    corrupted_serves: u64,
    complaints: u64,
    byzantine_demoted: bool,
    healthy_demotions: usize,
    snapshot: Vec<(Addr, AddrStats)>,
}

/// One chaos run: two upgrades under the byzantine/partition/storm
/// schedule, all lifecycle scheduler-driven.
fn run_seed(seed: u64, clients: usize) -> SeedOutcome {
    let sim = FleetSim::build_cdn(
        clients,
        LEASE_MS,
        &ZONES,
        DRIVER_PADDING,
        SAME_ZONE_MS,
        CROSS_ZONE_MS,
    );
    sim.net().scheduler().reseed(seed);
    sim.net().reseed(seed);
    sim.bootstrap_all();

    let t0 = sim.net().clock().now_ms();
    sim.install_chaos(
        &ChaosSchedule::new()
            .byzantine_mirror(BYZANTINE, CORRUPT_RATE, t0, t0 + 200 * MINUTE)
            .zone_partition("east", "south", t0 + 2 * MINUTE, t0 + 8 * MINUTE)
            .latency_storm(6, t0 + 3 * MINUTE, t0 + 10 * MINUTE),
    );

    sim.publish(2, DriverVersion::new(2, 0, 0), DRIVER_PADDING, false);
    let r2 = sim.run_until_on(DriverVersion::new(2, 0, 0), MINUTE, 90 * MINUTE);
    let v2_missing = clients - sim.count_on(DriverVersion::new(2, 0, 0));
    sim.publish(3, DriverVersion::new(3, 0, 0), DRIVER_PADDING, false);
    let r3 = sim.run_until_on(DriverVersion::new(3, 0, 0), MINUTE, 90 * MINUTE);
    let v3_missing = clients - sim.count_on(DriverVersion::new(3, 0, 0));

    // "Wrong bytes" = clients whose active image digest disagrees with
    // the fleet consensus (there must be exactly one digest on v3).
    let digests = sim.image_digests_on(DriverVersion::new(3, 0, 0));
    let wrong_byte_installs = digests.len().saturating_sub(1);

    let dir = sim.server().mirror_directory();
    let byz_location = format!("{BYZANTINE}:1071");
    let byzantine_demoted = dir.entry(&byz_location).map(|e| e.demoted).unwrap_or(false);
    let healthy_demotions = dir
        .snapshot()
        .iter()
        .filter(|e| e.location != byz_location && e.demoted)
        .count();

    SeedOutcome {
        seed,
        convergence_v2_ms: r2.time_to_full_upgrade_ms,
        convergence_v3_ms: r3.time_to_full_upgrade_ms,
        failed_upgrades: v2_missing + v3_missing,
        wrong_byte_installs,
        corrupted_serves: sim
            .net()
            .stats()
            .for_addr(&Addr::new(BYZANTINE, 1071))
            .corrupted,
        complaints: sim.server().stats().mirror_complaints,
        byzantine_demoted,
        healthy_demotions,
        snapshot: sim.net().stats().snapshot(),
    }
}

fn main() {
    let smoke = std::env::var("CHAOS_BENCH_SMOKE").is_ok();
    let clients = if smoke { 12 } else { 24 };
    let seeds: &[u64] = if smoke {
        &[9, 23]
    } else {
        &[9, 17, 23, 31, 41]
    };

    println!(
        "\nchaos tier — {clients}-client, {}-zone fleet, two upgrades under a \
         seeded fault schedule (byzantine {BYZANTINE} @ {:.0}% corrupt serves, \
         healing east|south partition, 6x latency storm)",
        ZONES.len(),
        CORRUPT_RATE * 100.0
    );

    let outcomes: Vec<SeedOutcome> = seeds.iter().map(|&s| run_seed(s, clients)).collect();

    // Same-seed replay must reproduce the full per-address counter
    // ledger — including dropped/partitioned/corrupted kinds.
    let replay = run_seed(seeds[0], clients);
    let replay_identical = replay.snapshot == outcomes[0].snapshot;

    let mut worst_ms = 0u64;
    let mut failed = 0usize;
    let mut wrong_bytes = 0usize;
    let mut healthy_demotions = 0usize;
    let mut demoted_seeds = 0usize;
    let mut total_corrupted = 0u64;
    let mut total_complaints = 0u64;
    for o in &outcomes {
        worst_ms = worst_ms.max(o.convergence_v2_ms).max(o.convergence_v3_ms);
        failed += o.failed_upgrades;
        wrong_bytes += o.wrong_byte_installs;
        healthy_demotions += o.healthy_demotions;
        demoted_seeds += usize::from(o.byzantine_demoted);
        total_corrupted += o.corrupted_serves;
        total_complaints += o.complaints;
        println!(
            "  seed {:>2}: v2 {:>7} ms, v3 {:>7} ms, corrupted {:>2}, \
             complaints {:>2}, byzantine demoted: {}",
            o.seed,
            o.convergence_v2_ms,
            o.convergence_v3_ms,
            o.corrupted_serves,
            o.complaints,
            o.byzantine_demoted,
        );
    }
    println!("  worst-case convergence: {worst_ms} ms");
    println!("  failed upgrades: {failed}, wrong-byte installs: {wrong_bytes}");
    println!(
        "  byzantine demoted in {demoted_seeds}/{} seeds, healthy demotions: {healthy_demotions}",
        seeds.len()
    );
    println!("  same-seed replay identical: {replay_identical}");

    // Emit BENCH_chaos.json at the workspace root.
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"chaos\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"zones\": {},", ZONES.len());
    let _ = writeln!(json, "  \"driver_padding_bytes\": {DRIVER_PADDING},");
    let _ = writeln!(json, "  \"corrupt_rate\": {CORRUPT_RATE},");
    let _ = writeln!(
        json,
        "  \"schedule\": \"byzantine {BYZANTINE} for the run; east|south partition 2-8 min; 6x latency storm 3-10 min\","
    );
    json.push_str("  \"per_seed\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"seed\": {}, \"convergence_v2_ms\": {}, \"convergence_v3_ms\": {}, \
             \"corrupted_serves\": {}, \"complaints\": {}, \"byzantine_demoted\": {}}}{}",
            o.seed,
            o.convergence_v2_ms,
            o.convergence_v3_ms,
            o.corrupted_serves,
            o.complaints,
            o.byzantine_demoted,
            if i + 1 == outcomes.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"worst_convergence_ms\": {worst_ms},");
    let _ = writeln!(json, "  \"failed_upgrades\": {failed},");
    let _ = writeln!(json, "  \"wrong_byte_installs\": {wrong_bytes},");
    let _ = writeln!(json, "  \"corrupted_serves\": {total_corrupted},");
    let _ = writeln!(json, "  \"mirror_complaints\": {total_complaints},");
    let _ = writeln!(json, "  \"byzantine_demoted_seeds\": {demoted_seeds},");
    let _ = writeln!(json, "  \"healthy_demotions\": {healthy_demotions},");
    let _ = writeln!(json, "  \"replay_identical\": {replay_identical}");
    json.push_str("}\n");
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_chaos.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("failed to write {}: {e}", out.display()),
    }

    // Regression gates (CI runs this in smoke mode).
    let mut bad = false;
    if failed > 0 {
        eprintln!("REGRESSION: {failed} upgrades failed to converge under chaos");
        bad = true;
    }
    if wrong_bytes > 0 {
        eprintln!("REGRESSION: {wrong_bytes} wrong-byte installs survived verification");
        bad = true;
    }
    if total_corrupted == 0 {
        eprintln!("REGRESSION: the byzantine mirror never corrupted a serve (schedule inert)");
        bad = true;
    }
    if total_complaints < total_corrupted {
        eprintln!(
            "REGRESSION: {total_corrupted} corrupted serves but only {total_complaints} complaints"
        );
        bad = true;
    }
    if demoted_seeds == 0 {
        eprintln!("REGRESSION: corroborated complaints never demoted the byzantine mirror");
        bad = true;
    }
    if healthy_demotions > 0 {
        eprintln!("REGRESSION: {healthy_demotions} healthy mirrors falsely demoted");
        bad = true;
    }
    if !replay_identical {
        eprintln!("REGRESSION: same-seed replay diverged — chaos is not deterministic");
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
}
