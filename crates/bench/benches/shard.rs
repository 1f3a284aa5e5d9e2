//! License renewal storm and batched lease traffic.
//!
//! Two measurements behind the 10k-client fast path:
//!
//! 1. **Renewal storm** — every host of a fully seated fleet renews its
//!    own seat, repeatedly, against the [`LicenseManager`] seat table.
//!    A renewal is one lock and one `BTreeMap` probe; the expiry hint
//!    skips the prune scan, so per-renewal cost does not grow with
//!    fleet size. Wall-clock throughput is reported; correctness (every
//!    renewal grants, zero denials at full occupancy) is gated.
//! 2. **Frame reduction** — the same fleet run unbatched (one
//!    `DRIVOLUTION_REQUEST` frame per client per renewal) and batched
//!    (per-zone aggregator coalescing same-tick renewals into
//!    `RENEW_BATCH` frames) over identical virtual steady-state
//!    windows. The server must see at least 10× fewer frames on the
//!    batched shape; this count is deterministic, so it is a hard gate.
//!
//! This target uses `harness = false`: it emits `BENCH_shard.json` at
//! the workspace root and exits nonzero when a gate fails (CI runs it
//! in smoke mode via `SHARD_BENCH_SMOKE=1`).
//!
//! Run with: `cargo bench -p drivolution-bench --bench shard`

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use drivolution_core::DriverId;
use drivolution_server::LicenseManager;
use fleet::FleetSim;

const MINUTE: u64 = 60_000;
const LEASE_MS: u64 = 10 * MINUTE;
const DRIVER_PADDING: usize = 16 * 1024;

struct StormTrace {
    renewals: u64,
    denials: u64,
    wall_ms: u128,
    renewals_per_sec: u64,
}

/// Fully seats a fleet of `hosts` clients, then drives `rounds` renewal
/// storms (every host renews its own seat, lease half-expired) with a
/// maintenance prune between rounds — the server's steady-state shape.
fn run_license_storm(hosts: usize, rounds: usize) -> StormTrace {
    const D: DriverId = DriverId(1);
    let lm = LicenseManager::new();
    lm.set_limit(D, hosts);
    for h in 0..hosts {
        lm.acquire(D, "app", &format!("host-{h:05}"), LEASE_MS, 0)
            .expect("initial checkout within the limit");
    }

    let mut denials = 0u64;
    let started = Instant::now();
    for r in 1..=rounds {
        let now = r as u64 * (LEASE_MS / 2);
        for h in 0..hosts {
            if lm
                .acquire(D, "app", &format!("host-{h:05}"), LEASE_MS, now)
                .is_err()
            {
                denials += 1;
            }
        }
        // Maintenance runs between storms, never inside one — mirroring
        // the server's scheduled prune task.
        lm.prune_expired(now);
    }
    let wall = started.elapsed();
    let renewals = (hosts * rounds) as u64 - denials;
    StormTrace {
        renewals,
        denials,
        wall_ms: wall.as_millis(),
        renewals_per_sec: (renewals as f64 / wall.as_secs_f64().max(1e-9)) as u64,
    }
}

struct FrameTrace {
    frames: u64,
    renewals: u64,
    batch_frames: u64,
}

/// Runs `cycles` lease windows of steady-state maintenance and reports
/// the frames the Drivolution server actually received.
fn run_fleet(batched: bool, clients: usize, cycles: u64) -> FrameTrace {
    let sim = if batched {
        FleetSim::build_rollout_batched(clients, LEASE_MS, DRIVER_PADDING)
    } else {
        FleetSim::build_rollout(clients, LEASE_MS, DRIVER_PADDING)
    };
    sim.bootstrap_all();
    let before = sim.server().stats();
    let steady = sim.run_steady_state(MINUTE, cycles * LEASE_MS);
    let after = sim.server().stats();
    FrameTrace {
        frames: steady.server_requests,
        renewals: after.renewals - before.renewals,
        batch_frames: after.batch_frames - before.batch_frames,
    }
}

fn main() {
    let smoke = std::env::var("SHARD_BENCH_SMOKE").is_ok();
    let (hosts, rounds) = if smoke { (1_000, 5) } else { (10_000, 20) };
    let fleet_clients = if smoke { 120 } else { 400 };
    let cycles = 3u64;

    println!("\nlicense seat table — {hosts} hosts × {rounds} renewal storms");
    let storm = run_license_storm(hosts, rounds);
    println!(
        "  {:>8} renewals in {:>5} ms ({} renewals/sec), {} denials",
        storm.renewals, storm.wall_ms, storm.renewals_per_sec, storm.denials
    );

    println!("lease traffic — {fleet_clients} clients over {cycles} lease windows");
    let unbatched = run_fleet(false, fleet_clients, cycles);
    let batched = run_fleet(true, fleet_clients, cycles);
    println!(
        "  unbatched: {} frames to the server ({} renewals)",
        unbatched.frames, unbatched.renewals
    );
    println!(
        "  batched:   {} frames to the server ({} renewals in {} RENEW_BATCH frames)",
        batched.frames, batched.renewals, batched.batch_frames
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"shard\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"hosts\": {hosts},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    // One table; `"shards": 1` keeps the row comparable with the
    // single-shard row of earlier trajectories.
    json.push_str("  \"license_storm\": [\n");
    let _ = writeln!(
        json,
        "    {{\"shards\": 1, \"renewals\": {}, \"denials\": {}, \"wall_ms\": {}, \"renewals_per_sec\": {}}}",
        storm.renewals, storm.denials, storm.wall_ms, storm.renewals_per_sec
    );
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"fleet_clients\": {fleet_clients},");
    let _ = writeln!(json, "  \"lease_cycles\": {cycles},");
    let _ = writeln!(json, "  \"unbatched_frames\": {},", unbatched.frames);
    let _ = writeln!(json, "  \"unbatched_renewals\": {},", unbatched.renewals);
    let _ = writeln!(json, "  \"batched_frames\": {},", batched.frames);
    let _ = writeln!(json, "  \"batched_renewals\": {},", batched.renewals);
    let _ = writeln!(json, "  \"batch_frames\": {}", batched.batch_frames);
    json.push_str("}\n");
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_shard.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("failed to write {}: {e}", out.display()),
    }

    // Gates. Wall-clock throughput is reported but not gated (shared CI
    // boxes are too noisy); every deterministic count is.
    let mut bad = false;
    if storm.denials != 0 {
        eprintln!(
            "REGRESSION: {} renewals denied — renewal-in-place broke",
            storm.denials
        );
        bad = true;
    }
    if storm.renewals != (hosts * rounds) as u64 {
        eprintln!(
            "REGRESSION: expected {} renewals, granted {}",
            hosts * rounds,
            storm.renewals
        );
        bad = true;
    }
    if batched.renewals == 0 || batched.batch_frames == 0 {
        eprintln!("REGRESSION: batched fleet produced no RENEW_BATCH traffic");
        bad = true;
    }
    if batched.frames * 10 > unbatched.frames {
        eprintln!(
            "REGRESSION: batching only cut server frames from {} to {} (need ≥10×)",
            unbatched.frames, batched.frames
        );
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
}
