//! What every workload shares: driver publication, fleet boot, the
//! application transaction mix, and the counters an iteration reports.

use std::time::Instant;

use driverkit::{ConnectProps, Connection, DkResult};
use drivolution_bootloader::{Bootloader, ManagedConnection};
use drivolution_core::{
    DriverId, ExpirationPolicy, PermissionRule, RenewPolicy, TransferMethod, DRIVOLUTION_PORT,
};
use fleet::FleetSim;
use netsim::Addr;

use crate::inputs::{Driver, Rng};
use crate::speed::{self, Timing};
use crate::trace::span;

/// The Drivolution server's address in every `FleetSim`.
pub fn server_addr() -> Addr {
    Addr::new("db1", DRIVOLUTION_PORT)
}

/// The database's address in every `FleetSim`.
pub fn db_addr() -> Addr {
    Addr::new("db1", 5432)
}

/// Rows in the application table. Held fixed (every insert is paired
/// with a delete), because minidb scans: latency grows with the table.
pub const ROWS: i64 = 500;
const INIT_BAL: i64 = 1000;

/// Installs `drv` and permits it. `retire` revokes the previous
/// driver's permission first (a plain publish); a staged publish keeps
/// it, so held-back clients can still renew.
pub fn publish(
    sim: &FleetSim,
    drv: &Driver,
    lease_ms: u64,
    retire: Option<DriverId>,
    renew: RenewPolicy,
) -> Result<(), String> {
    let srv = sim.server();
    span("server.install", || srv.install_driver(&drv.record)).map_err(|e| e.to_string())?;
    if let Some(prev) = retire {
        srv.store()
            .remove_permissions(prev)
            .map_err(|e| e.to_string())?;
    }
    srv.add_rule(
        &PermissionRule::any(drv.record.id)
            .with_lease_ms(lease_ms as i64)
            .with_transfer(TransferMethod::Any)
            .with_policies(renew, ExpirationPolicy::AfterCommit),
    )
    .map_err(|e| e.to_string())
}

/// Retires the constructor's stock driver and installs the seeded base.
pub fn install_base(sim: &FleetSim, base: &Driver, lease_ms: u64) -> Result<(), String> {
    publish(sim, base, lease_ms, Some(DriverId(1)), RenewPolicy::Renew)
}

fn props() -> ConnectProps {
    ConnectProps::user("admin", "admin")
}

/// Opens a connection through the client's bootloader.
pub fn connect(client: &std::sync::Arc<Bootloader>, sim: &FleetSim) -> DkResult<ManagedConnection> {
    let conn = span("client.connect", || client.connect(sim.url(), &props()));
    speed::tick();
    conn
}

/// Pumps the scheduler to `target_ms`; returns the tasks fired.
pub fn pump(sim: &FleetSim, target_ms: u64) -> u64 {
    let fired = span("sched.pump", || sim.net().run_until(target_ms));
    speed::tick();
    fired
}

/// Cold-installs the base on every client. Returns client 0's
/// connection (for table set-up); the others close at once, leaving
/// the driver loaded.
pub fn boot_all(sim: &FleetSim) -> Result<ManagedConnection, String> {
    let mut first = None;
    for (i, c) in sim.clients().iter().enumerate() {
        let conn = connect(c, sim).map_err(|e| format!("client {i} boot: {e}"))?;
        if i == 0 {
            first = Some(conn);
        }
    }
    first.ok_or_else(|| "empty fleet".to_string())
}

/// Creates and fills the application table.
pub fn create_table(conn: &mut ManagedConnection) -> Result<(), String> {
    let run = |conn: &mut ManagedConnection, sql: &str| {
        span("query.stmt", || conn.execute(sql))
            .map(drop)
            .map_err(|e| format!("{sql:.60}: {e}"))
    };
    run(
        conn,
        "CREATE TABLE accounts (id INTEGER PRIMARY KEY, bal INTEGER, tag VARCHAR)",
    )?;
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(50) {
        let values: Vec<String> = chunk
            .iter()
            .map(|id| format!("({id}, {INIT_BAL}, 'init')"))
            .collect();
        run(
            conn,
            &format!("INSERT INTO accounts VALUES {}", values.join(", ")),
        )?;
    }
    Ok(())
}

/// Checks the table invariants: row count and balance sum are
/// conserved by every transaction of the mix. Returns a fingerprint of
/// the balances, which depends on the transaction keys.
pub fn check_table(conn: &mut ManagedConnection) -> Result<i64, String> {
    let rs = conn
        .execute("SELECT count(*), sum(bal), sum(bal * id) FROM accounts")
        .and_then(|r| r.rows().map_err(driverkit::DkError::Db))
        .map_err(|e| format!("table check: {e}"))?;
    let row = rs.rows.first().ok_or("table check: no row")?;
    let count = row.first().and_then(|v| v.as_i64());
    let sum = row.get(1).and_then(|v| v.as_i64());
    if count != Some(ROWS) || sum != Some(ROWS * INIT_BAL) {
        return Err(format!(
            "table check: {count:?} rows summing to {sum:?}, want {ROWS} rows summing to {}",
            ROWS * INIT_BAL
        ));
    }
    row.get(2)
        .and_then(|v| v.as_i64())
        .ok_or_else(|| "table check: no fingerprint".to_string())
}

fn stmt(conn: &mut ManagedConnection, sql: &str) -> DkResult<minidb::QueryResult> {
    span("query.stmt", || conn.execute(sql))
}

/// One seeded transaction: 50 % two-row reads, 40 % balance transfers
/// between two rows, 10 % delete-and-reinsert of one row. Every kind
/// preserves the row count and the balance sum.
pub fn txn(conn: &mut ManagedConnection, rng: &mut Rng) -> DkResult<()> {
    let kind = rng.below(100);
    let a = rng.below(ROWS as u64) as i64;
    let b = (a + 1 + rng.below(ROWS as u64 - 1) as i64) % ROWS;
    span("query.stmt", || conn.begin())?;
    let work = (|| -> DkResult<()> {
        if kind < 50 {
            stmt(conn, &format!("SELECT bal FROM accounts WHERE id = {a}"))?;
            stmt(conn, &format!("SELECT bal FROM accounts WHERE id = {b}"))?;
        } else if kind < 90 {
            stmt(
                conn,
                &format!("UPDATE accounts SET bal = bal - 1 WHERE id = {a}"),
            )?;
            stmt(
                conn,
                &format!("UPDATE accounts SET bal = bal + 1 WHERE id = {b}"),
            )?;
        } else {
            let rs = stmt(conn, &format!("SELECT bal FROM accounts WHERE id = {a}"))?
                .rows()
                .map_err(driverkit::DkError::Db)?;
            let bal = rs
                .rows
                .first()
                .and_then(|r| r.first())
                .and_then(|v| v.as_i64())
                .ok_or_else(|| {
                    driverkit::DkError::Db(minidb::DbError::Internal(format!("row {a} missing")))
                })?;
            stmt(conn, &format!("DELETE FROM accounts WHERE id = {a}"))?;
            stmt(
                conn,
                &format!("INSERT INTO accounts VALUES ({a}, {bal}, 'r{kind}')"),
            )?;
        }
        Ok(())
    })();
    match work {
        Ok(()) => span("query.stmt", || conn.commit()),
        Err(e) => {
            let _ = span("query.stmt", || conn.rollback());
            Err(e)
        }
    }
}

/// The post-upgrade application probe: each of `clients` opens a
/// fresh connection through its (upgraded) driver and runs
/// `per_client` timed transactions; then the table invariants are
/// checked.
pub fn probe(
    sim: &FleetSim,
    clients: &[usize],
    per_client: usize,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<(), String> {
    span("phase.probe", || {
        let db_before = sim.net().stats().for_addr(&db_addr()).requests;
        out.txn_us.reserve(clients.len() * per_client);
        for &i in clients {
            let client = &sim.clients()[i];
            let mut conn = connect(client, sim).map_err(|e| format!("probe client {i}: {e}"))?;
            for _ in 0..per_client {
                timed_txn(&mut conn, rng, out);
            }
        }
        out.txn_db_requests = sim.net().stats().for_addr(&db_addr()).requests - db_before;
        let mut conn = connect(&sim.clients()[0], sim).map_err(|e| e.to_string())?;
        match check_table(&mut conn) {
            Ok(f) => out.table_fingerprint = f,
            Err(e) => out.errors.push(e),
        }
        Ok(())
    })
}

/// Runs one transaction, records its latency (raw and scaled, in µs)
/// and counts a failure. Returns whether it committed.
pub fn timed_txn(conn: &mut ManagedConnection, rng: &mut Rng, out: &mut Outcome) -> bool {
    let t = Instant::now();
    let ok = txn(conn, rng).is_ok();
    let us = t.elapsed().as_secs_f64() * 1e6;
    out.txn_raw_us.push(us);
    out.txn_us.push(us * speed::factor());
    out.txn_failed += u64::from(!ok);
    speed::tick();
    ok
}

/// Clients whose active driver is not `drv` or whose image digest is
/// not the published one.
pub fn off_target(sim: &FleetSim, drv: &Driver) -> usize {
    sim.clients()
        .iter()
        .filter(|c| {
            c.active_version() != Some(drv.version)
                || c.active_image_digest() != Some(drv.image_digest)
        })
        .count()
}

/// Raw program counters at one instant; an iteration reports the
/// difference across its measured phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub net_requests: u64,
    pub net_bytes: u64,
    pub dropped: u64,
    pub unreachable: u64,
    pub partitioned: u64,
    pub refused: u64,
    pub corrupted: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub lease_requests: u64,
    pub batch_frames: u64,
    pub batched_renewals: u64,
    pub upgrades: u64,
    pub image_reuses: u64,
    pub same_zone_bytes: u64,
    pub cross_zone_bytes: u64,
    pub primary_fallbacks: u64,
    pub complaints: u64,
    pub migrated: u64,
    pub forced: u64,
    pub windows_opened: u64,
    pub windows_completed: u64,
    pub db_requests: u64,
    /// Request plus response bytes at the server and mirror addresses.
    pub upgrade_bytes: u64,
}

impl Counters {
    pub fn capture(sim: &FleetSim) -> Self {
        let stats = sim.net().stats();
        let t = stats.totals();
        let (plan_hits, plan_misses) = stats.plan_counters();
        let srv = sim.server().stats();
        let mut c = Counters {
            net_requests: t.requests,
            net_bytes: t.bytes_in + t.bytes_out,
            dropped: t.dropped,
            unreachable: t.unreachable,
            partitioned: t.partitioned,
            refused: t.refused,
            corrupted: t.corrupted,
            plan_hits,
            plan_misses,
            lease_requests: srv.requests,
            batch_frames: srv.batch_frames,
            batched_renewals: srv.batched_renewals,
            db_requests: stats.for_addr(&db_addr()).requests,
            ..Counters::default()
        };
        for b in sim.clients() {
            let s = b.stats();
            c.upgrades += s.upgrades;
            c.image_reuses += s.shared_image_reuses;
            c.same_zone_bytes += s.same_zone_chunk_bytes;
            c.cross_zone_bytes += s.cross_zone_chunk_bytes;
            c.primary_fallbacks += s.mirror_fallbacks;
            c.complaints += s.mirror_complaints;
        }
        let swap = sim.total_swap_stats();
        c.migrated = swap.sessions_migrated;
        c.forced = swap.sessions_forced;
        c.windows_opened = swap.windows_opened;
        c.windows_completed = swap.windows_completed;
        // Aggregators only send (to the server), so the server and
        // mirror addresses see all of the distribution traffic.
        let mut addrs = vec![server_addr()];
        addrs.extend(sim.mirrors().iter().map(|m| m.addr().clone()));
        c.upgrade_bytes = addrs
            .iter()
            .map(|a| {
                let s = stats.for_addr(a);
                s.bytes_in + s.bytes_out
            })
            .sum();
        c
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        macro_rules! diff {
            ($($f:ident),*) => { Counters { $($f: self.$f - before.$f),* } };
        }
        diff!(
            net_requests,
            net_bytes,
            dropped,
            unreachable,
            partitioned,
            refused,
            corrupted,
            plan_hits,
            plan_misses,
            lease_requests,
            batch_frames,
            batched_renewals,
            upgrades,
            image_reuses,
            same_zone_bytes,
            cross_zone_bytes,
            primary_fallbacks,
            complaints,
            migrated,
            forced,
            windows_opened,
            windows_completed,
            db_requests,
            upgrade_bytes
        )
    }
}

/// Everything one iteration of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup: Timing,
    pub run: Timing,
    pub clients: usize,
    /// Virtual ms from each publish to the last client active on it.
    pub convergence_ms: Vec<u64>,
    /// Counters over the measured phase.
    pub counters: Counters,
    /// Transactions run, with their scaled and raw wall latencies (µs).
    pub txn_us: Vec<f64>,
    pub txn_raw_us: Vec<f64>,
    pub txn_failed: u64,
    /// Database requests issued by the timed transactions.
    pub txn_db_requests: u64,
    /// `Network::run_until` firings in the measured phase.
    pub fired: u64,
    /// Healthy mirrors demoted by the directory.
    pub healthy_demotions: u64,
    /// Client upgrades attempted and failed (off target or wrong digest).
    pub upgrades_attempted: u64,
    pub upgrades_failed: u64,
    /// `sum(bal * id)` over the application table after the run.
    pub table_fingerprint: i64,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Figures that must not change with the seed (workload shape).
    pub shape: Vec<(&'static str, u64)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}
