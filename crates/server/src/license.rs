//! Drivolution as a license server (paper §5.4.2).
//!
//! Licenses are modelled as capacity-limited drivers: the per-user DB2
//! licensing case. Checkout happens when a driver is offered; return
//! happens on explicit [`LicenseManager::release`] (bootloader gives the
//! lease back), on lease expiry (server-side pruning), or when the
//! client's dedicated channel breaks (failure detection).
//!
//! One seat table per driver, behind one lock. A checkout prunes the
//! driver's expired seats, then renews in place if the caller already
//! holds a seat, grants if fewer than `limit` holders remain, and denies
//! otherwise. The reference-model proptest in `tests/license_props.rs`
//! pins these rules.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use drivolution_core::{DriverId, DrvError, DrvResult};

/// Seat table of one driver.
#[derive(Debug)]
struct Seats {
    /// `(user, client_host)` → lease expiry instant.
    holders: BTreeMap<(String, String), u64>,
    /// Earliest expiry among `holders` (may be stale-low after renewals
    /// and releases — that only costs a harmless re-scan). Prune scans
    /// are skipped entirely while `now < next_expiry`, which keeps the
    /// renewal path O(log seats) instead of O(seats).
    next_expiry: u64,
}

impl Default for Seats {
    fn default() -> Self {
        Seats {
            holders: BTreeMap::new(),
            next_expiry: u64::MAX,
        }
    }
}

impl Seats {
    /// Drops expired holders if any can have expired, maintaining
    /// `next_expiry`. Exact: after this returns, every remaining holder
    /// is unexpired at `now_ms`.
    fn prune(&mut self, now_ms: u64) -> usize {
        if self.holders.is_empty() {
            self.next_expiry = u64::MAX;
            return 0;
        }
        if now_ms < self.next_expiry {
            return 0;
        }
        let before = self.holders.len();
        self.holders.retain(|_, exp| *exp > now_ms);
        self.next_expiry = self.holders.values().copied().min().unwrap_or(u64::MAX);
        before - self.holders.len()
    }
}

/// Tracks per-driver license capacity and outstanding checkouts.
#[derive(Debug, Default)]
pub struct LicenseManager {
    limits: Mutex<BTreeMap<DriverId, usize>>,
    held: Mutex<BTreeMap<DriverId, Seats>>,
}

impl LicenseManager {
    /// Creates a manager with no limits (all drivers unlimited).
    pub fn new() -> Self {
        LicenseManager::default()
    }

    /// Caps `driver` at `seats` concurrent holders. Lowering a limit
    /// under live holders revokes nothing; new grants wait until the
    /// holders drain below it.
    pub fn set_limit(&self, driver: DriverId, seats: usize) {
        self.limits.lock().insert(driver, seats);
    }

    /// Remaining seats for `driver` (`None` = unlimited). **Read-only**:
    /// counts holders unexpired at `now_ms` without pruning, so stats
    /// and introspection never mutate seat state.
    pub fn available(&self, driver: DriverId, now_ms: u64) -> Option<usize> {
        let limit = *self.limits.lock().get(&driver)?;
        let used = self
            .held
            .lock()
            .get(&driver)
            .map(|s| s.holders.values().filter(|exp| **exp > now_ms).count())
            .unwrap_or(0);
        Some(limit.saturating_sub(used))
    }

    /// Current holders of `driver` as `(user, client_host)` pairs,
    /// sorted. Read-only; includes seats whose lease has expired but has
    /// not been pruned yet.
    pub fn holders(&self, driver: DriverId) -> Vec<(String, String)> {
        self.held
            .lock()
            .get(&driver)
            .map(|s| s.holders.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Checks out one seat. A client renewing its own seat (same user and
    /// host) re-uses it rather than consuming a second one.
    ///
    /// # Errors
    ///
    /// [`DrvError::PermissionDenied`] when all seats are taken.
    pub fn acquire(
        &self,
        driver: DriverId,
        user: &str,
        client_host: &str,
        lease_ms: u64,
        now_ms: u64,
    ) -> DrvResult<()> {
        let Some(&limit) = self.limits.lock().get(&driver) else {
            return Ok(()); // unlimited driver
        };
        let expires_at_ms = now_ms.saturating_add(lease_ms);
        let mut held = self.held.lock();
        let seats = held.entry(driver).or_default();
        seats.prune(now_ms);
        let key = (user.to_string(), client_host.to_string());
        if let Some(exp) = seats.holders.get_mut(&key) {
            // Renewal in place: the seat is already this client's.
            *exp = expires_at_ms;
        } else if seats.holders.len() < limit {
            seats.holders.insert(key, expires_at_ms);
        } else {
            return Err(DrvError::PermissionDenied(format!(
                "no license available for {driver}: {limit} seats in use"
            )));
        }
        seats.next_expiry = seats.next_expiry.min(expires_at_ms);
        Ok(())
    }

    /// Returns a seat explicitly (bootloader notifying unload: "The
    /// bootloader can notify the Drivolution server when the driver is
    /// unloaded to give back its lease").
    pub fn release(&self, driver: DriverId, user: &str, client_host: &str) -> bool {
        self.held.lock().get_mut(&driver).is_some_and(|seats| {
            seats
                .holders
                .remove(&(user.to_string(), client_host.to_string()))
                .is_some()
        })
    }

    /// Frees every seat held from `client_host` — the dedicated-channel
    /// failure detector: "If the Drivolution server and bootloader are
    /// using a dedicated connection, it can be used as a failure
    /// detector."
    pub fn release_host(&self, client_host: &str) -> usize {
        let mut freed = 0;
        for seats in self.held.lock().values_mut() {
            let before = seats.holders.len();
            seats.holders.retain(|(_, host), _| host != client_host);
            freed += before - seats.holders.len();
        }
        freed
    }

    /// Drops seats whose lease expired without renewal ("the Drivolution
    /// server can wait for the client lease to expire and … declare the
    /// driver freed"). Runs as a scheduled maintenance task, never on the
    /// request path.
    pub fn prune_expired(&self, now_ms: u64) -> usize {
        self.held
            .lock()
            .values_mut()
            .map(|seats| seats.prune(now_ms))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: DriverId = DriverId(1);

    #[test]
    fn unlimited_drivers_never_block() {
        let lm = LicenseManager::new();
        for i in 0..100 {
            lm.acquire(D, &format!("u{i}"), "h", 1000, 0).unwrap();
        }
        assert_eq!(lm.available(D, 0), None);
    }

    #[test]
    fn seats_are_enforced() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 2);
        lm.acquire(D, "a", "h1", 1000, 0).unwrap();
        lm.acquire(D, "b", "h2", 1000, 0).unwrap();
        assert_eq!(lm.available(D, 0), Some(0));
        let e = lm.acquire(D, "c", "h3", 1000, 0).unwrap_err();
        assert!(matches!(e, DrvError::PermissionDenied(_)));
    }

    #[test]
    fn renewal_reuses_the_seat() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 1);
        lm.acquire(D, "a", "h1", 1000, 0).unwrap();
        // Same client renews: fine, and the expiry moves out.
        lm.acquire(D, "a", "h1", 1000, 500).unwrap();
        assert_eq!(lm.available(D, 1400), Some(0));
        // Different client still blocked.
        assert!(lm.acquire(D, "b", "h2", 1000, 500).is_err());
    }

    #[test]
    fn explicit_release_frees_the_seat() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 1);
        lm.acquire(D, "a", "h1", 1000, 0).unwrap();
        assert!(lm.release(D, "a", "h1"));
        assert!(!lm.release(D, "a", "h1"));
        lm.acquire(D, "b", "h2", 1000, 0).unwrap();
    }

    #[test]
    fn crashed_host_seats_are_freed_by_failure_detector() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 2);
        lm.set_limit(DriverId(2), 1);
        lm.acquire(D, "a", "crashed", 1000, 0).unwrap();
        lm.acquire(DriverId(2), "a", "crashed", 1000, 0).unwrap();
        lm.acquire(D, "b", "alive", 1000, 0).unwrap();
        assert_eq!(lm.release_host("crashed"), 2);
        assert_eq!(lm.available(D, 0), Some(1));
        assert_eq!(lm.available(DriverId(2), 0), Some(1));
        assert_eq!(lm.holders(D), vec![("b".to_string(), "alive".to_string())]);
    }

    #[test]
    fn expired_seats_are_pruned() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 1);
        lm.acquire(D, "a", "h1", 1000, 0).unwrap();
        // Not yet expired at 999.
        assert!(lm.acquire(D, "b", "h2", 1000, 999).is_err());
        // Expired at 1000 (lease granted at 0 for 1000ms).
        lm.acquire(D, "b", "h2", 1000, 1001).unwrap();
        assert_eq!(lm.prune_expired(1001), 0);
    }

    #[test]
    fn available_is_read_only() {
        // The read path must never prune as a side effect: an expired
        // seat is excluded from the count but still visible to
        // `holders()` until an explicit prune.
        let lm = LicenseManager::new();
        lm.set_limit(D, 3);
        lm.acquire(D, "a", "h1", 100, 0).unwrap();
        lm.acquire(D, "b", "h2", 10_000, 0).unwrap();
        // At t=5000 "a" is expired: the count ignores it…
        assert_eq!(lm.available(D, 5000), Some(2));
        // …but the seat table was not mutated.
        assert_eq!(
            lm.holders(D),
            vec![
                ("a".to_string(), "h1".to_string()),
                ("b".to_string(), "h2".to_string())
            ]
        );
        // Only the explicit prune drops it.
        assert_eq!(lm.prune_expired(5000), 1);
        assert_eq!(lm.holders(D), vec![("b".to_string(), "h2".to_string())]);
    }

    #[test]
    fn grants_succeed_until_the_limit_is_reached() {
        // 4 seats across distinct hosts: every grant succeeds until the
        // limit is reached, and a release frees exactly one.
        let lm = LicenseManager::new();
        lm.set_limit(D, 4);
        for i in 0..4 {
            lm.acquire(D, "u", &format!("host-{i}"), 1000, 0).unwrap();
        }
        assert_eq!(lm.available(D, 0), Some(0));
        assert!(lm.acquire(D, "u", "host-extra", 1000, 0).is_err());
        // Releasing one seat makes exactly one new grant possible.
        assert!(lm.release(D, "u", "host-0"));
        lm.acquire(D, "u", "host-extra", 1000, 0).unwrap();
        assert!(lm.acquire(D, "u", "host-more", 1000, 0).is_err());
    }

    #[test]
    fn lowering_a_limit_under_live_holders_blocks_new_grants() {
        let lm = LicenseManager::new();
        lm.set_limit(D, 4);
        for i in 0..4 {
            lm.acquire(D, "u", &format!("h{i}"), 1000, 0).unwrap();
        }
        lm.set_limit(D, 2);
        // Oversubscribed: no new grant.
        assert!(lm.acquire(D, "u", "h-new", 1000, 0).is_err());
        // Draining below the new limit re-opens capacity.
        assert!(lm.release(D, "u", "h0"));
        assert!(lm.release(D, "u", "h1"));
        assert!(lm.release(D, "u", "h2"));
        lm.acquire(D, "u", "h-new", 1000, 0).unwrap();
    }
}
