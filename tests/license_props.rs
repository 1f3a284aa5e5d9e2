//! Property test pinning the license table against a reference model:
//! a flat seat map in which every rule is a plain scan. For any op
//! sequence [`LicenseManager`] must agree with the model at every step
//! — the same grants and denials, the same release outcomes, the same
//! `release_host` and `prune_expired` counts, and the same `available`
//! and `holders` for every driver.

use std::collections::BTreeMap;

use proptest::prelude::*;

use drivolution::core::DriverId;
use drivolution::server::LicenseManager;

/// Drivers the ops address (`0..DRIVERS`).
const DRIVERS: u8 = 3;

#[derive(Clone, Debug)]
enum Op {
    /// Cap `driver` at `seats` concurrent holders.
    SetLimit { driver: u8, seats: usize },
    /// `(user, host)` checks out / renews a seat on `driver`.
    Acquire {
        driver: u8,
        user: u8,
        host: u8,
        lease_ms: u64,
    },
    /// Explicit seat give-back.
    Release { driver: u8, user: u8, host: u8 },
    /// Dedicated-channel failure detector: free every seat of `host`.
    ReleaseHost { host: u8 },
    /// Scheduled maintenance pass at the current clock.
    Prune,
    /// Let time pass (leases expire without any table mutation).
    Advance { dt_ms: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..DRIVERS, 0..12usize).prop_map(|(driver, seats)| Op::SetLimit { driver, seats }),
        (0..DRIVERS, 0..4u8, 0..10u8, 1..500u64).prop_map(|(driver, user, host, lease_ms)| {
            Op::Acquire {
                driver,
                user,
                host,
                lease_ms,
            }
        }),
        (0..DRIVERS, 0..4u8, 0..10u8).prop_map(|(driver, user, host)| Op::Release {
            driver,
            user,
            host
        }),
        (0..10u8).prop_map(|host| Op::ReleaseHost { host }),
        Just(Op::Prune),
        (0..400u64).prop_map(|dt_ms| Op::Advance { dt_ms }),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(arb_op(), 0..60)
}

fn user(u: u8) -> String {
    format!("user-{u}")
}

fn host(h: u8) -> String {
    format!("host-{h}")
}

/// The reference: per driver, `(user, host)` → lease expiry, and the
/// seat limits. No index, no expiry hint; every rule scans.
#[derive(Debug, Default)]
struct Model {
    limits: BTreeMap<i64, usize>,
    seats: BTreeMap<i64, BTreeMap<(String, String), u64>>,
}

impl Model {
    fn set_limit(&mut self, driver: i64, seats: usize) {
        self.limits.insert(driver, seats);
    }

    /// Unlimited drivers always grant and hold no seats. Otherwise the
    /// driver's expired seats go first; then the caller's own seat is
    /// renewed in place, or a free seat is taken, or the checkout fails.
    fn acquire(&mut self, driver: i64, user: &str, host: &str, lease_ms: u64, now: u64) -> bool {
        let Some(&limit) = self.limits.get(&driver) else {
            return true;
        };
        let seats = self.seats.entry(driver).or_default();
        seats.retain(|_, exp| *exp > now);
        let key = (user.to_string(), host.to_string());
        if seats.contains_key(&key) || seats.len() < limit {
            seats.insert(key, now + lease_ms);
            true
        } else {
            false
        }
    }

    fn release(&mut self, driver: i64, user: &str, host: &str) -> bool {
        self.seats
            .get_mut(&driver)
            .is_some_and(|s| s.remove(&(user.to_string(), host.to_string())).is_some())
    }

    fn release_host(&mut self, host: &str) -> usize {
        let mut freed = 0;
        for seats in self.seats.values_mut() {
            let before = seats.len();
            seats.retain(|(_, h), _| h != host);
            freed += before - seats.len();
        }
        freed
    }

    fn prune_expired(&mut self, now: u64) -> usize {
        let mut freed = 0;
        for seats in self.seats.values_mut() {
            let before = seats.len();
            seats.retain(|_, exp| *exp > now);
            freed += before - seats.len();
        }
        freed
    }

    fn available(&self, driver: i64, now: u64) -> Option<usize> {
        let limit = *self.limits.get(&driver)?;
        let used = self
            .seats
            .get(&driver)
            .map_or(0, |s| s.values().filter(|exp| **exp > now).count());
        Some(limit.saturating_sub(used))
    }

    fn holders(&self, driver: i64) -> Vec<(String, String)> {
        self.seats
            .get(&driver)
            .map(|s| s.keys().cloned().collect())
            .unwrap_or_default()
    }
}

proptest! {
    #[test]
    fn seat_table_matches_reference_model(ops in arb_ops()) {
        let table = LicenseManager::new();
        let mut model = Model::default();
        let mut now_ms = 0u64;

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::SetLimit { driver, seats } => {
                    table.set_limit(DriverId(*driver as i64), *seats);
                    model.set_limit(*driver as i64, *seats);
                }
                Op::Acquire { driver, user: u, host: h, lease_ms } => {
                    let got = table
                        .acquire(DriverId(*driver as i64), &user(*u), &host(*h), *lease_ms, now_ms)
                        .is_ok();
                    let want = model.acquire(*driver as i64, &user(*u), &host(*h), *lease_ms, now_ms);
                    prop_assert_eq!(got, want, "step {step}: acquire {op:?} at t={now_ms}");
                }
                Op::Release { driver, user: u, host: h } => {
                    let got = table.release(DriverId(*driver as i64), &user(*u), &host(*h));
                    let want = model.release(*driver as i64, &user(*u), &host(*h));
                    prop_assert_eq!(got, want, "step {step}: release {op:?}");
                }
                Op::ReleaseHost { host: h } => {
                    let got = table.release_host(&host(*h));
                    let want = model.release_host(&host(*h));
                    prop_assert_eq!(got, want, "step {step}: release_host({h})");
                }
                Op::Prune => {
                    let got = table.prune_expired(now_ms);
                    let want = model.prune_expired(now_ms);
                    prop_assert_eq!(got, want, "step {step}: prune_expired at t={now_ms}");
                }
                Op::Advance { dt_ms } => now_ms += dt_ms,
            }

            for d in 0..DRIVERS {
                let id = DriverId(d as i64);
                prop_assert_eq!(
                    table.available(id, now_ms),
                    model.available(d as i64, now_ms),
                    "step {step}: available({d}) at t={now_ms}"
                );
                prop_assert_eq!(
                    table.holders(id),
                    model.holders(d as i64),
                    "step {step}: holders({d})"
                );
            }
        }
    }
}
