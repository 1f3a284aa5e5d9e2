//! Differential property test for minidb's primary-key index.
//!
//! Two databases run the same random sequence of INSERTs (duplicate keys
//! included), key-changing UPDATEs, DELETEs and BEGIN / COMMIT /
//! ROLLBACK. One names rows by `id = k`, which the planner answers from
//! the index; the other by `id + 0 = k`, which it cannot index and so
//! scans. Every statement must return the same result or error on both,
//! and the tables must stay identical. After every step, point reads on
//! the indexed database must return what the unindexable filter returns
//! there, and outside a transaction an INSERT of each key (rolled back
//! at once) must succeed exactly when a scan finds no row holding it,
//! so a stale or missing index entry shows up at once.

use proptest::prelude::*;

use drivolution::minidb::{positional, MiniDb, Params, Session, Value};

/// Keys are drawn from a small range so that inserts collide and
/// updates move rows onto each other's keys.
const KEYS: i64 = 6;

#[derive(Clone, Debug)]
enum Op {
    Insert {
        id: i64,
        v: i64,
    },
    /// Two rows in one statement; the second may collide with the first.
    InsertPair {
        a: i64,
        b: i64,
    },
    MoveKey {
        from: i64,
        to: i64,
    },
    /// Shifts every key: collides part-way unless the keys are sparse.
    ShiftAll,
    SetValue {
        id: i64,
        v: i64,
    },
    Delete {
        id: i64,
    },
    Begin,
    Commit,
    Rollback,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS, 0..100i64).prop_map(|(id, v)| Op::Insert { id, v }),
        (0..KEYS, 0..KEYS).prop_map(|(a, b)| Op::InsertPair { a, b }),
        (0..KEYS, 0..KEYS).prop_map(|(from, to)| Op::MoveKey { from, to }),
        Just(Op::ShiftAll),
        (0..KEYS, 0..100i64).prop_map(|(id, v)| Op::SetValue { id, v }),
        (0..KEYS).prop_map(|id| Op::Delete { id }),
        Just(Op::Begin),
        Just(Op::Commit),
        Just(Op::Rollback),
    ]
}

/// The statement for `op`, naming rows through `key` (`id` or `id + 0`).
fn sql(op: &Op, key: &str) -> String {
    match op {
        Op::Insert { id, v } => format!("INSERT INTO t VALUES ({id}, {v})"),
        Op::InsertPair { a, b } => format!("INSERT INTO t VALUES ({a}, 1), ({b}, 2)"),
        Op::MoveKey { from, to } => format!("UPDATE t SET id = {to} WHERE {key} = {from}"),
        Op::ShiftAll => "UPDATE t SET id = id + 1 WHERE v >= 0".to_string(),
        Op::SetValue { v, .. } => format!("UPDATE t SET v = {v} WHERE {key} = ? AND v >= 0"),
        Op::Delete { id } => format!("DELETE FROM t WHERE {id} = {key}"),
        Op::Begin => "BEGIN".to_string(),
        Op::Commit => "COMMIT".to_string(),
        Op::Rollback => "ROLLBACK".to_string(),
    }
}

fn params(op: &Op) -> Params {
    match op {
        Op::SetValue { id, .. } => positional(vec![Value::BigInt(*id)]),
        _ => positional(Vec::new()),
    }
}

fn open() -> (MiniDb, Session) {
    let db = MiniDb::new("props");
    let mut s = db.admin_session();
    db.exec(&mut s, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .expect("create table");
    (db, s)
}

fn run(db: &MiniDb, s: &mut Session, sql: &str, params: &Params) -> String {
    format!("{:?}", db.execute(s, sql, params))
}

/// Whether inserting key `k` succeeds; the insert is rolled back.
fn key_is_free(db: &MiniDb, s: &mut Session, k: i64) -> bool {
    let none = positional(Vec::new());
    db.execute(s, "BEGIN", &none)
        .expect("no transaction is open");
    let inserted = db
        .execute(s, &format!("INSERT INTO t VALUES ({k}, 0)"), &none)
        .is_ok();
    db.execute(s, "ROLLBACK", &none).expect("rollback");
    inserted
}

fn scan_count(db: &MiniDb, s: &mut Session, k: i64) -> usize {
    let none = positional(Vec::new());
    let sql = format!("SELECT id FROM t WHERE id + 0 = {k}");
    db.execute(s, &sql, &none)
        .and_then(|r| r.rows())
        .expect("scan")
        .rows
        .len()
}

proptest! {
    #[test]
    fn indexed_and_scanned_filters_agree(ops in prop::collection::vec(arb_op(), 1..40)) {
        let (indexed, mut si) = open();
        let (scanned, mut ss) = open();
        let none = positional(Vec::new());
        for (step, op) in ops.iter().enumerate() {
            let p = params(op);
            let a = run(&indexed, &mut si, &sql(op, "id"), &p);
            let b = run(&scanned, &mut ss, &sql(op, "id + 0"), &p);
            prop_assert_eq!(&a, &b, "step {step}: {op:?} diverged");
            let all = "SELECT * FROM t";
            prop_assert_eq!(
                run(&indexed, &mut si, all, &none),
                run(&scanned, &mut ss, all, &none),
                "step {step}: tables diverged after {op:?}"
            );
            for k in -1..=KEYS {
                for (probe, reference) in [
                    (format!("SELECT * FROM t WHERE id = {k}"), format!("SELECT * FROM t WHERE id + 0 = {k}")),
                    (format!("SELECT v FROM t WHERE {k} = id AND v >= 0"), format!("SELECT v FROM t WHERE {k} = id + 0 AND v >= 0")),
                    (format!("SELECT * FROM t WHERE id = '{k}'"), format!("SELECT * FROM t WHERE id + 0 = '{k}'")),
                ] {
                    prop_assert_eq!(
                        run(&indexed, &mut si, &probe, &none),
                        run(&indexed, &mut si, &reference, &none),
                        "step {step}: `{probe}` disagrees with a scan after {op:?}"
                    );
                }
                if !si.in_transaction() {
                    let taken = scan_count(&indexed, &mut si, k) > 0;
                    prop_assert_eq!(
                        key_is_free(&indexed, &mut si, k),
                        !taken,
                        "step {step}: uniqueness of key {k} disagrees with a scan after {op:?}"
                    );
                }
            }
        }
    }
}
