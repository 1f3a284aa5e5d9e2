//! Row storage, catalog, and transaction undo log.
//!
//! # Primary-key index
//!
//! A table with a `PRIMARY KEY` column keeps an ordered index from the
//! key to the rows holding it. Keys are normalised so that two keys are
//! equal exactly when [`Value::sql_eq`] says the values are: INTEGER,
//! BIGINT and TIMESTAMP share one numeric key, and each other type keys
//! by its own value. The index is a `BTreeSet` of `(key, RowId)` pairs
//! (ordered, so no hash-order iteration), and every mutation path —
//! [`Table::insert`], [`Table::update`], [`Table::delete`] and the undo
//! path's `restore` — keeps it current.
//!
//! It answers three questions without a scan:
//!
//! * uniqueness: `insert` and `update` reject a key another row holds;
//! * point lookups: `Table::rows_with_pk`, which the executor uses
//!   for `WHERE pk = c` filters (see [`crate::exec::exec`]);
//! * foreign keys: [`Table::contains_value`] on the key column, which
//!   [`Catalog::check_reference`] calls for `REFERENCES` checks.
//!
//! The index holds pairs rather than mapping each key to one row
//! because a rollback restores old images without a uniqueness check:
//! if another session took a key in the meantime, two rows share it,
//! and the index still lists both, as a scan would find both.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;

use crate::error::{DbError, DbResult};
use crate::schema::TableSchema;
use crate::value::{DataType, Value};

/// Opaque row identifier, unique within a table for its lifetime.
pub type RowId = u64;

/// A primary-key value normalised for the index: equal keys are exactly
/// the values [`Value::sql_eq`] calls equal. NULL has no key.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum PkKey {
    Num(i64),
    Text(String),
    Blob(Bytes),
    Bool(bool),
}

impl PkKey {
    fn of(v: &Value) -> Option<PkKey> {
        match v {
            Value::Null => None,
            Value::Integer(n) | Value::BigInt(n) | Value::Timestamp(n) => Some(PkKey::Num(*n)),
            Value::Varchar(s) => Some(PkKey::Text(s.clone())),
            Value::Blob(b) => Some(PkKey::Blob(b.clone())),
            Value::Boolean(b) => Some(PkKey::Bool(*b)),
        }
    }

    /// Whether this key compares with stored values of column type `ty`
    /// (stored values are coerced to the column type on write).
    fn compares_with(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (
                PkKey::Num(_),
                DataType::Integer | DataType::BigInt | DataType::Timestamp
            ) | (PkKey::Text(_), DataType::Varchar)
                | (PkKey::Blob(_), DataType::Blob)
                | (PkKey::Bool(_), DataType::Boolean)
        )
    }
}

/// A heap table: schema plus rows keyed by [`RowId`], with a
/// primary-key index when the schema declares a key.
#[derive(Clone, Debug)]
pub struct Table {
    schema: TableSchema,
    rows: BTreeMap<RowId, Vec<Value>>,
    next_row_id: RowId,
    /// Position of the primary-key column, if any.
    pk: Option<usize>,
    /// `(key, row)` for every live row; empty without a primary key.
    pk_index: BTreeSet<(PkKey, RowId)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            pk: schema.primary_key_index(),
            schema,
            rows: BTreeMap::new(),
            next_row_id: 1,
            pk_index: BTreeSet::new(),
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates rows in insertion (row id) order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Vec<Value>)> {
        self.rows.iter().map(|(id, r)| (*id, r))
    }

    /// Fetches one row.
    pub fn get(&self, id: RowId) -> Option<&Vec<Value>> {
        self.rows.get(&id)
    }

    /// The rows whose primary key equals `value` under [`Value::sql_eq`],
    /// in row id order, found through the index. `None` when the answer
    /// needs a scan instead: the table has no primary key, or `value` is
    /// NULL or of a type that does not compare with the key column (for
    /// such values `pk = value` is unknown on every row, not false).
    pub(crate) fn rows_with_pk(
        &self,
        value: &Value,
    ) -> Option<impl Iterator<Item = (RowId, &Vec<Value>)>> {
        let pk = self.pk?;
        let key = PkKey::of(value)?;
        if !key.compares_with(self.schema.columns()[pk].dtype()) {
            return None;
        }
        Some(
            self.ids_with_key(key)
                .filter_map(|id| self.rows.get(&id).map(|r| (id, r))),
        )
    }

    fn ids_with_key(&self, key: PkKey) -> impl Iterator<Item = RowId> + '_ {
        self.pk_index
            .range((key.clone(), RowId::MIN)..=(key, RowId::MAX))
            .map(|(_, id)| *id)
    }

    fn pk_key(&self, row: &[Value]) -> Option<PkKey> {
        self.pk.and_then(|pk| PkKey::of(&row[pk]))
    }

    /// Rejects `row` when a row other than `except` already holds its
    /// primary key.
    fn check_unique(&self, row: &[Value], except: Option<RowId>) -> DbResult<Option<PkKey>> {
        let (Some(pk), Some(key)) = (self.pk, self.pk_key(row)) else {
            return Ok(None);
        };
        if self
            .ids_with_key(key.clone())
            .any(|other| Some(other) != except)
        {
            return Err(DbError::DuplicateKey(format!(
                "{}.{} = {}",
                self.schema.name(),
                self.schema.columns()[pk].name(),
                row[pk]
            )));
        }
        Ok(Some(key))
    }

    /// Moves row `id`'s index entry from the key of its `old` image (if
    /// any) to `key` (if any).
    fn reindex(&mut self, id: RowId, old: Option<&[Value]>, key: Option<PkKey>) {
        let old_key = old.and_then(|r| self.pk_key(r));
        if old_key == key {
            return;
        }
        if let Some(old_key) = old_key {
            self.pk_index.remove(&(old_key, id));
        }
        if let Some(key) = key {
            self.pk_index.insert((key, id));
        }
    }

    /// Validates the row against the schema (types, NOT NULL, primary-key
    /// uniqueness) and inserts it, returning its new [`RowId`].
    ///
    /// # Errors
    ///
    /// [`DbError::Constraint`], [`DbError::Type`], or
    /// [`DbError::DuplicateKey`].
    pub fn insert(&mut self, row: Vec<Value>) -> DbResult<RowId> {
        let row = self.schema.validate_row(row)?;
        let key = self.check_unique(&row, None)?;
        let id = self.next_row_id;
        self.next_row_id += 1;
        self.rows.insert(id, row);
        self.reindex(id, None, key);
        Ok(id)
    }

    /// Re-inserts a row under a previously used id (for undo).
    pub(crate) fn restore(&mut self, id: RowId, row: Vec<Value>) {
        let key = self.pk_key(&row);
        let old = self.rows.insert(id, row);
        self.reindex(id, old.as_deref(), key);
        if id >= self.next_row_id {
            self.next_row_id = id + 1;
        }
    }

    /// Replaces the row at `id`, returning the previous image.
    ///
    /// # Errors
    ///
    /// [`DbError::Internal`] if `id` is dead; schema errors as for insert.
    pub fn update(&mut self, id: RowId, row: Vec<Value>) -> DbResult<Vec<Value>> {
        let row = self.schema.validate_row(row)?;
        let key = self.check_unique(&row, Some(id))?;
        let Some(slot) = self.rows.get_mut(&id) else {
            return Err(DbError::Internal(format!(
                "update of dead row {id} in {}",
                self.schema.name()
            )));
        };
        let old = std::mem::replace(slot, row);
        self.reindex(id, Some(&old), key);
        Ok(old)
    }

    /// Deletes the row at `id`, returning its final image.
    ///
    /// # Errors
    ///
    /// [`DbError::Internal`] if `id` is dead.
    pub fn delete(&mut self, id: RowId) -> DbResult<Vec<Value>> {
        let old = self.rows.remove(&id).ok_or_else(|| {
            DbError::Internal(format!("delete of dead row {id} in {}", self.schema.name()))
        })?;
        self.reindex(id, Some(&old), None);
        Ok(old)
    }

    /// Returns `true` if any row has `value` in column `col`: an index
    /// probe on the primary-key column, a scan on any other.
    pub fn contains_value(&self, col: usize, value: &Value) -> bool {
        if Some(col) == self.pk {
            // A value the index cannot probe (NULL, another type) equals
            // no stored key.
            return self
                .rows_with_pk(value)
                .is_some_and(|mut hits| hits.next().is_some());
        }
        self.rows
            .values()
            .any(|r| r[col].sql_eq(value) == Some(true))
    }
}

/// A single reversible mutation, recorded while a transaction is open.
#[derive(Clone, Debug)]
pub enum UndoRecord {
    /// A row was inserted; undo deletes it.
    Inserted {
        /// Table that received the row.
        table: String,
        /// Id of the inserted row.
        id: RowId,
    },
    /// A row was updated; undo restores the old image.
    Updated {
        /// Table containing the row.
        table: String,
        /// Id of the updated row.
        id: RowId,
        /// Pre-update image.
        old: Vec<Value>,
    },
    /// A row was deleted; undo re-inserts the old image.
    Deleted {
        /// Table the row was deleted from.
        table: String,
        /// Id of the deleted row.
        id: RowId,
        /// Pre-delete image.
        old: Vec<Value>,
    },
}

/// The set of tables in one database.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`] when the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> DbResult<()> {
        let key = Self::key(schema.name());
        if self.tables.contains_key(&key) {
            return Err(DbError::TableExists(schema.name().to_string()));
        }
        self.tables.insert(key, Table::new(schema));
        Ok(())
    }

    /// Drops a table.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when absent.
    pub fn drop_table(&mut self, name: &str) -> DbResult<Table> {
        self.tables
            .remove(&Self::key(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Immutable access to a table.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when absent.
    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(&Self::key(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Mutable access to a table.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`] when absent.
    pub fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    /// Sorted list of table names (canonical lowercase form).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Applies one undo record, reversing a mutation.
    pub fn apply_undo(&mut self, rec: UndoRecord) {
        match rec {
            UndoRecord::Inserted { table, id } => {
                if let Ok(t) = self.table_mut(&table) {
                    let _ = t.delete(id);
                }
            }
            UndoRecord::Updated { table, id, old } => {
                if let Ok(t) = self.table_mut(&table) {
                    t.restore(id, old);
                }
            }
            UndoRecord::Deleted { table, id, old } => {
                if let Ok(t) = self.table_mut(&table) {
                    t.restore(id, old);
                }
            }
        }
    }

    /// Checks that `value` exists in `table.column` — used to enforce
    /// `REFERENCES` constraints on insert/update. When `column` is the
    /// table's primary key (as for `driver_permission.driver_id →
    /// drivers.driver_id`), this is one index probe, not a scan.
    ///
    /// # Errors
    ///
    /// [`DbError::ForeignKey`] when the referenced row is missing, or the
    /// referenced table/column does not exist.
    pub fn check_reference(&self, table: &str, column: &str, value: &Value) -> DbResult<()> {
        if value.is_null() {
            return Ok(());
        }
        let t = self
            .table(table)
            .map_err(|_| DbError::ForeignKey(format!("referenced table {table} missing")))?;
        let idx = t.schema().col_index(column).map_err(|_| {
            DbError::ForeignKey(format!("referenced column {table}.{column} missing"))
        })?;
        if t.contains_value(idx, value) {
            Ok(())
        } else {
            Err(DbError::ForeignKey(format!(
                "no row with {table}.{column} = {value}"
            )))
        }
    }

    /// Checks that no row in any table references `value` in
    /// `table.column` — used to restrict deletes from parent tables.
    ///
    /// # Errors
    ///
    /// [`DbError::ForeignKey`] when a referencing row exists.
    pub fn check_no_referents(&self, table: &str, column: &str, value: &Value) -> DbResult<()> {
        for t in self.tables.values() {
            for (ci, c) in t.schema().columns().iter().enumerate() {
                if let Some((rt, rc)) = c.references_target() {
                    if rt.eq_ignore_ascii_case(table)
                        && rc.eq_ignore_ascii_case(column)
                        && t.contains_value(ci, value)
                    {
                        return Err(DbError::ForeignKey(format!(
                            "{}.{} still references {table}.{column} = {value}",
                            t.schema().name(),
                            c.name()
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn catalog_with_fk() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "drivers",
                vec![
                    Column::new("driver_id", DataType::Integer).primary_key(),
                    Column::new("api_name", DataType::Varchar).not_null(),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            TableSchema::new(
                "driver_permission",
                vec![
                    Column::new("user", DataType::Varchar),
                    Column::new("driver_id", DataType::Integer)
                        .not_null()
                        .references("drivers", "driver_id"),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn insert_get_delete() {
        let mut t = Table::new(
            TableSchema::new("t", vec![Column::new("a", DataType::Integer).primary_key()]).unwrap(),
        );
        let id = t.insert(vec![Value::Integer(1)]).unwrap();
        assert_eq!(t.get(id).unwrap()[0], Value::Integer(1));
        assert_eq!(t.len(), 1);
        let old = t.delete(id).unwrap();
        assert_eq!(old[0], Value::Integer(1));
        assert!(t.is_empty());
        assert!(t.delete(id).is_err());
    }

    #[test]
    fn primary_key_uniqueness() {
        let mut t = Table::new(
            TableSchema::new("t", vec![Column::new("a", DataType::Integer).primary_key()]).unwrap(),
        );
        t.insert(vec![Value::Integer(1)]).unwrap();
        assert!(matches!(
            t.insert(vec![Value::Integer(1)]),
            Err(DbError::DuplicateKey(_))
        ));
        // Updating the only row to its own key is fine.
        let id = t.iter().next().unwrap().0;
        t.update(id, vec![Value::Integer(1)]).unwrap();
        // But colliding with another row is not.
        t.insert(vec![Value::Integer(2)]).unwrap();
        assert!(t.update(id, vec![Value::Integer(2)]).is_err());
    }

    #[test]
    fn undo_reverses_mutations() {
        let mut c = Catalog::new();
        c.create_table(TableSchema::new("t", vec![Column::new("a", DataType::Integer)]).unwrap())
            .unwrap();
        let id = c
            .table_mut("t")
            .unwrap()
            .insert(vec![Value::Integer(1)])
            .unwrap();
        let old = c
            .table_mut("t")
            .unwrap()
            .update(id, vec![Value::Integer(2)])
            .unwrap();
        c.apply_undo(UndoRecord::Updated {
            table: "t".into(),
            id,
            old,
        });
        assert_eq!(c.table("t").unwrap().get(id).unwrap()[0], Value::Integer(1));
        let old = c.table_mut("t").unwrap().delete(id).unwrap();
        c.apply_undo(UndoRecord::Deleted {
            table: "t".into(),
            id,
            old,
        });
        assert_eq!(c.table("t").unwrap().len(), 1);
        c.apply_undo(UndoRecord::Inserted {
            table: "t".into(),
            id,
        });
        assert!(c.table("t").unwrap().is_empty());
    }

    #[test]
    fn foreign_key_checks() {
        let mut c = catalog_with_fk();
        c.table_mut("drivers")
            .unwrap()
            .insert(vec![Value::Integer(1), Value::str("JDBC")])
            .unwrap();
        // Insert referencing existing driver: ok.
        c.check_reference("drivers", "driver_id", &Value::Integer(1))
            .unwrap();
        // Any numeric type finds the key through the index.
        c.check_reference("drivers", "driver_id", &Value::BigInt(1))
            .unwrap();
        // Missing driver, or a value no INTEGER key equals: rejected.
        assert!(c
            .check_reference("drivers", "driver_id", &Value::Integer(9))
            .is_err());
        assert!(c
            .check_reference("drivers", "driver_id", &Value::str("1"))
            .is_err());
        // NULL reference: allowed.
        c.check_reference("drivers", "driver_id", &Value::Null)
            .unwrap();

        // With a referencing permission row, parent delete is restricted.
        c.table_mut("driver_permission")
            .unwrap()
            .insert(vec![Value::str("bob"), Value::Integer(1)])
            .unwrap();
        assert!(c
            .check_no_referents("drivers", "driver_id", &Value::Integer(1))
            .is_err());
        assert!(c
            .check_no_referents("drivers", "driver_id", &Value::Integer(2))
            .is_ok());
    }

    #[test]
    fn catalog_names_are_case_insensitive() {
        let c = catalog_with_fk();
        assert!(c.has_table("DRIVERS"));
        assert!(c.table("Drivers").is_ok());
    }

    fn keyed() -> Table {
        Table::new(
            TableSchema::new(
                "t",
                vec![
                    Column::new("a", DataType::Integer).primary_key(),
                    Column::new("b", DataType::Integer),
                ],
            )
            .unwrap(),
        )
    }

    /// Row ids the index returns for key `k`, checked against a scan.
    fn probe(t: &Table, k: i64) -> Vec<RowId> {
        let hits: Vec<RowId> = t
            .rows_with_pk(&Value::Integer(k))
            .expect("integer probes an integer key")
            .map(|(id, _)| id)
            .collect();
        let scanned: Vec<RowId> = t
            .iter()
            .filter(|(_, r)| r[0].sql_eq(&Value::Integer(k)) == Some(true))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(hits, scanned, "index and scan disagree on key {k}");
        hits
    }

    #[test]
    fn index_survives_rollback_of_insert_delete_and_key_update() {
        let mut c = Catalog::new();
        c.create_table(keyed().schema().clone()).unwrap();
        let t = c.table_mut("t").unwrap();
        let r1 = t
            .insert(vec![Value::Integer(1), Value::Integer(10)])
            .unwrap();
        let r2 = t
            .insert(vec![Value::Integer(2), Value::Integer(20)])
            .unwrap();

        // One transaction: insert 3, delete 1, move 2 -> 5.
        let mut log = Vec::new();
        let r3 = t
            .insert(vec![Value::Integer(3), Value::Integer(30)])
            .unwrap();
        log.push(UndoRecord::Inserted {
            table: "t".into(),
            id: r3,
        });
        let old = t.delete(r1).unwrap();
        log.push(UndoRecord::Deleted {
            table: "t".into(),
            id: r1,
            old,
        });
        let old = t
            .update(r2, vec![Value::Integer(5), Value::Integer(20)])
            .unwrap();
        log.push(UndoRecord::Updated {
            table: "t".into(),
            id: r2,
            old,
        });
        assert_eq!(probe(t, 1), Vec::<RowId>::new());
        assert_eq!(probe(t, 2), Vec::<RowId>::new());
        assert_eq!(probe(t, 5), vec![r2]);

        for rec in log.into_iter().rev() {
            c.apply_undo(rec);
        }
        let t = c.table_mut("t").unwrap();
        assert_eq!(probe(t, 1), vec![r1]);
        assert_eq!(probe(t, 2), vec![r2]);
        assert_eq!(probe(t, 3), Vec::<RowId>::new());
        assert_eq!(probe(t, 5), Vec::<RowId>::new());
        // Restored keys are taken again; rolled-back ones are free.
        assert!(matches!(
            t.insert(vec![Value::Integer(1), Value::Null]),
            Err(DbError::DuplicateKey(_))
        ));
        assert!(matches!(
            t.insert(vec![Value::Integer(2), Value::Null]),
            Err(DbError::DuplicateKey(_))
        ));
        t.insert(vec![Value::Integer(3), Value::Null]).unwrap();
        t.insert(vec![Value::Integer(5), Value::Null]).unwrap();
    }

    #[test]
    fn key_update_moves_the_uniqueness_claim() {
        let mut t = keyed();
        let r1 = t.insert(vec![Value::Integer(1), Value::Null]).unwrap();
        let r2 = t.insert(vec![Value::Integer(2), Value::Null]).unwrap();
        t.update(r1, vec![Value::Integer(7), Value::Null]).unwrap();
        // The new key is claimed...
        assert!(matches!(
            t.insert(vec![Value::Integer(7), Value::Null]),
            Err(DbError::DuplicateKey(_))
        ));
        assert!(matches!(
            t.update(r2, vec![Value::BigInt(7), Value::Null]),
            Err(DbError::DuplicateKey(_))
        ));
        // ...and the old one released.
        let r3 = t.insert(vec![Value::Integer(1), Value::Null]).unwrap();
        assert_eq!(probe(&t, 1), vec![r3]);
        assert_eq!(probe(&t, 7), vec![r1]);
        assert_eq!(probe(&t, 2), vec![r2]);
    }

    #[test]
    fn probes_follow_sql_comparison_rules() {
        let mut t = keyed();
        let id = t.insert(vec![Value::Integer(1), Value::Null]).unwrap();
        // Numeric types share one key.
        for v in [Value::Integer(1), Value::BigInt(1), Value::Timestamp(1)] {
            let hits: Vec<RowId> = t.rows_with_pk(&v).unwrap().map(|(i, _)| i).collect();
            assert_eq!(hits, vec![id], "{v:?}");
            assert!(t.contains_value(0, &v));
        }
        // A string never equals an INTEGER key, and NULL equals nothing:
        // the index declines both, and the key column contains neither.
        for v in [Value::str("1"), Value::Null] {
            assert!(t.rows_with_pk(&v).is_none(), "{v:?}");
            assert!(!t.contains_value(0, &v), "{v:?}");
        }
        // A table without a primary key has no index to probe.
        let bare =
            Table::new(TableSchema::new("u", vec![Column::new("a", DataType::Integer)]).unwrap());
        assert!(bare.rows_with_pk(&Value::Integer(1)).is_none());
    }

    #[test]
    fn restore_bumps_next_row_id() {
        let mut t =
            Table::new(TableSchema::new("t", vec![Column::new("a", DataType::Integer)]).unwrap());
        t.restore(10, vec![Value::Integer(1)]);
        let id = t.insert(vec![Value::Integer(2)]).unwrap();
        assert!(id > 10);
    }
}
