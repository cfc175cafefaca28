//! A named collection of tables.

use crate::error::EngineError;
use crate::table::Table;
use provabs_provenance::fxhash::FxHashMap;
use std::sync::Arc;

/// Name → table registry. Tables are held behind [`Arc`]s, so a query
/// plan that scans or joins one shares it instead of copying it.
#[derive(Default, Debug)]
pub struct Catalog {
    tables: FxHashMap<String, Arc<Table>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table; errors if the name is taken. A registered table
    /// is never appended to again, so it gives back its spare capacity.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        mut table: Table,
    ) -> Result<(), EngineError> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(EngineError::DuplicateTable(name));
        }
        table.shrink_to_fit();
        self.tables.insert(name, Arc::new(table));
        Ok(())
    }

    /// Looks a table up by name.
    pub fn get(&self, name: &str) -> Result<&Table, EngineError> {
        self.entry(name).map(|table| &**table)
    }

    /// A shared handle to a table — what
    /// [`Pipeline::scan`](crate::query::Pipeline::scan) and
    /// [`Pipeline::join`](crate::query::Pipeline::join) hold on to.
    pub fn share(&self, name: &str) -> Result<Arc<Table>, EngineError> {
        self.entry(name).map(Arc::clone)
    }

    fn entry(&self, name: &str) -> Result<&Arc<Table>, EngineError> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Table names (unordered).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Total number of tuples across all tables (the "input data size"
    /// axis of Figure 8).
    pub fn total_tuples(&self) -> usize {
        self.tables.values().map(|table| table.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::value::Value;

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        let mut t = Table::new(Schema::of(&[("id", ColumnType::Int)]));
        t.push(vec![Value::Int(1)]).expect("ok");
        c.register("t", t).expect("ok");
        assert_eq!(c.get("t").expect("ok").len(), 1);
        assert!(c.get("u").is_err());
        assert_eq!(c.total_tuples(), 1);
    }

    #[test]
    fn shared_handles_alias_the_registered_table() {
        let mut c = Catalog::new();
        c.register("t", Table::new(Schema::of(&[("id", ColumnType::Int)])))
            .expect("ok");
        let handle = c.share("t").expect("ok");
        assert!(std::ptr::eq(&*handle, c.get("t").expect("ok")));
        assert!(c.share("u").is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.register("t", Table::new(Schema::of(&[("id", ColumnType::Int)])))
            .expect("ok");
        let err = c
            .register("t", Table::new(Schema::of(&[("id", ColumnType::Int)])))
            .expect_err("duplicate");
        assert_eq!(err, EngineError::DuplicateTable("t".into()));
    }
}
