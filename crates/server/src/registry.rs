//! The session registry: N named [`Session`]s behind one name map.
//!
//! A [`Session`] is shared, not locked — every façade method takes
//! `&self`, the compress-once state and the lazy lowerings live in
//! once-cells — so an entry holds its session directly and any number of
//! request threads work on one entry at once ("hundreds of requests,
//! `compile_count() == 1`": the first ask freezes, every concurrent and
//! later one reads that freeze). The one `RwLock` on the name map is the
//! server's whole lock inventory: lookups take the read side for a probe
//! and an `Arc::clone`, only create and delete take the write side, and
//! nothing is held while a request runs.

use crate::error::WireError;
use provabs_session::Session;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, PoisonError, RwLock};

/// One hosted session plus its per-session wire counters.
pub struct SessionEntry {
    /// The registry name.
    pub name: String,
    /// The hosted session, shared by every request that resolves this
    /// entry.
    pub session: Session,
    /// Requests served against this session (any route).
    pub requests: AtomicU64,
    /// Scenario answers streamed from this session.
    pub scenarios: AtomicU64,
}

impl std::fmt::Debug for SessionEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionEntry")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// The name → session map; [`Registry::default`] is the empty one.
/// Poisoning is tolerated on both sides of its lock: a panicking handler
/// is isolated to its own request ([`crate::server`] catches it), and the
/// map operations it could have been inside are single `HashMap` calls,
/// which leave the map valid.
#[derive(Default)]
pub struct Registry {
    names: RwLock<HashMap<String, Arc<SessionEntry>>>,
}

impl Registry {
    /// Registers a fresh session under `name`; `409` if taken.
    pub fn insert(&self, name: &str, session: Session) -> Result<Arc<SessionEntry>, WireError> {
        let entry = Arc::new(SessionEntry {
            name: name.to_string(),
            session,
            requests: AtomicU64::new(0),
            scenarios: AtomicU64::new(0),
        });
        let mut names = self.names.write().unwrap_or_else(PoisonError::into_inner);
        if names.contains_key(name) {
            return Err(WireError::new(
                409,
                "session_exists",
                format!("a session named {name:?} already exists"),
            ));
        }
        names.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Resolves a session by name.
    pub fn get(&self, name: &str) -> Option<Arc<SessionEntry>> {
        self.read().get(name).cloned()
    }

    /// Removes and returns a session.
    pub fn remove(&self, name: &str) -> Option<Arc<SessionEntry>> {
        self.names
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
    }

    /// All entries, sorted by name (for `/stats` and `/sessions`).
    pub fn entries(&self) -> Vec<Arc<SessionEntry>> {
        let mut all: Vec<Arc<SessionEntry>> = self.read().values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Number of hosted sessions.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no session is hosted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<SessionEntry>>> {
        self.names.read().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_scenario::Scenario;
    use provabs_session::SessionBuilder;

    fn session() -> Session {
        SessionBuilder::from_text("1·x + 2·y")
            .expect("parses")
            .forest_text("X(x, y)")
            .expect("parses")
            .bound(1)
            .build()
            .expect("valid")
    }

    #[test]
    fn insert_get_remove_and_name_collisions() {
        let reg = Registry::default();
        assert!(reg.is_empty());
        reg.insert("a", session()).expect("fresh name");
        reg.insert("b", session()).expect("fresh name");
        let dup = reg.insert("a", session()).expect_err("taken");
        assert_eq!((dup.status, dup.code), (409, "session_exists"));
        assert_eq!(reg.len(), 2);
        assert!(reg.get("a").is_some());
        assert!(reg.get("zz").is_none());
        let names: Vec<String> = reg.entries().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(reg.remove("a").is_some());
        assert!(reg.remove("a").is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn entries_are_usable_concurrently() {
        let reg = Arc::new(Registry::default());
        reg.insert("shared", session()).expect("fresh");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let entry = reg.get("shared").expect("present");
                    let run = entry
                        .session
                        .ask(&[Scenario::new().set("X", 0.5)])
                        .expect("X is the abstracted variable");
                    run.values
                })
            })
            .collect();
        for h in handles {
            // 1·x + 2·y compresses to 3·X.
            assert_eq!(h.join().expect("no panic"), vec![vec![1.5]]);
        }
        // Four threads asked an uncompressed session at once: one of them
        // compressed and froze, the others waited for it and read.
        let entry = reg.get("shared").expect("present");
        assert_eq!(entry.session.compile_count(), 1);
    }
}
