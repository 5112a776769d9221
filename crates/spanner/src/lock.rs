//! Cell-granular lock manager.
//!
//! Spanner read-write transactions are lock-based (paper §IV-D1: "Firestore's
//! transactions map directly to Spanner transactions, which are lock-based
//! and use two-phase-commits across tablets"). We implement shared (read) and
//! exclusive (write) locks at `(table, key)` granularity — row-granular, like
//! the paper notes Spanner provides ("Spanner provides row-granular atomicity
//! guarantees").
//!
//! Conflicts do not block: the requester gets [`SpannerError::LockConflict`]
//! and retries the whole transaction, which is how the paper says lock
//! contention and deadlocks are resolved (§IV-D3: "resolved by failing and
//! retrying such transactions"). No wait graph means no deadlock detector.

use crate::error::{SpannerError, SpannerResult};
use crate::key::Key;
use crate::txn::TxnId;
use parking_lot::Mutex;
use simkit::fault::FaultKind;
use simkit::World;
use std::collections::HashMap;

/// Lock mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Shared: many readers.
    Shared,
    /// Exclusive: single writer.
    Exclusive,
}

#[derive(Debug)]
struct LockState {
    mode: LockMode,
    holders: Vec<TxnId>,
}

/// A lock identity: table + row key.
pub type LockName = (u32, Key);

/// The lock table. One per Spanner database.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: Mutex<HashMap<LockName, LockState>>,
}

impl LockManager {
    /// Create an empty lock manager.
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Try to acquire a lock for `txn`. Shared locks are compatible with
    /// other shared locks; a transaction already holding a shared lock can
    /// upgrade to exclusive if it is the only holder. Re-acquisition is
    /// idempotent. A [`FaultKind::LockTimeout`] fault in the caller's
    /// `world` fails the attempt with [`SpannerError::LockTimeout`].
    pub fn acquire(
        &self,
        txn: TxnId,
        table: u32,
        key: &Key,
        mode: LockMode,
        world: &World,
    ) -> SpannerResult<()> {
        if world.inject(FaultKind::LockTimeout, "lock-acquire") {
            return Err(SpannerError::LockTimeout);
        }
        let mut locks = self.locks.lock();
        let name = (table, key.clone());
        match locks.get_mut(&name) {
            None => {
                locks.insert(
                    name,
                    LockState {
                        mode,
                        holders: vec![txn],
                    },
                );
                Ok(())
            }
            Some(state) => {
                let already_holds = state.holders.contains(&txn);
                match (state.mode, mode) {
                    (LockMode::Shared, LockMode::Shared) => {
                        if !already_holds {
                            state.holders.push(txn);
                        }
                        Ok(())
                    }
                    (LockMode::Shared, LockMode::Exclusive) => {
                        if already_holds && state.holders.len() == 1 {
                            state.mode = LockMode::Exclusive; // upgrade
                            Ok(())
                        } else if already_holds {
                            // Another reader blocks our upgrade. A holder
                            // list that contains only us despite len > 1 is
                            // a corrupted entry: surface it as a typed
                            // internal error rather than panicking.
                            let Some(holder) =
                                state.holders.iter().find(|&&h| h != txn).copied()
                            else {
                                return Err(SpannerError::Internal(format!(
                                    "lock table corrupted: shared holder list for \
                                     {name:?} duplicates {txn:?}"
                                )));
                            };
                            Err(SpannerError::LockConflict {
                                requester: txn,
                                holder,
                                key: key.clone(),
                            })
                        } else {
                            Err(SpannerError::LockConflict {
                                requester: txn,
                                holder: state.holders[0],
                                key: key.clone(),
                            })
                        }
                    }
                    (LockMode::Exclusive, _) => {
                        if already_holds {
                            Ok(())
                        } else {
                            Err(SpannerError::LockConflict {
                                requester: txn,
                                holder: state.holders[0],
                                key: key.clone(),
                            })
                        }
                    }
                }
            }
        }
    }

    /// Release every lock held by `txn`.
    pub fn release_all(&self, txn: TxnId) {
        let mut locks = self.locks.lock();
        locks.retain(|_, state| {
            state.holders.retain(|&h| h != txn);
            !state.holders.is_empty()
        });
    }

    /// Number of currently locked cells (for tests and metrics).
    pub fn locked_cells(&self) -> usize {
        self.locks.lock().len()
    }

    /// Drop every lock (a process crash loses the volatile lock table).
    /// Returns how many cells were locked — the orphan locks discarded.
    pub fn clear(&self) -> usize {
        let mut locks = self.locks.lock();
        let n = locks.len();
        locks.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{SimEnv, WorldRef};

    /// A world with nothing installed.
    fn calm() -> WorldRef {
        SimEnv::default().world()
    }

    const T: u32 = 0;

    #[test]
    fn exclusive_excludes_everyone() {
        let lm = LockManager::new();
        let w = calm();
        let k = Key::from("k");
        lm.acquire(TxnId(1), T, &k, LockMode::Exclusive, &w)
            .unwrap();
        assert!(lm
            .acquire(TxnId(2), T, &k, LockMode::Exclusive, &w)
            .is_err());
        assert!(lm.acquire(TxnId(2), T, &k, LockMode::Shared, &w).is_err());
        // Re-acquisition by the holder is fine.
        lm.acquire(TxnId(1), T, &k, LockMode::Exclusive, &w)
            .unwrap();
        lm.acquire(TxnId(1), T, &k, LockMode::Shared, &w).unwrap();
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        let w = calm();
        let k = Key::from("k");
        lm.acquire(TxnId(1), T, &k, LockMode::Shared, &w).unwrap();
        lm.acquire(TxnId(2), T, &k, LockMode::Shared, &w).unwrap();
        // But a writer is blocked.
        let err = lm
            .acquire(TxnId(3), T, &k, LockMode::Exclusive, &w)
            .unwrap_err();
        assert!(matches!(err, SpannerError::LockConflict { .. }));
    }

    #[test]
    fn upgrade_allowed_only_for_sole_reader() {
        let lm = LockManager::new();
        let w = calm();
        let k = Key::from("k");
        lm.acquire(TxnId(1), T, &k, LockMode::Shared, &w).unwrap();
        lm.acquire(TxnId(1), T, &k, LockMode::Exclusive, &w)
            .unwrap(); // sole holder upgrades
        lm.release_all(TxnId(1));

        lm.acquire(TxnId(1), T, &k, LockMode::Shared, &w).unwrap();
        lm.acquire(TxnId(2), T, &k, LockMode::Shared, &w).unwrap();
        assert!(lm
            .acquire(TxnId(1), T, &k, LockMode::Exclusive, &w)
            .is_err());
    }

    #[test]
    fn release_unblocks() {
        let lm = LockManager::new();
        let w = calm();
        let k = Key::from("k");
        lm.acquire(TxnId(1), T, &k, LockMode::Exclusive, &w)
            .unwrap();
        lm.release_all(TxnId(1));
        lm.acquire(TxnId(2), T, &k, LockMode::Exclusive, &w)
            .unwrap();
        assert_eq!(lm.locked_cells(), 1);
    }

    #[test]
    fn different_keys_and_tables_do_not_conflict() {
        let lm = LockManager::new();
        let w = calm();
        lm.acquire(TxnId(1), 0, &Key::from("k"), LockMode::Exclusive, &w)
            .unwrap();
        lm.acquire(TxnId(2), 0, &Key::from("other"), LockMode::Exclusive, &w)
            .unwrap();
        lm.acquire(TxnId(3), 1, &Key::from("k"), LockMode::Exclusive, &w)
            .unwrap();
    }

    #[test]
    fn shared_release_keeps_other_holders() {
        let lm = LockManager::new();
        let w = calm();
        let k = Key::from("k");
        lm.acquire(TxnId(1), T, &k, LockMode::Shared, &w).unwrap();
        lm.acquire(TxnId(2), T, &k, LockMode::Shared, &w).unwrap();
        lm.release_all(TxnId(1));
        // Txn 2 still holds it; a writer is still blocked.
        assert!(lm
            .acquire(TxnId(3), T, &k, LockMode::Exclusive, &w)
            .is_err());
        lm.release_all(TxnId(2));
        lm.acquire(TxnId(3), T, &k, LockMode::Exclusive, &w)
            .unwrap();
    }
}
