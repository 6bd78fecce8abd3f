//! Strict two-phase locking as a [`CcProtocol`].
//!
//! Reads take shared locks, pre-writes take exclusive locks, and every lock
//! is held until the transaction's commit or abort reaches this site (strict
//! 2PL), which is exactly what two-phase commit needs: data written by a
//! prepared transaction stays locked until the decision arrives. A request
//! that must wait for a lock answers [`CcDecision::Wait`]; the site parks it
//! and asks again after a release.

use crate::lock::{LockError, LockManager, LockMode, LockStep};
use crate::types::{CcDecision, CcProtocol, TxnContext};
use rainbow_common::protocol::DeadlockPolicy;
use rainbow_common::txn::AbortCause;
use rainbow_common::{ItemId, Value, Version};
use std::time::Duration;

/// The 2PL concurrency-control protocol for one site.
pub struct TwoPhaseLocking {
    locks: LockManager,
}

impl TwoPhaseLocking {
    /// Creates a 2PL instance with the given deadlock policy and lock-wait
    /// timeout.
    pub fn new(policy: DeadlockPolicy, lock_wait_timeout: Duration) -> Self {
        TwoPhaseLocking {
            locks: LockManager::new(policy, lock_wait_timeout),
        }
    }

    /// The underlying lock manager (exposed for statistics and tests).
    pub fn lock_manager(&self) -> &LockManager {
        &self.locks
    }

    fn map_error(error: LockError, item: &ItemId) -> AbortCause {
        match error {
            LockError::Deadlock | LockError::Wounded => {
                AbortCause::CcpDeadlock { item: item.clone() }
            }
            LockError::Timeout => AbortCause::CcpLockConflict {
                item: item.clone(),
                holder: None,
            },
        }
    }

    fn acquire(&self, txn: &TxnContext, item: &ItemId, mode: LockMode) -> CcDecision {
        match self.locks.request(txn.id, txn.ts, item, mode) {
            Ok(LockStep::Granted) => CcDecision::granted(),
            Ok(LockStep::Wait) => CcDecision::Wait,
            Err(error) => CcDecision::Rejected(Self::map_error(error, item)),
        }
    }
}

impl CcProtocol for TwoPhaseLocking {
    fn read(&self, txn: &TxnContext, item: &ItemId, _current: (Value, Version)) -> CcDecision {
        self.acquire(txn, item, LockMode::Shared)
    }

    fn prewrite(&self, txn: &TxnContext, item: &ItemId, _current: (Value, Version)) -> CcDecision {
        self.acquire(txn, item, LockMode::Exclusive)
    }

    fn wait_budget(&self) -> Duration {
        self.locks.wait_timeout()
    }

    fn cancel_wait(&self, txn: &TxnContext, item: &ItemId) -> AbortCause {
        self.locks.cancel_wait(txn.id, item);
        Self::map_error(LockError::Timeout, item)
    }

    fn registered_waits(&self) -> usize {
        self.locks.waiters() + self.locks.wait_edges()
    }

    fn validate(&self, txn: &TxnContext) -> CcDecision {
        if self.locks.is_wounded(txn.id) {
            return CcDecision::Rejected(AbortCause::CcpDeadlock {
                item: ItemId::new("<wounded>"),
            });
        }
        // A participant being prepared always holds at least one lock: every
        // access this site granted is locked until the decision (strict
        // 2PL). Holding nothing means the grants were lost — the site
        // crashed and recovered with a fresh lock table, or the janitor
        // already released the transaction — and other transactions may have
        // locked the same items since, so vouching for the old accesses
        // would break serializability (the chaos harness catches exactly
        // this as a cycle). Vote NO instead.
        if self.locks.held_by(txn.id).is_empty() {
            return CcDecision::Rejected(AbortCause::CcpLockConflict {
                item: ItemId::new("<grants-lost>"),
                holder: None,
            });
        }
        CcDecision::granted()
    }

    fn commit(&self, txn: &TxnContext, _writes: &[(ItemId, Value, Version)]) {
        self.locks.release_all(txn.id);
    }

    fn abort(&self, txn: &TxnContext) {
        self.locks.release_all(txn.id);
    }

    fn name(&self) -> &'static str {
        "2PL"
    }

    fn active_transactions(&self) -> usize {
        self.locks.active_transactions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::{SiteId, Timestamp, TxnId};

    fn ctx(seq: u64, ts: u64) -> TxnContext {
        TxnContext::new(TxnId::new(SiteId(0), seq), Timestamp::new(ts, 0))
    }

    fn item(name: &str) -> ItemId {
        ItemId::new(name)
    }

    fn current() -> (Value, Version) {
        (Value::Int(0), Version(0))
    }

    fn tpl(policy: DeadlockPolicy) -> TwoPhaseLocking {
        TwoPhaseLocking::new(policy, Duration::from_millis(80))
    }

    #[test]
    fn readers_share_writers_exclude() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        let t2 = ctx(2, 2);
        assert!(cc.read(&t1, &item("x"), current()).is_granted());
        assert!(cc.read(&t2, &item("x"), current()).is_granted());
        // A writer cannot get in while readers hold the item: it waits, and
        // is denied with a lock conflict when its wait is withdrawn.
        let t3 = ctx(3, 3);
        assert_eq!(cc.prewrite(&t3, &item("x"), current()), CcDecision::Wait);
        assert_eq!(cc.registered_waits(), 2, "one waiter plus its edge");
        assert!(matches!(
            cc.cancel_wait(&t3, &item("x")),
            AbortCause::CcpLockConflict { .. }
        ));
        assert_eq!(cc.registered_waits(), 0);
        assert_eq!(cc.wait_budget(), Duration::from_millis(80));
    }

    #[test]
    fn commit_releases_locks_for_waiting_writers() {
        let cc = tpl(DeadlockPolicy::TimeoutOnly);
        let t1 = ctx(1, 1);
        let t2 = ctx(2, 2);
        assert!(cc.prewrite(&t1, &item("x"), current()).is_granted());
        assert_eq!(cc.prewrite(&t2, &item("x"), current()), CcDecision::Wait);
        cc.commit(&t1, &[(item("x"), Value::Int(1), Version(1))]);
        assert!(cc.prewrite(&t2, &item("x"), current()).is_granted());
        assert_eq!(cc.registered_waits(), 0);
    }

    #[test]
    fn abort_also_releases_locks() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        assert!(cc.prewrite(&t1, &item("x"), current()).is_granted());
        assert_eq!(cc.active_transactions(), 1);
        cc.abort(&t1);
        assert_eq!(cc.active_transactions(), 0);
        let t2 = ctx(2, 2);
        assert!(cc.prewrite(&t2, &item("x"), current()).is_granted());
    }

    #[test]
    fn deadlock_is_reported_as_ccp_deadlock() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        let t2 = ctx(2, 2);
        assert!(cc.prewrite(&t1, &item("x"), current()).is_granted());
        assert!(cc.prewrite(&t2, &item("y"), current()).is_granted());
        assert_eq!(cc.prewrite(&t1, &item("y"), current()), CcDecision::Wait);
        let d = cc.prewrite(&t2, &item("x"), current());
        assert!(matches!(
            d.rejection(),
            Some(AbortCause::CcpDeadlock { .. })
        ));
        cc.abort(&t2);
        assert!(cc.prewrite(&t1, &item("y"), current()).is_granted());
    }

    #[test]
    fn wounded_transaction_fails_validation() {
        let cc = tpl(DeadlockPolicy::WoundWait);
        let young = ctx(2, 10);
        let old = ctx(1, 1);
        assert!(cc.prewrite(&young, &item("x"), current()).is_granted());
        // Older transaction wounds the younger holder and waits.
        assert_eq!(cc.prewrite(&old, &item("x"), current()), CcDecision::Wait);
        assert!(!cc.validate(&young).is_granted());
        cc.abort(&young);
        assert!(cc.prewrite(&old, &item("x"), current()).is_granted());
        // The winning older transaction — now actually holding the lock,
        // as any prepared participant does — validates cleanly.
        assert!(cc.validate(&old).is_granted());
    }

    #[test]
    fn validate_passes_for_unwounded_transactions() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        assert!(cc.read(&t1, &item("x"), current()).is_granted());
        assert!(cc.validate(&t1).is_granted());
        assert_eq!(cc.name(), "2PL");
    }

    #[test]
    fn validate_rejects_transactions_holding_no_resources() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        // No lock held at this site (grants lost in a crash, or released by
        // the janitor): the site must not vouch for the old accesses.
        assert!(!cc.validate(&t1).is_granted());
        // Once an access is granted (and still held), validation passes.
        assert!(cc.read(&t1, &item("x"), current()).is_granted());
        assert!(cc.validate(&t1).is_granted());
        // After release (decision applied), a late re-validation fails again.
        cc.commit(&t1, &[]);
        assert!(!cc.validate(&t1).is_granted());
    }

    #[test]
    fn read_then_upgrade_to_write_on_same_item() {
        let cc = tpl(DeadlockPolicy::WaitForGraph);
        let t1 = ctx(1, 1);
        assert!(cc.read(&t1, &item("x"), current()).is_granted());
        assert!(cc.prewrite(&t1, &item("x"), current()).is_granted());
        cc.commit(&t1, &[(item("x"), Value::Int(5), Version(1))]);
        assert_eq!(cc.active_transactions(), 0);
    }
}
