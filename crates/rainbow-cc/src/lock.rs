//! The strict two-phase-locking lock manager.
//!
//! One [`LockManager`] guards the local copies of one Rainbow site. It
//! implements shared/exclusive item locks with upgrades, bounded waiting,
//! and all four deadlock-handling policies exposed in the protocol
//! configuration panel:
//!
//! * **wait-for-graph**: the requester waits; if adding its wait edges
//!   creates a cycle, the requester is aborted as the deadlock victim;
//! * **wait-die**: an older requester waits, a younger requester is aborted
//!   immediately ("dies");
//! * **wound-wait**: an older requester "wounds" (aborts) younger holders and
//!   then waits; a younger requester simply waits;
//! * **timeout-only**: the requester waits and the wait timeout is the only
//!   deadlock resolution mechanism.
//!
//! The manager never blocks. [`LockManager::request`] is one step of a lock
//! request: grant, fail, or register a waiter and answer
//! [`LockStep::Wait`]. The caller (the site's participant loop) parks a
//! waiting request, asks again after a release, and withdraws it with
//! [`LockManager::cancel_wait`] once the configured lock-wait timeout has
//! passed. Waits are so bounded whatever the policy, and a distributed
//! deadlock spanning several sites (which no local wait-for graph can see)
//! is eventually broken as well.
//!
//! # Sharding
//!
//! The lock table is split into [`LockManager::shard_count`] independently
//! locked shards keyed by the item's interned hash ([`ItemId::token`]), so
//! concurrent transactions touching different items proceed without
//! contending on one global mutex. Per-item state (holders, waiters) lives
//! entirely inside one shard; cross-item state is factored out:
//!
//! * **timestamps** (wait-die / wound-wait ordering) sit behind a
//!   read-mostly `RwLock`;
//! * **wounded** flags sit behind their own `RwLock`;
//! * the **wait-for graph** has a dedicated mutex, and edge insertion plus
//!   cycle detection happen atomically under it, so deadlock detection
//!   always sees a consistent snapshot of the whole graph even though the
//!   item shards move independently.
//!
//! Lock order is strictly `shard → auxiliary`, and no auxiliary lock is ever
//! held while taking a shard lock, so the layers cannot deadlock each other.

use parking_lot::{Mutex, RwLock};
use rainbow_common::protocol::DeadlockPolicy;
use rainbow_common::{FxHashMap, FxHashSet, ItemId, Timestamp, TxnId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Lock modes on an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock; compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock; incompatible with everything.
    Exclusive,
}

impl LockMode {
    /// Whether a holder in `self` mode allows another transaction to acquire
    /// `other`.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// A lock request step that did not fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStep {
    /// The lock is held.
    Granted,
    /// Incompatible holders exist and the policy lets the requester wait:
    /// it is registered as a waiter. Ask again after a release.
    Wait,
}

/// Why a lock request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The request would deadlock (wait-for-graph cycle, or wait-die /
    /// wound-wait ordering said the requester must abort).
    Deadlock,
    /// The wait timed out (the error a withdrawn wait is reported as).
    Timeout,
    /// The transaction was wounded by an older transaction (wound-wait) and
    /// must abort.
    Wounded,
}

#[derive(Debug, Default)]
struct ItemLockState {
    /// Current holders. Invariant: either any number of `Shared` holders or
    /// exactly one `Exclusive` holder.
    holders: Vec<(TxnId, LockMode)>,
    /// Transactions currently waiting on this item (bookkeeping and
    /// diagnostics; waiters are re-asked by their caller, not woken here).
    waiters: VecDeque<TxnId>,
}

/// How many idle per-item entries a shard caches before sweeping them.
/// Idle entries keep their allocations so steady-state acquire/release
/// cycles on a working set are allocation-free, while the sweep bounds the
/// table so it does not grow monotonically with every item ever touched.
const IDLE_SWEEP_THRESHOLD: usize = 512;

/// One independently locked slice of the lock table.
#[derive(Debug, Default)]
struct ShardTable {
    items: FxHashMap<ItemId, ItemLockState>,
    /// Entries currently idle (no holders, no waiters), kept for reuse
    /// until [`IDLE_SWEEP_THRESHOLD`] triggers a sweep.
    idle_entries: usize,
}

/// Outcome of a grant attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GrantOutcome {
    /// Granted.
    Granted {
        /// The transaction newly appears in the holder list (not a
        /// re-acquisition or upgrade).
        new_holder: bool,
        /// The transaction was a registered waiter, and no longer is.
        was_waiting: bool,
    },
    /// Incompatible with current holders.
    Refused,
}

impl ShardTable {
    /// Grants `mode` on `item` to `txn` when compatible (including
    /// re-acquisition and sole-holder upgrades), in a single map probe. A
    /// granted waiter is taken off the waiter list.
    fn try_grant(&mut self, item: &ItemId, txn: TxnId, mode: LockMode) -> GrantOutcome {
        let state = match self.items.entry(item.clone()) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                let state = entry.into_mut();
                // A cached idle entry is about to become live again (an
                // idle entry has no holders, so the grant below succeeds).
                if state.holders.is_empty() && state.waiters.is_empty() {
                    self.idle_entries -= 1;
                }
                state
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(ItemLockState::default())
            }
        };
        let held_mode = state
            .holders
            .iter()
            .find(|(holder, _)| *holder == txn)
            .map(|(_, m)| *m);
        let can_grant = match (held_mode, mode) {
            // Already holds an equal or stronger lock.
            (Some(LockMode::Exclusive), _) | (Some(LockMode::Shared), LockMode::Shared) => true,
            // Upgrade: allowed only when it is the sole holder.
            (Some(LockMode::Shared), LockMode::Exclusive) => state.holders.len() == 1,
            // New request: must be compatible with every holder.
            (None, requested) => state
                .holders
                .iter()
                .all(|(_, held)| held.compatible(requested)),
        };
        if !can_grant {
            // The entry is never empty here: incompatibility implies other
            // holders exist, so the probe did not create it.
            return GrantOutcome::Refused;
        }
        let new_holder = match state.holders.iter_mut().find(|(holder, _)| *holder == txn) {
            Some(entry) => {
                // Upgrade shared → exclusive if requested.
                if mode == LockMode::Exclusive {
                    entry.1 = LockMode::Exclusive;
                }
                false
            }
            None => {
                state.holders.push((txn, mode));
                true
            }
        };
        let waiter = state.waiters.iter().position(|waiter| *waiter == txn);
        if let Some(pos) = waiter {
            state.waiters.remove(pos);
        }
        GrantOutcome::Granted {
            new_holder,
            was_waiting: waiter.is_some(),
        }
    }

    /// The holders whose locks conflict with `txn` requesting `mode`.
    fn conflicting_holders(&self, item: &ItemId, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        let Some(state) = self.items.get(item) else {
            return Vec::new();
        };
        state
            .holders
            .iter()
            .filter(|(holder, held)| *holder != txn && !held.compatible(mode))
            .map(|(holder, _)| *holder)
            .collect()
    }

    /// Removes `txn` from the waiter list of `item`, marking the entry idle
    /// when removing the last waiter leaves neither holders nor waiters.
    /// The idle transition only happens when a waiter was actually removed
    /// — otherwise an already-idle cached entry would be counted twice and
    /// corrupt the idle-entry accounting. Returns whether `txn` was waiting.
    fn remove_waiter(&mut self, item: &ItemId, txn: TxnId) -> bool {
        let Some(state) = self.items.get_mut(item) else {
            return false;
        };
        let Some(pos) = state.waiters.iter().position(|waiter| *waiter == txn) else {
            return false;
        };
        state.waiters.remove(pos);
        if state.holders.is_empty() && state.waiters.is_empty() {
            self.idle_entries += 1;
            self.maybe_sweep();
        }
        true
    }

    /// Sweeps cached idle entries once too many accumulate, bounding the
    /// table's footprint without paying an allocation + deallocation on
    /// every routine acquire/release cycle.
    fn maybe_sweep(&mut self) {
        if self.idle_entries > IDLE_SWEEP_THRESHOLD {
            self.items
                .retain(|_, state| !(state.holders.is_empty() && state.waiters.is_empty()));
            self.idle_entries = 0;
        }
    }

    /// Per-item entries currently live (holding locks or queueing waiters).
    fn live_entries(&self) -> usize {
        self.items.len() - self.idle_entries
    }
}

/// Cross-shard wait-for graph, guarded by one mutex so that edge insertion
/// and cycle detection are atomic: detection always sees a consistent
/// snapshot even while the item shards move concurrently.
#[derive(Debug, Default)]
struct WaitGraph {
    /// Waiter → set of holders it waits for.
    edges: FxHashMap<TxnId, FxHashSet<TxnId>>,
}

impl WaitGraph {
    /// Depth-first search for a cycle through `start`.
    fn creates_cycle(&self, start: TxnId) -> bool {
        let mut stack: Vec<TxnId> = self
            .edges
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut visited: FxHashSet<TxnId> = FxHashSet::default();
        while let Some(node) = stack.pop() {
            if node == start {
                return true;
            }
            if !visited.insert(node) {
                continue;
            }
            if let Some(next) = self.edges.get(&node) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

/// Counters exposed for the concurrency-control ablation experiments.
#[derive(Debug, Default)]
pub struct LockStats {
    grants: AtomicU64,
    waits: AtomicU64,
    deadlock_aborts: AtomicU64,
    wounds: AtomicU64,
    timeouts: AtomicU64,
}

impl LockStats {
    /// Locks granted (including re-grants and upgrades).
    pub fn grants(&self) -> u64 {
        self.grants.load(Ordering::Relaxed)
    }
    /// Requests that had to wait at least once.
    pub fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }
    /// Requests aborted for deadlock avoidance/detection (wait-die "die",
    /// wait-for-graph victim).
    pub fn deadlock_aborts(&self) -> u64 {
        self.deadlock_aborts.load(Ordering::Relaxed)
    }
    /// Holders wounded by older requesters (wound-wait).
    pub fn wounds(&self) -> u64 {
        self.wounds.load(Ordering::Relaxed)
    }
    /// Waits withdrawn without a grant: timed out, or their transaction was
    /// decided while they waited.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

/// Default number of lock-table shards (the "shard count knob"; see
/// [`LockManager::with_shards`]).
pub const DEFAULT_LOCK_SHARDS: usize = 16;

/// Number of per-transaction metadata shards (keyed by transaction hash, so
/// concurrent transactions do not serialize on one bookkeeping mutex).
const TXN_META_SHARDS: usize = 16;

/// Per-transaction bookkeeping: its timestamp (wait-die / wound-wait
/// ordering) and the exact items it holds locks on, so release walks only
/// the shards that actually hold something. Written at grant time inside
/// the granting shard's critical section, which keeps it consistent with
/// the holder lists.
#[derive(Debug, Clone)]
struct TxnMeta {
    ts: Timestamp,
    held: Vec<ItemId>,
}

/// The lock manager of one site.
pub struct LockManager {
    policy: DeadlockPolicy,
    timeout: Duration,
    shards: Box<[Mutex<ShardTable>]>,
    /// Per-transaction metadata, sharded by transaction hash.
    txn_meta: Box<[Mutex<FxHashMap<TxnId, TxnMeta>>]>,
    /// Transactions wounded by an older requester; they must abort. Only
    /// ever populated under the wound-wait policy, so the other policies
    /// never touch this lock on their fast path.
    wounded: RwLock<FxHashSet<TxnId>>,
    /// The cross-shard wait-for graph (used by `WaitForGraph` only).
    wait_graph: Mutex<WaitGraph>,
    stats: LockStats,
}

impl LockManager {
    /// Creates a lock manager with the given deadlock policy, wait timeout
    /// and the default shard count.
    pub fn new(policy: DeadlockPolicy, timeout: Duration) -> Self {
        Self::with_shards(policy, timeout, DEFAULT_LOCK_SHARDS)
    }

    /// Creates a lock manager with an explicit shard count (rounded up to at
    /// least 1). More shards reduce contention between transactions touching
    /// different items; one shard reproduces the classic single-mutex table.
    pub fn with_shards(policy: DeadlockPolicy, timeout: Duration, shards: usize) -> Self {
        let count = shards.max(1);
        LockManager {
            policy,
            timeout,
            shards: (0..count).map(|_| Mutex::default()).collect(),
            txn_meta: (0..TXN_META_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            wounded: RwLock::new(FxHashSet::default()),
            wait_graph: Mutex::new(WaitGraph::default()),
            stats: LockStats::default(),
        }
    }

    /// The configured deadlock policy.
    pub fn policy(&self) -> DeadlockPolicy {
        self.policy
    }

    /// How long a waiting request may wait before its caller withdraws it.
    pub fn wait_timeout(&self) -> Duration {
        self.timeout
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The lock statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// The shard index an item belongs to, chosen by the item's interned
    /// hash (deterministic across runs).
    fn shard_index(&self, item: &ItemId) -> usize {
        (item.token() as usize) % self.shards.len()
    }

    /// The metadata shard of a transaction.
    fn meta_shard(&self, txn: TxnId) -> &Mutex<FxHashMap<TxnId, TxnMeta>> {
        let key = txn.home.index() as u64 ^ txn.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.txn_meta[(key as usize) % TXN_META_SHARDS]
    }

    /// Looks up the recorded timestamp of a transaction.
    fn timestamp_of(&self, txn: TxnId) -> Option<Timestamp> {
        self.meta_shard(txn).lock().get(&txn).map(|meta| meta.ts)
    }

    /// Records that `txn` (timestamp `ts`) newly holds a lock on `item`.
    /// Called with the granting shard's lock held; metadata always nests
    /// inside shard locks, never the reverse, so a racing `release_all`
    /// either sees this grant in the metadata or the grant happens after
    /// its shard pass and re-creates the entry for the next release.
    fn note_held(&self, txn: TxnId, ts: Timestamp, item: &ItemId) {
        let mut meta = self.meta_shard(txn).lock();
        let entry = meta.entry(txn).or_insert_with(|| TxnMeta {
            ts,
            held: Vec::new(),
        });
        entry.held.push(item.clone());
    }

    /// Whether the transaction has been wounded and must abort.
    pub fn is_wounded(&self, txn: TxnId) -> bool {
        self.wounded.read().contains(&txn)
    }

    /// Fast-path wound check: only wound-wait ever populates the set.
    fn wounded_now(&self, txn: TxnId) -> bool {
        self.policy == DeadlockPolicy::WoundWait && self.wounded.read().contains(&txn)
    }

    /// Drops the wait-for edges of `txn`.
    fn clear_wait_edges(&self, txn: TxnId) {
        if self.policy == DeadlockPolicy::WaitForGraph {
            self.wait_graph.lock().edges.remove(&txn);
        }
    }

    /// One step of a lock request: grants `mode` on `item` to `txn`
    /// (timestamp `ts`) when compatible, otherwise applies the deadlock
    /// policy and either fails the request or registers `txn` as a waiter
    /// (with its wait-for edges) and answers [`LockStep::Wait`]. It never
    /// blocks: the caller parks the request and calls again after a
    /// release, or withdraws it with [`LockManager::cancel_wait`] once
    /// [`LockManager::wait_timeout`] has passed. A repeated call for a
    /// request that is already waiting re-evaluates it in place.
    pub fn request(
        &self,
        txn: TxnId,
        ts: Timestamp,
        item: &ItemId,
        mode: LockMode,
    ) -> Result<LockStep, LockError> {
        let mut table = self.shards[self.shard_index(item)].lock();
        if self.wounded_now(txn) {
            table.remove_waiter(item, txn);
            self.clear_wait_edges(txn);
            return Err(LockError::Wounded);
        }
        if let GrantOutcome::Granted {
            new_holder,
            was_waiting,
        } = table.try_grant(item, txn, mode)
        {
            if new_holder {
                // Record the grant while still inside the shard critical
                // section, so it is visible to the next `release_all` even
                // if a racing release already ran.
                self.note_held(txn, ts, item);
            }
            if was_waiting {
                self.clear_wait_edges(txn);
            }
            self.stats.grants.fetch_add(1, Ordering::Relaxed);
            return Ok(LockStep::Granted);
        }

        let conflicts = table.conflicting_holders(item, txn, mode);

        // Apply the deadlock policy before (possibly) waiting. Auxiliary
        // locks (timestamps / wounded / wait graph) nest *inside* the shard
        // lock, never the other way around.
        match self.policy {
            DeadlockPolicy::WaitDie => {
                // The requester may only wait for *younger* holders (i.e.
                // the requester must be the oldest). Otherwise it dies.
                let older_holder_exists = conflicts.iter().any(|holder| {
                    self.timestamp_of(*holder)
                        .map(|holder_ts| holder_ts < ts)
                        .unwrap_or(false)
                });
                if older_holder_exists {
                    table.remove_waiter(item, txn);
                    self.stats.deadlock_aborts.fetch_add(1, Ordering::Relaxed);
                    return Err(LockError::Deadlock);
                }
            }
            DeadlockPolicy::WoundWait => {
                // An older requester wounds every younger conflicting
                // holder; a younger requester just waits. Wounded holders
                // discover their fate on their next request or at
                // validation, and release when they abort.
                for holder in &conflicts {
                    let younger = self
                        .timestamp_of(*holder)
                        .map(|holder_ts| holder_ts > ts)
                        .unwrap_or(true);
                    if younger && self.wounded.write().insert(*holder) {
                        self.stats.wounds.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            DeadlockPolicy::WaitForGraph => {
                // Insert this waiter's edges and run cycle detection in one
                // critical section: the check sees a consistent global graph
                // regardless of shard concurrency.
                let mut graph = self.wait_graph.lock();
                graph.edges.insert(txn, conflicts.iter().copied().collect());
                if graph.creates_cycle(txn) {
                    graph.edges.remove(&txn);
                    drop(graph);
                    table.remove_waiter(item, txn);
                    self.stats.deadlock_aborts.fetch_add(1, Ordering::Relaxed);
                    return Err(LockError::Deadlock);
                }
            }
            DeadlockPolicy::TimeoutOnly => {}
        }

        // Register as a waiter (counted once per request).
        let state = table.items.entry(item.clone()).or_default();
        if !state.waiters.contains(&txn) {
            state.waiters.push_back(txn);
            self.stats.waits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(LockStep::Wait)
    }

    /// Withdraws a request that answered [`LockStep::Wait`]: its wait timed
    /// out, or its transaction was decided while it waited. Removes the
    /// waiter and its wait-for edges; a no-op when `txn` is not waiting on
    /// `item`.
    pub fn cancel_wait(&self, txn: TxnId, item: &ItemId) {
        let removed = self.shards[self.shard_index(item)]
            .lock()
            .remove_waiter(item, txn);
        if removed {
            self.clear_wait_edges(txn);
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Releases every lock held by `txn` (strict 2PL: called at commit or
    /// abort) and clears its wounded flag and bookkeeping. Only the shards
    /// of items the transaction actually holds are visited (tracked in the
    /// per-transaction metadata written at grant time).
    pub fn release_all(&self, txn: TxnId) {
        // Unknown transaction (released twice, or never granted anything):
        // nothing can be held anywhere.
        let held = match self.meta_shard(txn).lock().remove(&txn) {
            Some(meta) => meta.held,
            None => Vec::new(),
        };
        for item in &held {
            let mut table = self.shards[self.shard_index(item)].lock();
            if let Some(state) = table.items.get_mut(item) {
                // Index-based removal instead of an O(n) retain scan; a
                // transaction appears at most once per holder list.
                if let Some(pos) = state.holders.iter().position(|(holder, _)| *holder == txn) {
                    state.holders.swap_remove(pos);
                }
                if state.holders.is_empty() && state.waiters.is_empty() {
                    table.idle_entries += 1;
                    table.maybe_sweep();
                }
            }
        }
        if self.policy == DeadlockPolicy::WoundWait {
            self.wounded.write().remove(&txn);
        }
        if self.policy == DeadlockPolicy::WaitForGraph {
            let mut graph = self.wait_graph.lock();
            graph.edges.remove(&txn);
            // Remove txn from any other wait-for edge sets.
            for edges in graph.edges.values_mut() {
                edges.remove(&txn);
            }
        }
    }

    /// Locks currently held by `txn` (for tests and diagnostics).
    pub fn held_by(&self, txn: TxnId) -> Vec<ItemId> {
        self.meta_shard(txn)
            .lock()
            .get(&txn)
            .map(|meta| meta.held.clone())
            .unwrap_or_default()
    }

    /// Number of transactions currently holding at least one lock.
    pub fn active_transactions(&self) -> usize {
        self.txn_meta.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Requests currently registered as waiting, across all shards.
    pub fn waiters(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let table = shard.lock();
                table
                    .items
                    .values()
                    .map(|state| state.waiters.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Transactions with outgoing wait-for edges (always 0 unless the
    /// policy is [`DeadlockPolicy::WaitForGraph`]).
    pub fn wait_edges(&self) -> usize {
        self.wait_graph.lock().edges.len()
    }

    /// Total number of *live* per-item entries (holding locks or queueing
    /// waiters) across all shards. Idle entries are cached for reuse up to
    /// a bounded threshold and periodically swept, so the table's footprint
    /// does not grow monotonically with every item ever touched.
    pub fn item_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().live_entries())
            .sum()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_common::SiteId;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(SiteId(0), seq)
    }

    fn ts(counter: u64) -> Timestamp {
        Timestamp::new(counter, 0)
    }

    fn item(name: &str) -> ItemId {
        ItemId::new(name)
    }

    fn manager(policy: DeadlockPolicy) -> LockManager {
        LockManager::new(policy, Duration::from_millis(100))
    }

    /// Requests `mode` for `seq` (timestamp `seq`'s counter `at`).
    fn ask(lm: &LockManager, seq: u64, at: u64, name: &str, mode: LockMode) -> LockOutcome {
        lm.request(txn(seq), ts(at), &item(name), mode)
    }

    type LockOutcome = Result<LockStep, LockError>;
    const GRANTED: LockOutcome = Ok(LockStep::Granted);
    const WAIT: LockOutcome = Ok(LockStep::Wait);

    #[test]
    fn shared_locks_are_compatible() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Shared), GRANTED);
        assert_eq!(ask(&lm, 2, 2, "x", LockMode::Shared), GRANTED);
        assert_eq!(lm.active_transactions(), 2);
        assert_eq!(lm.stats().grants(), 2);
        assert_eq!(lm.stats().waits(), 0);
    }

    #[test]
    fn exclusive_conflicts_block_until_release() {
        let lm = manager(DeadlockPolicy::TimeoutOnly);
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
        assert_eq!(ask(&lm, 2, 2, "x", LockMode::Shared), WAIT);
        // Asking again while the holder still holds keeps waiting, and the
        // wait is counted once.
        assert_eq!(ask(&lm, 2, 2, "x", LockMode::Shared), WAIT);
        assert_eq!(lm.stats().waits(), 1);
        lm.release_all(txn(1));
        assert_eq!(ask(&lm, 2, 2, "x", LockMode::Shared), GRANTED);
        assert!(lm.held_by(txn(2)).contains(&item("x")));
        lm.release_all(txn(2));
        assert_eq!(lm.item_entries(), 0, "the granted waiter left no entry");
    }

    #[test]
    fn conflicting_request_times_out() {
        let lm = manager(DeadlockPolicy::TimeoutOnly);
        assert_eq!(lm.wait_timeout(), Duration::from_millis(100));
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
        assert_eq!(ask(&lm, 2, 2, "x", LockMode::Exclusive), WAIT);
        // The caller's deadline passes: it withdraws the wait.
        lm.cancel_wait(txn(2), &item("x"));
        assert_eq!(lm.stats().timeouts(), 1);
        // Withdrawing twice (or a request that never waited) is a no-op.
        lm.cancel_wait(txn(2), &item("x"));
        lm.cancel_wait(txn(3), &item("y"));
        assert_eq!(lm.stats().timeouts(), 1);
        lm.release_all(txn(1));
        assert_eq!(lm.item_entries(), 0, "no waiter left behind");
    }

    #[test]
    fn reacquisition_and_upgrade() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        // Re-acquiring the same or weaker lock is a no-op; the upgrade
        // succeeds because txn 1 is the sole holder; an exclusive holder
        // asking for shared is still granted.
        for mode in [
            LockMode::Shared,
            LockMode::Shared,
            LockMode::Exclusive,
            LockMode::Shared,
        ] {
            assert_eq!(ask(&lm, 1, 1, "x", mode), GRANTED);
        }
        assert_eq!(lm.held_by(txn(1)), vec![item("x")]);

        // Another reader cannot get in now.
        assert_eq!(ask(&lm, 2, 2, "x", LockMode::Shared), WAIT);
    }

    #[test]
    fn upgrade_blocked_by_other_readers_times_out() {
        let lm = manager(DeadlockPolicy::TimeoutOnly);
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Shared), GRANTED);
        assert_eq!(ask(&lm, 2, 2, "x", LockMode::Shared), GRANTED);
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), WAIT);
        lm.cancel_wait(txn(1), &item("x"));
        assert_eq!(lm.stats().timeouts(), 1);
        // Once the other reader leaves, the upgrade goes through.
        lm.release_all(txn(2));
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
    }

    #[test]
    fn wait_for_graph_detects_two_party_deadlock() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        // T1 holds x, T2 holds y.
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
        assert_eq!(ask(&lm, 2, 2, "y", LockMode::Exclusive), GRANTED);
        // T1 waits for y.
        assert_eq!(ask(&lm, 1, 1, "y", LockMode::Exclusive), WAIT);
        // T2 requests x: the wait-for graph now has a cycle, T2 is the victim.
        assert_eq!(
            ask(&lm, 2, 2, "x", LockMode::Exclusive),
            Err(LockError::Deadlock)
        );
        assert!(lm.stats().deadlock_aborts() >= 1);

        // Victim aborts, releasing y; T1's wait completes.
        lm.release_all(txn(2));
        assert_eq!(ask(&lm, 1, 1, "y", LockMode::Exclusive), GRANTED);
    }

    #[test]
    fn wait_die_aborts_younger_requesters() {
        let lm = manager(DeadlockPolicy::WaitDie);
        // Older transaction (smaller ts) holds the lock.
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
        // Younger requester dies at once: no wait is registered.
        assert_eq!(
            ask(&lm, 2, 5, "x", LockMode::Exclusive),
            Err(LockError::Deadlock)
        );
        assert_eq!(lm.stats().deadlock_aborts(), 1);
        assert_eq!(lm.stats().waits(), 0);
    }

    #[test]
    fn wait_die_lets_older_requesters_wait() {
        let lm = manager(DeadlockPolicy::WaitDie);
        // Younger transaction holds the lock.
        assert_eq!(ask(&lm, 2, 5, "x", LockMode::Exclusive), GRANTED);
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), WAIT);
        lm.release_all(txn(2));
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
    }

    #[test]
    fn wound_wait_wounds_younger_holders() {
        let lm = manager(DeadlockPolicy::WoundWait);
        // Younger transaction holds the lock.
        assert_eq!(ask(&lm, 2, 5, "x", LockMode::Exclusive), GRANTED);
        // Older requester wounds it and waits.
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), WAIT);
        assert!(lm.is_wounded(txn(2)), "younger holder must be wounded");
        assert!(lm.stats().wounds() >= 1);
        // The wounded holder aborts and releases; the older requester gets the lock.
        lm.release_all(txn(2));
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
        // After release_all the wounded flag is cleared for reuse of the id.
        assert!(!lm.is_wounded(txn(2)));
    }

    #[test]
    fn wound_wait_younger_requester_waits_without_wounding() {
        let lm = manager(DeadlockPolicy::WoundWait);
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
        // Younger requester: no wound, just a wait.
        assert_eq!(ask(&lm, 2, 5, "x", LockMode::Exclusive), WAIT);
        assert!(!lm.is_wounded(txn(1)));
        assert_eq!(lm.stats().wounds(), 0);
    }

    #[test]
    fn wounded_transaction_is_rejected_on_next_acquire() {
        let lm = manager(DeadlockPolicy::WoundWait);
        assert_eq!(ask(&lm, 2, 5, "x", LockMode::Exclusive), GRANTED);
        // The younger holder is itself waiting on y when it is wounded.
        assert_eq!(ask(&lm, 3, 3, "y", LockMode::Exclusive), GRANTED);
        assert_eq!(ask(&lm, 2, 5, "y", LockMode::Shared), WAIT);
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), WAIT);
        // The wounded transaction's next step (its parked wait, or a new
        // request) is rejected, and its wait is gone.
        assert_eq!(
            ask(&lm, 2, 5, "y", LockMode::Shared),
            Err(LockError::Wounded)
        );
        assert_eq!(
            ask(&lm, 2, 5, "z", LockMode::Shared),
            Err(LockError::Wounded)
        );
        lm.release_all(txn(2));
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
    }

    #[test]
    fn release_all_clears_bookkeeping() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
        assert_eq!(ask(&lm, 1, 1, "y", LockMode::Shared), GRANTED);
        assert_eq!(lm.held_by(txn(1)).len(), 2);
        lm.release_all(txn(1));
        assert!(lm.held_by(txn(1)).is_empty());
        assert_eq!(lm.active_transactions(), 0);
        // Releasing again is harmless.
        lm.release_all(txn(1));
    }

    #[test]
    fn three_way_deadlock_is_broken() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        for (seq, name) in [(1, "a"), (2, "b"), (3, "c")] {
            assert_eq!(ask(&lm, seq, seq, name, LockMode::Exclusive), GRANTED);
        }
        assert_eq!(ask(&lm, 1, 1, "b", LockMode::Exclusive), WAIT);
        assert_eq!(ask(&lm, 2, 2, "c", LockMode::Exclusive), WAIT);
        // Closing the cycle: T3 -> a (held by T1). T3 must be chosen as victim.
        assert_eq!(
            ask(&lm, 3, 3, "a", LockMode::Exclusive),
            Err(LockError::Deadlock)
        );
        lm.release_all(txn(3));
        // T2 can now proceed, then T1.
        assert_eq!(ask(&lm, 1, 1, "b", LockMode::Exclusive), WAIT);
        assert_eq!(ask(&lm, 2, 2, "c", LockMode::Exclusive), GRANTED);
        lm.release_all(txn(2));
        assert_eq!(ask(&lm, 1, 1, "b", LockMode::Exclusive), GRANTED);
    }

    #[test]
    fn cancelled_wait_leaves_no_wait_for_edge() {
        let lm = manager(DeadlockPolicy::WaitForGraph);
        assert_eq!(ask(&lm, 1, 1, "x", LockMode::Exclusive), GRANTED);
        assert_eq!(ask(&lm, 2, 2, "y", LockMode::Exclusive), GRANTED);
        assert_eq!(ask(&lm, 1, 1, "y", LockMode::Exclusive), WAIT);
        assert_eq!(lm.wait_edges(), 1);
        lm.cancel_wait(txn(1), &item("y"));
        assert_eq!(lm.wait_edges(), 0);
        // With T1's edge gone, T2 waiting on x closes no cycle.
        assert_eq!(ask(&lm, 2, 2, "x", LockMode::Exclusive), WAIT);
    }

    #[test]
    fn lock_mode_compatibility_matrix() {
        assert!(LockMode::Shared.compatible(LockMode::Shared));
        assert!(!LockMode::Shared.compatible(LockMode::Exclusive));
        assert!(!LockMode::Exclusive.compatible(LockMode::Shared));
        assert!(!LockMode::Exclusive.compatible(LockMode::Exclusive));
    }
}
