//! The Rainbow site runtime.
//!
//! A site is one node of the distributed database. It runs:
//!
//! * a **dispatcher thread** — the participant event loop — that drains the
//!   site's network mailbox and routes messages: responses go to the
//!   transaction coordinator waiting for them, and every participant
//!   request is served inline. A copy access the CCP cannot grant yet (a
//!   2PL lock held by another transaction, an earlier pending pre-write
//!   under TSO/MVTO) is *parked* with its deadline, and asked again after
//!   each commit, abort or wound, so no thread ever blocks on a lock;
//! * **one worker thread per in-flight transaction** whose home is this
//!   site, exactly as in the paper ("When a new transaction arrives at a
//!   Rainbow site, the site dedicates one thread to process it");
//! * the **participant side** of the commit protocol for transactions
//!   coordinated elsewhere, including a janitor that cleans up transactions
//!   whose coordinator disappeared and the recovery path that resolves
//!   in-doubt transactions after a crash.

use crate::coordinator::reactor::{ReactorEvent, ReactorPool};
use crate::coordinator::run_interactive;
use crate::messages::{CopyAccessResult, Msg, OpReply};
use crate::metrics::SiteMetrics;
use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use rainbow_cc::{make_ccp, CcDecision, CcProtocol, TxnContext};
use rainbow_commit::{Decision, Participant, ParticipantAction, ParticipantState, Vote};
use rainbow_common::config::DatabaseSchema;
use rainbow_common::history::HistorySink;
use rainbow_common::protocol::{CoordinatorMode, ProtocolStack};
use rainbow_common::txn::AbortCause;
use rainbow_common::{
    ItemId, RainbowError, RainbowResult, SiteId, Timestamp, TimestampGenerator, TxnId, Value,
    Version,
};
use rainbow_net::{Envelope, NetHandle, NodeId};
use rainbow_replication::{make_rcp, ReplicationControl};
use rainbow_storage::{PowerLossFault, SiteStorage, StorageConfig};
use rainbow_trace::{Phase, TraceEvent, Tracer, Track};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The writes of one transaction destined for (or recovered at) this site.
pub(crate) type WriteSet = Vec<(ItemId, Value, Version)>;

/// Participant-side bookkeeping for one transaction at this site.
pub(crate) struct ParticipantEntry {
    pub machine: Participant,
    pub ctx: TxnContext,
    pub coordinator: NodeId,
    pub last_activity: Instant,
}

/// State shared between the dispatcher and the transaction coordinators of
/// one site.
pub(crate) struct SiteShared {
    pub id: SiteId,
    pub node: NodeId,
    pub stack: ProtocolStack,
    pub storage: SiteStorage,
    pub ccp: RwLock<Arc<dyn CcProtocol>>,
    pub rcp: Arc<dyn ReplicationControl>,
    pub schema: RwLock<DatabaseSchema>,
    pub net: NetHandle<Msg>,
    pub metrics: Arc<SiteMetrics>,
    pub participants: Mutex<HashMap<TxnId, ParticipantEntry>>,
    pub pending_replies: Mutex<HashMap<TxnId, Sender<Envelope<Msg>>>>,
    pub decided: Mutex<HashMap<TxnId, Decision>>,
    /// Transactions that have already been decided (or cleaned up) at this
    /// site *as a participant*, with when. Late copy-access requests for
    /// these transactions are refused so they cannot resurrect a
    /// participant entry that nobody will ever release. The janitor forgets
    /// entries older than [`ProtocolStack::janitor_horizon`].
    pub finished: Mutex<HashMap<TxnId, Instant>>,
    /// In-doubt transactions found during crash recovery, waiting for a
    /// status reply from their coordinator.
    pub in_doubt: Mutex<HashMap<TxnId, WriteSet>>,
    pub txn_seq: AtomicU64,
    pub clock: TimestampGenerator,
    pub shutdown: Arc<AtomicBool>,
    /// The cluster-wide history sink the chaos laboratory snoops on, when
    /// history recording is enabled. `None` (the default) keeps every
    /// recording branch in the coordinator dead, so the hot path pays
    /// nothing.
    pub history: Option<Arc<HistorySink>>,
    /// The cluster-wide trace sink, `None` when tracing is disabled (the
    /// default) — same dead-branch pattern as `history`.
    pub tracer: Option<Arc<Tracer>>,
    /// The sharded reactor pool, populated at spawn when the stack selects
    /// [`CoordinatorMode::Reactor`]. Empty in thread-per-conversation mode,
    /// so the dispatcher's `get()` check is the only cost there.
    pub reactor: OnceLock<ReactorPool>,
}

impl SiteShared {
    /// The CCP currently in force (replaced wholesale on crash recovery).
    pub fn ccp(&self) -> Arc<dyn CcProtocol> {
        self.ccp.read().clone()
    }

    /// Registers a reply channel for a coordinator worker.
    pub fn register_reply_channel(&self, txn: TxnId, tx: Sender<Envelope<Msg>>) {
        self.pending_replies.lock().insert(txn, tx);
    }

    /// Removes the reply channel when the coordinator worker finishes.
    pub fn unregister_reply_channel(&self, txn: TxnId) {
        self.pending_replies.lock().remove(&txn);
    }

    /// Sends a message from this site, ignoring network shutdown errors
    /// (which only occur while the whole instance is being torn down).
    pub fn send(&self, to: NodeId, msg: Msg) {
        let _ = self.net.send(self.node, to, msg);
    }

    /// Microseconds since the tracer epoch, or 0 when tracing is off. The
    /// timestamp feeds [`SiteShared::trace_site_span`].
    pub fn trace_now(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| t.now_us())
    }

    /// Records a participant-side span covering `start_us`..now on this
    /// site's track — into `phase`'s histogram when given, and as a span
    /// event when the transaction is sampled. No-op without a tracer; the
    /// detail is a closure so untraced runs never pay for formatting.
    pub fn trace_site_span(
        &self,
        txn: TxnId,
        phase: Option<Phase>,
        label: &str,
        start_us: u64,
        detail: impl FnOnce() -> String,
    ) {
        let Some(tracer) = self.tracer.as_ref() else {
            return;
        };
        let dur = tracer.now_us().saturating_sub(start_us);
        if let Some(phase) = phase {
            tracer.record_phase(phase, Duration::from_micros(dur));
        }
        if tracer.sampled(txn) {
            tracer.record(TraceEvent {
                txn,
                track: Track::Site { site: self.id.0 },
                label: label.to_string(),
                start_us,
                dur_us: dur,
                detail: detail(),
            });
        }
    }

    /// Records that `txn` is decided (or cleaned up) at this site.
    fn mark_finished(&self, txn: TxnId) {
        self.finished.lock().insert(txn, Instant::now());
    }

    /// Ensures a participant entry exists for `txn` and returns its context.
    fn ensure_participant(&self, txn: TxnId, ts: Timestamp, coordinator: NodeId) -> TxnContext {
        let mut participants = self.participants.lock();
        let entry = participants.entry(txn).or_insert_with(|| ParticipantEntry {
            machine: Participant::new(
                txn,
                coordinator.as_site().unwrap_or(self.id),
                self.stack.acp,
            ),
            ctx: TxnContext::new(txn, ts),
            coordinator,
            last_activity: Instant::now(),
        });
        entry.last_activity = Instant::now();
        entry.ctx
    }
}

/// Handle to a running Rainbow site.
pub struct SiteHandle {
    shared: Arc<SiteShared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl SiteHandle {
    /// Spawns a site that first fetches its schema from the name server.
    /// `history` is the cluster-wide transaction-history sink, `None` when
    /// recording is disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        id: SiteId,
        stack: ProtocolStack,
        storage: &StorageConfig,
        net: NetHandle<Msg>,
        mailbox: Receiver<Envelope<Msg>>,
        metrics: Arc<SiteMetrics>,
        history: Option<Arc<HistorySink>>,
        tracer: Option<Arc<Tracer>>,
    ) -> RainbowResult<Self> {
        let node = NodeId::Site(id);
        // Ask the name server for the schema before serving anything.
        let mut schema = None;
        for _attempt in 0..10 {
            net.send(node, NodeId::NameServer, Msg::NsGetSchema)?;
            match mailbox.recv_timeout(Duration::from_millis(300)) {
                Ok(envelope) => {
                    if let Msg::NsSchema { database, .. } = envelope.payload {
                        schema = Some(database);
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RainbowError::Network("site mailbox closed".into()))
                }
            }
        }
        let schema = schema.ok_or_else(|| {
            RainbowError::Timeout(format!("site {id} could not fetch the schema"))
        })?;
        Self::spawn_with_schema(
            id, stack, storage, schema, net, mailbox, metrics, history, tracer,
        )
    }

    /// Spawns a site with an explicitly provided schema (no name-server
    /// round trip); used by tests and by recovery.
    ///
    /// A disk engine reopening an existing data directory comes back with
    /// its committed state; items recovered from the log are *not*
    /// re-initialized, and in-doubt transactions found in the log get a
    /// status query to their coordinator (retried by the janitor until an
    /// answer arrives).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_with_schema(
        id: SiteId,
        stack: ProtocolStack,
        storage_config: &StorageConfig,
        schema: DatabaseSchema,
        net: NetHandle<Msg>,
        mailbox: Receiver<Envelope<Msg>>,
        metrics: Arc<SiteMetrics>,
        history: Option<Arc<HistorySink>>,
        tracer: Option<Arc<Tracer>>,
    ) -> RainbowResult<Self> {
        let (storage, outcome) = SiteStorage::open(id, storage_config, tracer.clone())?;
        let local_items: Vec<(ItemId, Value)> = schema
            .items
            .iter()
            .filter(|spec| {
                schema
                    .replication
                    .placement(&spec.id)
                    .map(|p| p.holds_copy(id))
                    .unwrap_or(false)
            })
            .map(|spec| (spec.id.clone(), spec.initial.clone()))
            .collect();
        storage.initialize(&local_items);

        let ccp = make_ccp(stack.ccp, stack.deadlock, stack.lock_wait_timeout);
        let rcp = make_rcp(stack.rcp);
        let shared = Arc::new(SiteShared {
            id,
            node: NodeId::Site(id),
            stack,
            storage,
            ccp: RwLock::new(ccp),
            rcp,
            schema: RwLock::new(schema),
            net,
            metrics,
            participants: Mutex::new(HashMap::new()),
            pending_replies: Mutex::new(HashMap::new()),
            decided: Mutex::new(HashMap::new()),
            finished: Mutex::new(HashMap::new()),
            in_doubt: Mutex::new(HashMap::new()),
            txn_seq: AtomicU64::new(0),
            clock: TimestampGenerator::new(id),
            shutdown: Arc::new(AtomicBool::new(false)),
            history,
            tracer,
            reactor: OnceLock::new(),
        });

        if shared.stack.coordinator == CoordinatorMode::Reactor {
            let _ = shared.reactor.set(ReactorPool::spawn(&shared));
        }

        // A restart from an existing durable log may come back with in-doubt
        // transactions (prepared, never decided before the previous process
        // died). Chase their coordinators exactly like crash recovery does;
        // the janitor keeps retrying until an answer arrives.
        {
            let mut in_doubt = shared.in_doubt.lock();
            for txn in outcome.in_doubt {
                in_doubt.insert(txn.txn, txn.writes.clone());
                shared.send(
                    NodeId::Site(txn.txn.home),
                    Msg::AcpStatusQuery { txn: txn.txn },
                );
            }
        }

        let dispatcher = Dispatcher {
            shared: Arc::clone(&shared),
            parked: Vec::new(),
        };
        let dispatcher = std::thread::Builder::new()
            .name(format!("rainbow-site-{}", id.0))
            .spawn(move || dispatcher.run(mailbox))
            .expect("failed to spawn site dispatcher");

        Ok(SiteHandle {
            shared,
            dispatcher: Some(dispatcher),
        })
    }

    /// The site's id.
    pub fn id(&self) -> SiteId {
        self.shared.id
    }

    /// The site's metrics handle.
    pub fn metrics(&self) -> Arc<SiteMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// A snapshot of the committed database state at this site.
    pub fn database_snapshot(&self) -> Vec<(ItemId, Value, Version)> {
        self.shared.storage.snapshot()
    }

    /// Number of transactions currently holding resources at this site's
    /// CCP.
    pub fn active_transactions(&self) -> usize {
        self.shared.ccp().active_transactions()
    }

    /// Diagnostic view of the transactions still registered as participants
    /// at this site: `(transaction, state, seconds since last activity)`.
    /// Used by tests and operational tooling to spot transactions whose
    /// coordinator disappeared.
    pub fn lingering_participants(&self) -> Vec<(TxnId, String, f64)> {
        self.shared
            .participants
            .lock()
            .iter()
            .map(|(txn, entry)| {
                (
                    *txn,
                    format!("{:?}", entry.machine.state()),
                    entry.last_activity.elapsed().as_secs_f64(),
                )
            })
            .collect()
    }

    /// Simulates the volatile-state loss of a crash and immediately runs
    /// recovery: the committed state is rebuilt from the write-ahead log,
    /// concurrency-control state is reset, and status queries are sent to
    /// the coordinators of in-doubt transactions.
    ///
    /// The caller (normally the cluster / fault injector) is responsible for
    /// marking the site crashed in the [`rainbow_net::FaultController`]
    /// before, and recovering it after, so that no messages flow while the
    /// site is "down".
    pub fn recover_from_crash(&self) -> RainbowResult<()> {
        // Volatile state is gone.
        self.shared.storage.crash();
        self.restart_from_log()
    }

    /// The power-loss nemesis: drops **all** of the site's volatile state —
    /// including whatever the durable engine had buffered but not yet
    /// synced — optionally injecting a torn or corrupted tail write into
    /// the log, then restarts the site from the disk image alone. On the
    /// memory engine this degrades to [`SiteHandle::recover_from_crash`]
    /// (its simulated log has no tail to tear).
    ///
    /// Errors surface recovery failures: a corrupted record *before* the
    /// tail is a typed [`RainbowError::CorruptLog`], not a panic.
    pub fn power_loss(&self, fault: PowerLossFault) -> RainbowResult<()> {
        self.shared.storage.power_loss(fault);
        self.restart_from_log()
    }

    /// Shared tail of [`SiteHandle::recover_from_crash`] and
    /// [`SiteHandle::power_loss`]: rebuild committed state from the log,
    /// reset concurrency control, and chase in-doubt transactions.
    fn restart_from_log(&self) -> RainbowResult<()> {
        let shared = &self.shared;
        let outcome = shared.storage.recover()?;
        // Fresh CCP: every lock and timestamp table entry was volatile. The
        // replacement gets a recovery floor at the site's current logical
        // time — the clock observed the timestamp of every access granted
        // before the crash, so rejecting everything older conservatively
        // restores the rts/wts rejection surface the crash erased (without
        // it, a recovered site can admit an old write it had already
        // ordered a younger read past — a serializability violation the
        // chaos harness reproduces).
        let ccp = make_ccp(
            shared.stack.ccp,
            shared.stack.deadlock,
            shared.stack.lock_wait_timeout,
        );
        ccp.install_recovery_floor(Timestamp::new(shared.clock.now(), shared.id.0));
        // Accesses parked in the old CCP are denied by the dispatcher when
        // it sees the instance replaced.
        *shared.ccp.write() = ccp;
        // Every transaction active here lost its grants with the volatile
        // state. Refuse its later accesses as if it were decided: a lock it
        // takes now would let it vote YES although a lock it took before
        // the crash is gone, and another transaction may already have read
        // or written through the gap.
        let lost: Vec<TxnId> = shared
            .participants
            .lock()
            .drain()
            .map(|(txn, _)| txn)
            .collect();
        for txn in lost {
            shared.mark_finished(txn);
        }
        // Ask each in-doubt transaction's coordinator for the decision.
        let mut in_doubt = shared.in_doubt.lock();
        in_doubt.clear();
        for txn in outcome.in_doubt {
            in_doubt.insert(txn.txn, txn.writes);
            shared.send(
                NodeId::Site(txn.txn.home),
                Msg::AcpStatusQuery { txn: txn.txn },
            );
        }
        Ok(())
    }

    /// Flushes and fsyncs the durable engine: every record appended so far
    /// is on stable storage when this returns. Called by cluster shutdown
    /// so a data directory reopened later finds every committed write.
    pub fn flush_and_sync(&self) -> RainbowResult<()> {
        self.shared.storage.flush_and_sync()
    }

    /// Which storage engine this site runs on.
    pub fn engine_kind(&self) -> rainbow_storage::EngineKind {
        self.shared.storage.engine_kind()
    }

    /// Number of real sync (fsync) operations the site's engine performed.
    pub fn storage_force_count(&self) -> u64 {
        self.shared.storage.force_count()
    }

    /// Installs committed copies fetched from live peers — the catch-up
    /// ("copier") half of crash recovery for read-one replication protocols
    /// (Available Copies, Primary Copy), driven by the cluster. Only copies
    /// newer than the local ones are installed; returns how many were.
    pub fn repair_copies(&self, copies: &[(ItemId, Value, Version)]) -> usize {
        self.shared.storage.repair_copies(copies)
    }

    /// Jumps this site's logical clock `ticks` ahead of its current value —
    /// the nemesis "clock skew" fault. Lamport clocks tolerate arbitrary
    /// forward jumps by construction; the skew stresses timestamp-ordering
    /// CCPs (transactions from the skewed site suddenly carry much larger
    /// timestamps, aborting concurrent old-timestamp transactions).
    pub fn skew_clock(&self, ticks: u64) {
        let clock = &self.shared.clock;
        clock.observe(Timestamp::new(
            clock.now().saturating_add(ticks),
            self.shared.id.0,
        ));
    }

    /// Stops the dispatcher thread. Outstanding transaction workers finish
    /// on their own (bounded by the protocol timeouts).
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.dispatcher.take() {
            let _ = thread.join();
        }
        // Reactor mode: the event loops observe the flag within one tick,
        // fail their in-flight conversations and drain their outboxes.
        if let Some(pool) = self.shared.reactor.get() {
            pool.join();
        }
        // Stop the background compaction thread (a no-op on the memory
        // engine, which never spawns one).
        self.shared.storage.shutdown_compactor();
    }
}

impl Drop for SiteHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How often the dispatcher runs the janitor.
const JANITOR_EVERY: Duration = Duration::from_millis(200);

/// The longest the dispatcher sleeps on an idle mailbox, so it notices the
/// shutdown flag promptly.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// The kind of copy access requested by the RCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyAccess {
    /// A plain read (shared access).
    Read {
        /// Read on behalf of a read-modify-write: take write access first so
        /// no shared→exclusive upgrade is needed later.
        for_update: bool,
    },
    /// A pre-write (exclusive access, returns the version only).
    Prewrite,
}

/// A copy access going through the CCP. While the CCP answers
/// [`CcDecision::Wait`] it stays parked on the dispatcher, until a retry
/// grants or rejects it, its transaction is decided, or its deadline passes.
struct CcpAccess {
    from: NodeId,
    ctx: TxnContext,
    item: ItemId,
    access: CopyAccess,
    /// The CCP instance the access waits in. A crash reset replaces the
    /// site's CCP, and the wait is lost with the old instance.
    ccp: Arc<dyn CcProtocol>,
    /// Trace clock at arrival: the `LockWait` span runs from here to the
    /// grant or denial.
    lock_start: u64,
    /// When the CCP's wait budget runs out.
    deadline: Instant,
}

/// The participant event loop of one site. One thread drains the mailbox
/// and serves every request inline; nothing it calls blocks on another
/// transaction. A copy access that has to wait is parked, and asked again
/// after every event that can release or wound CCP state.
struct Dispatcher {
    shared: Arc<SiteShared>,
    /// Copy accesses waiting in the CCP, in arrival order.
    parked: Vec<CcpAccess>,
}

impl Dispatcher {
    fn run(mut self, mailbox: Receiver<Envelope<Msg>>) {
        let mut next_janitor = Instant::now() + JANITOR_EVERY;
        loop {
            if self.shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let now = Instant::now();
            let wake = self
                .parked
                .iter()
                .map(|access| access.deadline)
                .fold(next_janitor.min(now + IDLE_POLL), Instant::min);
            match mailbox.recv_timeout(wake.saturating_duration_since(now)) {
                Ok(envelope) => {
                    let unblocks = may_unblock_parked(&envelope.payload);
                    self.dispatch(envelope);
                    if unblocks {
                        self.retry_parked();
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            let now = Instant::now();
            if now >= next_janitor {
                next_janitor = now + JANITOR_EVERY;
                self.run_janitor();
                self.retry_parked();
            } else if self.parked_due(now) {
                self.retry_parked();
            }
        }
    }

    /// Whether a parked access has reached its deadline, or waits in a CCP
    /// that a crash reset has replaced.
    fn parked_due(&self, now: Instant) -> bool {
        if self.parked.is_empty() {
            return false;
        }
        let ccp = self.shared.ccp();
        self.parked
            .iter()
            .any(|access| access.deadline <= now || !Arc::ptr_eq(&access.ccp, &ccp))
    }

    fn dispatch(&mut self, envelope: Envelope<Msg>) {
        // Responses go straight to the coordinator waiting for them: the
        // owning reactor in reactor mode, the conversation worker's reply
        // channel otherwise.
        if envelope.payload.is_coordinator_response() {
            route_to_coordinator(&self.shared, envelope);
            return;
        }
        let from = envelope.from;
        match envelope.payload {
            Msg::TxnOp { txn, .. } => route_txn_op(&self.shared, txn, envelope),
            Msg::TxnBegin { request, label } => {
                begin_conversation(&self.shared, from, label, request)
            }
            Msg::CopyRead {
                txn,
                ts,
                item,
                for_update,
            } => self.serve_copy_access(from, txn, ts, item, CopyAccess::Read { for_update }),
            Msg::CopyPrewrite { txn, ts, item } => {
                self.serve_copy_access(from, txn, ts, item, CopyAccess::Prewrite)
            }
            Msg::AcpPrepare { txn, ts, writes } => {
                SiteMetrics::bump(&self.shared.metrics.served_requests);
                self.handle_prepare(from, txn, ts, writes);
            }
            Msg::AcpPreCommit { txn } => handle_precommit(&self.shared, from, txn),
            Msg::AcpDecision { txn, decision } => self.handle_decision(from, txn, decision),
            Msg::AcpStatusQuery { txn } => {
                let decision = self.shared.decided.lock().get(&txn).copied();
                self.shared
                    .send(from, Msg::AcpStatusReply { txn, decision });
            }
            Msg::AcpStatusReply { txn, decision } => self.handle_status_reply(txn, decision),
            Msg::NsSchema { database, .. } => {
                // A late or refreshed schema push: adopt it.
                *self.shared.schema.write() = database;
            }
            Msg::Batch(msgs) => {
                // A coalesced envelope from a reactor tick. Prepares and
                // commit decisions are pulled out and handled as groups so
                // their WAL forces ride one fsync each; everything else goes
                // through the normal per-message path (which also routes any
                // coordinator responses the batch carried).
                let mut prepares = Vec::new();
                let mut commits = Vec::new();
                let mut rest = Vec::new();
                for msg in msgs {
                    match msg {
                        Msg::AcpPrepare { txn, ts, writes } => prepares.push((txn, ts, writes)),
                        Msg::AcpDecision {
                            txn,
                            decision: Decision::Commit,
                        } => commits.push(txn),
                        other => rest.push(other),
                    }
                }
                if !prepares.is_empty() {
                    self.handle_prepare_batch(from, prepares);
                }
                if !commits.is_empty() {
                    self.handle_decision_commit_batch(from, commits);
                }
                for payload in rest {
                    self.dispatch(Envelope {
                        id: envelope.id,
                        from,
                        to: envelope.to,
                        payload,
                    });
                }
            }
            // Messages a site never receives (or that only matter to
            // clients / the name server) are ignored; coordinator responses
            // were routed above.
            Msg::TxnBegan { .. }
            | Msg::TxnOpReply { .. }
            | Msg::TxnDone { .. }
            | Msg::NsGetSchema
            | Msg::CopyReply { .. }
            | Msg::AcpVote { .. }
            | Msg::AcpPreCommitAck { .. }
            | Msg::AcpAck { .. } => {}
        }
    }

    /// Serves a copy read or pre-write through the CCP, parking it when the
    /// CCP answers [`CcDecision::Wait`].
    fn serve_copy_access(
        &mut self,
        from: NodeId,
        txn: TxnId,
        ts: Timestamp,
        item: ItemId,
        access: CopyAccess,
    ) {
        let shared = &self.shared;
        SiteMetrics::bump(&shared.metrics.served_requests);
        shared.clock.observe(ts);
        // Refuse accesses for transactions that already finished at this
        // site (their decision raced ahead of this request); granting would
        // leak a lock nobody releases.
        //
        // Items in an in-doubt transaction's prepared write set are
        // untouchable as well: the crash destroyed the locks that protected
        // them, the prepared (pre-commit) version is what a read would
        // return, and the outcome is unknown until ACP termination resolves
        // it. Granting any access here lets a reader serialize against state
        // that may be about to change — the write-skew anomaly the chaos lab
        // convicts — so deny and let the client retry after the in-doubt
        // window closes.
        let refused = shared.finished.lock().contains_key(&txn)
            || shared.in_doubt.lock().iter().any(|(holder, writes)| {
                *holder != txn && writes.iter().any(|(i, _, _)| *i == item)
            });
        if refused {
            let cause = lock_conflict(&item);
            send_copy_reply(
                shared,
                from,
                txn,
                item,
                access,
                CopyAccessResult::Denied(cause),
            );
            return;
        }
        let ctx = shared.ensure_participant(txn, ts, from);
        let ccp = shared.ccp();
        let request = CcpAccess {
            from,
            ctx,
            item,
            access,
            deadline: Instant::now() + ccp.wait_budget(),
            ccp,
            lock_start: shared.trace_now(),
        };
        if let Some(waiting) = self.attempt(request) {
            self.parked.push(waiting);
        }
    }

    /// Asks the CCP once for `request`. Replies when the access is decided
    /// (granted, rejected, or out of wait budget); hands it back when it
    /// still has to wait.
    fn attempt(&self, request: CcpAccess) -> Option<CcpAccess> {
        let shared = &self.shared;
        let Ok(current) = shared.storage.read(&request.item) else {
            let result = CopyAccessResult::NoSuchCopy;
            let (from, txn) = (request.from, request.ctx.id);
            send_copy_reply(shared, from, txn, request.item, request.access, result);
            return None;
        };
        let (ccp, ctx, item) = (&request.ccp, &request.ctx, &request.item);
        let decision = match request.access {
            CopyAccess::Prewrite => ccp.prewrite(ctx, item, current.clone()),
            CopyAccess::Read { for_update: false } => ccp.read(ctx, item, current.clone()),
            CopyAccess::Read { for_update: true } => {
                // Write access first (exclusive lock / pre-write validation),
                // then the read; this avoids the classic shared→exclusive
                // upgrade deadlock for read-modify-write operations. Both
                // steps are idempotent, so a parked access repeats both.
                match ccp.prewrite(ctx, item, current.clone()) {
                    CcDecision::Granted { .. } => ccp.read(ctx, item, current.clone()),
                    other => other,
                }
            }
        };
        let result = match decision {
            CcDecision::Wait if Instant::now() < request.deadline => return Some(request),
            CcDecision::Wait => {
                SiteMetrics::bump(&shared.metrics.ccp_rejections);
                CopyAccessResult::Denied(ccp.cancel_wait(ctx, item))
            }
            CcDecision::Rejected(cause) => {
                SiteMetrics::bump(&shared.metrics.ccp_rejections);
                CopyAccessResult::Denied(cause)
            }
            CcDecision::Granted { value_override } => {
                // A crash reset may have wiped the participant entry while
                // the access waited: nobody would ever release what was just
                // acquired, so release it right now and refuse the access.
                let still_active = match shared.participants.lock().get_mut(&ctx.id) {
                    Some(entry) => {
                        entry.last_activity = Instant::now();
                        true
                    }
                    None => false,
                };
                if still_active {
                    // Re-read the committed state *after* the grant so the
                    // value reflects every transaction serialized before us.
                    let (value, version) = match value_override {
                        Some(pair) => pair,
                        None => shared.storage.read(item).unwrap_or(current),
                    };
                    CopyAccessResult::Granted {
                        value: (request.access != CopyAccess::Prewrite).then_some(value),
                        version,
                    }
                } else {
                    ccp.abort(ctx);
                    CopyAccessResult::Denied(lock_conflict(item))
                }
            }
        };
        self.conclude(request, result);
        None
    }

    /// Ends a CCP access: records its `LockWait` span (arrival to grant or
    /// denial, including any time parked) and replies.
    fn conclude(&self, request: CcpAccess, result: CopyAccessResult) {
        let CcpAccess {
            from,
            ctx,
            item,
            access,
            lock_start,
            ..
        } = request;
        let granted = matches!(result, CopyAccessResult::Granted { .. });
        self.shared.trace_site_span(
            ctx.id,
            Some(Phase::LockWait),
            if granted { "ccp:grant" } else { "ccp:deny" },
            lock_start,
            || format!("{item} {access:?}"),
        );
        send_copy_reply(&self.shared, from, ctx.id, item, access, result);
    }

    /// Asks every parked access again, in arrival order. Accesses that wait
    /// in a CCP a crash reset has replaced are denied: their wait was lost.
    fn retry_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let ccp = self.shared.ccp();
        for request in std::mem::take(&mut self.parked) {
            if Arc::ptr_eq(&request.ccp, &ccp) {
                self.parked.extend(self.attempt(request));
            } else {
                let cause = lock_conflict(&request.item);
                self.conclude(request, CopyAccessResult::Denied(cause));
            }
        }
    }

    /// Withdraws and denies every parked access of `txn`. Called before the
    /// transaction's CCP state is released here (decision, NO vote, janitor
    /// abort): a later grant would take a lock nobody releases.
    fn cancel_parked(&mut self, txn: TxnId) {
        if !self.parked.iter().any(|request| request.ctx.id == txn) {
            return;
        }
        let (cancelled, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.parked)
            .into_iter()
            .partition(|request| request.ctx.id == txn);
        self.parked = kept;
        for request in cancelled {
            let cause = request.ccp.cancel_wait(&request.ctx, &request.item);
            self.conclude(request, CopyAccessResult::Denied(cause));
        }
    }

    /// Handles the PREPARE request of the commit protocol.
    fn handle_prepare(
        &mut self,
        from: NodeId,
        txn: TxnId,
        ts: Timestamp,
        writes: Vec<(ItemId, Value, Version)>,
    ) {
        let shared = Arc::clone(&self.shared);
        shared.clock.observe(ts);
        let prepare_start = shared.trace_now();
        let ctx = shared.ensure_participant(txn, ts, from);
        let ccp = shared.ccp();
        let can_commit = ccp.validate(&ctx).is_granted();
        if can_commit {
            for (item, value, version) in &writes {
                shared
                    .storage
                    .stage_write(txn, item.clone(), value.clone(), *version);
            }
            // Force the prepare record before voting YES.
            shared.storage.prepare(txn);
        }

        let action = {
            let mut participants = shared.participants.lock();
            let entry = participants.get_mut(&txn).expect("entry ensured above");
            entry.last_activity = Instant::now();
            entry.machine.on_prepare(can_commit)
        };
        if let ParticipantAction::SendVote(vote) = action {
            if vote == Vote::Yes {
                SiteMetrics::bump(&shared.metrics.votes_yes);
            } else {
                SiteMetrics::bump(&shared.metrics.votes_no);
                // Voting NO releases local resources immediately.
                self.cancel_parked(txn);
                shared.storage.abort(txn);
                ccp.abort(&ctx);
            }
            shared.trace_site_span(txn, Some(Phase::Prepare), "acp:vote", prepare_start, || {
                format!("{vote:?} ({} writes)", writes.len())
            });
            shared.send(from, Msg::AcpVote { txn, vote });
        }
    }

    /// Handles a batch of PREPARE requests that arrived in one coalesced
    /// envelope: each transaction is validated and staged individually, but
    /// the prepare records of every YES-voter are forced with a **single**
    /// [`rainbow_storage::SiteStorage::prepare_many`] group append — the
    /// group-commit half of the reactor pipeline. Votes travel back to the
    /// coordinator node in one batch envelope when there is more than one.
    fn handle_prepare_batch(&mut self, from: NodeId, prepares: Vec<(TxnId, Timestamp, WriteSet)>) {
        let shared = Arc::clone(&self.shared);
        let prepare_start = shared.trace_now();
        let group = prepares.len();
        // Phase 1: validate through the CCP and stage the writes of every
        // transaction that can commit.
        let mut rounds: Vec<(TxnId, TxnContext, bool, usize)> = Vec::with_capacity(group);
        let mut yes_voters: Vec<TxnId> = Vec::with_capacity(group);
        for (txn, ts, writes) in prepares {
            SiteMetrics::bump(&shared.metrics.served_requests);
            shared.clock.observe(ts);
            let ctx = shared.ensure_participant(txn, ts, from);
            let can_commit = shared.ccp().validate(&ctx).is_granted();
            if can_commit {
                for (item, value, version) in &writes {
                    shared
                        .storage
                        .stage_write(txn, item.clone(), value.clone(), *version);
                }
                yes_voters.push(txn);
            }
            rounds.push((txn, ctx, can_commit, writes.len()));
        }
        // Phase 2: one forced append covers every YES-voter's prepare record
        // — still strictly before any YES vote leaves this site.
        shared.storage.prepare_many(&yes_voters);
        // Phase 3: advance the participant machines and vote.
        let mut votes: Vec<Msg> = Vec::with_capacity(group);
        for (txn, ctx, can_commit, n_writes) in rounds {
            let action = {
                let mut participants = shared.participants.lock();
                let entry = participants.get_mut(&txn).expect("entry ensured above");
                entry.last_activity = Instant::now();
                entry.machine.on_prepare(can_commit)
            };
            if let ParticipantAction::SendVote(vote) = action {
                if vote == Vote::Yes {
                    SiteMetrics::bump(&shared.metrics.votes_yes);
                } else {
                    SiteMetrics::bump(&shared.metrics.votes_no);
                    // Voting NO releases local resources immediately.
                    self.cancel_parked(txn);
                    shared.storage.abort(txn);
                    shared.ccp().abort(&ctx);
                }
                shared.trace_site_span(
                    txn,
                    Some(Phase::Prepare),
                    "acp:vote",
                    prepare_start,
                    || format!("{vote:?} ({n_writes} writes, group of {group})"),
                );
                votes.push(Msg::AcpVote { txn, vote });
            }
        }
        match votes.len() {
            0 => {}
            1 => shared.send(from, votes.pop().expect("one vote")),
            _ => shared.send(from, Msg::Batch(votes)),
        }
    }

    /// Handles a batch of COMMIT decisions from one coalesced envelope:
    /// every participant machine advances individually, then all the commit
    /// records are forced with a single
    /// [`rainbow_storage::SiteStorage::commit_many`] group append and the
    /// writes installed under one store lock. Acks travel back in one batch
    /// envelope when there is more than one.
    fn handle_decision_commit_batch(&mut self, from: NodeId, txns: Vec<TxnId>) {
        let apply_start = self.shared.trace_now();
        let group = txns.len();
        let mut to_apply: Vec<(TxnId, TxnContext)> = Vec::with_capacity(group);
        let mut acks: Vec<Msg> = Vec::with_capacity(group);
        for txn in txns {
            self.cancel_parked(txn);
            self.shared.mark_finished(txn);
            let entry = self.shared.participants.lock().remove(&txn);
            if let Some(mut entry) = entry {
                match entry.machine.on_decision(Decision::Commit) {
                    ParticipantAction::ApplyAndAck(Decision::Commit) => {
                        to_apply.push((txn, entry.ctx));
                    }
                    ParticipantAction::ApplyAndAck(Decision::Abort) => {
                        self.apply_decision(&entry.ctx, Decision::Abort);
                    }
                    _ => {}
                }
            }
            // Ack even without a participant entry (already applied, cleaned
            // up, or crashed and recovered), exactly like the single path.
            acks.push(Msg::AcpAck { txn });
        }
        let shared = &self.shared;
        let apply_ids: Vec<TxnId> = to_apply.iter().map(|(txn, _)| *txn).collect();
        let write_sets = shared.storage.commit_many(&apply_ids);
        let ccp = shared.ccp();
        for ((txn, ctx), writes) in to_apply.iter().zip(write_sets.iter()) {
            ccp.commit(ctx, writes);
            shared.trace_site_span(
                *txn,
                Some(Phase::CommitApply),
                "apply:commit",
                apply_start,
                || format!("{} writes installed (group of {group})", writes.len()),
            );
        }
        match acks.len() {
            0 => {}
            1 => shared.send(from, acks.pop().expect("one ack")),
            _ => shared.send(from, Msg::Batch(acks)),
        }
    }

    /// Handles the coordinator's decision. Acknowledges even without a
    /// participant entry (already applied, cleaned up, or we crashed and
    /// recovered) so the coordinator can finish.
    fn handle_decision(&mut self, from: NodeId, txn: TxnId, decision: Decision) {
        self.shared.mark_finished(txn);
        let entry = self.shared.participants.lock().remove(&txn);
        if let Some(mut entry) = entry {
            if let ParticipantAction::ApplyAndAck(applied) = entry.machine.on_decision(decision) {
                self.apply_decision(&entry.ctx, applied);
            }
        }
        self.shared.send(from, Msg::AcpAck { txn });
    }

    /// Handles the reply to a status query sent for an in-doubt transaction
    /// (or by a blocked participant).
    fn handle_status_reply(&mut self, txn: TxnId, decision: Option<Decision>) {
        // Presumed abort: no decision on record means abort.
        let decision = decision.unwrap_or(Decision::Abort);

        // Case 1: an in-doubt transaction from crash recovery.
        if let Some(writes) = self.shared.in_doubt.lock().remove(&txn) {
            match decision {
                Decision::Commit => self.shared.storage.commit_writes(txn, writes),
                Decision::Abort => self.shared.storage.abort(txn),
            }
            return;
        }

        // Case 2: a blocked (prepared) participant resolving via its
        // coordinator.
        let entry = self.shared.participants.lock().remove(&txn);
        if let Some(mut entry) = entry {
            self.shared.mark_finished(txn);
            if let ParticipantAction::ApplyAndAck(applied) = entry.machine.on_decision(decision) {
                self.apply_decision(&entry.ctx, applied);
            }
        }
    }

    /// Applies a commit/abort decision to storage and the CCP, after
    /// withdrawing any access of the transaction still parked here.
    fn apply_decision(&mut self, ctx: &TxnContext, decision: Decision) {
        self.cancel_parked(ctx.id);
        let shared = &self.shared;
        let apply_start = shared.trace_now();
        let ccp = shared.ccp();
        match decision {
            Decision::Commit => {
                let writes = shared.storage.commit(ctx.id);
                ccp.commit(ctx, &writes);
                shared.trace_site_span(
                    ctx.id,
                    Some(Phase::CommitApply),
                    "apply:commit",
                    apply_start,
                    || format!("{} writes installed", writes.len()),
                );
            }
            Decision::Abort => {
                shared.storage.abort(ctx.id);
                ccp.abort(ctx);
                shared.trace_site_span(ctx.id, None, "apply:abort", apply_start, String::new);
            }
        }
    }

    /// Cleans up transactions whose coordinator never came back, so their
    /// locks do not wedge the site forever. Prepared participants ask the
    /// coordinator for the decision (cooperative termination); working
    /// participants are aborted unilaterally. Also forgets finished
    /// transactions older than the horizon, which bounds `finished`.
    fn run_janitor(&mut self) {
        let horizon = self.shared.stack.janitor_horizon();
        let now = Instant::now();
        let mut stale_working: Vec<(TxnId, TxnContext)> = Vec::new();
        let mut stale_prepared: Vec<(TxnId, NodeId)> = Vec::new();
        self.shared
            .finished
            .lock()
            .retain(|_, at| now.duration_since(*at) < horizon);
        self.shared.participants.lock().retain(|txn, entry| {
            if now.duration_since(entry.last_activity) < horizon {
                return true;
            }
            match entry.machine.state() {
                ParticipantState::Working => {
                    stale_working.push((*txn, entry.ctx));
                    false
                }
                ParticipantState::Prepared | ParticipantState::PreCommitted => {
                    // Keep the entry (still blocked / uncertain) but ask the
                    // coordinator what happened; refresh the activity stamp
                    // so we do not spam queries every janitor pass.
                    stale_prepared.push((*txn, entry.coordinator));
                    entry.last_activity = Instant::now();
                    true
                }
                ParticipantState::Committed | ParticipantState::Aborted => false,
            }
        });
        for (txn, ctx) in stale_working {
            SiteMetrics::bump(&self.shared.metrics.janitor_cleanups);
            self.shared.mark_finished(txn);
            self.apply_decision(&ctx, Decision::Abort);
        }
        for (txn, coordinator) in stale_prepared {
            self.shared.send(coordinator, Msg::AcpStatusQuery { txn });
        }
        // In-doubt transactions found during crash recovery keep asking
        // their coordinator until an answer arrives. The initial query (sent
        // inside `recover_from_crash`) is dropped whenever the fault
        // controller still marks this site crashed — the normal recovery
        // order — so without this retry an in-doubt commit could stay
        // uninstalled forever.
        let in_doubt: Vec<TxnId> = self.shared.in_doubt.lock().keys().copied().collect();
        for txn in in_doubt {
            self.shared
                .send(NodeId::Site(txn.home), Msg::AcpStatusQuery { txn });
        }
    }
}

/// Whether handling `msg` can release CCP state (a decision, a NO vote, an
/// abort of a refused grant) or wound a lock holder (a copy access under
/// wound-wait): the events after which parked accesses are asked again.
fn may_unblock_parked(msg: &Msg) -> bool {
    matches!(
        msg,
        Msg::CopyRead { .. }
            | Msg::CopyPrewrite { .. }
            | Msg::AcpPrepare { .. }
            | Msg::AcpDecision { .. }
            | Msg::AcpStatusReply { .. }
            | Msg::Batch(_)
    )
}

/// Routes a coordinator response to the coordinator waiting for it.
fn route_to_coordinator(shared: &SiteShared, envelope: Envelope<Msg>) {
    let Some(txn) = envelope.payload.txn() else {
        return;
    };
    if let Some(pool) = shared.reactor.get() {
        pool.route(txn.seq, ReactorEvent::Deliver(envelope));
        return;
    }
    if let Some(tx) = shared.pending_replies.lock().get(&txn) {
        let _ = tx.send(envelope);
    }
}

/// Routes a client command to the coordinator driving the conversation.
/// When no worker is registered any more (the conversation idled out and
/// was aborted, or the site crashed and recovered), tells the client instead
/// of leaving it to its timeout; the reactor path answers `Gone` itself.
fn route_txn_op(shared: &SiteShared, txn: TxnId, envelope: Envelope<Msg>) {
    if let Some(pool) = shared.reactor.get() {
        pool.route(txn.seq, ReactorEvent::Deliver(envelope));
        return;
    }
    let client = envelope.from;
    let routed = match shared.pending_replies.lock().get(&txn) {
        Some(tx) => tx.send(envelope).is_ok(),
        None => false,
    };
    if !routed {
        shared.send(
            client,
            Msg::TxnOpReply {
                txn,
                reply: OpReply::Gone,
            },
        );
    }
}

/// Starts a client conversation coordinated by this site.
fn begin_conversation(shared: &Arc<SiteShared>, client: NodeId, label: String, request: u64) {
    SiteMetrics::bump(&shared.metrics.home_transactions);
    if let Some(pool) = shared.reactor.get() {
        // Reactor mode: allocate the id here (its sequence number pins the
        // transaction to a reactor) and hand the conversation to the owning
        // event loop.
        let txn = TxnId::new(shared.id, shared.txn_seq.fetch_add(1, Ordering::Relaxed));
        let ts = shared.clock.next();
        pool.route(
            txn.seq,
            ReactorEvent::Begin {
                txn,
                ts,
                label,
                client,
                request,
            },
        );
    } else {
        let worker_shared = Arc::clone(shared);
        // "The site dedicates one thread to process it." The thread drives
        // an interactive conversation instead of a fixed op list.
        let _ = std::thread::Builder::new()
            .name(format!("rainbow-txn-{}", shared.id.0))
            .spawn(move || run_interactive(worker_shared, label, client, request));
    }
}

/// The denial a refused copy access carries: a lock conflict with no known
/// holder.
fn lock_conflict(item: &ItemId) -> AbortCause {
    AbortCause::CcpLockConflict {
        item: item.clone(),
        holder: None,
    }
}

/// Answers a copy access.
fn send_copy_reply(
    shared: &SiteShared,
    from: NodeId,
    txn: TxnId,
    item: ItemId,
    access: CopyAccess,
    result: CopyAccessResult,
) {
    shared.send(
        from,
        Msg::CopyReply {
            txn,
            item,
            prewrite: access == CopyAccess::Prewrite,
            for_update: access == CopyAccess::Read { for_update: true },
            result,
        },
    );
}

/// Handles the 3PC PRE-COMMIT message.
fn handle_precommit(shared: &SiteShared, from: NodeId, txn: TxnId) {
    let action = {
        let mut participants = shared.participants.lock();
        match participants.get_mut(&txn) {
            Some(entry) => {
                entry.last_activity = Instant::now();
                entry.machine.on_precommit()
            }
            None => ParticipantAction::Wait,
        }
    };
    if action == ParticipantAction::SendPreCommitAck {
        shared.send(from, Msg::AcpPreCommitAck { txn });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbow_net::{NetworkConfig, SimNetwork};

    fn build_site(
        net: &SimNetwork<Msg>,
        id: u32,
        schema: &DatabaseSchema,
        stack: ProtocolStack,
    ) -> SiteHandle {
        let mailbox = net.register(NodeId::site(id));
        SiteHandle::spawn_with_schema(
            SiteId(id),
            stack,
            &StorageConfig::memory(),
            schema.clone(),
            net.handle(),
            mailbox,
            Arc::new(SiteMetrics::new()),
            None,
            None,
        )
        .expect("spawn site")
    }

    fn quick_stack() -> ProtocolStack {
        ProtocolStack::default()
            .with_lock_wait_timeout(Duration::from_millis(100))
            .with_commit_timeout(Duration::from_millis(300))
            .with_quorum_timeout(Duration::from_millis(300))
    }

    fn schema_for(sites: &[SiteId]) -> DatabaseSchema {
        DatabaseSchema::uniform(4, 100, sites, sites.len()).unwrap()
    }

    #[test]
    fn site_initializes_only_its_own_copies() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let sites: Vec<SiteId> = vec![SiteId(0), SiteId(1)];
        // Items replicated only on site 0.
        let mut schema = DatabaseSchema::new();
        schema.declare(
            "only-on-0",
            1i64,
            rainbow_common::config::ItemPlacement::majority(vec![SiteId(0)]),
        );
        schema.declare(
            "everywhere",
            2i64,
            rainbow_common::config::ItemPlacement::majority(sites.clone()),
        );
        let s0 = build_site(&net, 0, &schema, quick_stack());
        let s1 = build_site(&net, 1, &schema, quick_stack());
        assert_eq!(s0.database_snapshot().len(), 2);
        assert_eq!(s1.database_snapshot().len(), 1);
        assert_eq!(s0.id(), SiteId(0));
        assert_eq!(s1.active_transactions(), 0);
    }

    #[test]
    fn copy_read_request_is_served_through_ccp() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let sites = vec![SiteId(0)];
        let schema = schema_for(&sites);
        let _site = build_site(&net, 0, &schema, quick_stack());

        let client = NodeId::Client(0);
        let client_mailbox = net.register(client);
        let txn = TxnId::new(SiteId(9), 1);
        net.handle()
            .send(
                client,
                NodeId::site(0),
                Msg::CopyRead {
                    txn,
                    ts: Timestamp::new(1, 9),
                    item: ItemId::new("x0"),
                    for_update: false,
                },
            )
            .unwrap();
        let reply = client_mailbox
            .recv_timeout(Duration::from_millis(1000))
            .expect("no copy reply");
        match reply.payload {
            Msg::CopyReply {
                txn: t,
                prewrite,
                result: CopyAccessResult::Granted { value, version },
                ..
            } => {
                assert_eq!(t, txn);
                assert!(!prewrite);
                assert_eq!(value, Some(Value::Int(100)));
                assert_eq!(version, Version(0));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn copy_access_to_unknown_item_reports_no_such_copy() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let sites = vec![SiteId(0)];
        let schema = schema_for(&sites);
        let _site = build_site(&net, 0, &schema, quick_stack());
        let client = NodeId::Client(0);
        let client_mailbox = net.register(client);
        net.handle()
            .send(
                client,
                NodeId::site(0),
                Msg::CopyPrewrite {
                    txn: TxnId::new(SiteId(9), 1),
                    ts: Timestamp::new(1, 9),
                    item: ItemId::new("missing"),
                },
            )
            .unwrap();
        let reply = client_mailbox
            .recv_timeout(Duration::from_millis(1000))
            .expect("no reply");
        assert!(matches!(
            reply.payload,
            Msg::CopyReply {
                result: CopyAccessResult::NoSuchCopy,
                prewrite: true,
                ..
            }
        ));
    }

    #[test]
    fn prepare_and_commit_install_writes() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let sites = vec![SiteId(0)];
        let schema = schema_for(&sites);
        let site = build_site(&net, 0, &schema, quick_stack());
        let client = NodeId::Client(0);
        let client_mailbox = net.register(client);
        let txn = TxnId::new(SiteId(9), 1);
        let ts = Timestamp::new(5, 9);

        // Pre-write through the CCP first (as the RCP would).
        net.handle()
            .send(
                client,
                NodeId::site(0),
                Msg::CopyPrewrite {
                    txn,
                    ts,
                    item: ItemId::new("x1"),
                },
            )
            .unwrap();
        let _ = client_mailbox
            .recv_timeout(Duration::from_millis(1000))
            .unwrap();

        // Prepare with the write payload.
        net.handle()
            .send(
                client,
                NodeId::site(0),
                Msg::AcpPrepare {
                    txn,
                    ts,
                    writes: vec![(ItemId::new("x1"), Value::Int(777), Version(1))],
                },
            )
            .unwrap();
        let vote = client_mailbox
            .recv_timeout(Duration::from_millis(1000))
            .unwrap();
        assert!(matches!(
            vote.payload,
            Msg::AcpVote {
                vote: Vote::Yes,
                ..
            }
        ));

        // Decide commit.
        net.handle()
            .send(
                client,
                NodeId::site(0),
                Msg::AcpDecision {
                    txn,
                    decision: Decision::Commit,
                },
            )
            .unwrap();
        let ack = client_mailbox
            .recv_timeout(Duration::from_millis(1000))
            .unwrap();
        assert!(matches!(ack.payload, Msg::AcpAck { .. }));

        let snapshot = site.database_snapshot();
        assert!(snapshot.contains(&(ItemId::new("x1"), Value::Int(777), Version(1))));
        assert_eq!(site.active_transactions(), 0, "locks must be released");
    }

    #[test]
    fn decision_for_unknown_transaction_is_acked_idempotently() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let sites = vec![SiteId(0)];
        let schema = schema_for(&sites);
        let _site = build_site(&net, 0, &schema, quick_stack());
        let client = NodeId::Client(0);
        let client_mailbox = net.register(client);
        net.handle()
            .send(
                client,
                NodeId::site(0),
                Msg::AcpDecision {
                    txn: TxnId::new(SiteId(9), 42),
                    decision: Decision::Abort,
                },
            )
            .unwrap();
        let ack = client_mailbox
            .recv_timeout(Duration::from_millis(1000))
            .unwrap();
        assert!(matches!(ack.payload, Msg::AcpAck { .. }));
    }

    #[test]
    fn status_query_answers_from_the_decision_log() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let sites = vec![SiteId(0)];
        let schema = schema_for(&sites);
        let site = build_site(&net, 0, &schema, quick_stack());
        let txn = TxnId::new(SiteId(0), 7);
        site.shared.decided.lock().insert(txn, Decision::Commit);

        let client = NodeId::Client(0);
        let client_mailbox = net.register(client);
        net.handle()
            .send(client, NodeId::site(0), Msg::AcpStatusQuery { txn })
            .unwrap();
        let reply = client_mailbox
            .recv_timeout(Duration::from_millis(1000))
            .unwrap();
        assert!(matches!(
            reply.payload,
            Msg::AcpStatusReply {
                decision: Some(Decision::Commit),
                ..
            }
        ));

        // Unknown transaction: presumed abort (no decision on record).
        net.handle()
            .send(
                client,
                NodeId::site(0),
                Msg::AcpStatusQuery {
                    txn: TxnId::new(SiteId(0), 999),
                },
            )
            .unwrap();
        let reply = client_mailbox
            .recv_timeout(Duration::from_millis(1000))
            .unwrap();
        assert!(matches!(
            reply.payload,
            Msg::AcpStatusReply { decision: None, .. }
        ));
    }

    #[test]
    fn crash_recovery_restores_committed_state_and_resets_ccp() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let sites = vec![SiteId(0)];
        let schema = schema_for(&sites);
        let site = build_site(&net, 0, &schema, quick_stack());
        // Commit a write directly through storage (simulating a completed
        // transaction), then crash and recover.
        let txn = TxnId::new(SiteId(0), 1);
        site.shared
            .storage
            .stage_write(txn, ItemId::new("x0"), Value::Int(5), Version(1));
        site.shared.storage.prepare(txn);
        site.shared.storage.commit(txn);

        site.recover_from_crash().unwrap();
        let snapshot = site.database_snapshot();
        assert!(snapshot.contains(&(ItemId::new("x0"), Value::Int(5), Version(1))));
        assert_eq!(site.active_transactions(), 0);
    }
    /// One test transaction talking to a site from its own client node, so
    /// replies to different transactions never interleave in one mailbox.
    struct Probe {
        net: rainbow_net::NetHandle<Msg>,
        node: NodeId,
        mailbox: Receiver<Envelope<Msg>>,
        txn: TxnId,
        ts: Timestamp,
    }

    impl Probe {
        fn new(net: &SimNetwork<Msg>, seq: u64, ts: u64) -> Probe {
            let node = NodeId::Client(seq as u32);
            Probe {
                net: net.handle(),
                node,
                mailbox: net.register(node),
                txn: TxnId::new(SiteId(9), seq),
                ts: Timestamp::new(ts, 9),
            }
        }

        fn send(&self, msg: Msg) {
            self.net.send(self.node, NodeId::site(0), msg).unwrap();
        }

        fn read(&self, item: &str) {
            self.send(Msg::CopyRead {
                txn: self.txn,
                ts: self.ts,
                item: ItemId::new(item),
                for_update: false,
            });
        }

        fn prewrite(&self, item: &str) {
            self.send(Msg::CopyPrewrite {
                txn: self.txn,
                ts: self.ts,
                item: ItemId::new(item),
            });
        }

        fn decide(&self, decision: Decision) {
            self.send(Msg::AcpDecision {
                txn: self.txn,
                decision,
            });
        }

        /// Prepares `writes` (voting YES is asserted) and commits them.
        fn commit(&self, writes: Vec<(ItemId, Value, Version)>) {
            self.send(Msg::AcpPrepare {
                txn: self.txn,
                ts: self.ts,
                writes,
            });
            assert!(matches!(
                self.recv(),
                Msg::AcpVote {
                    vote: Vote::Yes,
                    ..
                }
            ));
            self.decide(Decision::Commit);
            assert!(matches!(self.recv(), Msg::AcpAck { .. }));
        }

        fn recv(&self) -> Msg {
            self.mailbox
                .recv_timeout(Duration::from_secs(5))
                .expect("no reply from the site")
                .payload
        }

        /// The result of the next copy reply.
        fn copy_result(&self) -> CopyAccessResult {
            match self.recv() {
                Msg::CopyReply { txn, result, .. } => {
                    assert_eq!(txn, self.txn);
                    result
                }
                other => panic!("expected a copy reply, got {other:?}"),
            }
        }

        /// Asserts that nothing arrives for a while: the access is parked.
        fn assert_parked(&self) {
            if let Ok(envelope) = self.mailbox.recv_timeout(Duration::from_millis(100)) {
                panic!("access was not parked: {:?}", envelope.payload);
            }
        }
    }

    fn granted(result: CopyAccessResult) -> (Option<Value>, Version) {
        match result {
            CopyAccessResult::Granted { value, version } => (value, version),
            other => panic!("expected a grant, got {other:?}"),
        }
    }

    #[test]
    fn parked_read_is_granted_the_post_commit_value() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let stack = quick_stack().with_lock_wait_timeout(Duration::from_secs(10));
        let site = build_site(&net, 0, &schema_for(&[SiteId(0)]), stack);
        let (holder, reader) = (Probe::new(&net, 1, 1), Probe::new(&net, 2, 2));
        holder.prewrite("x0");
        granted(holder.copy_result());
        // The exclusive holder blocks the reader: it parks.
        reader.read("x0");
        reader.assert_parked();
        assert_eq!(site.shared.ccp().registered_waits(), 2, "waiter + edge");
        // The holder's commit wakes it with the value the commit installed.
        holder.commit(vec![(ItemId::new("x0"), Value::Int(777), Version(1))]);
        assert_eq!(
            granted(reader.copy_result()),
            (Some(Value::Int(777)), Version(1))
        );
        assert_eq!(site.shared.ccp().registered_waits(), 0);
        reader.decide(Decision::Commit);
        assert!(matches!(reader.recv(), Msg::AcpAck { .. }));
        assert_eq!(site.active_transactions(), 0);
    }

    #[test]
    fn parked_access_past_its_deadline_is_denied_and_leaves_no_wait() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let stack = quick_stack()
            .with_deadlock_policy(rainbow_common::protocol::DeadlockPolicy::WaitForGraph);
        let site = build_site(&net, 0, &schema_for(&[SiteId(0)]), stack);
        let (holder, reader) = (Probe::new(&net, 1, 1), Probe::new(&net, 2, 2));
        holder.prewrite("x0");
        granted(holder.copy_result());
        let parked_at = Instant::now();
        reader.read("x0");
        assert!(matches!(
            reader.copy_result(),
            CopyAccessResult::Denied(AbortCause::CcpLockConflict { .. })
        ));
        assert!(parked_at.elapsed() >= Duration::from_millis(100));
        // No waiter and no wait-for edge outlive the denial.
        assert_eq!(site.shared.ccp().registered_waits(), 0);
    }

    #[test]
    fn copy_read_then_abort_leaves_no_lock_and_no_participant() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let site = build_site(&net, 0, &schema_for(&[SiteId(0)]), quick_stack());
        let probe = Probe::new(&net, 1, 1);
        probe.read("x0");
        probe.decide(Decision::Abort);
        granted(probe.copy_result());
        assert!(matches!(probe.recv(), Msg::AcpAck { .. }));
        assert_eq!(site.active_transactions(), 0);
        assert!(site.lingering_participants().is_empty());
        // A late access for the decided transaction is refused and creates
        // no participant entry either.
        probe.read("x1");
        assert!(matches!(
            probe.copy_result(),
            CopyAccessResult::Denied(AbortCause::CcpLockConflict { .. })
        ));
        assert!(site.lingering_participants().is_empty());
        assert_eq!(site.active_transactions(), 0);
    }

    #[test]
    fn timestamp_reads_behind_a_pending_prewrite_park_until_it_resolves() {
        use rainbow_common::protocol::CcpKind;
        for ccp in [
            CcpKind::TimestampOrdering,
            CcpKind::MultiversionTimestampOrdering,
        ] {
            for decision in [Decision::Commit, Decision::Abort] {
                let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
                let stack = quick_stack()
                    .with_ccp(ccp)
                    .with_lock_wait_timeout(Duration::from_secs(10));
                let site = build_site(&net, 0, &schema_for(&[SiteId(0)]), stack);
                let (writer, reader) = (Probe::new(&net, 1, 10), Probe::new(&net, 2, 20));
                writer.prewrite("x0");
                granted(writer.copy_result());
                reader.read("x0");
                reader.assert_parked();
                let expected = match decision {
                    Decision::Commit => {
                        writer.commit(vec![(ItemId::new("x0"), Value::Int(5), Version(1))]);
                        (Some(Value::Int(5)), Version(1))
                    }
                    Decision::Abort => {
                        writer.decide(Decision::Abort);
                        assert!(matches!(writer.recv(), Msg::AcpAck { .. }));
                        (Some(Value::Int(100)), Version(0))
                    }
                };
                assert_eq!(
                    granted(reader.copy_result()),
                    expected,
                    "{ccp} reader after {decision:?}"
                );
                reader.decide(Decision::Commit);
                assert!(matches!(reader.recv(), Msg::AcpAck { .. }));
                assert_eq!(site.active_transactions(), 0);
            }
        }
    }

    #[test]
    fn wait_for_graph_cycle_between_parked_accesses_is_a_deadlock() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let stack = quick_stack()
            .with_deadlock_policy(rainbow_common::protocol::DeadlockPolicy::WaitForGraph)
            .with_lock_wait_timeout(Duration::from_secs(10));
        let site = build_site(&net, 0, &schema_for(&[SiteId(0)]), stack);
        let (t1, t2) = (Probe::new(&net, 1, 1), Probe::new(&net, 2, 2));
        t1.prewrite("x0");
        granted(t1.copy_result());
        t2.prewrite("x1");
        granted(t2.copy_result());
        // T1 parks on x1; T2 asking for x0 closes the cycle and is the
        // victim, at once.
        t1.prewrite("x1");
        t1.assert_parked();
        t2.prewrite("x0");
        assert!(matches!(
            t2.copy_result(),
            CopyAccessResult::Denied(AbortCause::CcpDeadlock { .. })
        ));
        // The victim aborts; T1's parked access goes through.
        t2.decide(Decision::Abort);
        assert!(matches!(t2.recv(), Msg::AcpAck { .. }));
        granted(t1.copy_result());
        t1.decide(Decision::Abort);
        assert!(matches!(t1.recv(), Msg::AcpAck { .. }));
        assert_eq!(site.active_transactions(), 0);
        assert_eq!(site.shared.ccp().registered_waits(), 0);
    }

    #[test]
    fn transactions_active_at_a_crash_are_refused_after_recovery() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        let site = build_site(&net, 0, &schema_for(&[SiteId(0)]), quick_stack());
        let (before, after) = (Probe::new(&net, 1, 1), Probe::new(&net, 2, 2));
        before.prewrite("x0");
        granted(before.copy_result());
        site.recover_from_crash().unwrap();
        // The crash wiped the exclusive lock on x0; the transaction that
        // held it may not take new locks here and later vote YES on them.
        before.prewrite("x1");
        assert!(matches!(
            before.copy_result(),
            CopyAccessResult::Denied(AbortCause::CcpLockConflict { .. })
        ));
        // A transaction that starts after recovery is served normally.
        after.prewrite("x0");
        granted(after.copy_result());
    }

    #[test]
    fn janitor_forgets_finished_transactions_past_the_horizon() {
        let net = SimNetwork::<Msg>::new(NetworkConfig::perfect());
        // Horizon: 3 × (5 + 5 + 5) ms.
        let stack = ProtocolStack::default()
            .with_lock_wait_timeout(Duration::from_millis(5))
            .with_commit_timeout(Duration::from_millis(5))
            .with_quorum_timeout(Duration::from_millis(5));
        let site = build_site(&net, 0, &schema_for(&[SiteId(0)]), stack);
        for seq in 1..=3 {
            let probe = Probe::new(&net, seq, seq);
            probe.decide(Decision::Abort);
            assert!(matches!(probe.recv(), Msg::AcpAck { .. }));
        }
        assert_eq!(site.shared.finished.lock().len(), 3);
        // The janitor runs every 200 ms; give it a few passes.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !site.shared.finished.lock().is_empty() {
            assert!(Instant::now() < deadline, "finished set never shrank");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
