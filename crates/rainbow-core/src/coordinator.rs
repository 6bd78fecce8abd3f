//! The home-site transaction manager: one `TxnMachine` per transaction.
//!
//! "When a new transaction arrives at a Rainbow site, the site dedicates
//! one thread to process it." Here that thread is a state machine that
//! never blocks: the site's event loop (the dispatcher in [`crate::site`])
//! creates a `TxnMachine` when a client opens a transaction, feeds it the
//! client's commands and the protocol replies as they arrive, and wakes it
//! when one of its deadlines passes. The machine learns the transaction one
//! command at a time (begin → read/write/increment → commit/abort), and
//! each command flows through the layers of Section 2.1 of the paper:
//!
//! 1. the RCP builds a read or write quorum **per operation**, contacting
//!    copy-holder sites whose CCP arbitrates each copy access — reads run
//!    immediately and return the observed value mid-transaction, plain
//!    writes are buffered and their quorums run at commit;
//! 2. at commit the buffered write quorums are installed and the home site
//!    runs the ACP (2PC by default, 3PC optionally);
//! 3. the result — committed, aborted (with the responsible layer) or
//!    orphaned — is reported back to the driving client together with the
//!    values read, the response time and the number of messages the
//!    transaction generated.
//!
//! A machine's site-bound messages wait in the dispatcher's [`Outbox`]
//! until the end of the current mailbox drain, and leave coalesced per
//! destination into `Msg::Batch` envelopes; a site that receives a batch
//! forces the prepare and commit records in it with one log append each.
//! Replies to the client leave at once. One-shot `TxnSpec` submission is a
//! client-side adapter replaying the spec through this same conversation.

use crate::messages::{CopyAccessResult, Msg, NextOp, OpReply};
use crate::site::{SiteShared, WriteSet};
use rainbow_commit::{Coordinator, CoordinatorAction, CoordinatorState, Decision, Vote};
use rainbow_common::history::{ReadObservation, TxnRecord, WriteRecord};
use rainbow_common::protocol::CcpKind;
use rainbow_common::txn::{AbortCause, TxnOutcome, TxnResult};
use rainbow_common::{ItemId, SiteId, Timestamp, TxnId, Value, Version};
use rainbow_net::{NodeId, Outbox};
use rainbow_replication::{QuorumCollector, QuorumOutcome, QuorumResponse};
use rainbow_trace::{Phase, TraceEvent, Track};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// The site a machine runs on: its shared state, and the outbox in which
/// the machine's site-bound messages wait for the end of the current
/// mailbox drain.
pub(crate) struct Host<'a> {
    pub shared: &'a SiteShared,
    pub outbox: &'a mut Outbox<Msg>,
}

impl Host<'_> {
    /// Queues `msg` for `site`. Returns the number of network messages it
    /// costs the transaction: loopback is free, as in the paper's message
    /// accounting.
    fn send(&mut self, site: SiteId, msg: Msg) -> u64 {
        self.outbox.push(NodeId::Site(site), msg);
        u64::from(site != self.shared.id)
    }
}

/// An update the conversation has staged, in client order. Install order
/// must follow the order the client issued the updates in, even though
/// read-modify-writes assemble their quorums immediately while plain writes
/// defer theirs to commit.
enum StagedWrite {
    /// A plain write: the quorum runs at commit.
    Deferred { item: ItemId, value: Value },
    /// A read-modify-write whose (read-for-update) quorum already assembled
    /// when the operation ran: `sites` are its responders, where the write
    /// must be installed with `version`.
    Assembled {
        item: ItemId,
        value: Value,
        sites: Vec<SiteId>,
        version: Version,
    },
}

/// The three copy-access patterns the coordinator issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuorumAccess {
    /// Read quorum, shared access.
    Read,
    /// Write quorum, pre-write access (version numbers only).
    Write,
    /// Write quorum whose accesses also return the current value
    /// (read-modify-write operations).
    ReadForUpdate,
}

impl QuorumAccess {
    /// The access a `CopyReply` with these flags answers.
    fn of_reply(prewrite: bool, for_update: bool) -> QuorumAccess {
        match (prewrite, for_update) {
            (true, _) => QuorumAccess::Write,
            (false, true) => QuorumAccess::ReadForUpdate,
            (false, false) => QuorumAccess::Read,
        }
    }
}

/// Which client operation a [`QuorumOp`] serves.
enum OpKind {
    Read,
    ReadMany,
    Increment {
        delta: i64,
    },
    /// The buffered writes' quorums, followed by the ACP.
    Commit,
}

/// One item's quorum within an operation.
struct QuorumRound {
    item: ItemId,
    collector: QuorumCollector,
    /// First CCP denial this round observed: abort causes stay per quorum,
    /// so the layer attribution does not depend on the plan shape.
    ccp_cause: Option<AbortCause>,
}

impl QuorumRound {
    /// Whether a reply for `item` from `site` belongs to this round: the
    /// round is still assembling, `site` is one of its targets, and the
    /// round has not heard from it yet. The last rule makes duplicate
    /// operations on one item each collect their own copy of every site's
    /// answer; the target rule keeps a wider quorum's replies (a write
    /// fan-out) out of a narrower one on the same item (a one-site ROWA
    /// read whose vote map nevertheless lists every holder).
    fn matches(&self, item: &ItemId, site: SiteId) -> bool {
        self.item == *item
            && !self.collector.is_assembled()
            && self.collector.is_target(site)
            && !self.collector.has_response(site)
            && !self.collector.has_failure(site)
    }
}

/// A client operation waiting for its quorums. The protocol stack's
/// `parallel_quorums` chooses the plan shape: every round starts at once
/// under one deadline, or one round at a time, each under its own deadline
/// (the paper's sequential RCP loop).
struct QuorumOp {
    kind: OpKind,
    access: QuorumAccess,
    /// The items, in request order; `rounds[i]` serves `items[i]`.
    items: Vec<ItemId>,
    /// The rounds started so far.
    rounds: Vec<QuorumRound>,
    deadline: Instant,
    /// Start of the client operation (the `op:*` span).
    op_start: u64,
    /// Start of the latest fan-out.
    fanout_start: u64,
}

/// The atomic commit protocol in flight.
struct AcpRun {
    coordinator: Coordinator,
    /// The writes each participant installs, sent with its PREPARE.
    writes: BTreeMap<SiteId, WriteSet>,
    abort_cause: Option<AbortCause>,
    deadline: Instant,
    acp_start: u64,
    /// Set when the decision goes out: closes the voting span, opens the
    /// decision-distribution span.
    decision_start: Option<u64>,
    /// Start of the commit operation (the `op:commit` span).
    op_start: u64,
}

/// What a machine is waiting for.
enum State {
    /// The client's next command. Only this state runs the idle-client
    /// horizon; quorums and the ACP have their own deadlines.
    Idle,
    Quorums(QuorumOp),
    Committing(AcpRun),
    /// The result has been reported; the dispatcher drops the machine.
    Done,
}

/// One transaction at its home site.
pub(crate) struct TxnMachine {
    txn: TxnId,
    ts: Timestamp,
    label: String,
    client: NodeId,
    request: u64,
    started: Instant,
    trace_start: u64,
    last_activity: Instant,
    state: State,
    /// Values observed by read operations.
    reads: BTreeMap<ItemId, Value>,
    /// Updates staged by the conversation, in client order.
    staged: Vec<StagedWrite>,
    /// Every site that granted this transaction an access: they all hold
    /// CCP resources and must see the final decision.
    touched: BTreeSet<SiteId>,
    /// Every site the transaction contacted, whether or not it answered in
    /// time. One that granted an access after its quorum was decided holds
    /// resources the commit protocol never releases; it gets a release
    /// notice when the transaction finishes.
    contacted: BTreeSet<SiteId>,
    /// Network messages sent on behalf of this transaction (client round
    /// trips excluded).
    messages: u64,
    /// Every read with its observed version, in execution order, and every
    /// write with its installed version, in client order — the history
    /// footprint the serializability checker consumes. Empty unless the
    /// cluster records histories.
    observed: Vec<ReadObservation>,
    installed: Vec<WriteRecord>,
    /// Coordinator-side spans, handed to the tracer at the end. Empty when
    /// the cluster runs without a tracer.
    spans: Vec<TraceEvent>,
}

impl TxnMachine {
    /// Opens transaction `txn` for `client` and acknowledges it.
    pub(crate) fn begin(
        shared: &SiteShared,
        txn: TxnId,
        ts: Timestamp,
        label: String,
        client: NodeId,
        request: u64,
    ) -> TxnMachine {
        shared.send(client, Msg::TxnBegan { request, txn });
        if let Some(sink) = shared.history.as_ref() {
            sink.begin();
        }
        TxnMachine {
            txn,
            ts,
            label,
            client,
            request,
            started: Instant::now(),
            trace_start: shared.trace_now(),
            last_activity: Instant::now(),
            state: State::Idle,
            reads: BTreeMap::new(),
            staged: Vec::new(),
            touched: BTreeSet::new(),
            contacted: BTreeSet::new(),
            messages: 0,
            observed: Vec::new(),
            installed: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// True once the result has been reported.
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// When the machine next needs waking: the idle-client horizon while it
    /// waits for a command, the quorum or ACP deadline while one runs.
    fn deadline(&self, horizon: Duration) -> Option<Instant> {
        match &self.state {
            State::Idle => Some(self.last_activity + horizon),
            State::Quorums(op) => Some(op.deadline),
            State::Committing(run) => Some(run.deadline),
            State::Done => None,
        }
    }

    /// Handles one client command or protocol reply for this transaction.
    pub(crate) fn on_message(&mut self, host: &mut Host, from: NodeId, msg: Msg) {
        match (msg, from.as_site()) {
            (Msg::TxnOp { op, .. }, _) => {
                // The client sends one command at a time. One that arrives
                // mid-operation (a dropped handle's abort) is ignored; the
                // idle horizon ends the transaction instead.
                if matches!(self.state, State::Idle) {
                    self.last_activity = Instant::now();
                    self.on_command(host, op);
                }
            }
            (
                Msg::CopyReply {
                    item,
                    prewrite,
                    for_update,
                    result,
                    ..
                },
                Some(site),
            ) => {
                let access = QuorumAccess::of_reply(prewrite, for_update);
                self.on_copy_reply(host, site, item, access, result);
            }
            (msg, Some(site)) => self.on_acp_reply(host, site, msg),
            _ => {}
        }
    }

    /// Acts on a deadline that has passed by `now`, and returns the next
    /// one (`None` once the machine is done).
    pub(crate) fn on_time(&mut self, host: &mut Host, now: Instant) -> Option<Instant> {
        let horizon = host.shared.stack.janitor_horizon();
        if self.deadline(horizon).is_some_and(|at| at <= now) {
            match std::mem::replace(&mut self.state, State::Idle) {
                // The client went quiet past the horizon: presume it gone,
                // and free its resources everywhere on the clock the
                // participant janitor uses.
                State::Idle => self.abort(host, AbortCause::ClientTimeout),
                State::Quorums(op) => {
                    let round = op
                        .rounds
                        .iter()
                        .find(|round| !round.collector.is_assembled())
                        .expect("a pending operation has a pending round");
                    let cause = round.ccp_cause.clone().unwrap_or(AbortCause::RcpTimeout {
                        item: round.item.clone(),
                    });
                    self.quorum_op_failed(host, &op, cause);
                }
                State::Committing(mut run) => {
                    if run.abort_cause.is_none() {
                        let phase = match run.coordinator.state() {
                            CoordinatorState::CollectingVotes => "prepare",
                            CoordinatorState::CollectingPreCommitAcks => "pre-commit",
                            _ => "ack",
                        };
                        run.abort_cause = Some(AbortCause::AcpTimeout {
                            phase: phase.into(),
                        });
                    }
                    let action = run.coordinator.on_timeout();
                    self.advance_acp(host, run, action);
                }
                State::Done => self.state = State::Done,
            }
        }
        self.deadline(horizon)
    }

    /// Site shutdown with the transaction still open: a decision already
    /// made stands, anything else aborts with a site failure.
    pub(crate) fn fail_site_down(&mut self, host: &mut Host) {
        match std::mem::replace(&mut self.state, State::Idle) {
            State::Done => self.state = State::Done,
            State::Committing(run) if run.coordinator.decision().is_some() => {
                self.finish_acp(host, run)
            }
            _ => {
                let site = host.shared.id;
                self.abort(host, AbortCause::SiteFailure { site });
            }
        }
    }

    /// Executes the client's next command.
    fn on_command(&mut self, host: &mut Host, op: NextOp) {
        match op {
            NextOp::Read { item } => {
                self.start_op(host, OpKind::Read, vec![item], QuorumAccess::Read)
            }
            NextOp::ReadMany { items } => {
                self.start_op(host, OpKind::ReadMany, items, QuorumAccess::Read)
            }
            NextOp::Increment { item, delta } => self.start_op(
                host,
                OpKind::Increment { delta },
                vec![item],
                QuorumAccess::ReadForUpdate,
            ),
            NextOp::BufferWrite { item, value } => {
                self.staged.push(StagedWrite::Deferred { item, value });
                self.reply(host.shared, OpReply::Buffered);
            }
            NextOp::Commit => {
                let deferred = self
                    .staged
                    .iter()
                    .filter_map(|staged| match staged {
                        StagedWrite::Deferred { item, .. } => Some(item.clone()),
                        StagedWrite::Assembled { .. } => None,
                    })
                    .collect();
                self.start_op(host, OpKind::Commit, deferred, QuorumAccess::Write);
            }
            NextOp::Abort => self.abort(host, AbortCause::UserAbort),
        }
    }

    fn start_op(
        &mut self,
        host: &mut Host,
        kind: OpKind,
        items: Vec<ItemId>,
        access: QuorumAccess,
    ) {
        let op = QuorumOp {
            kind,
            access,
            rounds: Vec::with_capacity(items.len()),
            items,
            deadline: Instant::now(),
            op_start: host.shared.trace_now(),
            fanout_start: 0,
        };
        self.start_rounds(host, op);
    }

    /// Starts the rounds the plan allows now — every remaining one, or
    /// under the sequential plan the next one once the last has assembled
    /// — then completes the operation or waits for replies.
    fn start_rounds(&mut self, host: &mut Host, mut op: QuorumOp) {
        let sequential = !host.shared.stack.parallel_quorums;
        while op.rounds.len() < op.items.len() {
            if sequential
                && op
                    .rounds
                    .last()
                    .is_some_and(|round| !round.collector.is_assembled())
            {
                break;
            }
            let item = op.items[op.rounds.len()].clone();
            op.deadline = Instant::now() + host.shared.stack.quorum_timeout;
            op.fanout_start = host.shared.trace_now();
            let collector = match self.start_quorum(host, &item, op.access) {
                Ok(collector) => collector,
                Err(cause) => return self.quorum_op_failed(host, &op, cause),
            };
            // A plan that is unsatisfiable from the start (a tree-quorum
            // write while the root is down plans zero targets) aborts now,
            // not at the deadline.
            if collector.outcome() == QuorumOutcome::Impossible {
                return self.quorum_op_failed(host, &op, collector.abort_cause());
            }
            if collector.is_assembled() {
                let responders = collector.responders().len();
                self.quorum_span(host.shared, op.access, &item, op.fanout_start, responders);
            }
            op.rounds.push(QuorumRound {
                item,
                collector,
                ccp_cause: None,
            });
        }
        let assembled = op.rounds.len() == op.items.len()
            && op.rounds.iter().all(|round| round.collector.is_assembled());
        if assembled {
            self.quorums_assembled(host, op);
        } else {
            self.state = State::Quorums(op);
        }
    }

    /// Plans one quorum and queues its copy-access requests, returning the
    /// collector the replies feed into.
    fn start_quorum(
        &mut self,
        host: &mut Host,
        item: &ItemId,
        access: QuorumAccess,
    ) -> Result<QuorumCollector, AbortCause> {
        let shared = host.shared;
        let Some(placement) = shared.schema.read().replication.placement(item).cloned() else {
            return Err(AbortCause::RcpQuorumUnavailable {
                item: item.clone(),
                collected: 0,
                required: 0,
            });
        };
        // The fault controller's live site-status view: the planners route
        // around (reads), shrink their write sets to (available copies,
        // primary copy) or degrade their trees around (tree quorum) the
        // sites known to be down. Partitioned-but-alive sites are
        // deliberately *not* in this list — treating them as down would let
        // write sets shrink on both sides of a partition and diverge;
        // instead they stay targets and the quorum times out.
        let suspected_down = shared.net.faults().crashed_sites();
        let plan = match access {
            QuorumAccess::Read => {
                shared
                    .rcp
                    .plan_read(item, &placement, Some(shared.id), &suspected_down)
            }
            QuorumAccess::Write | QuorumAccess::ReadForUpdate => {
                shared.rcp.plan_write(item, &placement, &suspected_down)
            }
        };
        for &target in &plan.targets {
            let (txn, ts, item) = (self.txn, self.ts, item.clone());
            let msg = match access {
                QuorumAccess::Write => Msg::CopyPrewrite { txn, ts, item },
                QuorumAccess::Read | QuorumAccess::ReadForUpdate => Msg::CopyRead {
                    txn,
                    ts,
                    item,
                    for_update: access == QuorumAccess::ReadForUpdate,
                },
            };
            self.messages += host.send(target, msg);
            self.contacted.insert(target);
        }
        Ok(plan.collector())
    }

    /// Feeds one copy-access reply into the operation's quorums.
    fn on_copy_reply(
        &mut self,
        host: &mut Host,
        site: SiteId,
        item: ItemId,
        access: QuorumAccess,
        result: CopyAccessResult,
    ) {
        let mut op = match std::mem::replace(&mut self.state, State::Idle) {
            State::Quorums(op) if op.access == access => op,
            other => {
                self.state = other;
                return; // a late reply to an earlier operation
            }
        };
        let Some(index) = op.rounds.iter().position(|r| r.matches(&item, site)) else {
            self.state = State::Quorums(op);
            return; // a late reply for a quorum that already assembled
        };
        let shared = host.shared;
        if site != shared.id {
            shared.net.counters().record_round_trip();
        }
        self.push_span(shared, "quorum:leg", op.fanout_start, || {
            format!("site{} {item}", site.0)
        });
        let round = &mut op.rounds[index];
        match result {
            CopyAccessResult::Granted { value, version } => {
                // The responder holds CCP resources for this transaction
                // from now on, whether or not its quorum assembles.
                self.touched.insert(site);
                round.collector.record_response(QuorumResponse {
                    site,
                    version,
                    value,
                });
            }
            CopyAccessResult::Denied(cause) => {
                if round.ccp_cause.is_none() {
                    round.ccp_cause = Some(cause);
                }
                round.collector.record_failure(site);
            }
            CopyAccessResult::NoSuchCopy => {
                round.collector.record_failure(site);
            }
        }
        match round.collector.outcome() {
            QuorumOutcome::Pending => self.state = State::Quorums(op),
            QuorumOutcome::Impossible => {
                let cause = round
                    .ccp_cause
                    .clone()
                    .unwrap_or_else(|| round.collector.abort_cause());
                self.quorum_op_failed(host, &op, cause);
            }
            QuorumOutcome::Assembled => {
                let responders = round.collector.responders().len();
                self.quorum_span(shared, op.access, &item, op.fanout_start, responders);
                self.start_rounds(host, op);
            }
        }
    }

    /// Every quorum of the operation assembled: answer the client, or move
    /// on into the commit protocol.
    fn quorums_assembled(&mut self, host: &mut Host, op: QuorumOp) {
        let shared = host.shared;
        let result = match op.kind {
            OpKind::Commit => {
                let collectors = op.rounds.into_iter().map(|round| round.collector);
                let writes = self.fold_staged(shared, collectors);
                return self.start_acp(host, op.op_start, writes);
            }
            OpKind::Increment { delta } => self.stage_increment(shared, &op.rounds[0], delta),
            OpKind::Read | OpKind::ReadMany => {
                self.read_values(shared, &op.rounds)
                    .map(|mut values| match op.kind {
                        OpKind::Read => {
                            let (item, value) = values.pop().expect("a read has one item");
                            OpReply::Value { item, value }
                        }
                        _ => OpReply::Values { values },
                    })
            }
        };
        self.push_op_span(shared, &op);
        match result {
            Ok(reply) => {
                self.reply(shared, reply);
                self.state = State::Idle;
            }
            Err(cause) => self.abort(host, cause),
        }
    }

    /// A quorum of the operation failed: the transaction aborts.
    fn quorum_op_failed(&mut self, host: &mut Host, op: &QuorumOp, cause: AbortCause) {
        self.push_op_span(host.shared, op);
        self.abort(host, cause);
    }

    /// The values the rounds' quorums observed, in request order.
    fn read_values(
        &mut self,
        shared: &SiteShared,
        rounds: &[QuorumRound],
    ) -> Result<Vec<(ItemId, Value)>, AbortCause> {
        rounds
            .iter()
            .map(|round| {
                let (value, version) = latest_value(round)?;
                self.observe_read(shared, &round.item, &value, version);
                Ok((round.item.clone(), value))
            })
            .collect()
    }

    /// Stages `current + delta` for installation at the read-for-update
    /// quorum's responders, and answers with the observed value.
    fn stage_increment(
        &mut self,
        shared: &SiteShared,
        round: &QuorumRound,
        delta: i64,
    ) -> Result<OpReply, AbortCause> {
        let (current, observed) = latest_value(round)?;
        let value = current.add_int(delta).ok_or(AbortCause::UserAbort)?;
        self.observe_read(shared, &round.item, &current, observed);
        let version = self.write_version(shared, &round.collector);
        self.staged.push(StagedWrite::Assembled {
            item: round.item.clone(),
            value,
            sites: round.collector.responders(),
            version,
        });
        Ok(OpReply::Value {
            item: round.item.clone(),
            value: current,
        })
    }

    /// Folds the staged updates — in client order — into the write sets the
    /// ACP sends each participant. `collectors` are the buffered writes'
    /// quorums, in the same order.
    fn fold_staged(
        &mut self,
        shared: &SiteShared,
        collectors: impl Iterator<Item = QuorumCollector>,
    ) -> BTreeMap<SiteId, WriteSet> {
        let mut collectors = collectors;
        let mut writes: BTreeMap<SiteId, WriteSet> = BTreeMap::new();
        for staged in std::mem::take(&mut self.staged) {
            let (item, value, sites, version) = match staged {
                StagedWrite::Deferred { item, value } => {
                    let collector = collectors.next().expect("one quorum per buffered write");
                    let version = self.write_version(shared, &collector);
                    (item, value, collector.responders(), version)
                }
                StagedWrite::Assembled {
                    item,
                    value,
                    sites,
                    version,
                } => (item, value, sites, version),
            };
            if shared.history.is_some() {
                self.installed.push(WriteRecord {
                    item: item.clone(),
                    value: value.clone(),
                    version,
                });
            }
            for site in sites {
                writes
                    .entry(site)
                    .or_default()
                    .push((item.clone(), value.clone(), version));
            }
        }
        writes
    }

    /// The replica version number a write must install.
    ///
    /// Under 2PL, write quorums are serialized by exclusive locks, so
    /// `max(version in quorum) + 1` is strictly increasing in commit order.
    /// Under (MV)TSO, conflicting pre-writes are *not* serialized before
    /// commit — two concurrent writers could both observe the same
    /// committed version and install colliding numbers — so the version is
    /// derived from the transaction's globally unique timestamp instead,
    /// which is exactly the order those protocols serialize by.
    fn write_version(&self, shared: &SiteShared, collector: &QuorumCollector) -> Version {
        match shared.stack.ccp {
            CcpKind::TwoPhaseLocking => collector.next_version(),
            CcpKind::TimestampOrdering | CcpKind::MultiversionTimestampOrdering => {
                // Encode (counter, site) into a single monotonic number; site
                // ids are far below 1024 in any Rainbow configuration.
                Version(self.ts.counter * 1024 + u64::from(self.ts.site % 1024))
            }
        }
    }

    /// Starts the atomic commit protocol over every touched site.
    fn start_acp(&mut self, host: &mut Host, op_start: u64, writes: BTreeMap<SiteId, WriteSet>) {
        let participants = self.touched.iter().copied();
        let mut coordinator = Coordinator::new(self.txn, host.shared.stack.acp, participants);
        let action = coordinator.start();
        let run = AcpRun {
            coordinator,
            writes,
            abort_cause: None,
            deadline: Instant::now() + host.shared.stack.commit_timeout,
            acp_start: host.shared.trace_now(),
            decision_start: None,
            op_start,
        };
        self.advance_acp(host, run, action);
    }

    /// Feeds a participant's vote or acknowledgement into the ACP.
    fn on_acp_reply(&mut self, host: &mut Host, site: SiteId, msg: Msg) {
        let mut run = match std::mem::replace(&mut self.state, State::Idle) {
            State::Committing(run) => run,
            other => {
                self.state = other;
                return; // a late vote or ack
            }
        };
        let action = match msg {
            Msg::AcpVote { vote, .. } => {
                if vote == Vote::No && run.abort_cause.is_none() {
                    run.abort_cause = Some(AbortCause::AcpVotedNo { participant: site });
                }
                run.coordinator.on_vote(site, vote)
            }
            Msg::AcpPreCommitAck { .. } => run.coordinator.on_precommit_ack(site),
            Msg::AcpAck { .. } => run.coordinator.on_ack(site),
            _ => CoordinatorAction::Wait,
        };
        self.advance_acp(host, run, action);
    }

    /// Carries out one ACP coordinator action, then either waits for the
    /// next reply or reports the outcome.
    fn advance_acp(&mut self, host: &mut Host, mut run: AcpRun, action: CoordinatorAction) {
        let shared = host.shared;
        let txn = self.txn;
        match action {
            CoordinatorAction::SendPrepare(targets) => {
                for target in targets {
                    let writes = run.writes.remove(&target).unwrap_or_default();
                    let prepare = Msg::AcpPrepare {
                        txn,
                        ts: self.ts,
                        writes,
                    };
                    self.messages += host.send(target, prepare);
                }
            }
            CoordinatorAction::SendPreCommit(targets) => {
                // A phase transition gets a fresh timeout window.
                run.deadline = Instant::now() + shared.stack.commit_timeout;
                for target in targets {
                    self.messages += host.send(target, Msg::AcpPreCommit { txn });
                }
            }
            CoordinatorAction::SendDecision(decision, targets) => {
                run.deadline = Instant::now() + shared.stack.commit_timeout;
                if run.decision_start.is_none() {
                    let participants = run.coordinator.participants().len();
                    self.push_span(shared, "acp:prepare", run.acp_start, || {
                        format!("{participants} participants")
                    });
                    run.decision_start = Some(shared.trace_now());
                }
                // Force the decision at the coordinator before telling
                // anyone.
                shared.decided.lock().insert(txn, decision);
                for target in targets {
                    self.messages += host.send(target, Msg::AcpDecision { txn, decision });
                }
            }
            CoordinatorAction::Complete(_) | CoordinatorAction::Wait => {}
        }
        if run.coordinator.state() == CoordinatorState::Completed {
            self.finish_acp(host, run);
        } else {
            self.state = State::Committing(run);
        }
    }

    /// The commit protocol finished (decision distributed and acknowledged,
    /// or timed out into an orphan): report the outcome.
    fn finish_acp(&mut self, host: &mut Host, run: AcpRun) {
        let shared = host.shared;
        let decision = run.coordinator.decision();
        if let Some(start) = run.decision_start {
            self.push_span(shared, "acp:decision", start, || format!("{decision:?}"));
        }
        let outcome = match decision {
            Some(Decision::Commit) => TxnOutcome::Committed,
            Some(Decision::Abort) => {
                TxnOutcome::Aborted(run.abort_cause.unwrap_or(AbortCause::AcpTimeout {
                    phase: "prepare".into(),
                }))
            }
            None => TxnOutcome::Orphaned,
        };
        let detail = if outcome.is_committed() {
            "committed"
        } else {
            "aborted"
        };
        self.push_span(shared, "op:commit", run.op_start, || detail.to_string());
        self.finish(host, outcome);
    }

    /// Ends the transaction before the ACP decided it: every touched site
    /// is told to release the transaction's CCP resources and discard its
    /// staged state, then the result is reported.
    fn abort(&mut self, host: &mut Host, cause: AbortCause) {
        let txn = self.txn;
        host.shared.decided.lock().insert(txn, Decision::Abort);
        for &site in &self.touched {
            let decision = Decision::Abort;
            self.messages += host.send(site, Msg::AcpDecision { txn, decision });
        }
        self.finish(host, TxnOutcome::Aborted(cause));
    }

    /// The epilogue of every outcome: release the stragglers, record the
    /// decision and the history, close the trace, report to the client.
    fn finish(&mut self, host: &mut Host, outcome: TxnOutcome) {
        let (shared, txn) = (host.shared, self.txn);
        // A site contacted outside the commit protocol may have granted an
        // access after its quorum was decided. It is told to drop it now
        // instead of waiting for the janitor; aborting at a non-participant
        // is always safe, as the site holds no staged writes.
        for &site in self.contacted.difference(&self.touched) {
            let decision = Decision::Abort;
            self.messages += host.send(site, Msg::AcpDecision { txn, decision });
        }
        if outcome.is_committed() {
            shared.decided.lock().insert(txn, Decision::Commit);
        }
        // The coordinator is the authoritative observer: it records the
        // real outcome even when the driving client timed out and reported
        // an orphan.
        if let Some(sink) = shared.history.as_ref() {
            sink.record(TxnRecord {
                txn,
                label: self.label.clone(),
                reads: std::mem::take(&mut self.observed),
                writes: std::mem::take(&mut self.installed),
                outcome: outcome.clone(),
                completion_seq: 0,
            });
        }
        if let Some(tracer) = shared.tracer.as_ref() {
            let mut spans = std::mem::take(&mut self.spans);
            spans.push(TraceEvent {
                txn,
                track: Track::Coordinator,
                label: "txn".to_string(),
                start_us: self.trace_start,
                dur_us: tracer.now_us().saturating_sub(self.trace_start),
                detail: format!("{}: {outcome:?}", self.label),
            });
            tracer.finish_txn(txn, self.started.elapsed(), spans);
        }
        let result = TxnResult {
            id: txn,
            label: std::mem::take(&mut self.label),
            outcome,
            reads: std::mem::take(&mut self.reads),
            response_time: self.started.elapsed(),
            restarts: 0,
            messages: self.messages,
        };
        let request = self.request;
        shared.send(self.client, Msg::TxnDone { request, result });
        self.state = State::Done;
    }

    /// Answers a non-terminal command.
    fn reply(&self, shared: &SiteShared, reply: OpReply) {
        let txn = self.txn;
        shared.send(self.client, Msg::TxnOpReply { txn, reply });
    }

    /// Records a read: its value for the client's result and, when the
    /// cluster records histories, its version for the checker.
    fn observe_read(
        &mut self,
        shared: &SiteShared,
        item: &ItemId,
        value: &Value,
        version: Version,
    ) {
        if shared.history.is_some() {
            self.observed.push(ReadObservation {
                item: item.clone(),
                value: value.clone(),
                version,
            });
        }
        self.reads.insert(item.clone(), value.clone());
    }

    /// Buffers one coordinator-side span ending now. No-op without a
    /// tracer; the detail is a closure so untraced runs never format it.
    fn push_span(
        &mut self,
        shared: &SiteShared,
        label: &str,
        start_us: u64,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(tracer) = shared.tracer.as_ref() {
            self.spans.push(TraceEvent {
                txn: self.txn,
                track: Track::Coordinator,
                label: label.to_string(),
                start_us,
                dur_us: tracer.now_us().saturating_sub(start_us),
                detail: detail(),
            });
        }
    }

    /// The span of one client operation (`op:read`, `op:read-many`,
    /// `op:increment`, or `op:commit` when it fails before the ACP).
    fn push_op_span(&mut self, shared: &SiteShared, op: &QuorumOp) {
        let label = match op.kind {
            OpKind::Read => "op:read",
            OpKind::ReadMany => "op:read-many",
            OpKind::Increment { .. } => "op:increment",
            OpKind::Commit => "op:commit",
        };
        self.push_span(shared, label, op.op_start, || match op.kind {
            OpKind::Read | OpKind::Increment { .. } => op.items[0].to_string(),
            OpKind::ReadMany => format!("{} items", op.items.len()),
            OpKind::Commit => "aborted".to_string(),
        });
    }

    /// The span and phase-histogram entry of one assembled quorum. Write
    /// quorums get a span but no `quorum-read` histogram entry.
    fn quorum_span(
        &mut self,
        shared: &SiteShared,
        access: QuorumAccess,
        item: &ItemId,
        start_us: u64,
        responders: usize,
    ) {
        let Some(tracer) = shared.tracer.as_ref() else {
            return;
        };
        if access != QuorumAccess::Write {
            let dur_us = tracer.now_us().saturating_sub(start_us);
            tracer.record_phase(Phase::QuorumRead, Duration::from_micros(dur_us));
        }
        let label = match access {
            QuorumAccess::Read => "quorum:read",
            QuorumAccess::Write => "quorum:write",
            QuorumAccess::ReadForUpdate => "quorum:read-for-update",
        };
        self.push_span(shared, label, start_us, || {
            format!("{item} ({responders} responders)")
        });
    }
}

/// The value and version a round's quorum observed.
fn latest_value(round: &QuorumRound) -> Result<(Value, Version), AbortCause> {
    round
        .collector
        .latest_value()
        .ok_or_else(|| AbortCause::RcpTimeout {
            item: round.item.clone(),
        })
}
