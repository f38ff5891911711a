//! The coordinator: cluster membership, stream creation and placement,
//! metadata service, crash-time reassignment (paper Fig. 1: "the
//! coordinator manages storage nodes on which live broker and backup
//! processes") — replicated so it is no longer a single point of
//! failure (DESIGN.md §10).
//!
//! Every mutating operation is a [`MetaOp`] the leader appends to the
//! replicated metadata log ([`crate::metalog`]) and acknowledges only
//! once a quorum of replicas holds it; replicas fold the committed
//! prefix into their [`MetaState`] deterministically. Leadership comes
//! from the election machine ([`crate::election`]), driven by one
//! self-re-arming timer per replica on its node: a leader's fires at its
//! next heartbeat, a follower's at its election deadline. Client-facing
//! ops on a non-leader fail with [`KeraError::NotLeader`] carrying a
//! redirect hint; `RpcClient::call_leader` follows it.
//!
//! Nothing here parks a worker. Append rounds and vote requests are
//! detached calls whose completions fold each response in as it lands.
//! A client op keeps its `Reply`: the thread that commits its record
//! issues the op's broker pushes, and the last push to end answers it; a
//! stepdown refuses it and a timer at its deadline times it out.
//!
//! Lock discipline: the single `coord.replica` mutex guards all
//! replication state and is **never** held across an RPC — every
//! handler, timer and completion computes its outbound batch under the
//! lock, drops it, then performs the calls.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_common::config::CoordinatorConfig;
use kera_common::ids::{NodeId, StreamId, StreamletId};
use kera_common::rng::SplitMix64;
use kera_common::{KeraError, Result};
use kera_obs::trace::Stage;
use kera_obs::NodeObs;
use kera_rpc::fabric::leader_index;
use kera_rpc::{Reply, RequestContext, RpcClient, Service};
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    CrashReassignmentResponse, CreateStreamRequest, DeleteStreamRequest, GetMetadataRequest,
    HostAssignment, HostStreamRequest, Reassignment, ReplicaRole, ReportCrashRequest,
    StreamMetadata, StreamletPlacement,
};
use kera_wire::meta::{
    GetLeaderResponse, MetaAppendRequest, MetaAppendResponse, MetaOp, VoteRequest, VoteResponse,
};
use parking_lot::{Mutex, MutexGuard};

use crate::election::ElectionMachine;
use crate::metalog::{MetaLog, MetaState};

const HOST_TIMEOUT: Duration = Duration::from_secs(5);
/// Commit budget for one metadata op when the caller sent no deadline.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(5);

/// A call to a broker an op makes once its record commits.
type Push = (NodeId, OpCode, Bytes);

/// A client op as planned under the lock: its record's log index, its
/// pushes and its answer.
type Planned = (u64, Vec<Push>, Bytes);

/// A client op whose record is in the log, waiting for it to commit.
struct Op {
    /// Log index of the record it waits on.
    index: u64,
    /// What the brokers are told once the record commits.
    pushes: Vec<Push>,
    /// The answer once every push has ended well.
    ok: Bytes,
    reply: Reply,
}

/// All replication state of one coordinator replica, under one mutex.
struct Replica {
    election: ElectionMachine,
    log: MetaLog,
    /// Fold of the committed log prefix (up to `applied_index`).
    state: MetaState,
    commit_index: u64,
    applied_index: u64,
    /// Leader-only: highest log index each peer confirmed.
    match_index: HashMap<NodeId, u64>,
    /// Follower: last valid leader contact (heartbeat or granted vote).
    last_leader_contact: Instant,
    /// Leader: last instant a quorum acknowledged an append round.
    last_quorum_ack: Instant,
    /// Current randomized election timeout; redrawn per candidacy.
    election_timeout: Duration,
    rng: SplitMix64,
    leader_since: Option<Instant>,
    /// Leader-only: client ops by (caller, request id).
    ops: HashMap<(NodeId, u64), Op>,
    /// The protocol clock's arming; a timer of an earlier one is stale.
    clock: u64,
}

/// The coordinator service: one replica of the replicated coordinator.
/// A replica set of one commits locally and never elects — the
/// pre-replication behaviour, still the cluster default.
pub struct CoordinatorService {
    node: NodeId,
    /// The full replica set (identical order on every replica).
    replicas: Vec<NodeId>,
    /// Brokers this cluster was configured with; (re-)registered into
    /// the metadata log whenever this replica wins leadership.
    brokers_cfg: Vec<NodeId>,
    cfg: CoordinatorConfig,
    replica: Mutex<Replica>,
    client: OnceLock<RpcClient>,
    /// This service, for the timers and completions it leaves behind.
    me: Weak<Self>,
}

/// Applied metadata-log records that trigger a snapshot + log truncation.
const SNAPSHOT_THRESHOLD: u64 = 256;

fn draw_timeout(cfg: &CoordinatorConfig, rng: &mut SplitMix64) -> Duration {
    let min = cfg.election_timeout_min.as_millis() as u64;
    let max = cfg.election_timeout_max.as_millis() as u64;
    Duration::from_millis(min + rng.next_below(max - min + 1))
}

impl CoordinatorService {
    /// One replica of a replicated coordinator. `replicas` must list the
    /// full set (including `node`) in the same order on every replica.
    pub fn replicated(
        node: NodeId,
        replicas: Vec<NodeId>,
        brokers: Vec<NodeId>,
        cfg: CoordinatorConfig,
    ) -> Arc<Self> {
        // Distinct per-replica streams from the shared seed, so a
        // cluster-wide seed still desynchronizes election timeouts.
        let mut rng = SplitMix64::new(cfg.seed ^ (u64::from(node.raw()) << 20));
        let election_timeout = draw_timeout(&cfg, &mut rng);
        Arc::new_cyclic(|me| Self {
            node,
            brokers_cfg: brokers,
            replica: Mutex::named("coord.replica", Replica {
                election: ElectionMachine::new(node, &replicas),
                log: MetaLog::new(),
                state: MetaState::new(),
                commit_index: 0,
                applied_index: 0,
                match_index: HashMap::new(),
                last_leader_contact: Instant::now(),
                last_quorum_ack: Instant::now(),
                election_timeout,
                rng,
                leader_since: None,
                ops: HashMap::new(),
                clock: 0,
            }),
            replicas,
            cfg,
            client: OnceLock::new(),
            me: me.clone(),
        })
    }

    pub fn attach_client(&self, client: RpcClient) {
        let _ = self.client.set(client);
    }

    fn client(&self) -> Result<&RpcClient> {
        self.client
            .get()
            .ok_or_else(|| KeraError::Protocol("coordinator not attached to its runtime".into()))
    }

    fn obs(&self) -> Option<&Arc<NodeObs>> {
        self.client.get().map(|c| c.obs())
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn replicas(&self) -> &[NodeId] {
        &self.replicas
    }

    pub fn is_leader(&self) -> bool {
        self.replica.lock().election.is_leader()
    }

    /// Every term this replica ever won — the chaos suite aggregates
    /// these across replicas to assert no term was won twice.
    pub fn won_terms(&self) -> Vec<u64> {
        self.replica.lock().election.won_terms()
    }

    /// Committed stream count (test/diagnostic aid).
    pub fn committed_streams(&self) -> usize {
        self.replica.lock().state.streams.len()
    }

    // ---- lifecycle -----------------------------------------------------

    /// Starts this replica's protocol. A single replica elects itself
    /// at once and keeps no clock; one of several arms its clock for its
    /// first election deadline.
    pub fn start(&self) {
        let now = Instant::now();
        let mut st = self.replica.lock();
        if self.replicas.len() > 1 {
            let due = st.last_leader_contact + st.election_timeout;
            return self.arm(&mut st, due);
        }
        if !st.election.is_leader() {
            let (li, lt) = (st.log.last_index(), st.log.last_term());
            st.election.start_election(li, lt);
            st.leader_since = Some(now);
        }
        drop(st);
        self.ensure_brokers_registered();
    }

    // ---- observability helpers ----------------------------------------

    fn bump(&self, name: &'static str) {
        if let Some(obs) = self.obs() {
            obs.registry().counter(name, &[]).inc();
        }
    }

    fn set_tenure_ms(&self, v: i64) {
        if let Some(obs) = self.obs() {
            obs.registry().gauge("coord_leader_tenure_ms", &[]).set(v);
        }
    }

    /// Progress heartbeat for the stall watchdog: committed/accepted
    /// metadata entries are this replica's unit of real work.
    fn bump_progress(&self) {
        if let Some(obs) = self.obs() {
            obs.bump_progress();
        }
    }

    /// Serves the Introspect RPC.
    fn handle_introspect(&self, payload: &[u8]) -> Result<Bytes> {
        let (is_leader, term, streams) = {
            let st = self.replica.lock();
            (st.election.is_leader(), st.election.term(), st.state.streams.len())
        };
        let fields = crate::introspect::HealthFields {
            role: kera_wire::messages::NodeRole::Coordinator,
            is_leader,
            term,
            // Committed streams stand in for the segment count on the
            // control plane.
            segments: streams as u32,
            ..Default::default()
        };
        match self.obs() {
            Some(obs) => crate::introspect::serve(obs, payload, fields),
            // Not attached to a runtime yet: answer with an inert handle
            // so the health header still goes out.
            None => crate::introspect::serve(&NodeObs::disabled(self.node.raw()), payload, fields),
        }
    }

    /// Records an instant election event as a root span (aux = term) so
    /// it lands in the flight recorder even with no ambient trace.
    fn election_event(&self, stage: Stage, term: u64) {
        if let Some(obs) = self.obs() {
            let mut span = obs.root_span(stage);
            span.set_aux(term);
        }
    }

    fn note_stepdown(&self, st: &mut Replica) {
        st.leader_since = None;
        self.set_tenure_ms(0);
        self.election_event(Stage::ElectionStepdown, st.election.term());
    }

    // ---- state machine plumbing ---------------------------------------

    /// The committed fold plus the uncommitted log suffix: what the
    /// leader validates new ops against, so two racing ops in the same
    /// term cannot both pass validation.
    fn preview(st: &Replica) -> MetaState {
        let mut view = st.state.clone();
        for rec in st.log.entries_after(st.applied_index) {
            view.apply(&rec.op);
        }
        view
    }

    /// Folds the newly committed records into the state, then snapshots
    /// the applied prefix once it is long enough.
    fn apply_committed(st: &mut Replica) {
        while st.applied_index < st.commit_index {
            let next = st.applied_index + 1;
            let Some(rec) = st.log.get(next) else { break };
            let op = rec.op.clone();
            st.state.apply(&op);
            st.applied_index = next;
        }
        if st.applied_index.saturating_sub(st.log.base_index()) >= SNAPSHOT_THRESHOLD {
            if let Some(term) = st.log.term_at(st.applied_index) {
                st.log.compact_to(st.applied_index, term);
            }
        }
    }

    fn require_leader(st: &Replica) -> Result<()> {
        if st.election.is_leader() {
            Ok(())
        } else {
            Err(KeraError::NotLeader {
                hint: st.election.leader_hint(),
                term: st.election.term(),
            })
        }
    }

    fn op_deadline(&self, ctx: &RequestContext) -> Instant {
        Instant::now() + ctx.remaining().map_or(COMMIT_TIMEOUT, |r| r.min(COMMIT_TIMEOUT))
    }

    fn round_timeout(&self) -> Duration {
        (self.cfg.heartbeat_interval * 4).max(Duration::from_millis(50))
    }

    /// Takes the ops this replica can answer now: once it no longer
    /// leads, every one (refused — a record it appended may yet be
    /// overwritten); while it leads, those whose record has committed.
    fn settle(st: &mut Replica) -> Vec<(Op, Result<()>)> {
        let (leading, commit) = (st.election.is_leader(), st.commit_index);
        let ops: Vec<Op> =
            st.ops.extract_if(|_, op| !leading || op.index <= commit).map(|(_, op)| op).collect();
        ops.into_iter().map(|op| (op, Self::require_leader(st))).collect()
    }

    /// Releases the lock, then answers what it settled.
    fn unlock(&self, mut st: MutexGuard<'_, Replica>) {
        let settled = Self::settle(&mut st);
        drop(st);
        self.answer(settled);
    }

    /// A committed op tells its brokers, and the last push to end
    /// answers it; a refused one is answered at once.
    fn answer(&self, settled: Vec<(Op, Result<()>)>) {
        for (op, verdict) in settled {
            match verdict.and_then(|()| self.client()) {
                Ok(client) => {
                    // A committed metadata entry is control-plane progress
                    // (the stall watchdog watches this heartbeat).
                    self.bump_progress();
                    client.call_all(op.pushes, HOST_TIMEOUT, op.reply, op.ok);
                }
                Err(e) => op.reply.send(Err(e)),
            }
        }
    }

    /// An op's deadline passed with its record uncommitted.
    fn expire(&self, key: (NodeId, u64)) {
        let op = self.replica.lock().ops.remove(&key);
        if let Some(op) = op {
            op.reply.send(Err(KeraError::Timeout { op: "metadata log commit" }));
        }
    }

    // ---- the clock: heartbeats, timeouts, campaigns ---------------------

    /// Arms the protocol clock for `due`, superseding any earlier arming.
    fn arm(&self, st: &mut Replica, due: Instant) {
        st.clock += 1;
        let (me, clock) = (self.me.clone(), st.clock);
        if let Some(client) = self.client.get() {
            client.timer(due, move || {
                if let Some(svc) = me.upgrade() {
                    svc.tick(clock);
                }
            });
        }
    }

    /// The clock fired: a leader heartbeats, or abdicates once its
    /// quorum has been silent too long; a follower past its election
    /// deadline campaigns. Either way the clock is re-armed.
    fn tick(&self, clock: u64) {
        let now = Instant::now();
        let mut st = self.replica.lock();
        if st.clock != clock {
            return;
        }
        if st.election.is_leader() {
            if let Some(since) = st.leader_since {
                self.set_tenure_ms(now.duration_since(since).as_millis() as i64);
            }
            if now.duration_since(st.last_quorum_ack) <= self.cfg.election_timeout_max {
                self.arm(&mut st, now + self.cfg.heartbeat_interval);
                return self.replicate(st);
            }
            // Lost our quorum: stop accepting writes rather than serving
            // a possibly-partitioned minority.
            st.election.abdicate();
            self.note_stepdown(&mut st);
            st.last_leader_contact = now;
        }
        let mut campaign = None;
        if now >= st.last_leader_contact + st.election_timeout {
            self.election_event(Stage::ElectionTimeout, st.election.term());
            let (li, lt) = (st.log.last_index(), st.log.last_term());
            campaign = Some(st.election.start_election(li, lt));
            st.election_timeout = draw_timeout(&self.cfg, &mut st.rng);
            st.last_leader_contact = now;
        }
        let due = st.last_leader_contact + st.election_timeout;
        self.arm(&mut st, due);
        self.unlock(st);
        if let Some(req) = campaign {
            self.campaign(req);
        }
    }

    /// Broadcasts one vote request; each answer is folded in as it lands.
    fn campaign(&self, req: VoteRequest) {
        self.bump("coord_elections_total");
        self.election_event(Stage::ElectionVote, req.term);
        let Ok(client) = self.client() else { return };
        let vote_timeout = (self.cfg.election_timeout_min / 2).max(Duration::from_millis(20));
        for &peer in self.replicas.iter().filter(|&&r| r != self.node) {
            let me = self.me.clone();
            client.call_detached(peer, OpCode::RequestVote, req.encode(), vote_timeout, move |r| {
                let resp = r.and_then(|b| VoteResponse::decode(&b));
                if let (Some(svc), Ok(resp)) = (me.upgrade(), resp) {
                    svc.on_vote(peer, resp);
                }
            });
        }
    }

    /// Folds one vote in. On winning, asserts authority at once and
    /// re-drives the cluster side effects a deposed leader may have left
    /// half-done; both are idempotent.
    fn on_vote(&self, peer: NodeId, resp: VoteResponse) {
        let now = Instant::now();
        let mut st = self.replica.lock();
        if st.election.observe_term(resp.term) {
            self.note_stepdown(&mut st);
        }
        if !st.election.on_vote_response(peer, &resp) {
            return self.unlock(st);
        }
        st.leader_since = Some(now);
        st.last_quorum_ack = now;
        let floor = st.log.last_index().min(st.commit_index);
        for p in st.election.peers().to_vec() {
            // Optimistically assume peers hold our committed prefix; a
            // rejection lowers this to the real tail.
            st.match_index.insert(p, floor);
        }
        let term = st.election.term();
        self.arm(&mut st, now + self.cfg.heartbeat_interval);
        self.unlock(st);
        self.election_event(Stage::ElectionWon, term);
        if term > 1 {
            self.bump("coord_failovers_total");
        }
        self.ensure_brokers_registered();
        self.repush_all_hosting();
    }

    // ---- replication (leader side) ------------------------------------

    /// One append batch per peer, each carrying everything the peer is
    /// missing (suffix from its match index, or a snapshot plus the tail
    /// when the suffix was compacted away). Computed under the lock;
    /// sent after it drops.
    fn build_round(&self, st: &Replica) -> Vec<(NodeId, MetaAppendRequest)> {
        let term = st.election.term();
        st.election
            .peers()
            .iter()
            .map(|&peer| {
                let from = st
                    .match_index
                    .get(&peer)
                    .copied()
                    .unwrap_or(0)
                    .min(st.log.last_index());
                let (snapshot, prev_index) = if st.log.suffix_from(from).is_some() {
                    (None, from)
                } else {
                    // Peer is behind the compaction horizon: ship the
                    // committed fold and the entries after it.
                    let snap_term = st.log.term_at(st.applied_index).unwrap_or(0);
                    (Some(st.state.snapshot(st.applied_index, snap_term)), st.applied_index)
                };
                let entries = st.log.suffix_from(prev_index).unwrap_or_default();
                let prev_term = st.log.term_at(prev_index).unwrap_or(0);
                let req = MetaAppendRequest {
                    term,
                    leader: self.node,
                    prev_index,
                    prev_term,
                    commit_index: st.commit_index,
                    snapshot,
                    entries,
                };
                (peer, req)
            })
            .collect()
    }

    /// Starts one append round from the leader's log — after committing
    /// what a quorum already holds, which with no peers is all of it —
    /// and releases the lock. Each response is folded in as it lands; a
    /// round that is lost is made good by the next heartbeat.
    fn replicate(&self, mut st: MutexGuard<'_, Replica>) {
        let term = st.election.term();
        let batches = if st.election.is_leader() {
            Self::advance_commit(&mut st);
            self.build_round(&st)
        } else {
            Vec::new()
        };
        let settled = Self::settle(&mut st);
        drop(st);
        self.answer(settled);
        let Ok(client) = self.client() else { return };
        // Acknowledgements of this round, the leader's own included.
        let (acks, timeout) = (Arc::new(AtomicUsize::new(1)), self.round_timeout());
        for (peer, req) in batches {
            let Ok(payload) = req.encode() else { continue };
            let (me, acks) = (self.me.clone(), Arc::clone(&acks));
            client.call_detached(peer, OpCode::MetaAppend, payload, timeout, move |r| {
                let resp = r.and_then(|b| MetaAppendResponse::decode(&b));
                if let (Some(svc), Ok(resp)) = (me.upgrade(), resp) {
                    svc.on_appended(term, peer, resp, &acks);
                }
            });
        }
    }

    /// Folds one append response of a round sent in `term`: the peer's
    /// match index moves, a quorum of the round stamps the leader's
    /// lease, the commit index advances, and a higher term deposes us.
    fn on_appended(&self, term: u64, peer: NodeId, resp: MetaAppendResponse, acks: &AtomicUsize) {
        // Clock read hoisted above the lock (no-time-under-lock): an ack
        // timestamp a hair early only shortens the leader's lease.
        let acked_at = Instant::now();
        let mut st = self.replica.lock();
        if st.election.observe_term(resp.term) {
            self.note_stepdown(&mut st);
        } else if st.election.is_leader() && st.election.term() == term {
            if resp.success {
                let mi = st.match_index.entry(peer).or_insert(0);
                *mi = (*mi).max(resp.match_index);
                if acks.fetch_add(1, Ordering::Relaxed) + 1 == st.election.quorum() {
                    st.last_quorum_ack = acked_at;
                }
                Self::advance_commit(&mut st);
            } else {
                // The follower told us where its log actually ends; the
                // next round resends from there (or ships a snapshot).
                let cap = st.log.last_index();
                st.match_index.insert(peer, resp.match_index.min(cap));
            }
        }
        self.unlock(st);
    }

    fn advance_commit(st: &mut Replica) {
        let mut indices: Vec<u64> = vec![st.log.last_index()];
        indices.extend(st.match_index.values().copied());
        indices.sort_unstable_by(|a, b| b.cmp(a));
        let candidate = indices[st.election.quorum() - 1];
        // Raft commit rule: only entries of the current term commit by
        // counting; prior-term entries commit transitively under them.
        if candidate > st.commit_index && st.log.term_at(candidate) == Some(st.election.term()) {
            st.commit_index = candidate;
            Self::apply_committed(st);
        }
    }

    /// Appends (idempotent) RegisterBroker records for the configured
    /// broker set and starts their round; nobody waits for it. Every new
    /// leader appends at least one, which also serves as the
    /// current-term record that unblocks committing any prior-term tail
    /// (see [`Self::advance_commit`]).
    fn ensure_brokers_registered(&self) {
        let mut st = self.replica.lock();
        let Some(&first) = self.brokers_cfg.first() else { return };
        if !st.election.is_leader() {
            return;
        }
        let view = Self::preview(&st);
        let term = st.election.term();
        let mut missing = self.brokers_cfg.iter().filter(|b| !view.brokers.contains(b)).peekable();
        if missing.peek().is_none() {
            st.log.append(term, MetaOp::RegisterBroker { node: first });
        }
        for &node in missing {
            st.log.append(term, MetaOp::RegisterBroker { node });
        }
        self.replicate(st);
    }

    /// Re-sends HostStream for every committed stream (idempotent on the
    /// brokers): a failover may have interrupted the previous leader
    /// between commit and push. Every push is issued at once and waited on
    /// by nobody — the node's timers retransmit it within `HOST_TIMEOUT`
    /// — and its outcome is ignored, so this returns at once.
    fn repush_all_hosting(&self) {
        let Ok(client) = self.client() else { return };
        let metas: Vec<StreamMetadata> = {
            let st = self.replica.lock();
            if !st.election.is_leader() {
                return;
            }
            st.state.streams.values().cloned().collect()
        };
        for (broker, opcode, req) in metas.iter().flat_map(Self::host_requests) {
            client.call_detached(broker, opcode, req, HOST_TIMEOUT, |_| {});
        }
    }

    // ---- consensus RPC handlers ---------------------------------------

    fn handle_vote(&self, payload: &Bytes) -> Result<Bytes> {
        let req = VoteRequest::decode(payload)?;
        let now = Instant::now();
        let mut st = self.replica.lock();
        let was_leader = st.election.is_leader();
        let (li, lt) = (st.log.last_index(), st.log.last_term());
        let resp = st.election.on_vote_request(&req, li, lt);
        if resp.granted {
            // We promised our vote; grant the candidate a full
            // election window before campaigning ourselves.
            st.last_leader_contact = now;
        }
        if was_leader && !st.election.is_leader() {
            self.note_stepdown(&mut st);
        }
        self.unlock(st);
        self.election_event(Stage::ElectionVote, resp.term);
        Ok(resp.encode())
    }

    fn handle_append(&self, payload: &Bytes) -> Result<Bytes> {
        let req = MetaAppendRequest::decode(payload)?;
        let now = Instant::now();
        let mut st = self.replica.lock();
        let resp = self.append_entries(&mut st, req, now);
        self.unlock(st);
        if resp.success {
            self.bump_progress();
        }
        Ok(resp.encode())
    }

    fn append_entries(
        &self,
        st: &mut Replica,
        req: MetaAppendRequest,
        now: Instant,
    ) -> MetaAppendResponse {
        let was_leader = st.election.is_leader();
        if !st.election.on_leader_contact(req.term, req.leader) {
            return MetaAppendResponse { term: st.election.term(), success: false, match_index: 0 };
        }
        if was_leader && !st.election.is_leader() {
            self.note_stepdown(st);
        }
        st.last_leader_contact = now;

        if let Some(snap) = &req.snapshot {
            if snap.last_index > st.applied_index {
                st.state = MetaState::restore(snap);
                st.log.install_snapshot(snap.last_index, snap.last_term);
                st.applied_index = snap.last_index;
                st.commit_index = st.commit_index.max(snap.last_index);
            }
        }

        let consistent = match st.log.term_at(req.prev_index) {
            Some(t) if t == req.prev_term => true,
            Some(_) => {
                // Our record at prev diverges from the leader's: drop it
                // and everything after (all uncommitted by definition).
                st.log.truncate_from(req.prev_index);
                false
            }
            None => false,
        };
        if !consistent {
            return MetaAppendResponse {
                term: st.election.term(),
                success: false,
                match_index: st.log.last_index().min(req.prev_index.saturating_sub(1)),
            };
        }
        for rec in req.entries {
            match st.log.term_at(rec.index) {
                Some(t) if t == rec.term => continue,
                Some(_) => st.log.truncate_from(rec.index),
                None => {}
            }
            st.log.push(rec);
        }
        st.commit_index = st.commit_index.max(req.commit_index.min(st.log.last_index()));
        Self::apply_committed(st);
        let match_index = st.log.last_index();
        MetaAppendResponse { term: st.election.term(), success: true, match_index }
    }

    fn handle_get_leader(&self) -> Result<Bytes> {
        let st = self.replica.lock();
        let resp = GetLeaderResponse {
            leader: if st.election.is_leader() {
                Some(self.node)
            } else {
                st.election.leader_hint()
            },
            term: st.election.term(),
            is_leader: st.election.is_leader(),
        };
        Ok(resp.encode())
    }

    // ---- client-facing ops (leader only) ------------------------------
    //
    // Each validates against the preview and appends its record under the
    // lock.

    fn create(&self, st: &mut Replica, payload: &Bytes) -> Result<Planned> {
        let req = CreateStreamRequest::decode(payload)?;
        req.config.validate()?;
        Self::require_leader(st)?;
        let view = Self::preview(st);
        if view.streams.contains_key(&req.config.id) {
            return Err(KeraError::StreamExists(req.config.id));
        }
        let alive = view.alive_brokers();
        if view.brokers.is_empty() && !self.brokers_cfg.is_empty() {
            // Term won, `ensure_brokers_registered` not yet run: ask again.
            return Err(KeraError::NotLeader { hint: None, term: st.election.term() });
        }
        if alive.is_empty() {
            return Err(KeraError::NoCapacity("no alive brokers".into()));
        }
        let placements: Vec<StreamletPlacement> = (0..req.config.streamlets)
            .map(|i| StreamletPlacement {
                streamlet: StreamletId(i),
                broker: alive[leader_index(req.config.id, i, alive.len())],
            })
            .collect();
        let metadata = StreamMetadata { config: req.config, placements };
        let term = st.election.term();
        let rec = st.log.append(term, MetaOp::CreateStream { metadata: metadata.clone() });
        Ok((rec.index, Self::host_requests(&metadata).collect(), metadata.encode()))
    }

    /// The HostStream push to each broker owning streamlets of `metadata`.
    fn host_requests(metadata: &StreamMetadata) -> impl Iterator<Item = Push> + '_ {
        let mut per_broker: HashMap<NodeId, Vec<HostAssignment>> = HashMap::new();
        for p in &metadata.placements {
            per_broker.entry(p.broker).or_default().push(HostAssignment {
                streamlet: p.streamlet,
                role: ReplicaRole::Leader,
                leader: p.broker,
            });
        }
        per_broker.into_iter().map(|(broker, assignments)| {
            let req = HostStreamRequest { metadata: metadata.clone(), assignments };
            (broker, OpCode::HostStream, req.encode())
        })
    }

    /// Deletes a stream: commits the removal, then tells every broker
    /// that hosted its streamlets to unhost them (freeing dedicated
    /// virtual logs and their backup segments).
    fn delete(&self, st: &mut Replica, payload: &Bytes) -> Result<Planned> {
        let stream = DeleteStreamRequest::decode(payload)?.stream;
        Self::require_leader(st)?;
        let view = Self::preview(st);
        let metadata = view.streams.get(&stream).ok_or(KeraError::UnknownStream(stream))?;
        let unhost = |b| (b, OpCode::DeleteStream, DeleteStreamRequest { stream }.encode());
        let pushes = metadata.brokers().into_iter().map(unhost).collect();
        let term = st.election.term();
        Ok((st.log.append(term, MetaOp::DeleteStream { stream }).index, pushes, Bytes::new()))
    }

    fn handle_metadata(&self, req: GetMetadataRequest) -> Result<StreamMetadata> {
        let st = self.replica.lock();
        Self::require_leader(&st)?;
        st.state.streams.get(&req.stream).cloned().ok_or(KeraError::UnknownStream(req.stream))
    }

    /// Marks the reported node crashed and reassigns its streamlets to
    /// survivors, whose brokers are told to host them once the record
    /// commits. The reassignment list is computed once by the leader and
    /// carried in the committed record, so every replica applies the
    /// identical decision. Answers the reassignments; the caller
    /// (recovery manager) replays the data from backups afterwards.
    ///
    /// A repeat (`call_leader` re-probes under a fresh request id when an
    /// answer is lost or late) appends nothing: it answers what the node's
    /// `MarkDead` record decided, once that has committed.
    fn crash(&self, st: &mut Replica, payload: &Bytes) -> Result<Planned> {
        let req = ReportCrashRequest::decode(payload)?;
        Self::require_leader(st)?;
        let mut view = Self::preview(st);
        let (index, reassignments) = if view.dead.contains(&req.node) {
            // (The record is gone once compacted into a snapshot — long
            // after a caller could still be repeating itself.)
            st.log
                .entries_after(st.log.base_index())
                .find_map(|rec| match &rec.op {
                    MetaOp::MarkDead { node, reassignments } if *node == req.node => {
                        Some((rec.index, reassignments.clone()))
                    }
                    _ => None,
                })
                .unwrap_or_default()
        } else {
            view.dead.insert(req.node);
            let alive = view.alive_brokers();
            if alive.is_empty() {
                return Err(KeraError::NoCapacity("no alive brokers left".into()));
            }
            // Deterministic order (sorted stream ids, placement order
            // within a stream) so the decided record is reproducible.
            let mut ids: Vec<StreamId> = view.streams.keys().copied().collect();
            ids.sort_unstable();
            let mut reassignments = Vec::new();
            let mut rr = 0usize;
            for id in &ids {
                for p in &view.streams[id].placements {
                    if p.broker == req.node {
                        reassignments.push(Reassignment {
                            stream: *id,
                            streamlet: p.streamlet,
                            new_broker: alive[rr % alive.len()],
                        });
                        rr += 1;
                    }
                }
            }
            let op = MetaOp::MarkDead { node: req.node, reassignments: reassignments.clone() };
            view.apply(&op);
            let term = st.election.term();
            (st.log.append(term, op).index, reassignments)
        };
        // Tell the new owners to host their inherited streamlets.
        let mut touched: Vec<StreamId> = reassignments.iter().map(|r| r.stream).collect();
        touched.sort_unstable();
        touched.dedup();
        let pushes = touched
            .iter()
            .filter_map(|id| view.streams.get(id))
            .flat_map(Self::host_requests)
            .collect();
        Ok((index, pushes, CrashReassignmentResponse { reassignments }.encode()))
    }
}

impl Service for CoordinatorService {
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
        match ctx.opcode {
            OpCode::Ping => Ok(Bytes::new()),
            OpCode::Introspect => self.handle_introspect(&payload),
            OpCode::RequestVote => self.handle_vote(&payload),
            OpCode::MetaAppend => self.handle_append(&payload),
            OpCode::GetLeader => self.handle_get_leader(),
            OpCode::GetMetadata => {
                let req = GetMetadataRequest::decode(&payload)?;
                Ok(self.handle_metadata(req)?.encode())
            }
            other => Err(KeraError::Protocol(format!("coordinator cannot serve {other:?}"))),
        }
    }

    /// CreateStream, DeleteStream and ReportCrash keep their `Reply`:
    /// the op's record is appended and its round started, and the worker
    /// is free. A timer at the op's deadline answers `Timeout` if nothing
    /// else has by then.
    fn serve(&self, ctx: &RequestContext, payload: Bytes, reply: Reply) {
        type Plan = fn(&CoordinatorService, &mut Replica, &Bytes) -> Result<Planned>;
        let plan: Plan = match ctx.opcode {
            OpCode::CreateStream => Self::create,
            OpCode::DeleteStream => Self::delete,
            OpCode::ReportCrash => Self::crash,
            _ => return reply.send(self.handle(ctx, payload)),
        };
        let deadline = self.op_deadline(ctx);
        let mut st = self.replica.lock();
        match plan(self, &mut st, &payload) {
            Ok((index, pushes, ok)) => {
                let (me, key) = (self.me.clone(), (ctx.from, ctx.request_id));
                reply.timer(deadline, move || {
                    if let Some(svc) = me.upgrade() {
                        svc.expire(key);
                    }
                });
                st.ops.insert(key, Op { index, pushes, ok, reply });
                self.replicate(st);
            }
            Err(e) => {
                drop(st);
                reply.send(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::config::StreamConfig;
    use kera_rpc::inmem::InMemNetwork;
    use kera_rpc::node::NodeRuntime;
    use kera_rpc::NullService;

    const T: Duration = Duration::from_secs(5);

    /// A single-replica coordinator on node 0 that has won its term the
    /// way `start` does, and stopped there; `attached` gives it its node's
    /// client (without one it cannot push to brokers). Returns the
    /// runtimes to keep alive and a client node's handle to call it with.
    fn coordinator(
        net: &InMemNetwork,
        brokers: Vec<NodeId>,
        attached: bool,
    ) -> (Arc<CoordinatorService>, Vec<NodeRuntime>, RpcClient) {
        let svc = CoordinatorService::replicated(
            NodeId(0),
            vec![NodeId(0)],
            brokers,
            CoordinatorConfig::default(),
        );
        let rt = NodeRuntime::start(
            Arc::new(net.register(NodeId(0))),
            Arc::clone(&svc) as Arc<dyn Service>,
            1,
        );
        if attached {
            svc.attach_client(rt.client());
        }
        svc.replica.lock().election.start_election(0, 0);
        assert!(svc.is_leader());
        let caller =
            NodeRuntime::start(Arc::new(net.register(NodeId(9))), Arc::new(NullService), 1);
        let client = caller.client();
        (svc, vec![rt, caller], client)
    }

    /// The new-leader window: a replica that has won its term but not yet
    /// run its post-win steps (`ensure_brokers_registered`) previews an
    /// empty broker set. That must read "ask again" — which
    /// `call_leader` does — not the non-retriable "no capacity".
    #[test]
    fn a_leader_without_its_registrations_refuses_create_stream_retriably() {
        let net = InMemNetwork::new();
        let (svc, _rts, client) = coordinator(&net, vec![NodeId(1), NodeId(2)], false);
        let req = CreateStreamRequest { config: StreamConfig::kafka_like(StreamId(1), 2) };
        let err = client.call(NodeId(0), OpCode::CreateStream, req.encode(), T).unwrap_err();
        assert!(matches!(err, KeraError::NotLeader { .. }), "got {err}");

        // Once the registrations are in the log the same request passes
        // validation and commits (and then needs its node's client to
        // push the hosting).
        svc.ensure_brokers_registered();
        let err = client.call(NodeId(0), OpCode::CreateStream, req.encode(), T).unwrap_err();
        assert!(matches!(err, KeraError::Protocol(_)), "got {err}");
        assert_eq!(svc.committed_streams(), 1);
    }

    /// `call_leader` repeats a `ReportCrash` whose answer was lost under a
    /// fresh request id. The repeat must answer what the first run
    /// decided — the recovery manager re-ingests onto exactly those
    /// owners — and decide nothing itself.
    #[test]
    fn a_repeated_crash_report_answers_the_first_decision_and_appends_nothing() {
        /// A broker as the coordinator sees it: accepts `HostStream`.
        struct Hosts;
        impl Service for Hosts {
            fn handle(&self, _ctx: &RequestContext, _payload: Bytes) -> Result<Bytes> {
                Ok(Bytes::new())
            }
        }
        let net = InMemNetwork::new();
        let brokers = vec![NodeId(1), NodeId(2)];
        let _brokers: Vec<NodeRuntime> = brokers
            .iter()
            .map(|&b| NodeRuntime::start(Arc::new(net.register(b)), Arc::new(Hosts), 1))
            .collect();
        let (svc, _rts, client) = coordinator(&net, brokers, true);
        svc.ensure_brokers_registered();

        let create = CreateStreamRequest { config: StreamConfig::kafka_like(StreamId(1), 4) };
        client.call(NodeId(0), OpCode::CreateStream, create.encode(), T).unwrap();

        let records_before = svc.replica.lock().log.last_index();
        let report = || {
            let req = ReportCrashRequest { node: NodeId(1) };
            let reply = client.call(NodeId(0), OpCode::ReportCrash, req.encode(), T).unwrap();
            CrashReassignmentResponse::decode(&reply).unwrap().reassignments
        };
        let (first, repeat) = (report(), report());
        assert!(!first.is_empty() && first.iter().all(|r| r.new_broker == NodeId(2)), "{first:?}");
        assert_eq!(repeat, first);
        assert_eq!(svc.replica.lock().log.last_index(), records_before + 1);
    }
}
