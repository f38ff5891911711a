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
//! from the election machine ([`crate::election`]): a ticker thread per
//! replica runs heartbeats while leader and randomized election
//! timeouts while follower. Client-facing ops on a non-leader fail with
//! [`KeraError::NotLeader`] carrying a redirect hint;
//! `RpcClient::call_leader` follows it.
//!
//! Lock discipline: the single `coord.replica` mutex guards all
//! replication state and is **never** held across an RPC — every
//! handler and every ticker action computes its outbound batch under
//! the lock, drops it, performs the calls, then re-locks to fold the
//! responses in.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_common::config::CoordinatorConfig;
use kera_common::ids::{NodeId, StreamId, StreamletId};
use kera_common::rng::SplitMix64;
use kera_common::{KeraError, Result};
use kera_obs::trace::Stage;
use kera_obs::NodeObs;
use kera_rpc::fabric::leader_index;
use kera_rpc::{PendingCall, RequestContext, RpcClient, Service};
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    CrashReassignmentResponse, CreateStreamRequest, DeleteStreamRequest, GetMetadataRequest,
    HostAssignment, HostStreamRequest, Reassignment, ReplicaRole, ReportCrashRequest,
    StreamMetadata, StreamletPlacement,
};
use kera_wire::meta::{
    GetLeaderResponse, MetaAppendRequest, MetaAppendResponse, MetaOp, VoteRequest, VoteResponse,
};
use parking_lot::Mutex;

use crate::election::ElectionMachine;
use crate::metalog::{MetaLog, MetaState};

const HOST_TIMEOUT: Duration = Duration::from_secs(5);
/// Commit budget for one metadata op when the caller sent no deadline.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(5);

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
    shutdown: AtomicBool,
    ticker: Mutex<Option<JoinHandle<()>>>,
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
        Arc::new(Self {
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
            }),
            replicas,
            cfg,
            client: OnceLock::new(),
            shutdown: AtomicBool::new(false),
            ticker: Mutex::named("coord.ticker", None),
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

    /// Starts this replica's protocol clock. A single-replica
    /// configuration elects itself instantly and needs no thread; a
    /// multi-replica one spawns the heartbeat/election ticker.
    pub fn start_ticker(self: &Arc<Self>) {
        if self.replicas.len() == 1 {
            {
                let now = Instant::now();
                let mut st = self.replica.lock();
                if !st.election.is_leader() {
                    let (li, lt) = (st.log.last_index(), st.log.last_term());
                    st.election.start_election(li, lt);
                    st.leader_since = Some(now);
                }
            }
            let _ = self.ensure_brokers_registered();
            return;
        }
        let svc = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("coord-tick-{}", self.node.raw()))
            .spawn(move || svc.tick_loop());
        if let Ok(h) = handle {
            *self.ticker.lock() = Some(h);
        }
    }

    /// Stops the ticker (idempotent).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let handle = self.ticker.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
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

    fn apply_committed(st: &mut Replica) {
        while st.applied_index < st.commit_index {
            let next = st.applied_index + 1;
            let Some(rec) = st.log.get(next) else { break };
            let op = rec.op.clone();
            st.state.apply(&op);
            st.applied_index = next;
        }
    }

    fn maybe_compact(&self, st: &mut Replica) {
        if st.applied_index.saturating_sub(st.log.base_index()) >= SNAPSHOT_THRESHOLD {
            if let Some(term) = st.log.term_at(st.applied_index) {
                st.log.compact_to(st.applied_index, term);
            }
        }
    }

    fn require_leader(&self, st: &Replica) -> Result<()> {
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

    /// Sends one append round and folds the responses in: match indices
    /// move forward, the commit index advances over quorum-replicated
    /// current-term entries, and a higher observed term deposes us.
    fn run_append_round(&self, batches: Vec<(NodeId, MetaAppendRequest)>) -> Result<()> {
        let client = self.client()?;
        let round_timeout = self.round_timeout();
        let mut calls: Vec<(NodeId, PendingCall)> = Vec::with_capacity(batches.len());
        for (peer, req) in batches {
            let payload = req.encode()?;
            calls.push((peer, client.call_async(peer, OpCode::MetaAppend, payload, round_timeout)));
        }
        let round_deadline = Instant::now() + round_timeout;
        let mut responses = Vec::new();
        for (peer, call) in calls {
            let left = round_deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            if let Ok(bytes) = call.wait(left) {
                if let Ok(resp) = MetaAppendResponse::decode(&bytes) {
                    responses.push((peer, resp));
                }
            }
        }

        // Clock read hoisted above the lock (no-time-under-lock): an
        // ack timestamp a hair early only shortens the leader's lease.
        let acked_at = Instant::now();
        let mut st = self.replica.lock();
        let mut successes = 0usize;
        for (peer, resp) in responses {
            if st.election.observe_term(resp.term) {
                self.note_stepdown(&mut st);
                return Err(KeraError::NotLeader {
                    hint: st.election.leader_hint(),
                    term: st.election.term(),
                });
            }
            if !st.election.is_leader() {
                break;
            }
            if resp.success {
                successes += 1;
                let mi = st.match_index.entry(peer).or_insert(0);
                *mi = (*mi).max(resp.match_index);
            } else {
                // The follower told us where its log actually ends; the
                // next round resends from there (or ships a snapshot).
                let cap = st.log.last_index();
                st.match_index.insert(peer, resp.match_index.min(cap));
            }
        }
        if st.election.is_leader() {
            if successes + 1 >= st.election.quorum() {
                st.last_quorum_ack = acked_at;
            }
            Self::advance_commit(&mut st);
            self.maybe_compact(&mut st);
        }
        Ok(())
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

    /// Drives append rounds until the record at `target` is committed,
    /// the deadline passes, or we are deposed.
    fn replicate_to_commit(&self, target: u64, deadline: Instant) -> Result<()> {
        let r = self.replicate_to_commit_inner(target, deadline);
        if r.is_ok() {
            // A committed metadata entry is control-plane progress (the
            // stall watchdog watches this heartbeat).
            self.bump_progress();
        }
        r
    }

    fn replicate_to_commit_inner(&self, target: u64, deadline: Instant) -> Result<()> {
        loop {
            let batches = {
                let mut st = self.replica.lock();
                self.require_leader(&st)?;
                if self.replicas.len() == 1 {
                    st.commit_index = st.log.last_index();
                    Self::apply_committed(&mut st);
                    self.maybe_compact(&mut st);
                }
                if st.commit_index >= target {
                    return Ok(());
                }
                self.build_round(&st)
            };
            self.run_append_round(batches)?;
            if self.replica.lock().commit_index >= target {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(KeraError::Timeout { op: "metadata log commit" });
            }
            // A dead peer fails sends instantly; don't spin hot on it.
            std::thread::sleep(self.cfg.heartbeat_interval.min(Duration::from_millis(25)));
        }
    }

    // ---- ticker: heartbeats, timeouts, campaigns ----------------------

    fn tick_loop(self: &Arc<Self>) {
        enum Action {
            Idle,
            Heartbeat,
            Campaign(VoteRequest),
        }
        let granularity = (self.cfg.heartbeat_interval / 2).max(Duration::from_millis(1));
        let mut last_heartbeat = Instant::now() - self.cfg.heartbeat_interval;
        loop {
            std::thread::sleep(granularity);
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = Instant::now();
            let action = {
                let mut st = self.replica.lock();
                if st.election.is_leader() {
                    if let Some(since) = st.leader_since {
                        self.set_tenure_ms(now.duration_since(since).as_millis() as i64);
                    }
                    if now.duration_since(st.last_quorum_ack) > self.cfg.election_timeout_max {
                        // Lost our quorum: stop accepting writes rather
                        // than serving a possibly-partitioned minority.
                        st.election.abdicate();
                        self.note_stepdown(&mut st);
                        st.last_leader_contact = now;
                        Action::Idle
                    } else if now.duration_since(last_heartbeat) >= self.cfg.heartbeat_interval {
                        Action::Heartbeat
                    } else {
                        Action::Idle
                    }
                } else if now.duration_since(st.last_leader_contact) >= st.election_timeout {
                    self.election_event(Stage::ElectionTimeout, st.election.term());
                    let (li, lt) = (st.log.last_index(), st.log.last_term());
                    let req = st.election.start_election(li, lt);
                    st.election_timeout = draw_timeout(&self.cfg, &mut st.rng);
                    st.last_leader_contact = now;
                    Action::Campaign(req)
                } else {
                    Action::Idle
                }
            };
            match action {
                Action::Heartbeat => {
                    last_heartbeat = Instant::now();
                    let _ = self.heartbeat_round();
                }
                Action::Campaign(req) => {
                    self.bump("coord_elections_total");
                    self.run_campaign(req);
                }
                Action::Idle => {}
            }
        }
    }

    /// One heartbeat: an append round that doubles as catch-up and
    /// commit-index driver for lagging peers.
    fn heartbeat_round(&self) -> Result<()> {
        let batches = {
            let st = self.replica.lock();
            if !st.election.is_leader() {
                return Ok(());
            }
            self.build_round(&st)
        };
        self.run_append_round(batches)
    }

    /// Broadcasts one vote request and folds the responses. On winning,
    /// asserts authority immediately and re-drives cluster side effects.
    fn run_campaign(&self, req: VoteRequest) {
        let Ok(client) = self.client() else { return };
        let mut span = client.obs().root_span(Stage::ElectionVote);
        span.set_aux(req.term);
        let peers = { self.replica.lock().election.peers().to_vec() };
        let vote_timeout = (self.cfg.election_timeout_min / 2).max(Duration::from_millis(20));
        let calls: Vec<(NodeId, PendingCall)> = peers
            .into_iter()
            .map(|peer| (peer, client.call_async(peer, OpCode::RequestVote, req.encode(), vote_timeout)))
            .collect();
        let vote_deadline = Instant::now() + vote_timeout;
        let mut won = false;
        for (peer, call) in calls {
            let left = vote_deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            let Ok(bytes) = call.wait(left) else { continue };
            let Ok(resp) = VoteResponse::decode(&bytes) else { continue };
            let now = Instant::now();
            let mut st = self.replica.lock();
            if st.election.on_vote_response(peer, &resp) {
                st.leader_since = Some(now);
                st.last_quorum_ack = now;
                let floor = st.log.last_index().min(st.commit_index);
                for p in st.election.peers().to_vec() {
                    // Optimistically assume peers hold our committed
                    // prefix; a rejection lowers this to the real tail.
                    st.match_index.insert(p, floor);
                }
                let term = st.election.term();
                drop(st);
                self.election_event(Stage::ElectionWon, term);
                if term > 1 {
                    self.bump("coord_failovers_total");
                }
                won = true;
                break;
            }
        }
        if won {
            // Assert authority before followers' timers fire again.
            let _ = self.heartbeat_round();
            // Re-drive side effects a deposed leader may have left
            // half-done; both are idempotent.
            let _ = self.ensure_brokers_registered();
            self.repush_all_hosting();
        }
    }

    /// Appends (idempotent) RegisterBroker records for the configured
    /// broker set. Every new leader appends at least one, which also
    /// serves as the current-term record that unblocks committing any
    /// prior-term tail (see [`Self::advance_commit`]).
    fn ensure_brokers_registered(&self) -> Result<()> {
        let target = {
            let mut st = self.replica.lock();
            self.require_leader(&st)?;
            let view = Self::preview(&st);
            let term = st.election.term();
            let mut target = 0u64;
            for &b in &self.brokers_cfg {
                if !view.brokers.contains(&b) {
                    target = st.log.append(term, MetaOp::RegisterBroker { node: b }).index;
                }
            }
            if target == 0 {
                match self.brokers_cfg.first() {
                    Some(&b) => {
                        target = st.log.append(term, MetaOp::RegisterBroker { node: b }).index;
                    }
                    None => return Ok(()),
                }
            }
            target
        };
        self.replicate_to_commit(target, Instant::now() + COMMIT_TIMEOUT)
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
        for meta in &metas {
            for (broker, req) in Self::host_requests(meta, None) {
                client.call_detached(broker, OpCode::HostStream, req, HOST_TIMEOUT, |_| {});
            }
        }
    }

    // ---- consensus RPC handlers ---------------------------------------

    fn handle_vote(&self, payload: &Bytes) -> Result<Bytes> {
        let req = VoteRequest::decode(payload)?;
        let resp = {
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
            resp
        };
        self.election_event(Stage::ElectionVote, resp.term);
        Ok(resp.encode())
    }

    fn handle_append(&self, payload: &Bytes) -> Result<Bytes> {
        let req = MetaAppendRequest::decode(payload)?;
        let now = Instant::now();
        let mut st = self.replica.lock();
        let was_leader = st.election.is_leader();
        if !st.election.on_leader_contact(req.term, req.leader) {
            let resp =
                MetaAppendResponse { term: st.election.term(), success: false, match_index: 0 };
            return Ok(resp.encode());
        }
        if was_leader && !st.election.is_leader() {
            self.note_stepdown(&mut st);
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
            let resp = MetaAppendResponse {
                term: st.election.term(),
                success: false,
                match_index: st.log.last_index().min(req.prev_index.saturating_sub(1)),
            };
            return Ok(resp.encode());
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
        Self::apply_committed(&mut st);
        self.maybe_compact(&mut st);
        let resp = MetaAppendResponse {
            term: st.election.term(),
            success: true,
            match_index: st.log.last_index(),
        };
        drop(st);
        self.bump_progress();
        Ok(resp.encode())
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

    fn handle_create(&self, ctx: &RequestContext, req: CreateStreamRequest) -> Result<StreamMetadata> {
        req.config.validate()?;
        let (index, metadata) = {
            let mut st = self.replica.lock();
            self.require_leader(&st)?;
            let view = Self::preview(&st);
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
            let metadata = StreamMetadata { config: req.config.clone(), placements };
            let term = st.election.term();
            let rec = st.log.append(term, MetaOp::CreateStream { metadata: metadata.clone() });
            (rec.index, metadata)
        };
        self.replicate_to_commit(index, self.op_deadline(ctx))?;
        self.push_hosting(&metadata, None)?;
        Ok(metadata)
    }

    /// Sends HostStream to every broker owning streamlets of `metadata`
    /// and waits for each. With `only` set, restricts to that broker
    /// (recovery path).
    fn push_hosting(&self, metadata: &StreamMetadata, only: Option<NodeId>) -> Result<()> {
        let client = self.client()?;
        let calls: Vec<_> = Self::host_requests(metadata, only)
            .map(|(broker, req)| client.call_async(broker, OpCode::HostStream, req, HOST_TIMEOUT))
            .collect();
        for c in calls {
            c.wait(HOST_TIMEOUT)?;
        }
        Ok(())
    }

    /// The encoded HostStream request of each broker owning streamlets of
    /// `metadata` (of `only`, when set).
    fn host_requests(
        metadata: &StreamMetadata,
        only: Option<NodeId>,
    ) -> impl Iterator<Item = (NodeId, Bytes)> + '_ {
        let mut per_broker: HashMap<NodeId, Vec<HostAssignment>> = HashMap::new();
        for p in &metadata.placements {
            if only.map(|b| b != p.broker).unwrap_or(false) {
                continue;
            }
            per_broker.entry(p.broker).or_default().push(HostAssignment {
                streamlet: p.streamlet,
                role: ReplicaRole::Leader,
                leader: p.broker,
            });
        }
        per_broker.into_iter().map(|(broker, assignments)| {
            (broker, HostStreamRequest { metadata: metadata.clone(), assignments }.encode())
        })
    }

    /// Deletes a stream: commits the removal, then tells every broker
    /// that hosted its streamlets to unhost them (freeing dedicated
    /// virtual logs and their backup segments).
    fn handle_delete(&self, ctx: &RequestContext, stream: StreamId) -> Result<()> {
        let (index, metadata) = {
            let mut st = self.replica.lock();
            self.require_leader(&st)?;
            let view = Self::preview(&st);
            let metadata =
                view.streams.get(&stream).cloned().ok_or(KeraError::UnknownStream(stream))?;
            let term = st.election.term();
            let rec = st.log.append(term, MetaOp::DeleteStream { stream });
            (rec.index, metadata)
        };
        self.replicate_to_commit(index, self.op_deadline(ctx))?;
        let client = self.client()?;
        let payload = DeleteStreamRequest { stream }.encode();
        let calls: Vec<_> = metadata
            .brokers()
            .into_iter()
            // lint: allow(no-hot-copy) — refcount clone of a tiny control frame
            .map(|b| client.call_async(b, OpCode::DeleteStream, payload.clone(), HOST_TIMEOUT))
            .collect();
        for c in calls {
            c.wait(HOST_TIMEOUT)?;
        }
        Ok(())
    }

    fn handle_metadata(&self, req: GetMetadataRequest) -> Result<StreamMetadata> {
        let st = self.replica.lock();
        self.require_leader(&st)?;
        st.state.streams.get(&req.stream).cloned().ok_or(KeraError::UnknownStream(req.stream))
    }

    /// Marks `dead` crashed and reassigns its streamlets to survivors.
    /// The reassignment list is computed once by the leader and carried
    /// in the committed record, so every replica applies the identical
    /// decision. Returns the reassignments; the caller (recovery
    /// manager) replays the data from backups afterwards.
    ///
    /// A repeat (`call_leader` re-probes under a fresh request id when an
    /// answer is lost or late) appends nothing: it answers what the node's
    /// `MarkDead` record decided, once that has committed.
    fn handle_crash(
        &self,
        ctx: &RequestContext,
        req: ReportCrashRequest,
    ) -> Result<CrashReassignmentResponse> {
        let (index, reassignments, metas) = {
            let mut st = self.replica.lock();
            self.require_leader(&st)?;
            let mut view = Self::preview(&st);
            let (index, reassignments) = if view.dead.contains(&req.node) {
                // (The record is gone once compacted into a snapshot —
                // long after a caller could still be repeating itself.)
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
            let mut touched: Vec<StreamId> = reassignments.iter().map(|r| r.stream).collect();
            touched.sort_unstable();
            touched.dedup();
            let metas: Vec<StreamMetadata> =
                touched.iter().filter_map(|id| view.streams.get(id).cloned()).collect();
            (index, reassignments, metas)
        };
        self.replicate_to_commit(index, self.op_deadline(ctx))?;
        // Tell the new owners to host their inherited streamlets.
        for meta in &metas {
            for broker in meta.brokers() {
                self.push_hosting(meta, Some(broker))?;
            }
        }
        Ok(CrashReassignmentResponse { reassignments })
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
            OpCode::CreateStream => {
                let req = CreateStreamRequest::decode(&payload)?;
                Ok(self.handle_create(ctx, req)?.encode())
            }
            OpCode::GetMetadata => {
                let req = GetMetadataRequest::decode(&payload)?;
                Ok(self.handle_metadata(req)?.encode())
            }
            OpCode::ReportCrash => {
                let req = ReportCrashRequest::decode(&payload)?;
                Ok(self.handle_crash(ctx, req)?.encode())
            }
            OpCode::DeleteStream => {
                self.handle_delete(ctx, DeleteStreamRequest::decode(&payload)?.stream)?;
                Ok(Bytes::new())
            }
            other => Err(KeraError::Protocol(format!("coordinator cannot serve {other:?}"))),
        }
    }
}

impl Drop for CoordinatorService {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::config::StreamConfig;

    /// The new-leader window: a replica that has won its term but not yet
    /// run its post-win steps (`ensure_brokers_registered`) previews an
    /// empty broker set. That must read "ask again" — which
    /// `call_leader` does — not the non-retriable "no capacity".
    #[test]
    fn a_leader_without_its_registrations_refuses_create_stream_retriably() {
        let brokers = vec![NodeId(1), NodeId(2)];
        let svc = CoordinatorService::replicated(
            NodeId(0),
            vec![NodeId(0)],
            brokers,
            CoordinatorConfig::default(),
        );
        // Win the term the way `start_ticker` does, and stop there.
        svc.replica.lock().election.start_election(0, 0);
        assert!(svc.is_leader());

        let ctx = RequestContext {
            from: NodeId(9),
            opcode: OpCode::CreateStream,
            request_id: 1,
            deadline: None,
            trace: kera_obs::TraceContext::NONE,
        };
        let req = CreateStreamRequest { config: StreamConfig::kafka_like(StreamId(1), 2) };
        let err = svc.handle(&ctx, req.encode()).unwrap_err();
        assert!(matches!(err, KeraError::NotLeader { .. }), "got {err}");

        // Once the registrations are in the log the same request passes
        // validation (and then needs a runtime to push the hosting).
        svc.ensure_brokers_registered().unwrap();
        let err = svc.handle(&ctx, req.encode()).unwrap_err();
        assert!(matches!(err, KeraError::Protocol(_)), "got {err}");
        assert_eq!(svc.committed_streams(), 1);
    }
    /// `call_leader` repeats a `ReportCrash` whose answer was lost under a
    /// fresh request id. The repeat must answer what the first run
    /// decided — the recovery manager re-ingests onto exactly those
    /// owners — and decide nothing itself.
    #[test]
    fn a_repeated_crash_report_answers_the_first_decision_and_appends_nothing() {
        use kera_rpc::inmem::InMemNetwork;
        use kera_rpc::node::NodeRuntime;

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
        svc.attach_client(rt.client());
        svc.replica.lock().election.start_election(0, 0);
        svc.ensure_brokers_registered().unwrap();

        let ctx = |opcode, request_id| RequestContext {
            from: NodeId(9),
            opcode,
            request_id,
            deadline: None,
            trace: kera_obs::TraceContext::NONE,
        };
        let create = CreateStreamRequest { config: StreamConfig::kafka_like(StreamId(1), 4) };
        svc.handle(&ctx(OpCode::CreateStream, 1), create.encode()).unwrap();

        let records_before = svc.replica.lock().log.last_index();
        let report = |request_id| {
            let req = ReportCrashRequest { node: NodeId(1) };
            let reply = svc.handle(&ctx(OpCode::ReportCrash, request_id), req.encode()).unwrap();
            CrashReassignmentResponse::decode(&reply).unwrap().reassignments
        };
        let (first, repeat) = (report(2), report(3));
        assert!(!first.is_empty() && first.iter().all(|r| r.new_broker == NodeId(2)), "{first:?}");
        assert_eq!(repeat, first);
        assert_eq!(svc.replica.lock().log.last_index(), records_before + 1);
    }
}
