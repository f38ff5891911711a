//! The coordinator's leader-election state machine.
//!
//! [`ElectionMachine`] is the *pure* core of the protocol: terms, votes,
//! role transitions and the log-freshness check, with no clocks, RPC or
//! locks. The coordinator service drives it — its clock, one timer on
//! its node, decides *when* to start an election (randomized timeouts
//! drawn from the seeded [`kera_common::rng::SplitMix64`]) and detached
//! calls carry the vote messages over kera-rpc; the machine decides *what* the replica may
//! do. Keeping it pure makes the protocol unit-testable with fully
//! deterministic message interleavings (see the tests below) and keeps
//! kera-lint's no-guards-across-RPC rule trivially satisfiable.
//!
//! The protocol is the Raft election subset (DESIGN.md §10): a replica
//! votes at most once per term, only for candidates whose log is at
//! least as up-to-date as its own, and a candidate needs a strict
//! majority of the replica set. Together these give the invariant the
//! chaos suite asserts: **at most one leader per term**.

use std::collections::HashSet;

use kera_common::ids::NodeId;
use kera_wire::meta::{VoteRequest, VoteResponse};

/// A replica's role in the current term.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Follower,
    Candidate,
    Leader,
}

/// Pure election state for one coordinator replica.
#[derive(Debug)]
pub struct ElectionMachine {
    me: NodeId,
    /// The other replicas (never contains `me`).
    peers: Vec<NodeId>,
    term: u64,
    voted_for: Option<NodeId>,
    role: Role,
    /// Last known leader (the `NotLeader` redirect hint).
    leader: Option<NodeId>,
    /// Votes gathered while a candidate in `term` (includes `me`).
    votes: HashSet<NodeId>,
    /// Every term this replica won, for split-brain auditing: across a
    /// cluster, no term may appear in two replicas' lists.
    won_terms: Vec<u64>,
}

impl ElectionMachine {
    /// `replicas` is the full replica set (including `me`), identically
    /// ordered on every replica.
    pub fn new(me: NodeId, replicas: &[NodeId]) -> Self {
        Self {
            me,
            peers: replicas.iter().copied().filter(|&r| r != me).collect(),
            term: 0,
            voted_for: None,
            role: Role::Follower,
            leader: None,
            votes: HashSet::new(),
            won_terms: Vec::new(),
        }
    }

    pub fn me(&self) -> NodeId {
        self.me
    }

    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    pub fn term(&self) -> u64 {
        self.term
    }

    pub fn role(&self) -> Role {
        self.role
    }

    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Redirect hint for `NotLeader` errors: the leader if known and not
    /// ourselves (we would not be erring if it were us).
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.leader.filter(|&l| l != self.me)
    }

    pub fn won_terms(&self) -> Vec<u64> {
        self.won_terms.clone()
    }

    /// Votes needed to win: a strict majority of the replica set.
    pub fn quorum(&self) -> usize {
        self.peers.len().div_ceil(2) + 1
    }

    /// Starts (or restarts) a candidacy: bumps the term, votes for
    /// ourselves and returns the request to broadcast. A single-replica
    /// cluster wins immediately.
    pub fn start_election(&mut self, last_log_index: u64, last_log_term: u64) -> VoteRequest {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.me);
        self.leader = None;
        self.votes.clear();
        self.votes.insert(self.me);
        if self.votes.len() >= self.quorum() {
            self.become_leader();
        }
        VoteRequest { term: self.term, candidate: self.me, last_log_index, last_log_term }
    }

    /// Answers a vote request given our own log tail. Grants at most one
    /// vote per term, and only to candidates whose log is at least as
    /// up-to-date as ours (term-then-index comparison).
    pub fn on_vote_request(
        &mut self,
        req: &VoteRequest,
        my_last_index: u64,
        my_last_term: u64,
    ) -> VoteResponse {
        if req.term > self.term {
            self.step_down_to(req.term);
        }
        let log_ok = (req.last_log_term, req.last_log_index) >= (my_last_term, my_last_index);
        let granted = req.term == self.term
            && log_ok
            && self.voted_for.is_none_or(|v| v == req.candidate);
        if granted {
            self.voted_for = Some(req.candidate);
            self.role = Role::Follower;
        }
        VoteResponse { term: self.term, granted }
    }

    /// Records a peer's vote. Returns `true` exactly when this response
    /// completes the quorum and we just became leader.
    pub fn on_vote_response(&mut self, from: NodeId, resp: &VoteResponse) -> bool {
        if resp.term > self.term {
            self.step_down_to(resp.term);
            return false;
        }
        if self.role != Role::Candidate || resp.term < self.term || !resp.granted {
            return false;
        }
        self.votes.insert(from);
        if self.votes.len() >= self.quorum() {
            self.become_leader();
            return true;
        }
        false
    }

    /// A leader of `term` contacted us (MetaAppend). Returns `false` —
    /// reject — when the sender's term is stale; otherwise we adopt it
    /// as leader (abandoning any candidacy of the same term).
    pub fn on_leader_contact(&mut self, term: u64, leader: NodeId) -> bool {
        if term < self.term {
            return false;
        }
        if term > self.term {
            self.step_down_to(term);
        }
        self.role = Role::Follower;
        self.leader = Some(leader);
        true
    }

    /// Observes a term carried on any response. Returns `true` when this
    /// deposed us as leader (the caller records a failover).
    pub fn observe_term(&mut self, term: u64) -> bool {
        if term <= self.term {
            return false;
        }
        let was_leader = self.role == Role::Leader;
        self.step_down_to(term);
        was_leader
    }

    /// Voluntary stepdown (leader lost contact with its quorum). Keeps
    /// the term: a failed leader must not inflate terms on its own.
    pub fn abdicate(&mut self) {
        if self.role == Role::Leader {
            self.role = Role::Follower;
            self.leader = None;
        }
    }

    fn become_leader(&mut self) {
        self.role = Role::Leader;
        self.leader = Some(self.me);
        self.won_terms.push(self.term);
    }

    fn step_down_to(&mut self, term: u64) {
        self.term = term;
        self.voted_for = None;
        self.role = Role::Follower;
        self.leader = None;
        self.votes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::rng::SplitMix64;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(3001);
    const C: NodeId = NodeId(3002);

    fn trio() -> [ElectionMachine; 3] {
        let replicas = [A, B, C];
        [
            ElectionMachine::new(A, &replicas),
            ElectionMachine::new(B, &replicas),
            ElectionMachine::new(C, &replicas),
        ]
    }

    #[test]
    fn single_replica_wins_instantly() {
        let mut m = ElectionMachine::new(A, &[A]);
        assert_eq!(m.quorum(), 1);
        m.start_election(0, 0);
        assert!(m.is_leader());
        assert_eq!(m.term(), 1);
        assert_eq!(m.won_terms(), vec![1]);
    }

    #[test]
    fn majority_elects_and_term_bumps() {
        let [mut a, mut b, mut c] = trio();
        let req = a.start_election(5, 2);
        assert_eq!(req.term, 1);
        assert_eq!(a.role(), Role::Candidate);

        let vb = b.on_vote_request(&req, 5, 2);
        assert!(vb.granted);
        assert!(a.on_vote_response(B, &vb), "second vote completes the quorum");
        assert!(a.is_leader());

        // C's vote arrives late: granted but changes nothing.
        let vc = c.on_vote_request(&req, 3, 1);
        assert!(vc.granted);
        assert!(!a.on_vote_response(C, &vc));

        // Followers adopt the leader on first contact.
        assert!(b.on_leader_contact(1, A));
        assert_eq!(b.leader_hint(), Some(A));

        // A second election bumps the term past the first.
        let req2 = b.start_election(5, 2);
        assert_eq!(req2.term, 2);
    }

    #[test]
    fn one_vote_per_term_blocks_double_grant() {
        let [_, mut b, _] = trio();
        let ra = VoteRequest { term: 3, candidate: A, last_log_index: 4, last_log_term: 2 };
        let rc = VoteRequest { term: 3, candidate: C, last_log_index: 4, last_log_term: 2 };
        assert!(b.on_vote_request(&ra, 4, 2).granted);
        assert!(!b.on_vote_request(&rc, 4, 2).granted, "already voted for A in term 3");
        // Re-request from the same candidate (retransmit) is still granted.
        assert!(b.on_vote_request(&ra, 4, 2).granted);
    }

    #[test]
    fn stale_log_candidates_are_rejected() {
        let [_, mut b, _] = trio();
        // Shorter log, same term: reject.
        let r1 = VoteRequest { term: 1, candidate: A, last_log_index: 3, last_log_term: 1 };
        assert!(!b.on_vote_request(&r1, 5, 1).granted);
        // Longer log but older last term: reject (term dominates).
        let r2 = VoteRequest { term: 2, candidate: A, last_log_index: 9, last_log_term: 1 };
        assert!(!b.on_vote_request(&r2, 5, 2).granted);
        // Rejection still adopts the higher term.
        assert_eq!(b.term(), 2);
    }

    #[test]
    fn stale_leader_and_stale_votes_are_ignored() {
        let [mut a, mut b, _] = trio();
        let r4 = VoteRequest { term: 4, candidate: C, last_log_index: 0, last_log_term: 0 };
        b.on_vote_request(&r4, 0, 0);
        assert!(!b.on_leader_contact(3, A), "leader with stale term rejected");

        // A campaigns, but a stray grant from an old term must not count.
        let req = a.start_election(0, 0);
        let stale = VoteResponse { term: req.term - 1, granted: true };
        assert!(!a.on_vote_response(B, &stale));
        assert_eq!(a.role(), Role::Candidate);

        // A higher-term response deposes the candidacy entirely.
        assert!(!a.on_vote_response(B, &VoteResponse { term: 9, granted: false }));
        assert_eq!(a.role(), Role::Follower);
        assert_eq!(a.term(), 9);
    }

    #[test]
    fn split_vote_resolves_next_term() {
        let [mut a, mut b, mut c] = trio();
        // A and B time out simultaneously in term 1; C votes for A first.
        let ra = a.start_election(0, 0);
        let rb = b.start_election(0, 0);
        assert!(c.on_vote_request(&ra, 0, 0).granted);
        assert!(!c.on_vote_request(&rb, 0, 0).granted);
        // A and B each voted for themselves, so neither grants the other.
        assert!(!a.on_vote_request(&rb, 0, 0).granted);
        assert!(!b.on_vote_request(&ra, 0, 0).granted);
        // A reached quorum via C; B stays candidate until A's heartbeat.
        assert!(a.on_vote_response(C, &c.on_vote_request(&ra, 0, 0)));
        assert!(a.is_leader());
        assert!(b.on_leader_contact(a.term(), A));
        assert_eq!(b.role(), Role::Follower);
    }

    #[test]
    fn deposed_leader_steps_down_and_abdication_keeps_term() {
        let mut a = ElectionMachine::new(A, &[A]);
        a.start_election(0, 0);
        assert!(a.is_leader());
        assert!(a.observe_term(7), "higher term deposes the leader");
        assert!(!a.is_leader());
        assert_eq!(a.term(), 7);

        let mut b = ElectionMachine::new(A, &[A]);
        b.start_election(0, 0);
        b.abdicate();
        assert!(!b.is_leader());
        assert_eq!(b.term(), 1, "abdication must not bump the term");
    }

    /// Satellite: a randomized-but-seeded message shuffle. Three replicas
    /// run elections with every delivery order drawn from SplitMix64;
    /// whatever the interleaving, no term is ever won twice.
    #[test]
    fn fuzzed_interleavings_never_double_elect() {
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(0xE1EC_7104 ^ seed);
            let mut nodes = trio();
            // Pending (to, from, request) vote traffic.
            let mut inflight: Vec<(usize, usize, VoteRequest)> = Vec::new();
            let mut grants: Vec<(usize, usize, VoteResponse)> = Vec::new();
            for _ in 0..200 {
                match rng.next_below(3) {
                    0 => {
                        // A random non-leader times out and campaigns.
                        let i = rng.next_below(3) as usize;
                        if nodes[i].role() != Role::Leader {
                            let req = nodes[i].start_election(0, nodes[i].term());
                            for j in 0..3 {
                                if j != i {
                                    inflight.push((j, i, req));
                                }
                            }
                        }
                    }
                    1 if !inflight.is_empty() => {
                        let k = rng.next_below(inflight.len() as u64) as usize;
                        let (to, from, req) = inflight.swap_remove(k);
                        let resp = nodes[to].on_vote_request(&req, 0, req.last_log_term);
                        grants.push((from, to, resp));
                    }
                    _ if !grants.is_empty() => {
                        let k = rng.next_below(grants.len() as u64) as usize;
                        let (to, from, resp) = grants.swap_remove(k);
                        let voter = nodes[from].me();
                        nodes[to].on_vote_response(voter, &resp);
                    }
                    _ => {}
                }
            }
            let mut seen = HashSet::new();
            for n in &nodes {
                for t in n.won_terms() {
                    assert!(seen.insert(t), "seed {seed}: term {t} won twice — split brain");
                }
            }
        }
    }
}
