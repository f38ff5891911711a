//! The purgatory (Kafka's name for it): requests that wait for an event
//! or a deadline, each kept with its [`Reply`]. Ops are parked and taken
//! out under one lock, `rpc.purgatory`, under which only [`Delayed::ready`]
//! runs, and it reads only atomics; they are answered once it is dropped.
//! One expiry timer is armed for the earliest due.

use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::Mutex;

use crate::node::Reply;

/// A request waiting in a [`Purgatory`].
pub trait Delayed: Sized + Send + 'static {
    /// The service that answers it.
    type Owner: Send + Sync + 'static;

    /// Whether what it waits for has happened: called under the
    /// purgatory's lock, so it reads only atomics.
    fn ready(&self) -> bool;

    /// Sends its answer, with no lock held: `timed_out` when its due came
    /// first.
    fn answer(self, owner: &Self::Owner, reply: Reply, timed_out: bool);
}

/// What waits, and when the expiry timer is armed for, if it is.
struct Parked<D> {
    ops: Vec<(Instant, D, Reply)>,
    armed: Option<Instant>,
}

/// One service's waiting requests.
pub struct Purgatory<D: Delayed> {
    me: Weak<Self>,
    owner: Weak<D::Owner>,
    parked: Mutex<Parked<D>>,
}

impl<D: Delayed> Purgatory<D> {
    pub fn new(owner: Weak<D::Owner>) -> Arc<Self> {
        let parked = Mutex::named("rpc.purgatory", Parked { ops: Vec::new(), armed: None });
        Arc::new_cyclic(|me| Self { me: Weak::clone(me), owner, parked })
    }

    /// Answers every parked op that is ready, then `op`: at once if it is
    /// ready too, else once it is or at `due`. Whether `op` was parked.
    pub fn park(&self, due: Instant, op: D, reply: Reply) -> bool {
        let mut guard = self.parked.lock();
        let Parked { ops, armed } = &mut *guard;
        let mut done: Vec<_> = ops.extract_if(.., |(_, op, _)| op.ready()).collect();
        let ready = op.ready();
        if ready {
            done.push((due, op, reply));
        } else {
            self.arm(armed, due, &reply);
            ops.push((due, op, reply));
        }
        drop(guard);
        self.answer(done.into_iter().map(|(_, op, reply)| (op, reply, false)));
        !ready
    }

    /// Answers every parked op that is ready.
    pub fn settle(&self) {
        let done: Vec<_> = self.parked.lock().ops.extract_if(.., |(_, op, _)| op.ready()).collect();
        self.answer(done.into_iter().map(|(_, op, reply)| (op, reply, false)));
    }

    /// Arms the expiry timer for `due` unless it runs earlier, on the
    /// node `reply` came to.
    fn arm(&self, armed: &mut Option<Instant>, due: Instant, reply: &Reply) {
        let me = Weak::clone(&self.me);
        if armed.is_none_or(|at| due < at)
            && reply.timer(due, move || me.upgrade().into_iter().for_each(|p| p.expire(due)))
        {
            *armed = Some(due);
        }
    }

    /// The expiry timer armed for `at`: answers the ops due, timed out
    /// unless ready, and arms it for the earliest due left.
    fn expire(&self, at: Instant) {
        let now = Instant::now();
        let mut guard = self.parked.lock();
        let Parked { ops, armed } = &mut *guard;
        *armed = armed.filter(|armed| *armed != at);
        let due = ops.extract_if(.., |(due, ..)| *due <= now);
        let due: Vec<_> = due.map(|(_, op, reply)| (op.ready(), op, reply)).collect();
        if let Some((next, _, reply)) = ops.iter().min_by_key(|(due, ..)| *due) {
            self.arm(armed, *next, reply);
        }
        drop(guard);
        self.answer(due.into_iter().map(|(ready, op, reply)| (op, reply, !ready)));
    }

    /// Answers what was taken out, the lock dropped.
    fn answer(&self, done: impl Iterator<Item = (D, Reply, bool)>) {
        let Some(owner) = self.owner.upgrade() else { return };
        done.for_each(|(op, reply, timed_out)| op.answer(&owner, reply, timed_out));
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    use bytes::Bytes;
    use kera_common::ids::NodeId;
    use kera_common::{KeraError, Result};
    use kera_wire::frames::OpCode;

    use super::*;
    use crate::inmem::InMemNetwork;
    use crate::node::{NodeRuntime, NullService, PendingCall, RequestContext, Service};

    const T: Duration = Duration::from_secs(5);

    /// Ready once its flag is set; answered with its id and whether it
    /// timed out.
    struct Op {
        id: u8,
        flag: Arc<AtomicBool>,
    }

    impl Delayed for Op {
        type Owner = Waits;

        fn ready(&self) -> bool {
            self.flag.load(Ordering::SeqCst)
        }

        fn answer(self, _: &Waits, reply: Reply, timed_out: bool) {
            reply.send(Ok(Bytes::from(vec![self.id, u8::from(timed_out)])));
        }
    }

    /// Parks every request `[id, due in 10 ms]` as an op on `flags[id]`,
    /// counting those parked.
    struct Waits {
        purgatory: Arc<Purgatory<Op>>,
        flags: Vec<Arc<AtomicBool>>,
        parked: AtomicUsize,
    }

    impl Service for Waits {
        fn handle(&self, _: &RequestContext, _: Bytes) -> Result<Bytes> {
            Err(KeraError::Protocol("parks only".into()))
        }

        fn serve(&self, _: &RequestContext, payload: Bytes, reply: Reply) {
            let (id, due) = (payload[0], Duration::from_millis(10 * u64::from(payload[1])));
            let op = Op { id, flag: Arc::clone(&self.flags[usize::from(id)]) };
            let parked = self.purgatory.park(Instant::now() + due, op, reply);
            self.parked.fetch_add(usize::from(parked), Ordering::SeqCst);
        }
    }

    /// The parking service on a one-worker node, and a client node.
    fn setup() -> (Arc<Waits>, InMemNetwork, NodeRuntime, NodeRuntime) {
        let net = InMemNetwork::new();
        let waits = Arc::new_cyclic(|me| Waits {
            purgatory: Purgatory::new(Weak::clone(me)),
            flags: (0..8).map(|_| Arc::default()).collect(),
            parked: AtomicUsize::new(0),
        });
        let server = NodeRuntime::start(Arc::new(net.register(NodeId(1))), waits.clone(), 1);
        let client = NodeRuntime::start(Arc::new(net.register(NodeId(2))), Arc::new(NullService), 1);
        (waits, net, server, client)
    }

    fn park(client: &NodeRuntime, id: u8, due_10ms: u8) -> PendingCall {
        client.client().call_async(NodeId(1), OpCode::Ping, Bytes::from(vec![id, due_10ms]), T)
    }

    /// `(id, timed out)` of an answer.
    fn answer(call: PendingCall) -> (u8, bool) {
        let body = call.wait(T).unwrap();
        (body[0], body[1] == 1)
    }

    fn until_parked(waits: &Waits, n: usize) {
        let deadline = Instant::now() + T;
        while waits.parked.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn an_op_ready_at_park_is_answered_at_once_and_never_parked() {
        let (waits, _net, _server, client) = setup();
        waits.flags[0].store(true, Ordering::SeqCst);
        let began = Instant::now();
        assert_eq!(answer(park(&client, 0, 200)), (0, false));
        assert!(began.elapsed() < Duration::from_secs(1), "answered after {:?}", began.elapsed());
        assert_eq!(waits.parked.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn settle_answers_only_the_ops_that_are_ready() {
        let (waits, _net, _server, client) = setup();
        let (one, mut two) = (park(&client, 1, 200), park(&client, 2, 200));
        until_parked(&waits, 2);
        waits.flags[1].store(true, Ordering::SeqCst);
        waits.purgatory.settle();
        // In memory, a reply is delivered on the thread that sends it.
        assert_eq!(answer(one), (1, false));
        assert!(two.poll().is_none(), "an op that is not ready was answered");
        waits.flags[2].store(true, Ordering::SeqCst);
        waits.purgatory.settle();
        assert_eq!(answer(two), (2, false));
    }

    #[test]
    fn an_expired_op_is_answered_timed_out() {
        let (_waits, _net, _server, client) = setup();
        let began = Instant::now();
        assert_eq!(answer(park(&client, 3, 5)), (3, true));
        assert!(began.elapsed() >= Duration::from_millis(50), "answered after {:?}", began.elapsed());
    }

    #[test]
    fn a_park_due_before_the_armed_timer_is_answered_at_its_own_due() {
        let (waits, _net, _server, client) = setup();
        let began = Instant::now();
        let mut late = park(&client, 4, 50);
        until_parked(&waits, 1);
        let early = park(&client, 5, 2);
        assert_eq!(answer(early), (5, true));
        let took = began.elapsed();
        assert!(took < Duration::from_millis(500), "the early op waited for the late one: {took:?}");
        assert!(late.poll().is_none(), "the late op was answered before its due");
        assert_eq!(answer(late), (4, true));
        assert!(began.elapsed() >= Duration::from_millis(500), "answered after {:?}", began.elapsed());
    }
}
