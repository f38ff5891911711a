//! The delivery oracle: what consumers delivered, held to what producers
//! sent (DESIGN §3, invariants 2, 5 and 7).
//!
//! A record's value starts with its *stamp* ([`stamp`]): its sequence
//! number among the records its producer sent to its stream, from 0. The
//! oracle is told what was sent ([`Oracle::expect`]: acknowledged, must
//! arrive; [`Oracle::allow`]: not acknowledged, may arrive) and observes
//! every [`FetchedBatch`] a consumer hands out: each chunk's checksum,
//! seqs strictly increasing per (stream, streamlet, slot, producer), and
//! one bit per record, so a second copy in any slot is a duplicate.
//! [`Oracle::settle`] then requires every expected record and refuses
//! one never sent; [`Oracle::restart`] stands for a crash between two
//! readers: every record seen before it is required again, acknowledged
//! or not (a consumer sees only what is durable).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use kera_common::ids::{ProducerId, StreamId, StreamletId};
use kera_common::KeraError;

use crate::consumer::{Consumer, FetchedBatch};

/// Writes `seq` into `value`'s stamp: its first 8 bytes, little-endian.
pub fn stamp(value: &mut [u8], seq: u64) {
    value[..8].copy_from_slice(&seq.to_le_bytes());
}

/// No run sends this many records of one producer to one stream: a seq
/// at or past it is refused rather than given a bit.
const MAX_SEQ: u64 = 1 << 32;

/// What a [`Violation`] is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A chunk's framing or checksum does not hold (producer and seq 0).
    Corrupt(String),
    /// A value too short to carry a stamp (seq 0).
    Unstamped,
    /// Not above `after`, the seq before it in its slot.
    Reordered { after: u64 },
    /// Delivered before, in this slot or another.
    Duplicate,
    NeverSent,
    /// Expected and not delivered: the first of `missing` such records.
    Lost { missing: u64 },
}

/// A record delivered against the contract, or an expected one missing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub kind: Kind,
    pub stream: StreamId,
    /// The (streamlet, slot) it was delivered in; for a lost record the
    /// first slot whose stride it is on, if one's is known.
    pub at: Option<(StreamletId, u32)>,
    pub producer: ProducerId,
    pub seq: u64,
}

impl From<Violation> for KeraError {
    fn from(v: Violation) -> Self {
        KeraError::Protocol(format!("delivery violated: {v:?}"))
    }
}

/// One bit per seq.
#[derive(Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn contains(&self, seq: u64) -> bool {
        self.0.get((seq / 64) as usize).is_some_and(|w| w >> (seq % 64) & 1 == 1)
    }

    /// Adds `seq`; false if it was there.
    fn insert(&mut self, seq: u64) -> bool {
        let (i, bit) = ((seq / 64) as usize, 1 << (seq % 64));
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        let new = self.0[i] & bit == 0;
        self.0[i] |= bit;
        new
    }

    /// The seqs `op` keeps, word by word: how many, and the first.
    fn zip(&self, other: &Bits, op: impl Fn(u64, u64) -> u64) -> (u64, Option<u64>) {
        let word = |b: &Bits, i| b.0.get(i).copied().unwrap_or(0);
        let (mut count, mut first) = (0, None);
        for i in 0..self.0.len().max(other.0.len()) {
            let w = op(word(self, i), word(other, i));
            if w != 0 {
                first = first.or(Some(i as u64 * 64 + u64::from(w.trailing_zeros())));
                count += u64::from(w.count_ones());
            }
        }
        (count, first)
    }

    fn union(&mut self, other: &Bits) {
        self.0.resize(self.0.len().max(other.0.len()), 0);
        self.0.iter_mut().zip(&other.0).for_each(|(a, b)| *a |= b);
    }
}

/// What one producer sent to one stream, and what of it arrived.
#[derive(Default)]
struct Sends {
    /// Seqs `0..sent` may arrive.
    sent: u64,
    required: Bits,
    seen: Bits,
}

/// One producer's seqs in one slot: the last, and the step between its
/// first two (a partitioner's stride, which a lost record of it is on).
#[derive(Default)]
struct SlotSeqs {
    last: Option<u64>,
    step: u64,
}

/// The checker; see the module docs.
#[derive(Default)]
pub struct Oracle {
    sends: HashMap<(StreamId, ProducerId), Sends>,
    slots: HashMap<(StreamId, StreamletId, u32, ProducerId), SlotSeqs>,
}

impl Oracle {
    /// `producer` sent seqs `0..n` to `stream`, each acknowledged: each
    /// must arrive, once.
    pub fn expect(&mut self, stream: StreamId, producer: ProducerId, n: u64) {
        let sends = self.sends.entry((stream, producer)).or_default();
        (0..n).for_each(|seq| {
            sends.required.insert(seq);
        });
        sends.sent = sends.sent.max(n);
    }

    /// `producer` sent seqs `0..n` to `stream`, not all acknowledged:
    /// each may arrive, once.
    pub fn allow(&mut self, stream: StreamId, producer: ProducerId, n: u64) {
        let sends = self.sends.entry((stream, producer)).or_default();
        sends.sent = sends.sent.max(n);
    }

    /// Checks one batch; returns how many records it held.
    pub fn observe(&mut self, batch: &FetchedBatch) -> Result<u64, Violation> {
        let FetchedBatch { stream, streamlet, slot, .. } = *batch;
        let at = Some((streamlet, slot));
        let mut records = 0;
        for chunk in batch.chunks() {
            let violation = |kind, producer, seq| Violation { kind, stream, at, producer, seq };
            let corrupt = |e: KeraError| violation(Kind::Corrupt(e.to_string()), ProducerId(0), 0);
            let chunk = chunk.and_then(|c| c.verify().map(|()| c)).map_err(corrupt)?;
            let producer = chunk.header().producer;
            let sends = self.sends.entry((stream, producer)).or_default();
            let seqs = self.slots.entry((stream, streamlet, slot, producer)).or_default();
            for rec in chunk.records() {
                let value = rec.map_err(corrupt)?.value();
                let seq = match value.first_chunk::<8>() {
                    Some(&stamp) => u64::from_le_bytes(stamp),
                    None => return Err(violation(Kind::Unstamped, producer, 0)),
                };
                if seq >= MAX_SEQ {
                    return Err(violation(Kind::NeverSent, producer, seq));
                }
                if !sends.seen.insert(seq) {
                    return Err(violation(Kind::Duplicate, producer, seq));
                }
                if let Some(last) = seqs.last {
                    if seq <= last {
                        return Err(violation(Kind::Reordered { after: last }, producer, seq));
                    }
                    if seqs.step == 0 {
                        seqs.step = seq - last;
                    }
                }
                seqs.last = Some(seq);
                records += 1;
            }
        }
        Ok(records)
    }

    /// Every required record has arrived.
    pub fn complete(&self) -> bool {
        self.sends.values().all(|s| s.required.zip(&s.seen, |r, s| r & !s).0 == 0)
    }

    /// Observes what `consumers` deliver until every required record has
    /// arrived or `within` has passed, then settles.
    pub fn drain(&mut self, consumers: &[&Consumer], within: Duration) -> Result<(), Violation> {
        let deadline = Instant::now() + within;
        while !self.complete() && Instant::now() < deadline {
            for consumer in consumers {
                if let Some(batch) = consumer.next_batch(Duration::from_millis(20)) {
                    self.observe(&batch)?;
                }
            }
        }
        self.settle()
    }

    /// Every required record arrived and nothing arrived that was not
    /// sent; the first violation otherwise (stream, then producer order).
    pub fn settle(&self) -> Result<(), Violation> {
        let mut keys: Vec<_> = self.sends.keys().copied().collect();
        keys.sort_unstable();
        for (stream, producer) in keys {
            let Sends { sent, required, seen } = &self.sends[&(stream, producer)];
            let violation = |kind, at, seq| Err(Violation { kind, stream, at, producer, seq });
            if let Some(seq) = (*sent..seen.0.len() as u64 * 64).find(|&s| seen.contains(s)) {
                return violation(Kind::NeverSent, None, seq);
            }
            if let (missing @ 1.., Some(seq)) = required.zip(seen, |r, s| r & !s) {
                let on_stride = self.slots.iter().filter(|((s, _, _, p), seqs)| {
                    let (step, last) = (seqs.step, seqs.last.unwrap_or(0));
                    (*s, *p) == (stream, producer) && step > 0 && seq % step == last % step
                });
                let at = on_stride.map(|((_, streamlet, slot, _), _)| (*streamlet, *slot)).min();
                return violation(Kind::Lost { missing }, at, seq);
            }
        }
        Ok(())
    }

    /// A crash between the readers so far and the next: every record seen
    /// is required again, and the next reader starts each slot afresh.
    pub fn restart(&mut self) {
        for sends in self.sends.values_mut() {
            sends.required.union(&std::mem::take(&mut sends.seen));
        }
        self.slots.clear();
    }

    /// Takes in what a reader of other slots observed; a record both saw
    /// is a duplicate.
    pub fn merge(&mut self, other: Oracle) -> Result<(), Violation> {
        for ((stream, producer), theirs) in other.sends {
            let ours = self.sends.entry((stream, producer)).or_default();
            if let (_, Some(seq)) = ours.seen.zip(&theirs.seen, |a, b| a & b) {
                return Err(Violation { kind: Kind::Duplicate, stream, at: None, producer, seq });
            }
            ours.seen.union(&theirs.seen);
            ours.required.union(&theirs.required);
            ours.sent = ours.sent.max(theirs.sent);
        }
        self.slots.extend(other.slots);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use kera_wire::chunk::ChunkBuilder;
    use kera_wire::record::Record;

    const S: StreamId = StreamId(1);
    const P: ProducerId = ProducerId(3);

    /// One batch of `streamlet`'s slot 0: a chunk per entry of `chunks`,
    /// each holding those seqs.
    fn batch(streamlet: u32, chunks: &[&[u64]]) -> FetchedBatch {
        let mut data = Vec::new();
        for seqs in chunks {
            let mut b = ChunkBuilder::new(4096, P, S, StreamletId(streamlet));
            for &seq in *seqs {
                let mut value = [0u8; 16];
                stamp(&mut value, seq);
                assert!(b.append(&Record::value_only(&value)));
            }
            data.extend_from_slice(&b.seal());
        }
        FetchedBatch { stream: S, streamlet: StreamletId(streamlet), slot: 0, data: Bytes::from(data) }
    }

    fn kind(r: Result<impl Sized, Violation>) -> Kind {
        r.err().expect("a violation").kind
    }

    #[test]
    fn every_expected_record_once_settles() {
        let mut o = Oracle::default();
        o.expect(S, P, 6);
        assert_eq!(o.observe(&batch(0, &[&[0, 2], &[4]])).unwrap(), 3);
        assert!(!o.complete());
        o.observe(&batch(1, &[&[1, 3, 5]])).unwrap();
        assert!(o.complete());
        o.settle().unwrap();
    }

    #[test]
    fn a_lost_record_names_the_slot_whose_stride_it_is_on() {
        let mut o = Oracle::default();
        o.expect(S, P, 8);
        o.observe(&batch(0, &[&[0, 2, 4, 6]])).unwrap();
        o.observe(&batch(1, &[&[1, 3], &[7]])).unwrap();
        let v = o.settle().unwrap_err();
        assert_eq!(v.kind, Kind::Lost { missing: 1 });
        assert_eq!((v.at, v.seq), (Some((StreamletId(1), 0)), 5));
        // Lost at the head of its slot.
        let mut o = Oracle::default();
        o.expect(S, P, 6);
        o.observe(&batch(0, &[&[0, 2, 4]])).unwrap();
        o.observe(&batch(1, &[&[3, 5]])).unwrap();
        assert_eq!(o.settle().unwrap_err().at, Some((StreamletId(1), 0)));
    }

    #[test]
    fn a_repeated_batch_is_a_duplicate_and_swapped_chunks_a_reorder() {
        let mut o = Oracle::default();
        o.observe(&batch(0, &[&[0, 1]])).unwrap();
        assert_eq!(kind(o.observe(&batch(0, &[&[0, 1]]))), Kind::Duplicate);
        let mut o = Oracle::default();
        assert_eq!(kind(o.observe(&batch(0, &[&[2, 3], &[0, 1]]))), Kind::Reordered { after: 3 });
    }

    #[test]
    fn what_was_not_sent_is_refused_and_what_was_allowed_is_not_required() {
        let mut o = Oracle::default();
        o.expect(S, P, 2);
        o.allow(S, P, 4);
        o.observe(&batch(0, &[&[0, 1, 3]])).unwrap();
        o.settle().unwrap();
        o.observe(&batch(0, &[&[4]])).unwrap();
        assert_eq!(kind(o.settle()), Kind::NeverSent);
    }

    #[test]
    fn after_a_restart_what_was_seen_is_required_again() {
        let mut o = Oracle::default();
        o.allow(S, P, 4);
        o.observe(&batch(0, &[&[0, 1, 2]])).unwrap();
        o.restart();
        o.observe(&batch(0, &[&[0, 2]])).unwrap();
        assert_eq!(kind(o.settle()), Kind::Lost { missing: 1 });
        o.observe(&batch(1, &[&[1]])).unwrap();
        assert!(o.complete());
        o.settle().unwrap();
    }

    #[test]
    fn merged_readers_may_not_share_a_record() {
        let (mut a, mut b) = (Oracle::default(), Oracle::default());
        a.observe(&batch(0, &[&[0, 1]])).unwrap();
        b.observe(&batch(1, &[&[2]])).unwrap();
        a.merge(b).unwrap();
        a.expect(S, P, 3);
        a.settle().unwrap();
        let mut c = Oracle::default();
        c.observe(&batch(2, &[&[1]])).unwrap();
        assert_eq!(kind(a.merge(c)), Kind::Duplicate);
    }

    #[test]
    fn a_corrupt_chunk_and_an_unstamped_record_are_refused() {
        let mut bad = batch(0, &[&[0]]);
        let mut data = bad.data.to_vec();
        *data.last_mut().unwrap() ^= 1;
        bad.data = Bytes::from(data);
        assert!(matches!(kind(Oracle::default().observe(&bad)), Kind::Corrupt(_)));
        let mut b = ChunkBuilder::new(4096, P, S, StreamletId(0));
        assert!(b.append(&Record::value_only(&[1, 2, 3])));
        let short = FetchedBatch { stream: S, streamlet: StreamletId(0), slot: 0, data: b.seal() };
        assert_eq!(kind(Oracle::default().observe(&short)), Kind::Unstamped);
    }
}
