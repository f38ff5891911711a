//! The read-back check: every consumed chunk passes its checksum, and
//! within each (stream, producer) the generator's sequence numbers come
//! back strictly increasing with no gap and no duplicate.
//!
//! Every stream has one streamlet with one slot, so (stream, producer)
//! identifies the (stream, streamlet, slot) order the program promises.

use std::collections::HashMap;

use crate::adapter::{ChunkIter, StreamId};
use crate::loadgen::read_stamp;

#[derive(Default)]
pub struct Checker {
    /// Next expected sequence number per (stream, producer).
    next: HashMap<(u32, u32), u64>,
    /// Records that arrived in order in a chunk with a good checksum.
    pub good: u64,
    /// Records in chunks that failed to parse or verify, plus records out
    /// of order, duplicated, after a gap, or not the generator's.
    pub bad: u64,
    pub chunks: u64,
    /// Bytes of the chunks counted in `chunks`.
    pub bytes: u64,
}

impl Checker {
    /// Checks one fetched batch of `stream` (chunks packed back to back)
    /// and calls `on_record(due_ns)` for every good record.
    pub fn check_batch(&mut self, stream: StreamId, data: &[u8], mut on_record: impl FnMut(u64)) {
        for chunk in ChunkIter::new(data) {
            let Ok(chunk) = chunk else {
                // Framing is gone; what followed in this batch is lost.
                self.bad += 1;
                return;
            };
            self.chunks += 1;
            self.bytes += chunk.len() as u64;
            let header = *chunk.header();
            if chunk.verify().is_err() || header.stream != stream {
                self.bad += u64::from(header.record_count).max(1);
                continue;
            }
            let expected = self
                .next
                .entry((stream.raw(), header.producer.raw()))
                .or_insert(0);
            for record in chunk.records() {
                match record.ok().and_then(|r| read_stamp(r.value())) {
                    Some((seq, due_ns)) if seq == *expected => {
                        *expected += 1;
                        self.good += 1;
                        on_record(due_ns);
                    }
                    Some((seq, _)) => {
                        // Count the break once and resynchronise, so one
                        // lost chunk is not every later record's fault.
                        *expected = seq + 1;
                        self.bad += 1;
                    }
                    None => self.bad += 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{ChunkBuilder, ProducerId, Record, StreamletId};
    use crate::loadgen::RECORD_BYTES;

    fn chunk(stream: u32, producer: u32, seqs: std::ops::Range<u64>) -> Vec<u8> {
        let mut b = ChunkBuilder::new(4096, ProducerId(producer), StreamId(stream), StreamletId(0));
        for seq in seqs {
            let mut value = [0xABu8; RECORD_BYTES];
            value[..8].copy_from_slice(&seq.to_le_bytes());
            value[8..16].copy_from_slice(&(seq * 10).to_le_bytes());
            assert!(b.append(&Record::value_only(&value)));
        }
        b.seal().to_vec()
    }

    #[test]
    fn in_order_batches_pass_and_report_due_times() {
        let mut c = Checker::default();
        let mut batch = chunk(1, 0, 0..5);
        batch.extend(chunk(1, 1, 0..3)); // another producer, own numbering
        batch.extend(chunk(1, 0, 5..9));
        let mut dues = Vec::new();
        c.check_batch(StreamId(1), &batch, |d| dues.push(d));
        assert_eq!((c.good, c.bad, c.chunks), (12, 0, 3));
        assert_eq!(dues[..5], [0, 10, 20, 30, 40]);
    }

    #[test]
    fn a_corrupted_batch_fails() {
        let mut batch = chunk(1, 0, 0..5);
        let last = batch.len() - 1;
        batch[last] ^= 0x01; // payload bit flip: checksum no longer matches
        let mut c = Checker::default();
        c.check_batch(StreamId(1), &batch, |_| {});
        assert_eq!((c.good, c.bad), (0, 5));

        let mut c = Checker::default();
        let mut torn = chunk(1, 0, 0..5);
        torn.truncate(60); // header promises more than is there
        c.check_batch(StreamId(1), &torn, |_| {});
        assert_eq!((c.good, c.bad), (0, 1));
    }

    #[test]
    fn reordered_duplicated_and_missing_chunks_fail() {
        // Reordered: 5..9 before 0..5.
        let mut c = Checker::default();
        let mut batch = chunk(1, 0, 5..9);
        batch.extend(chunk(1, 0, 0..5));
        c.check_batch(StreamId(1), &batch, |_| {});
        assert_eq!(c.bad, 2, "one break going forward, one going back");

        // Duplicate delivery of a chunk.
        let mut c = Checker::default();
        let mut batch = chunk(1, 0, 0..4);
        batch.extend(chunk(1, 0, 0..4));
        c.check_batch(StreamId(1), &batch, |_| {});
        assert_eq!((c.good, c.bad), (7, 1));

        // A gap: chunk 4..8 never arrives.
        let mut c = Checker::default();
        let mut batch = chunk(1, 0, 0..4);
        batch.extend(chunk(1, 0, 8..12));
        c.check_batch(StreamId(1), &batch, |_| {});
        assert_eq!((c.good, c.bad), (7, 1));

        // A chunk of another stream inside this stream's batch.
        let mut c = Checker::default();
        c.check_batch(StreamId(1), &chunk(2, 0, 0..4), |_| {});
        assert_eq!((c.good, c.bad), (0, 4));
    }
}
