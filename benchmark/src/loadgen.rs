//! Seeded inputs and the record generator.
//!
//! Everything the program is fed derives from `--seed`: the payload
//! bytes and the order in which streams receive records. The program
//! sees only the generated records. Each 100-byte value starts with the
//! record's per-(producer, stream) sequence number and its due time on
//! the benchmark clock; the read-back check and the age metrics read
//! them back out.

use crate::adapter::{Producer, Result, StreamId};

/// Value size of every record (paper §V-A: 100-byte non-keyed records).
pub const RECORD_BYTES: usize = 100;
/// Encoded size of one such record inside a chunk (12-byte entry header).
pub const ENCODED_RECORD_BYTES: usize = RECORD_BYTES + 12;
const SEQ_AT: usize = 0;
const DUE_AT: usize = 8;
const STAMP_BYTES: usize = 16;

/// SplitMix64: the benchmark's own generator, so inputs do not depend on
/// any code of the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The seeded part of a workload's inputs.
pub struct Inputs {
    /// Payload templates; a record copies one and stamps its head.
    templates: Vec<[u8; RECORD_BYTES]>,
    /// Stream index of the n-th record, cycled.
    stream_order: Vec<u32>,
}

impl Inputs {
    pub fn new(seed: u64, streams: u32) -> Inputs {
        let mut rng = Rng::new(seed);
        let templates = (0..64)
            .map(|_| {
                let mut t = [0u8; RECORD_BYTES];
                for word in t.chunks_mut(8) {
                    let bytes = rng.next().to_le_bytes();
                    word.copy_from_slice(&bytes[..word.len()]);
                }
                t
            })
            .collect();
        let stream_order = (0..1 << 16)
            .map(|_| (rng.next() % u64::from(streams)) as u32)
            .collect();
        Inputs {
            templates,
            stream_order,
        }
    }
}

/// Reads (sequence, due_ns) back out of a record value.
pub fn read_stamp(value: &[u8]) -> Option<(u64, u64)> {
    if value.len() != RECORD_BYTES {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(value[at..at + 8].try_into().expect("8 bytes"));
    Some((word(SEQ_AT), word(DUE_AT)))
}

/// One producer's record source: walks the seeded stream order, numbers
/// records per stream from 0, and sends them.
pub struct Generator<'a> {
    inputs: &'a Inputs,
    producer: &'a Producer,
    streams: &'a [StreamId],
    next_seq: Vec<u64>,
    cursor: usize,
    pub sent: u64,
}

impl<'a> Generator<'a> {
    /// `offset` starts each producer at its own place in the seeded order.
    pub fn new(
        inputs: &'a Inputs,
        producer: &'a Producer,
        streams: &'a [StreamId],
        offset: usize,
    ) -> Self {
        Generator {
            inputs,
            producer,
            streams,
            next_seq: vec![0; streams.len()],
            cursor: offset,
            sent: 0,
        }
    }

    /// Sends the next record, stamped as due at `due_ns`.
    pub fn send(&mut self, due_ns: u64) -> Result<()> {
        let stream =
            self.inputs.stream_order[self.cursor % self.inputs.stream_order.len()] as usize;
        let mut value = self.inputs.templates[self.cursor % self.inputs.templates.len()];
        self.cursor += 1;
        value[SEQ_AT..SEQ_AT + 8].copy_from_slice(&self.next_seq[stream].to_le_bytes());
        value[DUE_AT..STAMP_BYTES].copy_from_slice(&due_ns.to_le_bytes());
        self.producer.send(self.streams[stream], &value)?;
        self.next_seq[stream] += 1;
        self.sent += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::new(7, 16);
        let b = Inputs::new(7, 16);
        let c = Inputs::new(8, 16);
        assert_eq!(a.templates, b.templates);
        assert_eq!(a.stream_order, b.stream_order);
        assert_ne!(a.templates, c.templates);
        assert_ne!(a.stream_order, c.stream_order);
        assert!(a.stream_order.iter().all(|&s| s < 16));
    }

    #[test]
    fn stamp_round_trips_and_rejects_foreign_values() {
        let mut value = [0u8; RECORD_BYTES];
        value[SEQ_AT..SEQ_AT + 8].copy_from_slice(&42u64.to_le_bytes());
        value[DUE_AT..STAMP_BYTES].copy_from_slice(&7_000u64.to_le_bytes());
        assert_eq!(read_stamp(&value), Some((42, 7_000)));
        assert_eq!(read_stamp(&value[..50]), None);
    }
}
