//! Consumer cursors.
//!
//! A consumer reads a streamlet through `Q` parallel *slots* (one per
//! active-group chain). Group ids are allocated deterministically per slot:
//! the `k`-th group of slot `s` in a streamlet configured with `Q` active
//! groups has id `s + k·Q`, so a cursor only needs the chain index, the
//! segment index within the group, and the byte offset within the segment.
//!
//! Brokers advance cursors across segment and group boundaries and return
//! the updated cursor with each fetch response, so consumers never need to
//! understand broker-side layout beyond this struct.

use kera_common::ids::GroupId;

use crate::codec::wire_struct;

wire_struct! {
    /// Position of a consumer within one slot (active-group chain) of a
    /// streamlet.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
    pub struct SlotCursor {
        /// Index into the slot's chain of groups (0 = first group of the slot).
        pub chain: u32,
        /// Segment index within the group.
        pub segment: u32,
        /// Byte offset within the segment (always a chunk boundary).
        pub offset: u32,
    }
}

impl SlotCursor {
    /// Cursor at the very beginning of a slot.
    pub const START: SlotCursor = SlotCursor { chain: 0, segment: 0, offset: 0 };

    /// The group id this cursor points at, given the slot and `Q`.
    #[inline]
    pub fn group_id(&self, slot: u32, q: u32) -> GroupId {
        GroupId(slot + self.chain * q)
    }

    /// Moves to the next segment of the same group.
    #[inline]
    pub fn next_segment(self) -> SlotCursor {
        SlotCursor { chain: self.chain, segment: self.segment + 1, offset: 0 }
    }

    /// Moves to the first segment of the next group in this slot's chain.
    #[inline]
    pub fn next_group(self) -> SlotCursor {
        SlotCursor { chain: self.chain + 1, segment: 0, offset: 0 }
    }
}

impl std::fmt::Display for SlotCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}/s{}+{}", self.chain, self.segment, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_id_derivation() {
        // Q = 4: slot 1's chain is groups 1, 5, 9, ...
        let q = 4;
        assert_eq!(SlotCursor::START.group_id(1, q), GroupId(1));
        assert_eq!(SlotCursor::START.next_group().group_id(1, q), GroupId(5));
        assert_eq!(
            SlotCursor::START.next_group().next_group().group_id(1, q),
            GroupId(9)
        );
        // Q = 1 degenerates to sequential group ids.
        assert_eq!(SlotCursor { chain: 3, segment: 0, offset: 0 }.group_id(0, 1), GroupId(3));
    }

    #[test]
    fn advancement_resets_lower_fields() {
        let c = SlotCursor { chain: 2, segment: 3, offset: 77 };
        let s = c.next_segment();
        assert_eq!(s, SlotCursor { chain: 2, segment: 4, offset: 0 });
        let g = c.next_group();
        assert_eq!(g, SlotCursor { chain: 3, segment: 0, offset: 0 });
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(SlotCursor { chain: 1, segment: 2, offset: 3 }.to_string(), "c1/s2+3");
    }
}
