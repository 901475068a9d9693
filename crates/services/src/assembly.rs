//! One write command's data, gathered across its PDUs.

use bytes::{Bytes, BytesMut};

use storm_core::Cmd;

/// A write's data, gathered from its immediate data and Data-Out PDUs
/// and sized by the command, not by the tenant-chosen `edtl`. Segments
/// count only in order from offset 0 and are held as views: a repeated
/// or overlapping segment adds just its new bytes, bytes past the
/// command's length are ignored, and a segment past a hole is ignored
/// rather than zero-filled. The write is copied into one buffer once,
/// when its last byte arrives.
#[derive(Debug)]
pub(crate) struct WriteAssembly {
    segs: Vec<Bytes>,
    received: usize,
    expected: usize,
}

impl WriteAssembly {
    /// An empty assembly for write command `cmd`.
    pub fn new(cmd: &Cmd) -> Self {
        WriteAssembly {
            segs: Vec::new(),
            received: 0,
            expected: cmd.bytes(),
        }
    }

    /// Bytes gathered so far, all in order from offset 0.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Bytes the write carries.
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Takes the segment `data` at byte `offset` of the write; returns
    /// the whole write when this segment completes it.
    pub fn push(&mut self, offset: usize, data: &Bytes) -> Option<Bytes> {
        let end = offset.saturating_add(data.len()).min(self.expected);
        if offset > self.received || end <= self.received {
            return None;
        }
        self.segs
            .push(data.slice(self.received - offset..end - offset));
        self.received = end;
        if self.received < self.expected {
            return None;
        }
        Some(match self.segs.as_slice() {
            [whole] => whole.clone(),
            segs => {
                let mut buf = BytesMut::with_capacity(self.expected);
                for seg in segs {
                    // storm-lint: allow(no-hot-path-copy): the one copy of a
                    // multi-PDU write, made when its last byte arrives.
                    buf.extend_from_slice(seg);
                }
                buf.freeze()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_core::CmdOp;

    fn write_of(sectors: u32) -> WriteAssembly {
        WriteAssembly::new(&Cmd {
            op: CmdOp::Write,
            lba: 10,
            sectors,
            key: 1,
        })
    }

    fn seg(byte: u8, len: usize) -> Bytes {
        Bytes::from(vec![byte; len])
    }

    #[test]
    fn in_order_segments_complete_the_write_exactly_once() {
        let mut asm = write_of(4);
        assert_eq!(asm.push(0, &seg(1, 512)), None);
        assert_eq!(asm.push(512, &seg(2, 1024)), None);
        assert_eq!(asm.received(), 1536);
        let whole = asm
            .push(1536, &seg(3, 512))
            .expect("last segment completes");
        assert_eq!(whole.len(), 2048);
        assert!(whole[..512].iter().all(|b| *b == 1));
        assert!(whole[512..1536].iter().all(|b| *b == 2));
        assert!(whole[1536..].iter().all(|b| *b == 3));
        // A late repeat of the last segment does not complete it again.
        assert_eq!(asm.push(1536, &seg(3, 512)), None);
    }

    #[test]
    fn single_segment_write_is_a_view() {
        let mut asm = write_of(2);
        let data = seg(7, 1024);
        let whole = asm.push(0, &data).expect("complete");
        assert!(whole.same_storage(&data), "no copy for a one-segment write");
    }

    #[test]
    fn repeated_or_overlapping_segment_does_not_complete_early() {
        let mut asm = write_of(4);
        assert_eq!(asm.push(0, &seg(1, 1024)), None);
        // The same Data-Out twice: counted once.
        assert_eq!(asm.push(0, &seg(1, 1024)), None);
        assert_eq!(asm.received(), 1024);
        // An overlap adds only its new bytes.
        assert_eq!(asm.push(512, &seg(2, 1024)), None);
        assert_eq!(asm.received(), 1536);
        // A segment past a hole is ignored, not zero-filled around.
        assert_eq!(asm.push(1792, &seg(9, 256)), None);
        assert_eq!(asm.received(), 1536);
        let whole = asm.push(1536, &seg(3, 512)).expect("hole filled in order");
        assert!(whole[..1024].iter().all(|b| *b == 1));
        assert!(whole[1024..1536].iter().all(|b| *b == 2));
        assert!(whole[1536..].iter().all(|b| *b == 3));
    }

    #[test]
    fn bytes_past_the_command_length_are_ignored() {
        let mut asm = write_of(1);
        assert_eq!(asm.expected(), 512);
        let whole = asm.push(0, &seg(5, 4096)).expect("complete");
        assert_eq!(whole.len(), 512, "clipped to the command's length");
        let mut asm = write_of(1);
        assert_eq!(asm.push(512, &seg(5, 512)), None, "wholly past the end");
        assert_eq!(asm.received(), 0);
    }
}
