//! The active relay's per-flow wire codec.
//!
//! One relay datapath serves both transports: each flow pair owns a
//! [`WireCodec`], chosen by the first byte the flow carries (nvmeq's
//! frame magic `0xB5` vs an iSCSI opcode), exactly like the storage
//! target's portal sniffing — so one steering rule covers both.
//!
//! - **Decode:** received bytes become [`Ingress`] messages. An iSCSI
//!   PDU is a message with one chain unit; an nvmeq doorbell or
//!   completion frame is a message with one unit per entry; a handshake
//!   frame is a message with no units, which bypasses the chain.
//! - **Encode:** everything the relay sends on a flow — chain forwards,
//!   chain replies and side-context replies/forwards — goes through
//!   [`WireCodec::encode`]: iSCSI PDUs one by one, or one nvmeq frame
//!   per call (the unit mapping lives in the `queue` module).

use bytes::Bytes;

use storm_iscsi::{Pdu, PduStream, PduWire, BHS_LEN, SHARE_THRESHOLD};
use storm_net::SendQueue;
use storm_nvmeq::{FrameWire, MAGIC};

use super::active::RelayCopyStats;
use super::queue::{self, NvqPair};
use crate::service::{Cmd, Dir};

/// A flow's wire protocol together with its reassembly state.
pub(crate) enum WireCodec {
    /// No bytes seen yet.
    Undecided,
    /// Classic one-command-conversation iSCSI: one PDU reassembler per
    /// leg (`s` tenant side, `c` upstream side).
    Iscsi { s: PduStream, c: PduStream },
    /// Multi-queue doorbell/completion frames with per-flow ring state.
    Nvmeq(Box<NvqPair>),
}

/// One unit the service chain processes: the (possibly synthetic) PDU,
/// plus what the verbatim check compares the chain's output against.
pub(crate) struct ChainUnit {
    pub pdu: Pdu,
    /// The input PDU's basic header segment.
    pub in_bhs: [u8; BHS_LEN],
    /// The input PDU's data segment view.
    pub in_data: Bytes,
    /// nvmeq: the unit's received entry image, re-framed as-is when the
    /// chain passes the unit untouched. Empty on iSCSI, where only the
    /// whole message can forward verbatim.
    pub entry_wire: Bytes,
    /// The command a unit heading to the target opens (`key` unset),
    /// read once from the iSCSI CDB or the nvmeq SQE.
    pub cmd: Option<Cmd>,
}

/// One decoded message: the granularity of the relay's fault, QoS and
/// store-and-forward decisions.
pub(crate) struct Ingress {
    /// Wire bytes the message occupies (persistence-buffer and QoS
    /// accounting).
    pub input_bytes: usize,
    /// The request tag a QoS stage is traced under.
    pub tag: u32,
    /// The message's wire bytes as received, in order.
    pub wire: Vec<Bytes>,
    /// Chain units in wire order; empty for handshake frames.
    pub units: Vec<ChainUnit>,
}

/// Iterator over the messages one receive decoded into.
pub(crate) enum Decoded {
    Pdus(std::vec::IntoIter<PduWire>),
    Frames(std::vec::IntoIter<FrameWire>),
}

impl Iterator for Decoded {
    type Item = Ingress;

    fn next(&mut self) -> Option<Ingress> {
        match self {
            Decoded::Pdus(it) => it.next().map(|pw| Ingress {
                input_bytes: pw.pdu.wire_len(),
                tag: pw.pdu.itt(),
                wire: pw.wire,
                units: vec![ChainUnit {
                    cmd: Cmd::of_scsi(&pw.pdu),
                    pdu: pw.pdu,
                    in_bhs: pw.bhs,
                    in_data: pw.data,
                    entry_wire: Bytes::new(),
                }],
            }),
            Decoded::Frames(it) => it.next().map(queue::frame_ingress),
        }
    }
}

/// One outbound unit handed to the encoder.
pub(crate) enum OutUnit {
    /// A PDU to encode in the flow's wire format, with the command it
    /// belongs to (an nvmeq entry takes its opcode from it).
    Pdu(Pdu, Option<Cmd>),
    /// nvmeq: a received unit the chain passed untouched, re-framed from
    /// its entry and data views.
    Verbatim { entry_wire: Bytes, data: Bytes },
}

impl WireCodec {
    /// Reassembles `data` received on the tenant leg (`upstream` false)
    /// or the target leg into messages; `None` on a protocol error.
    pub fn decode(&mut self, upstream: bool, data: Bytes) -> Option<Decoded> {
        if matches!(self, WireCodec::Undecided) {
            *self = if data.first() == Some(&MAGIC) {
                WireCodec::Nvmeq(Box::default())
            } else {
                WireCodec::Iscsi {
                    s: PduStream::new(),
                    c: PduStream::new(),
                }
            };
        }
        match self {
            // Decided above.
            WireCodec::Undecided => None,
            WireCodec::Iscsi { s, c } => {
                let stream = if upstream { c } else { s };
                stream
                    .feed_bytes(data)
                    .ok()
                    .map(|p| Decoded::Pdus(p.into_iter()))
            }
            WireCodec::Nvmeq(nvq) => {
                let stream = if upstream {
                    &mut nvq.c_stream
                } else {
                    &mut nvq.s_stream
                };
                stream
                    .feed_bytes(data)
                    .ok()
                    .map(|f| Decoded::Frames(f.into_iter()))
            }
        }
    }

    /// Encodes `units` travelling in `dir` onto `q` — iSCSI PDUs one by
    /// one, or one nvmeq frame — and returns the command units written.
    pub fn encode(
        &mut self,
        dir: Dir,
        units: impl IntoIterator<Item = OutUnit>,
        q: &mut SendQueue,
        copies: &mut RelayCopyStats,
    ) -> u64 {
        match self {
            WireCodec::Nvmeq(nvq) => queue::encode_frame(dir, units, nvq, q, copies),
            WireCodec::Undecided | WireCodec::Iscsi { .. } => {
                let mut n = 0;
                for u in units {
                    // Verbatim units only exist on framed flows.
                    if let OutUnit::Pdu(pdu, _) = u {
                        queue_pdu(&mut copies.data_bytes_copied, q, &pdu);
                        n += 1;
                    }
                }
                n
            }
        }
    }

    /// Copy counters of this flow's reassemblers.
    pub fn copy_stats(&self) -> RelayCopyStats {
        let (data, header) = match self {
            WireCodec::Undecided => (0, 0),
            WireCodec::Iscsi { s, c } => (
                s.bytes_copied() + c.bytes_copied(),
                s.header_bytes_copied() + c.header_bytes_copied(),
            ),
            WireCodec::Nvmeq(nvq) => (
                nvq.s_stream.bytes_copied() + nvq.c_stream.bytes_copied(),
                nvq.s_stream.header_bytes_copied() + nvq.c_stream.header_bytes_copied(),
            ),
        };
        RelayCopyStats {
            data_bytes_copied: data,
            header_bytes_copied: header,
            verbatim_forwards: 0,
        }
    }
}

/// Encodes a PDU onto a send queue as chunks: the header (and a small
/// data segment, counted) by copy; a large data segment as a shared
/// view of the service's buffer.
fn queue_pdu(encode_bytes_copied: &mut u64, q: &mut SendQueue, pdu: &Pdu) {
    let w = pdu.wire_chunks();
    q.push(&w.header);
    if w.data.len() >= SHARE_THRESHOLD {
        q.push_bytes(w.data);
    } else {
        *encode_bytes_copied += w.data.len() as u64;
        q.push(&w.data);
    }
    q.push(w.pad);
}
