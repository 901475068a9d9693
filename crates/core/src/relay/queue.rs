//! nvmeq ↔ PDU bridging: the nvmeq half of the relay's wire codec.
//!
//! The service chain speaks iSCSI [`Pdu`]s; the nvmeq transport speaks
//! doorbell/completion frames carrying batches of fixed-size entries.
//! This module maps each command unit of a frame to a synthetic PDU
//! (SQE write → `ScsiCommand` with in-capsule data, CQE read → phase-
//! collapsed `DataIn`, and so on), so an unmodified service chain —
//! including verbatim-forward detection — processes deeply pipelined
//! multi-queue traffic unit by unit. Outbound units are re-framed under
//! a fresh 16-byte header; entry re-encodes are bounded fixed-size
//! metadata copies (counted), while data segments travel as refcounted
//! views — the zero-copy invariant holds on this transport too.

use std::collections::HashMap;

use bytes::Bytes;

use storm_iscsi::{Cdb, DataIn, Pdu, ScsiCommand, ScsiStatus, SHARE_THRESHOLD};
use storm_net::SendQueue;
use storm_nvmeq::{
    Cqe, FrameHeader, FrameKind, FrameStream, FrameWire, Sqe, SqeOp, UnitEntry, UnitWire, CQE_LEN,
    FRAME_HDR_LEN, SQE_LEN,
};

use super::active::RelayCopyStats;
use super::codec::{ChainUnit, Ingress, OutUnit};
use crate::service::{scsi_status, Cmd, CmdOp, Dir};

/// Per-flow multi-queue relay state: one frame reassembler per leg and
/// the non-final Data-In segments of reads a service is serving, held
/// until the final one closes the CQE.
#[derive(Debug, Default)]
pub(crate) struct NvqPair {
    /// Reassembler for the tenant-VM leg (doorbell frames).
    pub s_stream: FrameStream,
    /// Reassembler for the upstream leg (completion frames).
    pub c_stream: FrameStream,
    held: HashMap<u32, Vec<Bytes>>,
}

/// The nvmeq opcode of a command op; `None` for ops with no entry.
fn sqe_op(op: CmdOp) -> Option<SqeOp> {
    match op {
        CmdOp::Read => Some(SqeOp::Read),
        CmdOp::Write => Some(SqeOp::Write),
        CmdOp::Flush => Some(SqeOp::Flush),
        CmdOp::Other => None,
    }
}

/// One outbound command unit of a rebuilt frame.
#[derive(Debug)]
pub(crate) enum UnitOut {
    /// The chain forwarded the unit untouched: original entry and data
    /// wire views re-framed with zero payload copies.
    Verbatim {
        /// The received entry bytes (64 B SQE / 16 B CQE view).
        entry_wire: Bytes,
        /// The received data segment view.
        data: Bytes,
    },
    /// A (re-)encoded submission.
    Sqe {
        /// The entry.
        sqe: Sqe,
        /// In-capsule data.
        data: Bytes,
    },
    /// A (re-)encoded completion.
    Cqe {
        /// The entry.
        cqe: Cqe,
        /// Leading read-payload segments from earlier non-final Data-In
        /// PDUs (shared views; empty for a single-segment read).
        head: Vec<Bytes>,
        /// Read payload (its last segment).
        data: Bytes,
    },
}

impl UnitOut {
    fn entry_len(&self) -> usize {
        match self {
            UnitOut::Verbatim { entry_wire, .. } => entry_wire.len(),
            UnitOut::Sqe { .. } => SQE_LEN,
            UnitOut::Cqe { .. } => CQE_LEN,
        }
    }

    fn data_len(&self) -> usize {
        match self {
            UnitOut::Verbatim { data, .. } | UnitOut::Sqe { data, .. } => data.len(),
            UnitOut::Cqe { head, data, .. } => {
                head.iter().map(Bytes::len).sum::<usize>() + data.len()
            }
        }
    }
}

/// Decodes one received frame into a relay message: one chain unit per
/// doorbell/completion entry, none for a handshake frame.
pub(crate) fn frame_ingress(fw: FrameWire) -> Ingress {
    let units: Vec<ChainUnit> = fw
        .units
        .into_iter()
        .map(|u| {
            let pdu = unit_to_pdu(&u);
            ChainUnit {
                in_bhs: pdu.encode_bhs(),
                pdu,
                cmd: match &u.entry {
                    UnitEntry::Sqe(sqe) => Some(Cmd {
                        op: match sqe.op {
                            SqeOp::Read => CmdOp::Read,
                            SqeOp::Write => CmdOp::Write,
                            SqeOp::Flush => CmdOp::Flush,
                        },
                        lba: sqe.lba,
                        sectors: sqe.sectors,
                        key: 0,
                    }),
                    UnitEntry::Cqe(_) => None,
                },
                in_data: u.data,
                entry_wire: u.entry_wire,
            }
        })
        .collect();
    Ingress {
        input_bytes: FRAME_HDR_LEN + fw.header.payload_len as usize,
        tag: units.first().map_or(0, |u| u.pdu.itt()),
        wire: fw.wire,
        units,
    }
}

/// Maps one received command unit to the synthetic PDU the service chain
/// processes. Doorbell SQEs become `ScsiCommand`s (writes carry their
/// in-capsule data, the immediate-data idiom); completion CQEs become a
/// phase-collapsed `DataIn` (reads) or a `ScsiResponse` (writes/flushes).
pub(crate) fn unit_to_pdu(unit: &UnitWire) -> Pdu {
    match &unit.entry {
        UnitEntry::Sqe(sqe) => {
            let (read, write, cdb) = match sqe.op {
                SqeOp::Read => (
                    true,
                    false,
                    Cdb::Read {
                        lba: sqe.lba,
                        sectors: sqe.sectors,
                    },
                ),
                SqeOp::Write => (
                    false,
                    true,
                    Cdb::Write {
                        lba: sqe.lba,
                        sectors: sqe.sectors,
                    },
                ),
                SqeOp::Flush => (false, false, Cdb::SynchronizeCache),
            };
            Pdu::ScsiCommand(ScsiCommand {
                immediate: false,
                final_pdu: true,
                read,
                write,
                lun: 0,
                itt: sqe.cid,
                edtl: match sqe.op {
                    SqeOp::Read => sqe.sectors * 512,
                    _ => sqe.data_len,
                },
                cmd_sn: sqe.cid,
                exp_stat_sn: 0,
                cdb: cdb.to_bytes(),
                data: unit.data.clone(),
            })
        }
        UnitEntry::Cqe(cqe) => match cqe.op {
            SqeOp::Read => Pdu::DataIn(DataIn {
                final_pdu: true,
                status_present: true,
                status: cqe.status,
                lun: 0,
                itt: cqe.cid,
                ttt: 0xffff_ffff,
                stat_sn: 0,
                exp_cmd_sn: 0,
                max_cmd_sn: 0,
                data_sn: 0,
                buffer_offset: 0,
                residual: 0,
                data: unit.data.clone(),
            }),
            SqeOp::Write | SqeOp::Flush => scsi_status(cqe.cid, cqe.status),
        },
    }
}

/// Maps a chain-produced PDU of command `cmd` back to a wire unit for
/// the outbound frame; the entry's opcode, lba and length come from the
/// command (a completion of no known command echoes Write). A Data-In
/// that is not final with status is held and returns `None`: the read's
/// closing Data-In or SCSI Response emits one CQE carrying every held
/// segment. PDU shapes with no multi-queue equivalent (R2T, NOPs, text)
/// return `None` and are dropped — no chain service emits them on the
/// relay datapath.
pub(crate) fn pdu_to_unit(
    dir: Dir,
    pdu: &Pdu,
    cmd: Option<Cmd>,
    pair: &mut NvqPair,
) -> Option<UnitOut> {
    match dir {
        Dir::ToTarget => {
            let (Pdu::ScsiCommand(c), Some(cmd)) = (pdu, cmd) else {
                return None;
            };
            // Only a write carries data: in-capsule or immediate.
            let data = c.data.clone();
            let sqe = Sqe {
                op: sqe_op(cmd.op)?,
                cid: c.itt,
                lba: cmd.lba,
                sectors: cmd.sectors,
                data_len: data.len() as u32,
            };
            Some(UnitOut::Sqe { sqe, data })
        }
        Dir::ToInitiator => match pdu {
            Pdu::DataIn(d) if d.final_pdu && d.status_present => Some(completion(
                pair,
                d.itt,
                d.status,
                SqeOp::Read,
                d.data.clone(),
            )),
            Pdu::DataIn(d) => {
                pair.held.entry(d.itt).or_default().push(d.data.clone());
                None
            }
            Pdu::ScsiResponse(r) => {
                let op = cmd.and_then(|c| sqe_op(c.op)).unwrap_or(SqeOp::Write);
                Some(completion(pair, r.itt, r.status, op, Bytes::new()))
            }
            _ => None,
        },
    }
}

/// A completion for `cid` whose payload is the Data-In segments held for
/// it followed by `data`, all as shared views.
fn completion(pair: &mut NvqPair, cid: u32, status: ScsiStatus, op: SqeOp, data: Bytes) -> UnitOut {
    let head = pair.held.remove(&cid).unwrap_or_default();
    let held: usize = head.iter().map(Bytes::len).sum();
    UnitOut::Cqe {
        cqe: Cqe {
            cid,
            status,
            op,
            data_len: (held + data.len()) as u32,
        },
        head,
        data,
    }
}

/// Encodes `units` travelling in `dir` as one frame — a doorbell towards
/// the target, a completion towards the tenant — and returns the units
/// written. Nothing is sent when no unit maps to the wire.
pub(crate) fn encode_frame(
    dir: Dir,
    units: impl IntoIterator<Item = OutUnit>,
    pair: &mut NvqPair,
    q: &mut SendQueue,
    copies: &mut RelayCopyStats,
) -> u64 {
    let units: Vec<UnitOut> = units
        .into_iter()
        .filter_map(|u| match u {
            OutUnit::Pdu(pdu, cmd) => pdu_to_unit(dir, &pdu, cmd, pair),
            OutUnit::Verbatim { entry_wire, data } => Some(UnitOut::Verbatim { entry_wire, data }),
        })
        .collect();
    if units.is_empty() {
        return 0;
    }
    let kind = match dir {
        Dir::ToTarget => FrameKind::Doorbell,
        Dir::ToInitiator => FrameKind::Completion,
    };
    let n = units.len() as u64;
    queue_frame(
        kind,
        units,
        q,
        &mut copies.data_bytes_copied,
        &mut copies.header_bytes_copied,
    );
    n
}

/// Assembles one outbound frame — fresh header, entry block, then data
/// segments in entry order — onto a send queue. Fixed-size metadata
/// (header plus re-encoded entries) is copied and counted into
/// `header_copied`; verbatim entries and all large data segments travel
/// as shared views, small chain-produced segments are batched by copy
/// into `data_copied` exactly like the iSCSI encode path.
pub(crate) fn queue_frame(
    kind: FrameKind,
    units: Vec<UnitOut>,
    q: &mut SendQueue,
    data_copied: &mut u64,
    header_copied: &mut u64,
) {
    let payload_len: usize = units.iter().map(|u| u.entry_len() + u.data_len()).sum();
    let header = FrameHeader {
        kind,
        count: units.len() as u16,
        payload_len: payload_len as u32,
        queue_depth: 0,
    }
    .encode();
    *header_copied += FRAME_HDR_LEN as u64;
    q.push(&header);
    for u in &units {
        match u {
            UnitOut::Verbatim { entry_wire, .. } => q.push_bytes(entry_wire.clone()),
            UnitOut::Sqe { sqe, .. } => {
                *header_copied += SQE_LEN as u64;
                q.push(&sqe.encode());
            }
            UnitOut::Cqe { cqe, .. } => {
                *header_copied += CQE_LEN as u64;
                q.push(&cqe.encode());
            }
        }
    }
    for u in units {
        match u {
            UnitOut::Verbatim { data, .. } => q.push_bytes(data),
            UnitOut::Sqe { data, .. } => push_data(q, data, data_copied),
            UnitOut::Cqe { head, data, .. } => {
                for seg in head {
                    push_data(q, seg, data_copied);
                }
                push_data(q, data, data_copied);
            }
        }
    }
}

/// Queues one chain-produced data segment: shared when large, batched by
/// (counted) copy when small.
fn push_data(q: &mut SendQueue, data: Bytes, data_copied: &mut u64) {
    if data.len() >= SHARE_THRESHOLD {
        q.push_bytes(data);
    } else {
        *data_copied += data.len() as u64;
        q.push(&data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_iscsi::ScsiStatus;

    fn unit(entry: UnitEntry, data: &[u8]) -> UnitWire {
        let entry_wire = match &entry {
            UnitEntry::Sqe(s) => Bytes::copy_from_slice(&s.encode()),
            UnitEntry::Cqe(c) => Bytes::copy_from_slice(&c.encode()),
        };
        UnitWire {
            entry,
            entry_wire,
            data: Bytes::copy_from_slice(data),
        }
    }

    #[test]
    fn sqe_maps_to_scsi_command_and_back() {
        let mut pair = NvqPair::default();
        let payload = vec![0xAB; 4096];
        let sqe = Sqe {
            op: SqeOp::Write,
            cid: 9,
            lba: 64,
            sectors: 8,
            data_len: 4096,
        };
        let u = unit(UnitEntry::Sqe(sqe), &payload);
        let pdu = unit_to_pdu(&u);
        let Pdu::ScsiCommand(ref c) = pdu else {
            panic!("write SQE must map to a SCSI command");
        };
        assert!(c.write && !c.read);
        assert_eq!(c.itt, 9);
        assert_eq!(c.data.len(), 4096);
        assert_eq!(
            Cdb::parse(&c.cdb),
            Ok(Cdb::Write {
                lba: 64,
                sectors: 8
            })
        );
        let cmd = Cmd {
            op: CmdOp::Write,
            lba: 64,
            sectors: 8,
            key: 1,
        };
        let out = pdu_to_unit(Dir::ToTarget, &pdu, Some(cmd), &mut pair).expect("round-trips");
        match out {
            UnitOut::Sqe { sqe: s, data } => {
                assert_eq!(s, sqe);
                assert!(data.same_storage(&u.data), "payload stays a view");
            }
            other => panic!("expected an SQE out, got {other:?}"),
        }
    }

    #[test]
    fn read_cqe_maps_to_data_in_and_back() {
        let mut pair = NvqPair::default();
        let payload = vec![0x5C; 512];
        let cqe = Cqe {
            cid: 3,
            status: ScsiStatus::Good,
            op: SqeOp::Read,
            data_len: 512,
        };
        let u = unit(UnitEntry::Cqe(cqe), &payload);
        let pdu = unit_to_pdu(&u);
        let Pdu::DataIn(ref d) = pdu else {
            panic!("read CQE must map to DataIn");
        };
        assert!(d.status_present && d.final_pdu);
        let out = pdu_to_unit(Dir::ToInitiator, &pdu, None, &mut pair).expect("round-trips");
        match out {
            UnitOut::Cqe { cqe: c, data, .. } => {
                assert_eq!(c, cqe);
                assert!(data.same_storage(&u.data));
            }
            other => panic!("expected a CQE out, got {other:?}"),
        }
    }

    #[test]
    fn flush_completion_takes_opcode_from_its_command() {
        let mut pair = NvqPair::default();
        let flush = Cmd {
            op: CmdOp::Flush,
            lba: 0,
            sectors: 0,
            key: 7,
        };
        let resp = scsi_status(7, ScsiStatus::Good);
        match pdu_to_unit(Dir::ToInitiator, &resp, Some(flush), &mut pair) {
            Some(UnitOut::Cqe { cqe, .. }) => assert_eq!(cqe.op, SqeOp::Flush),
            other => panic!("expected a CQE, got {other:?}"),
        }
        // A completion of no known command falls back to Write.
        match pdu_to_unit(Dir::ToInitiator, &resp, None, &mut pair) {
            Some(UnitOut::Cqe { cqe, .. }) => assert_eq!(cqe.op, SqeOp::Write),
            other => panic!("expected a CQE, got {other:?}"),
        }
    }

    #[test]
    fn data_in_train_leaves_as_one_cqe_of_chained_views() {
        let mut pair = NvqPair::default();
        let payload = Bytes::from(vec![0x3Cu8; 96 * 1024]);
        let seg = |off: usize, end: usize, last: bool| {
            Pdu::DataIn(DataIn {
                final_pdu: last,
                status_present: last,
                status: ScsiStatus::Good,
                lun: 0,
                itt: 4,
                ttt: 0xffff_ffff,
                stat_sn: 0,
                exp_cmd_sn: 0,
                max_cmd_sn: 0,
                data_sn: 0,
                buffer_offset: off as u32,
                residual: 0,
                data: payload.slice(off..end),
            })
        };
        let first = seg(0, 64 * 1024, false);
        assert!(pdu_to_unit(Dir::ToInitiator, &first, None, &mut pair).is_none());
        let last = seg(64 * 1024, payload.len(), true);
        let unit = pdu_to_unit(Dir::ToInitiator, &last, None, &mut pair).expect("closes the read");
        match &unit {
            UnitOut::Cqe { cqe, head, data } => {
                assert_eq!((cqe.cid, cqe.op), (4, SqeOp::Read));
                assert_eq!(cqe.data_len as usize, payload.len());
                assert_eq!(head.len(), 1);
                assert_eq!(head[0].len() + data.len(), payload.len());
            }
            other => panic!("expected a CQE, got {other:?}"),
        }
        let mut q = SendQueue::new();
        let (mut dc, mut hc) = (0u64, 0u64);
        queue_frame(FrameKind::Completion, vec![unit], &mut q, &mut dc, &mut hc);
        assert_eq!(dc, 0, "segments travel as shared views");
        assert_eq!(q.backlog(), FRAME_HDR_LEN + CQE_LEN + payload.len());
    }

    #[test]
    fn queue_frame_reencodes_metadata_only() {
        let mut q = SendQueue::new();
        let (mut dc, mut hc) = (0u64, 0u64);
        let big = Bytes::from(vec![0x77u8; SHARE_THRESHOLD]);
        let units = vec![UnitOut::Sqe {
            sqe: Sqe {
                op: SqeOp::Write,
                cid: 1,
                lba: 0,
                sectors: (SHARE_THRESHOLD / 512) as u32,
                data_len: SHARE_THRESHOLD as u32,
            },
            data: big,
        }];
        queue_frame(FrameKind::Doorbell, units, &mut q, &mut dc, &mut hc);
        assert_eq!(dc, 0, "large data travels as a shared view");
        assert_eq!(hc, (FRAME_HDR_LEN + SQE_LEN) as u64);
        assert_eq!(q.backlog(), FRAME_HDR_LEN + SQE_LEN + SHARE_THRESHOLD);
    }

    #[test]
    fn queue_frame_verbatim_units_copy_nothing_but_the_header() {
        let mut q = SendQueue::new();
        let (mut dc, mut hc) = (0u64, 0u64);
        let sqe = Sqe {
            op: SqeOp::Write,
            cid: 2,
            lba: 8,
            sectors: 1,
            data_len: 512,
        };
        let u = unit(UnitEntry::Sqe(sqe), &[0x11; 512]);
        let units = vec![UnitOut::Verbatim {
            entry_wire: u.entry_wire.clone(),
            data: u.data.clone(),
        }];
        queue_frame(FrameKind::Doorbell, units, &mut q, &mut dc, &mut hc);
        assert_eq!(dc, 0);
        assert_eq!(hc, FRAME_HDR_LEN as u64, "only the fresh frame header");
    }
}
