//! The passive relay: per-packet interception on the forwarding path.

use std::collections::HashMap;

use storm_iscsi::Cdb;
use storm_net::{App, Cx, FourTuple, Frame, TapVerdict};
use storm_sim::trace::{flow_token, Hop, TraceEvent, TraceHook};
use storm_sim::{SimDuration, SimTime};

use crate::service::{Dir, StorageService};

/// Configuration of a passive tap.
#[derive(Debug, Clone, Copy)]
pub struct PassiveTapConfig {
    /// The iSCSI port identifying storage flows (3260).
    pub iscsi_port: u16,
}

impl Default for PassiveTapConfig {
    fn default() -> Self {
        PassiveTapConfig {
            iscsi_port: storm_iscsi::ISCSI_PORT,
        }
    }
}

/// Context of an in-flight data segment, derived from its PDU header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DataCtx {
    /// Absolute byte offset on the volume of the segment's first byte
    /// (None for non-data segments: login text, sense data…).
    vol_offset: Option<u64>,
}

#[derive(Debug)]
enum TrackState {
    /// Collecting the 48-byte BHS.
    Header,
    /// Consuming `remaining` data bytes then `pad` pad bytes.
    Data {
        remaining: usize,
        pad: usize,
        ctx: DataCtx,
        consumed: usize,
    },
}

/// Incremental per-direction PDU boundary tracker.
///
/// Unlike [`storm_iscsi::PduStream`], this never buffers payload bytes: it
/// walks packet payloads as they stream past (the passive relay cannot
/// hold packets) and reports which byte ranges are data-segment bytes and
/// where they land on the volume.
#[derive(Debug)]
pub struct WireTracker {
    state: TrackState,
    hdr: Vec<u8>,
    pdus: u64,
}

impl Default for WireTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl WireTracker {
    /// Creates a tracker at a PDU boundary.
    pub fn new() -> Self {
        WireTracker {
            state: TrackState::Header,
            hdr: Vec::with_capacity(48),
            pdus: 0,
        }
    }

    /// PDUs whose headers have been parsed.
    pub fn pdus(&self) -> u64 {
        self.pdus
    }

    /// Walks `payload`, returning `(range_in_payload, vol_offset)` for
    /// every data-segment byte run. `lba_of` resolves an itt to the
    /// command's first sector (shared between both directions' trackers).
    pub fn walk(
        &mut self,
        payload: &[u8],
        shared_cmds: &mut HashMap<u32, u64>,
    ) -> Vec<(std::ops::Range<usize>, u64)> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < payload.len() {
            match &mut self.state {
                TrackState::Header => {
                    let need = 48 - self.hdr.len();
                    let take = need.min(payload.len() - pos);
                    self.hdr.extend_from_slice(&payload[pos..pos + take]);
                    pos += take;
                    if self.hdr.len() == 48 {
                        self.pdus += 1;
                        let dsl = storm_iscsi::data_segment_length(&self.hdr)
                            .expect("hdr is exactly BHS_LEN bytes");
                        let pad = dsl.div_ceil(4) * 4 - dsl;
                        let ctx = self.classify_header(shared_cmds);
                        self.hdr.clear();
                        if dsl > 0 {
                            self.state = TrackState::Data {
                                remaining: dsl,
                                pad,
                                ctx,
                                consumed: 0,
                            };
                        }
                    }
                }
                TrackState::Data {
                    remaining,
                    pad,
                    ctx,
                    consumed,
                } => {
                    if *remaining > 0 {
                        let take = (*remaining).min(payload.len() - pos);
                        if let Some(base) = ctx.vol_offset {
                            out.push((pos..pos + take, base + *consumed as u64));
                        }
                        *consumed += take;
                        *remaining -= take;
                        pos += take;
                    }
                    if *remaining == 0 {
                        let skip = (*pad).min(payload.len() - pos);
                        pos += skip;
                        *pad -= skip;
                        if *pad == 0 {
                            self.state = TrackState::Header;
                        }
                    }
                }
            }
        }
        out
    }

    /// Parses the buffered header, learning itt→lba mappings from SCSI
    /// commands and resolving Data-In/Data-Out volume offsets.
    fn classify_header(&mut self, shared_cmds: &mut HashMap<u32, u64>) -> DataCtx {
        let h = &self.hdr;
        let opcode = h[0] & 0x3F;
        let itt = u32::from_be_bytes(h[16..20].try_into().expect("4 bytes"));
        match opcode {
            0x01 => {
                // SCSI Command: learn the LBA; immediate data starts at
                // offset 0 of the buffer.
                let cdb: [u8; 16] = h[32..48].try_into().expect("16 bytes");
                if let Ok(Cdb::Write { lba, .. } | Cdb::Read { lba, .. }) = Cdb::parse(&cdb) {
                    shared_cmds.insert(itt, lba);
                    return DataCtx {
                        vol_offset: Some(lba * 512),
                    };
                }
                DataCtx { vol_offset: None }
            }
            0x05 | 0x25 => {
                // Data-Out / Data-In: buffer offset at bytes 40..44.
                let buf_off = u32::from_be_bytes(h[40..44].try_into().expect("4 bytes"));
                let vol = shared_cmds.get(&itt).map(|lba| lba * 512 + buf_off as u64);
                // A Data-In with the S bit carries the read's final status.
                if opcode == 0x25 && h[1] & 0x01 != 0 {
                    shared_cmds.remove(&itt);
                }
                DataCtx { vol_offset: vol }
            }
            0x21 => {
                // SCSI Response: the command is complete.
                shared_cmds.remove(&itt);
                DataCtx { vol_offset: None }
            }
            _ => DataCtx { vol_offset: None },
        }
    }
}

/// The passive-relay tap application. Installed on a forwarding
/// middle-box node via [`storm_net::Network::set_tap`]; transforms
/// in-flight data through the service chain's `transform` hooks.
pub struct PassiveTap {
    cfg: PassiveTapConfig,
    services: Vec<Box<dyn StorageService>>,
    trackers: HashMap<(FourTuple, Dir), WireTracker>,
    cmds: HashMap<FourTuple, HashMap<u32, u64>>,
    packets: u64,
    bytes_transformed: u64,
    trace: TraceHook,
}

impl PassiveTap {
    /// Creates a tap running `services` (their `transform` hooks).
    pub fn new(cfg: PassiveTapConfig, services: Vec<Box<dyn StorageService>>) -> Self {
        PassiveTap {
            cfg,
            services,
            trackers: HashMap::new(),
            cmds: HashMap::new(),
            packets: 0,
            bytes_transformed: 0,
            trace: TraceHook::none(),
        }
    }

    /// Arms this tap's trace hook; `mb` identifies the middle-box in
    /// [`TraceEvent::Meta`] labels. Emits one `Meta` for the tap itself and
    /// one per chained service so the analyzer can label service stages.
    pub fn set_trace_hook(&mut self, hook: TraceHook, mb: u32) {
        self.trace = hook;
        if self.trace.is_armed() {
            self.trace.emit(
                SimTime::ZERO,
                TraceEvent::Meta {
                    hop: Hop::Relay,
                    id: mb,
                    name: "passive-tap".to_string(),
                },
            );
            for (idx, svc) in self.services.iter().enumerate() {
                self.trace.emit(
                    SimTime::ZERO,
                    TraceEvent::Meta {
                        hop: Hop::Service,
                        id: idx as u32,
                        name: svc.name().to_string(),
                    },
                );
            }
        }
    }

    /// Packets inspected.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Data-segment bytes transformed.
    pub fn bytes_transformed(&self) -> u64 {
        self.bytes_transformed
    }

    fn flow_key(&self, frame: &Frame) -> Option<(FourTuple, Dir)> {
        if frame.tcp.dst_port == self.cfg.iscsi_port {
            Some((frame.tuple(), Dir::ToTarget))
        } else if frame.tcp.src_port == self.cfg.iscsi_port {
            Some((frame.tuple().reversed(), Dir::ToInitiator))
        } else {
            None
        }
    }
}

impl App for PassiveTap {
    fn on_tap(&mut self, cx: &mut Cx<'_>, frame: &mut Frame) -> TapVerdict {
        let Some((base_tuple, dir)) = self.flow_key(frame) else {
            return TapVerdict::Forward;
        };
        self.packets += 1;
        if frame.tcp.payload.is_empty() {
            return TapVerdict::Forward;
        }
        let payload_len = frame.tcp.payload.len();
        // Per-service per-byte work, attributed to the flow (the net layer
        // separately charges the tap's fixed per-packet cost as Relay).
        if self.trace.is_armed() {
            let req = flow_token(base_tuple.src.port);
            for (idx, svc) in self.services.iter().enumerate() {
                self.trace.emit(
                    cx.now(),
                    TraceEvent::Stage {
                        req,
                        hop: Hop::Service,
                        id: idx as u32,
                        dur: svc.per_byte_cost() * payload_len as u64,
                    },
                );
            }
        }
        let cmds = self.cmds.entry(base_tuple).or_default();
        let tracker = self.trackers.entry((base_tuple, dir)).or_default();
        // The tap copies the packet to user space anyway, so flattening a
        // scatter-gather payload here models the passive approach's cost,
        // not an accident of the simulator.
        let flat = frame.tcp.payload.to_bytes();
        let runs = tracker.walk(&flat, cmds);
        let mut per_byte = SimDuration::ZERO;
        for svc in &self.services {
            per_byte += svc.per_byte_cost();
        }
        if !runs.is_empty() {
            let mut data = flat.to_vec();
            for (range, vol_offset) in &runs {
                for svc in &mut self.services {
                    svc.transform(dir, *vol_offset, &mut data[range.clone()]);
                }
                self.bytes_transformed += range.len() as u64;
            }
            frame.tcp.payload = bytes::Bytes::from(data).into();
        }
        // The whole payload is copied to user space (one syscall per
        // packet); processing cost scales with payload bytes.
        TapVerdict::ForwardAfter(per_byte * payload_len as u64)
    }
}

impl std::fmt::Debug for PassiveTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassiveTap")
            .field("packets", &self.packets)
            .field("services", &self.services.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use storm_iscsi::{DataIn, DataOut, Pdu, ScsiCommand, ScsiStatus};

    fn write_cmd(itt: u32, lba: u64, edtl: u32, imm: &[u8]) -> Vec<u8> {
        Pdu::ScsiCommand(ScsiCommand {
            immediate: false,
            final_pdu: true,
            read: false,
            write: true,
            lun: 0,
            itt,
            edtl,
            cmd_sn: 1,
            exp_stat_sn: 1,
            cdb: Cdb::Write {
                lba,
                sectors: edtl / 512,
            }
            .to_bytes(),
            data: Bytes::copy_from_slice(imm),
        })
        .encode()
    }

    #[test]
    fn tracker_locates_immediate_data() {
        let mut t = WireTracker::new();
        let mut cmds = HashMap::new();
        let wire = write_cmd(1, 100, 1024, &[0xAA; 1024]);
        let runs = t.walk(&wire, &mut cmds);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, 48..48 + 1024);
        assert_eq!(runs[0].1, 100 * 512);
        assert_eq!(cmds.get(&1), Some(&100));
        assert_eq!(t.pdus(), 1);
    }

    #[test]
    fn tracker_handles_fragmentation_across_packets() {
        let mut t = WireTracker::new();
        let mut cmds = HashMap::new();
        let wire = write_cmd(2, 8, 2048, &[0xBB; 2048]);
        // Feed in 100-byte fragments; collect (vol_offset, len) runs.
        let mut runs = Vec::new();
        for chunk in wire.chunks(100) {
            for (r, off) in t.walk(chunk, &mut cmds) {
                runs.push((off, r.len()));
            }
        }
        let total: usize = runs.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 2048);
        // Offsets are continuous from lba*512.
        assert_eq!(runs[0].0, 8 * 512);
        let mut expect = 8 * 512;
        for (off, len) in runs {
            assert_eq!(off, expect);
            expect += len as u64;
        }
    }

    #[test]
    fn tracker_resolves_data_out_by_itt() {
        let mut t = WireTracker::new();
        let mut cmds = HashMap::new();
        // Command with no immediate data...
        let wire = write_cmd(3, 50, 4096, &[]);
        assert!(t.walk(&wire, &mut cmds).is_empty());
        // ...followed by a Data-Out at buffer offset 1024.
        let dout = Pdu::DataOut(DataOut {
            final_pdu: true,
            lun: 0,
            itt: 3,
            ttt: 9,
            exp_stat_sn: 1,
            data_sn: 0,
            buffer_offset: 1024,
            data: Bytes::from(vec![0xCC; 512]),
        })
        .encode();
        let runs = t.walk(&dout, &mut cmds);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].1, 50 * 512 + 1024);
    }

    #[test]
    fn read_status_data_in_retires_its_command() {
        let (mut tx, mut rx) = (WireTracker::new(), WireTracker::new());
        let mut cmds = HashMap::new();
        let read = Pdu::ScsiCommand(ScsiCommand {
            immediate: false,
            final_pdu: true,
            read: true,
            write: false,
            lun: 0,
            itt: 4,
            edtl: 1024,
            cmd_sn: 1,
            exp_stat_sn: 1,
            cdb: Cdb::Read {
                lba: 70,
                sectors: 2,
            }
            .to_bytes(),
            data: Bytes::new(),
        })
        .encode();
        assert!(tx.walk(&read, &mut cmds).is_empty());
        let data_in = |final_pdu: bool, buffer_offset: u32| {
            Pdu::DataIn(DataIn {
                final_pdu,
                status_present: final_pdu,
                status: ScsiStatus::Good,
                lun: 0,
                itt: 4,
                ttt: 0xFFFF_FFFF,
                stat_sn: 1,
                exp_cmd_sn: 2,
                max_cmd_sn: 66,
                data_sn: 0,
                buffer_offset,
                residual: 0,
                data: Bytes::from(vec![0xDD; 512]),
            })
            .encode()
        };
        // A non-final segment leaves the command open...
        let runs = rx.walk(&data_in(false, 0), &mut cmds);
        assert_eq!(runs[0].1, 70 * 512);
        assert_eq!(cmds.len(), 1);
        // ...and the final one, carrying status, still resolves its
        // offset, then retires the command.
        let runs = rx.walk(&data_in(true, 512), &mut cmds);
        assert_eq!(runs[0].1, 70 * 512 + 512);
        assert!(cmds.is_empty(), "reads must not leak entries: {cmds:?}");
    }

    #[test]
    fn non_data_pdus_produce_no_runs() {
        let mut t = WireTracker::new();
        let mut cmds = HashMap::new();
        let nop = Pdu::NopOut(storm_iscsi::NopOut {
            itt: 5,
            ttt: 0xFFFF_FFFF,
            cmd_sn: 1,
            exp_stat_sn: 1,
            data: Bytes::from_static(b"ping"),
        })
        .encode();
        // NOP payload is a data segment but has no volume offset.
        assert!(t.walk(&nop, &mut cmds).is_empty());
        assert_eq!(t.pdus(), 1);
    }
}
