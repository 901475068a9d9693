//! The tenant-facing storage service API.
//!
//! A [`StorageService`] is the tenant's middle-box logic. StorM's relays
//! feed it parsed iSCSI PDUs (active path) or in-flight data-segment bytes
//! (passive path) and execute the actions it emits: forwarding, replying,
//! issuing side I/O to replica volumes, raising alerts. Services are pure
//! state machines: all timing flows through the relay.
//!
//! On the active path each PDU comes with its command: every flow keeps
//! one [`CmdTable`], and [`SvcCtx::cmd`] hands each `on_pdu` call the
//! [`Cmd`] (op, lba, sectors, relay-unique key) its unit belongs to, on
//! either transport. Services key per-command state by [`Cmd::key`],
//! never by the bare itt, and a PDU with no open command is one whose
//! command already finished or failed — the encryption service drops
//! such data rather than forward it in the clear.

use std::collections::HashMap;

use bytes::Bytes;

use storm_iscsi::{Cdb, DataIn, Pdu, ScsiResponse, ScsiStatus};
use storm_sim::{SimDuration, SimTime};

/// Direction of travel through the middle-box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// From the tenant VM towards the storage server.
    ToTarget,
    /// From the storage server back to the tenant VM.
    ToInitiator,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::ToTarget => Dir::ToInitiator,
            Dir::ToInitiator => Dir::ToTarget,
        }
    }
}

/// What a command does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdOp {
    /// Reads `sectors` sectors at `lba`.
    Read,
    /// Writes `sectors` sectors at `lba`.
    Write,
    /// Flushes the volume's write cache.
    Flush,
    /// Any other command (inquiry, capacity, ...).
    Other,
}

/// The transport-neutral view of one open command that the relay hands
/// every service with each PDU of it ([`SvcCtx::cmd`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cmd {
    /// What the command does.
    pub op: CmdOp,
    /// First sector.
    pub lba: u64,
    /// Sector count.
    pub sectors: u32,
    /// Unique per relay: the key of any per-command state a service
    /// keeps (itts collide across flows, as every initiator counts its
    /// own).
    pub key: u64,
}

impl Cmd {
    /// The command an iSCSI SCSI Command PDU opens, its CDB parsed once
    /// (`key` 0 until a table opens it); `None` for any other PDU.
    pub fn of_scsi(pdu: &Pdu) -> Option<Cmd> {
        let Pdu::ScsiCommand(c) = pdu else {
            return None;
        };
        let (op, lba, sectors) = match Cdb::parse(&c.cdb) {
            Ok(Cdb::Read { lba, sectors }) => (CmdOp::Read, lba, sectors),
            Ok(Cdb::Write { lba, sectors }) => (CmdOp::Write, lba, sectors),
            Ok(Cdb::SynchronizeCache) => (CmdOp::Flush, 0, 0),
            _ => (CmdOp::Other, 0, 0),
        };
        Some(Cmd {
            op,
            lba,
            sectors,
            key: 0,
        })
    }

    /// Bytes the command transfers.
    pub fn bytes(&self) -> usize {
        self.sectors as usize * 512
    }
}

/// A flow's open commands by itt: the relay's one answer to "which
/// command does this PDU belong to". An entry opens as its command
/// heads to the target and retires when the command's final status
/// leaves towards the initiator.
#[derive(Debug, Default)]
pub struct CmdTable {
    pub(crate) by_itt: HashMap<u32, Cmd>,
}

impl CmdTable {
    /// Opens `cmd` under `itt` with the next key drawn from `keys`,
    /// replacing a stale entry of a reused itt.
    pub fn open(&mut self, itt: u32, cmd: Cmd, keys: &mut u64) -> Cmd {
        *keys += 1;
        let cmd = Cmd { key: *keys, ..cmd };
        self.by_itt.insert(itt, cmd);
        cmd
    }

    /// The open command of `itt`.
    pub fn get(&self, itt: u32) -> Option<Cmd> {
        self.by_itt.get(&itt).copied()
    }

    /// Removes and returns the command `pdu` finishes, when `pdu` leaves
    /// in `dir` carrying its final status towards the initiator (a SCSI
    /// Response, or a final Data-In with status).
    pub fn retire(&mut self, dir: Dir, pdu: &Pdu) -> Option<Cmd> {
        match (dir, pdu) {
            (Dir::ToInitiator, Pdu::ScsiResponse(r)) => self.by_itt.remove(&r.itt),
            (Dir::ToInitiator, Pdu::DataIn(d)) if d.final_pdu && d.status_present => {
                self.by_itt.remove(&d.itt)
            }
            _ => None,
        }
    }
}

/// A bare SCSI Response: `status` for command `itt`.
pub fn scsi_status(itt: u32, status: ScsiStatus) -> Pdu {
    Pdu::ScsiResponse(ScsiResponse {
        itt,
        response: 0,
        status,
        stat_sn: 0,
        exp_cmd_sn: 0,
        max_cmd_sn: 0,
        residual: 0,
        data: Bytes::new(),
    })
}

/// Side I/O issued by a service against a replica volume attached to the
/// middle-box.
#[derive(Debug, Clone)]
pub enum ReplicaIo {
    /// Write `data` at sector `lba`.
    Write {
        /// First sector.
        lba: u64,
        /// Payload (whole sectors).
        data: Bytes,
    },
    /// Read `sectors` sectors at `lba`.
    Read {
        /// First sector.
        lba: u64,
        /// Sector count.
        sectors: u32,
    },
}

/// An action emitted by a service.
#[derive(Debug)]
pub enum SvcAction {
    /// Pass a PDU onward in its direction of travel.
    Forward(Pdu),
    /// Send a PDU back towards where the triggering PDU came from.
    Reply(Pdu),
    /// Issue I/O on replica session `replica`; completion arrives via
    /// [`StorageService::on_replica_done`] carrying `ctx`.
    Replica {
        /// Index of the replica session (deployment order).
        replica: usize,
        /// The operation.
        io: ReplicaIo,
        /// Opaque completion context.
        ctx: u64,
    },
    /// Raise a tenant-visible alert.
    Alert(String),
    /// Charge middle-box CPU time (service processing cost).
    Charge(SimDuration),
    /// Request a timer callback.
    Timer {
        /// Delay until the callback.
        delay: SimDuration,
        /// Token passed back.
        token: u64,
    },
}

/// Action collector handed to service callbacks.
#[derive(Debug)]
pub struct SvcCtx {
    /// Current simulation time.
    pub now: SimTime,
    cmd: Option<Cmd>,
    actions: Vec<SvcAction>,
}

impl SvcCtx {
    /// Creates a collector at `now`.
    pub fn new(now: SimTime) -> Self {
        SvcCtx {
            now,
            cmd: None,
            actions: Vec::new(),
        }
    }

    /// The collector for a PDU of `cmd`.
    pub fn with_cmd(mut self, cmd: Option<Cmd>) -> Self {
        self.cmd = cmd;
        self
    }

    /// The open command the PDU in [`StorageService::on_pdu`] belongs
    /// to; `None` for a PDU of no open command and outside `on_pdu`.
    pub fn cmd(&self) -> Option<Cmd> {
        self.cmd
    }

    /// Takes the accumulated actions.
    pub fn take_actions(&mut self) -> Vec<SvcAction> {
        std::mem::take(&mut self.actions)
    }

    /// Forwards a PDU onward.
    pub fn forward(&mut self, pdu: Pdu) {
        self.actions.push(SvcAction::Forward(pdu));
    }

    /// Replies back towards the source.
    pub fn reply(&mut self, pdu: Pdu) {
        self.actions.push(SvcAction::Reply(pdu));
    }

    /// Serves a read locally: replies with `data` as a Data-In train of
    /// at most 64 KiB segments (shared views of `data`), the last one
    /// final with GOOD status.
    pub fn reply_read(&mut self, itt: u32, data: Bytes) {
        const SEGMENT: usize = 64 * 1024;
        let total = data.len();
        let mut off = 0;
        let mut data_sn = 0;
        loop {
            let end = (off + SEGMENT).min(total);
            let last = end == total;
            self.reply(Pdu::DataIn(DataIn {
                final_pdu: last,
                status_present: last,
                status: ScsiStatus::Good,
                lun: 0,
                itt,
                ttt: 0xFFFF_FFFF,
                stat_sn: 0,
                exp_cmd_sn: 0,
                max_cmd_sn: 0,
                data_sn,
                buffer_offset: off as u32,
                residual: 0,
                data: data.slice(off..end),
            }));
            if last {
                return;
            }
            data_sn += 1;
            off = end;
        }
    }

    /// Issues a replica write.
    pub fn replica_write(&mut self, replica: usize, lba: u64, data: Bytes, ctx: u64) {
        self.actions.push(SvcAction::Replica {
            replica,
            io: ReplicaIo::Write { lba, data },
            ctx,
        });
    }

    /// Issues a replica read.
    pub fn replica_read(&mut self, replica: usize, lba: u64, sectors: u32, ctx: u64) {
        self.actions.push(SvcAction::Replica {
            replica,
            io: ReplicaIo::Read { lba, sectors },
            ctx,
        });
    }

    /// Raises an alert.
    pub fn alert(&mut self, msg: impl Into<String>) {
        self.actions.push(SvcAction::Alert(msg.into()));
    }

    /// Charges processing CPU time.
    pub fn charge(&mut self, cost: SimDuration) {
        self.actions.push(SvcAction::Charge(cost));
    }

    /// Requests a timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(SvcAction::Timer { delay, token });
    }
}

/// A tenant-defined storage middle-box service.
///
/// Implementations must forward PDUs they do not consume — a service that
/// swallows PDUs breaks the session (intentionally possible: that is what
/// an IPS-style service would do).
///
/// `StorageService: Any` so harnesses can downcast deployed services (via
/// [`downcast_ref`]) to read logs and counters after a run.
///
/// [`downcast_ref`]: trait@StorageService#method.downcast_ref
#[allow(unused_variables)]
pub trait StorageService: std::any::Any {
    /// Service name (logging, policy matching).
    fn name(&self) -> &str;

    /// Active path: a whole PDU travelling in `dir`.
    fn on_pdu(&mut self, cx: &mut SvcCtx, dir: Dir, pdu: Pdu);

    /// Completion of a [`SvcCtx::replica_write`] / [`SvcCtx::replica_read`].
    fn on_replica_done(
        &mut self,
        cx: &mut SvcCtx,
        replica: usize,
        ctx: u64,
        ok: bool,
        data: Bytes,
    ) {
    }

    /// A replica session failed (connection reset/refused).
    fn on_replica_failed(&mut self, cx: &mut SvcCtx, replica: usize) {}

    /// A timer requested via [`SvcCtx::set_timer`] fired.
    fn on_timer(&mut self, cx: &mut SvcCtx, token: u64) {}

    /// The command of [`Cmd::key`] `key` retired: its final status left
    /// towards the initiator, from the target or from any service's
    /// reply. Drop per-command state here — a service earlier in the
    /// chain than the one that failed a command never sees its status.
    fn on_retire(&mut self, key: u64) {}

    /// Passive path: the per-byte processing cost this service adds to
    /// forwarded packets.
    fn per_byte_cost(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// Passive path: transform in-flight data-segment bytes in place.
    /// `vol_offset` is the absolute byte offset on the volume, so
    /// position-keyed stream ciphers work across arbitrary packetization.
    fn transform(&mut self, dir: Dir, vol_offset: u64, data: &mut [u8]) {}
}

impl dyn StorageService {
    /// Downcasts to a concrete service type.
    pub fn downcast_ref<T: StorageService>(&self) -> Option<&T> {
        let any: &dyn std::any::Any = self;
        any.downcast_ref()
    }

    /// Downcasts to a concrete service type (mutable).
    pub fn downcast_mut<T: StorageService>(&mut self) -> Option<&mut T> {
        let any: &mut dyn std::any::Any = self;
        any.downcast_mut()
    }
}

/// A service that forwards everything untouched; useful as a chain
/// placeholder and in tests.
#[derive(Debug, Default)]
pub struct PassthroughService {
    pdus: u64,
}

impl PassthroughService {
    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }

    /// PDUs seen.
    pub fn pdus(&self) -> u64 {
        self.pdus
    }
}

impl StorageService for PassthroughService {
    fn name(&self) -> &str {
        "passthrough"
    }

    fn on_pdu(&mut self, cx: &mut SvcCtx, _dir: Dir, pdu: Pdu) {
        self.pdus += 1;
        cx.forward(pdu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_iscsi::{NopOut, ScsiCommand};

    fn nop() -> Pdu {
        Pdu::NopOut(NopOut {
            itt: 1,
            ttt: 0xFFFF_FFFF,
            cmd_sn: 1,
            exp_stat_sn: 1,
            data: Bytes::new(),
        })
    }

    #[test]
    fn dir_flips() {
        assert_eq!(Dir::ToTarget.flip(), Dir::ToInitiator);
        assert_eq!(Dir::ToInitiator.flip(), Dir::ToTarget);
    }

    #[test]
    fn ctx_collects_actions_in_order() {
        let mut cx = SvcCtx::new(SimTime::ZERO);
        cx.charge(SimDuration::from_micros(5));
        cx.forward(nop());
        cx.alert("suspicious");
        cx.replica_write(1, 100, Bytes::from_static(&[0u8; 512]), 7);
        cx.set_timer(SimDuration::from_millis(1), 9);
        let actions = cx.take_actions();
        assert_eq!(actions.len(), 5);
        assert!(matches!(actions[0], SvcAction::Charge(_)));
        assert!(matches!(actions[1], SvcAction::Forward(_)));
        assert!(matches!(actions[2], SvcAction::Alert(ref m) if m == "suspicious"));
        assert!(matches!(
            actions[3],
            SvcAction::Replica {
                replica: 1,
                ctx: 7,
                io: ReplicaIo::Write { lba: 100, .. }
            }
        ));
        assert!(matches!(actions[4], SvcAction::Timer { token: 9, .. }));
        assert!(cx.take_actions().is_empty());
    }

    fn read(itt: u32) -> Pdu {
        Pdu::ScsiCommand(ScsiCommand {
            immediate: false,
            final_pdu: true,
            read: true,
            write: false,
            lun: 0,
            itt,
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
    }

    fn data_in(itt: u32, last: bool) -> Pdu {
        Pdu::DataIn(DataIn {
            final_pdu: last,
            status_present: last,
            status: ScsiStatus::Good,
            lun: 0,
            itt,
            ttt: 0xFFFF_FFFF,
            stat_sn: 0,
            exp_cmd_sn: 0,
            max_cmd_sn: 0,
            data_sn: 0,
            buffer_offset: 0,
            residual: 0,
            data: Bytes::from_static(&[0; 512]),
        })
    }

    #[test]
    fn command_table_retires_on_the_final_status_towards_the_initiator() {
        let (mut cmds, mut keys) = (CmdTable::default(), 0);
        let fresh = Cmd::of_scsi(&read(5)).expect("a SCSI command opens");
        assert_eq!((fresh.op, fresh.lba, fresh.sectors), (CmdOp::Read, 70, 2));
        assert_eq!(Cmd::of_scsi(&nop()), None);
        let cmd = cmds.open(5, fresh, &mut keys);
        assert_eq!(cmds.get(5), Some(cmd));
        // Nothing heading to the target retires, nor does a non-final
        // Data-In...
        let status = scsi_status(5, ScsiStatus::Good);
        assert_eq!(cmds.retire(Dir::ToTarget, &status), None);
        assert_eq!(cmds.retire(Dir::ToInitiator, &data_in(5, false)), None);
        assert_eq!(cmds.get(5), Some(cmd));
        // ...but the final one, carrying status, does.
        assert_eq!(cmds.retire(Dir::ToInitiator, &data_in(5, true)), Some(cmd));
        assert_eq!(cmds.get(5), None);
        // A SCSI Response retires too; a reused itt gets a fresh key.
        let again = cmds.open(5, fresh, &mut keys);
        assert_ne!(again.key, cmd.key);
        assert_eq!(cmds.retire(Dir::ToInitiator, &status), Some(again));
        assert!(cmds.by_itt.is_empty());
    }

    #[test]
    fn passthrough_forwards() {
        let mut svc = PassthroughService::new();
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_pdu(&mut cx, Dir::ToTarget, nop());
        assert_eq!(svc.pdus(), 1);
        let actions = cx.take_actions();
        assert!(matches!(&actions[..], [SvcAction::Forward(_)]));
        assert_eq!(svc.per_byte_cost(), SimDuration::ZERO);
        assert_eq!(svc.name(), "passthrough");
    }
}
