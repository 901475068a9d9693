//! Case 2: on-the-fly data encryption/decryption.
//!
//! "The goal of this middle-box is to encrypt the tenant data before it is
//! written to the disk and decrypt it when the data is requested." The
//! tenant picks the algorithm — the flexibility the paper contrasts with
//! provider-controlled encryption:
//!
//! * [`CipherKind::AesXts`] — the dm-crypt equivalent; needs whole
//!   sectors, so it runs in the active relay.
//! * [`CipherKind::Stream`] — the byte-wise "stream cipher" used in the
//!   paper's API-overhead experiments (Figures 5/6/8/9); position-keyed,
//!   so it also works on the passive path where data crosses in arbitrary
//!   packet-sized pieces.

use storm_core::service::scsi_status;
use storm_core::{CmdOp, Dir, StorageService, SvcCtx};
use storm_crypto::{AesXts, ChaCha20};
use storm_iscsi::{Pdu, ScsiStatus};
use storm_sim::SimDuration;

/// The tenant-selected cipher.
pub enum CipherKind {
    /// AES-256-XTS over 512-byte sectors.
    AesXts(Box<AesXts>),
    /// Seekable ChaCha20 keystream over the volume's byte space.
    Stream(ChaCha20),
}

impl CipherKind {
    /// The volume byte offset of `len` bytes at `buffer_offset` into a
    /// command at `lba`, or why the cipher cannot take them. The PDU
    /// fields come from the tenant's wire, so nothing here may panic.
    fn locate(&self, lba: u64, buffer_offset: u32, len: usize) -> Result<u64, &'static str> {
        let vol_offset = lba
            .checked_mul(512)
            .and_then(|b| b.checked_add(u64::from(buffer_offset)))
            .ok_or("volume offset overflows")?;
        if let CipherKind::AesXts(_) = self {
            if !buffer_offset.is_multiple_of(512) {
                return Err("buffer offset is not sector-aligned");
            }
            if !len.is_multiple_of(512) {
                return Err("data is not a whole number of sectors");
            }
        }
        Ok(vol_offset)
    }

    fn apply(&self, encrypt: bool, vol_offset: u64, data: &mut [u8]) {
        match self {
            CipherKind::AesXts(xts) => {
                let sector = vol_offset / 512;
                if encrypt {
                    xts.encrypt_run(sector, 512, data);
                } else {
                    xts.decrypt_run(sector, 512, data);
                }
            }
            CipherKind::Stream(c) => c.apply_keystream_at(vol_offset, data),
        }
    }
}

/// The encryption middle-box service. It fails closed: a data or
/// status PDU of no open command — including every later PDU of a
/// command it failed — is dropped, never forwarded in the clear.
pub struct EncryptionService {
    cipher: CipherKind,
    per_byte: SimDuration,
    bytes_encrypted: u64,
    bytes_decrypted: u64,
}

impl EncryptionService {
    /// AES-256-XTS from a 64-byte master key (active relay only).
    pub fn aes_xts(master_key: &[u8; 64]) -> Self {
        Self::with_cipher(CipherKind::AesXts(Box::new(AesXts::from_master_key(
            master_key,
        ))))
    }

    /// ChaCha20 stream cipher (works on both relay paths).
    pub fn stream_cipher(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        Self::with_cipher(CipherKind::Stream(ChaCha20::new(key, nonce)))
    }

    /// Builds from an explicit cipher.
    pub fn with_cipher(cipher: CipherKind) -> Self {
        EncryptionService {
            cipher,
            // ~1.5 GB/s single-core cipher throughput.
            per_byte: SimDuration::from_nanos(1),
            bytes_encrypted: 0,
            bytes_decrypted: 0,
        }
    }

    /// Overrides the modelled per-byte CPU cost.
    pub fn set_per_byte_cost(&mut self, cost: SimDuration) {
        self.per_byte = cost;
    }

    /// Drops a PDU the cipher cannot take and fails its command towards
    /// the initiator, which retires the command.
    fn reject(&mut self, cx: &mut SvcCtx, dir: Dir, itt: u32, why: &str) {
        cx.alert(format!("encryption: dropped PDU of itt {itt:#x}: {why}"));
        let status = scsi_status(itt, ScsiStatus::CheckCondition);
        match dir {
            Dir::ToTarget => cx.reply(status),
            Dir::ToInitiator => cx.forward(status),
        }
    }

    /// `(encrypted, decrypted)` byte counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.bytes_encrypted, self.bytes_decrypted)
    }
}

impl StorageService for EncryptionService {
    fn name(&self) -> &str {
        "encryption"
    }

    fn on_pdu(&mut self, cx: &mut SvcCtx, dir: Dir, mut pdu: Pdu) {
        let (itt, buffer_offset, data) = match (&mut pdu, dir) {
            // Immediate write data encrypts at buffer offset 0.
            (Pdu::ScsiCommand(c), Dir::ToTarget) => (c.itt, 0, &mut c.data),
            (Pdu::DataOut(d), Dir::ToTarget) => (d.itt, d.buffer_offset, &mut d.data),
            (Pdu::DataIn(d), Dir::ToInitiator) => (d.itt, d.buffer_offset, &mut d.data),
            // A failed command's initiator already holds its status.
            (Pdu::ScsiResponse(_), Dir::ToInitiator) if cx.cmd().is_none() => return,
            _ => return cx.forward(pdu),
        };
        let Some(cmd) = cx.cmd() else {
            return;
        };
        if data.is_empty() || !matches!(cmd.op, CmdOp::Read | CmdOp::Write) {
            return cx.forward(pdu);
        }
        let vol_offset = match self.cipher.locate(cmd.lba, buffer_offset, data.len()) {
            Ok(off) => off,
            Err(why) => return self.reject(cx, dir, itt, why),
        };
        let encrypt = dir == Dir::ToTarget;
        let mut buf = data.to_vec();
        self.cipher.apply(encrypt, vol_offset, &mut buf);
        cx.charge(self.per_byte * buf.len() as u64);
        if encrypt {
            self.bytes_encrypted += buf.len() as u64;
        } else {
            self.bytes_decrypted += buf.len() as u64;
        }
        *data = buf.into();
        cx.forward(pdu);
    }

    fn per_byte_cost(&self) -> SimDuration {
        self.per_byte
    }

    fn transform(&mut self, dir: Dir, vol_offset: u64, data: &mut [u8]) {
        // Passive path: only position-keyed ciphers can run here.
        if let CipherKind::Stream(_) = self.cipher {
            let encrypt = dir == Dir::ToTarget;
            self.cipher.apply(encrypt, vol_offset, data);
            if encrypt {
                self.bytes_encrypted += data.len() as u64;
            } else {
                self.bytes_decrypted += data.len() as u64;
            }
        }
    }
}

impl std::fmt::Debug for EncryptionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptionService")
            .field("bytes_encrypted", &self.bytes_encrypted)
            .field("bytes_decrypted", &self.bytes_decrypted)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use storm_core::service::SvcAction;
    use storm_core::{Cmd, CmdTable};
    use storm_iscsi::{Cdb, DataIn, DataOut, ScsiCommand, ScsiResponse, ScsiStatus};
    use storm_sim::SimTime;

    /// The service on one relay flow: PDUs carry their command from the
    /// flow's table, which opens as commands head to the target and
    /// retires on a final status leaving towards the initiator.
    struct Flow {
        enc: EncryptionService,
        cmds: CmdTable,
        keys: u64,
    }

    impl Flow {
        fn pdu(&mut self, dir: Dir, pdu: Pdu) -> Vec<SvcAction> {
            let cmd = match Cmd::of_scsi(&pdu) {
                Some(fresh) if dir == Dir::ToTarget => {
                    Some(self.cmds.open(pdu.itt(), fresh, &mut self.keys))
                }
                _ => self.cmds.get(pdu.itt()),
            };
            let mut cx = SvcCtx::new(SimTime::ZERO).with_cmd(cmd);
            self.enc.on_pdu(&mut cx, dir, pdu);
            let actions = cx.take_actions();
            for a in &actions {
                match a {
                    SvcAction::Reply(p) => self.cmds.retire(dir.flip(), p),
                    SvcAction::Forward(p) => self.cmds.retire(dir, p),
                    _ => None,
                };
            }
            actions
        }

        fn counters(&self) -> (u64, u64) {
            self.enc.counters()
        }
    }

    fn flow(enc: EncryptionService) -> Flow {
        Flow {
            enc,
            cmds: CmdTable::default(),
            keys: 0,
        }
    }

    fn svc() -> Flow {
        flow(EncryptionService::aes_xts(&[0x42; 64]))
    }

    fn write_cmd(itt: u32, lba: u64, data: Bytes) -> Pdu {
        let sectors = (data.len() / 512) as u32;
        Pdu::ScsiCommand(ScsiCommand {
            immediate: false,
            final_pdu: true,
            read: false,
            write: true,
            lun: 0,
            itt,
            edtl: data.len() as u32,
            cmd_sn: 1,
            exp_stat_sn: 1,
            cdb: Cdb::Write { lba, sectors }.to_bytes(),
            data,
        })
    }

    fn run(flow: &mut Flow, dir: Dir, pdu: Pdu) -> Pdu {
        flow.pdu(dir, pdu)
            .into_iter()
            .find_map(|a| match a {
                SvcAction::Forward(p) => Some(p),
                _ => None,
            })
            .expect("forwarded")
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut enc = svc();
        let plain = Bytes::from(vec![0x11u8; 4096]);
        // Write path: immediate data is encrypted.
        let out = run(&mut enc, Dir::ToTarget, write_cmd(1, 64, plain.clone()));
        let stored = match &out {
            Pdu::ScsiCommand(c) => c.data.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(stored, plain, "ciphertext must differ");
        // Read path: a Data-In carrying the ciphertext decrypts back.
        let din = Pdu::DataIn(DataIn {
            final_pdu: true,
            status_present: true,
            status: ScsiStatus::Good,
            lun: 0,
            itt: 1,
            ttt: 0xFFFF_FFFF,
            stat_sn: 1,
            exp_cmd_sn: 2,
            max_cmd_sn: 66,
            data_sn: 0,
            buffer_offset: 0,
            residual: 0,
            data: stored,
        });
        let back = run(&mut enc, Dir::ToInitiator, din);
        match back {
            Pdu::DataIn(d) => assert_eq!(d.data, plain),
            other => panic!("unexpected {other:?}"),
        }
        let (e, d) = enc.counters();
        assert_eq!((e, d), (4096, 4096));
    }

    #[test]
    fn data_out_uses_buffer_offset() {
        let mut enc = svc();
        // Establish the command context with no immediate data.
        let _ = run(&mut enc, Dir::ToTarget, write_cmd(7, 100, Bytes::new()));
        let plain = vec![0xABu8; 1024];
        let dout = Pdu::DataOut(DataOut {
            final_pdu: true,
            lun: 0,
            itt: 7,
            ttt: 1,
            exp_stat_sn: 1,
            data_sn: 0,
            buffer_offset: 2048,
            data: Bytes::from(plain.clone()),
        });
        let out = run(&mut enc, Dir::ToTarget, dout);
        let cipher1 = match &out {
            Pdu::DataOut(d) => d.data.clone(),
            _ => unreachable!(),
        };
        // Same plaintext at a different offset yields different ciphertext
        // (sector tweak).
        let mut direct = plain.clone();
        AesXts::from_master_key(&[0x42; 64]).encrypt_run(100 + 4, 512, &mut direct);
        assert_eq!(&cipher1[..], &direct[..]);
    }

    fn data_out(itt: u32, buffer_offset: u32, data: Vec<u8>) -> Pdu {
        Pdu::DataOut(DataOut {
            final_pdu: true,
            lun: 0,
            itt,
            ttt: 1,
            exp_stat_sn: 1,
            data_sn: 0,
            buffer_offset,
            data: Bytes::from(data),
        })
    }

    /// Asserts the PDU was dropped and its command failed exactly once.
    fn assert_failed_once(enc: &mut Flow, itt: u32, pdu: Pdu) {
        let actions = enc.pdu(Dir::ToTarget, pdu);
        assert_eq!(actions.len(), 2, "{actions:?}");
        assert!(matches!(actions[0], SvcAction::Alert(_)), "{actions:?}");
        match &actions[1] {
            SvcAction::Reply(Pdu::ScsiResponse(r)) => {
                assert_eq!((r.itt, r.status), (itt, ScsiStatus::CheckCondition));
            }
            other => panic!("expected a CHECK CONDITION reply, got {other:?}"),
        }
        assert_eq!(enc.cmds.get(itt), None, "the failure retires the command");
        // The command's later data is dropped too, without a second status.
        let later = enc.pdu(Dir::ToTarget, data_out(itt, 0, vec![0x33; 512]));
        assert!(later.is_empty(), "{later:?}");
        assert_eq!(enc.counters(), (0, 0));
    }

    #[test]
    fn short_data_out_fails_the_command() {
        let mut enc = svc();
        let _ = run(&mut enc, Dir::ToTarget, write_cmd(7, 100, Bytes::new()));
        assert_failed_once(&mut enc, 7, data_out(7, 0, vec![0x5A; 100]));
    }

    #[test]
    fn misaligned_buffer_offset_fails_the_command() {
        let mut enc = svc();
        let _ = run(&mut enc, Dir::ToTarget, write_cmd(8, 100, Bytes::new()));
        assert_failed_once(&mut enc, 8, data_out(8, 100, vec![0x5A; 512]));
    }

    #[test]
    fn short_immediate_data_fails_the_command() {
        let mut enc = svc();
        let mut cmd = write_cmd(9, 100, Bytes::from(vec![0x5A; 512]));
        if let Pdu::ScsiCommand(c) = &mut cmd {
            c.data = Bytes::from(vec![0x5A; 100]);
        }
        assert_failed_once(&mut enc, 9, cmd);
    }

    #[test]
    fn overflowing_volume_offset_fails_the_command() {
        let mut enc = flow(EncryptionService::stream_cipher(&[7; 32], &[9; 12]));
        let _ = run(
            &mut enc,
            Dir::ToTarget,
            write_cmd(10, u64::MAX, Bytes::new()),
        );
        assert_failed_once(&mut enc, 10, data_out(10, 0, vec![0x5A; 512]));
    }

    #[test]
    fn short_data_in_fails_the_command_once() {
        let mut enc = svc();
        let read = Pdu::ScsiCommand(ScsiCommand {
            immediate: false,
            final_pdu: true,
            read: true,
            write: false,
            lun: 0,
            itt: 12,
            edtl: 512,
            cmd_sn: 1,
            exp_stat_sn: 1,
            cdb: Cdb::Read {
                lba: 100,
                sectors: 1,
            }
            .to_bytes(),
            data: Bytes::new(),
        });
        let _ = run(&mut enc, Dir::ToTarget, read);
        let din = Pdu::DataIn(DataIn {
            final_pdu: true,
            status_present: false,
            status: ScsiStatus::Good,
            lun: 0,
            itt: 12,
            ttt: 0xFFFF_FFFF,
            stat_sn: 1,
            exp_cmd_sn: 2,
            max_cmd_sn: 66,
            data_sn: 0,
            buffer_offset: 0,
            residual: 0,
            data: Bytes::from(vec![0x5A; 100]),
        });
        // The CHECK CONDITION travels on towards the initiator.
        match run(&mut enc, Dir::ToInitiator, din) {
            Pdu::ScsiResponse(r) => assert_eq!(r.status, ScsiStatus::CheckCondition),
            other => panic!("unexpected {other:?}"),
        }
        // The target's own status for the command is not sent a second time.
        let status = Pdu::ScsiResponse(ScsiResponse {
            itt: 12,
            response: 0,
            status: ScsiStatus::Good,
            stat_sn: 2,
            exp_cmd_sn: 2,
            max_cmd_sn: 66,
            residual: 0,
            data: Bytes::new(),
        });
        assert!(enc.pdu(Dir::ToInitiator, status).is_empty());
    }

    #[test]
    fn data_of_no_open_command_is_dropped_not_forwarded_in_the_clear() {
        let mut enc = svc();
        let stray = Pdu::DataIn(DataIn {
            final_pdu: true,
            status_present: true,
            status: ScsiStatus::Good,
            lun: 0,
            itt: 40,
            ttt: 0xFFFF_FFFF,
            stat_sn: 1,
            exp_cmd_sn: 2,
            max_cmd_sn: 66,
            data_sn: 0,
            buffer_offset: 0,
            residual: 0,
            data: Bytes::from(vec![0x5A; 512]),
        });
        assert!(enc.pdu(Dir::ToInitiator, stray).is_empty());
        assert!(enc
            .pdu(Dir::ToTarget, data_out(41, 0, vec![0x5A; 512]))
            .is_empty());
        assert_eq!(enc.counters(), (0, 0));
    }

    #[test]
    fn reused_itt_starts_a_fresh_command() {
        let mut enc = svc();
        let _ = run(&mut enc, Dir::ToTarget, write_cmd(11, 100, Bytes::new()));
        assert_failed_once(&mut enc, 11, data_out(11, 0, vec![0x5A; 100]));
        let plain = Bytes::from(vec![0x11u8; 512]);
        match run(&mut enc, Dir::ToTarget, write_cmd(11, 100, plain.clone())) {
            Pdu::ScsiCommand(c) => assert_ne!(c.data, plain),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stream_cipher_passive_transform_round_trips_in_pieces() {
        let mut enc = EncryptionService::stream_cipher(&[7; 32], &[9; 12]);
        let mut dec = EncryptionService::stream_cipher(&[7; 32], &[9; 12]);
        let plain: Vec<u8> = (0..3000).map(|i| (i % 251) as u8).collect();
        let mut wire = plain.clone();
        // Encrypt in irregular chunks (packets), decrypt in different ones.
        let mut off = 0;
        for chunk in [100usize, 900, 1448, 552] {
            enc.transform(
                Dir::ToTarget,
                5000 + off as u64,
                &mut wire[off..off + chunk],
            );
            off += chunk;
        }
        let mut off = 0;
        for chunk in [1448usize, 1448, 104] {
            dec.transform(
                Dir::ToInitiator,
                5000 + off as u64,
                &mut wire[off..off + chunk],
            );
            off += chunk;
        }
        assert_eq!(wire, plain);
        assert_eq!(enc.counters().0, 3000);
        assert_eq!(dec.counters().1, 3000);
    }

    #[test]
    fn xts_never_transforms_on_passive_path() {
        let mut enc = EncryptionService::aes_xts(&[0x42; 64]);
        let mut data = vec![1u8; 512];
        let orig = data.clone();
        enc.transform(Dir::ToTarget, 0, &mut data);
        assert_eq!(data, orig, "XTS must not run without whole-PDU context");
    }

    #[test]
    fn non_data_pdus_pass_untouched() {
        let mut enc = svc();
        let nop = Pdu::NopOut(storm_iscsi::NopOut {
            itt: 9,
            ttt: 0xFFFF_FFFF,
            cmd_sn: 1,
            exp_stat_sn: 1,
            data: Bytes::from_static(b"keepalive"),
        });
        let out = run(&mut enc, Dir::ToTarget, nop.clone());
        assert_eq!(out, nop);
    }
}
