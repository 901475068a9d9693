//! Criterion micro-benchmarks of the performance-critical primitives:
//! PDU codec, ciphers, flow-table lookup, filesystem operations, semantic
//! reconstruction and the event engine.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use bytes::Bytes;
use storm_block::{MemDisk, RecordingDevice};
use storm_core::{FsOp, Reconstructor};
use storm_crypto::{AesXts, ChaCha20};
use storm_extfs::ExtFs;
use storm_iscsi::{Cdb, DataOut, Pdu, PduStream, ScsiCommand};
use storm_net::{steering_rule, FlowMatch, FlowTable, Frame, MacAddr, TcpFlags, TcpSegment};
use storm_sim::{EventQueue, SimTime};

fn bench_pdu_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("iscsi_codec");
    let pdu = Pdu::DataOut(DataOut {
        final_pdu: true,
        lun: 0,
        itt: 7,
        ttt: 9,
        exp_stat_sn: 1,
        data_sn: 0,
        buffer_offset: 0,
        data: Bytes::from(vec![0xA5u8; 8192]),
    });
    g.throughput(Throughput::Bytes(pdu.wire_len() as u64));
    g.bench_function("encode_8k_data_out", |b| b.iter(|| black_box(pdu.encode())));
    let wire = pdu.encode();
    g.bench_function("stream_parse_8k_data_out", |b| {
        b.iter(|| {
            let mut s = PduStream::new();
            black_box(s.feed(&wire).unwrap())
        })
    });
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let xts = AesXts::from_master_key(&[7u8; 64]);
    let mut sector = vec![0u8; 4096];
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("aes_xts_4k", |b| {
        b.iter(|| xts.encrypt_run(black_box(42), 512, &mut sector))
    });
    g.bench_function("aes_xts_4k_decrypt", |b| {
        b.iter(|| xts.decrypt_run(black_box(42), 512, &mut sector))
    });
    let chacha = ChaCha20::new(&[9u8; 32], &[1u8; 12]);
    g.bench_function("chacha20_4k", |b| {
        b.iter(|| chacha.apply_keystream_at(black_box(0), &mut sector))
    });
    g.finish();
}

fn bench_flow_table(c: &mut Criterion) {
    let mut table = FlowTable::new();
    for i in 0..64u64 {
        table.install(steering_rule(
            10,
            FlowMatch::any()
                .src_mac(MacAddr::nth(i))
                .dst_mac(MacAddr::nth(1000 + i))
                .dst_port(3260),
            MacAddr::nth(2000 + i),
        ));
    }
    let frame = Frame {
        src_mac: MacAddr::nth(63),
        dst_mac: MacAddr::nth(1063),
        src_ip: [10, 0, 0, 1].into(),
        dst_ip: [10, 0, 0, 2].into(),
        tcp: TcpSegment {
            src_port: 40001,
            dst_port: 3260,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            wnd: 0,
            payload: Bytes::new().into(),
        },
        hops: 0,
    };
    c.bench_function("flow_table_lookup_64_rules", |b| {
        b.iter(|| black_box(table.lookup(&frame, storm_net::PortNo(0)).is_some()))
    });
}

fn bench_extfs(c: &mut Criterion) {
    c.bench_function("extfs_create_write_4k", |b| {
        let mut fs = ExtFs::mkfs(MemDisk::with_capacity_bytes(512 << 20)).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            let path = format!("/f{i}");
            i += 1;
            fs.create(&path).unwrap();
            fs.write_file(&path, 0, &[0xAB; 4096]).unwrap();
        })
    });
}

fn bench_reconstruction(c: &mut Criterion) {
    // Build a filesystem and a recorded write burst, then measure observe().
    let dev = RecordingDevice::new(MemDisk::with_capacity_bytes(128 << 20));
    let mut fs = ExtFs::mkfs(dev).unwrap();
    fs.mkdir("/d").unwrap();
    fs.create("/d/f").unwrap();
    fs.sync().unwrap();
    fs.device_mut().take_log();
    fs.write_file("/d/f", 0, &vec![7u8; 64 * 1024]).unwrap();
    fs.sync().unwrap();
    let log = fs.device_mut().take_log();
    let mut dev = fs.into_device().unwrap().into_inner();
    let bytes: u64 = log.iter().map(|r| r.len_bytes() as u64).sum();
    let mut g = c.benchmark_group("semantics");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("observe_64k_file_write", |b| {
        b.iter(|| {
            let mut recon = Reconstructor::from_device(&mut dev, "/mnt").unwrap();
            for rec in &log {
                black_box(recon.observe(FsOp::Write, rec.lba, rec.len_bytes(), Some(&rec.data)));
            }
        })
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime::from_nanos(i * 37 % 5000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

fn bench_scsi_cdb(c: &mut Criterion) {
    let cdb = Cdb::Write {
        lba: 123456,
        sectors: 128,
    }
    .to_bytes();
    c.bench_function("cdb_parse", |b| {
        b.iter(|| black_box(Cdb::parse(&cdb).unwrap()))
    });
    let cmd = Pdu::ScsiCommand(ScsiCommand {
        immediate: false,
        final_pdu: true,
        read: false,
        write: true,
        lun: 0,
        itt: 1,
        edtl: 65536,
        cmd_sn: 1,
        exp_stat_sn: 1,
        cdb,
        data: Bytes::new(),
    });
    c.bench_function("scsi_command_encode", |b| {
        b.iter(|| black_box(cmd.encode()))
    });
}

criterion_group!(
    benches,
    bench_pdu_codec,
    bench_crypto,
    bench_flow_table,
    bench_extfs,
    bench_reconstruction,
    bench_event_queue,
    bench_scsi_cdb
);
criterion_main!(benches);
