//! E6: CAN substrate micro-benchmarks — codec round trip, `wire_len` (the
//! bus's timing path) on one frame per DLC and on 4 096 distinct relay
//! frames, the bit-serial CRC beside `wire_info` over the same CRC input,
//! and bus arbitration rounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polsec_can::{codec, crc::crc15, CanBus, CanFrame, CanId, CanNode};
use std::hint::black_box;

fn frame_with_dlc(dlc: usize) -> CanFrame {
    let payload: Vec<u8> = (0..dlc as u8).map(|i| i.wrapping_mul(0x5D)).collect();
    CanFrame::data(CanId::standard(0x2A5).expect("valid"), &payload).expect("valid")
}

fn bench_encode_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("can/codec");
    for &dlc in &[0usize, 4, 8] {
        let frame = frame_with_dlc(dlc);
        group.bench_with_input(BenchmarkId::new("encode", dlc), &dlc, |b, _| {
            b.iter(|| black_box(codec::encode(black_box(&frame), true)));
        });
        let encoded = codec::encode(&frame, true);
        group.bench_with_input(BenchmarkId::new("decode", dlc), &dlc, |b, _| {
            b.iter(|| black_box(codec::decode(black_box(encoded.bits())).expect("valid")));
        });
        group.bench_with_input(BenchmarkId::new("wire_len", dlc), &dlc, |b, _| {
            b.iter(|| black_box(codec::wire_len(black_box(&frame))));
        });
    }
    // The bus's miss path: frames shaped like a relayed platoon lead
    // message (standard id 0x140; speed, brake flag, 16-bit sequence
    // number), every one distinct, so neither a memo nor the branch
    // predictor learns them. One iteration times one frame.
    let relayed: Vec<CanFrame> = (0..4096u16)
        .map(|seq| {
            let payload = [
                (seq.wrapping_mul(37) % 130) as u8,
                u8::from(seq % 7 == 0),
                seq as u8,
                (seq >> 8) as u8,
            ];
            CanFrame::data(CanId::standard(0x140).expect("valid"), &payload).expect("valid")
        })
        .collect();
    let mut next = 0;
    group.bench_function("wire_info_4096_relay_frames", |b| {
        b.iter(|| {
            next = (next + 1) % relayed.len();
            black_box(codec::wire_info(black_box(&relayed[next])))
        });
    });
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    let bits: Vec<bool> = (0..87).map(|i| (i * 5) % 7 < 3).collect();
    c.bench_function("can/crc15_87bits", |b| {
        b.iter(|| black_box(crc15(black_box(&bits))));
    });
    // An extended data frame with six bytes has 87 bits of CRC input:
    // `wire_info` takes its CRC with the byte table and counts its stuff
    // bits in the same pass.
    let frame =
        CanFrame::data(CanId::extended(0x1ABC_D123).expect("valid"), &[0x5D; 6]).expect("valid");
    c.bench_function("can/wire_info_87bit_crc_input", |b| {
        b.iter(|| black_box(codec::wire_info(black_box(&frame))));
    });
}

fn bench_bus_round(c: &mut Criterion) {
    c.bench_function("can/bus_contended_round_8nodes", |b| {
        b.iter_with_setup(
            || {
                let mut bus = CanBus::new(500_000);
                let handles: Vec<_> = (0..8)
                    .map(|i| bus.attach(CanNode::new(format!("n{i}"))))
                    .collect();
                for (i, h) in handles.iter().enumerate() {
                    let f = CanFrame::data(
                        CanId::standard(0x100 + i as u32).expect("valid"),
                        &[i as u8],
                    )
                    .expect("valid");
                    bus.send_from(*h, f).expect("send");
                }
                bus
            },
            |mut bus| {
                black_box(bus.run_until_idle());
            },
        );
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = bench_encode_decode, bench_crc, bench_bus_round);
criterion_main!(benches);
