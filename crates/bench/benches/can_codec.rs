//! E6: CAN substrate micro-benchmarks — codec round trip, `wire_len` (the
//! bus's timing path), CRC (bit-serial and word-table), and bus arbitration
//! rounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polsec_can::{codec, crc::crc15, crc::crc15_words, CanBus, CanFrame, CanId, CanNode};
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
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    let bits: Vec<bool> = (0..87).map(|i| (i * 5) % 7 < 3).collect();
    c.bench_function("can/crc15_87bits", |b| {
        b.iter(|| black_box(crc15(black_box(&bits))));
    });
    let mut words = [0u64; 2];
    for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
        words[i / 64] |= 1 << (63 - i % 64);
    }
    c.bench_function("can/crc15_words_87bits", |b| {
        b.iter(|| black_box(crc15_words(black_box(&words), bits.len())));
    });
}

fn bench_bus_round(c: &mut Criterion) {
    c.bench_function("can/bus_contended_round_8nodes", |b| {
        b.iter_with_setup(
            || {
                let mut bus = CanBus::new(500_000);
                let handles: Vec<_> = (0..8).map(|i| bus.attach(CanNode::new(format!("n{i}")))).collect();
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
