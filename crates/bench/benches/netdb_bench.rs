//! Criterion micro-benchmarks for the source-of-truth database: scoped
//! selects and writes (what every Occam `get`/`set` costs) and WAL replay.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use occam_netdb::{Database, Store};
use occam_regex::Pattern;
use std::hint::black_box;

fn seeded(pods: u32, switches: u32) -> Database {
    let db = Database::new();
    for p in 0..pods {
        for s in 0..switches {
            db.insert_device(
                &format!("dc01.pod{p:02}.sw{s:02}"),
                vec![("DEVICE_STATUS".into(), "ACTIVE".into())],
            )
            .unwrap();
        }
    }
    db
}

fn bench_queries(c: &mut Criterion) {
    let db = seeded(24, 48);
    let pod = Pattern::from_glob("dc01.pod03.*").unwrap();
    c.bench_function("netdb/select_pod_of_1152", |b| {
        b.iter(|| db.select_devices(black_box(&pod)).unwrap())
    });
    c.bench_function("netdb/get_attr_pod", |b| {
        b.iter(|| db.get_attr(black_box(&pod), "DEVICE_STATUS").unwrap())
    });
    c.bench_function("netdb/set_attr_pod", |b| {
        b.iter(|| db.set_attr(black_box(&pod), "X", 1i64.into()).unwrap())
    });
    c.bench_function("netdb/snapshot_1152_devices", |b| {
        b.iter(|| black_box(db.read_view()))
    });
}

fn bench_wal_replay(c: &mut Criterion) {
    c.bench_function("netdb/wal_replay_1000_writes", |b| {
        let db = seeded(4, 16);
        let pod = Pattern::from_glob("dc01.pod0[0-3].*").unwrap();
        for i in 0..16 {
            db.set_attr(&pod, "X", i.into()).unwrap();
        }
        let records = db.wal_records();
        b.iter_batched(
            || records.clone(),
            |r| black_box(Store::replay(&r)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_queries, bench_wal_replay);
criterion_main!(benches);
