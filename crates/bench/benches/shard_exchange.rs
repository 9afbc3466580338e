//! The sharded engine's cross-shard machinery, in isolation and end
//! to end:
//!
//! * `delivery_order/N` — the seeded exchange permutation per tick.
//! * `proposal_fold/N` — folding N shards' proposals for a 4096-pod
//!   round to the global argmin.
//! * `engine_day/{hosts}x{shards}` — a full one-day scale run (the
//!   `repro scale` arm body), the number the BENCH_scale baseline
//!   gates in CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use optum_shard::{delivery_order, Proposal, ScaleEngine, ScaleSimConfig};
use optum_trace::{generate_scale, ScaleWorkloadConfig};
use optum_types::TICKS_PER_DAY;

fn exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_exchange");

    for shards in [4usize, 16, 64] {
        group.bench_function(BenchmarkId::new("delivery_order", shards), |b| {
            let mut tick = 0u64;
            let mut order = Vec::new();
            b.iter(|| {
                tick += 1;
                delivery_order(42, tick, shards, &mut order);
                std::hint::black_box(&order);
            });
        });
    }

    for shards in [4usize, 16] {
        // One round's worth of proposals: sparse `(request, proposal)`
        // pairs for 4096 requests from each of `shards` outboxes,
        // folded to a winner per request.
        let outboxes: Vec<Vec<(u32, Proposal)>> = (0..shards)
            .map(|s| {
                (0..4096)
                    .filter(|i| i % 7 != 0)
                    .map(|i| {
                        let score = ((i * 31 + s * 17) % 1000) as f64 / 1000.0;
                        let node = (i * shards + s) as u32;
                        (i as u32, Proposal { score, node })
                    })
                    .collect()
            })
            .collect();
        group.bench_function(BenchmarkId::new("proposal_fold", shards), |b| {
            b.iter(|| {
                let mut winners: Vec<Option<Proposal>> = vec![None; 4096];
                for ob in &outboxes {
                    for &(i, p) in ob {
                        let w = &mut winners[i as usize];
                        *w = Proposal::merge(*w, Some(p));
                    }
                }
                std::hint::black_box(winners)
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("shard_engine");
    group.sample_size(10);
    for (hosts, shards) in [(1024usize, 1usize), (1024, 4), (4096, 4)] {
        let pods = generate_scale(&ScaleWorkloadConfig::sized(hosts, 1, 42));
        group.bench_function(
            BenchmarkId::new("engine_day", format!("{hosts}x{shards}")),
            |b| {
                b.iter(|| {
                    let cfg = ScaleSimConfig::new(hosts, shards, TICKS_PER_DAY);
                    std::hint::black_box(ScaleEngine::new(&pods, cfg).run())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, exchange);
criterion_main!(benches);
