//! Criterion microbenches of the DHB dynamic block: insert / lookup / delete
//! against the standard-library map alternatives (the constant factors
//! behind Figs. 4–5), and the two ways to publish a block's CSR image.

use criterion::{criterion_group, criterion_main, Criterion};
use dspgemm_sparse::{Dcsr, DhbMatrix, Index};
use dspgemm_util::rng::{Rng, SplitMix64};
use std::collections::{BTreeMap, HashMap};

fn coords(seed: u64, n: Index, count: usize) -> Vec<(Index, Index)> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
            )
        })
        .collect()
}

fn bench_dhb(c: &mut Criterion) {
    let n: Index = 8192;
    let ops = coords(7, n, 100_000);
    let mut group = c.benchmark_group("dhb");
    group.sample_size(10);
    group.bench_function("dhb_insert_100k", |b| {
        b.iter(|| {
            let mut m: DhbMatrix<f64> = DhbMatrix::new(n, n);
            for &(r, cc) in &ops {
                m.set(r, cc, 1.0);
            }
            m.nnz()
        })
    });
    group.bench_function("hashmap_insert_100k", |b| {
        b.iter(|| {
            let mut m: HashMap<(Index, Index), f64> = HashMap::new();
            for &(r, cc) in &ops {
                m.insert((r, cc), 1.0);
            }
            m.len()
        })
    });
    group.bench_function("btreemap_insert_100k", |b| {
        b.iter(|| {
            let mut m: BTreeMap<(Index, Index), f64> = BTreeMap::new();
            for &(r, cc) in &ops {
                m.insert((r, cc), 1.0);
            }
            m.len()
        })
    });
    // Lookup-heavy phase on a populated matrix.
    let mut m: DhbMatrix<f64> = DhbMatrix::new(n, n);
    for &(r, cc) in &ops {
        m.set(r, cc, 1.0);
    }
    let probes = coords(8, n, 100_000);
    group.bench_function("dhb_lookup_100k", |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|&&(r, cc)| m.get(r, cc).is_some())
                .count()
        })
    });
    group.bench_function("dhb_delete_insert_churn", |b| {
        b.iter(|| {
            let mut m2 = m.clone();
            for &(r, cc) in probes.iter().take(20_000) {
                m2.remove(r, cc);
                m2.set(cc, r, 2.0);
            }
            m2.nnz()
        })
    });
    group.finish();
}

/// Epoch publish of a skewed block (row degrees falling off like a power
/// law) after a batch changed about 30% of its entries — re-weights plus a
/// few insertions and removals: a full rebuild from the DHB block against
/// merging the previous image with the sorted change log.
fn bench_publish(c: &mut Criterion) {
    let (n, cols): (Index, Index) = (8192, 8192);
    let mut rng = SplitMix64::new(11);
    let mut m: DhbMatrix<f64> = DhbMatrix::new(n, cols);
    for _ in 0..400_000 {
        let u = rng.gen_range(1 << 20) as f64 / (1 << 20) as f64;
        let r = (n as f64 * u * u * u) as Index;
        m.set(r, rng.gen_range(cols as u64) as Index, 1.0);
    }
    let image = m.to_csr();
    let mut delta = Dcsr::empty(n, cols);
    for r in 0..n {
        let (rcols, _) = image.row(r);
        let mut changed: Vec<(Index, Option<f64>)> = Vec::new();
        for &cc in rcols {
            match rng.gen_range(100) {
                0 => changed.push((cc, None)),
                1..=29 => changed.push((cc, Some(2.0))),
                _ => {}
            }
        }
        if rng.gen_range(4) == 0 {
            changed.push((rng.gen_range(cols as u64) as Index, Some(3.0)));
        }
        changed.sort_unstable_by_key(|&(cc, _)| cc);
        changed.dedup_by_key(|&mut (cc, _)| cc);
        for (cc, v) in changed {
            match v {
                Some(v) => m.set(r, cc, v),
                None => m.remove(r, cc).is_some(),
            };
            delta.push_row_entry(r, cc, v);
        }
    }
    assert_eq!(image.apply_delta(&delta), m.to_csr());
    let mut group = c.benchmark_group("publish");
    group.sample_size(10);
    group.bench_function("full_rebuild_30pct", |b| b.iter(|| m.to_csr().nnz()));
    group.bench_function("delta_merge_30pct", |b| {
        b.iter(|| image.apply_delta(&delta).nnz())
    });
    group.finish();
}

criterion_group!(benches, bench_dhb, bench_publish);
criterion_main!(benches);
