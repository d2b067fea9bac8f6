//! End-to-end integration tests: the dynamic engine must agree with a
//! static recomputation after arbitrary update sequences, on every semiring
//! and grid size.

use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::engine::DynSpGemm;
use dspgemm::core::summa::summa;
use dspgemm::core::Exec;
use dspgemm::core::{DistMat, Grid};
use dspgemm::sparse::dense::Dense;
use dspgemm::sparse::semiring::{BoolOrAnd, F64Plus, MinPlus, Semiring, U64Plus};
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;

fn random_triples<S, F>(seed: u64, n: Index, count: usize, mut value: F) -> Vec<Triple<S::Elem>>
where
    S: Semiring,
    F: FnMut(&mut SplitMix64) -> S::Elem,
{
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let r = rng.gen_range(n as u64) as Index;
            let c = rng.gen_range(n as u64) as Index;
            let v = value(&mut rng);
            Triple::new(r, c, v)
        })
        .collect()
}

/// Generic scenario: initial A, B; three algebraic batches; verify
/// C == static(A'·B') via gather + dense compare.
fn algebraic_scenario<S, F>(p: usize, n: Index, seed: u64, value: F)
where
    S: Semiring,
    F: FnMut(&mut SplitMix64) -> S::Elem + Clone + Send + Sync,
{
    let out = dspgemm_mpi::run(p, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mut value = value.clone();
        let feed = |s: u64, value: &mut F| {
            if comm.rank() == 0 {
                random_triples::<S, _>(s, n, 4 * n as usize, |rng| value(rng))
            } else {
                vec![]
            }
        };
        let a_t = feed(seed, &mut value);
        let b_t = feed(seed + 1, &mut value);
        let a = DistMat::from_global_triples(&grid, n, n, a_t, 2, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, b_t, 2, &mut timer);
        let mut eng = DynSpGemm::<S>::new(&grid, a, b, 2, false);
        for round in 0..3u64 {
            let a_ups =
                random_triples::<S, _>(seed + 10 + round * 3 + comm.rank() as u64, n, 10, |rng| {
                    value(rng)
                });
            let b_ups =
                random_triples::<S, _>(seed + 50 + round * 3 + comm.rank() as u64, n, 10, |rng| {
                    value(rng)
                });
            eng.apply_algebraic(&grid, a_ups, b_ups);
        }
        let (c_static, _) = summa::<S>(&grid, &eng.a, &eng.b, &Exec::new(2), &mut timer);
        (eng.c.gather_to_root(comm), c_static.gather_to_root(comm))
    });
    let (c_dyn, c_static) = &out.results[0];
    let dd = Dense::from_triples::<S>(n, n, c_dyn.as_ref().unwrap());
    let ds = Dense::from_triples::<S>(n, n, c_static.as_ref().unwrap());
    assert_eq!(
        dd.diff(&ds),
        vec![],
        "semiring {} p={p}: dynamic != static",
        S::name()
    );
}

#[test]
fn algebraic_u64_plus_all_grids() {
    for p in [1, 4, 9] {
        algebraic_scenario::<U64Plus, _>(p, 24, 100, |rng| rng.gen_range(5) + 1);
    }
}

#[test]
fn algebraic_f64_plus_integer_values() {
    // Integer-valued floats keep the comparison exact across orderings.
    for p in [1, 4] {
        algebraic_scenario::<F64Plus, _>(p, 24, 200, |rng| (rng.gen_range(5) + 1) as f64);
    }
}

#[test]
fn algebraic_min_plus_insert_only() {
    // Insertions of fresh entries and re-inserts of lower values are
    // algebraic under (min,+).
    for p in [1, 4] {
        algebraic_scenario::<MinPlus, _>(p, 24, 300, |rng| (rng.gen_range(50) + 1) as f64);
    }
}

#[test]
fn algebraic_bool_or_and() {
    for p in [1, 4] {
        algebraic_scenario::<BoolOrAnd, _>(p, 24, 400, |_| true);
    }
}

/// General scenario under (min,+): sets that increase values + deletions,
/// interleaved with algebraic batches, on a filter-tracking session.
#[test]
fn mixed_algebraic_and_general_min_plus() {
    let n: Index = 20;
    for p in [1usize, 4, 9] {
        let out = dspgemm_mpi::run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples::<MinPlus, _>(s, n, 60, |rng| (rng.gen_range(9) + 1) as f64)
                } else {
                    vec![]
                }
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
            let mut eng = DynSpGemm::<MinPlus>::new(&grid, a, b, 1, true);
            for round in 0..2u64 {
                // Algebraic batch (inserts).
                eng.apply_algebraic(
                    &grid,
                    random_triples::<MinPlus, _>(10 + round + comm.rank() as u64, n, 6, |rng| {
                        (rng.gen_range(9) + 1) as f64
                    }),
                    vec![],
                );
                // General batch: increase some existing values + delete some.
                let cur = eng.a.gather_to_root(comm);
                let upd = if comm.rank() == 0 {
                    let cur = cur.unwrap();
                    let mut rng = SplitMix64::new(77 + round);
                    let mut upd = GeneralUpdates::new();
                    for _ in 0..4 {
                        if !cur.is_empty() {
                            let t = cur[rng.gen_index(cur.len())];
                            upd.sets.push(Triple::new(t.row, t.col, t.val + 10.0));
                            let d = cur[rng.gen_index(cur.len())];
                            upd.deletes.push((d.row, d.col));
                        }
                    }
                    upd
                } else {
                    GeneralUpdates::new()
                };
                eng.apply_general(&grid, upd, GeneralUpdates::new());
            }
            let (c_static, _) = summa::<MinPlus>(&grid, &eng.a, &eng.b, &Exec::new(1), &mut timer);
            (eng.c.gather_to_root(comm), c_static.gather_to_root(comm))
        });
        let (c_dyn, c_static) = &out.results[0];
        let dd = Dense::from_triples::<MinPlus>(n, n, c_dyn.as_ref().unwrap());
        let ds = Dense::from_triples::<MinPlus>(n, n, c_static.as_ref().unwrap());
        assert_eq!(dd.diff(&ds), vec![], "p={p}");
    }
}

#[test]
fn determinism_across_runs() {
    let run_once = || {
        let out = dspgemm_mpi::run(4, |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = if comm.rank() == 0 {
                random_triples::<U64Plus, _>(9, 30, 100, |rng| rng.gen_range(9) + 1)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, 30, 30, feed.clone(), 2, &mut timer);
            let b = DistMat::from_global_triples(&grid, 30, 30, feed, 2, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 2, false);
            eng.apply_algebraic(
                &grid,
                random_triples::<U64Plus, _>(11 + comm.rank() as u64, 30, 20, |rng| {
                    rng.gen_range(9) + 1
                }),
                vec![],
            );
            eng.c.gather_to_root(comm)
        });
        out.results[0].clone()
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn rectangular_matrices() {
    // Non-square shapes and grid-unaligned dimensions.
    let (n, k, m): (Index, Index, Index) = (17, 23, 11);
    let out = dspgemm_mpi::run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let a_t = if comm.rank() == 0 {
            let mut rng = SplitMix64::new(5);
            (0..80)
                .map(|_| {
                    Triple::new(
                        rng.gen_range(n as u64) as Index,
                        rng.gen_range(k as u64) as Index,
                        rng.gen_range(4) + 1,
                    )
                })
                .collect::<Vec<Triple<u64>>>()
        } else {
            vec![]
        };
        let b_t = if comm.rank() == 0 {
            let mut rng = SplitMix64::new(6);
            (0..80)
                .map(|_| {
                    Triple::new(
                        rng.gen_range(k as u64) as Index,
                        rng.gen_range(m as u64) as Index,
                        rng.gen_range(4) + 1,
                    )
                })
                .collect::<Vec<Triple<u64>>>()
        } else {
            vec![]
        };
        let a = DistMat::from_global_triples(&grid, n, k, a_t, 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, k, m, b_t, 1, &mut timer);
        let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
        let ups = if comm.rank() == 1 {
            vec![Triple::new(0, 0, 3u64), Triple::new(16, 22, 4)]
        } else {
            vec![]
        };
        eng.apply_algebraic(&grid, ups, vec![]);
        let (c_static, _) = summa::<U64Plus>(&grid, &eng.a, &eng.b, &Exec::new(1), &mut timer);
        (eng.c.gather_to_root(comm), c_static.gather_to_root(comm))
    });
    let (c_dyn, c_static) = &out.results[0];
    assert_eq!(c_dyn, c_static);
}
