//! Snapshot-isolation properties of the epoch-versioned serving layer.
//!
//! The contract under test (ISSUE 5 acceptance):
//!
//! * queries pinned at epoch `e` are **bit-identical** to the pre-batch
//!   state while further batches apply — for `p ∈ {1, 4, 9}`, under both
//!   `U64Plus` and `MinPlus`, through algebraic and general batches;
//! * queries after a batch see epoch `e + 1` **exactly**, bit-identical to
//!   a blocking rerun (a from-scratch recomputation of the updated graph);
//! * publishing is copy-on-write: an epoch re-shares (`Arc::ptr_eq`) every
//!   block the batch did not touch;
//! * a delta publish (previous image merged with the change log) is
//!   bit-identical to a fresh conversion of the live block, through
//!   algebraic and general batches, the log bound, direct block edits,
//!   migrations and recovery rollbacks;
//! * retained-epoch memory is bounded by the outstanding pins: with no
//!   pins, exactly one epoch stays alive no matter how many were published.

use dspgemm::analytics::{AnalyticsSession, TriangleCountView, TriangleReading};
use dspgemm::core::distmat::SnapshotPlan;
use dspgemm::core::dyn_general::GeneralUpdates;
use dspgemm::core::engine::DynSpGemm;
use dspgemm::core::grid::Grid;
use dspgemm::core::recovery::RecoveryConfig;
use dspgemm::core::DistMat;
use dspgemm::core::{Exec, RebalanceConfig};
use dspgemm::mpi::{run, CommError};
use dspgemm::sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;
use dspgemm::util::wire::encode_to_vec;
use std::sync::Arc;

fn random_triples<S: Semiring>(
    seed: u64,
    n: Index,
    count: usize,
    mk: impl Fn(u64) -> S::Elem,
) -> Vec<Triple<S::Elem>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
                mk(rng.gen_range(9) + 1),
            )
        })
        .collect()
}

/// Pin epoch 0, drive an algebraic and a general batch through the engine,
/// and assert the pinned epoch is bit-stable while each later epoch equals
/// the blocking rerun.
fn engine_isolation_case<S: Semiring>(p: usize, mk: impl Fn(u64) -> S::Elem + Copy + Send + Sync) {
    let n: Index = 24;
    let out = run(p, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = |s: u64| {
            if comm.rank() == 0 {
                random_triples::<S>(s, n, 80, mk)
            } else {
                vec![]
            }
        };
        let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
        let mut eng = DynSpGemm::<S>::new(&grid, a, b, 1, true);

        // Pin epoch 0 and record its full state.
        let pin0 = eng.snapshot();
        assert_eq!(pin0.epoch(), 0);
        let a0 = pin0.a().gather_to_root(comm);
        let c0 = pin0.c().gather_to_root(comm);
        let probe = (n / 2, n / 3);
        let c0_entry = pin0.c().get_collective(&grid, probe.0, probe.1);

        // Batch 1 (algebraic): pinned epoch must not move.
        eng.apply_algebraic(
            &grid,
            random_triples::<S>(10 + comm.rank() as u64, n, 10, mk),
            random_triples::<S>(20 + comm.rank() as u64, n, 10, mk),
        );
        let pin1 = eng.snapshot();
        assert_eq!(pin1.epoch(), 1);

        // Batch 2 (general): delete a slice of A.
        let a_cur = eng.a.gather_to_root(comm);
        let a_upd = if comm.rank() == 0 {
            let mut upd = GeneralUpdates::new();
            for t in a_cur.unwrap().iter().step_by(7) {
                upd.deletes.push((t.row, t.col));
            }
            upd
        } else {
            GeneralUpdates::new()
        };
        eng.apply_general(&grid, a_upd, GeneralUpdates::new());
        let pin2 = eng.snapshot();
        assert_eq!(pin2.epoch(), 2);

        // Isolation: epoch 0 is bit-identical to its recorded state after
        // two committed batches (gathered matrices and point reads alike).
        assert!(pin0.a().gather_to_root(comm) == a0);
        assert!(pin0.c().gather_to_root(comm) == c0);
        assert!(pin0.c().get_collective(&grid, probe.0, probe.1) == c0_entry);
        // Epoch 1 still differs from epoch 2's A (the general batch
        // deleted), so the pins really are distinct states — judged on the
        // root, the only rank `gather_to_root` materializes on (the gathers
        // themselves are collective: every rank calls both).
        let a1 = pin1.a().gather_to_root(comm);
        let a2 = pin2.a().gather_to_root(comm);
        let distinct = comm.rank() != 0 || a1 != a2;

        // Freshness: the latest epoch equals a blocking rerun — a static
        // SUMMA recomputation of the updated operands.
        let (c_rerun, _) =
            dspgemm::core::summa::summa::<S>(&grid, &eng.a, &eng.b, &Exec::new(1), &mut timer);
        assert!(pin2.c().gather_to_root(comm) == c_rerun.gather_to_root(comm));

        // Live snapshot reads match the pinned latest epoch.
        assert!(
            pin2.c().get_collective(&grid, probe.0, probe.1)
                == c_rerun.get_collective(&grid, probe.0, probe.1)
        );
        distinct
    });
    assert!(
        out.results.iter().all(|&d| d),
        "p={p}: epochs 1 and 2 must be distinct states"
    );
}

#[test]
fn engine_pinned_epochs_bit_stable_u64plus() {
    for p in [1usize, 4, 9] {
        engine_isolation_case::<U64Plus>(p, |v| v);
    }
}

#[test]
fn engine_pinned_epochs_bit_stable_minplus() {
    for p in [1usize, 4, 9] {
        engine_isolation_case::<MinPlus>(p, |v| v as f64);
    }
}

/// A batch that touches only `B` must re-share every rank's `A` block into
/// the next epoch by refcount (`Arc::ptr_eq`), while `C` changes — the
/// block-granular copy-on-write property.
#[test]
fn publish_is_copy_on_write_per_block() {
    let n: Index = 16;
    for p in [1usize, 4] {
        let out = run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            // A = I so C = B: every B update changes C somewhere.
            let ident: Vec<Triple<u64>> = if comm.rank() == 0 {
                (0..n).map(|i| Triple::new(i, i, 1u64)).collect()
            } else {
                vec![]
            };
            let b_feed = if comm.rank() == 0 {
                random_triples::<U64Plus>(5, n, 60, |v| v)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, ident, 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, b_feed, 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
            let s0 = eng.snapshot();
            // Update only B.
            let b_upd = if comm.rank() == 0 {
                random_triples::<U64Plus>(6, n, 20, |v| v)
            } else {
                vec![]
            };
            eng.apply_algebraic(&grid, vec![], b_upd);
            let s1 = eng.snapshot();
            assert_eq!(s1.epoch(), s0.epoch() + 1);
            // A blocks re-shared on every rank; C changed globally.
            let a_shared = Arc::ptr_eq(&s0.a().block_shared(), &s1.a().block_shared());
            let c_changed = s0.c().gather_to_root(comm) != s1.c().gather_to_root(comm);
            (a_shared, c_changed)
        });
        assert!(
            out.results.iter().all(|&(shared, _)| shared),
            "p={p}: A blocks must be COW-shared across epochs"
        );
        assert!(
            out.results[0].1,
            "p={p}: C must actually change (the test is vacuous otherwise)"
        );
    }
}

/// Analytics sessions: queries pinned at epoch `e` stay bit-identical while
/// insert and delete batches commit; post-batch queries see `e + 1` exactly
/// and equal a from-scratch session over the same graph (blocking rerun).
#[test]
fn session_pinned_queries_bit_stable() {
    let n: Index = 20;
    for p in [1usize, 4, 9] {
        let out = run(p, move |comm| {
            let feed = if comm.rank() == 0 {
                let mut tri = Vec::new();
                for (u, v) in [(0u32, 1u32), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)] {
                    tri.push(Triple::new(u, v, 1u64));
                    tri.push(Triple::new(v, u, 1u64));
                }
                tri
            } else {
                vec![]
            };
            let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, feed);
            let tri = session.register(Box::new(TriangleCountView::new()));
            let grid_q = |s: &AnalyticsSession<U64Plus>| {
                (
                    s.product_entry(0, 2),
                    s.product_row_topk(0, 4, |&v| v as f64),
                    s.global_nnz(),
                )
            };

            // Pin after registration.
            let pin = session.pin();
            let e = pin.epoch();
            assert_eq!(session.epoch(), e);
            let before = (
                pin.product_entry(session.grid(), 0, 2),
                pin.product_row_topk(session.grid(), 0, 4, |&v| v as f64),
                pin.global_nnz(session.grid()),
                pin.view_as::<TriangleReading>(tri).unwrap().count(),
            );
            let live_before = grid_q(&session);

            // Batch 1: inserts closing new triangles. Epoch advances by 1.
            let ins = if comm.rank() == 0 {
                vec![
                    Triple::new(4u32, 5u32, 1u64),
                    Triple::new(5, 4, 1),
                    Triple::new(3, 5, 1),
                    Triple::new(5, 3, 1),
                ]
            } else {
                vec![]
            };
            session.insert_edges(ins);
            assert_eq!(session.epoch(), e + 1);
            // Batch 2: delete an edge (general path). Epoch advances again.
            session.delete_edges(if comm.rank() == 0 {
                vec![(0, 1), (1, 0)]
            } else {
                vec![]
            });
            assert_eq!(session.epoch(), e + 2);

            // Isolation: the pinned epoch answers exactly as before.
            let after = (
                pin.product_entry(session.grid(), 0, 2),
                pin.product_row_topk(session.grid(), 0, 4, |&v| v as f64),
                pin.global_nnz(session.grid()),
                pin.view_as::<TriangleReading>(tri).unwrap().count(),
            );
            assert!(after == before, "pinned epoch moved under batches");
            // The live session moved on (the batches were not a no-op).
            let live_after = grid_q(&session);
            assert!(live_after != live_before);

            // Freshness: a from-scratch session over the updated graph (the
            // blocking rerun) agrees bit-identically with the latest epoch.
            let latest = session.pin();
            let a_now = latest.adjacency().gather_to_root(comm);
            let rerun =
                AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, a_now.unwrap_or_default());
            let rerun_pin = rerun.pin();
            assert!(
                latest.product().gather_to_root(comm) == rerun_pin.product().gather_to_root(comm)
            );
            true
        });
        assert!(out.results.iter().all(|&x| x), "p={p}");
    }
}

/// Retention regression: with no outstanding pins exactly one epoch stays
/// alive however many batches commit, and the live footprint is the latest
/// epoch's alone; a held pin keeps exactly one extra epoch alive until
/// dropped.
#[test]
fn retention_bounded_by_pins() {
    let n: Index = 20;
    let out = run(4, move |comm| {
        let feed = if comm.rank() == 0 {
            random_triples::<U64Plus>(3, n, 120, |v| v)
        } else {
            vec![]
        };
        let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, feed);
        // Six unpinned batches: old epochs must die as they are superseded.
        for round in 0..6u64 {
            let ins = if comm.rank() == 0 {
                random_triples::<U64Plus>(40 + round, n, 8, |v| v)
            } else {
                vec![]
            };
            session.insert_edges(ins);
            assert_eq!(session.snapshots().retained(), 1, "round {round}");
        }
        let solo_bytes: usize = {
            let mut seen = Vec::new();
            session
                .snapshots()
                .live()
                .iter()
                .map(|s| s.heap_bytes_unshared(&mut seen))
                .sum()
        };
        let latest_bytes = session.pin().heap_bytes();
        assert_eq!(solo_bytes, latest_bytes, "no-pin footprint = latest epoch");

        // Hold a pin across three batches: exactly one extra epoch lives,
        // and the combined unshared footprint stays within 2x the latest
        // epoch (shared COW blocks are charged once).
        let pin = session.pin();
        for round in 0..3u64 {
            let ins = if comm.rank() == 0 {
                random_triples::<U64Plus>(60 + round, n, 8, |v| v)
            } else {
                vec![]
            };
            session.insert_edges(ins);
            assert_eq!(session.snapshots().retained(), 2);
        }
        let pinned_bytes: usize = {
            let mut seen = Vec::new();
            session
                .snapshots()
                .live()
                .iter()
                .map(|s| s.heap_bytes_unshared(&mut seen))
                .sum()
        };
        let latest_bytes = session.pin().heap_bytes();
        assert!(
            pinned_bytes <= 2 * latest_bytes,
            "retained footprint {pinned_bytes} exceeds 2x latest {latest_bytes}"
        );
        drop(pin);
        // The pinned epoch dies with its last handle — no publish needed.
        assert_eq!(session.snapshots().retained(), 1);
        assert_eq!(session.snapshots().published(), 1 + 6 + 3);
        true
    });
    assert!(out.results.iter().all(|&x| x));
}

/// A published `C` block must equal a fresh conversion of the live block,
/// compared on the wire encoding (bit for bit, `f64` signs included).
fn published_exact<V: dspgemm::core::distmat::Elem>(
    published: &dspgemm::core::SnapshotMat<V>,
    live: &DistMat<V>,
) -> bool {
    encode_to_vec(published.block()) == encode_to_vec(&live.block().to_csr())
}

/// Rank-uniform draw of how many batches run before the next publish (1–5).
fn batches_before_publish(rng: &mut SplitMix64) -> u64 {
    rng.gen_range(5) + 1
}

/// Algebraic `(+,·)` batches with 1–5 batches between publishes: every
/// published `C` block equals `block().to_csr()`. Then a stream of
/// unpublished batches crosses the log bound (the log is dropped and the
/// publish rebuilds), and a direct `block_mut()` edit forces a rebuild.
#[test]
fn delta_publish_bit_identical_algebraic() {
    let n: Index = 24;
    for p in [1usize, 4] {
        let out = run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples::<U64Plus>(s, n, 60, |v| v)
                } else {
                    vec![]
                }
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
            let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, p == 4);
            let mut shared = SplitMix64::new(99);
            let mut seed = 1000 + 100 * comm.rank() as u64;
            let mut batch = |eng: &mut DynSpGemm<U64Plus>| {
                seed += 1;
                eng.apply_algebraic(
                    &grid,
                    random_triples::<U64Plus>(seed, n, 6, |v| v),
                    random_triples::<U64Plus>(seed + 50, n, 6, |v| v),
                );
            };
            let mut merged = false;
            for _ in 0..8 {
                for _ in 0..batches_before_publish(&mut shared) {
                    batch(&mut eng);
                }
                merged |= matches!(eng.c.snapshot_plan(), SnapshotPlan::Merge(_));
                let snap = eng.publish();
                assert!(published_exact(snap.c(), &eng.c), "p={p}: merged publish");
            }
            // A long unpublished stream crosses the bound: the log is
            // dropped and the next publish rebuilds.
            let mut crossed = false;
            for _ in 0..20 {
                let before = eng.c.snapshot_plan();
                batch(&mut eng);
                crossed |= matches!(before, SnapshotPlan::Merge(_))
                    && eng.c.snapshot_plan() == SnapshotPlan::Rebuild;
            }
            let snap = eng.publish();
            assert!(published_exact(snap.c(), &eng.c), "p={p}: after the bound");
            // A logged batch, then a direct edit: the conservative path.
            batch(&mut eng);
            let v = eng.c.block().get(0, 0).unwrap_or(0) + 7;
            eng.c.block_mut().set(0, 0, v);
            assert_eq!(eng.c.snapshot_plan(), SnapshotPlan::Rebuild);
            let snap = eng.publish();
            assert!(published_exact(snap.c(), &eng.c), "p={p}: after block_mut");
            (merged, crossed)
        });
        assert!(
            out.results.iter().any(|&(merged, _)| merged),
            "p={p}: no publish took the merge path"
        );
        assert!(
            out.results.iter().any(|&(_, crossed)| crossed),
            "p={p}: no rank's log crossed the bound"
        );
    }
}

/// General `(min,+)` batches — removals and re-weights of `A` repaired by
/// Algorithm 2 — with 1–5 batches between publishes: the repair merge's
/// `set`/`remove` log reproduces `block().to_csr()` exactly.
#[test]
fn delta_publish_bit_identical_general_minplus() {
    let n: Index = 24;
    for p in [1usize, 4] {
        let out = run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples::<MinPlus>(s, n, 90, |v| v as f64)
                } else {
                    vec![]
                }
            };
            let a = DistMat::from_global_triples(&grid, n, n, feed(3), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, feed(4), 1, &mut timer);
            let mut eng = DynSpGemm::<MinPlus>::new(&grid, a, b, 1, true);
            let mut shared = SplitMix64::new(7);
            let mut rng = SplitMix64::new(500 + comm.rank() as u64);
            let mut merged = false;
            for _ in 0..6 {
                for _ in 0..batches_before_publish(&mut shared) {
                    let mut upd = GeneralUpdates::new();
                    for t in eng.a.to_global_triples() {
                        match rng.gen_range(6) {
                            0 => upd.deletes.push((t.row, t.col)),
                            1 => upd.sets.push(Triple::new(
                                t.row,
                                t.col,
                                (rng.gen_range(9) + 1) as f64,
                            )),
                            _ => {}
                        }
                    }
                    eng.apply_general(&grid, upd, GeneralUpdates::new());
                }
                merged |= matches!(eng.c.snapshot_plan(), SnapshotPlan::Merge(_));
                let snap = eng.publish();
                assert!(published_exact(snap.c(), &eng.c), "p={p}");
            }
            merged
        });
        assert!(
            out.results.iter().any(|&m| m),
            "p={p}: no publish took the merge path"
        );
    }
}

/// Migrations through `maybe_rebalance` drop the image of every rank whose
/// ranges moved; publishes before and after stay exact.
#[test]
fn delta_publish_bit_identical_across_migration() {
    let n: Index = 36;
    let out = run(4, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let mine: Vec<Triple<u64>> = if comm.rank() == 0 {
            (0..n).map(|i| Triple::new(i, (i + 1) % n, 1u64)).collect()
        } else {
            vec![]
        };
        let a = DistMat::from_global_triples(&grid, n, n, mine.clone(), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, mine, 1, &mut timer);
        let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
        eng.enable_rebalancing(RebalanceConfig {
            threshold: 1.05,
            cooldown: 0,
        });
        // Corner-concentrated batches: the load piles onto one rank until
        // the cuts move.
        let hot = (n / 6) as u64;
        let mut rng = SplitMix64::new(0xBEEF ^ comm.rank() as u64);
        for _ in 0..5 {
            let batch: Vec<Triple<u64>> = (0..40)
                .map(|_| Triple::new(rng.gen_range(hot) as Index, rng.gen_range(hot) as Index, 1))
                .collect();
            eng.apply_algebraic(&grid, batch.clone(), batch);
            eng.maybe_rebalance(&grid);
            let snap = eng.publish();
            assert!(published_exact(snap.c(), &eng.c));
        }
        eng.rebalancer().expect("enabled").migrations()
    });
    assert!(out.results[0] >= 1, "the skewed stream must migrate");
}

/// A rank crashes mid-batch; survivors roll back to their anchor images
/// (`restore_image`: image installed with an empty log) and the crashed
/// rank rebuilds from its buddy's replica. Every publish before and after
/// the rollback stays exact.
#[test]
fn delta_publish_bit_identical_through_recovery() {
    let n: Index = 20;
    let out = run(4, move |comm| {
        let grid = Grid::new(comm);
        let me = comm.rank();
        let mut timer = PhaseTimer::new();
        let feed = |s: u64| {
            if me == 0 {
                random_triples::<U64Plus>(s, n, 60, |v| v)
            } else {
                vec![]
            }
        };
        let a = DistMat::from_global_triples(&grid, n, n, feed(1), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, n, n, feed(2), 1, &mut timer);
        let cfg = RecoveryConfig::default();
        let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
        eng.enable_recovery(&grid, cfg);
        let mut batch = 0u64;
        let mut armed = false;
        let mut recovered = false;
        while batch < 6 {
            if me == 1 && batch == 3 && !armed {
                comm.arm_crash(1);
                armed = true;
            }
            let s = 3000 + batch * 97 + me as u64;
            let (a_ups, b_ups) = (
                random_triples::<U64Plus>(s, n, 5, |v| v),
                random_triples::<U64Plus>(s + 7, n, 5, |v| v),
            );
            match eng.try_apply_algebraic(&grid, a_ups, b_ups) {
                Ok(()) => {
                    let snap = eng.publish();
                    assert!(published_exact(snap.c(), &eng.c), "batch {batch}");
                    batch += 1;
                }
                Err(CommError::PeerFailed { .. }) => {
                    batch = eng.recover(&grid).committed_publishes - 1;
                    recovered = true;
                }
                Err(CommError::Crashed { .. }) => {
                    let (e2, report) =
                        DynSpGemm::<U64Plus>::recover_as_replacement(&grid, Exec::new(1), cfg);
                    eng = e2;
                    batch = report.committed_publishes - 1;
                    recovered = true;
                }
                Err(other) => panic!("unexpected comm error: {other}"),
            }
        }
        recovered
    });
    assert!(out.results.iter().all(|&r| r), "every rank must recover");
}

/// Analytics sessions publish per commit through the same path: the
/// shared-operand `C += C*` and the general repair both log, and each
/// pinned product block equals the live block's fresh conversion.
#[test]
fn delta_publish_bit_identical_session() {
    let n: Index = 20;
    for p in [1usize, 4] {
        let out = run(p, move |comm| {
            let feed = if comm.rank() == 0 {
                random_triples::<U64Plus>(11, n, 80, |_| 1)
            } else {
                vec![]
            };
            let mut session = AnalyticsSession::<U64Plus>::from_triples(comm, n, 1, feed);
            let mut rng = SplitMix64::new(21 + comm.rank() as u64);
            for round in 0..6 {
                if round % 2 == 0 {
                    session.insert_edges(random_triples::<U64Plus>(
                        40 + round + 10 * comm.rank() as u64,
                        n,
                        4,
                        |_| 1,
                    ));
                } else {
                    let dels = (0..3)
                        .map(|_| {
                            (
                                rng.gen_range(n as u64) as Index,
                                rng.gen_range(n as u64) as Index,
                            )
                        })
                        .collect();
                    session.delete_edges(dels);
                }
                assert!(published_exact(session.pin().product(), session.product()));
            }
            true
        });
        assert!(out.results.iter().all(|&x| x), "p={p}");
    }
}
