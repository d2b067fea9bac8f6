//! Failure-injection and misuse tests: wrong configurations must fail fast
//! with clear messages, and a crashing rank must never deadlock the rest.

use dspgemm::core::Exec;
use dspgemm::core::{DistMat, Grid};
use dspgemm::sparse::semiring::U64Plus;
use dspgemm::util::stats::PhaseTimer;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn non_square_rank_count_is_rejected() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        dspgemm_mpi::run(6, |comm| {
            let _ = Grid::new(comm);
        });
    }));
    assert!(result.is_err(), "6 ranks cannot form a square grid");
}

#[test]
fn dimension_mismatch_is_rejected() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        dspgemm_mpi::run(4, |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let a: DistMat<u64> = DistMat::empty(&grid, 8, 9);
            let b: DistMat<u64> = DistMat::empty(&grid, 10, 8); // 9 != 10
            let _ =
                dspgemm::core::summa::summa::<U64Plus>(&grid, &a, &b, &Exec::new(1), &mut timer);
        });
    }));
    assert!(result.is_err(), "inner dimension mismatch must panic");
}

#[test]
fn crashing_rank_poisons_instead_of_deadlocking() {
    // One rank dies mid-collective; the others are blocked in a broadcast
    // that can never complete. The runtime must propagate the failure.
    let started = std::time::Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        dspgemm_mpi::run(4, |comm| {
            if comm.rank() == 1 {
                panic!("injected mid-collective failure");
            }
            // Root 1 never broadcasts; everyone else waits on it.
            let _: u64 = comm.bcast(1, None);
        });
    }));
    assert!(result.is_err());
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "failure must propagate promptly, not deadlock"
    );
}

#[test]
fn crash_during_distributed_update_surfaces() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        dspgemm_mpi::run(4, |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let mut mat: DistMat<u64> = DistMat::empty(&grid, 16, 16);
            if comm.rank() == 3 {
                panic!("rank 3 dies before redistribution");
            }
            // The remaining ranks enter the alltoall and must be woken by
            // the poison rather than waiting for rank 3 forever.
            mat.insert_global_triples(
                &grid,
                vec![dspgemm::sparse::Triple::new(0, 0, 1u64)],
                1,
                &mut timer,
            );
        });
    }));
    assert!(result.is_err());
}

#[test]
fn out_of_range_update_indices_are_rejected_in_debug() {
    // Debug builds assert index ranges during redistribution routing.
    if cfg!(debug_assertions) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            dspgemm_mpi::run(1, |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let mut mat: DistMat<u64> = DistMat::empty(&grid, 4, 4);
                mat.insert_global_triples(
                    &grid,
                    vec![dspgemm::sparse::Triple::new(99, 0, 1u64)],
                    1,
                    &mut timer,
                );
            });
        }));
        assert!(result.is_err());
    }
}
