//! Communication-avoiding round invariants, end to end (Section V-C +
//! inter-batch lookahead): virtual transposition must produce a `C`
//! **bit-identical** to the physical transpose-exchange schedule while
//! sending **zero** p2p bytes (the exchange is that path's only p2p
//! traffic), and the depth-1 redistribution lookahead must leave both the
//! epoch sequence and the metered wire volume identical to sequential
//! application — across p ∈ {1, 4, 9} and both evaluated semirings.

use dspgemm::core::dyn_algebraic::TransposeMode;
use dspgemm::core::{DistMat, DynSpGemm, Grid};
use dspgemm::mpi::CommCategory;
use dspgemm::sparse::semiring::{MinPlus, Semiring, U64Plus};
use dspgemm::sparse::{Index, Triple};
use dspgemm::util::rng::{Rng, SplitMix64};
use dspgemm::util::stats::PhaseTimer;

const N: Index = 32;
const BATCHES: usize = 3;

fn random_triples<S: Semiring>(
    seed: u64,
    n: Index,
    count: usize,
    val: impl Fn(u64) -> S::Elem,
) -> Vec<Triple<S::Elem>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            Triple::new(
                rng.gen_range(n as u64) as Index,
                rng.gen_range(n as u64) as Index,
                val(rng.gen_range(9) + 1),
            )
        })
        .collect()
}

/// Root gathers of `C` after each batch (None off-root).
type GatheredEpochs<E> = Vec<Option<Vec<Triple<E>>>>;

/// One full dynamic session in the given transpose mode: initial product,
/// then `BATCHES` algebraic batches applied sequentially, gathering `C`
/// after every batch.
fn run_mode<S: Semiring>(
    p: usize,
    mode: TransposeMode,
    val: impl Fn(u64) -> S::Elem + Send + Sync + Copy,
) -> dspgemm::mpi::SimOutput<GatheredEpochs<S::Elem>> {
    dspgemm::mpi::run(p, move |comm| {
        let grid = Grid::new(comm);
        let mut timer = PhaseTimer::new();
        let feed = |seed: u64, count: usize| {
            if comm.rank() == 0 {
                random_triples::<S>(seed, N, count, val)
            } else {
                vec![]
            }
        };
        let a = DistMat::from_global_triples(&grid, N, N, feed(11, 250), 1, &mut timer);
        let b = DistMat::from_global_triples(&grid, N, N, feed(12, 250), 1, &mut timer);
        let mut eng = DynSpGemm::<S>::new(&grid, a, b, 1, false);
        eng.exec.transpose = mode;
        let mut gathered = Vec::new();
        for k in 0..BATCHES as u64 {
            eng.apply_algebraic(&grid, feed(100 + k, 60), feed(200 + k, 60));
            eng.snapshot();
            gathered.push(eng.c.gather_to_root(comm));
        }
        gathered
    })
}

/// Virtual vs. physical: bit-identical `C` after every batch, and the
/// transpose exchange gone from the wire — zero p2p bytes on the virtual
/// arm vs. strictly positive on the physical arm whenever ranks actually
/// have off-rank round partners (p > 1).
fn check_virtual_matches_physical<S: Semiring>(val: impl Fn(u64) -> S::Elem + Send + Sync + Copy)
where
    S::Elem: PartialEq + std::fmt::Debug,
{
    for p in [1usize, 4, 9] {
        let physical = run_mode::<S>(p, TransposeMode::Physical, val);
        let virtual_ = run_mode::<S>(p, TransposeMode::Virtual, val);
        assert_eq!(
            physical.results, virtual_.results,
            "p={p}: virtual transposition changed C"
        );
        let phys_p2p = physical.stats.bytes_in(CommCategory::P2p);
        let virt_p2p = virtual_.stats.bytes_in(CommCategory::P2p);
        assert_eq!(virt_p2p, 0, "p={p}: virtual arm paid a transpose exchange");
        if p > 1 {
            assert!(
                phys_p2p > virt_p2p,
                "p={p}: physical arm sent no transpose-exchange bytes ({phys_p2p})"
            );
        }
    }
}

#[test]
fn virtual_transposition_matches_physical_u64plus() {
    check_virtual_matches_physical::<U64Plus>(|v| v);
}

#[test]
fn virtual_transposition_matches_physical_minplus() {
    check_virtual_matches_physical::<MinPlus>(|v| v as f64);
}

/// Lookahead vs. sequential, epochs published per batch: callers flush the
/// pending batch before each snapshot, so the published epoch sequence —
/// numbers and contents — must equal sequential application exactly, with
/// byte-identical wire volume.
#[test]
fn lookahead_epoch_sequence_matches_sequential() {
    for p in [1usize, 4, 9] {
        let arm = |lookahead: bool| {
            dspgemm::mpi::run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = |seed: u64, count: usize| {
                    if comm.rank() == 0 {
                        random_triples::<U64Plus>(seed, N, count, |v| v)
                    } else {
                        vec![]
                    }
                };
                let a = DistMat::from_global_triples(&grid, N, N, feed(31, 250), 1, &mut timer);
                let b = DistMat::from_global_triples(&grid, N, N, feed(32, 250), 1, &mut timer);
                let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
                let mut epochs = Vec::new();
                for k in 0..BATCHES as u64 {
                    if lookahead {
                        eng.submit_algebraic(&grid, feed(300 + k, 60), feed(400 + k, 60));
                        assert!(eng.pending_depth() <= 1, "lookahead depth exceeded 1");
                        eng.flush(&grid);
                        // A second flush must be a no-op (idempotence).
                        eng.flush(&grid);
                    } else {
                        eng.apply_algebraic(&grid, feed(300 + k, 60), feed(400 + k, 60));
                    }
                    let snap = eng.snapshot();
                    epochs.push((snap.epoch(), eng.c.gather_to_root(comm)));
                }
                epochs
            })
        };
        let sequential = arm(false);
        let lookahead = arm(true);
        assert_eq!(
            sequential.results, lookahead.results,
            "p={p}: epoch sequence diverged"
        );
        assert_eq!(
            sequential.stats.volume(),
            lookahead.stats.volume(),
            "p={p}: lookahead moved wire bytes"
        );
    }
}

/// Fully pipelined lookahead (one flush at the end, redistributions in
/// flight across whole batch applications): final `C` and wire volume
/// still identical to sequential, and the pending depth stays bounded at
/// 1 no matter how many batches are submitted back to back — batch `k`'s
/// apply (the "slow" part) always runs before batch `k + 1` is accepted.
#[test]
fn lookahead_depth_bounded_and_wire_identical() {
    for p in [1usize, 4, 9] {
        let arm = |lookahead: bool| {
            dspgemm::mpi::run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = |seed: u64, count: usize| {
                    if comm.rank() == 0 {
                        random_triples::<U64Plus>(seed, N, count, |v| v)
                    } else {
                        vec![]
                    }
                };
                let a = DistMat::from_global_triples(&grid, N, N, feed(51, 250), 1, &mut timer);
                let b = DistMat::from_global_triples(&grid, N, N, feed(52, 250), 1, &mut timer);
                let mut eng = DynSpGemm::<U64Plus>::new(&grid, a, b, 1, false);
                for k in 0..BATCHES as u64 {
                    if lookahead {
                        eng.submit_algebraic(&grid, feed(500 + k, 60), feed(600 + k, 60));
                        assert_eq!(
                            eng.pending_depth(),
                            1,
                            "submit must leave exactly one batch in flight"
                        );
                    } else {
                        eng.apply_algebraic(&grid, feed(500 + k, 60), feed(600 + k, 60));
                    }
                }
                if lookahead {
                    eng.flush(&grid);
                    assert_eq!(eng.pending_depth(), 0, "flush must drain the slot");
                }
                let snap = eng.snapshot();
                (snap.epoch(), eng.c.gather_to_root(comm))
            })
        };
        let sequential = arm(false);
        let lookahead = arm(true);
        assert_eq!(
            sequential.results, lookahead.results,
            "p={p}: pipelined C diverged from sequential"
        );
        assert_eq!(
            sequential.stats.volume(),
            lookahead.stats.volume(),
            "p={p}: pipelining moved wire bytes"
        );
    }
}
