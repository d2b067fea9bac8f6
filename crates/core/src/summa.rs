//! Static sparse SUMMA — the baseline SpGEMM and the producer of the initial
//! product.
//!
//! SUMMA runs `√p` rounds; in round `k` the blocks `A_{i,k}` are broadcast
//! along process rows and `B_{k,j}` along process columns, every rank
//! multiplies the received pair locally, and the partial results accumulate
//! *locally* into `C_{i,j}` (Section V: "the aggregation of partial results
//! into block (i,j) of the result is entirely local"). Its communication
//! volume is `O((nnz(A) + nnz(B))/√p)` — the full operands travel — which is
//! exactly what the dynamic algorithms avoid.
//!
//! [`summa_bloom`] additionally produces the Bloom filter matrix `F`
//! recording contributing inner indices, needed before general dynamic
//! updates can be applied (Section V-B).
//!
//! Both variants run on the round scheduler ([`crate::pipeline`]) under the
//! session's [`Exec::rounds`]: with [`Schedule::Overlap`] (the default)
//! round `k + 1`'s panel broadcasts are issued (nonblocking) before round
//! `k`'s local multiply, so their communication is in flight — and mostly
//! hidden — under the compute; [`Schedule::Blocking`] keeps the serialized
//! schedule as the ablation baseline (`repro overlap`). Both produce
//! bit-identical results and byte-identical wire volume (enforced by
//! `tests/overlap.rs`).

use crate::distmat::DistMat;
use crate::exec::Exec;
use crate::grid::Grid;
use crate::phase;
use crate::pipeline::{await_into_phase, run_rounds, Schedule};
use dspgemm_mpi::Request;
use dspgemm_sparse::local_mm::{spgemm_bloom_with, spgemm_with, MmOutput};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Csr, Dcsr};
use dspgemm_util::stats::PhaseTimer;
use std::sync::Arc;

/// The in-flight panel pair of one SUMMA round: `None` on the blocking
/// schedule, where the broadcasts run (and complete) inside `complete`.
type PanelFlight<V> = Option<(Request<Arc<Csr<V>>>, Request<Arc<Csr<V>>>)>;

/// Issues round `k`'s panel broadcasts — `A_{i,k}` over the process row,
/// `B_{k,j}` over the process column — nonblocking under
/// [`Schedule::Overlap`]; deferred to the completion step (legacy fully
/// blocking broadcasts, one after the other) under [`Schedule::Blocking`].
fn issue_panels<V: Send + Sync + dspgemm_util::WireSize + dspgemm_util::WireDecode + 'static>(
    grid: &Grid,
    k: usize,
    a_local: &Arc<Csr<V>>,
    b_local: &Arc<Csr<V>>,
    schedule: Schedule,
) -> PanelFlight<V> {
    if schedule == Schedule::Blocking {
        return None;
    }
    let (i, j) = grid.coords();
    let ra = grid.row_comm().ibcast_shared(
        k,
        if j == k {
            Some(Arc::clone(a_local))
        } else {
            None
        },
    );
    let rb = grid.col_comm().ibcast_shared(
        k,
        if i == k {
            Some(Arc::clone(b_local))
        } else {
            None
        },
    );
    Some((ra, rb))
}

/// Completes round `k`'s panel broadcasts: waits the in-flight requests
/// (overlap schedule, timing split into exposed/overlapped) or performs the
/// serialized legacy broadcasts (blocking schedule — `A`'s broadcast fully
/// completes before `B`'s starts, the exact pre-pipelining cost structure).
#[allow(clippy::type_complexity)]
fn complete_panels<V: Send + Sync + dspgemm_util::WireSize + dspgemm_util::WireDecode + 'static>(
    grid: &Grid,
    k: usize,
    a_local: &Arc<Csr<V>>,
    b_local: &Arc<Csr<V>>,
    flight: PanelFlight<V>,
    timer: &mut PhaseTimer,
) -> (Arc<Csr<V>>, Arc<Csr<V>>) {
    match flight {
        Some((ra, rb)) => {
            let a_blk = await_into_phase(ra, timer, phase::BCAST);
            let b_blk = await_into_phase(rb, timer, phase::BCAST);
            (a_blk, b_blk)
        }
        None => {
            let (i, j) = grid.coords();
            let a_blk = timer.time(phase::BCAST, || {
                grid.row_comm().bcast_shared(
                    k,
                    if j == k {
                        Some(Arc::clone(a_local))
                    } else {
                        None
                    },
                )
            });
            let b_blk = timer.time(phase::BCAST, || {
                grid.col_comm().bcast_shared(
                    k,
                    if i == k {
                        Some(Arc::clone(b_local))
                    } else {
                        None
                    },
                )
            });
            (a_blk, b_blk)
        }
    }
}

/// Accumulates one partial-product block into `C` with the semiring
/// addition and, when `f` is given, ORs each entry's Bloom bits into `F`.
/// `split` separates a payload into `(value, bits)`. Each sum is logged for
/// `C`'s next delta publish while its DHB slot is still in cache
/// (`DistMat::edit_logged`; `part` is column-sorted, so the log is too).
/// A block empty on this rank leaves `C` and `F` — and their published
/// images — untouched, so the next epoch re-shares them copy-on-write.
/// Local-only; every SpGEMM path that adds into `C` goes through here.
pub(crate) fn accumulate<S: Semiring, V: Copy>(
    part: &Dcsr<V>,
    c: &mut DistMat<S::Elem>,
    f: Option<&mut DistMat<u64>>,
    split: impl Fn(V) -> (S::Elem, u64),
) {
    if part.nnz() == 0 {
        return;
    }
    match f {
        Some(f) => {
            let f_block = f.block_mut();
            c.edit_logged(part, |c_block, r, cc, v| {
                let (v, bits) = split(v);
                f_block.combine_entry(r, cc, bits, |x, y| x | y);
                Some(c_block.add_entry_value::<S>(r, cc, v))
            });
        }
        None => c.edit_logged(part, |c_block, r, cc, v| {
            Some(c_block.add_entry_value::<S>(r, cc, split(v).0))
        }),
    }
}

/// The SUMMA rounds shared by [`summa`] and [`summa_bloom`]: `mul(A_blk,
/// B_blk, k)` is the local kernel, `split` its payload's `(value, bits)`;
/// `F` is built alongside `C` when `track`. Collective over the grid.
#[allow(clippy::too_many_arguments)]
fn summa_rounds<S: Semiring, V: Copy>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    track: bool,
    mul: impl Fn(&Csr<S::Elem>, &Csr<S::Elem>, usize) -> MmOutput<V>,
    split: impl Fn(V) -> (S::Elem, u64),
) -> (DistMat<S::Elem>, Option<DistMat<u64>>, u64) {
    assert!(
        a.info().layout().conformal_inner(b.info().layout()),
        "SUMMA contraction needs A's column cuts to equal B's row cuts"
    );
    let q = grid.q();
    let schedule = exec.rounds;
    let c_layout = Arc::new(a.info().layout().product(b.info().layout()));
    let mut c = DistMat::empty_in(grid, &c_layout);
    let mut f = track.then(|| DistMat::empty_in(grid, &c_layout));
    // One CSR snapshot per operand; the √p broadcast rounds then move only
    // `Arc` handles — zero payload copies in-process, identical wire volume.
    let a_local: Arc<Csr<S::Elem>> = a.block_csr_shared();
    let b_local: Arc<Csr<S::Elem>> = b.block_csr_shared();
    let mut flops = 0u64;
    run_rounds(
        &mut (timer, &mut c, &mut f, &mut flops),
        q,
        schedule,
        |_ctx, k| issue_panels(grid, k, &a_local, &b_local, schedule),
        |ctx, k, flight: PanelFlight<S::Elem>| {
            complete_panels(grid, k, &a_local, &b_local, flight, ctx.0)
        },
        |ctx, k, (a_blk, b_blk)| {
            let (timer, c, f, flops) = ctx;
            let partial = timer.time(phase::LOCAL_MULT, || mul(&a_blk, &b_blk, k));
            timer.add_thread_flops(&partial.thread_flops);
            **flops += partial.flops;
            timer.time(phase::LOCAL_UPDATE, || {
                accumulate::<S, V>(&partial.result, c, f.as_mut(), &split)
            });
        },
    );
    (c, f, flops)
}

/// Computes `C = A · B` with sparse SUMMA under `exec` (pooled workspaces,
/// row schedule, round schedule). Collective over the grid.
///
/// Returns the result as a dynamic distributed matrix (ready for dynamic
/// updates) plus the local flop count.
pub fn summa<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (DistMat<S::Elem>, u64) {
    let (c, _, flops) = summa_rounds::<S, S::Elem>(
        grid,
        a,
        b,
        exec,
        timer,
        false,
        |a_blk, b_blk, _k| spgemm_with::<S, _, _>(a_blk, b_blk, exec.plain()),
        |v| (v, 0),
    );
    (c, flops)
}

/// Computes `C = Aᵀ · B` with a SUMMA-style round structure **without ever
/// materializing the distributed transpose of `A`** — the static
/// counterpart of the Section V-C virtual transposition. Collective.
///
/// `C_{i,j} = Σ_k (A_{k,i})ᵀ · B_{k,j}`: in round `r` every rank whose
/// column coordinate is `r` transposes its own `A` panel *locally* (pooled
/// workspace — each rank transposes exactly once across all rounds) and
/// broadcasts it along its process row; every rank multiplies the received
/// panel into its resident `B` block, and the partials merge-reduce down
/// each process column onto the owner of `C_{r,j}`. The wire carries only
/// already-transposed panels — no transposition exchange, no redistributed
/// `Aᵀ` — at the price of a non-local aggregation (the same trade
/// Algorithm 1 makes).
///
/// The column reductions combine partials in binomial-tree order; for
/// exact semirings (associative + commutative `add`) the result equals
/// `summa(Aᵀ materialized, B)` bit for bit (asserted by the parity test);
/// floating-point sums may differ by rounding only.
pub fn summa_transposed<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (DistMat<S::Elem>, u64) {
    assert_eq!(
        a.info().layout().row_cuts(),
        b.info().layout().row_cuts(),
        "global dimension mismatch in transposed SUMMA: Aᵀ·B contracts over the rows of A and B"
    );
    let q = grid.q();
    let (i, j) = grid.coords();
    let c_layout = Arc::new(a.info().layout().transposed().product(b.info().layout()));
    let mut c = DistMat::empty_in(grid, &c_layout);
    let b_local: Arc<Csr<S::Elem>> = b.block_csr_shared();
    // Root-side local transposition of this rank's own panel (done once;
    // round r broadcasts it from every rank with column coordinate r).
    let at_local: Arc<Csr<S::Elem>> = {
        let a_local = a.block_csr_shared();
        let _sp =
            dspgemm_obs::span("engine", "transpose_virtual").attr("nnz", a_local.nnz() as u64);
        timer.time(phase::TRANSPOSE_LOCAL, || {
            let mut ws = exec.transpose_ws();
            Arc::new(a_local.transpose_into(&mut ws))
        })
    };
    let mut flops = 0u64;
    run_rounds(
        &mut (timer, &mut c, &mut flops),
        q,
        exec.rounds,
        |_ctx, k| {
            grid.row_comm().ibcast_shared(
                k,
                if j == k {
                    Some(Arc::clone(&at_local))
                } else {
                    None
                },
            )
        },
        |ctx, _k, req| await_into_phase(req, ctx.0, phase::BCAST),
        |ctx, k, at_blk| {
            let (timer, c, flops) = ctx;
            let partial = timer.time(phase::LOCAL_MULT, || {
                spgemm_with::<S, _, _>(&*at_blk, &*b_local, exec.plain())
            });
            timer.add_thread_flops(&partial.thread_flops);
            **flops += partial.flops;
            let red = timer.time(phase::REDUCE_SCATTER, || {
                grid.col_comm()
                    .reduce(k, partial.result, |x, y| Dcsr::merge_with(&x, &y, S::add))
            });
            if let Some(mine) = red {
                debug_assert_eq!(i, k);
                timer.time(phase::LOCAL_UPDATE, || {
                    accumulate::<S, S::Elem>(&mine, c, None, |v| (v, 0))
                });
            }
        },
    );
    (c, flops)
}

/// SUMMA fused with Bloom-filter tracking: returns `(C, F, flops)` where
/// `F` holds, per non-zero of `C`, the ℓ=64-bit bitfield of contributing
/// inner indices (bit `k mod 64`). Collective over the grid.
pub fn summa_bloom<S: Semiring>(
    grid: &Grid,
    a: &DistMat<S::Elem>,
    b: &DistMat<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (DistMat<S::Elem>, DistMat<u64>, u64) {
    let (c, f, flops) = summa_rounds::<S, (S::Elem, u64)>(
        grid,
        a,
        b,
        exec,
        timer,
        true,
        // Bloom bits index the *global* inner dimension.
        |a_blk, b_blk, k| {
            let k_offset = a.info().layout().col_start(k);
            spgemm_bloom_with::<S, _, _>(a_blk, b_blk, k_offset, exec.fused())
        },
        |x| x,
    );
    (c, f.expect("tracked SUMMA builds F"), flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_mpi::run;
    use dspgemm_sparse::dense::Dense;
    use dspgemm_sparse::semiring::{MinPlus, U64Plus};
    use dspgemm_sparse::{Index, Triple};
    use dspgemm_util::rng::{Rng, SplitMix64};

    fn random_triples(seed: u64, n: Index, count: usize) -> Vec<Triple<u64>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                Triple::new(
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(n as u64) as Index,
                    rng.gen_range(5) + 1,
                )
            })
            .collect()
    }

    fn dedup_last(triples: &[Triple<u64>], n: Index) -> Vec<Triple<u64>> {
        let mut m = std::collections::BTreeMap::new();
        for t in triples {
            m.insert((t.row, t.col), t.val);
        }
        let _ = n;
        m.into_iter()
            .map(|((r, c), v)| Triple::new(r, c, v))
            .collect()
    }

    #[test]
    fn summa_matches_dense_reference() {
        let n: Index = 30;
        for p in [1usize, 4, 9] {
            let a_t = random_triples(50, n, 120);
            let b_t = random_triples(51, n, 120);
            let (a_ref, b_ref) = (a_t.clone(), b_t.clone());
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = |t: &Vec<Triple<u64>>| {
                    if comm.rank() == 0 {
                        t.clone()
                    } else {
                        vec![]
                    }
                };
                let a = DistMat::from_global_triples(&grid, n, n, feed(&a_ref), 2, &mut timer);
                let b = DistMat::from_global_triples(&grid, n, n, feed(&b_ref), 2, &mut timer);
                let (c, flops) = summa::<U64Plus>(&grid, &a, &b, &Exec::new(2), &mut timer);
                (c.gather_to_root(comm), flops)
            });
            let da = Dense::from_triples::<U64Plus>(n, n, &dedup_last(&a_t, n));
            let db = Dense::from_triples::<U64Plus>(n, n, &dedup_last(&b_t, n));
            let expect = da.matmul::<U64Plus>(&db);
            let gathered = out.results[0].0.as_ref().unwrap();
            let got = Dense::from_triples::<U64Plus>(n, n, gathered);
            assert_eq!(got.diff(&expect), vec![], "p={p}");
        }
    }

    #[test]
    fn summa_min_plus() {
        let n: Index = 16;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            // Path graph weights: edge i -> i+1 of weight 1.
            let t: Vec<Triple<f64>> = if comm.rank() == 0 {
                (0..n - 1).map(|i| Triple::new(i, i + 1, 1.0)).collect()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (c, _) = summa::<MinPlus>(&grid, &a, &a, &Exec::new(1), &mut timer);
            c.gather_to_root(comm)
        });
        let got = out.results[0].as_ref().unwrap();
        // A² in (min,+) on a path: entries (i, i+2) with weight 2.
        assert_eq!(got.len(), (n - 2) as usize);
        assert!(got.iter().all(|t| t.col == t.row + 2 && t.val == 2.0));
    }

    /// `summa_transposed(A, B)` equals `summa(Aᵀ materialized, B)` bit for
    /// bit under an exact semiring, on every grid and with non-square
    /// shapes — while never exchanging a transposed operand.
    #[test]
    fn summa_transposed_matches_materialized_transpose() {
        let nr: Index = 21; // A is nr × nc, so Aᵀ·B is nc × nc
        let nc: Index = 27;
        for p in [1usize, 4, 9] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let feed = |seed: u64, rows: Index, cols: Index| {
                    if comm.rank() == 0 {
                        let mut rng = SplitMix64::new(seed);
                        (0..150)
                            .map(|_| {
                                Triple::new(
                                    rng.gen_range(rows as u64) as Index,
                                    rng.gen_range(cols as u64) as Index,
                                    rng.gen_range(5) + 1,
                                )
                            })
                            .collect::<Vec<Triple<u64>>>()
                    } else {
                        vec![]
                    }
                };
                let a =
                    DistMat::from_global_triples(&grid, nr, nc, feed(90, nr, nc), 1, &mut timer);
                let b =
                    DistMat::from_global_triples(&grid, nr, nc, feed(91, nr, nc), 1, &mut timer);
                let (c_virt, flops) =
                    summa_transposed::<U64Plus>(&grid, &a, &b, &Exec::new(1), &mut timer);
                let at = a.transposed(&grid, 1);
                let (c_mat, _) = summa::<U64Plus>(&grid, &at, &b, &Exec::new(1), &mut timer);
                assert_eq!(c_virt.info().nrows, nc);
                assert_eq!(c_virt.info().ncols, nc);
                (
                    c_virt.gather_to_root(comm),
                    c_mat.gather_to_root(comm),
                    flops,
                )
            });
            let (c_virt, c_mat, _) = &out.results[0];
            assert_eq!(c_virt, c_mat, "p={p}: virtual != materialized Aᵀ·B");
        }
    }

    #[test]
    fn summa_bloom_filter_consistency() {
        let n: Index = 24;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let a_t = if comm.rank() == 0 {
                random_triples(60, n, 100)
            } else {
                vec![]
            };
            let b_t = if comm.rank() == 0 {
                random_triples(61, n, 100)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, a_t, 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, b_t, 1, &mut timer);
            let (c, f, _) = summa_bloom::<U64Plus>(&grid, &a, &b, &Exec::new(1), &mut timer);
            // F and C have identical patterns; every F value is non-zero.
            let ct = c.to_global_triples();
            let ft = f.to_global_triples();
            assert_eq!(ct.len(), ft.len());
            for (ce, fe) in ct.iter().zip(&ft) {
                assert_eq!((ce.row, ce.col), (fe.row, fe.col));
                assert_ne!(fe.val, 0);
            }
            // C itself matches the plain SUMMA result.
            let (c2, _) = summa::<U64Plus>(&grid, &a, &b, &Exec::new(1), &mut timer);
            assert_eq!(c.gather_to_root(comm), c2.gather_to_root(comm));
            true
        });
        assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn summa_bcast_volume_scales_with_operands() {
        let n: Index = 64;
        let small = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(70, n, 50)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (c, _) = summa::<U64Plus>(&grid, &a, &a, &Exec::new(1), &mut timer);
            c.local_nnz()
        });
        let big = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(70, n, 2000)
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (c, _) = summa::<U64Plus>(&grid, &a, &a, &Exec::new(1), &mut timer);
            c.local_nnz()
        });
        use dspgemm_mpi::CommCategory;
        assert!(
            big.stats.bytes_in(CommCategory::Bcast) > small.stats.bytes_in(CommCategory::Bcast)
        );
    }
}
