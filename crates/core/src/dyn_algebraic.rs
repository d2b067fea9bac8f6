//! Algorithm 1: MPI-parallel dynamic SpGEMM for algebraic updates.
//!
//! Given `A' = A + A*` and `B' = B + B*` (sums in the SpGEMM semiring), the
//! distributive law gives
//!
//! ```text
//! C' = C + C*,   C* := A*·B' + A·B*              (Eq. 1)
//! ```
//!
//! The algorithm computes `C*` **without broadcasting `A` or `B'`** — only
//! the hypersparse update blocks move:
//!
//! 1. process `(i,j)` sends `A*_{i,j}` and `B*_{i,j}` to its transposed peer
//!    `(j,i)` (one point-to-point round so the later broadcasts can run in
//!    parallel — Fig. 1a);
//! 2. `√p` rounds: in round `k`, `A*_{k,i}` is broadcast over process row
//!    `i` and `B*_{j,k}` over process column `j`; every rank multiplies
//!    locally (`Xⁱ_{k,j} = A*_{k,i}·B'_{i,j}` and `Yʲ_{i,k} = A_{i,j}·B*_{j,k}`,
//!    Fig. 1b);
//! 3. partial blocks are **aggregated non-locally**: `Xⁱ_{k,j}` reduces over
//!    column `j` onto process `(k,j)`, `Yʲ_{i,k}` over row `i` onto `(i,k)`
//!    (Fig. 1c) — a sparse merge-reduction, the price paid for not moving
//!    the big operands.
//!
//! Communication volume: `O(max(nnz(A*)+nnz(B*), nnz(C*))/√p)` versus
//! SUMMA's `O((nnz(A)+nnz(B'))/√p)` — the whole point of the paper.
//!
//! Steps 2–3 exist once, as a private round core over an optional `X` side
//! (the transposed `A*` block and `B'`) and an optional `Y` side (the
//! transposed `B*` block and `A`). The two-operand product
//! ([`apply_algebraic_updates`]) runs both sides interleaved in one loop;
//! the square product `C = A·A` ([`apply_shared_algebraic`]) runs the `Y`
//! side against the old `A`, applies `A += A*` in place, then the `X` side
//! against `A'` — one stored matrix serves both Eq.-1 terms.
//!
//! **Virtual transposition (Section V-C).** Step 1's point-to-point
//! exchange exists only to park each update block at its transposed grid
//! position before the broadcasts. Under [`TransposeMode::Virtual`] (the
//! default, read from [`Exec::transpose`]) that wire round disappears: the
//! update batch is redistributed *twice* — once in natural layout (the
//! local `A += A*` application needs it) and once with flipped tuples and
//! swapped dimensions ([`PendingStar::start`]), so every rank's
//! transposed-layout block already **is** its transposed-position block,
//! just transposed. A purely local counting-sort transposition recovers the
//! broadcast payload bit-for-bit, the `send/recv` phase carries zero
//! point-to-point bytes, and `C` is bit-identical by construction — the
//! `repro commavoid` ablation asserts both.
//!
//! The module is generic over an [`XYKernel`] so the identical communication
//! structure also serves the Bloom-fused variant (sessions that maintain the
//! filter matrix `F`) and `COMPUTE_PATTERN` of Algorithm 2.

use crate::distmat::{DistDcsr, DistMat, Elem};
use crate::exec::Exec;
use crate::grid::Grid;
use crate::layout::Layout;
use crate::phase;
use crate::pipeline::{await_into_phase, run_rounds};
use crate::summa::accumulate;
use crate::update::{apply_add, start_update_matrix, Dedup, PendingUpdateMatrix};
use dspgemm_mpi::Request;
use dspgemm_sparse::local_mm::{
    spgemm_bloom_with, spgemm_pattern_with, spgemm_with, KernelPlan, MmOutput,
};
use dspgemm_sparse::semiring::Semiring;
use dspgemm_sparse::{Dcsr, DhbMatrix, Index, Triple};
use dspgemm_util::stats::PhaseTimer;
use std::sync::Arc;

/// The local multiply/merge flavor plugged into the round structure. Each
/// kernel selects its payload-matching workspace pool from the session's
/// [`Exec`] via [`XYKernel::plan`], so every flavor runs scheduled and
/// pooled.
pub trait XYKernel<S: Semiring>: 'static {
    /// Partial-block element type.
    type Out: Elem;

    /// The [`KernelPlan`] (schedule + pooled workspaces) this flavor runs
    /// under, drawn from the session's [`Exec`].
    fn plan(exec: &Exec<S>) -> KernelPlan<'_, Self::Out>;

    /// `X = A*_{k,i} · B'_{i,j}` (hypersparse left, dynamic right).
    fn mul_x(
        a_star: &Dcsr<S::Elem>,
        b_new: &DhbMatrix<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, Self::Out>,
    ) -> MmOutput<Self::Out>;

    /// `Y = A_{i,j} · B*_{j,k}` (dynamic left, hypersparse right via the
    /// O(1) row-reader adapter).
    fn mul_y(
        a_old: &DhbMatrix<S::Elem>,
        b_star: &Dcsr<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, Self::Out>,
    ) -> MmOutput<Self::Out>;

    /// Combines coinciding entries during aggregation.
    fn merge(a: Self::Out, b: Self::Out) -> Self::Out;
}

/// Values only — the production algebraic path.
#[derive(Debug)]
pub struct PlainKernel;

impl<S: Semiring> XYKernel<S> for PlainKernel {
    type Out = S::Elem;

    fn plan(exec: &Exec<S>) -> KernelPlan<'_, S::Elem> {
        exec.plain()
    }

    fn mul_x(
        a_star: &Dcsr<S::Elem>,
        b_new: &DhbMatrix<S::Elem>,
        _k_offset: Index,
        plan: KernelPlan<'_, S::Elem>,
    ) -> MmOutput<S::Elem> {
        spgemm_with::<S, _, _>(a_star, b_new, plan)
    }

    fn mul_y(
        a_old: &DhbMatrix<S::Elem>,
        b_star: &Dcsr<S::Elem>,
        _k_offset: Index,
        plan: KernelPlan<'_, S::Elem>,
    ) -> MmOutput<S::Elem> {
        spgemm_with::<S, _, _>(a_old, &b_star.row_reader(), plan)
    }

    fn merge(a: S::Elem, b: S::Elem) -> S::Elem {
        S::add(a, b)
    }
}

/// Values fused with Bloom bitfields — for sessions maintaining `F`.
#[derive(Debug)]
pub struct BloomKernel;

impl<S: Semiring> XYKernel<S> for BloomKernel {
    type Out = (S::Elem, u64);

    fn plan(exec: &Exec<S>) -> KernelPlan<'_, (S::Elem, u64)> {
        exec.fused()
    }

    fn mul_x(
        a_star: &Dcsr<S::Elem>,
        b_new: &DhbMatrix<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, (S::Elem, u64)>,
    ) -> MmOutput<(S::Elem, u64)> {
        spgemm_bloom_with::<S, _, _>(a_star, b_new, k_offset, plan)
    }

    fn mul_y(
        a_old: &DhbMatrix<S::Elem>,
        b_star: &Dcsr<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, (S::Elem, u64)>,
    ) -> MmOutput<(S::Elem, u64)> {
        spgemm_bloom_with::<S, _, _>(a_old, &b_star.row_reader(), k_offset, plan)
    }

    fn merge(a: (S::Elem, u64), b: (S::Elem, u64)) -> (S::Elem, u64) {
        (S::add(a.0, b.0), a.1 | b.1)
    }
}

/// Structure + Bloom bits only, no values — `COMPUTE_PATTERN` of Algorithm 2.
#[derive(Debug)]
pub struct PatternKernel;

impl<S: Semiring> XYKernel<S> for PatternKernel {
    type Out = u64;

    fn plan(exec: &Exec<S>) -> KernelPlan<'_, u64> {
        exec.pattern()
    }

    fn mul_x(
        a_star: &Dcsr<S::Elem>,
        b_new: &DhbMatrix<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, u64>,
    ) -> MmOutput<u64> {
        spgemm_pattern_with(a_star, b_new, k_offset, plan)
    }

    fn mul_y(
        a_old: &DhbMatrix<S::Elem>,
        b_star: &Dcsr<S::Elem>,
        k_offset: Index,
        plan: KernelPlan<'_, u64>,
    ) -> MmOutput<u64> {
        spgemm_pattern_with(a_old, &b_star.row_reader(), k_offset, plan)
    }

    fn merge(a: u64, b: u64) -> u64 {
        a | b
    }
}

/// How Algorithm 1's round roots obtain the transposed-position update
/// blocks they broadcast. Selected per session by [`Exec::transpose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransposeMode {
    /// Physical point-to-point exchange with the transposed peer rank
    /// (Fig. 1a; the pre-Section-V-C schedule) — kept as the
    /// `repro commavoid` ablation baseline.
    Physical,
    /// Virtual transposition (Section V-C, the default): the update batch
    /// is additionally built in transposed layout, so every round root
    /// recovers its broadcast payload by a purely local transposition of
    /// its own block. The transpose-exchange phase moves zero bytes.
    #[default]
    Virtual,
}

/// One update-matrix operand of the `C*` round structure, tagged with its
/// layout.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StarView<'a, V: Elem> {
    /// `A*` in natural layout (`A*_{i,j}` at rank `(i, j)`): the round
    /// roots' blocks are obtained with the point-to-point transpose
    /// exchange.
    Natural(&'a DistDcsr<V>),
    /// `(A*)ᵀ` built from flipped tuples (`(A*_{j,i})ᵀ` at rank `(i, j)`):
    /// the round roots' blocks are recovered by a local counting-sort
    /// transposition — zero wire bytes.
    Transposed(&'a DistDcsr<V>),
}

impl<'a, V: Elem> StarView<'a, V> {
    /// The transposed-layout build when present, else the natural one.
    pub(crate) fn of(natural: &'a DistDcsr<V>, transposed: Option<&'a DistDcsr<V>>) -> Self {
        match transposed {
            Some(t) => StarView::Transposed(t),
            None => StarView::Natural(natural),
        }
    }

    /// Local non-zero count (the global sum is layout-independent, so the
    /// collective empty-batch elision agrees across modes).
    fn local_nnz(&self) -> usize {
        match self {
            StarView::Natural(d) | StarView::Transposed(d) => d.local_nnz(),
        }
    }
}

/// One operand's algebraic update matrix as Algorithm 1 consumes it.
///
/// `natural` is the standard `A*` (rank `(i, j)` holds `A*_{i,j}`; the
/// local `A += A*` application needs this layout). Under
/// [`TransposeMode::Virtual`], `transposed` is `(A*)ᵀ` built by routing the
/// *flipped* tuples through the same two-phase redistribution with swapped
/// dimensions, so rank `(i, j)` holds `(A*_{j,i})ᵀ` — exactly the block it
/// would have received from its transposed peer, already transposed.
#[derive(Debug, Clone)]
pub struct StarBuild<V> {
    /// The natural-layout update matrix (`A*_{i,j}` at rank `(i, j)`).
    pub natural: DistDcsr<V>,
    /// The transposed-layout build (`(A*_{j,i})ᵀ` at rank `(i, j)`);
    /// `None` ⇒ the round roots use the physical exchange.
    pub transposed: Option<DistDcsr<V>>,
}

impl<V: Elem> StarBuild<V> {
    fn view(&self) -> StarView<'_, V> {
        StarView::of(&self.natural, self.transposed.as_ref())
    }
}

/// A [`StarBuild`] whose first redistribution phase(s) are in flight — the
/// unit the engine's depth-1 lookahead queues.
pub struct PendingStar<S: Semiring> {
    natural: PendingUpdateMatrix<S>,
    transposed: Option<PendingUpdateMatrix<S>>,
}

impl<S: Semiring> PendingStar<S> {
    /// Issues the first redistribution phase of one operand's algebraic
    /// update matrix (summing duplicates) under `layout` — plus, under
    /// [`TransposeMode::Virtual`] in `exec`, the flipped tuples under
    /// [`Layout::transposed`]. The `IALLTOALLV`s cross the wire
    /// concurrently. Collective over the grid.
    pub fn start(
        grid: &Grid,
        layout: &Arc<Layout>,
        tuples: Vec<Triple<S::Elem>>,
        exec: &Exec<S>,
        timer: &mut PhaseTimer,
    ) -> Self {
        // Flip (r, c, v) → (c, r, v) *before* routing: the transposed layout
        // is an ordinary update-matrix build of the flipped entry set.
        // Stable sorting + dedup then reproduce the exact values of the
        // natural build (same input order, same fold order), so the two
        // layouts are exact transposes of each other entry-for-entry.
        let flipped = (exec.transpose == TransposeMode::Virtual).then(|| {
            tuples
                .iter()
                .map(|t| Triple::new(t.col, t.row, t.val))
                .collect::<Vec<_>>()
        });
        let natural = start_update_matrix::<S>(grid, layout, tuples, Dedup::Add, timer);
        let transposed = flipped.map(|f| {
            let t_layout = Arc::new(layout.transposed());
            start_update_matrix::<S>(grid, &t_layout, f, Dedup::Add, timer)
        });
        Self {
            natural,
            transposed,
        }
    }

    /// Completes the build(s). Collective over the grid.
    pub fn finish(self, grid: &Grid, timer: &mut PhaseTimer) -> StarBuild<S::Elem> {
        StarBuild {
            natural: self.natural.finish(grid, timer),
            transposed: self.transposed.map(|t| t.finish(grid, timer)),
        }
    }
}

/// Resolves up to two [`StarView`] operands into the blocks Algorithm 1's
/// round roots broadcast (`A*_{j,i}` at rank `(i, j)`):
///
/// * [`StarView::Natural`] items run the physical transpose exchange, both
///   directions of every item posted nonblocking (irecvs first, then the
///   buffered sends) under [`phase::SEND_RECV`], so concurrent items cross
///   the wire together instead of serializing;
/// * [`StarView::Transposed`] items never touch the wire: the rank's own
///   block already *is* the transposed-position block in transposed form,
///   and a pooled local counting-sort transposition
///   ([`Dcsr::transpose_into`] through the session's [`Exec`]) recovers the
///   payload bit-for-bit under [`phase::TRANSPOSE_LOCAL`] (Section V-C).
///
/// `None` items (globally empty update sides) stay `None`.
fn resolve_star_blocks<S: Semiring>(
    grid: &Grid,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    items: [Option<(StarView<'_, S::Elem>, u64)>; 2],
) -> [Option<Arc<Dcsr<S::Elem>>>; 2] {
    let mut out: [Option<Arc<Dcsr<S::Elem>>>; 2] = [None, None];
    // Transposed views first: purely local, no peer coordination needed.
    for (slot, item) in out.iter_mut().zip(&items) {
        if let Some((StarView::Transposed(t), _)) = item {
            let _sp =
                dspgemm_obs::span("engine", "transpose_virtual").attr("nnz", t.local_nnz() as u64);
            *slot = Some(timer.time(phase::TRANSPOSE_LOCAL, || {
                let mut ws = exec.transpose_ws();
                Arc::new(t.block().transpose_into(&mut ws))
            }));
        }
    }
    // Natural views: the transpose exchange of Fig. 1a.
    let peer = grid.transpose_rank();
    if peer == grid.world().rank() {
        for (slot, item) in out.iter_mut().zip(&items) {
            if let Some((StarView::Natural(d), _)) = item {
                *slot = Some(d.block_shared());
            }
        }
        return out;
    }
    if !items
        .iter()
        .any(|i| matches!(i, Some((StarView::Natural(_), _))))
    {
        return out;
    }
    timer.time(phase::SEND_RECV, || {
        type BlockRecv<V> = Option<Request<Arc<Dcsr<V>>>>;
        let mut recvs: [BlockRecv<S::Elem>; 2] = [None, None];
        for (r, item) in recvs.iter_mut().zip(&items) {
            if let Some((StarView::Natural(_), tag)) = item {
                *r = Some(grid.world().irecv_shared::<Dcsr<S::Elem>>(peer, *tag));
            }
        }
        for item in &items {
            if let Some((StarView::Natural(d), tag)) = item {
                grid.world()
                    .isend_shared(peer, *tag, d.block_shared())
                    .wait();
            }
        }
        for (slot, r) in out.iter_mut().zip(recvs) {
            if let Some(req) = r {
                *slot = Some(req.wait());
            }
        }
    });
    out
}

/// One side of the round core: the transposed-position update block this
/// rank roots (`A*_{j,i}` at rank `(i, j)`) and the resident operand it
/// multiplies against.
type Side<'a, V> = (&'a Arc<Dcsr<V>>, &'a DistMat<V>);

/// This rank's reduced `(X, Y)` blocks of one round-core call.
type Reduced<V> = (Option<Dcsr<V>>, Option<Dcsr<V>>);

/// Algorithm 1's steps 2–3 — the one round core. `√p` rounds under
/// [`Exec::rounds`]: in round `k` the `X` side broadcasts its block over the
/// process row, multiplies it into its right operand `B'`
/// (`Xⁱ_{k,j} = A*_{k,i}·B'_{i,j}`) and merge-reduces over column `j` onto
/// `(k,j)`; the `Y` side broadcasts over the process column, multiplies its
/// left operand `A` (`Yʲ_{i,k} = A_{i,j}·B*_{j,k}`) and reduces over row `i`
/// onto `(i,k)`. An absent side issues no collectives. Returns this rank's
/// reduced `(X, Y)` blocks; flops accumulate into `flops`. Collective over
/// the grid.
fn cstar_rounds<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    x: Option<Side<'_, S::Elem>>,
    y: Option<Side<'_, S::Elem>>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
    flops: &mut u64,
) -> Reduced<K::Out> {
    let (i, j) = grid.coords();
    let mut x_mine: Option<Dcsr<K::Out>> = None;
    let mut y_mine: Option<Dcsr<K::Out>> = None;
    type UpdFlight<V> = (Option<Request<Arc<Dcsr<V>>>>, Option<Request<Arc<Dcsr<V>>>>);
    // Pipelined under the default schedule: round k+1's update-block
    // broadcasts are in flight while round k multiplies and merge-reduces
    // (the progress engine forwards their tree edges even while ranks are
    // blocked inside the reductions).
    run_rounds(
        &mut (timer, flops, &mut x_mine, &mut y_mine),
        grid.q(),
        exec.rounds,
        |_ctx, k| -> UpdFlight<S::Elem> {
            // A*_{k,i} over process row i (its holder after the transpose
            // exchange is (i,k), i.e. row-comm member k); B*_{j,k} over
            // process column j (holder (k,j) = col-comm member k).
            let ra = x.map(|(at, _)| {
                grid.row_comm()
                    .ibcast_shared(k, if j == k { Some(Arc::clone(at)) } else { None })
            });
            let rb = y.map(|(bt, _)| {
                grid.col_comm()
                    .ibcast_shared(k, if i == k { Some(Arc::clone(bt)) } else { None })
            });
            (ra, rb)
        },
        |ctx, _k, (ra, rb)| {
            let a_bcast = ra.map(|r| await_into_phase(r, ctx.0, phase::BCAST));
            let b_bcast = rb.map(|r| await_into_phase(r, ctx.0, phase::BCAST));
            (a_bcast, b_bcast)
        },
        |ctx, k, (a_bcast, b_bcast)| {
            let (timer, flops, x_mine, y_mine) = ctx;
            // X pass: multiply into B', reduce onto (k,j) via column j.
            if let (Some(a_bcast), Some((_, b_new))) = (a_bcast, x) {
                let x_part = timer.time(phase::LOCAL_MULT, || {
                    K::mul_x(
                        &a_bcast,
                        b_new.block(),
                        b_new.info().row_range.start,
                        K::plan(exec),
                    )
                });
                timer.add_thread_flops(&x_part.thread_flops);
                **flops += x_part.flops;
                let x_red = timer.time(phase::REDUCE_SCATTER, || {
                    grid.col_comm()
                        .reduce(k, x_part.result, |a, b| Dcsr::merge_with(&a, &b, K::merge))
                });
                if let Some(x) = x_red {
                    debug_assert_eq!(i, k);
                    **x_mine = Some(x);
                }
            }
            // Y pass: multiply from A, reduce onto (i,k) via row i.
            if let (Some(b_bcast), Some((_, a_old))) = (b_bcast, y) {
                let y_part = timer.time(phase::LOCAL_MULT, || {
                    K::mul_y(
                        a_old.block(),
                        &b_bcast,
                        a_old.info().col_range.start,
                        K::plan(exec),
                    )
                });
                timer.add_thread_flops(&y_part.thread_flops);
                **flops += y_part.flops;
                let y_red = timer.time(phase::REDUCE_SCATTER, || {
                    grid.row_comm()
                        .reduce(k, y_part.result, |a, b| Dcsr::merge_with(&a, &b, K::merge))
                });
                if let Some(y) = y_red {
                    debug_assert_eq!(j, k);
                    **y_mine = Some(y);
                }
            }
        },
    );
    (x_mine, y_mine)
}

/// `C* = X + Y` on this rank's `rows × cols` block.
fn merge_xy<V: Elem>(
    x: Option<Dcsr<V>>,
    y: Option<Dcsr<V>>,
    merge: fn(V, V) -> V,
    rows: Index,
    cols: Index,
) -> Dcsr<V> {
    match (x, y) {
        (Some(x), Some(y)) => Dcsr::merge_with(&x, &y, merge),
        (Some(x), None) => x,
        (None, Some(y)) => y,
        (None, None) => Dcsr::empty(rows, cols),
    }
}

/// This rank's block of `C* = A*·B' + A·B*` plus the local flop count, for
/// two stored operands. Inputs obey Eq. 1's timing: `a_old` is `A`
/// *before* its updates, `b_new` is `B'` *after* its updates. Collective
/// over the grid.
pub(crate) fn compute_cstar<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    a_old: &DistMat<S::Elem>,
    b_new: &DistMat<S::Elem>,
    a_star: StarView<'_, S::Elem>,
    b_star: StarView<'_, S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<K::Out>, u64) {
    // Empty-side elision: a globally empty update matrix contributes nothing
    // to Eq. 1, so its whole pass (transpose resolution, broadcasts,
    // multiplies, reductions) is skipped. The decision is collective-safe
    // because it is made from the allreduced global nnz, agreed on all ranks
    // (and layout-independent: natural and transposed builds hold the same
    // global entry set). This is the common case in the paper's Fig. 9
    // protocol, where `B` is static.
    let both = grid.world().allreduce(
        [a_star.local_nnz() as u64, b_star.local_nnz() as u64],
        |x, y| [x[0] + y[0], x[1] + y[1]],
    );
    // Step 1: round roots obtain their transposed-position blocks — a wire
    // exchange for natural views, a local transposition for transposed ones.
    const TAG_AT: u64 = 101;
    const TAG_BT: u64 = 102;
    let [at_blk, bt_blk] = resolve_star_blocks::<S>(
        grid,
        exec,
        timer,
        [
            (both[0] != 0).then_some((a_star, TAG_AT)),
            (both[1] != 0).then_some((b_star, TAG_BT)),
        ],
    );
    let mut flops = 0u64;
    let (x, y) = cstar_rounds::<S, K>(
        grid,
        at_blk.as_ref().map(|at| (at, b_new)),
        bt_blk.as_ref().map(|bt| (bt, a_old)),
        exec,
        timer,
        &mut flops,
    );
    let (rows, cols) = (a_old.info().local_rows(), b_new.info().local_cols());
    (merge_xy(x, y, K::merge, rows, cols), flops)
}

/// This rank's block of `C* = A*·A' + A·A*` for a maintained *square*
/// product `C = A · A`, where both Eq.-1 terms draw on the **same** stored
/// matrix; `apply` turns `A` into `A'` in place between the round core's
/// `Y` side (old `A`) and `X` side (new `A'`). One resolution of the single
/// update block serves both sides, so each batch is redistributed,
/// exchanged and broadcast once instead of twice. Collective.
pub(crate) fn compute_cstar_shared<S: Semiring, K: XYKernel<S>>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    star: StarView<'_, S::Elem>,
    apply: impl FnOnce(&mut DistMat<S::Elem>),
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<K::Out>, u64) {
    assert_eq!(
        a.info().nrows,
        a.info().ncols,
        "shared-operand dynamic SpGEMM maintains a square product C = A·A"
    );
    let (rows, cols) = (a.info().local_rows(), a.info().local_cols());
    // Empty-batch elision, agreed collectively (cf. `compute_cstar`).
    let star_nnz = grid
        .world()
        .allreduce(star.local_nnz() as u64, |x, y| x + y);
    if star_nnz == 0 {
        timer.time(phase::LOCAL_UPDATE, || apply(a));
        return (Dcsr::empty(rows, cols), 0);
    }
    // Rank (i,j) obtains A*_{j,i}, so in round k the row-comm member k of
    // row i holds A*_{k,i} and the col-comm member k of column j holds
    // A*_{k,j}, exactly as in the two-operand schedule.
    const TAG_SHARED: u64 = 104;
    let [star_t, _] = resolve_star_blocks::<S>(grid, exec, timer, [Some((star, TAG_SHARED)), None]);
    let star_t = star_t.expect("nonempty operand resolves to a block");
    let mut flops = 0u64;
    let (_, y) = cstar_rounds::<S, K>(grid, None, Some((&star_t, &*a)), exec, timer, &mut flops);
    timer.time(phase::LOCAL_UPDATE, || apply(a));
    let (x, _) = cstar_rounds::<S, K>(grid, Some((&star_t, &*a)), None, exec, timer, &mut flops);
    (merge_xy(x, y, K::merge, rows, cols), flops)
}

/// Algebraic-update step on an `(A, B, C)` triple: builds both operands'
/// update matrices from globally-indexed tuples under [`phase::SCATTER`]
/// (both row-phase `IALLTOALLV`s issued before either completes, under
/// [`Exec::transpose`]) and applies them with
/// [`apply_algebraic_updates_prebuilt`]. `f` selects Bloom tracking: pass
/// the session's filter matrix `F` when general updates may follow.
/// Returns the local flop count. Collective over the grid.
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: Option<&mut DistMat<u64>>,
    a_tuples: Vec<Triple<S::Elem>>,
    b_tuples: Vec<Triple<S::Elem>>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    let (a_star, b_star) = timer.time(phase::SCATTER, || {
        let mut inner = PhaseTimer::new();
        let pa = PendingStar::start(grid, a.info().layout(), a_tuples, exec, &mut inner);
        let pb = PendingStar::start(grid, b.info().layout(), b_tuples, exec, &mut inner);
        (pa.finish(grid, &mut inner), pb.finish(grid, &mut inner))
    });
    apply_algebraic_updates_prebuilt(grid, a, b, c, f, &a_star, &b_star, exec, timer)
}

/// Algebraic-update step from **pre-built** update operands: applies
/// `B += B*`, runs Algorithm 1's rounds, applies `A += A*` and patches `C`
/// (and `F` when given). The engine's inter-batch lookahead completes
/// builds in the background and drains them through this entry point.
/// Collective.
#[allow(clippy::too_many_arguments)]
pub fn apply_algebraic_updates_prebuilt<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    b: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: Option<&mut DistMat<u64>>,
    a_star: &StarBuild<S::Elem>,
    b_star: &StarBuild<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> u64 {
    // Eq. 1 ordering: B must be B' during the multiplication, A must still
    // be the old A.
    timer.time(phase::LOCAL_UPDATE, || {
        apply_add::<S>(b, &b_star.natural, exec);
    });
    let (a_view, b_view) = (a_star.view(), b_star.view());
    match f {
        Some(f) => {
            let (cstar, flops) =
                compute_cstar::<S, BloomKernel>(grid, a, b, a_view, b_view, exec, timer);
            timer.time(phase::LOCAL_UPDATE, || {
                apply_add::<S>(a, &a_star.natural, exec);
                accumulate::<S, _>(&cstar, c, Some(f), |x| x);
            });
            flops
        }
        None => {
            let (cstar, flops) =
                compute_cstar::<S, PlainKernel>(grid, a, b, a_view, b_view, exec, timer);
            timer.time(phase::LOCAL_UPDATE, || {
                apply_add::<S>(a, &a_star.natural, exec);
                accumulate::<S, _>(&cstar, c, None, |v| (v, 0));
            });
            flops
        }
    }
}

/// Shared-operand algebraic update from a **pre-built** update matrix:
/// maintains `C = A · A` and its filter matrix `F` through `A' = A + A*`
/// and returns this rank's `C*` block of `(value, bitfield)` pairs (the
/// local delta merged into `C`) plus the flop count — the delta lets
/// callers (the analytics session's views) observe exactly which product
/// entries changed without a second pass. Collective.
///
/// The caller performs the redistribution once ([`PendingStar`]) and may
/// feed the same `A*` to any number of consumers; this is the "one
/// redistribution pays for all views" contract.
pub fn apply_shared_algebraic<S: Semiring>(
    grid: &Grid,
    a: &mut DistMat<S::Elem>,
    c: &mut DistMat<S::Elem>,
    f: &mut DistMat<u64>,
    star: &StarBuild<S::Elem>,
    exec: &Exec<S>,
    timer: &mut PhaseTimer,
) -> (Dcsr<(S::Elem, u64)>, u64) {
    let (cstar, flops) = compute_cstar_shared::<S, BloomKernel>(
        grid,
        a,
        star.view(),
        |m| apply_add::<S>(m, &star.natural, exec),
        exec,
        timer,
    );
    timer.time(phase::LOCAL_UPDATE, || {
        accumulate::<S, _>(&cstar, c, Some(f), |x| x)
    });
    (cstar, flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summa::summa;
    use crate::update::apply_add;
    use dspgemm_mpi::run;
    use dspgemm_sparse::dense::Dense;
    use dspgemm_sparse::semiring::U64Plus;
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

    /// End-to-end: dynamic result after several batches must equal a static
    /// recomputation of A'·B' from scratch.
    fn check_dynamic_equals_static(p: usize, n: Index, batches: usize) {
        let out = run(p, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64, count: usize| {
                if comm.rank() == 0 {
                    random_triples(s, n, count)
                } else {
                    vec![]
                }
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, feed(1, 80), 2, &mut timer);
            let mut b = DistMat::from_global_triples(&grid, n, n, feed(2, 80), 2, &mut timer);
            let (mut c, _) = summa::<U64Plus>(&grid, &a, &b, &Exec::new(2), &mut timer);
            for round in 0..batches as u64 {
                // Every rank contributes its own update tuples.
                let a_ups = random_triples(100 + round * 7 + comm.rank() as u64, n, 15);
                let b_ups = random_triples(500 + round * 7 + comm.rank() as u64, n, 15);
                apply_algebraic_updates::<U64Plus>(
                    &grid,
                    &mut a,
                    &mut b,
                    &mut c,
                    None,
                    a_ups,
                    b_ups,
                    &Exec::new(2),
                    &mut timer,
                );
            }
            // Static recomputation from the final A', B'.
            let (c_static, _) = summa::<U64Plus>(&grid, &a, &b, &Exec::new(2), &mut timer);
            (
                c.gather_to_root(comm),
                c_static.gather_to_root(comm),
                a.gather_to_root(comm),
                b.gather_to_root(comm),
            )
        });
        let (c_dyn, c_static, a_fin, b_fin) = &out.results[0];
        let c_dyn = c_dyn.as_ref().unwrap();
        let c_static = c_static.as_ref().unwrap();
        let n_us = n;
        let dd = Dense::from_triples::<U64Plus>(n_us, n_us, c_dyn);
        let ds = Dense::from_triples::<U64Plus>(n_us, n_us, c_static);
        assert_eq!(dd.diff(&ds), vec![], "p={p}: dynamic != static");
        // Also check against a fully independent dense reference.
        let da = Dense::from_triples::<U64Plus>(n_us, n_us, a_fin.as_ref().unwrap());
        let db = Dense::from_triples::<U64Plus>(n_us, n_us, b_fin.as_ref().unwrap());
        let dref = da.matmul::<U64Plus>(&db);
        assert_eq!(dd.diff(&dref), vec![], "p={p}: dynamic != dense reference");
    }

    #[test]
    fn dynamic_equals_static_p1() {
        check_dynamic_equals_static(1, 24, 3);
    }

    #[test]
    fn dynamic_equals_static_p4() {
        check_dynamic_equals_static(4, 24, 3);
    }

    #[test]
    fn dynamic_equals_static_p9() {
        check_dynamic_equals_static(9, 30, 2);
    }

    #[test]
    fn tracked_variant_matches_plain_and_fills_f() {
        let n: Index = 20;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed = |s: u64| {
                if comm.rank() == 0 {
                    random_triples(s, n, 60)
                } else {
                    vec![]
                }
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, feed(11), 1, &mut timer);
            let mut b = DistMat::from_global_triples(&grid, n, n, feed(12), 1, &mut timer);
            let (mut c, mut f, _) =
                crate::summa::summa_bloom::<U64Plus>(&grid, &a, &b, &Exec::new(1), &mut timer);
            let mut a2 = a.clone();
            let mut b2 = b.clone();
            let mut c2 = c.clone();
            let a_ups = random_triples(31 + comm.rank() as u64, n, 10);
            let b_ups = random_triples(41 + comm.rank() as u64, n, 10);
            apply_algebraic_updates::<U64Plus>(
                &grid,
                &mut a,
                &mut b,
                &mut c,
                Some(&mut f),
                a_ups.clone(),
                b_ups.clone(),
                &Exec::new(1),
                &mut timer,
            );
            apply_algebraic_updates::<U64Plus>(
                &grid,
                &mut a2,
                &mut b2,
                &mut c2,
                None,
                a_ups,
                b_ups,
                &Exec::new(1),
                &mut timer,
            );
            // C identical either way; F covers C's pattern.
            let ct = c.to_global_triples();
            let ft = f.to_global_triples();
            let same_c = c.gather_to_root(comm) == c2.gather_to_root(comm);
            let f_keys: std::collections::BTreeSet<_> = ft.iter().map(|t| (t.row, t.col)).collect();
            let covers = ct.iter().all(|t| f_keys.contains(&(t.row, t.col)));
            (same_c, covers)
        });
        assert!(out.results.iter().all(|&(s, c)| s && c));
    }

    #[test]
    fn empty_updates_are_noops() {
        let n: Index = 16;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(3, n, 50)
            } else {
                vec![]
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut b = a.clone();
            let (mut c, _) = summa::<U64Plus>(&grid, &a, &b, &Exec::new(1), &mut timer);
            let before = c.gather_to_root(comm);
            apply_algebraic_updates::<U64Plus>(
                &grid,
                &mut a,
                &mut b,
                &mut c,
                None,
                vec![],
                vec![],
                &Exec::new(1),
                &mut timer,
            );
            before == c.gather_to_root(comm)
        });
        assert!(out.results.iter().all(|&x| x));
    }

    /// Shared-operand maintenance of C = A·A must agree with the
    /// two-operand engine driven with identical batches on a clone.
    #[test]
    fn shared_operand_matches_cloned_operands() {
        let n: Index = 22;
        for p in [1usize, 4, 9] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut timer = PhaseTimer::new();
                let t = if comm.rank() == 0 {
                    random_triples(7, n, 70)
                } else {
                    vec![]
                };
                let mut a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
                let mut a2 = a.clone();
                let mut b2 = a.clone();
                let mut exec = Exec::new(1);
                exec.transpose = TransposeMode::Physical;
                let (mut c, mut f, _) =
                    crate::summa::summa_bloom::<U64Plus>(&grid, &a, &a, &exec, &mut timer);
                let mut c2 = c.clone();
                for round in 0..3u64 {
                    let ups = random_triples(40 + round + comm.rank() as u64, n, 9);
                    let star = PendingStar::start(
                        &grid,
                        a.info().layout(),
                        ups.clone(),
                        &exec,
                        &mut timer,
                    )
                    .finish(&grid, &mut timer);
                    let (cstar, flops) = apply_shared_algebraic::<U64Plus>(
                        &grid, &mut a, &mut c, &mut f, &star, &exec, &mut timer,
                    );
                    assert!(cstar.nnz() == 0 || flops > 0);
                    apply_algebraic_updates::<U64Plus>(
                        &grid,
                        &mut a2,
                        &mut b2,
                        &mut c2,
                        None,
                        ups.clone(),
                        ups,
                        &Exec::new(1),
                        &mut timer,
                    );
                }
                (
                    a.gather_to_root(comm) == a2.gather_to_root(comm),
                    c.gather_to_root(comm) == c2.gather_to_root(comm),
                )
            });
            assert!(
                out.results.iter().all(|&(a_eq, c_eq)| a_eq && c_eq),
                "p={p}"
            );
        }
    }

    /// The tracked shared path maintains C identically and fills F over C's
    /// pattern under both transposition modes — bit-identical C and F, and
    /// no point-to-point bytes at all under virtual transposition.
    #[test]
    fn shared_tracked_maintains_filter() {
        let n: Index = 18;
        let runs: Vec<_> = [TransposeMode::Physical, TransposeMode::Virtual]
            .into_iter()
            .map(|mode| shared_tracked_run(n, mode))
            .collect();
        for out in &runs {
            assert!(out.results.iter().all(|(_, _, eq, cov)| *eq && *cov));
        }
        assert_eq!(runs[0].results, runs[1].results, "modes disagree on C or F");
        let p2p = |i: usize| runs[i].stats.bytes_in(dspgemm_mpi::CommCategory::P2p);
        assert_eq!(p2p(1), 0, "virtual transposition paid a transpose exchange");
        assert!(p2p(0) > 0, "physical transposition sent no exchange bytes");
    }

    /// One shared tracked batch on `C = A·A` under `mode`: gathered `C` and
    /// `F`, whether `C` equals a static recompute, whether `F` covers `C`.
    #[allow(clippy::type_complexity)]
    fn shared_tracked_run(
        n: Index,
        mode: TransposeMode,
    ) -> dspgemm_mpi::SimOutput<(
        Option<Vec<Triple<u64>>>,
        Option<Vec<Triple<u64>>>,
        bool,
        bool,
    )> {
        run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(5, n, 60)
            } else {
                vec![]
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let mut exec = Exec::new(1);
            exec.transpose = mode;
            let (mut c, mut f, _) =
                crate::summa::summa_bloom::<U64Plus>(&grid, &a, &a, &exec, &mut timer);
            let ups = random_triples(61 + comm.rank() as u64, n, 12);
            let star = PendingStar::start(&grid, a.info().layout(), ups, &exec, &mut timer)
                .finish(&grid, &mut timer);
            apply_shared_algebraic::<U64Plus>(
                &grid, &mut a, &mut c, &mut f, &star, &exec, &mut timer,
            );
            // Invariant C = A·A against static recomputation; F covers C.
            let (c_static, _) = summa::<U64Plus>(&grid, &a, &a, &Exec::new(1), &mut timer);
            let f_keys: std::collections::BTreeSet<_> = f
                .to_global_triples()
                .iter()
                .map(|t| (t.row, t.col))
                .collect();
            let covers = c
                .to_global_triples()
                .iter()
                .all(|t| f_keys.contains(&(t.row, t.col)));
            let c_root = c.gather_to_root(comm);
            let eq = c_root == c_static.gather_to_root(comm);
            (c_root, f.gather_to_root(comm), eq, covers)
        })
    }

    /// The headline property: dynamic updates move far fewer bytes than a
    /// static SUMMA recomputation when updates are hypersparse.
    #[test]
    fn dynamic_volume_below_static_recompute() {
        let n: Index = 128;
        let nnz_initial = 4000;
        let batch = 8; // hypersparse update
        let dynamic = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(21, n, nnz_initial)
            } else {
                vec![]
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let mut b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (mut c, _) = summa::<U64Plus>(&grid, &a, &b, &Exec::new(1), &mut timer);
            let before = dspgemm_mpi::CommCategory::all();
            let _ = before;
            // Measure only the update step: reset via snapshot is not
            // available inside; instead, run the update and report the
            // volume of the whole run minus a baseline run (handled by the
            // caller comparing totals of two runs that differ only in the
            // update step).
            let ups = random_triples(77 + comm.rank() as u64, n, batch);
            apply_algebraic_updates::<U64Plus>(
                &grid,
                &mut a,
                &mut b,
                &mut c,
                None,
                ups,
                vec![],
                &Exec::new(1),
                &mut timer,
            );
            c.local_nnz()
        });
        let static_rerun = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let t = if comm.rank() == 0 {
                random_triples(21, n, nnz_initial)
            } else {
                vec![]
            };
            let mut a = DistMat::from_global_triples(&grid, n, n, t.clone(), 1, &mut timer);
            let b = DistMat::from_global_triples(&grid, n, n, t, 1, &mut timer);
            let (c0, _) = summa::<U64Plus>(&grid, &a, &b, &Exec::new(1), &mut timer);
            // Static strategy: apply updates, recompute from scratch.
            let ups = random_triples(77 + comm.rank() as u64, n, batch);
            let a_star = crate::update::build_update_matrix::<U64Plus>(
                &grid,
                a.info().layout(),
                ups,
                Dedup::Add,
                &mut timer,
            );
            apply_add::<U64Plus>(&mut a, &a_star, &Exec::new(1));
            let (c1, _) = summa::<U64Plus>(&grid, &a, &b, &Exec::new(1), &mut timer);
            let _ = (c0, c1);
            0usize
        });
        // Both runs share construction + initial SUMMA; the static rerun adds
        // a full SUMMA, the dynamic run adds Algorithm 1. Compare totals.
        assert!(
            dynamic.stats.total_bytes() < static_rerun.stats.total_bytes(),
            "dynamic {} >= static {}",
            dynamic.stats.total_bytes(),
            static_rerun.stats.total_bytes()
        );
    }
}
