//! Distributed matrices: a 2D-block-distributed shell around local storage.
//!
//! Every matrix in the framework is "fully distributed … each MPI process
//! stores a block of the matrix" (Section IV). [`DistMat`] is the *dynamic*
//! kind (DHB local block, supports in-place updates); [`DistDcsr`] holds
//! hypersparse static blocks (update matrices, SpGEMM intermediates). The
//! framework "requires the user to mark dynamic matrices and update matrices
//! appropriately" — in this reproduction the marking is the Rust type.

use crate::grid::Grid;
use crate::layout::{uniform_layout, Layout};
use crate::redistribute::redistribute_in;
use dspgemm_mpi::Comm;
use dspgemm_sparse::{Csr, Dcsr, DhbMatrix, Index, Triple};
use dspgemm_util::stats::PhaseTimer;
use dspgemm_util::{WireDecode, WireSize};
use std::ops::Range;
use std::sync::Arc;

/// Bound alias for distributable element types.
pub trait Elem:
    Copy + Send + Sync + PartialEq + std::fmt::Debug + WireSize + WireDecode + 'static
{
}

impl<T> Elem for T where
    T: Copy + Send + Sync + PartialEq + std::fmt::Debug + WireSize + WireDecode + 'static
{
}

/// Shape and placement of this rank's block of a distributed matrix.
///
/// Carries the full [`Layout`] (shared, one `Arc` per matrix) so that
/// redistribution routing, collective lookups, and SUMMA round offsets all
/// read the *matrix's* cut points rather than assuming the uniform split —
/// the distribution itself is dynamic once the engine's rebalancer moves
/// the cuts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Global row count.
    pub nrows: Index,
    /// Global column count.
    pub ncols: Index,
    /// Global rows owned by this rank.
    pub row_range: Range<Index>,
    /// Global columns owned by this rank.
    pub col_range: Range<Index>,
    layout: Arc<Layout>,
}

impl BlockInfo {
    /// Computes this rank's block of an `nrows × ncols` matrix on `grid`
    /// under the uniform (static) layout.
    pub fn for_rank(grid: &Grid, nrows: Index, ncols: Index) -> Self {
        Self::for_rank_in(grid, &uniform_layout(nrows, ncols, grid.q()))
    }

    /// Computes this rank's block under an explicit layout.
    pub fn for_rank_in(grid: &Grid, layout: &Arc<Layout>) -> Self {
        assert_eq!(layout.q(), grid.q(), "layout must target the grid side");
        let (i, j) = grid.coords();
        Self {
            nrows: layout.nrows(),
            ncols: layout.ncols(),
            row_range: layout.row_range(i),
            col_range: layout.col_range(j),
            layout: Arc::clone(layout),
        }
    }

    /// The distribution's cut points (shared across the matrix's ranks).
    #[inline]
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// The world rank owning global position `(r, c)` under this layout.
    #[inline]
    pub fn owner_rank(&self, grid: &Grid, r: Index, c: Index) -> usize {
        let (bi, _) = self.layout.row_owner(r);
        let (bj, _) = self.layout.col_owner(c);
        grid.rank_of(bi, bj)
    }

    /// Local block height.
    #[inline]
    pub fn local_rows(&self) -> Index {
        self.row_range.end - self.row_range.start
    }

    /// Local block width.
    #[inline]
    pub fn local_cols(&self) -> Index {
        self.col_range.end - self.col_range.start
    }

    /// Converts a global coordinate (must lie in this block) to block-local.
    #[inline]
    pub fn to_local(&self, r: Index, c: Index) -> (Index, Index) {
        debug_assert!(self.row_range.contains(&r) && self.col_range.contains(&c));
        (r - self.row_range.start, c - self.col_range.start)
    }

    /// Converts a block-local coordinate to global.
    #[inline]
    pub fn to_global(&self, lr: Index, lc: Index) -> (Index, Index) {
        (lr + self.row_range.start, lc + self.col_range.start)
    }
}

/// What one [`DistMat::migrate_to`] call did on this rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Entries whose owner changed away from this rank (sent).
    pub moved_out: usize,
    /// Entries whose owner changed to this rank (received).
    pub moved_in: usize,
    /// Whether this rank's ranges changed (block rebuilt, CSR cache
    /// dropped); `false` means the block and its cache survived untouched.
    pub changed: bool,
}

/// What the next [`DistMat::snapshot_csr`] call will do — publish-path
/// diagnostics for tests (see [`DistMat::snapshot_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotPlan {
    /// The last image is current: re-share it by refcount increment.
    Reshare,
    /// Merge the last image with change logs holding this many entries.
    Merge(usize),
    /// Rebuild the image from the DHB block.
    Rebuild,
}

/// The last published CSR image of a block and what changed since.
#[derive(Debug, Clone)]
struct Published<V> {
    image: Arc<Csr<V>>,
    /// One log per batch since `image`, oldest first: the coordinates it
    /// changed, row-major and column-sorted, with the new value or `None`
    /// for a removed entry. Empty when nothing changed.
    logs: Vec<Dcsr<Option<V>>>,
}

impl<V: Copy> Published<V> {
    fn current(image: Arc<Csr<V>>) -> Self {
        Self {
            image,
            logs: Vec::new(),
        }
    }

    /// Entries recorded since `image` — the quantity the fallback bound
    /// compares with the image's.
    fn logged(&self) -> usize {
        self.logs.iter().map(Dcsr::nnz).sum()
    }
}

/// A dynamic distributed matrix: DHB blocks on a 2D grid.
///
/// Alongside the mutable DHB block the matrix keeps the last CSR image of
/// the block it handed to the snapshot layer, plus one row-major,
/// column-sorted log per batch of the coordinates it changed since.
/// Publishing ([`DistMat::snapshot_csr`]) costs what changed, not the block
/// (entry-granular delta publish; see [`crate::snapshot`]):
///
/// * no change: the image is re-shared by refcount increment;
/// * logged changes: the logs are merged (the later entry wins), then one
///   linear merge of image and log ([`Csr::apply_delta`]) — no sorting, no
///   hashing;
/// * otherwise a full rebuild from the DHB block.
///
/// The mutations of `C` (`edit_logged`: Algorithm 1's `C += C*`
/// and Algorithm 2's repair merge) write the logs. The rebuild is the
/// fallback, decided from the matrix's own state: no image yet (a matrix
/// never published records nothing), [`DistMat::block_mut`] was called
/// (the conservative path the operands use), [`DistMat::migrate_to`]
/// changed this rank's ranges, or a batch would take the entries recorded
/// since the image past the image's own count — at that size a rebuild
/// reads no more, and the logs are dropped.
#[derive(Debug, Clone)]
pub struct DistMat<V> {
    info: BlockInfo,
    block: DhbMatrix<V>,
    published: Option<Published<V>>,
}

impl<V: Elem> DistMat<V> {
    /// An empty dynamic matrix of global shape `nrows × ncols` under the
    /// uniform layout.
    pub fn empty(grid: &Grid, nrows: Index, ncols: Index) -> Self {
        Self::empty_in(grid, &uniform_layout(nrows, ncols, grid.q()))
    }

    /// An empty dynamic matrix under an explicit layout.
    pub fn empty_in(grid: &Grid, layout: &Arc<Layout>) -> Self {
        let info = BlockInfo::for_rank_in(grid, layout);
        let block = DhbMatrix::new(info.local_rows(), info.local_cols());
        Self {
            info,
            block,
            published: None,
        }
    }

    /// Builds from rank-local triples with **global** indices: redistributes
    /// them to their owners (two-phase counting-sort alltoall) and inserts
    /// into the local dynamic block with `threads`-way `(i mod T)`
    /// parallelism. Duplicate coordinates keep the last value, matching
    /// "insert" semantics. Collective over the grid.
    pub fn from_global_triples(
        grid: &Grid,
        nrows: Index,
        ncols: Index,
        triples: Vec<Triple<V>>,
        threads: usize,
        timer: &mut PhaseTimer,
    ) -> Self {
        let mut mat = Self::empty(grid, nrows, ncols);
        mat.insert_global_triples(grid, triples, threads, timer);
        mat
    }

    /// Redistributes globally-indexed triples and inserts them (last write
    /// wins). Collective over the grid.
    pub fn insert_global_triples(
        &mut self,
        grid: &Grid,
        triples: Vec<Triple<V>>,
        threads: usize,
        timer: &mut PhaseTimer,
    ) {
        let mine = redistribute_in(grid, self.info.layout(), triples, timer);
        let local = timer.time(crate::redistribute::phase::LOCAL_CONSTRUCT, || {
            self.to_local_triples(mine)
        });
        if local.is_empty() {
            return;
        }
        timer.time(crate::redistribute::phase::LOCAL_ADDITION, || {
            crate::update::apply_local_triples_set(self.block_mut(), &local, threads);
        });
    }

    fn to_local_triples(&self, global: Vec<Triple<V>>) -> Vec<Triple<V>> {
        global
            .into_iter()
            .map(|t| {
                let (lr, lc) = self.info.to_local(t.row, t.col);
                Triple::new(lr, lc, t.val)
            })
            .collect()
    }

    /// Block placement info.
    #[inline]
    pub fn info(&self) -> &BlockInfo {
        &self.info
    }

    /// The local dynamic block (block-local indices).
    #[inline]
    pub fn block(&self) -> &DhbMatrix<V> {
        &self.block
    }

    /// Mutable access to the local block. Conservatively drops the
    /// published image and its change logs: the next
    /// [`DistMat::snapshot_csr`] call rebuilds the image. Callers that can
    /// prove a batch leaves the block untouched (empty update block) should
    /// skip the call instead. The crate's own updates of `C` log their
    /// edits (`edit_logged`) and keep the image.
    #[inline]
    pub fn block_mut(&mut self) -> &mut DhbMatrix<V> {
        self.published = None;
        &mut self.block
    }

    /// Mutates the local block once per stored entry of `pattern`, in its
    /// row-major order: `edit(block, r, c, x)` changes the block at
    /// `(r, c)` and returns the coordinate's new value (`None`: removed).
    /// When the matrix holds a published image, the returned values become
    /// this batch's log, with `pattern`'s structure — sorted for free,
    /// since the driving blocks are column-sorted `Dcsr`s. Batch logs queue
    /// until the next publish merges them (the later entry wins), so a
    /// stream pays no merge before it publishes. A batch that would take
    /// the entries recorded since the image past the image's own count
    /// drops image and logs instead: the next publish rebuilds. Local-only.
    pub(crate) fn edit_logged<X: Copy>(
        &mut self,
        pattern: &Dcsr<X>,
        mut edit: impl FnMut(&mut DhbMatrix<V>, Index, Index, X) -> Option<V>,
    ) {
        if pattern.nnz() == 0 {
            return;
        }
        let block = &mut self.block;
        let logs = match &mut self.published {
            Some(p) if p.logged() + pattern.nnz() <= p.image.nnz() => &mut p.logs,
            _ => {
                self.published = None;
                for (r, cols, xs) in pattern.iter_rows() {
                    for (&c, &x) in cols.iter().zip(xs) {
                        edit(block, r, c, x);
                    }
                }
                return;
            }
        };
        let mut vals = Vec::with_capacity(pattern.nnz());
        for (r, cols, xs) in pattern.iter_rows() {
            for (&c, &x) in cols.iter().zip(xs) {
                vals.push(edit(block, r, c, x));
            }
        }
        logs.push(pattern.with_vals(vals));
    }

    /// Local non-zero count.
    #[inline]
    pub fn local_nnz(&self) -> usize {
        self.block.nnz()
    }

    /// Global non-zero count (allreduce; collective over the grid).
    pub fn global_nnz(&self, grid: &Grid) -> u64 {
        grid.world()
            .allreduce(self.block.nnz() as u64, |a, b| a + b)
    }

    /// Reads a single global entry (local lookup; returns `None` when the
    /// coordinate belongs to another rank's block).
    pub fn get_local(&self, r: Index, c: Index) -> Option<Option<V>> {
        if self.info.row_range.contains(&r) && self.info.col_range.contains(&c) {
            let (lr, lc) = self.info.to_local(r, c);
            Some(self.block.get(lr, lc))
        } else {
            None
        }
    }

    /// Reads a single global entry from whichever rank owns it and
    /// broadcasts the result, so every rank returns the same value — the
    /// SPMD point-lookup `c(u, v)` of the analytics query API. One
    /// `O(log p)`-round broadcast of a single element. Collective over the
    /// grid; all ranks must pass the same coordinate.
    pub fn get_collective(&self, grid: &Grid, r: Index, c: Index) -> Option<V> {
        let owner = self.info.owner_rank(grid, r, c);
        let mine = if grid.world().rank() == owner {
            Some(self.get_local(r, c).expect("owner rank holds the block"))
        } else {
            None
        };
        grid.world().bcast(owner, mine)
    }

    /// Snapshot of the local block as a column-sorted CSR (used by SUMMA
    /// broadcasts).
    pub fn block_csr(&self) -> Csr<V> {
        self.block.to_csr()
    }

    /// Shared snapshot of the local block as a CSR, ready for the zero-copy
    /// broadcast rounds: the conversion allocates once, then every round
    /// moves the same `Arc` (one refcount increment per receiver instead of
    /// a deep clone per round).
    pub fn block_csr_shared(&self) -> Arc<Csr<V>> {
        match &self.published {
            Some(p) if p.logs.is_empty() => Arc::clone(&p.image),
            _ => Arc::new(self.block.to_csr()),
        }
    }

    /// The shared CSR image of the local block for epoch publishing — the
    /// copy-on-write primitive behind [`crate::snapshot`]. An unchanged
    /// block re-shares the previous image's `Arc` (a refcount increment,
    /// `Arc::ptr_eq` with the prior image); logged changes merge the
    /// previous image with the batch logs; anything else rebuilds from the
    /// block (see [`DistMat`] for the fallback rule). Local-only.
    pub fn snapshot_csr(&mut self) -> Arc<Csr<V>> {
        let image = match self.published.take() {
            Some(p) if p.logs.is_empty() => p.image,
            Some(p) => {
                let log = p
                    .logs
                    .into_iter()
                    .reduce(|pending, later| Dcsr::merge_with(&pending, &later, |_, v| v))
                    .expect("logs are non-empty");
                Arc::new(p.image.apply_delta(&log))
            }
            None => Arc::new(self.block.to_csr()),
        };
        self.published = Some(Published::current(Arc::clone(&image)));
        image
    }

    /// Whether the published CSR image is current (i.e. the block was
    /// not mutated since the last [`DistMat::snapshot_csr`]) — COW
    /// diagnostics for tests.
    #[inline]
    pub fn snapshot_cached(&self) -> bool {
        self.snapshot_plan() == SnapshotPlan::Reshare
    }

    /// Which path the next [`DistMat::snapshot_csr`] takes, and how many
    /// entries its logs hold — publish-path diagnostics for tests.
    pub fn snapshot_plan(&self) -> SnapshotPlan {
        match &self.published {
            None => SnapshotPlan::Rebuild,
            Some(p) if p.logs.is_empty() => SnapshotPlan::Reshare,
            Some(p) => SnapshotPlan::Merge(p.logged()),
        }
    }

    /// Restores the local block from a previously published snapshot image
    /// — the rollback primitive of epoch-anchored recovery. The dynamic
    /// block is rebuilt from the image's triples and the image `Arc` itself
    /// becomes the published image with an empty change log, so the first
    /// post-rollback publish re-shares
    /// the anchor's image by refcount increment (no rebuild, bit-identical
    /// to the pinned epoch). Pinned snapshots of rolled-back epochs are
    /// untouched: only the working block is replaced.
    ///
    /// # Panics
    /// Panics if the image shape does not match this rank's block shape —
    /// recovery never changes the layout, so a mismatch is a protocol bug.
    pub fn restore_image(&mut self, image: Arc<Csr<V>>, threads: usize) {
        assert_eq!(
            (image.nrows(), image.ncols()),
            (self.info.local_rows(), self.info.local_cols()),
            "restore_image: anchor image shape does not match the local block"
        );
        self.block = DhbMatrix::new(self.info.local_rows(), self.info.local_cols());
        let local = image.to_triples();
        if !local.is_empty() {
            crate::update::apply_local_triples_set(&mut self.block, &local, threads);
        }
        self.published = Some(Published::current(image));
    }

    /// Snapshot of the local block as a DCSR.
    pub fn block_dcsr(&self) -> Dcsr<V> {
        self.block.to_dcsr()
    }

    /// Local entries as globally-indexed triples (row-major).
    pub fn to_global_triples(&self) -> Vec<Triple<V>> {
        self.block
            .to_sorted_triples()
            .into_iter()
            .map(|t| {
                let (r, c) = self.info.to_global(t.row, t.col);
                Triple::new(r, c, t.val)
            })
            .collect()
    }

    /// The distributed transpose `Aᵀ`, **materialized** through the
    /// standard two-phase redistribution: one `O(nnz/p)` exchange, after
    /// which every algorithm applies unchanged (collective over the grid).
    ///
    /// Section V-C's *virtual* transposition — no materialization, no
    /// wire bytes — is implemented where it pays: static `Aᵀ·B` products
    /// run through [`crate::summa::summa_transposed`] (panels transposed
    /// root-side, locally), and the dynamic update paths route transposed
    /// update blocks via [`crate::dyn_algebraic::TransposeMode::Virtual`]
    /// (the default — see the `repro commavoid` ablation). Materializing
    /// remains the right tool when the transposed operand is reused across
    /// many products, where the one-off exchange amortizes away.
    pub fn transposed(&self, grid: &Grid, threads: usize) -> DistMat<V> {
        let mut timer = PhaseTimer::new();
        let flipped: Vec<Triple<V>> = self
            .to_global_triples()
            .into_iter()
            .map(|t| Triple::new(t.col, t.row, t.val))
            .collect();
        DistMat::from_global_triples(
            grid,
            self.info.ncols,
            self.info.nrows,
            flipped,
            threads,
            &mut timer,
        )
    }

    /// Moves this rank's block to a new layout: stripe migration through
    /// the two-phase redistribution path. Collective over the grid (every
    /// rank calls with the same layout).
    ///
    /// Only entries whose owner *changes* cross the wire — the boundary
    /// stripes between the old and new cuts. A rank whose ranges are
    /// untouched by the new cuts keeps its block **and its published image
    /// and change logs** (block-local coordinates do not move, so the next
    /// epoch publish re-shares or merges exactly as if no migration had
    /// happened); migrated blocks are rebuilt and their images dropped.
    pub fn migrate_to(
        &mut self,
        grid: &Grid,
        layout: &Arc<Layout>,
        threads: usize,
        timer: &mut PhaseTimer,
    ) -> MigrationStats {
        let new_info = BlockInfo::for_rank_in(grid, layout);
        assert_eq!(new_info.nrows, self.info.nrows, "migration keeps shape");
        assert_eq!(new_info.ncols, self.info.ncols, "migration keeps shape");
        let changed =
            new_info.row_range != self.info.row_range || new_info.col_range != self.info.col_range;
        // Split the local entries at the new boundaries. Unchanged ranks
        // scan but keep everything local.
        let (mut stay, mut outgoing) = (Vec::new(), Vec::new());
        if changed {
            for t in self.to_global_triples() {
                if new_info.row_range.contains(&t.row) && new_info.col_range.contains(&t.col) {
                    stay.push(t);
                } else {
                    outgoing.push(t);
                }
            }
        }
        let moved_out = outgoing.len();
        // Collective even when this rank moves nothing: peers may be
        // routing entries here.
        let incoming = redistribute_in(grid, layout, outgoing, timer);
        let moved_in = incoming.len();
        if !changed {
            debug_assert!(
                incoming.is_empty(),
                "a rank with unchanged ranges cannot receive entries"
            );
            // Only the layout handle changes: block, image and logs survive.
            self.info = new_info;
            return MigrationStats {
                moved_out,
                moved_in,
                changed,
            };
        }
        self.info = new_info;
        self.published = None;
        self.block = DhbMatrix::new(self.info.local_rows(), self.info.local_cols());
        stay.extend(incoming);
        let local = timer.time(crate::redistribute::phase::LOCAL_CONSTRUCT, || {
            self.to_local_triples(stay)
        });
        if !local.is_empty() {
            timer.time(crate::redistribute::phase::LOCAL_ADDITION, || {
                crate::update::apply_local_triples_set(&mut self.block, &local, threads);
            });
        }
        MigrationStats {
            moved_out,
            moved_in,
            changed,
        }
    }

    /// Gathers the whole matrix to world rank 0 as sorted global triples
    /// (testing/diagnostics; collective over the grid).
    pub fn gather_to_root(&self, comm: &Comm) -> Option<Vec<Triple<V>>> {
        let mine = self.to_global_triples();
        comm.gather(0, mine).map(|parts| {
            let mut all: Vec<Triple<V>> = parts.into_iter().flatten().collect();
            dspgemm_sparse::triple::sort_row_major(&mut all);
            all
        })
    }
}

/// A distributed hypersparse matrix: DCSR blocks on the grid. This is the
/// type of update matrices `A*`, `B*` after redistribution.
///
/// The block is held in an `Arc`: update matrices are immutable after
/// redistribution, and Algorithm 1/2 feed them to transpose exchanges and
/// broadcast rounds — [`DistDcsr::block_shared`] hands those collectives the
/// payload without a deep clone.
#[derive(Debug, Clone)]
pub struct DistDcsr<V> {
    info: BlockInfo,
    block: Arc<Dcsr<V>>,
}

impl<V: Elem> DistDcsr<V> {
    /// An empty distributed DCSR under the uniform layout.
    pub fn empty(grid: &Grid, nrows: Index, ncols: Index) -> Self {
        Self::empty_in(grid, &uniform_layout(nrows, ncols, grid.q()))
    }

    /// An empty distributed DCSR under an explicit layout.
    pub fn empty_in(grid: &Grid, layout: &Arc<Layout>) -> Self {
        let info = BlockInfo::for_rank_in(grid, layout);
        let block = Arc::new(Dcsr::empty(info.local_rows(), info.local_cols()));
        Self { info, block }
    }

    /// Wraps an already-local block (must match the rank's block shape).
    pub fn from_block(grid: &Grid, nrows: Index, ncols: Index, block: Dcsr<V>) -> Self {
        Self::from_block_in(grid, &uniform_layout(nrows, ncols, grid.q()), block)
    }

    /// Wraps an already-local block under an explicit layout.
    pub fn from_block_in(grid: &Grid, layout: &Arc<Layout>, block: Dcsr<V>) -> Self {
        let info = BlockInfo::for_rank_in(grid, layout);
        assert_eq!(block.nrows(), info.local_rows(), "block shape mismatch");
        assert_eq!(block.ncols(), info.local_cols(), "block shape mismatch");
        Self {
            info,
            block: Arc::new(block),
        }
    }

    /// Block placement info.
    #[inline]
    pub fn info(&self) -> &BlockInfo {
        &self.info
    }

    /// The local hypersparse block.
    #[inline]
    pub fn block(&self) -> &Dcsr<V> {
        &self.block
    }

    /// The local block as a shared handle for the zero-copy collectives —
    /// a refcount increment, never a copy of the block.
    #[inline]
    pub fn block_shared(&self) -> Arc<Dcsr<V>> {
        Arc::clone(&self.block)
    }

    /// Local non-zero count.
    #[inline]
    pub fn local_nnz(&self) -> usize {
        self.block.nnz()
    }

    /// Global non-zero count (collective).
    pub fn global_nnz(&self, grid: &Grid) -> u64 {
        grid.world()
            .allreduce(self.block.nnz() as u64, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspgemm_mpi::run;
    use dspgemm_util::rng::{Rng, SplitMix64};

    #[test]
    fn block_info_partitions_square() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let info = BlockInfo::for_rank(&grid, 10, 7);
            (info.row_range.clone(), info.col_range.clone())
        });
        assert_eq!(out.results[0], (0..5, 0..4));
        assert_eq!(out.results[1], (0..5, 4..7));
        assert_eq!(out.results[2], (5..10, 0..4));
        assert_eq!(out.results[3], (5..10, 4..7));
    }

    #[test]
    fn local_global_roundtrip() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let info = BlockInfo::for_rank(&grid, 100, 100);
            for r in info.row_range.clone().step_by(13) {
                for c in info.col_range.clone().step_by(17) {
                    let (lr, lc) = info.to_local(r, c);
                    assert_eq!(info.to_global(lr, lc), (r, c));
                }
            }
            true
        });
        assert!(out.results.iter().all(|&x| x));
    }

    #[test]
    fn construction_from_global_triples_and_gather() {
        let n: Index = 50;
        for p in [1usize, 4, 9] {
            let out = run(p, move |comm| {
                let grid = Grid::new(comm);
                let mut rng = SplitMix64::new(77 + comm.rank() as u64);
                // Rank-local random triples with globally unique coordinates
                // per rank stripe.
                let mine: Vec<Triple<u64>> = (0..200)
                    .map(|_| {
                        let r = rng.gen_range(n as u64) as Index;
                        let c = rng.gen_range(n as u64) as Index;
                        Triple::new(r, c, (r * n + c) as u64)
                    })
                    .collect();
                let mut timer = PhaseTimer::new();
                let mat = DistMat::from_global_triples(&grid, n, n, mine.clone(), 2, &mut timer);
                // Every local entry value encodes its global coordinate.
                for t in mat.to_global_triples() {
                    assert_eq!(t.val, (t.row * n + t.col) as u64);
                }
                let gathered = mat.gather_to_root(comm);
                (mine, gathered, mat.global_nnz(&grid))
            });
            // Root's gathered set equals the union of inputs (dedup by coord).
            let mut expect: Vec<(Index, Index)> = out
                .results
                .iter()
                .flat_map(|(mine, _, _)| mine.iter().map(|t| (t.row, t.col)))
                .collect();
            expect.sort_unstable();
            expect.dedup();
            let gathered = out.results[0].1.as_ref().unwrap();
            let got: Vec<(Index, Index)> = gathered.iter().map(|t| (t.row, t.col)).collect();
            assert_eq!(got, expect, "p={p}");
            assert_eq!(out.results[0].2, expect.len() as u64);
        }
    }

    #[test]
    fn transpose_roundtrip_and_product() {
        let n: Index = 23;
        let out = run(4, move |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed: Vec<Triple<u64>> = if comm.rank() == 0 {
                let mut rng = SplitMix64::new(13);
                (0..80)
                    .map(|_| {
                        Triple::new(
                            rng.gen_range(n as u64) as Index,
                            rng.gen_range(17) as Index,
                            rng.gen_range(9) + 1,
                        )
                    })
                    .collect()
            } else {
                vec![]
            };
            let a = DistMat::from_global_triples(&grid, n, 17, feed, 1, &mut timer);
            let at = a.transposed(&grid, 1);
            let att = at.transposed(&grid, 1);
            // Shape flips; double transpose is the identity.
            let same = a.gather_to_root(comm) == att.gather_to_root(comm);
            (
                at.info().nrows,
                at.info().ncols,
                same,
                at.global_nnz(&grid) == a.global_nnz(&grid),
            )
        });
        for &(tr, tc, same, nnz_eq) in &out.results {
            assert_eq!((tr, tc), (17, 23));
            assert!(same);
            assert!(nnz_eq);
        }
    }

    /// The log bound counts entries recorded since the image, not distinct
    /// coordinates: re-touching the same coordinates every batch still
    /// crosses it. Past the bound the logs are empty and the next publish
    /// rebuilds.
    #[test]
    fn log_bound_drops_the_log_and_rebuilds() {
        use dspgemm_sparse::semiring::U64Plus;
        let out = run(1, |comm| {
            let grid = Grid::new(comm);
            let mut timer = PhaseTimer::new();
            let feed: Vec<Triple<u64>> = (0..20)
                .map(|i| Triple::new(i / 2, (i * 3) % 10, 1))
                .collect();
            let mut m = DistMat::from_global_triples(&grid, 10, 10, feed, 1, &mut timer);
            let add = |b: &mut DhbMatrix<u64>, r, c, v| Some(b.add_entry_value::<U64Plus>(r, c, v));
            let row9 = Dcsr::from_sorted_triples(
                10,
                10,
                &(0..6).map(|c| Triple::new(9, c, 1u64)).collect::<Vec<_>>(),
            );
            // Never published: edits record nothing.
            m.edit_logged(&row9, add);
            assert_eq!(m.snapshot_plan(), SnapshotPlan::Rebuild);
            let image = m.snapshot_csr();
            assert_eq!(image.nnz(), 25);
            assert_eq!(m.snapshot_plan(), SnapshotPlan::Reshare);
            // 6 entries per batch: 6, 12, 18, 24 recorded stay within the
            // image's 25; the fifth batch (30) would cross.
            let mut plans = Vec::new();
            for _ in 0..5 {
                m.edit_logged(&row9, add);
                plans.push(m.snapshot_plan());
            }
            assert_eq!(
                plans,
                vec![
                    SnapshotPlan::Merge(6),
                    SnapshotPlan::Merge(12),
                    SnapshotPlan::Merge(18),
                    SnapshotPlan::Merge(24),
                    SnapshotPlan::Rebuild
                ]
            );
            let rebuilt = m.snapshot_csr();
            assert_eq!(*rebuilt, m.block().to_csr());
            assert_eq!(m.snapshot_plan(), SnapshotPlan::Reshare);
            // Logging resumes against the new image: sets, removals and
            // sums merge exactly.
            let mixed = Dcsr::from_sorted_triples(
                10,
                10,
                &[
                    Triple::new(0, 3, 0u64),
                    Triple::new(1, 6, 1),
                    Triple::new(9, 9, 2),
                ],
            );
            m.edit_logged(&mixed, |b, r, c, op| match op {
                0 => {
                    b.set(r, c, 40);
                    Some(40)
                }
                1 => {
                    b.remove(r, c);
                    None
                }
                _ => add(b, r, c, op),
            });
            assert_eq!(m.snapshot_plan(), SnapshotPlan::Merge(3));
            assert_eq!(*m.snapshot_csr(), m.block().to_csr());
            true
        });
        assert!(out.results[0]);
    }

    #[test]
    fn dist_dcsr_shape_checked() {
        let out = run(4, |comm| {
            let grid = Grid::new(comm);
            let d = DistDcsr::<u64>::empty(&grid, 9, 9);
            (d.info().local_rows(), d.info().local_cols(), d.local_nnz())
        });
        // 9 split as 5+4.
        assert_eq!(out.results[0].0, 5);
        assert_eq!(out.results[3].0, 4);
        assert!(out.results.iter().all(|r| r.2 == 0));
    }
}
