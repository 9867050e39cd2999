//! Mutable network state over the virtual grid: nodes, occupancy, heads.

use serde::{Deserialize, Serialize};
use std::fmt;

use wsn_geometry::{Point2, Rect};
use wsn_simcore::{FaultEvent, NodeId, SensorNode, SimRng};

use crate::members::MemberTable;
use crate::{
    GridCoord, GridError, GridSystem, HeadElection, HoleSet, RegionMask, Result, VacancySet,
};

const WORD_BITS: usize = u64::BITS as usize;

/// The outcome of a completed node movement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoveOutcome {
    /// Cell the node left.
    pub from: GridCoord,
    /// Cell the node arrived in.
    pub to: GridCoord,
    /// Distance covered, meters.
    pub distance: f64,
}

/// Snapshot of headline occupancy numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Enabled nodes.
    pub enabled: usize,
    /// Cells with at least one enabled node.
    pub occupied: usize,
    /// Cells with no enabled node (the holes).
    pub vacant: usize,
    /// Spare nodes (`enabled − occupied`): the paper's `N`.
    pub spares: usize,
}

/// The center of dense cell `idx`: what [`HeadElection::ClosestToCenter`]
/// measures candidates against.
fn cell_center(system: &GridSystem, idx: usize) -> Point2 {
    system
        .cell_center(system.coord_of(idx))
        .expect("coord_of yields in-bounds coords")
}

/// The deployed network over a [`GridSystem`]: node table, per-cell
/// membership of enabled nodes, elected heads, and the incremental
/// occupancy index.
///
/// Invariants (checked by `debug_invariants` in tests):
///
/// * a node appears in exactly one cell's member list iff it is enabled,
///   and that cell contains its position;
/// * the per-node cell index names that cell for every enabled node, so
///   no query or move locates a node by dividing its position;
/// * a cell's head, when set, is one of its members;
/// * a cell with no members ("vacant" — the paper's *hole*) has no head;
/// * the [`VacancySet`] bitset and the enabled counter agree with the
///   member table (every mutation path maintains them in O(1));
/// * the headless index holds exactly the cells with members but no
///   head (every mutation path maintains it in O(1)).
///
/// Occupancy queries (`stats`, `vacant_count`, `total_spares`,
/// `spare_count`) are O(1); vacancy enumeration (`vacant_iter`) is
/// allocation-free; the change journal ([`GridNetwork::changed_cells`])
/// lets round-based protocols track new/filled holes in O(changed) per
/// round instead of rescanning the grid; and
/// [`GridNetwork::repair_heads`] visits only the cells that lost their
/// head.
///
/// ```
/// use wsn_grid::{GridNetwork, GridSystem, HeadElection};
/// use wsn_geometry::Point2;
/// use wsn_simcore::SimRng;
///
/// let sys = GridSystem::new(2, 2, 1.0)?;
/// let mut net = GridNetwork::new(sys, &[Point2::new(0.5, 0.5), Point2::new(0.6, 0.4)]);
/// let mut rng = SimRng::seed_from_u64(0);
/// net.elect_all_heads(HeadElection::FirstId, &mut rng);
/// assert_eq!(net.stats().spares, 1);
/// assert_eq!(net.vacant_count(), 3); // O(1), no scan
/// assert_eq!(net.vacant_iter().count(), 3); // row-major, no allocation
/// # Ok::<(), wsn_grid::GridError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridNetwork {
    system: GridSystem,
    nodes: Vec<SensorNode>,
    /// The cell of each node, by id: where it was deployed or last
    /// moved. For an enabled node this is `system.cell_of(position)`; a
    /// disabled node keeps the cell it was disabled in. Kept as a
    /// coordinate because a move reports it and indexes by it, and the
    /// dense index is one multiply-add away, not a division.
    node_cells: Vec<GridCoord>,
    /// Enabled members per cell, dense row-major by cell index, packed
    /// into a flat struct-of-arrays pool (see [`crate::members`]).
    members: MemberTable,
    /// Elected head per cell.
    heads: Vec<Option<NodeId>>,
    /// Occupied cells with no head: what the next
    /// [`GridNetwork::repair_heads`] elects in. Maintained by every
    /// mutation, so a repair costs O(repaired) word reads instead of a
    /// scan of every cell.
    headless: HoleSet,
    /// One bit per deployed node, set ⇔ enabled: the rank/select
    /// surface [`GridNetwork::apply_fault`] samples random victims
    /// from without materializing an id list.
    enabled_bits: Vec<u64>,
    /// Vacancy bitset + change journal, maintained by every mutation.
    /// Disabled (masked-out) cells are permanently marked occupied here,
    /// so they never surface as holes through any vacancy query.
    occupancy: VacancySet,
    /// Enabled-node counter, maintained by every mutation.
    enabled: usize,
    /// The surveillance region: disabled cells hold no nodes and are not
    /// counted in occupancy statistics. [`RegionMask::is_full`] for the
    /// paper's rectangular setting.
    mask: RegionMask,
    /// Where [`GridNetwork::reset_into`] builds the next deployment
    /// before committing it.
    staging: Staging,
}

/// The buffers [`GridNetwork::reset_into`] stages a deployment in: the
/// clamped nodes, the cell of each, and its dense index, written by the
/// one pass that also validates them against the mask. A commit swaps
/// the node and cell buffers with the network's own, so every
/// allocation is reused trial after trial. They hold no network state
/// between resets, so they take no part in equality or debug output,
/// and a clone starts them empty.
#[derive(Default)]
struct Staging {
    nodes: Vec<SensorNode>,
    coords: Vec<GridCoord>,
    cells: Vec<u32>,
}

impl Clone for Staging {
    fn clone(&self) -> Staging {
        Staging::default()
    }
}

impl PartialEq for Staging {
    fn eq(&self, _: &Staging) -> bool {
        true
    }
}

impl fmt::Debug for Staging {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Staging")
    }
}

impl GridNetwork {
    /// Deploys nodes at `positions` (clamped into the surveillance area,
    /// so callers may pass raw generator output) with no heads elected
    /// yet, over the full rectangular region.
    pub fn new(system: GridSystem, positions: &[Point2]) -> GridNetwork {
        GridNetwork::with_mask(
            system,
            RegionMask::full(system.cols(), system.rows()),
            positions,
        )
        .expect("a full mask accepts every in-area position")
    }

    /// Deploys nodes at `positions` over the irregular region `mask`:
    /// disabled cells hold no nodes, never count as holes, and reject
    /// movement targets. Positions are clamped into the surveillance
    /// area like [`GridNetwork::new`]; use the `deploy::*_masked`
    /// generators to produce mask-respecting positions.
    ///
    /// # Errors
    ///
    /// [`GridError::MaskMismatch`] when `mask` and `system` disagree on
    /// dimensions, and [`GridError::CellDisabled`] when any (clamped)
    /// position lands in a disabled cell.
    pub fn with_mask(
        system: GridSystem,
        mask: RegionMask,
        positions: &[Point2],
    ) -> Result<GridNetwork> {
        mask.check_dims(system.cols(), system.rows())?;
        let cells = system.cell_count();
        let mut net = GridNetwork {
            system,
            nodes: Vec::new(),
            node_cells: Vec::new(),
            members: MemberTable::new(cells),
            heads: vec![None; cells],
            headless: HoleSet::new(cells),
            enabled_bits: Vec::new(),
            occupancy: VacancySet::new(cells),
            enabled: 0,
            mask,
            staging: Staging::default(),
        };
        net.reset_into(positions)?;
        Ok(net)
    }

    /// Clamps `raw` into `area` (the system's surveillance area) and
    /// names its cell. The area rect is half-open per cell mapping;
    /// points on the top/right boundary are nudged inwards by one `f32`
    /// ulp so they land in the last cell.
    fn clamp_position(system: &GridSystem, area: &Rect, raw: Point2) -> (Point2, GridCoord) {
        let mut p = area.clamp_point(raw);
        if p.x >= area.max().x {
            p.x = f64::from(f32::from_bits((p.x as f32).to_bits() - 1));
        }
        if p.y >= area.max().y {
            p.y = f64::from(f32::from_bits((p.y as f32).to_bits() - 1));
        }
        let cell = system
            .cell_of(p)
            .expect("clamped position must be inside the area");
        (p, cell)
    }

    /// Re-deploys the network at `positions` **in place**, reusing every
    /// allocation (node table, member pool, head slots, occupancy
    /// words): the per-trial arena. The result is indistinguishable from
    /// `GridNetwork::with_mask(system, mask, positions)` with the same
    /// system and mask — fresh nodes, no heads, clean change journal —
    /// but a campaign trial pays zero per-cell allocations to get there
    /// (the property tests pin the equality, and an independent oracle
    /// pins placement).
    ///
    /// One pass over `positions` clamps and locates each node exactly
    /// once and checks its cell against the mask, staging the node, its
    /// cell and the cell's dense index off to the side; the per-node cell
    /// index is the staged cells, and the member table is rebuilt from
    /// the staged indices (`MemberTable::rebuild_with`) without locating
    /// anything again. The area rectangle is built once per
    /// call, not once per node.
    ///
    /// # Errors
    ///
    /// [`GridError::CellDisabled`] when any (clamped) position lands in
    /// a disabled cell; the network is left unchanged in that case.
    pub fn reset_into(&mut self, positions: &[Point2]) -> Result<()> {
        // Validate while staging, so a rejected deployment returns before
        // the current trial's state is touched.
        let area = self.system.area();
        let staging = &mut self.staging;
        staging.nodes.clear();
        staging.coords.clear();
        staging.cells.clear();
        for (i, &raw) in positions.iter().enumerate() {
            let (p, cell) = GridNetwork::clamp_position(&self.system, &area, raw);
            let idx = self
                .system
                .index_of(cell)
                .expect("cell_of returns in-bounds coords");
            if !self.mask.index_enabled(idx) {
                return Err(GridError::CellDisabled { coord: cell });
            }
            staging
                .nodes
                .push(SensorNode::new(NodeId::new(i as u32), p));
            staging.coords.push(cell);
            staging.cells.push(idx as u32);
        }
        std::mem::swap(&mut self.nodes, &mut staging.nodes);
        std::mem::swap(&mut self.node_cells, &mut staging.coords);
        let cells = self.system.cell_count();
        let count = self.nodes.len();
        self.members.rebuild_with(cells, &staging.cells);
        self.heads.clear();
        self.heads.resize(cells, None);
        self.enabled_bits.clear();
        self.enabled_bits.resize(count.div_ceil(WORD_BITS), !0u64);
        if !count.is_multiple_of(WORD_BITS) {
            if let Some(last) = self.enabled_bits.last_mut() {
                *last = (1u64 << (count % WORD_BITS)) - 1;
            }
        }
        self.enabled = count;
        self.occupancy.reset(cells);
        self.headless.reset(cells);
        for idx in 0..cells {
            // Disabled cells read as occupied forever: no vacancy query
            // or change-journal consumer ever sees them as holes.
            if self.members.len_of(idx) > 0 || !self.mask.index_enabled(idx) {
                self.occupancy.set_occupied(idx);
            }
            // No heads yet: every occupied cell awaits election.
            if self.members.len_of(idx) > 0 {
                self.headless.insert(idx);
            }
        }
        // A freshly deployed network starts with a clean journal: the
        // initial state is the consumer's baseline, not a change.
        self.occupancy.clear_changes();
        Ok(())
    }

    /// The surveillance region mask ([`RegionMask::is_full`] unless the
    /// network was built with [`GridNetwork::with_mask`]).
    #[inline]
    pub fn mask(&self) -> &RegionMask {
        &self.mask
    }

    /// Whether `coord` is an enabled (deployable) cell of the region.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] for coordinates outside the
    /// grid.
    pub fn is_cell_enabled(&self, coord: GridCoord) -> Result<bool> {
        self.system.index_of(coord)?;
        Ok(self.mask.is_enabled(coord))
    }

    /// The grid description.
    #[inline]
    pub fn system(&self) -> &GridSystem {
        &self.system
    }

    /// All deployed nodes (enabled and disabled).
    #[inline]
    pub fn nodes(&self) -> &[SensorNode] {
        &self.nodes
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::UnknownNode`] for ids not deployed in this
    /// network.
    pub fn node(&self, id: NodeId) -> Result<&SensorNode> {
        self.nodes
            .get(id.index())
            .ok_or(GridError::UnknownNode { index: id.index() })
    }

    /// Number of deployed nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of enabled nodes — O(1), maintained incrementally.
    #[inline]
    pub fn enabled_count(&self) -> usize {
        self.enabled
    }

    /// The incremental occupancy index (vacancy bitset + change
    /// journal). Most callers use the convenience accessors
    /// ([`GridNetwork::vacant_iter`], [`GridNetwork::changed_cells`]);
    /// the raw index is exposed for index-level consumers.
    #[inline]
    pub fn occupancy(&self) -> &VacancySet {
        &self.occupancy
    }

    /// Cells whose occupancy toggled since the last
    /// [`GridNetwork::clear_changed_cells`], as dense row-major indices,
    /// deduplicated. Protocols use this to maintain pending-hole sets in
    /// O(changed) per round; read current vacancy from the index, not
    /// from the entry ordering.
    #[inline]
    pub fn changed_cells(&self) -> &[u32] {
        self.occupancy.changed_cells()
    }

    /// Empties the occupancy change journal (the consumer caught up).
    pub fn clear_changed_cells(&mut self) {
        self.occupancy.clear_changes();
    }

    /// Folds the change journal into a consumer's pending-hole set —
    /// cells that became vacant are inserted, filled cells removed —
    /// then clears the journal. One bit write per changed cell, no
    /// allocation. This is the canonical way a round-based protocol
    /// keeps its hole set current; current vacancy is read from the
    /// index, per the journal's hint semantics.
    pub fn fold_changed_cells_into(&mut self, pending: &mut HoleSet) {
        pending.fold_changes(&self.occupancy);
        self.occupancy.clear_changes();
    }

    /// The cell currently containing enabled node `id`, or `None` when
    /// the node is disabled or unknown. O(1): one read of the per-node
    /// cell index, which every placement and move keeps current, so the
    /// position is never divided by the cell side.
    pub fn cell_of_node(&self, id: NodeId) -> Option<GridCoord> {
        let node = self.nodes.get(id.index())?;
        node.status()
            .is_enabled()
            .then(|| self.node_cells[id.index()])
    }

    /// Enabled members of `coord`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] for coordinates outside the
    /// grid.
    pub fn members(&self, coord: GridCoord) -> Result<&[NodeId]> {
        Ok(self.members.cell(self.system.index_of(coord)?))
    }

    /// The head of `coord`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] for coordinates outside the
    /// grid.
    pub fn head_of(&self, coord: GridCoord) -> Result<Option<NodeId>> {
        Ok(self.heads[self.system.index_of(coord)?])
    }

    /// `true` when `coord` is an enabled cell holding no enabled node —
    /// the paper's *vacant grid* / *hole*. Disabled (masked-out) cells
    /// are never vacant: they are not part of the surveillance region.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] for coordinates outside the
    /// grid.
    pub fn is_vacant(&self, coord: GridCoord) -> Result<bool> {
        Ok(self.occupancy.is_vacant(self.system.index_of(coord)?))
    }

    /// Iterates the vacant cells in row-major order without allocating,
    /// skipping fully-occupied 64-cell blocks via the vacancy bitset.
    pub fn vacant_iter(&self) -> impl Iterator<Item = GridCoord> + '_ {
        self.occupancy
            .iter_vacant()
            .map(|i| self.system.coord_of(i))
    }

    /// Number of vacant cells — O(1), maintained incrementally.
    #[inline]
    pub fn vacant_count(&self) -> usize {
        self.occupancy.vacant_count()
    }

    /// All vacant cells recomputed by a full scan of the member table,
    /// bypassing the incremental index. This is the pre-index O(cells)
    /// code path, kept as the correctness oracle for `debug_invariants`
    /// and the property tests.
    pub fn vacant_cells_scan(&self) -> Vec<GridCoord> {
        (0..self.members.cells())
            .filter(|&i| self.members.len_of(i) == 0 && self.mask.index_enabled(i))
            .map(|i| self.system.coord_of(i))
            .collect()
    }

    /// Number of enabled cells with at least one enabled node — O(1).
    /// Disabled cells are excluded even though the underlying bitset
    /// marks them occupied.
    #[inline]
    pub fn occupied_cells(&self) -> usize {
        self.occupancy.occupied_count() - self.mask.disabled_count()
    }

    /// Spares in `coord`: enabled members that are not the head. When no
    /// head is elected yet, all members count as spares except the one
    /// that would be lost to head duty — the paper's `N` accounting uses
    /// occupancy, so this returns `max(len − 1, 0)` regardless of whether
    /// election ran.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] for coordinates outside the
    /// grid.
    pub fn spare_count(&self, coord: GridCoord) -> Result<usize> {
        Ok(self.members(coord)?.len().saturating_sub(1))
    }

    /// Iterates the spare nodes of `coord` without allocating, in member
    /// order (members minus the head; when no head is set, all but the
    /// first member).
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] for coordinates outside the
    /// grid.
    pub fn spare_iter(&self, coord: GridCoord) -> Result<impl Iterator<Item = NodeId> + '_> {
        let idx = self.system.index_of(coord)?;
        let head = self.heads[idx];
        Ok(self
            .members
            .cell(idx)
            .iter()
            .copied()
            .enumerate()
            .filter(move |&(i, id)| match head {
                Some(h) => id != h,
                None => i != 0,
            })
            .map(|(_, id)| id))
    }

    /// The raw spare-availability words: one bit per cell, set ⇔ the
    /// cell holds ≥ 2 enabled members (at least one spare under the
    /// paper's occupancy accounting), same layout as
    /// [`VacancySet::vacant_words`]. Maintained incrementally by every
    /// membership mutation, so word-level spare scans cost `cells/64`
    /// word reads instead of a per-cell member-count probe.
    #[inline]
    pub fn spareful_words(&self) -> &[u64] {
        self.members.multi_words()
    }

    /// Iterates the cells holding at least one spare (≥ 2 members) in
    /// row-major order without allocating, skipping spare-less 64-cell
    /// blocks via [`GridNetwork::spareful_words`].
    pub fn spareful_iter(&self) -> impl Iterator<Item = GridCoord> + '_ {
        self.members
            .multi_words()
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                let base = w * WORD_BITS;
                std::iter::successors((word != 0).then_some(word), |&rest| {
                    let next = rest & (rest - 1);
                    (next != 0).then_some(next)
                })
                .map(move |rest| base + rest.trailing_zeros() as usize)
            })
            .map(|i| self.system.coord_of(i))
    }

    /// Total spares in the network — the paper's `N`
    /// (`enabled − occupied`). O(1).
    #[inline]
    pub fn total_spares(&self) -> usize {
        self.enabled - self.occupied_cells()
    }

    /// Headline occupancy numbers — O(1), read from the index. All
    /// counts are over *enabled* (in-mask) cells: disabled cells appear
    /// in none of them.
    pub fn stats(&self) -> NetworkStats {
        let enabled = self.enabled;
        let occupied = self.occupied_cells();
        NetworkStats {
            enabled,
            occupied,
            vacant: self.mask.enabled_count() - occupied,
            spares: enabled - occupied,
        }
    }

    /// Elects a head in every occupied cell using `policy`, in
    /// row-major order (so [`HeadElection::Random`] draws in cell
    /// order). A cell's center is computed only when the policy reads it
    /// — [`HeadElection::ClosestToCenter`] — so the other policies cost
    /// one member-slice read per cell.
    pub fn elect_all_heads(&mut self, policy: HeadElection, rng: &mut SimRng) {
        let system = &self.system;
        for idx in 0..self.members.cells() {
            let center = || cell_center(system, idx);
            self.heads[idx] = policy.elect(self.members.cell(idx), &self.nodes, center, rng);
        }
        // Every cell with members now has a head.
        self.headless.clear();
    }

    /// Re-elects heads only in cells that have members but no head
    /// (after a head was disabled or moved away). Returns how many cells
    /// were repaired.
    ///
    /// Walks the headless index in row-major order, so it visits the
    /// same cells in the same order, and draws the same
    /// [`HeadElection::Random`] numbers, as a scan of every cell would,
    /// at O(repaired) cost (plus one word per summary level). Like
    /// [`GridNetwork::elect_all_heads`], it builds a cell center only
    /// for [`HeadElection::ClosestToCenter`].
    pub fn repair_heads(&mut self, policy: HeadElection, rng: &mut SimRng) -> usize {
        let repaired = self.headless.len();
        let system = &self.system;
        self.headless.drain(|idx| {
            let center = || cell_center(system, idx);
            self.heads[idx] = policy.elect(self.members.cell(idx), &self.nodes, center, rng);
        });
        repaired
    }

    /// Occupied cells with no elected head, in row-major order: the
    /// cells the next [`GridNetwork::repair_heads`] elects in.
    pub fn headless_iter(&self) -> impl Iterator<Item = GridCoord> + '_ {
        self.headless.iter().map(|i| self.system.coord_of(i))
    }

    /// Re-derives cell `idx`'s headless bit after a membership or head
    /// change.
    fn sync_headless(&mut self, idx: usize) {
        if self.heads[idx].is_none() && self.members.len_of(idx) > 0 {
            self.headless.insert(idx);
        } else {
            self.headless.remove(idx);
        }
    }

    /// Makes `id` the head of `coord`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::OutOfBounds`] for bad coordinates and
    /// [`GridError::UnknownNode`] when `id` is not an enabled member of
    /// `coord`.
    pub fn set_head(&mut self, coord: GridCoord, id: NodeId) -> Result<()> {
        let idx = self.system.index_of(coord)?;
        if !self.members.cell(idx).contains(&id) {
            return Err(GridError::UnknownNode { index: id.index() });
        }
        self.heads[idx] = Some(id);
        self.headless.remove(idx);
        Ok(())
    }

    /// Deploys one fresh, fully-charged node at `raw` (clamped into the
    /// surveillance area like [`GridNetwork::new`]) and returns its id.
    /// This is the open-system arrival path of the steady-state
    /// workloads: ids keep growing densely past the initial deployment,
    /// and every incremental index (members, enabled bitset, occupancy,
    /// change journal) is maintained in O(1).
    ///
    /// # Errors
    ///
    /// [`GridError::CellDisabled`] when the clamped position lands in a
    /// masked-out cell; the network is left unchanged.
    pub fn add_node(&mut self, raw: Point2) -> Result<NodeId> {
        self.add_node_with_battery(raw, wsn_simcore::Battery::default())
    }

    /// [`GridNetwork::add_node`] with an explicit battery (arrivals in
    /// depletion scenarios may come partially charged).
    ///
    /// # Errors
    ///
    /// [`GridError::CellDisabled`] when the clamped position lands in a
    /// masked-out cell; the network is left unchanged.
    pub fn add_node_with_battery(
        &mut self,
        raw: Point2,
        battery: wsn_simcore::Battery,
    ) -> Result<NodeId> {
        let (p, cell) = GridNetwork::clamp_position(&self.system, &self.system.area(), raw);
        if !self.mask.is_enabled(cell) {
            return Err(GridError::CellDisabled { coord: cell });
        }
        let id = NodeId::new(self.nodes.len() as u32);
        let idx = self
            .system
            .index_of(cell)
            .expect("clamped position cell is in bounds");
        self.nodes.push(SensorNode::with_battery(id, p, battery));
        self.node_cells.push(cell);
        self.members.push(idx, id);
        if self.enabled_bits.len() * WORD_BITS < self.nodes.len() {
            self.enabled_bits.push(0);
        }
        self.enabled_bits[id.index() / WORD_BITS] |= 1u64 << (id.index() % WORD_BITS);
        self.enabled += 1;
        self.occupancy.set_occupied(idx);
        self.sync_headless(idx);
        Ok(id)
    }

    /// Disables a node, removing it from its cell's member list (and from
    /// head duty if it held it). Idempotent for already-disabled nodes.
    /// Returns the cell the node occupied, or `None` when it was already
    /// disabled.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::UnknownNode`] for undeployed ids.
    pub fn disable_node(&mut self, id: NodeId) -> Result<Option<GridCoord>> {
        let node = self
            .nodes
            .get_mut(id.index())
            .ok_or(GridError::UnknownNode { index: id.index() })?;
        if !node.status().is_enabled() {
            return Ok(None);
        }
        node.disable();
        let cell = self.node_cells[id.index()];
        let idx = self.system.index_of(cell)?;
        self.members.remove(idx, id);
        if self.heads[idx] == Some(id) {
            self.heads[idx] = None;
        }
        self.enabled -= 1;
        self.enabled_bits[id.index() / WORD_BITS] &= !(1u64 << (id.index() % WORD_BITS));
        if self.members.len_of(idx) == 0 {
            self.occupancy.set_vacant(idx);
        }
        self.sync_headless(idx);
        Ok(Some(cell))
    }

    /// Moves enabled node `id` to `target` (which must be inside the
    /// surveillance area and in an enabled cell), updating membership.
    /// If the node was its source cell's head, the source head slot is
    /// cleared; the destination's head is left as it was, so a node that
    /// lands in an empty cell leaves it headless until
    /// [`GridNetwork::set_head`] or [`GridNetwork::repair_heads`]. This
    /// is the move for arbitrary points (VF's virtual forces, SMART's
    /// balancing flow); a repair hop into a cell's central area is
    /// [`GridNetwork::move_into_cell`], which skips locating the target
    /// and heads the cell in the same pass. Both keep the network's
    /// indexes through one shared bookkeeping step.
    ///
    /// The destination cell is located from `target` (one division per
    /// axis); the source cell is read from the per-node cell index.
    ///
    /// **Obstacle-aware distance.** On masked networks, when the straight
    /// segment between the old and new position crosses a disabled cell,
    /// the reported [`MoveOutcome::distance`] is the detour the node must
    /// physically take: the 4-connected shortest path through enabled
    /// cells ([`RegionMask::grid_distance`]) scaled by the cell side —
    /// never less than the Euclidean chord. On full (rectangular)
    /// networks the distance is always the Euclidean chord, unchanged.
    /// When the region is *disconnected* and the two cells sit in
    /// different components, no in-region detour exists; the move is
    /// then billed the plain chord (read it as an out-of-band
    /// redeployment, e.g. aerial). Keep masks 4-connected — every
    /// [`RegionShape`](crate::RegionShape) preset is — when strict
    /// ground-travel accounting matters.
    ///
    /// # Errors
    ///
    /// [`GridError::TargetOutsideArea`] when `target` falls outside the
    /// grid, [`GridError::CellDisabled`] when it falls in a masked-out
    /// cell, [`GridError::UnknownNode`] for undeployed ids and
    /// [`GridError::NodeDisabled`] for disabled nodes (checked in that
    /// order; the network is unchanged on error).
    pub fn move_node(&mut self, id: NodeId, target: Point2) -> Result<MoveOutcome> {
        let to = self
            .system
            .cell_of(target)
            .ok_or(GridError::TargetOutsideArea)?;
        let to_idx = self.enabled_index(to)?;
        self.relocate(id, target, to, to_idx, false)
    }

    /// One repair hop: moves enabled node `id` to the point at unit
    /// coordinates `(u, v)` of cell `to`'s central area
    /// ([`CellGeometry::central_point`](wsn_geometry::CellGeometry::central_point)),
    /// and makes it `to`'s head when `to` has none. Callers draw `u` and
    /// then `v` uniformly from `[0, 1)`, the paper's movement target (§4).
    ///
    /// The result, network state and [`MoveOutcome`] included, is
    /// exactly that of [`GridNetwork::move_node`] to the same point
    /// followed by [`GridNetwork::set_head`] when `to` was headless (a
    /// property test holds the two paths equal on full and masked
    /// regions). It is cheaper because the cell is given: nothing is
    /// located by division, no rectangle is built or validated, no member
    /// list is searched, and a vacant `to` never enters the headless
    /// index only to leave it again.
    ///
    /// # Errors
    ///
    /// [`GridError::OutOfBounds`] when `to` is not a cell of the grid,
    /// [`GridError::CellDisabled`] when it is masked out,
    /// [`GridError::UnknownNode`] for undeployed ids and
    /// [`GridError::NodeDisabled`] for disabled nodes (checked in that
    /// order; the network is unchanged on error).
    pub fn move_into_cell(
        &mut self,
        id: NodeId,
        to: GridCoord,
        u: f64,
        v: f64,
    ) -> Result<MoveOutcome> {
        let to_idx = self.enabled_index(to)?;
        let target = self
            .system
            .geometry()
            .central_point(u32::from(to.x), u32::from(to.y), u, v);
        self.relocate(id, target, to, to_idx, true)
    }

    /// The dense index of `coord`, which must be an enabled cell.
    fn enabled_index(&self, coord: GridCoord) -> Result<usize> {
        let idx = self.system.index_of(coord)?;
        if !self.mask.index_enabled(idx) {
            return Err(GridError::CellDisabled { coord });
        }
        Ok(idx)
    }

    /// The bookkeeping of every move, shared by
    /// [`GridNetwork::move_node`] and [`GridNetwork::move_into_cell`]:
    /// moves enabled node `id` to `target`, which lies in enabled cell
    /// `to` (dense index `to_idx`), and keeps the per-node cell index,
    /// member lists, head slots, occupancy plus its journal, and the
    /// headless index in step. With `take_head`, the mover also heads
    /// `to` when `to` has no head.
    fn relocate(
        &mut self,
        id: NodeId,
        target: Point2,
        to: GridCoord,
        to_idx: usize,
        take_head: bool,
    ) -> Result<MoveOutcome> {
        let node = self
            .nodes
            .get_mut(id.index())
            .ok_or(GridError::UnknownNode { index: id.index() })?;
        if !node.status().is_enabled() {
            return Err(GridError::NodeDisabled { index: id.index() });
        }
        let from_pos = node.position();
        let mut distance = node.move_to(target);
        let from = std::mem::replace(&mut self.node_cells[id.index()], to);
        let from_idx = self
            .system
            .index_of(from)
            .expect("the cell index holds in-bounds cells");
        let was_vacant = from_idx != to_idx && self.members.len_of(to_idx) == 0;
        if from_idx != to_idx {
            if !self.mask.is_full()
                && !self
                    .mask
                    .segment_clear(self.system.cell_side(), from_pos, target)
            {
                // The chord crosses an obstacle: bill the detour through
                // enabled cells instead (never less than the chord).
                if let Some(hops) = self.mask.grid_distance(from, to) {
                    distance = distance.max(hops as f64 * self.system.cell_side());
                }
            }
            self.members.remove(from_idx, id);
            self.members.push(to_idx, id);
            if self.heads[from_idx] == Some(id) {
                self.heads[from_idx] = None;
            }
            if self.members.len_of(from_idx) == 0 {
                self.occupancy.set_vacant(from_idx);
            }
            self.occupancy.set_occupied(to_idx);
            self.sync_headless(from_idx);
        }
        // `to` was in the headless index iff it had members but no head;
        // it belongs there now iff it still has no head.
        if self.heads[to_idx].is_none() {
            if take_head {
                self.heads[to_idx] = Some(id);
                if !was_vacant {
                    self.headless.remove(to_idx);
                }
            } else if was_vacant {
                self.headless.insert(to_idx);
            }
        }
        Ok(MoveOutcome { from, to, distance })
    }

    /// Draws `amount` joules from a node's battery, returning `true`
    /// when the battery is depleted afterwards. The caller decides what
    /// depletion means (protocols with battery dynamics disable the
    /// node).
    ///
    /// # Errors
    ///
    /// Returns [`GridError::UnknownNode`] for undeployed ids.
    pub fn draw_battery(&mut self, id: NodeId, amount: f64) -> Result<bool> {
        let node = self
            .nodes
            .get_mut(id.index())
            .ok_or(GridError::UnknownNode { index: id.index() })?;
        node.battery_mut().draw(amount);
        Ok(node.battery().is_depleted())
    }

    /// Applies one fault event, returning the ids actually disabled.
    pub fn apply_fault(&mut self, event: &FaultEvent, rng: &mut SimRng) -> Vec<NodeId> {
        let victims: Vec<NodeId> = match event {
            FaultEvent::KillNodes(ids) => ids
                .iter()
                .copied()
                .filter(|id| {
                    self.nodes
                        .get(id.index())
                        .is_some_and(|n| n.status().is_enabled())
                })
                .collect(),
            FaultEvent::KillRandomEnabled { count } => {
                // Sample ordinals into the enabled population (the draw
                // sequence depends only on (n, k), so this consumes the
                // rng exactly like the old materialize-an-id-list path),
                // then resolve each ordinal with rank/select over the
                // enabled-node bitset: a word-popcount prefix built once,
                // a binary search plus an in-word select per victim. No
                // O(network) id list is allocated.
                let picks = rng.sample_indices(self.enabled, *count);
                let mut prefix = Vec::with_capacity(self.enabled_bits.len());
                let mut acc = 0u32;
                for &word in &self.enabled_bits {
                    prefix.push(acc);
                    acc += word.count_ones();
                }
                picks
                    .into_iter()
                    .map(|ordinal| {
                        let ordinal = ordinal as u32;
                        let w = prefix.partition_point(|&p| p <= ordinal) - 1;
                        let mut rest = self.enabled_bits[w];
                        for _ in 0..ordinal - prefix[w] {
                            rest &= rest - 1;
                        }
                        NodeId::new((w * WORD_BITS + rest.trailing_zeros() as usize) as u32)
                    })
                    .collect()
            }
            FaultEvent::KillRegion(disk) => self
                .nodes
                .iter()
                .filter(|n| n.status().is_enabled() && disk.contains(n.position()))
                .map(|n| n.id())
                .collect(),
        };
        for &id in &victims {
            self.disable_node(id)
                .expect("victims are deployed enabled nodes");
        }
        victims
    }

    /// Verifies the structural invariants; used by tests and proptests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn debug_invariants(&self) {
        self.members.verify();
        let mut seen = vec![false; self.nodes.len()];
        for idx in 0..self.members.cells() {
            let m = self.members.cell(idx);
            let coord = self.system.coord_of(idx);
            assert!(
                m.is_empty() || self.mask.index_enabled(idx),
                "disabled cell {coord} holds members"
            );
            for &id in m {
                assert!(
                    self.nodes[id.index()].status().is_enabled(),
                    "disabled node {id} in member list of {coord}"
                );
                assert!(!seen[id.index()], "node {id} in two member lists");
                seen[id.index()] = true;
                let cell = self
                    .system
                    .cell_of(self.nodes[id.index()].position())
                    .expect("member position inside area");
                assert_eq!(cell, coord, "node {id} listed in wrong cell");
            }
            if let Some(h) = self.heads[idx] {
                assert!(m.contains(&h), "head {h} of {coord} not a member");
            }
        }
        assert_eq!(
            self.node_cells.len(),
            self.nodes.len(),
            "cell index length out of sync with the node table"
        );
        for node in &self.nodes {
            let i = node.id().index();
            if node.status().is_enabled() {
                assert!(
                    seen[i],
                    "enabled node {} missing from member lists",
                    node.id()
                );
                assert_eq!(
                    Some(self.node_cells[i]),
                    self.system.cell_of(node.position()),
                    "cell index of node {} disagrees with its position",
                    node.id()
                );
            }
            assert_eq!(
                self.enabled_bits[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0,
                node.status().is_enabled(),
                "enabled bit for node {} out of sync",
                node.id()
            );
        }
        // The incremental index must agree with a full member-table scan
        // (disabled cells read as permanently occupied).
        self.occupancy
            .verify(|i| self.mask.index_enabled(i) && self.members.len_of(i) == 0);
        assert_eq!(
            self.enabled,
            self.members.total_members(),
            "enabled counter out of sync with member lists"
        );
        assert_eq!(
            self.enabled,
            self.enabled_bits
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>(),
            "enabled counter out of sync with the enabled-node bitset"
        );
        assert_eq!(
            self.vacant_iter().collect::<Vec<_>>(),
            self.vacant_cells_scan(),
            "indexed vacancy enumeration disagrees with the full scan"
        );
        let headless_scan: Vec<usize> = (0..self.members.cells())
            .filter(|&i| self.heads[i].is_none() && self.members.len_of(i) > 0)
            .collect();
        assert_eq!(
            self.headless.iter().collect::<Vec<_>>(),
            headless_scan,
            "headless index disagrees with the head table"
        );
        assert_eq!(
            self.headless.len(),
            headless_scan.len(),
            "headless counter out of sync"
        );
    }
}

impl fmt::Display for GridNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "network over {}: {} enabled, {} occupied, {} vacant, {} spares",
            self.system, s.enabled, s.occupied, s.vacant, s.spares
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geometry::Disk;

    fn two_by_two() -> (GridNetwork, SimRng) {
        let sys = GridSystem::new(2, 2, 1.0).unwrap();
        // Cell (0,0): nodes 0, 1. Cell (1,0): node 2. Cells (0,1), (1,1) vacant.
        let net = GridNetwork::new(
            sys,
            &[
                Point2::new(0.2, 0.2),
                Point2::new(0.8, 0.8),
                Point2::new(1.5, 0.5),
            ],
        );
        (net, SimRng::seed_from_u64(0))
    }

    #[test]
    fn deployment_indexes_members() {
        let (net, _) = two_by_two();
        net.debug_invariants();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.enabled_count(), 3);
        assert_eq!(net.members(GridCoord::new(0, 0)).unwrap().len(), 2);
        assert_eq!(net.members(GridCoord::new(1, 0)).unwrap().len(), 1);
        assert!(net.is_vacant(GridCoord::new(0, 1)).unwrap());
        assert_eq!(net.occupied_cells(), 2);
        assert_eq!(net.total_spares(), 1);
        let stats = net.stats();
        assert_eq!(stats.vacant, 2);
        assert_eq!(stats.spares, 1);
    }

    #[test]
    fn boundary_positions_are_clamped_inside() {
        let sys = GridSystem::new(2, 2, 1.0).unwrap();
        let net = GridNetwork::new(
            sys,
            &[
                Point2::new(2.0, 2.0),  // exact top-right corner
                Point2::new(5.0, -3.0), // far outside
            ],
        );
        net.debug_invariants();
        assert_eq!(net.cell_of_node(NodeId::new(0)), Some(GridCoord::new(1, 1)));
        assert_eq!(net.cell_of_node(NodeId::new(1)), Some(GridCoord::new(1, 0)));
    }

    #[test]
    fn election_and_repair() {
        let (mut net, mut rng) = two_by_two();
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        assert_eq!(
            net.head_of(GridCoord::new(0, 0)).unwrap(),
            Some(NodeId::new(0))
        );
        assert_eq!(net.head_of(GridCoord::new(0, 1)).unwrap(), None);
        assert_eq!(
            net.spare_iter(GridCoord::new(0, 0))
                .unwrap()
                .collect::<Vec<_>>(),
            vec![NodeId::new(1)]
        );
        // Disable the head; repair elects the spare.
        net.disable_node(NodeId::new(0)).unwrap();
        assert_eq!(net.head_of(GridCoord::new(0, 0)).unwrap(), None);
        assert_eq!(net.repair_heads(HeadElection::FirstId, &mut rng), 1);
        assert_eq!(
            net.head_of(GridCoord::new(0, 0)).unwrap(),
            Some(NodeId::new(1))
        );
        net.debug_invariants();
    }

    #[test]
    fn disable_is_idempotent_and_creates_holes() {
        let (mut net, _) = two_by_two();
        assert_eq!(
            net.disable_node(NodeId::new(2)).unwrap(),
            Some(GridCoord::new(1, 0))
        );
        assert_eq!(net.disable_node(NodeId::new(2)).unwrap(), None);
        assert!(net.is_vacant(GridCoord::new(1, 0)).unwrap());
        assert_eq!(net.vacant_count(), 3);
        assert!(net.disable_node(NodeId::new(99)).is_err());
        net.debug_invariants();
    }

    #[test]
    fn move_node_updates_membership_and_heads() {
        let (mut net, mut rng) = two_by_two();
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        // Move spare node 1 into vacant cell (0,1).
        let out = net
            .move_node(NodeId::new(1), Point2::new(0.5, 1.5))
            .unwrap();
        assert_eq!(out.from, GridCoord::new(0, 0));
        assert_eq!(out.to, GridCoord::new(0, 1));
        assert!(out.distance > 0.0);
        assert_eq!(
            net.members(GridCoord::new(0, 1)).unwrap(),
            &[NodeId::new(1)]
        );
        // New cell has no head until set explicitly.
        assert_eq!(net.head_of(GridCoord::new(0, 1)).unwrap(), None);
        net.set_head(GridCoord::new(0, 1), NodeId::new(1)).unwrap();
        assert_eq!(
            net.head_of(GridCoord::new(0, 1)).unwrap(),
            Some(NodeId::new(1))
        );
        net.debug_invariants();
    }

    #[test]
    fn move_head_clears_source_head_slot() {
        let (mut net, mut rng) = two_by_two();
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        // Node 2 is head of (1,0); move it north.
        net.move_node(NodeId::new(2), Point2::new(1.5, 1.5))
            .unwrap();
        assert_eq!(net.head_of(GridCoord::new(1, 0)).unwrap(), None);
        assert!(net.is_vacant(GridCoord::new(1, 0)).unwrap());
        net.debug_invariants();
    }

    #[test]
    fn move_validations() {
        let (mut net, _) = two_by_two();
        assert!(matches!(
            net.move_node(NodeId::new(0), Point2::new(10.0, 10.0)),
            Err(GridError::TargetOutsideArea)
        ));
        net.disable_node(NodeId::new(0)).unwrap();
        assert!(matches!(
            net.move_node(NodeId::new(0), Point2::new(0.5, 1.5)),
            Err(GridError::NodeDisabled { .. })
        ));
        assert!(matches!(
            net.move_node(NodeId::new(9), Point2::new(0.5, 1.5)),
            Err(GridError::UnknownNode { .. })
        ));
    }

    #[test]
    fn set_head_requires_membership() {
        let (mut net, _) = two_by_two();
        assert!(net.set_head(GridCoord::new(0, 0), NodeId::new(2)).is_err());
        assert!(net.set_head(GridCoord::new(0, 0), NodeId::new(1)).is_ok());
    }

    #[test]
    fn fault_kill_nodes_and_region() {
        let (mut net, mut rng) = two_by_two();
        let killed = net.apply_fault(&FaultEvent::KillNodes(vec![NodeId::new(0)]), &mut rng);
        assert_eq!(killed, vec![NodeId::new(0)]);
        // Region strike over cell (1,0).
        let disk = Disk::new(Point2::new(1.5, 0.5), 0.4).unwrap();
        let killed = net.apply_fault(&FaultEvent::KillRegion(disk), &mut rng);
        assert_eq!(killed, vec![NodeId::new(2)]);
        assert!(net.is_vacant(GridCoord::new(1, 0)).unwrap());
        net.debug_invariants();
    }

    #[test]
    fn kill_region_boundary_is_closed() {
        // 2x2 grid of 4 m cells. Node 0 at (0.5, 0.5) sits at distance
        // exactly 5 from the disk center (a 3-4-5 triangle, every
        // coordinate exactly representable) — closed containment must
        // kill it; node 1 is out of reach and survives.
        let sys = GridSystem::new(2, 2, 4.0).unwrap();
        let mut net = GridNetwork::new(sys, &[Point2::new(0.5, 0.5), Point2::new(7.75, 7.75)]);
        let mut rng = SimRng::seed_from_u64(0);
        let exact = Disk::new(Point2::new(3.5, 4.5), 5.0).unwrap();
        let killed = net.apply_fault(&FaultEvent::KillRegion(exact), &mut rng);
        assert_eq!(killed, vec![NodeId::new(0)]);
        assert_eq!(net.enabled_count(), 1);
        net.debug_invariants();
        // An epsilon-smaller radius misses the same on-rim node.
        let sys = GridSystem::new(2, 2, 4.0).unwrap();
        let mut fresh = GridNetwork::new(sys, &[Point2::new(0.5, 0.5)]);
        let shy = Disk::new(Point2::new(3.5, 4.5), 5.0 - 1e-9).unwrap();
        assert!(fresh
            .apply_fault(&FaultEvent::KillRegion(shy), &mut rng)
            .is_empty());
        fresh.debug_invariants();
    }

    #[test]
    fn moving_jammer_kills_on_rim_nodes_every_step() {
        use wsn_simcore::Jammer;
        // 8x1 strip, one node per cell at x = 0.5, 1.5, ..., 7.5, all on
        // y = 0.5. The jammer advances 1 m/round along the same line with
        // radius 0.5: at round t its rim touches the nodes at x = t ± 0.5
        // exactly. Closed containment ⇒ each node dies the first round
        // the rim reaches it, with no off-by-epsilon skips as the disk
        // translates.
        let sys = GridSystem::new(8, 1, 1.0).unwrap();
        let positions: Vec<Point2> = (0..8).map(|i| Point2::new(i as f64 + 0.5, 0.5)).collect();
        let mut net = GridNetwork::new(sys, &positions);
        let mut rng = SimRng::seed_from_u64(0);
        let jammer = Jammer {
            start: Point2::new(0.0, 0.5),
            velocity: wsn_geometry::Vec2::new(1.0, 0.0),
            radius: 0.5,
        };
        let plan = jammer.plan(0, 8).unwrap();
        let mut first_killed_at = [None; 8];
        for round in 0..8u64 {
            for event in plan.events_at(round) {
                for id in net.apply_fault(event, &mut rng) {
                    first_killed_at[id.index()] = Some(round);
                }
            }
            net.debug_invariants();
        }
        // Node i sits at x = i + 0.5; the rim first reaches it when the
        // center is at x = i, i.e. round i (touching counts). With an
        // open boundary every kill would slip a round late.
        for (i, round) in first_killed_at.iter().enumerate() {
            assert_eq!(*round, Some(i as u64), "node {i}");
        }
        assert_eq!(net.enabled_count(), 0);
    }

    #[test]
    fn fault_kill_random_saturates() {
        let (mut net, mut rng) = two_by_two();
        let killed = net.apply_fault(&FaultEvent::KillRandomEnabled { count: 100 }, &mut rng);
        assert_eq!(killed.len(), 3);
        assert_eq!(net.enabled_count(), 0);
        assert_eq!(net.occupied_cells(), 0);
        net.debug_invariants();
    }

    #[test]
    fn display_mentions_stats() {
        let (net, _) = two_by_two();
        let s = net.to_string();
        assert!(s.contains("3 enabled"));
        assert!(s.contains("2 vacant"));
    }

    #[test]
    fn fresh_network_has_clean_journal_and_consistent_index() {
        let (net, _) = two_by_two();
        assert!(net.changed_cells().is_empty());
        assert_eq!(net.vacant_count(), 2);
        assert_eq!(
            net.vacant_iter().collect::<Vec<_>>(),
            net.vacant_cells_scan()
        );
        assert_eq!(net.vacant_iter().count(), 2);
        assert_eq!(net.occupancy().occupied_count(), 2);
    }

    #[test]
    fn mutations_feed_the_change_journal() {
        let (mut net, _) = two_by_two();
        // Disabling the lone member of (1,0) opens a hole -> journaled.
        net.disable_node(NodeId::new(2)).unwrap();
        let idx_10 = net.system().index_of(GridCoord::new(1, 0)).unwrap() as u32;
        assert_eq!(net.changed_cells(), &[idx_10]);
        // Disabling one of two members of (0,0) changes nothing.
        net.disable_node(NodeId::new(0)).unwrap();
        assert_eq!(net.changed_cells(), &[idx_10]);
        net.clear_changed_cells();
        // Moving the last member of (0,0) into (0,1) journals both ends.
        net.move_node(NodeId::new(1), Point2::new(0.5, 1.5))
            .unwrap();
        let idx_00 = net.system().index_of(GridCoord::new(0, 0)).unwrap() as u32;
        let idx_01 = net.system().index_of(GridCoord::new(0, 1)).unwrap() as u32;
        let mut changed = net.changed_cells().to_vec();
        changed.sort_unstable();
        assert_eq!(changed, vec![idx_00, idx_01]);
        assert!(net.is_vacant(GridCoord::new(0, 0)).unwrap());
        assert!(!net.is_vacant(GridCoord::new(0, 1)).unwrap());
        net.debug_invariants();
    }

    #[test]
    fn spare_iter_with_and_without_head() {
        let (mut net, mut rng) = two_by_two();
        let c = GridCoord::new(0, 0);
        // No head yet: all but the first member.
        assert_eq!(
            net.spare_iter(c).unwrap().collect::<Vec<_>>(),
            vec![NodeId::new(1)]
        );
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        assert_eq!(
            net.spare_iter(c).unwrap().collect::<Vec<_>>(),
            vec![NodeId::new(1)]
        );
        assert_eq!(
            net.spare_iter(c).unwrap().count(),
            net.spare_count(c).unwrap()
        );
        assert!(net.spare_iter(GridCoord::new(9, 9)).is_err());
    }

    #[test]
    fn add_node_maintains_every_index() {
        let (mut net, _) = two_by_two();
        // Arrival into the vacant cell (0,1) fills the hole.
        let id = net.add_node(Point2::new(0.5, 1.5)).unwrap();
        assert_eq!(id, NodeId::new(3));
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.enabled_count(), 4);
        assert!(!net.is_vacant(GridCoord::new(0, 1)).unwrap());
        assert_eq!(net.members(GridCoord::new(0, 1)).unwrap(), &[id]);
        // The journal records the fill for the round engines, whose
        // detection folds it into their pending-hole sets.
        let idx_01 = net.system().index_of(GridCoord::new(0, 1)).unwrap() as u32;
        assert!(net.changed_cells().contains(&idx_01));
        net.debug_invariants();
        // Arrival into an occupied cell adds a spare.
        let spare = net.add_node(Point2::new(0.4, 0.4)).unwrap();
        assert_eq!(spare, NodeId::new(4));
        assert_eq!(net.spare_count(GridCoord::new(0, 0)).unwrap(), 2);
        net.debug_invariants();
        // Out-of-area positions clamp like the deployment path.
        let clamped = net.add_node(Point2::new(99.0, -5.0)).unwrap();
        assert_eq!(net.cell_of_node(clamped), Some(GridCoord::new(1, 0)));
        net.debug_invariants();
    }

    #[test]
    fn add_node_crosses_word_boundary() {
        // Push the node count past 64 so the enabled bitset must grow.
        let sys = GridSystem::new(2, 2, 1.0).unwrap();
        let mut net = GridNetwork::new(sys, &[Point2::new(0.5, 0.5)]);
        for i in 0..70 {
            let x = 0.1 + 1.8 * (i as f64 / 70.0);
            net.add_node(Point2::new(x, 1.5)).unwrap();
        }
        assert_eq!(net.enabled_count(), 71);
        net.debug_invariants();
        // Disable one arrival past the boundary; the bitset stays in sync.
        net.disable_node(NodeId::new(66)).unwrap();
        assert_eq!(net.enabled_count(), 70);
        net.debug_invariants();
    }

    #[test]
    fn add_node_rejects_masked_cells_and_leaves_state_intact() {
        use crate::RegionMask;
        let sys = GridSystem::new(4, 4, 1.0).unwrap();
        let mask = RegionMask::full(4, 4).difference_rect(2, 0, 3, 3);
        let mut net = GridNetwork::with_mask(sys, mask, &[Point2::new(0.5, 0.5)]).unwrap();
        assert!(matches!(
            net.add_node(Point2::new(3.5, 0.5)),
            Err(GridError::CellDisabled { .. })
        ));
        assert_eq!(net.node_count(), 1);
        assert_eq!(net.enabled_count(), 1);
        net.debug_invariants();
    }

    #[test]
    fn add_node_with_battery_keeps_charge() {
        let (mut net, _) = two_by_two();
        let weak = wsn_simcore::Battery::new(5.0);
        let id = net
            .add_node_with_battery(Point2::new(0.5, 1.5), weak)
            .unwrap();
        assert_eq!(net.node(id).unwrap().battery().capacity(), 5.0);
        assert!(net.draw_battery(id, 10.0).unwrap());
        net.debug_invariants();
    }

    #[test]
    fn masked_network_excludes_disabled_cells_everywhere() {
        use crate::RegionMask;
        // 4x4 with the right half disabled: 8 enabled cells.
        let sys = GridSystem::new(4, 4, 1.0).unwrap();
        let mask = RegionMask::full(4, 4).difference_rect(2, 0, 3, 3);
        // One node in (0,0); the rest of the enabled region is vacant.
        let net = GridNetwork::with_mask(sys, mask.clone(), &[Point2::new(0.5, 0.5)]).unwrap();
        net.debug_invariants();
        let stats = net.stats();
        assert_eq!(stats.enabled, 1);
        assert_eq!(stats.occupied, 1);
        assert_eq!(stats.vacant, 7, "only enabled cells can be holes");
        assert_eq!(stats.spares, 0);
        assert_eq!(net.vacant_count(), 7);
        assert_eq!(
            net.vacant_iter().collect::<Vec<_>>(),
            net.vacant_cells_scan()
        );
        assert!(net.vacant_iter().all(|c| net.is_cell_enabled(c).unwrap()));
        // Disabled cells are never vacant and never enabled.
        assert!(!net.is_vacant(GridCoord::new(3, 3)).unwrap());
        assert!(!net.is_cell_enabled(GridCoord::new(3, 3)).unwrap());
        assert!(net.is_cell_enabled(GridCoord::new(9, 9)).is_err());
    }

    #[test]
    fn masked_network_rejects_disabled_placements_and_moves() {
        use crate::RegionMask;
        let sys = GridSystem::new(4, 4, 1.0).unwrap();
        let mask = RegionMask::full(4, 4).difference_rect(2, 0, 3, 3);
        // A position in the disabled half is rejected at deployment.
        assert!(matches!(
            GridNetwork::with_mask(sys, mask.clone(), &[Point2::new(3.5, 0.5)]),
            Err(GridError::CellDisabled { .. })
        ));
        // Dimension mismatch is rejected.
        assert!(matches!(
            GridNetwork::with_mask(sys, RegionMask::full(5, 5), &[]),
            Err(GridError::MaskMismatch { .. })
        ));
        // A move into a disabled cell is rejected.
        let mut net = GridNetwork::with_mask(sys, mask, &[Point2::new(0.5, 0.5)]).unwrap();
        assert!(matches!(
            net.move_node(NodeId::new(0), Point2::new(2.5, 0.5)),
            Err(GridError::CellDisabled { .. })
        ));
        net.debug_invariants();
    }

    #[test]
    fn masked_move_bills_the_obstacle_detour() {
        use crate::RegionMask;
        // 5x1-style wall: a 5x3 grid with the middle column's top two
        // cells disabled forces a detour through the bottom row.
        let sys = GridSystem::new(5, 3, 1.0).unwrap();
        let mask = RegionMask::full(5, 3).difference_rect(2, 1, 2, 2);
        let net_pos = [Point2::new(0.5, 2.5)];
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &net_pos).unwrap();
        // Move from (0,2) to (4,2): chord is ~4 m but the straight line
        // crosses the disabled (2,1)/(2,2) block, so the billed distance
        // is the 8-hop detour through the bottom row.
        let out = net
            .move_node(NodeId::new(0), Point2::new(4.5, 2.5))
            .unwrap();
        assert_eq!(out.to, GridCoord::new(4, 2));
        let hops = mask
            .grid_distance(GridCoord::new(0, 2), GridCoord::new(4, 2))
            .unwrap();
        assert_eq!(hops, 8);
        assert!((out.distance - 8.0).abs() < 1e-9, "got {}", out.distance);
        // A clear move on the same network stays Euclidean.
        let out = net
            .move_node(NodeId::new(0), Point2::new(3.5, 2.5))
            .unwrap();
        assert!((out.distance - 1.0).abs() < 1e-9);
        net.debug_invariants();
    }

    #[test]
    fn all_cells_disabled_or_vacant_degenerate_grid() {
        use crate::RegionMask;
        // Zero nodes on a mask with a single enabled cell: every cell of
        // the grid is disabled-or-vacant. Vacancy queries must stay
        // consistent and spare iteration empty.
        let sys = GridSystem::new(4, 4, 1.0).unwrap();
        let mask = RegionMask::full(4, 4)
            .difference_rect(0, 0, 3, 3)
            .union_rect(1, 2, 1, 2);
        assert_eq!(mask.enabled_count(), 1);
        let net = GridNetwork::with_mask(sys, mask, &[]).unwrap();
        net.debug_invariants();
        assert_eq!(net.vacant_count(), 1);
        assert_eq!(
            net.vacant_iter().collect::<Vec<_>>(),
            vec![GridCoord::new(1, 2)]
        );
        assert_eq!(
            net.vacant_iter().collect::<Vec<_>>(),
            net.vacant_cells_scan()
        );
        assert_eq!(net.occupied_cells(), 0);
        assert_eq!(net.total_spares(), 0);
        let stats = net.stats();
        assert_eq!((stats.enabled, stats.occupied, stats.vacant), (0, 0, 1));
        // Spare iteration over vacant and disabled cells yields nothing.
        assert_eq!(net.spare_iter(GridCoord::new(1, 2)).unwrap().count(), 0);
        assert_eq!(net.spare_iter(GridCoord::new(0, 0)).unwrap().count(), 0);
        assert_eq!(net.spare_count(GridCoord::new(0, 0)).unwrap(), 0);
    }

    #[test]
    fn one_by_n_strip_vacancy_and_spares() {
        // The 1xN degenerate strip: row-major order is the strip order;
        // vacant_iter and spare_iter behave exactly as on square grids.
        let sys = GridSystem::new(1, 6, 1.0).unwrap();
        let net = GridNetwork::new(
            sys,
            &[
                Point2::new(0.5, 0.5), // cell (0,0)
                Point2::new(0.2, 0.3), // cell (0,0) - spare
                Point2::new(0.5, 3.5), // cell (0,3)
            ],
        );
        net.debug_invariants();
        assert_eq!(net.vacant_count(), 4);
        assert_eq!(
            net.vacant_iter().collect::<Vec<_>>(),
            vec![
                GridCoord::new(0, 1),
                GridCoord::new(0, 2),
                GridCoord::new(0, 4),
                GridCoord::new(0, 5),
            ]
        );
        assert_eq!(
            net.vacant_iter().collect::<Vec<_>>(),
            net.vacant_cells_scan()
        );
        assert_eq!(
            net.spare_iter(GridCoord::new(0, 0))
                .unwrap()
                .collect::<Vec<_>>(),
            vec![NodeId::new(1)]
        );
        assert_eq!(net.spare_iter(GridCoord::new(0, 3)).unwrap().count(), 0);
        assert_eq!(net.total_spares(), 1);
        // The 1xN transpose behaves identically.
        let sys = GridSystem::new(6, 1, 1.0).unwrap();
        let net = GridNetwork::new(sys, &[Point2::new(2.5, 0.5)]);
        assert_eq!(net.vacant_count(), 5);
        assert_eq!(net.vacant_iter().count(), 5);
        net.debug_invariants();
    }

    #[test]
    fn o1_counters_track_mutations() {
        let (mut net, mut rng) = two_by_two();
        assert_eq!(net.total_spares(), 1);
        net.apply_fault(&FaultEvent::KillRandomEnabled { count: 1 }, &mut rng);
        assert_eq!(net.enabled_count(), 2);
        let stats = net.stats();
        assert_eq!(stats.enabled, 2);
        assert_eq!(stats.occupied + stats.vacant, 4);
        net.debug_invariants();
    }
}
