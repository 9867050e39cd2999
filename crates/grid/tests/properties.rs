//! Property-based tests for the virtual-grid substrate.

use proptest::prelude::*;
use wsn_geometry::Point2;
use wsn_grid::{
    deploy, GridCoord, GridError, GridNetwork, GridSystem, HeadElection, RegionMask, RegionShape,
};
use wsn_simcore::{FaultEvent, NodeId, SimRng};

fn dims() -> impl Strategy<Value = (u16, u16)> {
    (1u16..12, 1u16..12)
}

/// A random mask built from rectangle differences and unions, with at
/// least one enabled cell restored at a random coordinate.
fn random_mask(cols: u16, rows: u16, seed: u64) -> RegionMask {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xfeed_f00d);
    let mut mask = RegionMask::full(cols, rows);
    for _ in 0..1 + rng.range_usize(3) {
        let x0 = rng.range_usize(cols as usize) as u16;
        let y0 = rng.range_usize(rows as usize) as u16;
        let x1 = x0 + rng.range_usize((cols - x0) as usize) as u16;
        let y1 = y0 + rng.range_usize((rows - y0) as usize) as u16;
        mask = mask.difference_rect(x0, y0, x1, y1);
    }
    if mask.enabled_count() == 0 {
        let x = rng.range_usize(cols as usize) as u16;
        let y = rng.range_usize(rows as usize) as u16;
        mask = mask.union_rect(x, y, x, y);
    }
    mask
}

/// The arena reset's placement rule, restated without `GridNetwork` or
/// `GridSystem::cell_of`: clamp into the closed area `[0, cols·r] ×
/// [0, rows·r]`, pull a coordinate that sits on the top or right edge one
/// `f32` ulp inside (cells are half-open, so the edge belongs to no
/// cell), and bucket by `floor(coordinate / r)`.
fn oracle_place(cols: u16, rows: u16, side: f64, raw: Point2) -> (Point2, GridCoord) {
    let pull_in = |v: f64, edge: f64| {
        let v = v.clamp(0.0, edge);
        if v < edge {
            v
        } else {
            f64::from(f32::from_bits((edge as f32).to_bits() - 1))
        }
    };
    let p = Point2::new(
        pull_in(raw.x, f64::from(cols) * side),
        pull_in(raw.y, f64::from(rows) * side),
    );
    let cell = GridCoord::new((p.x / side).floor() as u16, (p.y / side).floor() as u16);
    (p, cell)
}

/// A raw generator position of one of the shapes a reset must handle:
/// inside the area, outside it, exactly on its top or right edge or
/// corner, or (when `into_disabled`) inside a masked-out cell.
fn raw_position(
    sys: &GridSystem,
    mask: &RegionMask,
    into_disabled: bool,
    rng: &mut SimRng,
) -> Point2 {
    let area = sys.area();
    let (w, h) = (area.width(), area.height());
    match rng.range_u32(10) {
        0 => Point2::new(rng.uniform_in(-w, 2.0 * w), -1e-3 - rng.uniform_in(0.0, h)),
        1 => Point2::new(
            w + 1e-3 + rng.uniform_in(0.0, w),
            rng.uniform_in(-h, 2.0 * h),
        ),
        2 => Point2::new(
            -1e-3 - rng.uniform_in(0.0, w),
            h + 1e-3 + rng.uniform_in(0.0, h),
        ),
        3 => Point2::new(w, rng.uniform_in(0.0, h)),
        4 => Point2::new(rng.uniform_in(0.0, w), h),
        5 => Point2::new(w, h),
        6 if into_disabled && mask.disabled_count() > 0 => {
            let disabled: Vec<GridCoord> =
                sys.iter_coords().filter(|&c| !mask.is_enabled(c)).collect();
            let rect = sys
                .cell_rect(disabled[rng.range_usize(disabled.len())])
                .unwrap();
            wsn_geometry::sample::point_in_rect(&rect, rng.uniform_f64(), rng.uniform_f64())
        }
        _ => Point2::new(rng.uniform_in(0.0, w), rng.uniform_in(0.0, h)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deployment_preserves_invariants((cols, rows) in dims(), count in 0usize..400, seed in 0u64..1000) {
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform(&sys, count, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        net.debug_invariants();
        prop_assert_eq!(net.node_count(), count);
        prop_assert_eq!(net.enabled_count(), count);
        let stats = net.stats();
        prop_assert_eq!(stats.occupied + stats.vacant, sys.cell_count());
        prop_assert_eq!(stats.spares, stats.enabled - stats.occupied);
    }

    #[test]
    fn masked_deployment_never_places_in_disabled_cells(
        (cols, rows) in (2u16..12, 2u16..12), count in 0usize..300, seed in 0u64..1000,
    ) {
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mask = random_mask(cols, rows, seed);
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform_masked(&sys, &mask, count, &mut rng);
        for &p in &pos {
            prop_assert!(mask.is_enabled(sys.cell_of(p).unwrap()));
        }
        let net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        net.debug_invariants();
        // Stats are over enabled cells only.
        let stats = net.stats();
        prop_assert_eq!(stats.occupied + stats.vacant, mask.enabled_count());
        prop_assert_eq!(stats.spares, stats.enabled - stats.occupied);
        // Every vacancy the index reports is an enabled cell.
        for c in net.vacant_iter() {
            prop_assert!(mask.is_enabled(c));
        }
        prop_assert_eq!(net.vacant_iter().collect::<Vec<_>>(), net.vacant_cells_scan());
    }

    #[test]
    fn masked_mutations_keep_nodes_out_of_disabled_cells(
        seed in 0u64..500, steps in 1usize..30, shape_idx in 0usize..4,
    ) {
        let shape = RegionShape::IRREGULAR[shape_idx];
        let (cols, rows) = (8u16, 8u16);
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mask = shape.build_mask(cols, rows);
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::per_cell_exact_masked(&sys, &mask, 2, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        let enabled_cells: Vec<GridCoord> = mask.iter_enabled().collect();
        for _ in 0..steps {
            // Random in-mask move; disabled targets must be rejected.
            let id = NodeId::new(rng.range_usize(net.node_count()) as u32);
            let target_cell = enabled_cells[rng.range_usize(enabled_cells.len())];
            let rect = sys.cell_rect(target_cell).unwrap();
            let dest = wsn_geometry::sample::point_in_rect(
                &rect, rng.uniform_f64(), rng.uniform_f64());
            if net.node(id).unwrap().status().is_enabled() {
                let out = net.move_node(id, dest).unwrap();
                prop_assert!(mask.is_enabled(out.to));
            }
            net.apply_fault(&FaultEvent::KillRandomEnabled { count: 1 }, &mut rng);
        }
        net.debug_invariants();
        for node in net.nodes() {
            if node.status().is_enabled() {
                prop_assert!(mask.is_enabled(sys.cell_of(node.position()).unwrap()));
            }
        }
    }

    #[test]
    fn election_heads_every_occupied_cell(
        (cols, rows) in dims(), count in 0usize..300, seed in 0u64..1000,
        policy_idx in 0usize..4,
    ) {
        let policy = [
            HeadElection::FirstId,
            HeadElection::MaxEnergy,
            HeadElection::ClosestToCenter,
            HeadElection::Random,
        ][policy_idx];
        let sys = GridSystem::new(cols, rows, 1.5).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform(&sys, count, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        net.elect_all_heads(policy, &mut rng);
        net.debug_invariants();
        for c in sys.iter_coords() {
            let head = net.head_of(c).unwrap();
            prop_assert_eq!(head.is_some(), !net.is_vacant(c).unwrap());
        }
    }

    #[test]
    fn random_kills_preserve_invariants(
        (cols, rows) in dims(), count in 0usize..300,
        kills in 0usize..350, seed in 0u64..1000,
    ) {
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform(&sys, count, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        let killed = net.apply_fault(&FaultEvent::KillRandomEnabled { count: kills }, &mut rng);
        net.debug_invariants();
        prop_assert_eq!(killed.len(), kills.min(count));
        prop_assert_eq!(net.enabled_count(), count - killed.len());
        // Repair leaves every occupied cell headed again.
        net.repair_heads(HeadElection::FirstId, &mut rng);
        for c in sys.iter_coords() {
            prop_assert_eq!(net.head_of(c).unwrap().is_some(), !net.is_vacant(c).unwrap());
        }
    }

    #[test]
    fn moves_between_cells_preserve_population(
        seed in 0u64..500, steps in 1usize..30,
    ) {
        let sys = GridSystem::new(6, 6, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::per_cell_exact(&sys, 2, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        let total = net.enabled_count();
        for _ in 0..steps {
            let id = NodeId::new(rng.range_u32(total as u32));
            let target = Point2::new(rng.uniform_in(0.0, 11.9), rng.uniform_in(0.0, 11.9));
            let before = net.cell_of_node(id).unwrap();
            let out = net.move_node(id, target).unwrap();
            prop_assert_eq!(out.from, before);
            net.debug_invariants();
        }
        prop_assert_eq!(net.enabled_count(), total);
    }

    #[test]
    fn move_into_cell_equals_move_node_then_set_head(
        (cols, rows) in (2u16..12, 2u16..12), count in 0usize..200,
        seed in 0u64..1000, steps in 1usize..40, shape_idx in 0usize..5,
        elect in 0usize..2,
    ) {
        // The one-pass repair hop against the sequence it replaced:
        // locate the central-area point's cell, move, then head the
        // target if it had no head. Targets are the node's own cell, a
        // neighbor, or any enabled cell, vacant or occupied, headed or
        // not; on the irregular presets a long hop crosses obstacles and
        // bills the detour. After every step the two networks are equal,
        // their outcomes bit-equal, and the invariants hold.
        let sys = GridSystem::for_comm_range(cols, rows, 10.0).unwrap();
        let mask = if shape_idx == 0 {
            RegionMask::full(cols, rows)
        } else {
            RegionShape::IRREGULAR[shape_idx - 1].build_mask(cols, rows)
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform_masked(&sys, &mask, count, &mut rng);
        let mut fast = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        if elect == 1 {
            fast.elect_all_heads(HeadElection::FirstId, &mut rng);
        }
        let mut slow = fast.clone();
        let enabled_cells: Vec<GridCoord> = mask.iter_enabled().collect();
        for _ in 0..steps.min(count * 4) {
            let id = NodeId::new(rng.range_u32(count as u32));
            let home = slow.node(id).unwrap().position();
            let home = sys.cell_of(home).unwrap();
            let to = match rng.range_u32(3) {
                0 => home,
                1 => {
                    let near: Vec<GridCoord> = sys
                        .neighbors(home)
                        .into_iter()
                        .filter(|&c| mask.is_enabled(c))
                        .collect();
                    if near.is_empty() { home } else { near[rng.range_usize(near.len())] }
                }
                _ => enabled_cells[rng.range_usize(enabled_cells.len())],
            };
            let (u, v) = (rng.uniform_f64(), rng.uniform_f64());
            let fast_out = fast.move_into_cell(id, to, u, v);
            let headless = slow.head_of(to).unwrap().is_none();
            let dest = wsn_geometry::sample::point_in_central_area(&sys.cell_rect(to).unwrap(), u, v);
            let slow_out = slow.move_node(id, dest);
            if slow_out.is_ok() && headless {
                slow.set_head(to, id).unwrap();
            }
            match (fast_out, slow_out) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!((a.from, a.to), (b.from, b.to));
                    prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                }
                (a, b) => prop_assert_eq!(a.map(|_| ()), b.map(|_| ())),
            }
            // Deaths and re-elections leave occupied headless cells and
            // disabled movers behind for later steps.
            match rng.range_u32(4) {
                0 => {
                    let victims = fast.apply_fault(
                        &FaultEvent::KillRandomEnabled { count: 1 }, &mut rng);
                    slow.apply_fault(&FaultEvent::KillNodes(victims), &mut rng);
                }
                1 => {
                    let mut twin = rng.clone();
                    fast.repair_heads(HeadElection::Random, &mut rng);
                    slow.repair_heads(HeadElection::Random, &mut twin);
                }
                _ => {}
            }
            prop_assert_eq!(&fast, &slow);
            // The reference shares the bookkeeping helper, so check it too.
            fast.debug_invariants();
            slow.debug_invariants();
        }
    }

    #[test]
    fn incremental_occupancy_matches_full_scan_after_any_op_sequence(
        (cols, rows) in dims(), count in 0usize..250,
        seed in 0u64..1000, steps in 1usize..60, policy_idx in 0usize..4,
        shape_idx in 0usize..5,
    ) {
        // The tentpole invariant of the occupancy engine: after ANY
        // random sequence of deploys, arrivals, faults, moves, head
        // hand-overs and elections, on full and masked regions alike,
        // the vacancy index the round protocols sweep, the spare
        // counters and words, and the headless index agree exactly with
        // a from-scratch full scan of the member and head tables.
        let policy = [
            HeadElection::FirstId,
            HeadElection::MaxEnergy,
            HeadElection::ClosestToCenter,
            HeadElection::Random,
        ][policy_idx];
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        // shape_idx 0 = the full rectangular region; 1..5 = the
        // irregular presets, which need two cells a side (an annulus of
        // a one-cell-wide grid has no enabled cell).
        let mask = if shape_idx == 0 || cols < 2 || rows < 2 {
            RegionMask::full(cols, rows)
        } else {
            RegionShape::IRREGULAR[shape_idx - 1].build_mask(cols, rows)
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform_masked(&sys, &mask, count, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos).unwrap();
        let area = sys.area();
        let random_point = |rng: &mut SimRng| Point2::new(
            rng.uniform_in(area.min().x, area.max().x * 0.9999),
            rng.uniform_in(area.min().y, area.max().y * 0.9999),
        );
        for _ in 0..steps {
            let nodes = net.node_count() as u32;
            match rng.range_u32(7) {
                0 => {
                    // Disable a random node (may already be disabled).
                    if nodes > 0 {
                        let _ = net.disable_node(NodeId::new(rng.range_u32(nodes)));
                    }
                }
                1 => {
                    // Move a random enabled node anywhere in the area.
                    if nodes > 0 {
                        let id = NodeId::new(rng.range_u32(nodes));
                        let target = random_point(&mut rng);
                        let _ = net.move_node(id, target);
                    }
                }
                2 => {
                    let _ = net.apply_fault(
                        &FaultEvent::KillRandomEnabled { count: rng.range_usize(4) },
                        &mut rng,
                    );
                }
                3 => net.elect_all_heads(policy, &mut rng),
                4 => {
                    // The full scan repair_heads replaced, as the oracle:
                    // same cells, same order, same RNG draws.
                    let mut oracle_rng = rng.clone();
                    let mut expected = Vec::new();
                    for c in sys.iter_coords() {
                        let members = net.members(c).unwrap();
                        if net.head_of(c).unwrap().is_none() && !members.is_empty() {
                            let center = sys.cell_center(c).unwrap();
                            let head = policy.elect(members, net.nodes(), || center, &mut oracle_rng);
                            expected.push((c, head));
                        }
                    }
                    prop_assert_eq!(net.repair_heads(policy, &mut rng), expected.len());
                    for (c, head) in expected {
                        prop_assert_eq!(net.head_of(c).unwrap(), head);
                    }
                    prop_assert_eq!(&rng, &oracle_rng);
                }
                5 => {
                    // Hand a random cell's head role to a random member.
                    let c = sys.coord_of(rng.range_usize(sys.cell_count()));
                    let members = net.members(c).unwrap().to_vec();
                    if !members.is_empty() {
                        let id = members[rng.range_usize(members.len())];
                        net.set_head(c, id).unwrap();
                    }
                }
                _ => {
                    // Arrivals into a masked-out cell are refused.
                    let p = random_point(&mut rng);
                    let enabled = mask.is_enabled(sys.cell_of(p).unwrap());
                    prop_assert_eq!(net.add_node(p).is_ok(), enabled);
                }
            }
            let headless_scan: Vec<GridCoord> = sys
                .iter_coords()
                .filter(|&c| {
                    net.head_of(c).unwrap().is_none() && !net.members(c).unwrap().is_empty()
                })
                .collect();
            prop_assert_eq!(net.headless_iter().collect::<Vec<_>>(), headless_scan);
            // Index vs oracle, every step: the sweep the round protocols
            // read, in the scan's ascending order.
            let scan = net.vacant_cells_scan();
            prop_assert_eq!(net.vacant_iter().collect::<Vec<_>>(), scan.clone());
            prop_assert_eq!(
                net.vacancies().iter().collect::<Vec<_>>(),
                scan.iter().map(|&c| sys.index_of(c).unwrap()).collect::<Vec<_>>()
            );
            prop_assert_eq!(net.vacant_count(), scan.len());
            prop_assert!(scan.iter().all(|&c| mask.is_enabled(c)));
            let mut enabled_scan = 0usize;
            let mut occupied_scan = 0usize;
            let mut spares_scan = 0usize;
            for c in sys.iter_coords() {
                let members = net.members(c).unwrap().len();
                enabled_scan += members;
                occupied_scan += usize::from(members > 0);
                spares_scan += members.saturating_sub(1);
                prop_assert_eq!(net.spare_count(c).unwrap(), members.saturating_sub(1));
                prop_assert_eq!(net.spare_iter(c).unwrap().count(), net.spare_count(c).unwrap());
            }
            prop_assert_eq!(net.enabled_count(), enabled_scan);
            prop_assert_eq!(net.occupied_cells(), occupied_scan);
            prop_assert_eq!(net.total_spares(), spares_scan);
            let stats = net.stats();
            prop_assert_eq!(stats.enabled, enabled_scan);
            prop_assert_eq!(stats.vacant, mask.enabled_count() - occupied_scan);
            // Word-level spare scan == per-cell member-count probe.
            let spareful_scan: Vec<GridCoord> = sys
                .iter_coords()
                .filter(|&c| net.members(c).unwrap().len() >= 2)
                .collect();
            prop_assert_eq!(net.spareful_iter().collect::<Vec<_>>(), spareful_scan);
            // Both indexes, summary levels included, against the scan.
            net.debug_invariants();
        }
    }

    #[test]
    fn reset_into_equals_freshly_built(
        (cols, rows) in (2u16..10, 2u16..10), count_a in 0usize..150,
        count_b in 0usize..150, seed in 0u64..1000, steps in 0usize..25,
        shape_idx in 0usize..5,
    ) {
        // The per-trial arena contract: however dirty the network is,
        // reset_into(positions) is indistinguishable from building a
        // fresh network over the same system/mask/positions.
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mask = if shape_idx == 0 {
            RegionMask::full(cols, rows)
        } else {
            RegionShape::IRREGULAR[shape_idx - 1].build_mask(cols, rows)
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let pos_a = deploy::uniform_masked(&sys, &mask, count_a, &mut rng);
        let pos_b = deploy::uniform_masked(&sys, &mask, count_b, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos_a).unwrap();
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        let enabled_cells: Vec<GridCoord> = mask.iter_enabled().collect();
        for _ in 0..steps {
            match rng.range_u32(2) {
                0 => {
                    let _ = net.apply_fault(
                        &FaultEvent::KillRandomEnabled { count: rng.range_usize(4) },
                        &mut rng,
                    );
                }
                _ => {
                    if count_a > 0 {
                        let id = NodeId::new(rng.range_u32(count_a as u32));
                        let cell = enabled_cells[rng.range_usize(enabled_cells.len())];
                        let rect = sys.cell_rect(cell).unwrap();
                        let target = wsn_geometry::sample::point_in_rect(
                            &rect, rng.uniform_f64(), rng.uniform_f64());
                        let _ = net.move_node(id, target);
                    }
                }
            }
        }
        net.reset_into(&pos_b).unwrap();
        let fresh = GridNetwork::with_mask(sys, mask, &pos_b).unwrap();
        prop_assert_eq!(&net, &fresh);
        net.debug_invariants();
    }

    #[test]
    fn reset_into_places_nodes_where_an_independent_oracle_does(
        (cols, rows) in (2u16..10, 2u16..10), count_a in 0usize..120,
        count in 0usize..120, seed in 0u64..1000, shape_idx in 0usize..5,
        poison in 0usize..3,
    ) {
        // `reset_into_equals_freshly_built` compares the reset with
        // `with_mask`, which is itself a reset; this checks placement
        // against the rule, on raw positions outside the area, on its
        // top and right edges, and inside masked-out cells. The side is
        // the paper's irrational r, so edge coordinates are not exact
        // in f32.
        let sys = GridSystem::for_comm_range(cols, rows, 10.0).unwrap();
        let mask = if shape_idx == 0 {
            RegionMask::full(cols, rows)
        } else {
            RegionShape::IRREGULAR[shape_idx - 1].build_mask(cols, rows)
        };
        let mut rng = SimRng::seed_from_u64(seed);
        // A used network: heads elected, nodes killed.
        let pos_a = deploy::uniform_masked(&sys, &mask, count_a, &mut rng);
        let mut net = GridNetwork::with_mask(sys, mask.clone(), &pos_a).unwrap();
        net.elect_all_heads(HeadElection::FirstId, &mut rng);
        net.apply_fault(&FaultEvent::KillRandomEnabled { count: 3 }, &mut rng);
        let raw: Vec<Point2> = (0..count)
            .map(|_| raw_position(&sys, &mask, poison == 0, &mut rng))
            .collect();
        let placed: Vec<(Point2, GridCoord)> = raw
            .iter()
            .map(|&p| oracle_place(cols, rows, sys.cell_side(), p))
            .collect();
        let before = net.clone();
        if let Some(&(_, coord)) = placed.iter().find(|(_, c)| !mask.is_enabled(*c)) {
            // The first node in a disabled cell names the error, and the
            // network keeps its previous state.
            prop_assert_eq!(net.reset_into(&raw), Err(GridError::CellDisabled { coord }));
            prop_assert_eq!(&net, &before);
            net.debug_invariants();
            return Ok(());
        }
        net.reset_into(&raw).unwrap();
        prop_assert_eq!(net.node_count(), count);
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); sys.cell_count()];
        for (i, &(p, cell)) in placed.iter().enumerate() {
            let id = NodeId::new(i as u32);
            let node = net.node(id).unwrap();
            prop_assert_eq!(node.position(), p);
            prop_assert!(node.status().is_enabled());
            prop_assert_eq!(net.cell_of_node(id), Some(cell));
            members[cell.y as usize * cols as usize + cell.x as usize].push(id);
        }
        for (c, want) in sys.iter_coords().zip(&members) {
            prop_assert_eq!(net.members(c).unwrap(), want.as_slice());
            prop_assert_eq!(net.head_of(c).unwrap(), None);
        }
        net.debug_invariants();
    }

    #[test]
    fn elect_all_heads_matches_a_per_cell_oracle_under_every_policy(
        (cols, rows) in (1u16..10, 1u16..10), count in 0usize..200,
        seed in 0u64..1000, policy_idx in 0usize..4, moves in 0usize..20,
    ) {
        let policy = [
            HeadElection::FirstId,
            HeadElection::MaxEnergy,
            HeadElection::ClosestToCenter,
            HeadElection::Random,
        ][policy_idx];
        let sys = GridSystem::for_comm_range(cols, rows, 10.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform(&sys, count, &mut rng);
        let mut net = GridNetwork::new(sys, &pos);
        // Uneven batteries for MaxEnergy, and moves so that member lists
        // are no longer in id order.
        for i in 0..count {
            if rng.bernoulli(0.5) {
                net.draw_battery(NodeId::new(i as u32), rng.uniform_in(0.0, 5.0)).unwrap();
            }
        }
        let area = sys.area();
        for _ in 0..moves.min(count) {
            let id = NodeId::new(rng.range_usize(count) as u32);
            let target = Point2::new(
                rng.uniform_in(0.0, area.max().x * 0.9999),
                rng.uniform_in(0.0, area.max().y * 0.9999),
            );
            net.move_node(id, target).unwrap();
        }
        // The oracle always hands the election its cell's center.
        let mut oracle_rng = rng.clone();
        let expected: Vec<Option<NodeId>> = sys
            .iter_coords()
            .map(|c| {
                let center = sys.cell_center(c).unwrap();
                policy.elect(net.members(c).unwrap(), net.nodes(), || center, &mut oracle_rng)
            })
            .collect();
        net.elect_all_heads(policy, &mut rng);
        for (c, head) in sys.iter_coords().zip(expected) {
            prop_assert_eq!(net.head_of(c).unwrap(), head);
        }
        prop_assert_eq!(&rng, &oracle_rng);
        net.debug_invariants();
    }

    #[test]
    fn target_spares_hits_target((cols, rows) in (2u16..10, 2u16..10), target in 0usize..60, seed in 0u64..500) {
        let sys = GridSystem::new(cols, rows, 2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::uniform_with_target_spares(&sys, target, 100_000, &mut rng);
        let net = GridNetwork::new(sys, &pos);
        prop_assert_eq!(net.total_spares(), target);
    }

    #[test]
    fn cell_of_partition_is_total_and_unique(
        (cols, rows) in dims(),
        px in 0.0..1.0f64, py in 0.0..1.0f64,
    ) {
        let sys = GridSystem::new(cols, rows, 3.0).unwrap();
        let area = sys.area();
        let p = Point2::new(
            area.min().x + px * area.width() * 0.9999,
            area.min().y + py * area.height() * 0.9999,
        );
        let cell = sys.cell_of(p);
        prop_assert!(cell.is_some());
        let c = cell.unwrap();
        prop_assert!(sys.cell_rect(c).unwrap().contains(p));
        // No other cell contains it.
        for other in sys.iter_coords() {
            if other != c {
                prop_assert!(!sys.cell_rect(other).unwrap().contains(p));
            }
        }
    }
}

#[test]
fn with_holes_matches_requested_holes_exactly() {
    let sys = GridSystem::new(5, 5, 2.0).unwrap();
    let mut rng = SimRng::seed_from_u64(42);
    let holes = vec![
        GridCoord::new(0, 0),
        GridCoord::new(4, 4),
        GridCoord::new(2, 3),
    ];
    let pos = deploy::with_holes(&sys, &holes, 3, &mut rng);
    let net = GridNetwork::new(sys, &pos);
    let mut vacant: Vec<GridCoord> = net.vacant_iter().collect();
    vacant.sort();
    let mut expect = holes;
    expect.sort();
    assert_eq!(vacant, expect);
}
