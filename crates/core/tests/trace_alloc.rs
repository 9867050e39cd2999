//! An untraced event-driven run must not pay for the trace it does not
//! keep: every routed message has a `NetMessage` trace event, and under
//! loss the event-driven SR can retire a duplicate per hop, each with a
//! `ProcessFailed` event. Both own heap-allocated strings. This binary holds a single test, so
//! its counting global allocator sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wsn_coverage::scheme::{run_to_quiescence, DriveMode};
use wsn_coverage::{SrConfig, SrProtocol};
use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem};
use wsn_hamilton::CycleTopology;
use wsn_simcore::{NetModelSpec, SimRng, TraceLog};

/// Counts every allocation, then defers to [`System`]. The trait's
/// default `alloc_zeroed` and `realloc` go through `alloc`, so they are
/// counted too.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic (a statistic that publishes no other data) and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn untraced_event_runs_allocate_far_less_than_they_route() {
    // One node per cell of a 128×128 grid and eight holes, each 2,000
    // cells forward on the Hamilton cycle of its only reachable spare:
    // eight concurrent 1,999-hop cascades.
    let (side, hops) = (128, 2_000);
    let sys = GridSystem::for_comm_range(side, side, 10.0).unwrap();
    let Ok(CycleTopology::Single(cycle)) = CycleTopology::build(side, side) else {
        panic!("even grids carry a single Hamilton cycle");
    };
    let holes: Vec<GridCoord> = (0..8).map(|k| cycle.cell_at(hops * k + hops - 1)).collect();
    let mut rng = SimRng::seed_from_u64(128);
    let mut pos = deploy::with_holes(&sys, &holes, 1, &mut rng);
    for k in 0..8 {
        pos.push(sys.cell_rect(cycle.cell_at(hops * k)).unwrap().center());
    }
    let lossy = NetModelSpec::Bernoulli {
        loss_ppm: 100_000,
        latency: 2,
    };
    for spec in [NetModelSpec::Ideal, lossy] {
        let config = SrConfig::default();
        let mut net = GridNetwork::new(sys, &pos);
        let topo = CycleTopology::build_masked(net.mask()).unwrap();
        let max_rounds = config.max_rounds;
        // An untraced run: the protocol records into a disabled log.
        let drive = DriveMode::EventDriven { net: spec };
        let protocol = SrProtocol::new(&mut net, topo, config, 128, drive, TraceLog::disabled());
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (report, trace) = run_to_quiescence(protocol, max_rounds);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let routed = report.health.messages_sent;
        assert!(trace.is_empty());
        assert!(routed > 5_000, "{spec}: a long run, {routed} messages");
        // Building every `NetMessage` event would cost at least one
        // allocation per routed message. What remains is per round, not
        // per message: debug builds recount the owner tables after every
        // detection sweep, and release builds allocate almost nothing.
        assert!(
            allocations * 3 < routed,
            "{spec}: {allocations} allocations for {routed} routed messages"
        );
    }
}
