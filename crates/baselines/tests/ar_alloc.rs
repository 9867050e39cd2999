//! An untraced AR run must not allocate per cascade: every process AR
//! starts has a path of the cells it relayed through, and a heap list
//! per path would cost an allocation per process and more as paths
//! grow. This binary holds a single test, so its counting global
//! allocator sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wsn_baselines::{ArConfig, ArProtocol};
use wsn_coverage::scheme::{run_to_quiescence, DriveMode};
use wsn_grid::{deploy, GridCoord, GridNetwork, GridSystem};
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

/// Runs AR untraced on a 64×64 grid with two nodes in every cell but
/// `holes` and returns its allocations and the processes it started.
fn allocations_of_a_run(holes: &[GridCoord], drive: DriveMode) -> (u64, u64) {
    let sys = GridSystem::new(64, 64, 4.4721).unwrap();
    let mut rng = SimRng::seed_from_u64(64);
    let pos = deploy::with_holes(&sys, holes, 2, &mut rng);
    let mut net = GridNetwork::new(sys, &pos);
    let config = ArConfig::default();
    let max_rounds = config.max_rounds;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let protocol = ArProtocol::new(&mut net, config, 64, drive, TraceLog::disabled());
    let (report, trace) = run_to_quiescence(protocol, max_rounds);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(trace.is_empty());
    assert!(report.fully_covered, "{report}");
    (allocations, report.metrics.processes_initiated)
}

#[test]
fn untraced_ar_runs_allocate_the_same_whatever_they_start() {
    // Every fourth cell of every fourth row is a hole: 256 interior
    // holes, each with four monitors, so about a thousand cascades.
    let many: Vec<GridCoord> = (2..64)
        .step_by(4)
        .flat_map(|y| (2..64).step_by(4).map(move |x| GridCoord::new(x, y)))
        .collect();
    let lossy = DriveMode::EventDriven {
        net: NetModelSpec::Bernoulli {
            loss_ppm: 100_000,
            latency: 2,
        },
    };
    for drive in [DriveMode::Classic, lossy] {
        let (few_allocations, few) = allocations_of_a_run(&many[..1], drive);
        let (many_allocations, started) = allocations_of_a_run(&many, drive);
        assert!(started >= 900, "{drive:?}: {started} processes");
        // What remains grows with the run, not its cascades: buffers
        // that double, and in debug builds one owner recount per round.
        assert!(
            many_allocations < few_allocations + started / 20,
            "{drive:?}: {many_allocations} allocations for {started} processes, \
             {few_allocations} for {few}"
        );
    }
}
