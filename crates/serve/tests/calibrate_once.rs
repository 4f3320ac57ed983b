//! Pins where serving builds machines: admission estimates are
//! calibrated once, in `ServeEngine::new`, so a `serve` call without
//! spot checks constructs exactly one machine per resident-cache miss.
//! [`FastMachine::constructions`] is process-wide, so this file is its
//! own test binary with exactly one `#[test]`.

use darth_serve::{standard_classes, trace, FleetChip, ServeEngine, TraceSpec};
use darth_sim::FastMachine;

#[test]
fn serve_builds_one_machine_per_cache_miss_and_never_recalibrates() {
    let classes = standard_classes().expect("classes compile");
    let requests = trace::generate(&TraceSpec::bursty(5, 96, 100_000.0), classes.len());
    // One cache slot per chip: most batches miss.
    let fleet = vec![
        FleetChip::new("a", 1.5e9).with_cache_capacity(1),
        FleetChip::new("b", 1.0e9).with_cache_capacity(1),
    ];
    let before = FastMachine::constructions();
    let engine = ServeEngine::new(classes, fleet)
        .expect("engine builds")
        .with_workers(1)
        .with_spot_interval(0);
    assert_eq!(
        FastMachine::constructions() - before,
        engine.classes().len() as u64,
        "construction calibrates each class once"
    );

    for call in 0..2 {
        let before = FastMachine::constructions();
        let report = engine.serve(&requests).expect("trace serves");
        assert!(report.cache.misses > engine.classes().len() as u64);
        assert_eq!(
            FastMachine::constructions() - before,
            report.cache.misses,
            "call {call}: one machine per cache miss, none for calibration"
        );
    }
}
