//! Telemetry contract of the batched front-end. This lives in its own
//! integration-test binary on purpose: the obs registry is process-global,
//! and sharing a process with the other front-end tests (which also run
//! `run_load`) would race the counts.

use basm_baselines::build_model;
use basm_data::{World, WorldConfig};
use basm_serving::{generate_arrivals, run_load, ArrivalConfig, FrontendConfig, ServingPipeline};

/// One load run must leave a coherent telemetry trail: a queue-wait sample
/// per drained request, a batch-size sample per microbatch, a latency
/// sample per completed request, and admission counters that reconcile
/// with the run summary.
#[test]
fn load_run_telemetry_reconciles_with_the_summary() {
    basm_obs::set_enabled(true);
    basm_obs::reset();

    let world = World::generate(WorldConfig::tiny());
    let arrivals = generate_arrivals(
        &world,
        &ArrivalConfig { qps: 400.0, duration_ns: 1_000_000_000, ..ArrivalConfig::default() },
    );
    let mut pipe =
        ServingPipeline::new(&world, build_model("Wide&Deep", &world.config, 1), 16, 6);
    let cfg = FrontendConfig { queue_capacity: 64, ..FrontendConfig::default() };
    let out = run_load(&mut pipe, &world, &arrivals, &cfg);
    let s = &out.summary;

    let report = basm_obs::report();
    let hist = |name: &str| {
        report
            .hists
            .iter()
            .find(|h| h.name == name)
            .unwrap_or_else(|| panic!("missing histogram {name}"))
            .summary
    };
    let counter = |name: &str| {
        report.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    };

    // Queue waits: one sample per drained request (all arrivals here are
    // valid, so drained == admitted), and a sane distribution shape.
    let wait = hist("serving.queue_wait_ns");
    assert_eq!(wait.count, s.admitted as u64);
    assert!(wait.p50 <= wait.p90 && wait.p90 <= wait.p99, "percentiles out of order: {wait:?}");
    assert!(wait.p99 <= wait.max.max(1));

    // Batch sizes: one sample per microbatch, bounded by the config, and
    // averaging above 1 (coalescing actually happened).
    let batch = hist("serving.batch_size");
    assert_eq!(batch.count, s.batches as u64);
    assert!(batch.max <= cfg.max_batch as u64);
    assert!(batch.mean > 1.0, "no coalescing observed: {batch:?}");

    // Latencies: one sample per completed request.
    let latency = hist("serving.frontend.latency_ns");
    assert_eq!(latency.count, s.completed as u64);
    assert!(latency.p50 <= latency.p99);

    // Admission counters reconcile with the summary.
    assert_eq!(counter("serving.frontend.admitted"), s.admitted as u64);
    assert_eq!(counter("serving.frontend.shed_queue_full"), s.shed_queue_full as u64);
    assert_eq!(counter("serving.frontend.deadline_shed"), s.deadline_shed as u64);

    basm_obs::set_enabled(false);
    basm_obs::reset();
}
