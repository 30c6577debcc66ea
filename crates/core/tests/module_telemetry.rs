//! Module-grain telemetry of one BASM train step. Telemetry is
//! process-global, so this file holds one test and runs alone in its binary.

use basm_core::basm::MODULES;
use basm_core::model::{train_step, CtrModel};
use basm_core::{Basm, BasmConfig};
use basm_data::{generate_dataset, WorldConfig};
use basm_tensor::optim::AdagradDecay;
use basm_tensor::Graph;

#[test]
fn train_step_reports_each_module_and_no_kernel() {
    let cfg = WorldConfig::tiny();
    let ds = generate_dataset(&cfg).dataset;
    let mut model = Basm::new(&cfg, BasmConfig::default());
    let rows = 48;
    let batch = ds.batch(&(0..rows).collect::<Vec<_>>());

    // Every node the forward pushes carries one of the five tags, and each
    // tag is used; the loss pushed after the forward is untagged.
    let mut g = Graph::new();
    let fwd = model.forward(&mut g, &batch, true);
    let pushed = g.len();
    assert!(g.modules().all(|m| m.is_some_and(|m| MODULES.contains(&m))));
    assert!(MODULES.iter().all(|&m| g.modules().any(|t| t == Some(m))));
    let labels = g.input(batch.labels.clone());
    g.bce_with_logits(fwd.logits, labels);
    assert!(g.modules().skip(pushed).all(|m| m.is_none()));
    model.clear_journals();

    basm_obs::set_enabled(true);
    basm_obs::reset();
    train_step(&mut model, &batch, &mut AdagradDecay::paper_default(), 0.05, Some(10.0));
    let report = basm_obs::report();
    basm_obs::set_enabled(false);

    let span = |name: &str| {
        let s = report.spans.iter().find(|s| s.name == name);
        s.unwrap_or_else(|| panic!("no {name} span in\n{}", report.to_table()))
    };
    for name in MODULES.iter().flat_map(|m| [m.fwd, m.bwd]) {
        let s = span(name);
        assert_eq!((s.calls, s.dims.clone()), (1, vec![("rows".into(), rows as u64)]), "{name}");
    }
    let bwd_ns: u64 = MODULES.iter().map(|m| span(m.bwd).total_ns).sum();
    assert!(bwd_ns <= span("tensor.backward").total_ns, "module backwards exceed tensor.backward");

    let names = report.spans.iter().map(|s| &s.name).chain(report.counters.iter().map(|c| &c.0));
    for name in names {
        let kernel = ["tensor.matmul", "tensor.meta_linear", "pool."];
        assert!(!kernel.iter().any(|k| name.starts_with(k)), "kernel telemetry: {name}");
    }
}
