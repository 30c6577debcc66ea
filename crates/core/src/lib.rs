//! # basm-core
//!
//! The paper's primary contribution: the Bottom-up Adaptive Spatiotemporal
//! Model (BASM) and the model framework ([`CtrModel`], [`FeatureEmbedder`])
//! that both BASM and the comparison methods build on.
//!
//! * [`basm::StAel`] — Spatiotemporal-Aware Embedding Layer (§II-B).
//! * [`basm::StStl`] — Spatiotemporal Semantic Transformation Layer (§II-C).
//! * [`basm::StAbt`] — Spatiotemporal Adaptive Bias Tower (§II-D).
//! * [`basm::Basm`] — the assembled model with Table V ablation switches.
//!
//! ```
//! use basm_core::basm::{Basm, BasmConfig};
//! use basm_core::model::{predict, train_step, CtrModel};
//! use basm_data::{generate_dataset, WorldConfig};
//! use basm_tensor::optim::AdagradDecay;
//!
//! let cfg = WorldConfig::tiny();
//! let data = generate_dataset(&cfg);
//! let mut model = Basm::new(&cfg, BasmConfig::default());
//! let batch = data.dataset.batch(&[0, 1, 2, 3]);
//! let mut opt = AdagradDecay::paper_default();
//! let loss = train_step(&mut model, &batch, &mut opt, 0.01, None);
//! assert!(loss.is_finite());
//! let probs = predict(&mut model, &batch);
//! assert_eq!(probs.len(), 4);
//! ```

pub mod basm;
pub mod checkpoint;
pub mod features;
pub mod model;
pub mod tower;

pub use basm::{Basm, BasmConfig};
pub use features::{EmbDims, FeatureEmbedder};
pub use model::{
    predict, predict_full, train_step, train_step_checked, CtrModel, Forward, Inference,
    StepOutcome,
};
pub use tower::PlainBnTower;
