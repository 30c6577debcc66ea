//! Model factory: build any Table IV method by name.

use basm_core::basm::{Basm, BasmConfig};
use basm_core::model::CtrModel;
use basm_data::WorldConfig;

use crate::apg::Apg;
use crate::autoint::AutoInt;
use crate::base::BaseModel;
use crate::din::Din;
use crate::m2m::M2m;
use crate::star::Star;
use crate::wide_deep::WideDeep;

/// Every model Table IV compares (in the paper's row order), plus the online
/// Base model and the Table V ablations.
pub const TABLE4_MODELS: [&str; 7] =
    ["Wide&Deep", "DIN", "AutoInt", "STAR", "M2M", "APG", "BASM"];

/// Build a model by Table IV/V name. Panics on an unknown name.
pub fn build_model(name: &str, world: &WorldConfig, seed: u64) -> Box<dyn CtrModel> {
    match name {
        "Wide&Deep" => Box::new(WideDeep::new(world, seed)),
        "DIN" => Box::new(Din::new(world, seed)),
        "AutoInt" => Box::new(AutoInt::new(world, seed)),
        "STAR" => Box::new(Star::new(world, seed)),
        "M2M" => Box::new(M2m::new(world, seed)),
        "APG" => Box::new(Apg::new(world, seed)),
        "Base" => Box::new(BaseModel::new(world, seed)),
        "BASM" => Box::new(Basm::new(world, BasmConfig { seed, ..BasmConfig::default() })),
        "BASM w/o StAEL" => Box::new(Basm::new(
            world,
            BasmConfig { seed, ..BasmConfig::default() }.without_stael(),
        )),
        "BASM w/o StSTL" => Box::new(Basm::new(
            world,
            BasmConfig { seed, ..BasmConfig::default() }.without_ststl(),
        )),
        "BASM w/o StABT" => Box::new(Basm::new(
            world,
            BasmConfig { seed, ..BasmConfig::default() }.without_stabt(),
        )),
        other => panic!("unknown model {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basm_core::model::predict;
    use basm_data::generate_dataset;

    #[test]
    fn all_models_build_and_predict() {
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let b = data.dataset.batch(&[0, 1, 2, 3]);
        for name in TABLE4_MODELS
            .iter()
            .chain(["Base", "BASM w/o StAEL", "BASM w/o StSTL", "BASM w/o StABT"].iter())
        {
            let mut model = build_model(name, &cfg, 1);
            assert_eq!(model.name(), *name);
            let probs = predict(model.as_mut(), &b);
            assert_eq!(probs.len(), 4, "{name}");
            assert!(probs.iter().all(|p| p.is_finite()), "{name}");
            assert!(model.num_params() > 0, "{name}");
        }
    }

    /// Overwrite every buffer on the pool's free lists with NaN: drain each
    /// bucket through `acquire_scratch`, fill the whole capacity and release
    /// the lot. Stops at the first empty bucket past the largest occupied
    /// one (capped, so concurrent tests refilling the pool cannot walk it
    /// into giant allocations).
    fn poison_free_lists() {
        use basm_tensor::bufpool;
        let mut held = Vec::new();
        let mut len = bufpool::MIN_BUCKET_LEN;
        while bufpool::retained_bytes() > 0 && len <= 1 << 22 {
            loop {
                let before = bufpool::retained_bytes();
                let mut buf = bufpool::acquire_scratch(len);
                if bufpool::retained_bytes() >= before {
                    break; // a fresh allocation: this bucket is drained
                }
                buf.resize(buf.capacity(), f32::NAN);
                buf.fill(f32::NAN);
                held.push(buf);
            }
            len *= 2;
        }
        held.into_iter().for_each(bufpool::release);
    }

    /// Buffer recycling is an allocation strategy, never a numeric one:
    /// training steps and predictions must be bitwise identical whether the
    /// pool starts empty or every free buffer holds NaN, for every Table IV
    /// model. A kernel that reads `acquire_scratch` memory before writing it
    /// turns the poisoned run's bits into NaN.
    #[test]
    fn poisoned_and_cleared_pool_runs_bitwise_identical_for_every_model() {
        use basm_core::model::train_step;
        use basm_tensor::bufpool;
        use basm_tensor::optim::AdagradDecay;
        let cfg = WorldConfig::tiny();
        let data = generate_dataset(&cfg);
        let train_b = data.dataset.batch(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let eval_b = data.dataset.batch(&[8, 9, 10, 11]);
        for name in TABLE4_MODELS {
            let run = || {
                let mut model = build_model(name, &cfg, 7);
                let mut opt = AdagradDecay::paper_default();
                let losses: Vec<u32> = (0..3)
                    .map(|_| {
                        train_step(model.as_mut(), &train_b, &mut opt, 0.05, Some(10.0))
                            .to_bits()
                    })
                    .collect();
                let probs: Vec<u32> = predict(model.as_mut(), &eval_b)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                (losses, probs)
            };
            bufpool::clear();
            let cleared = run();
            poison_free_lists();
            assert_eq!(cleared, run(), "{name}: stale pool contents changed bits");
        }
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_name_panics() {
        build_model("GPT", &WorldConfig::tiny(), 1);
    }
}
