//! The paper's Fig. 13 deployment flow, end to end: offline training (AOP) →
//! model checkpoint → restore into a "serving" process (RTP) → offline
//! replay gate → live traffic through the TPP pipeline.
//!
//! ```sh
//! cargo run --example deploy_flow --release
//! ```

use basm::baselines::build_model;
use basm::core::checkpoint::{load_model_dir, save_model_dir};
use basm::data::{generate_dataset, WorldConfig};
use basm::serving::{replay_top1, Request, ServingPipeline};
use basm::tensor::Prng;
use basm::trainer::{train, TrainConfig};

fn main() {
    let mut cfg = WorldConfig::tiny();
    cfg.sessions_per_day = 400;
    cfg.train_days = 3;
    let data = generate_dataset(&cfg);
    let ds = &data.dataset;

    // 1. Offline training.
    println!("[1/5] training BASM offline ...");
    let mut trained = build_model("BASM", &cfg, 1);
    let tc = TrainConfig::default_for(ds, 2, 256, 1);
    train(trained.as_mut(), ds, &tc);

    // 2. Checkpoint (the AOP → RTP artifact): a versioned directory.
    let ckpt = basm::tensor::packstore::fresh_temp_dir();
    save_model_dir(trained.as_mut(), &ckpt).expect("save checkpoint");
    println!("[2/5] checkpoint written to {}", ckpt.display());

    // 3. Restore into a fresh process-side model: dense weights are read,
    //    embedding shards are attached without deserializing a row.
    let mut serving_model = build_model("BASM", &cfg, 999); // different init seed
    load_model_dir(serving_model.as_mut(), &ckpt).expect("restore");
    println!("[3/5] restored into serving replica");

    // 4. Offline replay gate before taking traffic.
    let replay = replay_top1(serving_model.as_mut(), ds, &ds.test_indices());
    println!(
        "[4/5] replay gate: CTR@1 {:.4} (debiased {:.4}) over {} sessions, \
         top-1 agreement with legacy ranker {:.1}%",
        replay.ctr_at_1,
        replay.ctr_at_1_debiased,
        replay.sessions,
        replay.top1_agreement * 100.0
    );

    // 5. Serve live requests through TPP (recall → score → top-k).
    let mut pipeline = ServingPipeline::new(&data.world, serving_model, 15, 5);
    let mut rng = Prng::seeded(77);
    let mut shown = 0usize;
    for s in 0..50 {
        let uid = s % cfg.n_users;
        let req = Request { uid, day: 0, hour: 12, geo: data.world.users[uid].geo };
        shown += pipeline.serve(&data.world, req, &mut rng).expect("in-range request").len();
    }
    println!("[5/5] served 50 requests, {shown} exposures — deployment flow complete");
    drop(pipeline);
    let _ = std::fs::remove_dir_all(&ckpt);
}
