//! Set-up shared by every workload, timed stage by stage: world (and, for
//! training, impression log) generation, model build, and a checkpoint
//! directory round trip whose loaded model is the one the workload uses.

use std::path::{Path, PathBuf};
use std::time::Instant;

use basm_core::checkpoint::{load_model_dir, save_model_dir};
use basm_core::model::CtrModel;
use basm_core::{Basm, BasmConfig};
use basm_data::{generate_dataset, BehaviorEvent, Dataset, TimePeriod, World, WorldConfig};
use basm_serving::FeatureServer;

use crate::host::HostSpeed;
use crate::schedule::Rng;
use crate::stats::median;

/// Set-up repetitions per run; `setup_s` is their median.
pub const REPS: usize = 9;

/// A per-run working directory inside the checkout (checkpoints),
/// removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn new(out: &Path, workload: &str, seed: u64) -> std::io::Result<Self> {
        let dir = out
            .join("tmp")
            .join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(tmp) = self.0.parent() {
            let _ = std::fs::remove_dir(tmp); // only succeeds once empty
        }
    }
}

/// Seconds spent in each set-up stage of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub generate: f64,
    pub build: f64,
    pub save: f64,
    pub load: f64,
    /// The workload's own set-up after the model is loaded.
    pub workload: f64,
}

impl Stages {
    /// Everything but the checkpoint save, which is how the benchmark gets a
    /// checkpoint to load, not part of starting up. It is also the set-up's
    /// fsync-bound stage, and on a shared disk fsync latency has slow phases
    /// lasting minutes.
    pub fn total(&self) -> f64 {
        self.generate + self.build + self.load + self.workload
    }
}

/// What every workload starts from.
pub struct Base {
    pub world: World,
    /// The impression log (training only).
    pub dataset: Option<Dataset>,
    /// BASM (model-init seed 1) after a save/load round trip through
    /// `ckpt`; its embeddings are attached from the checkpoint's packs.
    pub model: Box<dyn CtrModel>,
    pub ckpt: PathBuf,
}

pub fn fresh_model(cfg: &WorldConfig) -> Box<dyn CtrModel> {
    Box::new(Basm::new(cfg, BasmConfig::default()))
}

pub fn base(run_dir: &RunDir, with_log: bool, st: &mut Stages) -> std::io::Result<Base> {
    let cfg = WorldConfig::eleme_like();
    let t = Instant::now();
    let (world, dataset) = if with_log {
        let data = generate_dataset(&cfg);
        (data.world, Some(data.dataset))
    } else {
        (World::generate(cfg.clone()), None)
    };
    st.generate = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut built = fresh_model(&cfg);
    st.build = t.elapsed().as_secs_f64();

    let ckpt = run_dir.path("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let t = Instant::now();
    save_model_dir(built.as_mut(), &ckpt)?;
    st.save = t.elapsed().as_secs_f64();
    drop(built);

    let t = Instant::now();
    let mut model = fresh_model(&cfg);
    load_model_dir(model.as_mut(), &ckpt)?;
    st.load = t.elapsed().as_secs_f64();
    Ok(Base {
        world,
        dataset,
        model,
        ckpt,
    })
}

/// The set-up's repetitions: each one's stages, and its total
/// host-normalised (see `host`).
pub struct Setup {
    pub stages: Vec<Stages>,
    pub normalised_s: Vec<f64>,
}

/// Run the set-up `REPS` times, keeping the last result, with a host-speed
/// sample before each repetition and after the last. Each repetition drops
/// the previous one first, so peak memory holds one copy.
pub fn repeated<T>(
    host: &mut HostSpeed,
    mut f: impl FnMut(&mut Stages) -> std::io::Result<T>,
) -> std::io::Result<(T, Setup)> {
    let mut stages = Vec::with_capacity(REPS);
    let mut mids = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        drop(last.take());
        host.sample();
        let mut st = Stages::default();
        let t0 = Instant::now();
        last = Some(f(&mut st)?);
        mids.push(t0 + t0.elapsed() / 2);
        stages.push(st);
    }
    host.sample();
    let normalised_s = stages
        .iter()
        .zip(mids)
        .map(|(st, mid)| st.total() * host.factor(mid))
        .collect();
    let setup = Setup {
        stages,
        normalised_s,
    };
    Ok((last.expect("REPS > 0"), setup))
}

/// Median of one stage over the repetitions.
pub fn stage_median(all: &[Stages], f: impl Fn(&Stages) -> f64) -> f64 {
    median(&all.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Warm per-user behavior histories, bootstrapped like the offline log:
/// each user gets `history_bootstrap × activity` clicks on items of their
/// city at hours drawn from the world's hour curve.
pub fn seed_histories(world: &World, features: &FeatureServer, rng: &mut Rng) {
    let cfg = &world.config;
    let mut by_city: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_cities];
    for (i, item) in world.items.iter().enumerate() {
        by_city[item.city as usize].push(i as u32);
    }
    for (uid, user) in world.users.iter().enumerate() {
        let pool = &by_city[user.city as usize];
        if pool.is_empty() {
            continue;
        }
        let n = ((cfg.history_bootstrap as f32 * user.activity).round() as usize)
            .clamp(1, 2 * cfg.seq_len);
        let events: Vec<BehaviorEvent> = (0..n)
            .map(|_| {
                let hour = rng.weighted(&world.hour_weights) as u8;
                click_event(world, pool[rng.below(pool.len())], hour)
            })
            .collect();
        features.seed_history(uid, events);
    }
}

/// The behavior event a click on `item` at `hour` leaves in a history.
pub fn click_event(world: &World, item: u32, hour: u8) -> BehaviorEvent {
    let it = &world.items[item as usize];
    BehaviorEvent {
        item,
        cat: it.category,
        brand: it.brand,
        tp: TimePeriod::from_hour(hour).index() as u8,
        hour,
        city: it.city,
        gx: it.geo.0,
        gy: it.geo.1,
    }
}
