//! **BENCH_embstore**: cost of restoring a model from its checkpoint
//! directory (DESIGN.md §11). [`load_model_dir`] parses the dense envelope
//! and attaches the embedding shards via mmap — no record is deserialized,
//! so the **warm attach** cost is independent of table size.
//!
//! Then it times the embedding data path, interleaved rep by rep: **owned**
//! tables (the in-memory source model that was saved — no directory, records
//! updated in place) against **attached** ones (the restored model — mmap'd
//! base, updates through the overlay). It times a **gather**
//! (`EmbeddingStore::lookup` over every table) and a **sparse update**
//! (`apply_grads` of one backward's gradients), each in ns per id, on a
//! head-heavy id stream, at two embedding scales (tiny and eleme-like
//! worlds). Both arms apply the same updates, and their rows are checked
//! bit for bit afterwards.

use basm_bench::{timing, BenchEnv};
use basm_core::checkpoint::{load_model_dir, save_model_dir};
use basm_core::model::CtrModel;
use basm_data::WorldConfig;
use basm_tensor::nn::embedding::{EmbeddingStore, TableId};
use basm_tensor::packstore;
use basm_tensor::{Graph, Var};
use serde::Serialize;

/// One embedding data path, owned tables vs attached ones.
#[derive(Serialize)]
struct PathCost {
    /// Ids per timed rep (summed over tables).
    ids_per_rep: usize,
    owned_ns_per_id: f64,
    attached_ns_per_id: f64,
    /// Interleaved samples; `speedup` is owned time / attached time per pair.
    comparison: timing::Comparison,
}

impl PathCost {
    fn new(ids_per_rep: usize, owned: Vec<f64>, attached: Vec<f64>) -> Self {
        let comparison = timing::summarize(("owned", "attached"), owned, attached);
        let ns = |secs: f64| secs * 1e9 / ids_per_rep as f64;
        Self {
            ids_per_rep,
            owned_ns_per_id: ns(comparison.baseline.median_secs),
            attached_ns_per_id: ns(comparison.candidate.median_secs),
            comparison,
        }
    }
}

#[derive(Serialize)]
struct SizeReport {
    /// World configuration name.
    config: String,
    /// Total embedding rows across tables.
    emb_rows: usize,
    /// Total embedding parameters (rows × dim summed over tables).
    emb_params: usize,
    /// Bytes of the checkpoint directory (dense envelope + pack shards).
    pack_dir_bytes: u64,
    /// Median seconds to restore via mmap attach.
    warm_attach_secs: f64,
    /// Embedding heap bytes resident immediately after the warm attach
    /// (the zero-deserialize claim, in numbers).
    resident_after_attach_bytes: usize,
    gather: PathCost,
    sparse_update: PathCost,
}

#[derive(Serialize)]
struct EmbstoreBench {
    note: String,
    sizes: Vec<SizeReport>,
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            total += if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map(|m| m.len()).unwrap_or(0)
            };
        }
    }
    total
}

/// Ids per table per rep.
const IDS_PER_TABLE: usize = 4096;

/// One rep's ids for every table: a head-heavy stream (a cubed uniform
/// draw, like real uid/item traffic), padding row 0 included.
fn draw_ids(rows: &[usize], state: &mut u64) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|&n| {
            (0..IDS_PER_TABLE)
                .map(|_| {
                    *state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let u = (*state >> 11) as f64 / (1u64 << 53) as f64;
                    ((u * u * u * n as f64) as u32).min(n as u32 - 1)
                })
                .collect()
        })
        .collect()
}

/// One rep on one arm: look every table's ids up on a fresh tape, backprop
/// their sum, and apply the sparse update; returns (gather, update) seconds.
fn step(store: &mut EmbeddingStore, ids: &[Vec<u32>]) -> (f64, f64) {
    let mut g = Graph::new();
    let tables: Vec<TableId> =
        store.tables().map(|t| store.id_of(t.name()).expect("registered table")).collect();
    let (leaves, gather_secs) = timing::timed(|| {
        tables.iter().zip(ids).map(|(&t, ids)| store.lookup(&mut g, t, ids)).collect::<Vec<Var>>()
    });
    let mut loss = g.sum_all(leaves[0]);
    for &v in &leaves[1..] {
        let s = g.sum_all(v);
        loss = g.add(loss, s);
    }
    g.backward(loss);
    let ((), update_secs) = timing::timed(|| store.apply_grads(&g, 0.01));
    (gather_secs, update_secs)
}

/// Time gather and sparse update on the owned source model and its attached
/// (pack directory) restore, alternating the arms rep by rep.
fn data_paths(
    owned: &mut dyn CtrModel,
    attached: &mut dyn CtrModel,
    reps: usize,
) -> (PathCost, PathCost) {
    let rows: Vec<usize> = owned.embedder().emb.tables().map(|t| t.rows()).collect();
    let mut state: u64 = 0x5EED;
    for _ in 0..3 {
        let ids = draw_ids(&rows, &mut state);
        step(&mut owned.embedder().emb, &ids);
        step(&mut attached.embedder().emb, &ids);
    }
    let (mut go, mut ga, mut uo, mut ua) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        let ids = draw_ids(&rows, &mut state);
        let (g, u) = step(&mut owned.embedder().emb, &ids);
        go.push(g);
        uo.push(u);
        let (g, u) = step(&mut attached.embedder().emb, &ids);
        ga.push(g);
        ua.push(u);
    }
    for (a, b) in owned.embedder().emb.tables().zip(attached.embedder().emb.tables()) {
        let arms = a.pack().dir().is_none() && b.pack().dir().is_some();
        assert!(arms, "arms must be owned and attached");
        let (aw, aa) = a.snapshot();
        let (bw, ba) = b.snapshot();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(bits(&aw) == bits(&bw) && bits(&aa) == bits(&ba), "{} diverged", a.name());
    }
    let n = rows.len() * IDS_PER_TABLE;
    (PathCost::new(n, go, ga), PathCost::new(n, uo, ua))
}

fn bench_config(cfg: &WorldConfig, reps: usize) -> SizeReport {
    let dir_path = packstore::fresh_temp_dir();

    let mut source = basm_baselines::build_model("Wide&Deep", cfg, 1);
    let emb_rows: usize = source.embedder().emb.tables().map(|t| t.rows()).sum();
    let emb_params = source.embedder().emb.num_params();
    save_model_dir(source.as_mut(), &dir_path).expect("dir save");

    let mut warm_samples = Vec::with_capacity(reps);
    let mut resident = 0usize;
    for _ in 0..reps {
        let mut m = basm_baselines::build_model("Wide&Deep", cfg, 2);
        warm_samples
            .push(timing::timed(|| load_model_dir(m.as_mut(), &dir_path).expect("warm attach")).1);
        resident = m.embedders().iter().map(|e| e.memory_bytes()).sum();
    }

    // Cross-check: the attached restore serves the source's rows bit for bit.
    let mut warm = basm_baselines::build_model("Wide&Deep", cfg, 2);
    load_model_dir(warm.as_mut(), &dir_path).expect("warm attach");
    for (a, b) in source.embedder().emb.tables().zip(warm.embedder().emb.tables()) {
        for r in [0u32, (a.rows() as u32 - 1) / 2, a.rows() as u32 - 1] {
            assert_eq!(
                a.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "source and attached restore disagree on {}[{r}]",
                a.name()
            );
        }
    }

    let (gather, sparse_update) = data_paths(source.as_mut(), warm.as_mut(), 41);
    let report = SizeReport {
        config: cfg.name.clone(),
        emb_rows,
        emb_params,
        pack_dir_bytes: dir_bytes(&dir_path),
        warm_attach_secs: timing::median(warm_samples),
        resident_after_attach_bytes: resident,
        gather,
        sparse_update,
    };
    eprintln!(
        "[bench_embstore] {}: warm attach {:.3}ms; gather {:.1} vs {:.1} ns/id, \
         update {:.1} vs {:.1} ns/id (owned vs attached)",
        report.config,
        report.warm_attach_secs * 1e3,
        report.gather.owned_ns_per_id,
        report.gather.attached_ns_per_id,
        report.sparse_update.owned_ns_per_id,
        report.sparse_update.attached_ns_per_id,
    );
    let _ = std::fs::remove_dir_all(&dir_path);
    report
}

fn main() {
    let env = BenchEnv::from_env();
    let configs = if env.fast {
        vec![WorldConfig::tiny()]
    } else {
        vec![WorldConfig::tiny(), WorldConfig::eleme_like()]
    };
    let sizes: Vec<SizeReport> = configs.iter().map(|c| bench_config(c, 9)).collect();
    let report = EmbstoreBench {
        note: "warm_attach = load_model_dir of a Wide&Deep checkpoint directory, \
               shards mmap'd at attach (no per-row deserialize — \
               resident_after_attach_bytes counts overlay rows of every store \
               only). gather / sparse_update: ns per id of EmbeddingStore::lookup \
               and apply_grads over the deep store's tables on the in-memory \
               source model (owned: no directory, records updated in place) and \
               its restore (attached: mmap'd base, updates through the overlay), \
               4096 head-heavy (u^3) ids per table per rep, 41 reps after 3 \
               warmups, arms interleaved rep by rep; rows checked bitwise equal \
               after."
            .to_string(),
        sizes,
    };
    env.write_json("BENCH_embstore.json", &report);
}
