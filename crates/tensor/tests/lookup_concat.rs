//! Bitwise pin for the fused multi-table gather, `EmbeddingStore::lookup_concat`.
//!
//! The oracle is the composite it replaced, built from the public API: one
//! `lookup` per part, `concat_cols`, then `reshape` to the consumer's shape.
//! Both feed the same loss (two consumers, so gradients accumulate into the
//! leaf), run `backward` and `apply_grads`, and the forward value plus every
//! table's weights and Adagrad accumulators must match bit for bit — on a
//! store with no directory and on one attached to a pack directory, with
//! duplicate ids and id-0 padding, two parts on the same table, one row per
//! id and one row per `T` ids, at 1 and 4 threads.

use basm_tensor::nn::embedding::{EmbeddingStore, TableId};
use basm_tensor::packstore;
use basm_tensor::{pool, Graph, Prng, Var};
use std::sync::Mutex;

/// The thread overrides are process-global; serialize the tests.
static SETTINGS: Mutex<()> = Mutex::new(());

/// `(rows, dim)` of the three tables.
const TABLES: [(usize, usize); 3] = [(30, 4), (12, 3), (9, 2)];

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// The three tables, attached to a fresh pack directory when `attached`
/// (returned, for cleanup).
fn build(attached: bool) -> (EmbeddingStore, Vec<TableId>, Option<std::path::PathBuf>) {
    let mut rng = Prng::seeded(7);
    let mut store = EmbeddingStore::new();
    let ids = TABLES
        .iter()
        .enumerate()
        .map(|(i, &(rows, dim))| store.add_table(&mut rng, format!("t{i}"), rows, dim, 0.1))
        .collect();
    let dir = attached.then(|| {
        let dir = packstore::fresh_temp_dir();
        store.export_pack_dir(&dir).unwrap();
        store.attach_pack_dir(&dir).unwrap();
        dir
    });
    (store, ids, dir)
}

/// `n` ids below `rows`: a quarter are padding, and a small range forces
/// duplicates.
fn draw_ids(rng: &mut Prng, rows: usize, n: usize) -> Vec<u32> {
    (0..n).map(|_| if rng.chance(0.25) { 0 } else { 1 + rng.below(rows.min(6) - 1) as u32 }).collect()
}

/// Three training steps through either the fused gather or the composite.
/// Part layout: table 0, table 1, table 0 again, table 2. Returns the bits
/// of every forward value, then of every table's weights and accumulators.
fn run(attached: bool, fused: bool, n: usize, rows: usize) -> Vec<Vec<u32>> {
    let (mut store, t, dir) = build(attached);
    let layout = [t[0], t[1], t[0], t[2]];
    let mut rng = Prng::seeded(99);
    let mut out = Vec::new();
    for _ in 0..3 {
        let ids: Vec<Vec<u32>> =
            layout.iter().map(|&tid| draw_ids(&mut rng, store.table(tid).rows(), n)).collect();
        let parts: Vec<(TableId, &[u32])> =
            layout.iter().zip(&ids).map(|(&tid, ids)| (tid, &ids[..])).collect();
        let width: usize = layout.iter().map(|&tid| store.table(tid).dim()).sum();
        let cols = n / rows * width;
        let c = rng.randn(rows, cols, 1.0);

        let mut g = Graph::new();
        let x = if fused {
            store.lookup_concat(&mut g, &parts, rows)
        } else {
            let leaves: Vec<Var> =
                parts.iter().map(|&(tid, ids)| store.lookup(&mut g, tid, ids)).collect();
            let cat = g.concat_cols(&leaves);
            g.reshape(cat, rows, cols)
        };
        assert_eq!(g.value(x).shape(), (rows, cols));
        let cv = g.input(c);
        let y1 = g.mul(x, cv);
        let y2 = g.square(x);
        let s1 = g.sum_all(y1);
        let s2 = g.mean_all(y2);
        let loss = g.add(s1, s2);
        g.backward(loss);
        store.apply_grads(&g, 0.3);
        out.push(bits(g.value(x).data()));
    }
    for &tid in &t {
        let (w, a) = store.table(tid).snapshot();
        out.push(bits(&w));
        out.push(bits(&a));
    }
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

#[test]
fn lookup_concat_matches_composite_bitwise() {
    let _guard = SETTINGS.lock().unwrap_or_else(|e| e.into_inner());
    const T: usize = 5;
    let mut owned_runs = Vec::new();
    for attached in [false, true] {
        for threads in [1, 4] {
            pool::set_threads(threads);
            pool::set_min_work(0);
            for (n, rows) in [(20, 20), (20, 20 / T), (1, 1), (T, 1)] {
                let fused = run(attached, true, n, rows);
                let composite = run(attached, false, n, rows);
                assert!(
                    fused == composite,
                    "attached {attached}, threads {threads}, n {n}, rows {rows}: fused differs"
                );
                if attached {
                    let owned: Vec<Vec<u32>> = owned_runs.remove(0);
                    let at = format!("threads {threads}, n {n}, rows {rows}");
                    assert!(owned == fused, "{at}: the attached store differs");
                } else {
                    owned_runs.push(fused);
                }
            }
            pool::set_threads(0);
            pool::set_min_work(pool::DEFAULT_MIN_WORK);
        }
    }
}
