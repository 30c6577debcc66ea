//! Embedding-store equivalence through the serving path (DESIGN.md §11):
//! a pipeline whose model serves its embedding rows out of mmap'd pack files
//! must produce bitwise identical exposures — item, position, and score bits
//! — to the same pipeline whose tables own their records (no directory),
//! across worker-thread counts. The other execution modes (SIMD, WAL,
//! telemetry) are crossed with threads in `tests/mode_matrix.rs`.

use basm_baselines::build_model;
use basm_data::{World, WorldConfig};
use basm_serving::{generate_arrivals, run_load, ArrivalConfig, FrontendConfig, ServingPipeline};
use basm_tensor::{packstore, pool};

/// Per-request exposure identity down to score bits.
fn signature(
    out: &basm_serving::LoadOutcome,
) -> Vec<(usize, usize, Vec<(u32, u16, u32)>)> {
    out.completed
        .iter()
        .map(|c| {
            (
                c.arrival,
                c.uid,
                c.exposures.iter().map(|e| (e.item, e.position, e.score.to_bits())).collect(),
            )
        })
        .collect()
}

/// Build a pipeline whose embedding tables own their records, or are
/// exported to a fresh pack directory and attached to it (`attached`), run
/// the shared arrival schedule, and return (signature, was-actually-attached).
fn run_with_store(
    world: &World,
    arrivals: &[basm_serving::Arrival],
    attached: bool,
) -> (Vec<(usize, usize, Vec<(u32, u16, u32)>)>, bool) {
    let mut model = build_model("Wide&Deep", &world.config, 1);
    let dir = packstore::fresh_temp_dir();
    if attached {
        let store = &mut model.embedder().emb;
        store.export_pack_dir(&dir).unwrap();
        store.attach_pack_dir(&dir).unwrap();
    }
    #[allow(unused_mut)]
    let mut pipe = ServingPipeline::new(world, model, 16, 6);
    #[cfg(feature = "faults")]
    pipe.set_faults(None);
    let out = run_load(&mut pipe, world, arrivals, &FrontendConfig::default());
    let in_dir = pipe.model.embedder().emb.tables().all(|t| t.pack().dir().is_some());
    let _ = std::fs::remove_dir_all(&dir);
    (signature(&out), in_dir)
}

/// The acceptance pin: serving from mmap'd pack files and from tables that
/// own their records is the same function, to the bit, at 1 and 4 worker
/// threads.
#[test]
fn pack_and_ram_serving_are_bitwise_identical_across_threads() {
    let world = World::generate(WorldConfig::tiny());
    let arrivals = generate_arrivals(
        &world,
        &ArrivalConfig { qps: 300.0, duration_ns: 1_500_000_000, ..ArrivalConfig::default() },
    );
    assert!(arrivals.len() > 50, "need real traffic, got {}", arrivals.len());

    let mut reference = None;
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        let (ram_sig, ram_in_dir) = run_with_store(&world, &arrivals, false);
        let (pack_sig, pack_in_dir) = run_with_store(&world, &arrivals, true);
        assert!(!ram_in_dir, "the owned run must have no directory");
        assert!(pack_in_dir, "the attached run never attached its pack files");
        assert!(
            ram_sig.iter().any(|(_, _, e)| !e.is_empty()),
            "no exposures served; the pin is vacuous"
        );
        assert_eq!(
            ram_sig, pack_sig,
            "mapped serving diverged from owned tables at {threads} threads"
        );
        match &reference {
            None => reference = Some(ram_sig),
            Some(r) => {
                assert_eq!(r, &ram_sig, "serving diverged across thread counts")
            }
        }
    }
    pool::set_threads(0);
}
