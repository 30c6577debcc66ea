//! The per-step training log is written if and only if it was opened.
//!
//! One test in its own binary: the log is process-global, so a concurrent
//! `train` call elsewhere in the same process would append to it.

use basm_baselines::build_model;
use basm_data::{generate_dataset, WorldConfig};
use basm_trainer::{close_train_log, open_train_log, train, TrainConfig};

const STEP_FIELDS: [&str; 6] = ["step", "epoch", "loss", "lr", "grad_norm", "examples_per_sec"];
const SUMMARY_FIELDS: [&str; 7] =
    ["event", "model", "steps", "examples", "wall_secs", "final_train_loss", "examples_per_sec"];

/// Field names of one compact JSON object line, in order. Values in these
/// records are numbers or escape-free strings, so a `"key":` scan suffices.
fn keys(line: &str) -> Vec<&str> {
    let n = line.matches("\":").count();
    line.split("\":").take(n).map(|head| head.rsplit('"').next().unwrap()).collect()
}

#[test]
fn train_log_is_written_iff_opened() {
    let cfg = WorldConfig::tiny();
    let data = generate_dataset(&cfg);
    let tc = TrainConfig::default_for(&data.dataset, 2, 128, 1);
    let dir = basm_tensor::packstore::fresh_temp_dir();

    // Never opened: training writes nothing.
    let mut model = build_model("Wide&Deep", &cfg, 1);
    train(model.as_mut(), &data.dataset, &tc);
    assert!(!dir.exists());

    // Opened: one single-line object per step, then the summary line.
    let path = dir.join("train_log.jsonl");
    open_train_log(&path).unwrap();
    let mut model = build_model("Wide&Deep", &cfg, 1);
    let (steps, _) = train(model.as_mut(), &data.dataset, &tc);
    assert_eq!(close_train_log(), Some(path.clone()));
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, steps + 1, "one line per step plus the summary");
    for (i, line) in lines[..lines.len() - 1].iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"step\":{},", i + 1)), "step line {i}: {line}");
        assert!(line.ends_with('}'), "{line}");
        assert_eq!(keys(line), STEP_FIELDS, "{line}");
    }
    let summary = lines[lines.len() - 1];
    assert!(summary.starts_with("{\"event\":\"summary\",\"model\":\"Wide&Deep\","), "{summary}");
    assert!(summary.contains(&format!("\"steps\":{steps},")), "{summary}");
    assert_eq!(keys(summary), SUMMARY_FIELDS, "{summary}");

    // Closed again: nothing more reaches the old log or anywhere else.
    assert_eq!(close_train_log(), None);
    let mut model = build_model("Wide&Deep", &cfg, 1);
    train(model.as_mut(), &data.dataset, &tc);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "only the opened log exists");
    let _ = std::fs::remove_dir_all(&dir);
}
