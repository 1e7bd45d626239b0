//! # mekong-bench — regenerating the paper's tables and figures
//!
//! One binary per artifact (see DESIGN.md §5 for the index):
//!
//! | Binary                 | Artifact                                  |
//! |------------------------|-------------------------------------------|
//! | `table1`               | Table 1 — benchmark configurations        |
//! | `fig6`                 | Figure 6 — speedup vs #GPUs               |
//! | `fig7`                 | Figure 7 — execution time breakdown       |
//! | `fig8`                 | Figure 8 — non-transfer overhead box plot |
//! | `single_gpu_overhead`  | §9.2 single-GPU slowdown statistics       |
//! | `compile_time`         | §3 compile-time increase                  |
//! | `ablation_distribution`| A1 — default vs free redistribution       |
//! | `ablation_tracker`     | A2 — tracker fragmentation vs sync cost   |
//! | `ablation_split_dim`   | A3 — partition axis choice                |
//! | `ablation_interconnect`| A4 — PCIe-tree vs NVLink-class fabric     |
//! | `ablation_streams`     | A5 — execution engine, transfer coalescing|
//! | `ablation_replay`      | A6 — launch-plan capture & replay         |
//! | `ablation_tuner`       | A7 — cost-model-driven autotuner          |
//! | `ablation_replica`     | A8 — replica-aware coherence              |
//! | `ablation_pipeline`    | A9 — launch-ahead pipelined scheduling    |
//! | `ablation_tiling`      | A10 — 2-D grid tilings vs 1-D slabs       |
//! | `ablation_serve`       | A11 — multi-tenant serving runtime        |
//! | `ablation_interval`    | A12 — interval boxes on irregular kernels |
//! | `ablation_backend`     | A13 — GPU-only vs CPU-only vs mixed       |
//!
//! All binaries accept `--quick` to scale down iteration counts for a fast
//! smoke run; without it, the Table 1 configurations are used.

/// Percentile of a sorted slice (nearest-rank).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (p / 100.0 * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median convenience.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Format a row of fixed-width cells.
pub fn row(cells: &[String], width: usize) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>width$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Write a `BENCH_*.json` record and print where it went. Full runs
/// write the repository root, where the committed records live;
/// `--quick` smoke runs write under `target/bench-quick/`, so a smoke
/// run never overwrites a committed record.
pub fn write_record(quick: bool, file: &str, json: &str) {
    let path = if quick {
        let dir = std::path::Path::new("target/bench-quick");
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        dir.join(file)
    } else {
        std::path::PathBuf::from(file)
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!();
    println!("wrote {}", path.display());
}

/// Parsed common benchmark flags.
pub struct BenchArgs {
    pub quick: bool,
    pub iter_scale: f64,
    pub gpus: Vec<usize>,
}

impl BenchArgs {
    /// Parse from `std::env::args`: `--quick`, `--iter-scale X`,
    /// `--gpus 1,2,4`.
    pub fn parse() -> BenchArgs {
        let argv: Vec<String> = std::env::args().collect();
        let quick = argv.iter().any(|a| a == "--quick");
        let mut iter_scale = if quick { 0.02 } else { 1.0 };
        let mut gpus = mekong_workloads::GPU_COUNTS.to_vec();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--iter-scale" => {
                    if let Some(v) = it.next() {
                        iter_scale = v.parse().expect("--iter-scale takes a number");
                    }
                }
                "--gpus" => {
                    if let Some(v) = it.next() {
                        gpus = v
                            .split(',')
                            .map(|s| s.parse().expect("--gpus takes a comma list"))
                            .collect();
                    }
                }
                _ => {}
            }
        }
        BenchArgs {
            quick,
            iter_scale,
            gpus,
        }
    }

    /// Iteration count for a benchmark, scaled (minimum 1).
    pub fn iters_for(&self, b: &dyn mekong_workloads::Benchmark) -> usize {
        ((b.iterations() as f64 * self.iter_scale).round() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
    }

    #[test]
    fn row_formats_fixed_width() {
        let r = row(&["a".into(), "bb".into()], 4);
        assert_eq!(r, "   a   bb");
    }
}
