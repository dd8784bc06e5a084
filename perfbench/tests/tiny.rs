//! Self-test: every workload at `*Config::tiny()` scale, traced and
//! untraced, must pass its correctness checks and report every metric of
//! its catalogue, finite and with its unit.
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use amdgcnn_perfbench::metrics::{result_json, END_TO_END, PER_LAYER};
use amdgcnn_perfbench::run::run;
use amdgcnn_perfbench::spec::{Spec, WORKLOADS};
use std::path::PathBuf;

#[test]
fn every_workload_reports_every_metric_at_tiny_scale() {
    for name in WORKLOADS {
        let spec = Spec::named(name).expect("defined workload").tiny();
        for trace in [false, true] {
            let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("tiny-{name}-{}", trace as u8));
            std::fs::create_dir_all(&scratch).expect("scratch directory");
            let out = run(&spec, 7, 0.2, trace, &scratch);
            std::fs::remove_dir_all(&scratch).expect("remove scratch directory");
            assert!(
                out.checks.passed(),
                "{name} trace={trace}: {:?}",
                out.checks.failures()
            );
            assert!(out.attempted > 0 && out.failed == 0, "{name}");
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            let line = result_json(true, out.attempted, out.failed, catalogue, &out.values)
                .unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
            for metric in catalogue {
                let entry = format!("\"unit\": \"{}\"", metric.unit);
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", metric.name)));
                assert!(
                    line.contains(&entry),
                    "{name}: {} lacks its unit",
                    metric.name
                );
            }
        }
    }
}
