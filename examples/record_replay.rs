//! Record & replay walkthrough: capture a benchmark's op streams into a
//! `.ltrace` file, inspect it, replay it streamed from disk under several
//! policies, and prove the replay bit-identical to the synthetic run.
//!
//! ```sh
//! cargo run --example record_replay
//! ```

use std::sync::Arc;

use ltp::core::PolicyRegistry;
use ltp::system::{ExperimentSpec, SweepSpec};
use ltp::workloads::{Benchmark, StreamingTrace, Trace, WorkloadParams};

fn main() {
    let params = WorkloadParams::quick(8, 10);

    // 1. Capture. Programs are deterministic and policy-independent, so
    //    recording drains the instruction streams directly — no simulation.
    let trace = Trace::record(Benchmark::Unstructured, &params);
    let path = std::env::temp_dir().join("ltp-example-unstructured.ltrace");
    trace.save(&path).expect("trace saves");
    let on_disk = std::fs::metadata(&path).map_or(0, |m| m.len());
    println!(
        "recorded {}: {} nodes, {} ops -> {} ({} bytes, {:.2} B/op)",
        trace.name(),
        trace.nodes(),
        trace.total_ops(),
        path.display(),
        on_disk,
        on_disk as f64 / trace.total_ops().max(1) as f64
    );

    // 2. Inspect: opening validates the whole file; the header carries the
    //    recorded geometry, and one bounded-memory pass summarizes the op
    //    mix (what `ltp trace-info` prints).
    let streaming = Arc::new(StreamingTrace::open(&path).expect("trace validates"));
    let stats = StreamingTrace::scan_stats(&streaming).expect("trace scans");
    for (kind, count) in stats.histogram {
        if count > 0 {
            println!("  {kind:<10} {count}");
        }
    }

    // 3. Replay under one policy, decoding each node's stream from disk
    //    with a bounded window, and verify fidelity against the synthetic
    //    original.
    let direct = ExperimentSpec::builder(Benchmark::Unstructured)
        .policy_spec("ltp")
        .expect("builtin spec")
        .workload(params)
        .build()
        .run();
    let replayed = ExperimentSpec::builder(Arc::clone(&streaming))
        .policy_spec("ltp")
        .expect("builtin spec")
        .build()
        .run();
    assert_eq!(replayed, direct, "replay must be bit-identical");
    println!(
        "replay == synthetic: {} cycles, {:.1}% predicted (format v{}, {} repeat blocks, \
         window {} ops)",
        replayed.metrics.exec_cycles,
        replayed.metrics.predicted_pct(),
        streaming.version(),
        streaming.repeat_blocks(),
        streaming.max_window()
    );

    // 4. Sweep the trace like any benchmark: one recorded scenario under
    //    every policy of the paper's evaluation, in parallel.
    let registry = PolicyRegistry::with_builtins();
    let reports = SweepSpec::new()
        .source(streaming)
        .policy_specs(&registry, &["base", "dsi", "last-pc", "ltp"])
        .expect("builtin specs")
        .collect();
    println!();
    println!(
        "{:<14} {:<28} {:>12} {:>8}",
        "workload", "policy", "exec(cyc)", "pred%"
    );
    for r in &reports {
        println!(
            "{:<14} {:<28} {:>12} {:>8.1}",
            r.benchmark,
            r.policy_spec,
            r.metrics.exec_cycles,
            r.metrics.predicted_pct()
        );
    }

    std::fs::remove_file(&path).ok();
}
