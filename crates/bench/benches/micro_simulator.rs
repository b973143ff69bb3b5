//! Microbenchmark of the simulation substrate: a small end-to-end machine
//! run (events per second bound the full-suite regeneration time).

use ltp_bench::microbench;
use ltp_system::ExperimentSpec;
use ltp_workloads::Benchmark;
use std::hint::black_box;

fn main() {
    let spec = ExperimentSpec::builder(Benchmark::Em3d)
        .policy_spec("ltp")
        .expect("builtin spec")
        .nodes(8)
        .iterations(2)
        .build();
    microbench("em3d_8nodes_2iters_ltp", || {
        black_box(spec.run().metrics.exec_cycles);
    });
}
