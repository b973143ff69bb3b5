//! Pins the exact event order the observer sees.
//!
//! The goldens hold aggregates and the sanitizer checks coherence, so
//! neither would notice two events of a run trading places. This test
//! folds every [`SimEvent`] a generic probe receives, together with its
//! `ctx.now`, into an FNV-1a digest and a count, and compares the result
//! against `tests/data/event_order_digests.txt` at one and at three
//! shards: the engine may change how it schedules a window, but never the
//! serial emission order that probes observe.

use std::sync::Arc;

use ltp::core::JsonObject;
use ltp::system::{ExperimentSpec, MetricsSection, Probe, ProbeCtx, SimEvent};
use ltp::workloads::{random_trace, Benchmark, StreamingTrace, WorkloadParams};

const GOLDEN: &str = include_str!("data/event_order_digests.txt");

/// Folds the observed stream into an FNV-1a 64 digest of each event's
/// `Debug` rendering and its timestamp.
#[derive(Debug)]
struct OrderDigest {
    events: u64,
    hash: u64,
}

impl OrderDigest {
    fn new() -> Self {
        OrderDigest {
            events: 0,
            hash: 0xCBF2_9CE4_8422_2325,
        }
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

impl Probe for OrderDigest {
    fn on_event(&mut self, ctx: &ProbeCtx, event: &SimEvent) {
        self.events += 1;
        self.fold(format!("{} {event:?}\n", ctx.now.as_u64()).as_bytes());
    }

    fn finish(self: Box<Self>) -> Option<MetricsSection> {
        Some(MetricsSection::new(
            "order",
            JsonObject::new()
                .field("events", self.events)
                .field("digest", format!("{:016x}", self.hash))
                .build(),
        ))
    }
}

/// Runs `spec` at `shards` and returns the digest section's JSON.
fn digest(spec: &ExperimentSpec, shards: usize) -> String {
    let mut spec = spec.clone();
    spec.shards = shards;
    let report = spec.run();
    let section = report
        .sections
        .iter()
        .find(|s| s.name == "order")
        .expect("digest probe attached");
    section.data.render()
}

fn with_digest(spec: ltp::system::ExperimentBuilder) -> ExperimentSpec {
    spec.policy_spec("ltp")
        .expect("builtin spec")
        .probe_fn("order", || Box::new(OrderDigest::new()))
        .build()
}

#[test]
fn observer_event_order_is_pinned_at_one_and_three_shards() {
    let mut cases: Vec<(String, ExperimentSpec)> =
        [Benchmark::Appbt, Benchmark::Raytrace, Benchmark::Em3d]
            .into_iter()
            .map(|bench| {
                let spec = with_digest(ExperimentSpec::builder(bench).nodes(8).iterations(2));
                (format!("{bench}-8"), spec)
            })
            .collect();

    // A `gen-trace` file, streamed from disk under the sanitizer.
    let mut params = WorkloadParams::quick(8, 1);
    params.seed = 1;
    let path = std::env::temp_dir().join(format!("ltp-event-order-{}.ltrace", std::process::id()));
    random_trace(&params, 2000).save(&path).unwrap();
    let streaming = Arc::new(StreamingTrace::open(&path).unwrap());
    let spec = with_digest(
        ExperimentSpec::builder(streaming)
            .probe_spec("check")
            .expect("builtin probe"),
    );
    cases.push(("random-8-check".to_string(), spec));

    let mut actual = String::new();
    for (name, spec) in &cases {
        let serial = digest(spec, 1);
        let sharded = digest(spec, 3);
        assert_eq!(sharded, serial, "{name}: 3 shards diverged from serial");
        actual.push_str(&format!("{name} {serial}\n"));
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(
        actual, GOLDEN,
        "observer event order changed; the digests this build produces are:\n{actual}"
    );
}
