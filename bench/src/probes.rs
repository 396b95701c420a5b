//! Isolated micro-probes of single public functions — the floor under
//! the numbers the workloads see in context. Each loops enough calls
//! for the clock's granularity not to matter and passes inputs and
//! results through `black_box`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use slim::core::record_cells;
use slim::datagen::TwoViewSample;
use slim::stream::{EpochPointer, StreamEngine};
use slim::telemetry::Histogram;

use crate::report::Report;
use crate::workload::Views;

/// Nanoseconds per call of `f` over `n` calls.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// `geocell`: the record → grid-cell mapping over every record, at the
/// similarity level the workload's configuration uses.
pub fn geocell(rep: &mut Report, views: &Views, level: u8) {
    let records = views.records();
    let ns = ns_per_call(records.len(), |i| {
        black_box(record_cells(black_box(&records[i]), level));
    });
    rep.set("geocell.cells_ns_per_record", ns);
}

/// `telemetry`: what one histogram record and one snapshot render cost —
/// the bound on what the telemetry-on numbers can be trusted for.
pub fn telemetry(rep: &mut Report, engine: &StreamEngine) {
    let mut hist = Histogram::new();
    let ns = ns_per_call(1_000_000, |i| hist.record(black_box(i as u64 * 37 + 1)));
    black_box(hist.count());
    rep.set("telemetry.hist_record_ns", ns);
    let us = ns_per_call(50, |_| {
        black_box(engine.snapshot().to_jsonl());
    }) / 1e3;
    rep.set("telemetry.snapshot_render_us", us);
}

/// `stream.snapshot`: the epoch pointer's publish and load, and the
/// linear `links_of` scan, against the engine's final snapshot.
pub fn snapshot(rep: &mut Report, engine: &StreamEngine, sample: &TwoViewSample) {
    let snap = engine.epoch_pointer().load();
    let pointer = EpochPointer::new();
    let publish_ns = ns_per_call(200_000, |_| pointer.publish(Arc::clone(black_box(&snap))));
    let load_ns = ns_per_call(200_000, |_| {
        black_box(pointer.load());
    });
    let entities = sample.left.entities_sorted();
    let probes = entities.len().clamp(1, 2_000);
    let links_of_ns = ns_per_call(probes, |i| {
        black_box(snap.links_of(entities[i % entities.len()]));
    });
    rep.set("stream.snapshot.publish_ns", publish_ns);
    rep.set("stream.snapshot.load_ns", load_ns);
    rep.set("stream.snapshot.links_of_ns", links_of_ns);
}
