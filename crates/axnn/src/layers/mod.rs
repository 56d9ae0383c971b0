//! The layer zoo.

use axtensor::pool::{run_spans, spans, split_spans};
use axtensor::WorkerPool;
use std::ops::Range;

mod activation;
mod conv;
mod dense;
mod maxpool;
mod norm;
mod pool;
mod reduce;
mod shortcut;

pub use activation::{ReLU, Softmax};
pub use conv::Conv2D;
pub use dense::Dense;
pub use maxpool::MaxPool2D;
pub use norm::BatchNorm;
pub use pool::GlobalAvgPool;
pub use reduce::{Add, MaxOf, MinOf, Observer};
pub use shortcut::ShortcutA;

/// Build a `len`-element output from per-span work on `pool`: `fill` gets
/// the element range of one span of whole `unit_len`-element units
/// (pixels, for a per-channel op) and that span's slice of the output.
fn map_spans(
    pool: Option<&WorkerPool>,
    len: usize,
    unit_len: usize,
    fill: impl Fn(Range<usize>, &mut [f32]) + Sync,
) -> Vec<f32> {
    let unit_len = unit_len.max(1);
    let mut out = vec![0.0; len];
    let ranges = spans(pool, len / unit_len, unit_len);
    let fill = &fill;
    let jobs: Vec<_> = split_spans(&mut out, &ranges, unit_len)
        .into_iter()
        .zip(ranges.iter())
        .map(|(chunk, span)| move || fill(span.start * unit_len..span.end * unit_len, chunk))
        .collect();
    run_spans(pool, jobs);
    out
}
