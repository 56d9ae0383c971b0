//! Min/max range observers.
//!
//! The paper's graph transform (Fig. 1) inserts `Min` and `Max` operators
//! in front of every approximate layer; "the minimum and maximum values of
//! the input tensors are determined once per a batch". `RangeTracker` is
//! that observer.

use serde::{Deserialize, Serialize};

/// Running min/max over observed values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangeTracker {
    min: f32,
    max: f32,
    count: u64,
}

impl RangeTracker {
    /// An empty tracker (no observations yet).
    #[must_use]
    pub fn new() -> Self {
        RangeTracker {
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            count: 0,
        }
    }

    /// Observe one value.
    #[inline]
    pub fn observe(&mut self, v: f32) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.count += 1;
    }

    /// Observe every value of a slice.
    pub fn observe_slice(&mut self, xs: &[f32]) {
        for &x in xs {
            self.observe(x);
        }
    }

    /// Merge another tracker into this one.
    pub fn merge(&mut self, other: &RangeTracker) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// Number of observed values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The observed `(min, max)`, or `(0, 0)` if nothing was observed.
    #[must_use]
    pub fn bounds(&self) -> (f32, f32) {
        if self.count == 0 {
            (0.0, 0.0)
        } else {
            (self.min, self.max)
        }
    }
}

impl Default for RangeTracker {
    fn default() -> Self {
        RangeTracker::new()
    }
}

/// Per-segment `(min, max)` bounds over a fused activation buffer, in one
/// pass — the segmented form of the Fig. 1 observers.
///
/// `counts` gives each segment's length in *units* (batch images), and
/// `elems_per_unit` the number of consecutive `f32` elements one unit
/// occupies (`H × W × C` for an NHWC batch; pass 1 to segment a flat
/// slice). Segments are consecutive: segment `i` covers the
/// `counts[i] × elems_per_unit` elements following segment `i − 1`.
///
/// The per-segment semantics are **exactly** those of a solo observer
/// (`axtensor::ops::min_max`): an empty segment reports `(0.0, 0.0)` and
/// a segment containing any NaN reports `(NaN, NaN)` — NaN propagates so
/// the quantization layer can reject it instead of deriving garbage
/// coefficients, which plain `f32::min`/`f32::max` (and
/// [`RangeTracker`]) would silently swallow. This is what makes a fused
/// forward pass bit-identical to solo inference: each segment resolves
/// the same `(α, β)` it would have resolved alone.
///
/// # Panics
///
/// Panics if `data` is shorter than the segments require.
#[must_use]
pub fn segment_bounds(data: &[f32], counts: &[usize], elems_per_unit: usize) -> Vec<(f32, f32)> {
    let total: usize = counts.iter().map(|c| c * elems_per_unit).sum();
    assert!(
        data.len() >= total,
        "segment_bounds: {} elements for segments spanning {total}",
        data.len()
    );
    let mut out = Vec::with_capacity(counts.len());
    let mut cursor = 0usize;
    for &count in counts {
        let len = count * elems_per_unit;
        let seg = &data[cursor..cursor + len];
        cursor += len;
        out.push(match seg.split_first() {
            None => (0.0, 0.0),
            Some((&first, rest)) => {
                let mut lo = first;
                let mut hi = first;
                let mut saw_nan = first.is_nan();
                for &v in rest {
                    saw_nan |= v.is_nan();
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if saw_nan {
                    (f32::NAN, f32::NAN)
                } else {
                    (lo, hi)
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_reports_zero_bounds() {
        assert_eq!(RangeTracker::new().bounds(), (0.0, 0.0));
    }

    #[test]
    fn observe_updates_bounds() {
        let mut t = RangeTracker::new();
        t.observe_slice(&[1.0, -3.0, 2.5]);
        assert_eq!(t.bounds(), (-3.0, 2.5));
        assert_eq!(t.count(), 3);
    }

    #[test]
    fn merge_combines() {
        let mut a = RangeTracker::new();
        a.observe_slice(&[0.0, 1.0]);
        let mut b = RangeTracker::new();
        b.observe_slice(&[-5.0, 0.5]);
        a.merge(&b);
        assert_eq!(a.bounds(), (-5.0, 1.0));
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RangeTracker::new();
        a.observe_slice(&[2.0, 3.0]);
        let before = a.bounds();
        a.merge(&RangeTracker::new());
        assert_eq!(a.bounds(), before);
    }

    #[test]
    fn segment_bounds_matches_solo_observation_per_segment() {
        // 3 segments of 2/0/1 units, 2 elements per unit.
        let data = [1.0f32, -3.0, 2.5, 0.5, -7.0, 4.0];
        let bounds = segment_bounds(&data, &[2, 0, 1], 2);
        assert_eq!(bounds, vec![(-3.0, 2.5), (0.0, 0.0), (-7.0, 4.0)]);
    }

    #[test]
    fn segment_bounds_single_segment_covers_everything() {
        let data = [0.25f32, -1.5, 9.0];
        assert_eq!(segment_bounds(&data, &[3], 1), vec![(-1.5, 9.0)]);
        assert_eq!(segment_bounds(&data, &[1], 3), vec![(-1.5, 9.0)]);
    }

    #[test]
    fn segment_bounds_propagates_nan_per_segment_only() {
        let data = [1.0f32, f32::NAN, 2.0, 3.0];
        let bounds = segment_bounds(&data, &[2, 2], 1);
        assert!(bounds[0].0.is_nan() && bounds[0].1.is_nan());
        assert_eq!(bounds[1], (2.0, 3.0));
    }

    #[test]
    fn segment_bounds_empty_everything() {
        assert!(segment_bounds(&[], &[], 4).is_empty());
        assert_eq!(segment_bounds(&[], &[0, 0], 4), vec![(0.0, 0.0); 2]);
    }

    #[test]
    #[should_panic(expected = "segment_bounds")]
    fn segment_bounds_rejects_short_data() {
        let _ = segment_bounds(&[1.0], &[2], 1);
    }
}
