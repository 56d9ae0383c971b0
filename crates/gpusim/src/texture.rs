//! Set-associative LRU model of the GPU texture (L1) cache.
//!
//! The paper's central performance claim rests on the texture cache: the
//! 128 kB multiplier LUT is fetched through `tex1Dfetch`, and the texture
//! path "is optimized for irregular read-only access and in some GPU
//! architectures is even implemented as a dedicated cache". This model
//! makes that mechanism measurable: kernels funnel every LUT fetch through
//! [`TextureCache::access`], which classifies it hit/miss under an LRU
//! replacement policy.
//!
//! Every set is a fixed 4-way array of line tags kept most-recently-used
//! last, so one access is a branch-free shift-and-insert on a
//! register-sized value.

/// Associativity of the modeled texture cache.
const TEX_CACHE_WAYS: usize = 4;

/// Tag of an empty way. Lines come from `u16` element indices, so a line
/// is at most `0xFFFF` and never equals it.
const EMPTY: u32 = u32::MAX;

/// A 4-way set-associative LRU cache over `u16` element indices.
///
/// Indexing is in *elements* of 2 bytes (the `u16` LUT); the line size
/// groups consecutive elements.
#[derive(Debug, Clone)]
pub struct TextureCache {
    /// `sets[s]` holds line tags, most recently used last; empty ways
    /// (holding [`EMPTY`]) sit in front.
    sets: Vec<[u32; TEX_CACHE_WAYS]>,
    /// `log2` of the elements per line.
    line_shift: u32,
    /// Lemire fastmod constant `⌈2⁶⁴ / sets.len()⌉` (0 for one set).
    fastmod: u64,
}

impl TextureCache {
    /// Create an empty cache of `capacity_bytes` with `line_bytes` lines,
    /// for 2-byte elements.
    ///
    /// # Errors
    ///
    /// Returns why the geometry is invalid: the line must be a power of
    /// two of at least one 2-byte element, and the capacity must hold at
    /// least one 4-way set.
    pub fn new(capacity_bytes: usize, line_bytes: usize) -> Result<Self, String> {
        if line_bytes < 2 || !line_bytes.is_power_of_two() {
            return Err(format!(
                "texture cache line must be a power of two >= 2 bytes (got {line_bytes})"
            ));
        }
        if capacity_bytes / line_bytes < TEX_CACHE_WAYS {
            return Err(format!(
                "texture cache of {capacity_bytes} bytes holds fewer than one \
                 {TEX_CACHE_WAYS}-way set of {line_bytes}-byte lines"
            ));
        }
        let line_shift = (line_bytes / 2).trailing_zeros();
        // Sets past the number of distinct lines would never be touched
        // (`line % n_sets == line` either way), so the count is capped
        // there; this bounds the allocation and keeps `n_sets` in `u32`.
        let n_lines = 1usize << (16 - line_shift.min(16));
        let n_sets = (capacity_bytes / line_bytes / TEX_CACHE_WAYS).min(n_lines);
        Ok(TextureCache {
            sets: vec![[EMPTY; TEX_CACHE_WAYS]; n_sets],
            line_shift,
            fastmod: (u64::MAX / n_sets as u64).wrapping_add(1),
        })
    }

    /// Fetch `indices` in order, updating LRU state, and return how many
    /// of them hit. A hit moves its line to the MRU way; a miss evicts the
    /// LRU way and inserts its line as MRU.
    pub fn access(&mut self, indices: &[u16]) -> u64 {
        let shift = self.line_shift;
        let fastmod = self.fastmod;
        let sets = self.sets.as_mut_slice();
        let n_sets = sets.len() as u64;
        let mut hits = 0u64;
        for &index in indices {
            let line = u32::from(index) >> shift;
            // Lemire's fastmod: `line % n_sets` for `n_sets` not a power
            // of two (the GTX-1080 geometry has 384 sets).
            let low = fastmod.wrapping_mul(u64::from(line));
            let set = ((u128::from(low) * u128::from(n_sets)) >> 64) as usize;
            let t = sets[set];
            let hit = t.iter().fold(false, |h, &tag| h | (tag == line));
            // Shift every way from the hit position (or from way 0 on a
            // miss, evicting the LRU line) one step toward the front and
            // insert the line as MRU.
            let mut seen = !hit;
            let mut n = t;
            for i in 0..TEX_CACHE_WAYS - 1 {
                seen |= t[i] == line;
                n[i] = if seen { t[i + 1] } else { t[i] };
            }
            n[TEX_CACHE_WAYS - 1] = line;
            sets[set] = n;
            hits += u64::from(hit);
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity_bytes: usize, line_bytes: usize) -> TextureCache {
        TextureCache::new(capacity_bytes, line_bytes).unwrap()
    }

    fn hits(c: &mut TextureCache, indices: &[u16]) -> Vec<bool> {
        indices.iter().map(|&i| c.access(&[i]) == 1).collect()
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = cache(1024, 32);
        // Same line for 0 and 15 (16 u16 elements per 32-byte line).
        assert_eq!(hits(&mut c, &[0, 0, 15, 16]), [false, true, true, false]);
    }

    #[test]
    fn lru_evicts_oldest() {
        // One set of 4 ways, 2-element lines.
        let mut c = cache(16, 4);
        c.access(&[0, 2, 4, 6]); // lines 0..=3 fill the set
        c.access(&[8]); // line 4 evicts line 0
        assert_eq!(hits(&mut c, &[2, 0]), [true, false]);
    }

    #[test]
    fn touching_refreshes_lru_position() {
        let mut c = cache(16, 4);
        c.access(&[0, 2, 4, 6]); // lines 0..=3
        c.access(&[0]); // refresh line 0 -> line 1 is LRU
        c.access(&[8]); // evicts line 1
        assert_eq!(hits(&mut c, &[0, 2]), [true, false]);
    }

    #[test]
    fn batch_returns_hit_count() {
        let mut c = cache(1024, 32);
        assert_eq!(c.access(&[]), 0);
        assert_eq!(c.access(&[0, 1, 2, 16, 17]), 3);
    }

    #[test]
    fn whole_lut_fits_in_128k_cache() {
        // A cache as large as the LUT never misses after warm-up: its 1024
        // sets each hold exactly their 4 lines.
        let mut c = cache(128 * 1024, 32);
        let all: Vec<u16> = (0..=u16::MAX).collect();
        c.access(&all);
        assert_eq!(c.access(&all), all.len() as u64);
    }

    #[test]
    fn oversized_capacity_is_capped_without_changing_hits() {
        // 1 GiB of 2-byte lines: more sets than distinct lines.
        let mut c = cache(1 << 30, 2);
        assert_eq!(c.sets.len(), 1 << 16);
        let all: Vec<u16> = (0..=u16::MAX).collect();
        assert_eq!(c.access(&all), 0);
        assert_eq!(c.access(&all), all.len() as u64);
    }

    #[test]
    fn invalid_geometry_is_reported() {
        assert!(TextureCache::new(48 * 1024, 32).is_ok());
        assert!(TextureCache::new(128, 32).is_ok());
        let err = |capacity, line| TextureCache::new(capacity, line).unwrap_err();
        assert!(err(48 * 1024, 24).contains("power of two"));
        assert!(err(48 * 1024, 1).contains("power of two"));
        assert!(err(64, 32).contains("fewer than one"));
    }
}
