//! Volume chunking (§III-D): a big input volume is divided into smaller
//! chunks, each processed independently (and in parallel). The chunk size
//! need not divide the volume dimensions — boundary chunks are simply
//! smaller.

use sperr_simd::Float;

/// One chunk: offset and extent within the full volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Offset of the chunk's origin in the volume.
    pub offset: [usize; 3],
    /// Extent of the chunk.
    pub dims: [usize; 3],
}

impl ChunkSpec {
    /// Number of points in the chunk.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the chunk is empty (never produced by [`chunk_grid`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Partitions `volume_dims` into a grid of chunks of size at most
/// `chunk_dims`, ordered x-fastest. Always returns at least one chunk for
/// non-empty volumes.
pub fn chunk_grid(volume_dims: [usize; 3], chunk_dims: [usize; 3]) -> Vec<ChunkSpec> {
    assert!(volume_dims.iter().all(|&d| d > 0), "empty volume");
    assert!(chunk_dims.iter().all(|&d| d > 0), "empty chunk dims");
    let counts = [
        volume_dims[0].div_ceil(chunk_dims[0]),
        volume_dims[1].div_ceil(chunk_dims[1]),
        volume_dims[2].div_ceil(chunk_dims[2]),
    ];
    let mut out = Vec::with_capacity(counts.iter().product());
    for cz in 0..counts[2] {
        for cy in 0..counts[1] {
            for cx in 0..counts[0] {
                let offset = [cx * chunk_dims[0], cy * chunk_dims[1], cz * chunk_dims[2]];
                let dims = [
                    chunk_dims[0].min(volume_dims[0] - offset[0]),
                    chunk_dims[1].min(volume_dims[1] - offset[1]),
                    chunk_dims[2].min(volume_dims[2] - offset[2]),
                ];
                out.push(ChunkSpec { offset, dims });
            }
        }
    }
    out
}

/// Copies a chunk out of the row-major volume into a dense buffer.
pub fn extract_chunk<T: Copy>(volume: &[T], volume_dims: [usize; 3], spec: &ChunkSpec) -> Vec<T> {
    let mut out = Vec::with_capacity(spec.len());
    extract_chunk_into(volume, volume_dims, spec, &mut out);
    out
}

/// [`extract_chunk`] into a reusable buffer (cleared first, capacity kept)
/// — the per-chunk hot path extracts into a per-worker buffer instead of
/// allocating.
pub fn extract_chunk_into<T: Copy>(
    volume: &[T],
    volume_dims: [usize; 3],
    spec: &ChunkSpec,
    out: &mut Vec<T>,
) {
    out.clear();
    out.reserve(spec.len());
    for z in 0..spec.dims[2] {
        for y in 0..spec.dims[1] {
            let row_start = spec.offset[0]
                + volume_dims[0] * ((spec.offset[1] + y) + volume_dims[1] * (spec.offset[2] + z));
            out.extend_from_slice(&volume[row_start..row_start + spec.dims[0]]);
        }
    }
}

/// Copies the box of `extent` samples at `src_lo` of the row-major volume
/// `src` (of `src_dims`) to `dst_lo` of the row-major volume `dst` (of
/// `dst_dims`), widening exactly where the destination is the wider type.
/// The one assembly step of every decode: a whole chunk into the volume,
/// a chunk's intersection into a region, a chunk's coarse corner into a
/// coarse volume.
pub(crate) fn copy_box<S: Float, D: Float>(
    src: &[S],
    src_dims: [usize; 3],
    src_lo: [usize; 3],
    extent: [usize; 3],
    dst: &mut [D],
    dst_dims: [usize; 3],
    dst_lo: [usize; 3],
) {
    for z in 0..extent[2] {
        for y in 0..extent[1] {
            let s = src_lo[0] + src_dims[0] * ((src_lo[1] + y) + src_dims[1] * (src_lo[2] + z));
            let d = dst_lo[0] + dst_dims[0] * ((dst_lo[1] + y) + dst_dims[1] * (dst_lo[2] + z));
            for (out, &v) in dst[d..d + extent[0]].iter_mut().zip(&src[s..s + extent[0]]) {
                *out = D::from_f64(v.to_f64());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let chunks = chunk_grid([32, 32, 32], [16, 16, 16]);
        assert_eq!(chunks.len(), 8);
        assert!(chunks.iter().all(|c| c.dims == [16, 16, 16]));
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 32 * 32 * 32);
    }

    #[test]
    fn non_divisible_boundary_chunks() {
        let chunks = chunk_grid([40, 16, 10], [16, 16, 16]);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].dims, [16, 16, 10]);
        assert_eq!(chunks[2].dims, [8, 16, 10]);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 40 * 16 * 10);
    }

    #[test]
    fn chunk_larger_than_volume() {
        let chunks = chunk_grid([10, 10, 10], [256, 256, 256]);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].dims, [10, 10, 10]);
    }

    #[test]
    fn extract_copy_box_roundtrip() {
        let dims = [7usize, 5, 4];
        let volume: Vec<f64> = (0..140).map(|i| i as f64).collect();
        let mut rebuilt = vec![0.0; 140];
        for spec in chunk_grid(dims, [3, 2, 3]) {
            let chunk = extract_chunk(&volume, dims, &spec);
            copy_box(&chunk, spec.dims, [0; 3], spec.dims, &mut rebuilt, dims, spec.offset);
        }
        assert_eq!(volume, rebuilt);
    }

    #[test]
    fn copy_box_moves_a_sub_box_and_widens_exactly() {
        // A 2×2×1 box from the middle of a 4×3×2 f32 volume to the far
        // corner of a 3×3×2 f64 volume; everything else stays untouched.
        let src: Vec<f32> = (0..24).map(|i| i as f32 + 0.1).collect();
        let mut dst = vec![-1.0f64; 18];
        copy_box(&src, [4, 3, 2], [1, 1, 1], [2, 2, 1], &mut dst, [3, 3, 2], [1, 1, 1]);
        for (i, &v) in dst.iter().enumerate() {
            let (x, y, z) = (i % 3, (i / 3) % 3, i / 9);
            let inside = x >= 1 && y >= 1 && z == 1;
            let want = if inside { src[x + 4 * (y + 3 * z)] as f64 } else { -1.0 };
            assert_eq!(v.to_bits(), want.to_bits(), "at {x},{y},{z}");
        }
    }

    #[test]
    fn extract_respects_offsets() {
        let dims = [4usize, 4, 1];
        let volume: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let spec = ChunkSpec { offset: [2, 1, 0], dims: [2, 2, 1] };
        assert_eq!(extract_chunk(&volume, dims, &spec), vec![6.0, 7.0, 10.0, 11.0]);
    }
}
