//! The back half of [`crate::decoder`], audited for panic-freedom with it:
//! the list of significant pixels and the *deferred* refinement pass
//! (DESIGN.md §13).
//! A sorting pass never looks at a magnitude, so the decoder stays in
//! sync with the stream by *skipping* each plane's refinement bits and
//! remembering where they were. Magnitudes are assembled once, after the
//! last plane, 64 entries at a time: one 64-bit stream window per plane,
//! a bit-matrix transpose, 64 signed values, then one write per
//! coefficient into the output — a z-slab of it per call, so the slabs of
//! one chunk can be assembled on different threads.

use crate::decoder::DecodeError;
use crate::layout::{bit, Geometry};
use sperr_bitstream::BitReader;
use sperr_simd::Float;
use std::ops::Range;

/// Signals that the stream ran out mid-pass; unwinds the pass cleanly (a
/// truncated embedded stream is a *valid* coarser encoding, not an error).
pub(crate) struct Stop;

impl From<sperr_bitstream::Error> for Stop {
    fn from(_: sperr_bitstream::Error) -> Self {
        Stop
    }
}

/// One plane's refinement pass as it sits in the stream: bit
/// `start_bit + i` refines LSP entry `i`, for `i < present`. `present`
/// falls short of the LSP length the pass covers only when the stream
/// ends inside it (then it is the last segment).
struct Segment {
    plane: u8,
    start_bit: usize,
    present: usize,
}

/// Consecutive LSP entries `[previous end, end)` that share a discovery
/// plane and a lowest refined plane (`unc`: bits below it are unknown).
struct Run {
    end: usize,
    found: u8,
    unc: u8,
}

#[derive(Default)]
pub(crate) struct DeferredLsp {
    /// Where each significant coefficient lives, in discovery order, as a
    /// position of the layout's deepest level.
    pixels: Vec<u32>,
    /// Sign of entry `i` in bit `i % 64` of word `i / 64`.
    signs: Vec<u64>,
    /// `(plane, LSP length when its sorting pass began)`, descending plane.
    planes: Vec<(u8, usize)>,
    segments: Vec<Segment>,
}

/// The low `n` bits set (all 64 for any larger `n`).
#[inline]
pub(crate) fn low_mask(n: usize) -> u64 {
    1u64.checked_shl(n.min(64) as u32).map_or(u64::MAX, |bit| bit - 1)
}

/// The 64 stream bits from bit `pos` on, first bit in bit 0; bits past
/// the end of the stream read as 0 (callers mask them by `present`).
#[inline]
fn window(stream: &[u8], pos: usize) -> u64 {
    let tail = stream.get(pos / 8..).unwrap_or(&[]);
    let wide = match tail.first_chunk::<16>() {
        Some(w) => u128::from_le_bytes(*w),
        None => {
            let mut padded = [0u8; 16];
            padded.iter_mut().zip(tail).for_each(|(p, &t)| *p = t);
            u128::from_le_bytes(padded)
        }
    };
    (wide >> (pos % 8)) as u64
}

impl DeferredLsp {
    /// An empty LSP in the memory of `pixels` (its contents dropped), with
    /// room reserved, up front and exactly, for every pixel a stream of
    /// `stream_bytes` can find in a domain of `n_total`: each discovery
    /// costs at least its significance bit and its sign bit, so there are
    /// at most `min(n_total, 4 · stream_bytes)`. The reservation is
    /// proportional to the input whatever the header claims, and the LSP
    /// never regrows.
    pub(crate) fn for_stream(
        mut pixels: Vec<u32>,
        n_total: usize,
        stream_bytes: usize,
    ) -> Result<Self, DecodeError> {
        let room = n_total.min(stream_bytes.saturating_mul(4));
        pixels.clear();
        let mut lsp = DeferredLsp { pixels, ..DeferredLsp::default() };
        lsp.pixels
            .try_reserve_exact(room)
            .and_then(|()| lsp.signs.try_reserve_exact(room.div_ceil(64)))
            .map_err(|_| DecodeError::LimitExceeded("no memory for the significant-pixel list"))?;
        Ok(lsp)
    }

    /// The pixel list's memory, for the next sorting pass.
    pub(crate) fn into_pixels(self) -> Vec<u32> {
        self.pixels
    }

    /// Records a newly significant pixel.
    #[inline]
    pub(crate) fn push(&mut self, pixel: u32, negative: bool) {
        let lane = self.pixels.len() % 64;
        if lane == 0 {
            self.signs.push(0);
        }
        if let Some(word) = self.signs.last_mut() {
            *word |= (negative as u64) << lane;
        }
        self.pixels.push(pixel);
    }

    /// Records newly significant pixels, `pixels.len() <= 64` of them in
    /// discovery order, the sign of `pixels[i]` in bit `i` of `signs`.
    #[inline]
    pub(crate) fn extend(&mut self, pixels: &[u32], signs: u64) {
        let lane = self.pixels.len() % 64;
        let signs = signs & low_mask(pixels.len());
        if lane == 0 {
            if !pixels.is_empty() {
                self.signs.push(signs);
            }
        } else {
            if let Some(word) = self.signs.last_mut() {
                *word |= signs << lane;
            }
            if lane + pixels.len() > 64 {
                self.signs.push(signs >> (64 - lane));
            }
        }
        self.pixels.extend_from_slice(pixels);
    }

    /// Walks the stream plane by plane: `sorting_pass` consumes a plane's
    /// significance and sign bits (pushing discoveries), then its
    /// refinement bits — one per entry found on earlier planes — are
    /// recorded as a [`Segment`] and skipped. Stops where the stream does,
    /// keeping what the cut pass found and the refinement bits that exist.
    pub(crate) fn decode_planes(
        &mut self,
        input: &mut BitReader<'_>,
        num_planes: u8,
        mut sorting_pass: impl FnMut(&mut BitReader<'_>, &mut Self) -> Result<(), Stop>,
    ) {
        for plane in (0..num_planes).rev() {
            let _plane = sperr_telemetry::span!("speck.decode.plane", plane);
            let older = self.pixels.len();
            self.planes.push((plane, older));
            if sorting_pass(input, self).is_err() {
                return;
            }
            let present = older.min(input.remaining_bits());
            self.segments.push(Segment { plane, start_bit: input.position_bits(), present });
            // `present` fits: the LSP never outgrows the u32-indexed domain.
            if input.skip_bits(present as u32).is_err() || present < older {
                return;
            }
        }
    }

    /// Splits the LSP into [`Run`]s. Segments cover growing prefixes of
    /// the LSP as planes descend (only the last may be cut short), so the
    /// lowest plane refining entry `i` is the last segment's if it reaches
    /// `i`, else the one before it; an entry neither reaches was found on
    /// one of those two planes and has no refinement bit yet.
    fn runs(&self) -> Vec<Run> {
        let mut cuts = [(0usize, 0u8); 2];
        for (cut, s) in cuts.iter_mut().zip(self.segments.iter().rev()) {
            *cut = (s.present, s.plane);
        }
        let mut runs = Vec::with_capacity(self.planes.len() + 2);
        for (k, &(found, start)) in self.planes.iter().enumerate() {
            let end = self.planes.get(k + 1).map_or(self.pixels.len(), |p| p.1);
            let mut a = start;
            while a < end {
                let unc = cuts.iter().find(|c| a < c.0).map_or(found, |c| c.1);
                let b = cuts.iter().map(|c| c.0).filter(|&c| c > a).fold(end, usize::min);
                runs.push(Run { end: b, found, unc });
                a = b;
            }
        }
        runs
    }

    /// Mid-riser reconstruction of the coefficients in row-major range
    /// `slab` into `out` (`out[i]` is coefficient `slab.start + i`): a
    /// coefficient whose bits below plane `unc` are unknown lies in
    /// `[val·q, (val + 2^unc)·q)` and is placed at the interval centre;
    /// undiscovered coefficients are not written. Per 64 entries, row `p`
    /// of a bit matrix is plane `p`'s refinement window (masked to the bits
    /// present) plus the discovery bit of entries found on plane `p`; its
    /// transpose is the 64 magnitudes, which become 64 signed values (the
    /// sign applied by a multiply, no branch) before any is scattered
    /// through [`Geometry::to_row_major`].
    ///
    /// `slab` must be a range whose layout positions are its own row-major
    /// indices (the whole domain, or a z-half of it; see
    /// [`crate::Sorted::slabs`]), so a pixel is in it when its position is:
    /// two compares, no lookup. A block of 64 entries with no pixel in the
    /// slab — or, when `MASKED`, none set in `keep` (bitmap by layout
    /// position) — is skipped whole: no window loads, no transpose, no
    /// writes. For `whole` (the slab is the domain) of an unmasked read the
    /// test is not made.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble<T: Float, const MASKED: bool>(
        &self,
        stream: &[u8],
        q: f64,
        num_planes: u8,
        geom: &impl Geometry,
        keep: &[u64],
        slab: Range<usize>,
        whole: bool,
        out: &mut [T],
    ) {
        let _span = sperr_telemetry::span!("speck.decode.reconstruct", self.pixels.len());
        let qt = T::from_f64(q);
        let narrow = num_planes <= 32;
        let sign = [T::ONE, -T::ONE];
        let (lo, width) = (slab.start, slab.len());
        let inside = |pixel: u32| (pixel as usize).wrapping_sub(lo) < width;
        let runs = self.runs();
        let mut run_at = 0usize;
        for (block, pixels) in self.pixels.chunks(64).enumerate() {
            let first = block * 64;
            if (MASKED || !whole)
                && !pixels.iter().any(|&p| inside(p) && (!MASKED || bit(keep, p as usize)))
            {
                // Step past the runs that end in this block, as the loop
                // below would have.
                while runs.get(run_at).is_some_and(|run| run.end <= first + pixels.len()) {
                    run_at += 1;
                }
                continue;
            }
            let mut rows = [0u64; 64];
            for s in self.segments.iter().filter(|s| s.present > first) {
                rows[s.plane as usize % 64] =
                    window(stream, s.start_bit + first) & low_mask(s.present - first);
            }
            let mut half = [T::ZERO; 64];
            let mut lane = 0usize;
            while let Some(run) = runs.get(run_at).filter(|_| lane < pixels.len()) {
                let stop = (run.end - first).min(pixels.len());
                rows[run.found as usize % 64] |= low_mask(stop - lane) << lane;
                half[lane..stop].fill(T::HALF * T::from_u64_lossy(1u64 << (run.unc % 64)));
                lane = stop;
                if run.end == first + stop {
                    run_at += 1;
                }
            }
            match rows.first_chunk_mut::<32>() {
                Some(low) if narrow => sperr_simd::transpose_32x64(low),
                _ => sperr_simd::transpose_64x64(&mut rows),
            }
            let signs = self.signs.get(block).copied().unwrap_or(0);
            let mut values = [T::ZERO; 64];
            for (lane, value) in values.iter_mut().enumerate().take(pixels.len()) {
                let val = if narrow {
                    (rows[lane % 32] >> (lane / 32 * 32)) & 0xffff_ffff
                } else {
                    rows[lane]
                };
                let mag = (T::from_u64_lossy(val) + half[lane]) * qt;
                *value = mag * sign[(signs >> lane & 1) as usize];
            }
            for (&pixel, &value) in pixels.iter().zip(&values) {
                if !inside(pixel) {
                    continue;
                }
                let at = geom.to_row_major(pixel).map(|at| (at as usize).wrapping_sub(lo));
                if let Some(slot) = at.and_then(|at| out.get_mut(at)) {
                    *slot = value;
                }
            }
        }
    }
}
