//! The SPECK encoder: quantization, sorting passes, the deferred
//! refinement pass, and mid-riser reconstruction. One word-granular body
//! serves every shape, in the two phases the decoder has too: [`quantize`]
//! ([`gather_on`]) and [`Quantized::encode`] ([`sort_on`]). What a shape
//! decides is only the [`Geometry`] it runs on (DESIGN.md §13). The pre-overhaul
//! bit-at-a-time encoder lives on in [`crate::reference`] as a
//! differential oracle; both must produce byte-identical streams (see
//! DESIGN.md §10 for the invariants that make this stream-neutral).

use crate::blocks::{Block, BLOCK_COEFFICIENTS, SPLIT_FLAG};
use crate::decoder::Shape;
use crate::layout::Geometry;
use crate::lsp_decode::low_mask;
use crate::morton::Dyadic;
use sperr_bitstream::BitWriter;
use sperr_exec::{Exec, Serial, Slots};
use sperr_simd::Float;
use std::any::Any;
use std::time::{Duration, Instant};

/// When the encoder stops producing bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Encode every bitplane down to the finest threshold `q` — used for
    /// SPERR's PWE-bounded mode (the outlier coder then fixes what is left).
    Quality,
    /// Stop once this many bits have been produced — SPERR's fixed-size
    /// mode. The resulting prefix is still decodable (embedded stream).
    BitBudget(usize),
}

/// SPECK's chunk-sized working memory, kept between encodes and decodes:
/// the cached significance bytes and magnitudes of the encoder's phase 1,
/// the pixels found and the insignificant-cell buckets of either coder's
/// sorting passes, and a buffer for the next stream. [`quantize`] takes
/// one, [`Quantized::encode_on`] gives it back in [`EncodedSpeck::scratch`];
/// [`crate::Blocks::decode_into`] borrows one. A split domain's code
/// blocks ([`crate::blocks`]) each run in a scratch of their own, kept in
/// this one by block, the joined stream is written into this one's stream
/// buffer, and a split decode's blocks assemble in a buffer per worker
/// kept here too. Buffers grow to the largest domain seen, so a caller
/// that threads one scratch through its calls allocates once. Nothing in it reaches a stream or a
/// coefficient: every byte a coder reads, it wrote first (the levels and
/// magnitudes are overwritten, not cleared). The default holds nothing.
#[derive(Clone, Default)]
pub struct Scratch {
    levels: Vec<u8>,
    mags: Vec<u32>,
    found: Vec<u32>,
    buckets: Vec<Bucket>,
    stream: Vec<u8>,
    /// The code blocks' own scratch, by block.
    blocks: Vec<Scratch>,
    /// Per worker of a split decode, the buffer a code block assembles
    /// into before its rows go to the domain.
    dense: Vec<Dense>,
}

/// A code block's assembly buffer, at either sample width.
#[derive(Clone, Default)]
pub(crate) struct Dense {
    wide: Vec<f64>,
    narrow: Vec<f32>,
}

impl Dense {
    /// The buffer of `T`'s width (`None` for a width it has none of).
    pub(crate) fn of<T: Float>(&mut self) -> Option<&mut Vec<T>> {
        let wide: &mut dyn Any = &mut self.wide;
        match wide.downcast_mut() {
            Some(wide) => Some(wide),
            None => (&mut self.narrow as &mut dyn Any).downcast_mut(),
        }
    }
}

impl Scratch {
    /// Bytes the buffers hold (their capacity), the blocks' included.
    pub fn bytes(&self) -> usize {
        let buckets = self.buckets.iter().map(|b| b.cells.capacity() * 4 + b.mb.capacity());
        let dense = self.dense.iter().map(|d| 8 * d.wide.capacity() + 4 * d.narrow.capacity());
        self.levels.capacity()
            + 4 * (self.mags.capacity() + self.found.capacity())
            + buckets.sum::<usize>()
            + self.stream.capacity()
            + self.blocks.iter().map(Scratch::bytes).sum::<usize>()
            + dense.sum::<usize>()
    }

    /// The scratch of each of `k` code blocks, as [`Slots`] for a batch
    /// whose job `b` runs block `b`.
    pub(crate) fn block_slots(&mut self, k: usize) -> Slots<Scratch> {
        self.blocks.resize_with(k.max(self.blocks.len()), Scratch::default);
        self.blocks.iter_mut().take(k).map(std::mem::take).collect()
    }

    /// The assembly buffers of `width` workers, as [`Slots`] by worker.
    pub(crate) fn dense(&mut self, width: usize) -> Slots<&mut Dense> {
        self.dense.resize_with(width.max(self.dense.len()), Dense::default);
        self.dense.iter_mut().collect()
    }

    /// The stream buffer, emptied, for a code block's bytes to be gathered
    /// into.
    pub(crate) fn take_stream(&mut self) -> Vec<u8> {
        let mut stream = std::mem::take(&mut self.stream);
        stream.clear();
        stream
    }

    /// Takes back the block scratches [`Scratch::block_slots`] lent.
    pub(crate) fn return_blocks(&mut self, slots: Slots<Scratch>) {
        for (kept, lent) in self.blocks.iter_mut().zip(slots.into_values()) {
            *kept = lent;
        }
    }

    /// The pixel list and the bucket cells of `levels` partition levels,
    /// emptied, for a decoder's sorting pass.
    pub(crate) fn lend_lists(&mut self, levels: usize) -> (Vec<u32>, Vec<Vec<u32>>) {
        let mut pixels = std::mem::take(&mut self.found);
        pixels.clear();
        let mut held = self.buckets.iter_mut().map(|b| std::mem::take(&mut b.cells));
        let buckets = (0..levels)
            .map(|_| {
                let mut cells = held.next().unwrap_or_default();
                cells.clear();
                cells
            })
            .collect();
        (pixels, buckets)
    }

    /// Takes back the pixel list [`Scratch::lend_lists`] lent.
    pub(crate) fn return_pixels(&mut self, pixels: Vec<u32>) {
        if pixels.capacity() > self.found.capacity() {
            self.found = pixels;
        }
    }

    /// Takes back the buckets [`Scratch::lend_lists`] lent. A bucket the
    /// decoder grew keeps its capacity: its trim ([`Bucket::peak`]) rises
    /// to it.
    pub(crate) fn return_buckets(&mut self, buckets: Vec<Vec<u32>>) {
        self.buckets.resize_with(self.buckets.len().max(buckets.len()), Bucket::default);
        for (b, cells) in self.buckets.iter_mut().zip(buckets) {
            b.peak = b.peak.max(cells.capacity());
            b.cells = cells;
        }
    }

    /// Hands back the memory of a stream an encode returned, for the next
    /// encode to write into (or a code block to be gathered into); the
    /// larger of it and the buffer held stays. A stream is reserved from
    /// its phase 1 and does not grow by doubling, so the buffer is kept as
    /// it is: trimming it would make the next encode of the same data
    /// reallocate.
    pub fn reuse_stream(&mut self, stream: Vec<u8>) {
        if stream.capacity() > self.stream.capacity() {
            self.stream = stream;
        }
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratch").field("bytes", &self.bytes()).finish()
    }
}

/// Result of [`encode`]. The default is what an all-dead-zone input
/// encodes to: no planes, an empty stream.
#[derive(Debug, Clone, Default)]
pub struct EncodedSpeck {
    /// Bit-packed SPECK stream (zero-padded to a whole byte).
    pub stream: Vec<u8>,
    /// Number of bitplanes spanned by the stream; the first plane coded is
    /// `num_planes - 1`. Required for decoding. Zero means "all
    /// coefficients were inside the dead zone".
    pub num_planes: u8,
    /// Exact number of bits produced (before byte padding). For a split
    /// stream: the block table's bits plus every block's own count (each
    /// block is padded to a whole byte).
    pub bits_used: usize,
    /// The stream's length in bits at the end of each coded plane, top
    /// plane first (a plane ends with its refinement pass): what a split
    /// stream's block table records of each block. Empty for a split
    /// stream itself.
    pub plane_ends: Vec<usize>,
    /// Bits spent on set-significance tests (§IV-B bit type 1).
    pub significance_bits: usize,
    /// Bits spent on coefficient signs (bit type 2).
    pub sign_bits: usize,
    /// Bits spent on refinement (bit type 3).
    pub refinement_bits: usize,
    /// Significant sets split into children during encoding. Zero on the
    /// reference path, which does not track structural statistics.
    pub sets_split: usize,
    /// Guaranteed-zero significance runs emitted as bulk writes (the
    /// word-granular fast path; zero on the reference path).
    pub zero_runs: usize,
    /// The working memory the encode ran in, for the next one
    /// ([`quantize`]); empty from [`encode`] and the reference path.
    pub scratch: Scratch,
}

/// Quantizes every coefficient: magnitudes and sign flags. Shared by the
/// production encoder and [`crate::reference`] so the two paths cannot
/// drift in their dead-zone handling; the per-element semantics live in
/// [`sperr_simd::quantize_magnitude`].
pub(crate) fn quantize_all<T: Float>(coeffs: &[T], q: f64) -> (Vec<u64>, Vec<bool>) {
    let inv_q = T::ONE / T::from_f64(q);
    let mut k = Vec::with_capacity(coeffs.len());
    let mut negative = Vec::with_capacity(coeffs.len());
    for &c in coeffs {
        k.push(sperr_simd::quantize_magnitude(c, inv_q));
        negative.push(c < T::ZERO);
    }
    (k, negative)
}

/// The reconstruction the decoder produces from a *complete* (quality-mode)
/// stream, computed directly from the input. The SPERR pipeline uses this
/// to locate outliers without a decode pass; equality with [`decode`] is
/// enforced by tests.
///
/// [`decode`]: crate::decode
pub fn reconstruct_quantized<T: Float>(coeffs: &[T], q: f64) -> Vec<T> {
    let mut out = vec![T::ZERO; coeffs.len()];
    reconstruct_quantized_into(coeffs, q, &mut out);
    out
}

/// Allocation-free variant of [`reconstruct_quantized`]: writes into a
/// caller-provided slice of the same length (hot-path buffer reuse).
pub fn reconstruct_quantized_into<T: Float>(coeffs: &[T], q: f64, out: &mut [T]) {
    assert_eq!(coeffs.len(), out.len());
    let centre = mid_riser(q);
    for (o, &c) in out.iter_mut().zip(coeffs) {
        *o = centre(c);
    }
}

/// What [`reconstruct_quantized`] makes of one coefficient at step `q`:
/// its mid-riser reconstruction ([`sperr_simd::reconstruct_mid_riser`]),
/// for callers that reconstruct in place or fold over the result.
pub fn mid_riser<T: Float>(q: f64) -> impl Fn(T) -> T + Sync {
    assert!(q > 0.0 && q.is_finite(), "quantization step must be positive");
    let qt = T::from_f64(q);
    let inv_q = T::ONE / qt;
    move |c| sperr_simd::reconstruct_mid_riser(c, qt, inv_q)
}

/// Signals that the bit budget has been exhausted (encoder) or the stream
/// ran out (decoder); unwinds the pass cleanly.
pub(crate) struct Stop;

// --------------------------------------------------------------- bit sink

/// The encoder's output side: a [`BitWriter`] plus the pending bit batch,
/// the budget discipline, and the per-type bit statistics.
///
/// `CHECKED` selects the budget discipline at monomorphization time:
/// `true` for [`Termination::BitBudget`] (every write is cut at the
/// budget, at batch granularity), `false` for [`Termination::Quality`]
/// (no budget exists and the comparison compiles out).
///
/// Significance and sign bits are not written one at a time: they
/// accumulate in a 64-bit pending word (`pend`) and reach the writer in
/// batches. The batch is flushed before any bulk write (zero runs,
/// refinement spans) so bits always land in stream order, and a write
/// that would overrun the budget is truncated to exactly the remaining
/// room, landing on the same bit the per-bit reference path stops at.
/// `pend_signs` marks which pending positions are sign bits so the
/// statistics split stays exact even across truncation.
struct BitSink<const CHECKED: bool> {
    out: BitWriter,
    budget: usize,
    /// Pending bit batch: LSB-first bits not yet handed to the writer.
    pend: u64,
    pend_signs: u64,
    pend_len: u32,
    significance_bits: usize,
    sign_bits: usize,
    refinement_bits: usize,
    zero_runs: usize,
}

impl<const CHECKED: bool> BitSink<CHECKED> {
    fn new(budget: usize, capacity_bits: usize, memory: Vec<u8>) -> Self {
        BitSink {
            out: BitWriter::reusing(memory, capacity_bits),
            budget,
            pend: 0,
            pend_signs: 0,
            pend_len: 0,
            significance_bits: 0,
            sign_bits: 0,
            refinement_bits: 0,
            zero_runs: 0,
        }
    }

    /// How many of the next `want` bits the budget has room for.
    #[inline]
    fn room_for(&self, want: usize) -> usize {
        if CHECKED {
            want.min(self.budget - self.out.len_bits())
        } else {
            want
        }
    }

    /// Appends one bit to the pending batch, flushing first if full.
    #[inline]
    fn emit(&mut self, bit: bool, is_sign: bool) -> Result<(), Stop> {
        if self.pend_len == 64 {
            self.flush()?;
        }
        self.pend |= (bit as u64) << self.pend_len;
        self.pend_signs |= (is_sign as u64) << self.pend_len;
        self.pend_len += 1;
        Ok(())
    }

    /// Writes the pending batch to the stream in one `put_bits` call.
    fn flush(&mut self) -> Result<(), Stop> {
        let nbits = self.pend_len as usize;
        let take = self.room_for(nbits);
        self.out.put_bits(self.pend, take as u32);
        let signs = (self.pend_signs & low_mask(take)).count_ones() as usize;
        self.sign_bits += signs;
        self.significance_bits += take - signs;
        (self.pend, self.pend_signs, self.pend_len) = (0, 0, 0);
        if take < nbits {
            return Err(Stop);
        }
        Ok(())
    }

    /// Emits `run > 0` guaranteed-zero significance bits in one bulk
    /// write, after flushing any pending batch. `fresh` is false when the
    /// run continues one that a pixel window already counted.
    #[inline]
    fn emit_zero_run(&mut self, run: usize, fresh: bool) -> Result<(), Stop> {
        self.flush()?;
        self.zero_runs += fresh as usize;
        let take = self.room_for(run);
        self.out.put_zeros(take);
        self.significance_bits += take;
        if take < run {
            return Err(Stop);
        }
        Ok(())
    }

    /// Writes one pixel window: `nbits` bits of `pattern`, `signs` of
    /// them sign bits, `entries` significance bits. The caller has checked
    /// that the budget has room for them; the batch is empty, since the
    /// pixel bucket is the first a pass scans and the pass before ended
    /// with a flush.
    #[inline]
    fn put_window(&mut self, pattern: u64, nbits: u32, entries: usize, signs: usize) {
        debug_assert_eq!(self.pend_len, 0);
        debug_assert!(self.room_for(nbits as usize) == nbits as usize);
        self.out.put_bits(pattern, nbits);
        self.significance_bits += entries;
        self.sign_bits += signs;
    }

    /// Reserves up to `want` zero bits for a refinement span that is
    /// filled in after the last plane ([`fill_refinement`]) and returns
    /// how many fit.
    fn reserve_refinement(&mut self, want: usize) -> usize {
        debug_assert_eq!(self.pend_len, 0, "sorting pass leaves the batch empty");
        let present = self.room_for(want);
        self.out.put_zeros(present);
        self.refinement_bits += present;
        present
    }
}

// ------------------------------------------------------------ the encoder

/// The cached significance byte of every cell (`max` over its pixels of
/// `meta = planes << 1 | sign`), all partition levels in one allocation,
/// deepest first: level `k` — the pixels' own `meta` in layout order — at
/// offset 0. `x >> 1` is monotone, so a cell is insignificant at plane
/// `n` exactly when its byte is `<= 2n + 1`: the one-sided compare
/// [`sperr_simd::run_le`] scans for, with no shift. A pixel's byte keeps
/// its sign bit, so discovery reads nothing else.
struct Levels {
    bytes: Vec<u8>,
    /// Where each level sits in `bytes`, indexed by level.
    at: Vec<std::ops::Range<usize>>,
}

impl Levels {
    /// The levels of `geom` in the memory of `bytes`. What it held stays
    /// until the gather and [`Levels::coarsen`] overwrite it: between them
    /// they write every byte.
    fn new(geom: &impl Geometry, mut bytes: Vec<u8>) -> Self {
        let mut at = vec![0..0; geom.depth() + 1];
        let mut end = 0usize;
        for (level, span) in at.iter_mut().enumerate().rev() {
            *span = end..end + geom.cells(level);
            end = span.end;
        }
        bytes.resize(end, 0);
        Levels { bytes, at }
    }

    #[inline]
    fn level(&self, level: usize) -> &[u8] {
        &self.bytes[self.at[level].clone()]
    }

    /// Fills every level above the pixels bottom-up: a contiguous
    /// segment max per cell. A level of more than [`PIECE`] cells is
    /// split into ranges of that many, one job each on `exec`; a smaller
    /// one takes no batch and no allocation.
    fn coarsen(&mut self, geom: &(impl Geometry + Sync), exec: &dyn Exec) {
        for level in (0..geom.depth()).rev() {
            let (finer, coarser) = self.bytes.split_at_mut(self.at[level].start);
            let fine = &finer[self.at[level + 1].clone()];
            let coarse = &mut coarser[..self.at[level].len()];
            if coarse.len() <= PIECE {
                geom.coarsen(level, 0..coarse.len(), fine, coarse);
                continue;
            }
            let pieces: Slots<&mut [u8]> = coarse.chunks_mut(PIECE).collect();
            exec.run(pieces.len(), &|p, _| {
                let mut piece = pieces.lock(p);
                let first = p * PIECE;
                geom.coarsen(level, first..first + piece.len(), fine, &mut piece);
            });
        }
    }
}

/// Cells of one phase-1 job: a range of whole 64-pixel gather blocks, or
/// of one level's cells in [`Levels::coarsen`].
const PIECE: usize = 64 * 64;

/// Quantizes the coefficients into layout order, fused with the gather:
/// the coefficient of row-major index `i` of the geometry's domain is
/// `coeffs[at(i)]`, and position `pos` of level `k` receives `meta = planes_of(k) << 1 | sign`
/// (`planes_of(k) <= 63` since magnitudes saturate at `2^62`) and, when
/// `mags` is not empty, the low 32 bits of the magnitude `k` itself.
/// Sequential writes, gathered reads, 64 pixels at a time; each
/// [`PIECE`] of positions is one job on `exec`, and writes only its own
/// range of `meta` and `mags`. Shares [`sperr_simd::quantize_magnitude`]
/// with [`quantize_all`] so the production and reference paths cannot
/// drift in their dead-zone handling.
fn gather_quantized<T: Float>(
    geom: &(impl Geometry + Sync),
    coeffs: &[T],
    inv_q: T,
    meta: &mut [u8],
    mags: &mut [u32],
    exec: &dyn Exec,
    at: &(impl Fn(u32) -> usize + Sync),
) {
    let _span = sperr_telemetry::span!("speck.encode.gather", meta.len());
    let mut mags = mags.chunks_mut(PIECE);
    let pieces: Slots<(&mut [u8], &mut [u32])> =
        meta.chunks_mut(PIECE).map(|meta| (meta, mags.next().unwrap_or_default())).collect();
    exec.run(pieces.len(), &|p, _| {
        let (meta, mags) = &mut *pieces.lock(p);
        let mut rows = [0u32; 64];
        let mut mags = mags.chunks_mut(64);
        for (block, meta) in (p * PIECE / 64..).zip(meta.chunks_mut(64)) {
            let rows = &mut rows[..meta.len()];
            geom.row_major_run(block as u32 * 64, rows);
            let mags = mags.next().unwrap_or_default();
            for (lane, (m, &i)) in meta.iter_mut().zip(rows.iter()).enumerate() {
                let c = coeffs[at(i)];
                let k = sperr_simd::quantize_magnitude(c, inv_q);
                *m = ((64 - k.leading_zeros()) as u8) << 1 | (c < T::ZERO) as u8;
                if let Some(mag) = mags.get_mut(lane) {
                    *mag = k as u32;
                }
            }
        }
    });
}

/// Pixel-bucket entries one window codes: at most two bits each, so a
/// window's bits fit one `put_bits`.
const PIXEL_WINDOW: usize = 32;

/// Bit `i` of the first mask: byte `i` is above `t < 128` (its cell is
/// significant); of the second: byte `i` has its sign bit set. Eight bytes
/// a step: adding `127 - t` carries a byte above `t` into its top bit, and
/// one multiply gathers the eight top (or bottom) bits into one byte.
#[inline]
fn window_masks(bytes: &[u8; PIXEL_WINDOW], t: u8) -> (u32, u32) {
    const LO: u64 = 0x0101_0101_0101_0101;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let bias = LO * (127 - t) as u64;
    let (mut sig, mut neg) = (0u32, 0u32);
    for (k, chunk) in bytes.as_chunks::<8>().0.iter().enumerate() {
        let w = u64::from_le_bytes(*chunk);
        sig |= ((((w + bias) >> 7 & LO).wrapping_mul(GATHER) >> 56) as u32) << (8 * k);
        neg |= (((w & LO).wrapping_mul(GATHER) >> 56) as u32) << (8 * k);
    }
    (sig, neg)
}

/// Appends `hits` to the pixels found, growing the list to the powers of
/// two that one `push` at a time reaches: an `extend` would size it from
/// the first window's count instead, and the encoder's peak allocation
/// would depend on that count.
#[inline]
fn extend_found(found: &mut Vec<u32>, hits: &[u32]) {
    let want = found.len() + hits.len();
    if want > found.capacity() {
        found.reserve_exact(want.next_power_of_two().max(4) - found.len());
    }
    found.extend_from_slice(hits);
}

/// One LIS bucket: the insignificant cells of one partition level, as
/// parallel arrays of cell number and cached byte. The sorting pass reads
/// only `mb` until a cell turns significant, so the insignificance scan
/// runs over a dense byte array — one cache line answers 64 cells.
#[derive(Clone, Default)]
struct Bucket {
    cells: Vec<u32>,
    mb: Vec<u8>,
    /// The most cells the bucket has held, over every encode of the
    /// scratch it lives in: what its capacity is trimmed to.
    peak: usize,
}

/// One plane's refinement pass as it sits in the stream: bit
/// `start_bit + i` is bit `plane` of the `i`-th pixel found, `i < present`.
struct RefinementSpan {
    plane: u32,
    start_bit: usize,
    present: usize,
}

/// The sorting passes of one encode, on any geometry.
struct Sorter<'a, G: Geometry, const CHECKED: bool> {
    geom: &'a G,
    levels: &'a Levels,
    /// Insignificant cells by partition level; the deepest level (the
    /// smallest sets) is processed first.
    buckets: Vec<Bucket>,
    /// Significant pixels in discovery order, as positions of level `k`.
    found: Vec<u32>,
    sink: BitSink<CHECKED>,
    sets_split: usize,
}

impl<G: Geometry, const CHECKED: bool> Sorter<'_, G, CHECKED> {
    /// One sorting pass at plane `n`, smallest sets first (paper,
    /// Listing 2: "in increasing order of their sizes").
    ///
    /// Each bucket is compacted in place: a maximal run of insignificant
    /// cells is located by one SWAR scan ([`sperr_simd::run_le`]; bytes
    /// and threshold are < 128, so the movemask trick applies), retained
    /// with two `copy_within`s and emitted as one zero run; only
    /// significant cells take the slow path. Cells created by splits
    /// land in *deeper* buckets, which this pass already finished, so
    /// in-place mutation never aliases the iteration.
    ///
    /// The pixel bucket (level `k`, scanned first) goes a window at a time
    /// ([`Sorter::pixel_windows`]); this loop finishes it — its last
    /// partial window, or all the budget leaves — and runs every other
    /// bucket.
    fn sorting_pass(&mut self, n: u32) -> Result<(), Stop> {
        debug_assert!(n < 63);
        let t = (2 * n + 1) as u8;
        for level in (0..self.buckets.len()).rev() {
            // Cells join a bucket only after its scan, so it is fullest
            // when the next one begins.
            let len = self.buckets[level].cells.len();
            self.buckets[level].peak = self.buckets[level].peak.max(len);
            let (mut read, mut write, mut in_run) =
                if level == self.geom.depth() { self.pixel_windows(t)? } else { (0, 0, false) };
            while read < len {
                let run = sperr_simd::run_le(&self.buckets[level].mb[read..len], t);
                if run > 0 {
                    if write != read {
                        let b = &mut self.buckets[level];
                        b.cells.copy_within(read..read + run, write);
                        b.mb.copy_within(read..read + run, write);
                    }
                    write += run;
                    read += run;
                    self.sink.emit_zero_run(run, !in_run)?;
                }
                in_run = false;
                if read < len {
                    let (cell, byte) =
                        (self.buckets[level].cells[read], self.buckets[level].mb[read]);
                    read += 1;
                    self.sink.emit(true, false)?;
                    self.significant(level, cell, byte, t)?;
                }
            }
            let b = &mut self.buckets[level];
            b.cells.truncate(write);
            b.mb.truncate(write);
        }
        self.sink.flush()
    }

    /// The pixel bucket, [`PIXEL_WINDOW`] entries at a time, with no
    /// branch on the data inside a window: significance and sign masks
    /// from the window's bytes ([`window_masks`]); its bits — per entry
    /// the significance bit, then the sign bit if significant — built by
    /// index arithmetic and written with one `put_bits`; the retained
    /// cells compacted in place and the found pixels appended the same
    /// way. A window with no significant entry is the head of an
    /// insignificant run, which goes out through `run_le` and one bulk
    /// zero write. `zero_runs` counts maximal insignificant runs: those
    /// that start in the window's mask, the one in progress carried
    /// across windows. A budget with room for fewer than 64 more bits (a
    /// window writes at most 64) hands the rest of the bucket to the
    /// per-entry loop, so a cut lands on the bit, and with the counters,
    /// it always did. Returns where that loop takes over: entries read,
    /// entries kept, and whether the last entry read was insignificant.
    fn pixel_windows(&mut self, t: u8) -> Result<(usize, usize, bool), Stop> {
        let Self { geom, buckets, found, sink, .. } = self;
        let Bucket { cells, mb, .. } = &mut buckets[geom.depth()];
        let len = cells.len();
        let (mut read, mut write, mut in_run) = (0usize, 0usize, false);
        while sink.room_for(64) == 64 {
            let (Some(&bytes), Some(&window)) = (
                mb.get(read..).and_then(|rest| rest.first_chunk::<PIXEL_WINDOW>()),
                cells.get(read..).and_then(|rest| rest.first_chunk::<PIXEL_WINDOW>()),
            ) else {
                break;
            };
            let (sig, neg) = window_masks(&bytes, t);
            if sig == 0 {
                let run = sperr_simd::run_le(&mb[read..len], t);
                cells.copy_within(read..read + run, write);
                mb.copy_within(read..read + run, write);
                (read, write) = (read + run, write + run);
                sink.emit_zero_run(run, !in_run)?;
                in_run = true;
                continue;
            }
            let (mut kept_cells, mut kept_bytes) = ([0u32; PIXEL_WINDOW], [0u8; PIXEL_WINDOW]);
            let mut hits = [0u32; PIXEL_WINDOW];
            let (mut pattern, mut nbits, mut kept, mut hit) = (0u64, 0u32, 0usize, 0usize);
            for (i, (&cell, &byte)) in window.iter().zip(&bytes).enumerate() {
                let s = (sig >> i & 1) as usize;
                pattern |= ((s as u64) | ((neg >> i & 1) as u64 & s as u64) << 1) << nbits;
                nbits += 1 + s as u32;
                (kept_cells[kept], kept_bytes[kept]) = (cell, byte);
                kept += 1 - s;
                hits[hit] = cell;
                hit += s;
            }
            sink.put_window(pattern, nbits, PIXEL_WINDOW, hit);
            let insig = !sig;
            sink.zero_runs += (insig & !(insig << 1 | in_run as u32)).count_ones() as usize;
            in_run = insig >> (PIXEL_WINDOW - 1) == 1;
            // The whole window goes back: what lands past the kept entries
            // covers entries already read.
            cells[write..write + PIXEL_WINDOW].copy_from_slice(&kept_cells);
            mb[write..write + PIXEL_WINDOW].copy_from_slice(&kept_bytes);
            extend_found(found, &hits[..hit]);
            (read, write) = (read + PIXEL_WINDOW, write + kept);
        }
        Ok((read, write, in_run))
    }

    /// A cell whose significance bit (a 1) was just emitted: a pixel
    /// emits its sign and is found; any other cell splits, and each
    /// child — their cached bytes are consecutive, one load — is tested
    /// and processed immediately (per the paper). Bits accumulate in the
    /// sink's pending batch, so a whole split subtree typically reaches
    /// the writer as a handful of word writes.
    fn significant(&mut self, level: usize, cell: u32, byte: u8, t: u8) -> Result<(), Stop> {
        let (lo, count) = match self.geom.children(level, cell) {
            Some((lo, count)) if count > 1 => (lo, (count as usize).min(8)),
            // Level `k`, or a pixel found one level early (its only
            // child is itself).
            one => {
                self.sink.emit(byte & 1 == 1, true)?;
                self.found.push(one.map_or(cell, |(lo, _)| lo));
                return Ok(());
            }
        };
        self.sets_split += 1;
        let mut block = [0u8; 8];
        block[..count].copy_from_slice(&self.levels.level(level + 1)[lo as usize..][..count]);
        // Children on the deepest level are pixels: no call to learn that.
        let leaves = level + 1 == self.geom.depth();
        for (child, &m) in (lo..).zip(&block[..count]) {
            let sig = m > t;
            self.sink.emit(sig, false)?;
            if !sig {
                let b = &mut self.buckets[level + 1];
                b.cells.push(child);
                b.mb.push(m);
            } else if leaves {
                self.sink.emit(m & 1 == 1, true)?;
                self.found.push(child);
            } else {
                self.significant(level + 1, child, m, t)?;
            }
        }
        Ok(())
    }
}

/// ORs the low bits of `word` into `stream` from bit `pos` on (LSB first,
/// as [`BitWriter`] packs them); bits that would land past the end of the
/// stream are dropped.
#[inline]
fn or_bits(stream: &mut [u8], pos: usize, word: u64) {
    let wide = ((word as u128) << (pos % 8)).to_le_bytes();
    for (byte, add) in stream.iter_mut().skip(pos / 8).zip(&wide[..9]) {
        *byte |= add;
    }
}

/// The deferred refinement pass. A sorting pass never looks at a
/// magnitude, so the plane loop only *reserves* each plane's refinement
/// bits; here, after the last plane, the pixels found are taken 64 at a
/// time, their magnitudes bit-transposed (row `p` of the result is plane
/// `p`'s word for these 64), and each word ORed into its span — one pass
/// over the magnitudes instead of one per plane. Only pixels some span
/// reaches are looked at, so a budget-cut encode never pays for a
/// magnitude it does not emit.
fn fill_refinement(
    stream: &mut [u8],
    spans: &[RefinementSpan],
    found: &[u32],
    narrow: bool,
    magnitude: impl Fn(u32) -> u64,
) {
    let refined = spans.iter().map(|s| s.present).max().unwrap_or(0);
    let _span = sperr_telemetry::span!("speck.encode.refinement", refined);
    for (block, pixels) in found[..refined].chunks(64).enumerate() {
        let first = block * 64;
        let mut rows = [0u64; 64];
        match rows.first_chunk_mut::<32>() {
            // Two 32-bit magnitudes a row, lanes `r` and `r + 32`.
            Some(low) if narrow => {
                for (lane, &pixel) in pixels.iter().enumerate() {
                    low[lane % 32] |= magnitude(pixel) << (lane / 32 * 32);
                }
                sperr_simd::transpose_32x64(low);
            }
            _ => {
                for (row, &pixel) in rows.iter_mut().zip(pixels) {
                    *row = magnitude(pixel);
                }
                sperr_simd::transpose_64x64(&mut rows);
            }
        }
        for s in spans.iter().filter(|s| s.present > first) {
            let word = rows[s.plane as usize] & low_mask(s.present - first);
            or_bits(stream, s.start_bit + first, word);
        }
    }
}

/// The encoder's first phase on `geom`: quantize into layout order —
/// with the magnitudes too when phase 2 will want all of them and 32 bits
/// hold them — and cache every cell's significance byte, both in
/// contiguous ranges on `exec`, in the memory of `levels` and `mags`. The
/// coefficients lie in `coeffs` where `window` says (all of them in order
/// when it is `None`). Returns the levels, the magnitudes (empty when
/// phase 2 re-quantizes from the coefficients), the plane count and the
/// stream bits to reserve: the sign and refinement bits a full encode
/// writes (every coefficient's plane count), half again for the
/// significance tests.
fn gather_on<T: Float, G: Geometry + Sync, const D: usize>(
    geom: &G,
    coeffs: &[T],
    window: Option<&Window<D>>,
    inv_q: T,
    term: Termination,
    exec: &dyn Exec,
    (levels, mut mags): (Vec<u8>, Vec<u32>),
) -> (Levels, Vec<u32>, u8, usize) {
    let k = geom.depth();
    let mut levels = Levels::new(geom, levels);
    // Quality mode finds every coefficient outside the dead zone, so all
    // their magnitudes are needed and are quantized once, with `meta`. A
    // budget may stop long before that: those magnitudes are quantized
    // for the refined pixels only, at the end. The gather writes every
    // magnitude, so old ones are not cleared first.
    let len = geom.cells(k);
    let quality = term == Termination::Quality;
    mags.resize(if quality { len } else { 0 }, 0);
    let meta = &mut levels.bytes[..len];
    match window {
        None => gather_quantized(geom, coeffs, inv_q, meta, &mut mags, exec, &|i| i as usize),
        Some(w) => gather_quantized(geom, coeffs, inv_q, meta, &mut mags, exec, &|i| w.at(i)),
    }
    {
        let _span = sperr_telemetry::span!("speck.encode.levels", k);
        levels.coarsen(geom, exec);
    }
    sperr_telemetry::counter!("speck.layout.cells", len);
    sperr_telemetry::counter!("speck.layout.levels", k + 1);
    let num_planes = levels.level(0)[0] >> 1; // the largest magnitude's plane count
    if num_planes > 32 {
        mags.clear(); // 32 bits were not enough
    }
    let coded = levels.level(k).iter().map(|&m| usize::from(m >> 1)).sum::<usize>();
    (levels, mags, num_planes, coded + coded / 2 + 64)
}

/// The encoder's second phase on `geom`: the sorting passes, each plane's
/// refinement span reserved, then the spans filled — from what phase 1
/// left, plus the coefficients when it left no magnitudes. The found list,
/// the buckets and the stream live in the memory of `scratch`, and the
/// encode hands them back in its own.
fn sort_on<T: Float, G: Geometry, const CHECKED: bool, const D: usize>(
    geom: &G,
    phase1: &Phase1<'_, T, D>,
    budget: usize,
    scratch: Scratch,
) -> EncodedSpeck {
    let Phase1 { levels, mags, coeffs, window, inv_q, num_planes, .. } = phase1;
    let (num_planes, inv_q) = (*num_planes, *inv_q);
    let k = geom.depth();
    let Scratch { mut found, mut buckets, stream, .. } = scratch;
    found.clear();
    // A deeper domain's buckets wait beside the sorter, memory kept.
    buckets.resize_with(buckets.len().max(k + 1), Bucket::default);
    let deeper = buckets.split_off(k + 1);
    for b in &mut buckets {
        b.cells.clear();
        b.mb.clear();
    }
    let mut sorter = Sorter::<'_, G, CHECKED> {
        geom,
        levels,
        buckets,
        found,
        sink: BitSink::new(budget, phase1.bits.min(budget), stream),
        sets_split: 0,
    };
    sorter.buckets[0].cells.push(0);
    sorter.buckets[0].mb.push(levels.level(0)[0]);
    let mut spans = Vec::with_capacity(num_planes as usize);
    let mut plane_ends = Vec::with_capacity(num_planes as usize);
    for n in (0..num_planes as u32).rev() {
        let _plane = sperr_telemetry::span!("speck.encode.plane", n);
        // Pixels found on this plane join the refinement from the next
        // one on (their bit `n` is implied by the significance test).
        let older = sorter.found.len();
        if sorter.sorting_pass(n).is_err() {
            break;
        }
        let start_bit = sorter.sink.out.len_bits();
        let present = sorter.sink.reserve_refinement(older);
        spans.push(RefinementSpan { plane: n, start_bit, present });
        plane_ends.push(sorter.sink.out.len_bits());
        if present < older {
            break;
        }
    }
    let Sorter { found, mut buckets, sink, sets_split, .. } = sorter;
    // Doubling leaves up to twice a bucket's peak reserved; the scratch
    // keeps only what some encode has used.
    for b in &mut buckets {
        b.peak = b.peak.max(b.cells.len());
        b.cells.shrink_to(b.peak);
        b.mb.shrink_to(b.peak);
    }
    let mut enc = EncodedSpeck {
        num_planes,
        bits_used: sink.out.len_bits(),
        significance_bits: sink.significance_bits,
        sign_bits: sink.sign_bits,
        refinement_bits: sink.refinement_bits,
        sets_split,
        zero_runs: sink.zero_runs,
        stream: sink.out.into_bytes(),
        plane_ends,
        scratch: Scratch::default(),
    };
    let narrow = num_planes <= 32;
    if mags.is_empty() {
        fill_refinement(&mut enc.stream, &spans, &found, narrow, |pixel| {
            let at = |i: u32| window.as_ref().map_or(i as usize, |w| w.at(i));
            let c = geom.to_row_major(pixel).map_or(T::ZERO, |i| coeffs[at(i)]);
            sperr_simd::quantize_magnitude(c, inv_q)
        });
    } else {
        fill_refinement(&mut enc.stream, &spans, &found, narrow, |pixel| {
            mags[pixel as usize] as u64
        });
    }
    buckets.extend(deeper);
    enc.scratch = Scratch { found, buckets, ..Scratch::default() };
    enc
}

/// Where a code block's coefficients lie in its domain's row-major array
/// ([`Window::at`]). Block indices stay below `2^16`
/// ([`crate::blocks::BLOCK_COEFFICIENTS`]), so each division by an extent
/// is a multiply by `⌊2^32 / extent⌋ + 1` and a shift, exact for every
/// quotient below `2^32 / extent`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window<const D: usize> {
    /// Domain index of the block's first coefficient.
    start: usize,
    /// Per axis: the block's extent, its reciprocal and the domain's
    /// stride.
    axes: [(u64, u64, usize); D],
}

impl<const D: usize> Window<D> {
    fn new(block: &Block<D>, domain: [usize; D]) -> Self {
        assert!(block.len() <= BLOCK_COEFFICIENTS, "{block:?} is larger than a code block");
        let mut stride = 1usize;
        let (mut start, mut axes) = (0, [(0, 0, 0); D]);
        for d in 0..D {
            let extent = block.dims[d].max(1) as u64;
            axes[d] = (extent, (1u64 << 32) / extent + 1, stride);
            start += block.origin[d] * stride;
            stride *= domain[d];
        }
        Window { start, axes }
    }

    /// The domain index of the block's row-major index `r`.
    #[inline]
    fn at(&self, r: u32) -> usize {
        let (mut rest, mut at) = (u64::from(r), self.start);
        for (d, &(extent, reciprocal, stride)) in self.axes.iter().enumerate() {
            let quotient = if d + 1 == D { 0 } else { (rest * reciprocal) >> 32 };
            at += (rest - quotient * extent) as usize * stride;
            rest = quotient;
        }
        at
    }
}

/// One block's encode after its first phase: every coefficient quantized
/// into the partition's layout order and every cell's significance byte
/// cached. [`Phase1::encode`] is the second phase — the sorting passes
/// and the refinement — and reads only what this holds, plus the
/// coefficients when it holds no magnitudes: under a bit budget, or when
/// a magnitude needs more than 32 bits.
pub(crate) struct Phase1<'a, T: Float, const D: usize> {
    /// `None` for an empty domain.
    shape: Option<Shape<D>>,
    levels: Levels,
    /// The low 32 bits of every magnitude, in layout order, when they are
    /// all phase 2 needs; else empty.
    mags: Vec<u32>,
    /// The coefficients while phase 2 re-quantizes from them (`mags` is
    /// empty and there are planes to code); an empty slice otherwise.
    coeffs: &'a [T],
    /// Where in `coeffs` a code block of a larger domain lies (`None`: the
    /// whole of them, in order).
    window: Option<Window<D>>,
    inv_q: T,
    num_planes: u8,
    /// Stream bits to reserve ([`gather_on`]).
    bits: usize,
    term: Termination,
    /// Phase 2's share of the working memory (its levels and magnitudes
    /// are in use above).
    scratch: Scratch,
}

impl<'a, T: Float, const D: usize> Phase1<'a, T, D> {
    /// Phase 1 of the coefficients on `shape` (`None`: none) that
    /// `coeffs` holds where `window` says (parameters already checked),
    /// its pieces run on `exec` in the memory of `scratch`.
    pub(crate) fn new(
        shape: Option<Shape<D>>,
        coeffs: &'a [T],
        window: Option<Window<D>>,
        q: f64,
        term: Termination,
        exec: &dyn Exec,
        mut scratch: Scratch,
    ) -> Self {
        let inv_q = T::ONE / T::from_f64(q);
        let memory = (std::mem::take(&mut scratch.levels), std::mem::take(&mut scratch.mags));
        let w = window.as_ref();
        let (levels, mags, num_planes, bits) = match &shape {
            None => (Levels { bytes: memory.0, at: Vec::new() }, memory.1, 0, 0),
            Some(Shape::Dyadic(geom)) => gather_on(geom, coeffs, w, inv_q, term, exec, memory),
            Some(Shape::Table(tables)) => {
                gather_on(&**tables, coeffs, w, inv_q, term, exec, memory)
            }
        };
        let coeffs = if mags.is_empty() && num_planes > 0 { coeffs } else { &[] };
        Phase1 { shape, levels, mags, coeffs, window, inv_q, num_planes, bits, term, scratch }
    }

    /// This phase 1 without its borrow of the coefficients, or `Err(self)`
    /// when phase 2 still reads them.
    #[allow(clippy::result_large_err)] // the error is `self`, moved back once
    fn release(self) -> Result<Phase1<'static, T, D>, Self> {
        if !self.coeffs.is_empty() {
            return Err(self);
        }
        let Phase1 { shape, levels, mags, window, inv_q, num_planes, bits, term, scratch, .. } =
            self;
        let coeffs = &[];
        Ok(Phase1 { shape, levels, mags, coeffs, window, inv_q, num_planes, bits, term, scratch })
    }

    /// The encoder's second phase: the sorting passes, with each plane's
    /// refinement span reserved, then the spans filled. The result carries
    /// the whole working memory back in [`EncodedSpeck::scratch`].
    fn encode(mut self) -> EncodedSpeck {
        let scratch = std::mem::take(&mut self.scratch);
        let mut enc = match (self.shape.as_ref().filter(|_| self.num_planes > 0), self.term) {
            (None, _) => EncodedSpeck { scratch, ..EncodedSpeck::default() },
            (Some(Shape::Dyadic(geom)), Termination::Quality) => {
                sort_on::<T, _, false, D>(geom, &self, usize::MAX, scratch)
            }
            (Some(Shape::Dyadic(geom)), Termination::BitBudget(b)) => {
                sort_on::<T, _, true, D>(geom, &self, b, scratch)
            }
            (Some(Shape::Table(tables)), Termination::Quality) => {
                sort_on::<T, _, false, D>(&**tables, &self, usize::MAX, scratch)
            }
            (Some(Shape::Table(tables)), Termination::BitBudget(b)) => {
                sort_on::<T, _, true, D>(&**tables, &self, b, scratch)
            }
        };
        enc.scratch.levels = self.levels.bytes;
        enc.scratch.mags = self.mags;
        enc
    }
}

/// An encode after its first phase ([`quantize`]): each code block's
/// coefficients quantized into its partition's layout order and every
/// cell's significance byte cached — one block, or the blocks of a split
/// domain ([`crate::blocks`]). The second phase ([`Quantized::encode_on`])
/// runs the blocks as one batch and puts their streams together in split
/// order, so the bytes do not depend on how the blocks were run. Each
/// block's phase 2 reads only what its phase 1 holds, plus the coefficients when it holds no
/// magnitudes: under a bit budget, or when a magnitude needs more than 32
/// bits. Otherwise [`Quantized::release`] gives the borrow of the
/// coefficients back, so the caller may overwrite them while phase 2 runs.
pub struct Quantized<'a, T: Float, const D: usize> {
    /// The split depth (0: one block).
    depth: u8,
    /// Each block's phase 1, taken by its phase 2.
    blocks: Slots<Option<Phase1<'a, T, D>>>,
    /// The working memory phase 1 left unused: on a split domain, all of
    /// its own buffers (its stream buffer takes the joined stream).
    scratch: Scratch,
}

/// The geometry of a `dims` domain: the Morton one on a same-power-of-two
/// cube, the tables on every other shape, none on an empty domain.
fn shape_of<const D: usize>(dims: [usize; D]) -> Option<Shape<D>> {
    if dims.iter().product::<usize>() == 0 {
        None
    } else if crate::morton::applicable(dims) {
        Some(Shape::Dyadic(Dyadic::new(dims)))
    } else {
        let tables = crate::layout::shared(crate::layout::pad(dims))
            .expect("out of memory building the SPECK layout tables");
        Some(Shape::Table(tables))
    }
}

impl<'a, T: Float, const D: usize> Quantized<'a, T, D> {
    /// The encode of one block, `phase1`, whose second phase runs in the
    /// rest of `scratch`: its block scratches and assembly buffers, kept
    /// for a split domain.
    pub(crate) fn one(phase1: Phase1<'a, T, D>, scratch: Scratch) -> Self {
        Quantized { depth: 0, blocks: std::iter::once(Some(phase1)).collect(), scratch }
    }

    /// This phase 1 without its borrow of the coefficients, or `Err(self)`
    /// when some block's phase 2 still reads them.
    #[allow(clippy::result_large_err)] // the error is `self`, moved back once
    pub fn release(self) -> Result<Quantized<'static, T, D>, Self> {
        let Quantized { depth, blocks, scratch } = self;
        let blocks: Vec<_> = blocks.into_values().collect();
        if blocks.iter().flatten().any(|b| !b.coeffs.is_empty()) {
            return Err(Quantized { depth, blocks: blocks.into_iter().collect(), scratch });
        }
        let released = blocks.into_iter().map(|b| b.and_then(|b| b.release().ok()));
        Ok(Quantized { depth, blocks: released.collect(), scratch })
    }

    /// The second phase as one batch on `exec`: `first`, when given, is
    /// job 0, so it starts first, and each code block is a job — its
    /// sorting passes, with each plane's refinement span reserved, then
    /// the spans filled, in the block's own scratch — under a
    /// `stage.speck.encode` span. Then the blocks' streams, joined in
    /// block order: a split domain's behind its block table, with
    /// [`crate::blocks::SPLIT_FLAG`] in the planes byte and the counters
    /// summed, and one with nothing outside the dead zone as one block
    /// encodes, no planes and an empty stream. The encode carries the
    /// whole working memory back in [`EncodedSpeck::scratch`]. Returns it,
    /// the wall time from the batch's start to the end of its last block,
    /// and what `first` returned.
    pub fn encode_on<R: Send>(
        self,
        exec: &dyn Exec,
        first: Option<impl FnOnce() -> R + Send>,
    ) -> (EncodedSpeck, Duration, Option<R>) {
        let encoded = Slots::new(self.blocks.len(), EncodedSpeck::default);
        let start = Instant::now();
        let end = Slots::new(1, || start);
        let first = crate::blocks::batch(exec, self.blocks.len(), first, &|b, _| {
            let _span = sperr_telemetry::span!("stage.speck.encode");
            if let Some(phase1) = self.blocks.lock(b).take() {
                *encoded.lock(b) = phase1.encode();
            }
            let mut end = end.lock(0);
            *end = (*end).max(Instant::now());
        });
        let end = end.into_values().next().unwrap_or(start);
        (self.join(encoded.into_values().collect()), end.duration_since(start), first)
    }

    /// The blocks' phase 2 results (block `b` at `encoded[b]`) as one
    /// stream ([`Quantized::encode_on`]).
    fn join(self, mut encoded: Vec<EncodedSpeck>) -> EncodedSpeck {
        let Quantized { depth, mut scratch, .. } = self;
        if depth == 0 {
            let mut enc = encoded.pop().unwrap_or_default();
            (enc.scratch.blocks, enc.scratch.dense) = (scratch.blocks, scratch.dense);
            return enc;
        }
        let planes = encoded.iter().map(|e| e.num_planes).max().unwrap_or(0);
        let mut stream = std::mem::take(&mut scratch.stream);
        let table = if planes > 0 { crate::blocks::join(depth, &encoded, &mut stream) } else { 0 };
        if planes == 0 {
            stream.clear();
        }
        let mut enc = EncodedSpeck {
            num_planes: if planes > 0 { planes | SPLIT_FLAG } else { 0 },
            bits_used: 8 * table,
            stream,
            ..EncodedSpeck::default()
        };
        for (b, e) in encoded.into_iter().enumerate() {
            enc.bits_used += e.bits_used;
            enc.significance_bits += e.significance_bits;
            enc.sign_bits += e.sign_bits;
            enc.refinement_bits += e.refinement_bits;
            enc.sets_split += e.sets_split;
            enc.zero_runs += e.zero_runs;
            let mut block = e.scratch;
            block.reuse_stream(e.stream);
            if let Some(kept) = scratch.blocks.get_mut(b) {
                *kept = block;
            }
        }
        enc.scratch = scratch;
        enc
    }

    /// [`Quantized::encode_on`] on [`Serial`], with no job beside.
    pub fn encode(self) -> EncodedSpeck {
        self.encode_on(&Serial, None::<fn()>).0
    }
}

/// The encoder's first phase: checks the parameters, then quantizes
/// `coeffs` (shape `dims`, row-major with axis 0 fastest, finest step
/// `q > 0`) into the partition's layout order, in the memory of
/// `scratch`, on `exec` — the same result on any executor. A domain the
/// split rule cuts into code blocks ([`crate::blocks::split_depth`]) runs
/// one job per block, each in the block's own scratch; one block runs its
/// contiguous ranges as jobs. [`encode`] is this on [`Serial`] with a
/// fresh scratch, then [`Quantized::encode`].
pub fn quantize<'a, T: Float, const D: usize>(
    coeffs: &'a [T],
    dims: [usize; D],
    q: f64,
    term: Termination,
    exec: &dyn Exec,
    mut scratch: Scratch,
) -> Quantized<'a, T, D> {
    assert!(q > 0.0 && q.is_finite(), "quantization step must be positive");
    let n_total: usize = dims.iter().product();
    assert_eq!(coeffs.len(), n_total, "coeffs/dims mismatch");
    assert!(n_total as u64 <= u32::MAX as u64, "domain too large for u32 indices");
    let depth = crate::blocks::split_depth(dims, term);
    let split = crate::blocks::split(dims, depth);
    sperr_telemetry::counter!("speck.blocks", split.len());
    if depth == 0 {
        let blocks = std::mem::take(&mut scratch.blocks);
        let dense = std::mem::take(&mut scratch.dense);
        let phase1 = Phase1::new(shape_of(dims), coeffs, None, q, term, exec, scratch);
        return Quantized::one(phase1, Scratch { blocks, dense, ..Scratch::default() });
    }
    let memory = scratch.block_slots(split.len());
    let blocks = Slots::new(split.len(), || None);
    exec.run(split.len(), &|b, _| {
        let block = &split[b];
        let (shape, window) = (shape_of(block.dims), Some(Window::new(block, dims)));
        let memory = std::mem::take(&mut *memory.lock(b));
        *blocks.lock(b) = Some(Phase1::new(shape, coeffs, window, q, term, &Serial, memory));
    });
    Quantized { depth, blocks, scratch }
}

/// Encodes `coeffs` (shape `dims`, row-major with axis 0 fastest) with
/// finest quantization step `q > 0`: both phases back to back.
pub fn encode<T: Float, const D: usize>(
    coeffs: &[T],
    dims: [usize; D],
    q: f64,
    term: Termination,
) -> EncodedSpeck {
    let mut enc = quantize(coeffs, dims, q, term, &Serial, Scratch::default()).encode();
    enc.scratch = Scratch::default();
    enc
}

#[cfg(test)]
mod tests {
    use super::*;
    use sperr_exec::stress::{ReverseOrder, StripedWorkers};
    use sperr_exec::WorkerPool;

    /// Phase 1 on `exec` against phase 1 on [`Serial`]: the same levels,
    /// magnitudes and plane count in every block, then the same stream and
    /// counters.
    fn same_as_serial<T: Float, const D: usize>(
        coeffs: &[T],
        dims: [usize; D],
        q: f64,
        term: Termination,
        exec: &dyn Exec,
        what: &str,
    ) {
        let want = quantize(coeffs, dims, q, term, &Serial, Scratch::default());
        let got = quantize(coeffs, dims, q, term, exec, Scratch::default());
        assert_eq!(got.blocks.len(), want.blocks.len(), "{what}");
        for b in 0..got.blocks.len() {
            let (got, want) = (got.blocks.lock(b), want.blocks.lock(b));
            let (got, want) = (got.as_ref().unwrap(), want.as_ref().unwrap());
            assert_eq!(got.levels.at, want.levels.at, "{what}");
            assert!(got.levels.bytes == want.levels.bytes, "{what}: levels differ");
            assert!(got.mags == want.mags, "{what}: magnitudes differ");
            assert_eq!(got.num_planes, want.num_planes, "{what}");
        }
        let (got, want) = (got.encode(), want.encode());
        assert!(got.stream == want.stream, "{what}: streams differ");
        let counters = |e: &EncodedSpeck| {
            let bits = [e.bits_used, e.significance_bits, e.sign_bits, e.refinement_bits];
            (e.num_planes, bits, e.sets_split, e.zero_runs)
        };
        assert_eq!(counters(&got), counters(&want), "{what}");
    }

    #[test]
    fn a_window_maps_every_block_index_into_its_domain() {
        // The reciprocal-multiply division of `Window::at` against plain
        // division, on every index of blocks of the largest size and of
        // odd extents, at several offsets in several domains.
        let cases: [([usize; 3], Block<3>); 4] = [
            ([64, 64, 64], Block { origin: [32, 0, 32], dims: [32, 32, 32] }),
            ([72, 66, 50], Block { origin: [36, 33, 25], dims: [36, 33, 25] }),
            ([200, 3, 300], Block { origin: [100, 1, 150], dims: [100, 2, 150] }),
            ([1 << 17, 1, 1], Block { origin: [1 << 16, 0, 0], dims: [1 << 16, 1, 1] }),
        ];
        for (domain, block) in cases {
            let w = Window::new(&block, domain);
            for r in 0..block.len() {
                let [bx, by, _] = block.dims;
                let (x, y, z) = (r % bx, r / bx % by, r / (bx * by));
                let [ox, oy, oz] = block.origin;
                let want = ox + x + domain[0] * (oy + y + domain[1] * (oz + z));
                assert_eq!(w.at(r as u32), want, "{domain:?} {block:?} r={r}");
            }
        }
    }

    #[test]
    fn a_scratch_holding_stale_bytes_encodes_like_the_reference() {
        // One scratch threaded through every encode, largest domain first:
        // the levels and magnitudes are not cleared between encodes, so
        // each must overwrite every byte it reads. The streams must be the
        // reference encoder's on both geometries (16³ and 32³ take the
        // Morton one, the boxes the tables), at both widths, in both
        // termination modes, and past 32 planes (no magnitudes kept).
        fn check<T: Float>(scratch: &mut Scratch) {
            let rows: [([usize; 3], f64, Termination); 8] = [
                ([32, 32, 32], 0.05, Termination::Quality),
                ([16, 16, 16], 0.05, Termination::Quality),
                ([13, 9, 5], 0.05, Termination::Quality),
                ([24, 20, 18], 0.05, Termination::BitBudget(9000)),
                ([16, 16, 16], 1e-9, Termination::Quality),
                ([13, 9, 5], 0.5, Termination::BitBudget(777)),
                ([11, 6, 7], 0.25, Termination::Quality),
                ([32, 32, 32], 0.5, Termination::Quality),
            ];
            for (row, (dims, q, term)) in rows.into_iter().enumerate() {
                let n: usize = dims.iter().product();
                let coeffs: Vec<T> = (0..n)
                    .map(|i| {
                        let v = (i as f64 * 0.37 + row as f64).sin() * 90.0;
                        T::from_f64(v + ((i * 7919) % 101) as f64 * 0.01)
                    })
                    .collect();
                let used = std::mem::take(scratch);
                let mut got = quantize(&coeffs, dims, q, term, &Serial, used).encode();
                let want = crate::reference::encode(&coeffs, dims, q, term);
                let what = format!("{} bytes, row {row}: {dims:?} q={q} {term:?}", T::BYTES);
                assert!(got.stream == want.stream, "{what}: streams differ");
                assert_eq!(got.bits_used, want.bits_used, "{what}");
                assert_eq!(got.num_planes, want.num_planes, "{what}");
                *scratch = std::mem::take(&mut got.scratch);
                scratch.reuse_stream(got.stream);
            }
        }
        let mut scratch = Scratch::default();
        check::<f64>(&mut scratch);
        assert!(scratch.bytes() >= 32 * 32 * 32, "the scratch kept nothing");
        check::<f32>(&mut scratch);
    }

    #[test]
    fn phase_one_is_the_same_on_every_executor() {
        // A 64³ cube takes the Morton geometry, the box the tables. Both
        // gather in more than one piece, and the cube's finest level
        // coarsens in more than one. Quality mode keeps the magnitudes, a
        // bit budget does not.
        fn check(exec: &dyn Exec, name: &str) {
            for dims in [[64usize, 64, 64], [24, 20, 18]] {
                let n: usize = dims.iter().product();
                assert!(n > PIECE, "{dims:?}: one piece only");
                let wide: Vec<f64> = (0..n)
                    .map(|i| (i as f64 * 0.37).sin() * 90.0 + ((i * 7919) % 101) as f64 * 0.01)
                    .collect();
                let narrow: Vec<f32> = wide.iter().map(|&v| v as f32).collect();
                for term in [Termination::Quality, Termination::BitBudget(n * 3)] {
                    let what = format!("{name}, {dims:?}, {term:?}");
                    same_as_serial(&wide, dims, 0.01, term, exec, &format!("{what}, f64"));
                    same_as_serial(&narrow, dims, 0.01, term, exec, &format!("{what}, f32"));
                }
            }
        }
        check(&Serial, "Serial");
        check(&ReverseOrder, "ReverseOrder");
        check(&StripedWorkers(3), "StripedWorkers(3)");
        for threads in [1usize, 2, 4] {
            WorkerPool::scoped(threads, |pool| check(pool, &format!("{threads}-thread pool")));
        }
    }
}
