//! Encoder/decoder implementing Listings 1–3 of the paper.

use sperr_bitstream::BitWriter;

/// One outlier: its position in the linearized array and the correction
/// value `corr = x − x̃` (original minus wavelet reconstruction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outlier {
    /// Index into the linearized (1-D) data array.
    pub pos: usize,
    /// Signed correction value; `|corr|` strictly exceeds the tolerance.
    pub corr: f64,
}

/// Result of [`encode`].
#[derive(Debug, Clone)]
pub struct EncodedOutliers {
    /// Bit-packed stream (zero-padded to whole bytes). Empty when there
    /// were no outliers.
    pub stream: Vec<u8>,
    /// Starting exponent: the first threshold is `2^max_n · t`. Needed by
    /// the decoder. Meaningless when `stream` is empty.
    pub max_n: u8,
    /// Exact number of bits produced.
    pub bits_used: usize,
    /// Number of outliers encoded (for cost accounting, §V-A).
    pub num_outliers: usize,
    /// The largest `|corr − decoded|` over the outliers: how far the
    /// corrections [`decode`](crate::decode) returns from this stream miss
    /// their true values, bit for bit (the encoder tracks each decoded
    /// value with the decoder's own float operations). 0 with no outliers.
    pub max_err: f64,
}

/// The encoder's working memory, kept between encodes: the outliers'
/// position-sorted columns, the decoder-tracking residuals, the set and
/// point lists, and a buffer for the next stream. [`encode_with`] works in
/// it; buffers grow to the most outliers seen and never shrink, and
/// nothing in them reaches the stream. The default holds nothing.
#[derive(Default)]
pub struct EncodeScratch {
    sorted: Vec<Outlier>,
    pos: Vec<u32>,
    mag: Vec<f64>,
    negative: Vec<bool>,
    residual: Vec<f64>,
    recon: Vec<f64>,
    lis: Vec<Vec<SetR>>,
    lsp: Vec<u32>,
    lnsp: Vec<u32>,
    stream: Vec<u8>,
}

impl EncodeScratch {
    /// Bytes the buffers hold (their capacity).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let lis: usize = self.lis.iter().map(|l| l.capacity() * size_of::<SetR>()).sum();
        self.sorted.capacity() * size_of::<Outlier>()
            + 4 * (self.pos.capacity() + self.lsp.capacity() + self.lnsp.capacity())
            + 8 * (self.mag.capacity() + self.residual.capacity() + self.recon.capacity())
            + self.negative.capacity()
            + lis
            + self.stream.capacity()
    }

    /// Hands back the memory of a stream an encode returned, for the next
    /// encode to write into; the larger of it and the buffer held stays.
    pub fn reuse_stream(&mut self, stream: Vec<u8>) {
        if stream.capacity() > self.stream.capacity() {
            self.stream = stream;
        }
    }
}

impl std::fmt::Debug for EncodeScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodeScratch").field("bytes", &self.bytes()).finish()
    }
}

/// An insignificant set: a half-open position range, the index range of
/// the outliers it contains in the position-sorted arrays, and their
/// largest magnitude. Its level is the LIS bucket it sits in, as in the
/// decoder's `Span`; positions fit `u32` ([`encode`] asserts it).
#[derive(Debug, Clone, Copy)]
struct SetR {
    start: u32,
    len: u32,
    /// Outlier index range `[olo, ohi)`.
    olo: u32,
    ohi: u32,
    /// The largest outlier magnitude in `[olo, ohi)` (`NEG_INFINITY` for
    /// an empty range), computed once at creation so each plane's
    /// significance test is a float compare.
    max_mag: f64,
}

// ---------------------------------------------------------------- encoder

struct Encoder<'a> {
    pos: &'a [u32],
    mag: &'a [f64],
    negative: &'a [bool],
    residual: Vec<f64>,
    /// What the decoder holds for each significant outlier: `1.5·thrd` at
    /// discovery, then `±thrd/2` per refinement bit.
    recon: Vec<f64>,
    lis: Vec<Vec<SetR>>,
    lsp: Vec<u32>,
    lnsp: Vec<u32>,
    out: BitWriter,
}

impl<'a> Encoder<'a> {
    fn push_lis(&mut self, set: SetR, lvl: usize) {
        if self.lis.len() <= lvl {
            self.lis.resize_with(lvl + 1, Vec::new);
        }
        self.lis[lvl].push(set);
    }

    /// Listing 2: one significance bit per set; significant sets split
    /// recursively down to single positions, which emit a sign and join
    /// the newly-significant list.
    ///
    /// Hot path mirrors the SPECK sorting pass: buckets are compacted in
    /// place (no per-plane drain/refill allocation churn), the cached
    /// `max_mag` turns each significance test into a float compare, and
    /// runs of guaranteed-insignificant sets emit their zero bits through
    /// one bulk `put_zeros` call. Splits only create deeper sets, which
    /// this pass already finished, so in-place mutation is safe.
    fn sorting_pass(&mut self, thrd: f64) {
        // "In increasing order of their sizes": deepest buckets first.
        for lvl in (0..self.lis.len()).rev() {
            let len = self.lis[lvl].len();
            let mut write = 0usize;
            let mut run = 0usize; // pending guaranteed-zero significance bits
            for read in 0..len {
                let set = self.lis[lvl][read];
                if set.max_mag > thrd {
                    self.out.put_zeros(std::mem::take(&mut run));
                    self.out.put_bit(true);
                    self.significant(set, lvl, thrd);
                } else {
                    run += 1;
                    self.lis[lvl][write] = set;
                    write += 1;
                }
            }
            self.out.put_zeros(run);
            self.lis[lvl].truncate(write);
        }
    }

    /// A set whose significance bit (a 1) was just emitted: a single
    /// position emits its sign and joins the newly-significant list, a
    /// longer range splits.
    fn significant(&mut self, set: SetR, lvl: usize, thrd: f64) {
        if set.len == 1 {
            debug_assert_eq!(set.ohi - set.olo, 1);
            let idx = set.olo;
            self.out.put_bit(self.negative[idx as usize]);
            self.lnsp.push(idx);
        } else {
            self.code(set, lvl, thrd);
        }
    }

    fn process(&mut self, set: SetR, lvl: usize, thrd: f64) {
        let sig = set.max_mag > thrd;
        self.out.put_bit(sig);
        if sig {
            self.significant(set, lvl, thrd);
        } else {
            self.push_lis(set, lvl);
        }
    }

    /// Listing 2's `Code(S)`: equally divide into two disjoint subsets and
    /// process both immediately, one level deeper.
    fn code(&mut self, set: SetR, lvl: usize, thrd: f64) {
        let (a, b) = split(set, self.pos, self.mag);
        self.process(a, lvl + 1, thrd);
        self.process(b, lvl + 1, thrd);
    }

    /// Listing 3: refine previously significant points by one bit, then
    /// quantize the newly found ones (no bits — their value is implied by
    /// the discovery threshold) and merge them into the LSP. Refinement
    /// bits are gathered 64 at a time into a word and emitted with one
    /// bulk write, mirroring the SPECK refinement pass. `recon` follows
    /// each bit as the decoder applies it.
    fn refinement_pass(&mut self, thrd: f64) {
        let len = self.lsp.len();
        let mut i = 0usize;
        while i < len {
            let w = (len - i).min(64);
            let mut word = 0u64;
            for j in 0..w {
                let idx = self.lsp[i + j] as usize;
                if self.residual[idx] > thrd {
                    self.residual[idx] -= thrd;
                    self.recon[idx] += thrd / 2.0;
                    word |= 1u64 << j;
                } else {
                    self.recon[idx] -= thrd / 2.0;
                }
            }
            self.out.put_bits(word, w as u32);
            i += w;
        }
        for i in 0..self.lnsp.len() {
            let idx = self.lnsp[i] as usize;
            self.residual[idx] -= thrd;
            self.recon[idx] = 1.5 * thrd;
        }
        let new = std::mem::take(&mut self.lnsp);
        self.lsp.extend(new);
    }
}

/// Splits a set into two halves, the first taking `len - len/2` positions,
/// partitions its outlier index range at the position boundary, and gives
/// each half the largest magnitude in its range — one scan of the parent's
/// range, so a whole encode scans each outlier at most once per level.
fn split(set: SetR, pos: &[u32], mag: &[f64]) -> (SetR, SetR) {
    let second = set.len / 2;
    let first = set.len - second;
    let mid = set.start + first;
    // First index in [olo, ohi) whose position is >= mid.
    let cut =
        set.olo + pos[set.olo as usize..set.ohi as usize].partition_point(|&p| p < mid) as u32;
    let max_of = |lo: u32, hi: u32| {
        mag[lo as usize..hi as usize].iter().copied().fold(f64::NEG_INFINITY, f64::max)
    };
    (
        SetR {
            start: set.start,
            len: first,
            olo: set.olo,
            ohi: cut,
            max_mag: max_of(set.olo, cut),
        },
        SetR { start: mid, len: second, olo: cut, ohi: set.ohi, max_mag: max_of(cut, set.ohi) },
    )
}

/// Computes the starting exponent of Listing 1 line 4: the largest integer
/// `n >= 0` such that `2^n · t < max_mag`, capped at `u8::MAX`. The cap
/// comes first: a ratio `max_mag / t` that overflows to infinity would
/// otherwise start the search at `i64::MAX`.
fn starting_exponent(t: f64, max_mag: f64) -> u8 {
    let mut n = ((max_mag / t).log2().floor().clamp(0.0, f64::from(u8::MAX))) as i64;
    // Guard against floating-point edge cases around exact powers of two.
    while (n as u32) < 200 && f64::exp2((n + 1) as f64) * t < max_mag {
        n += 1;
    }
    while n > 0 && f64::exp2(n as f64) * t >= max_mag {
        n -= 1;
    }
    n.clamp(0, u8::MAX as i64) as u8
}

/// Encodes `outliers` over a linearized array of length `array_len` with
/// PWE tolerance `t > 0` (Listing 1).
///
/// # Panics
///
/// On caller bugs: positions out of range or duplicated, magnitudes not
/// strictly above `t`, a non-positive tolerance, or an array longer than
/// `u32::MAX` (SPECK's chunk-domain bound).
pub fn encode(outliers: &[Outlier], array_len: usize, t: f64) -> EncodedOutliers {
    encode_with(outliers, array_len, t, &mut EncodeScratch::default())
}

/// [`encode`] in the memory of `scratch`: the same stream, and no
/// allocation once `scratch` has grown to the most outliers it has seen
/// and been handed back a stream as large ([`EncodeScratch::reuse_stream`]).
/// Outliers already in position order, as a scan yields them, are not
/// copied to be sorted.
///
/// # Panics
///
/// As [`encode`].
pub fn encode_with(
    outliers: &[Outlier],
    array_len: usize,
    t: f64,
    scratch: &mut EncodeScratch,
) -> EncodedOutliers {
    let _span = sperr_telemetry::span!("outlier.encode", outliers.len());
    assert!(t > 0.0 && t.is_finite(), "tolerance must be positive and finite");
    assert!(array_len <= u32::MAX as usize, "domain too large for u32 positions");
    if outliers.is_empty() {
        return EncodedOutliers {
            stream: Vec::new(),
            max_n: 0,
            bits_used: 0,
            num_outliers: 0,
            max_err: 0.0,
        };
    }

    // Sort by position; validate.
    let EncodeScratch { sorted, pos, mag, negative, residual, recon, lis, lsp, lnsp, stream } =
        scratch;
    let sorted: &[Outlier] = if outliers.is_sorted_by_key(|o| o.pos) {
        outliers
    } else {
        sorted.clear();
        sorted.extend_from_slice(outliers);
        sorted.sort_by_key(|o| o.pos);
        sorted
    };
    pos.clear();
    mag.clear();
    negative.clear();
    for (i, o) in sorted.iter().enumerate() {
        assert!(o.pos < array_len, "outlier position {} out of range {}", o.pos, array_len);
        if i > 0 {
            assert!(sorted[i - 1].pos != o.pos, "duplicate outlier position {}", o.pos);
        }
        assert!(
            o.corr.abs() > t,
            "outlier magnitude {} must strictly exceed tolerance {}",
            o.corr.abs(),
            t
        );
        pos.push(o.pos as u32);
        mag.push(o.corr.abs());
        negative.push(o.corr < 0.0);
    }

    let max_mag = mag.iter().copied().fold(0.0, f64::max);
    let max_n = starting_exponent(t, max_mag);

    residual.clear();
    residual.extend_from_slice(mag);
    recon.clear();
    recon.resize(mag.len(), 0.0);
    // Levels an earlier encode left stay, empty: a pass over an empty
    // bucket emits nothing.
    lis.iter_mut().for_each(Vec::clear);
    lis.resize_with(lis.len().max(1), Vec::new);
    lis[0].push(SetR { start: 0, len: array_len as u32, olo: 0, ohi: pos.len() as u32, max_mag });
    lsp.clear();
    lnsp.clear();
    let mut enc = Encoder {
        pos,
        mag,
        negative,
        residual: std::mem::take(residual),
        recon: std::mem::take(recon),
        lis: std::mem::take(lis),
        lsp: std::mem::take(lsp),
        lnsp: std::mem::take(lnsp),
        // Size hint: each outlier costs roughly its significance-search
        // path plus sign and refinement bits — a few dozen bits in
        // practice; the writer grows if a pathological set exceeds this.
        out: BitWriter::reusing(std::mem::take(stream), 64 + pos.len() * 48),
    };

    for n in (0..=max_n as i64).rev() {
        let thrd = f64::exp2(n as f64) * t;
        enc.sorting_pass(thrd);
        enc.refinement_pass(thrd);
    }

    // The last threshold is `t`, below every magnitude: each outlier was
    // found, and `recon` is what the decoder returns for it.
    let max_err = mag.iter().zip(&enc.recon).fold(0.0f64, |m, (&mag, &r)| m.max((mag - r).abs()));
    let bits_used = enc.out.len_bits();
    let Encoder { residual: r, recon: c, lis: l, lsp: p, lnsp: n, out, .. } = enc;
    (*residual, *recon, *lis, *lsp, *lnsp) = (r, c, l, p, n);
    EncodedOutliers {
        stream: out.into_bytes(),
        max_n,
        bits_used,
        num_outliers: outliers.len(),
        max_err,
    }
}
