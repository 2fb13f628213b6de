//! The outlier decoder (Listings 2–3, decoder side), kept in its own
//! module so the whole decode path can be audited for panic-freedom (see
//! the repo's `tests/panic_audit.rs`): nothing in this file may `unwrap`,
//! `expect`, `panic!` or `assert` — all failures on untrusted input
//! surface as [`DecodeError`].

use crate::coder::Outlier;
use sperr_bitstream::BitReader;
use std::fmt;

/// Typed decoder-side failure. Untrusted streams must never panic the
/// decoder; every structural problem maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before the declared structure was complete.
    Truncated(&'static str),
    /// The stream or its declared parameters are structurally invalid.
    Corrupt(&'static str),
    /// A declared size exceeds what the decoder is willing to allocate.
    LimitExceeded(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated(msg) => write!(f, "truncated outlier stream: {msg}"),
            DecodeError::Corrupt(msg) => write!(f, "corrupt outlier stream: {msg}"),
            DecodeError::LimitExceeded(msg) => {
                write!(f, "outlier decode limit exceeded: {msg}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<sperr_bitstream::Error> for DecodeError {
    fn from(e: sperr_bitstream::Error) -> Self {
        match e {
            sperr_bitstream::Error::UnexpectedEof => {
                DecodeError::Truncated("unexpected end of stream")
            }
            sperr_bitstream::Error::Corrupt(msg) => DecodeError::Corrupt(msg),
        }
    }
}

impl From<DecodeError> for sperr_compress_api::CompressError {
    fn from(e: DecodeError) -> Self {
        use sperr_compress_api::CompressError;
        match e {
            DecodeError::Truncated(_) => CompressError::Truncated(e.to_string()),
            DecodeError::Corrupt(_) => CompressError::Corrupt(e.to_string()),
            DecodeError::LimitExceeded(_) => CompressError::LimitExceeded(e.to_string()),
        }
    }
}

/// Signals that the stream ran out mid-pass; unwinds the pass cleanly (a
/// truncated stream yields a coarser partial set of corrections).
struct Stop;

/// An insignificant set as the decoder keeps it: a half-open position
/// range. Its level is the LIS bucket it sits in, and the encoder's
/// outlier-range and magnitude caches have no use here, so a set costs 16
/// bytes instead of the encoder's 40 — the LIS is most of the decoder's
/// memory.
#[derive(Clone, Copy)]
struct Span {
    start: usize,
    len: usize,
}

struct DecPoint {
    pos: usize,
    negative: bool,
    corr: f64,
}

struct Decoder<'a> {
    input: BitReader<'a>,
    lis: Vec<Vec<Span>>,
    /// Indices into `points` of previously significant entries.
    lsp: Vec<u32>,
    lnsp: Vec<u32>,
    points: Vec<DecPoint>,
}

impl<'a> Decoder<'a> {
    fn read_bit(&mut self) -> Result<bool, Stop> {
        self.input.get_bit().map_err(|_| Stop)
    }

    fn push_lis(&mut self, set: Span, lvl: usize) {
        if self.lis.len() <= lvl {
            self.lis.resize_with(lvl + 1, Vec::new);
        }
        self.lis[lvl].push(set);
    }

    /// One sorting pass. Mirrors the encoder's in-place LIS bookkeeping:
    /// still-insignificant sets are compacted to the front of their bucket
    /// instead of being drained into a fresh vector, so bucket storage is
    /// allocated once and reused across planes. Splits only create deeper
    /// sets, which this pass already finished, so in-place mutation never
    /// aliases the iteration.
    /// Insignificance bits come in runs (the encoder emits them through
    /// `put_zeros`); `count_zero_run` consumes each run through the refill
    /// register in bulk and the corresponding sets are retained with one
    /// `copy_within`, instead of one `get_bit` + one element move per set.
    fn sorting_pass(&mut self, thrd: f64) -> Result<(), Stop> {
        for lvl in (0..self.lis.len()).rev() {
            let len = self.lis[lvl].len();
            let mut write = 0usize;
            let mut read = 0usize;
            while read < len {
                let run = self.input.count_zero_run(len - read);
                if run > 0 {
                    // A run of 0 bits retains a run of sets unchanged.
                    self.lis[lvl].copy_within(read..read + run, write);
                    write += run;
                    read += run;
                    if read == len {
                        break;
                    }
                }
                // The run stopped short: next bit is a 1, or EOF.
                let keep_or_err = match self.input.get_bit() {
                    Err(_) => Err(Stop),
                    Ok(false) => Ok(true), // unreachable after count_zero_run
                    Ok(true) => {
                        let set = self.lis[lvl][read];
                        self.process_significant(set, lvl, thrd).map(|()| false)
                    }
                };
                match keep_or_err {
                    Ok(true) => {
                        self.lis[lvl][write] = self.lis[lvl][read];
                        write += 1;
                        read += 1;
                    }
                    Ok(false) => {
                        read += 1;
                    }
                    Err(stop) => {
                        // Keep the unprocessed remainder so state stays
                        // sane; the set being processed when the stream ran
                        // out is dropped, matching the historical
                        // take-and-repush behavior.
                        self.lis[lvl].copy_within(read + 1..len, write);
                        let kept = write + (len - read - 1);
                        self.lis[lvl].truncate(kept);
                        return Err(stop);
                    }
                }
            }
            self.lis[lvl].truncate(write);
        }
        Ok(())
    }

    /// Handles a set whose significance bit was 1: a single position
    /// records its sign and discovery value, a longer range splits.
    fn process_significant(&mut self, set: Span, lvl: usize, thrd: f64) -> Result<(), Stop> {
        if set.len == 1 {
            let negative = self.read_bit()?;
            // Listing 3 line 12: reconstruct at 3/2 of the discovery
            // threshold (centre of (thrd, 2·thrd]).
            self.points.push(DecPoint { pos: set.start, negative, corr: 1.5 * thrd });
            let idx = (self.points.len() - 1) as u32;
            self.lnsp.push(idx);
            Ok(())
        } else {
            self.code(set, lvl, thrd)
        }
    }

    fn process(&mut self, set: Span, lvl: usize, thrd: f64) -> Result<(), Stop> {
        let sig = self.read_bit()?;
        if sig {
            self.process_significant(set, lvl, thrd)
        } else {
            self.push_lis(set, lvl);
            Ok(())
        }
    }

    fn code(&mut self, set: Span, lvl: usize, thrd: f64) -> Result<(), Stop> {
        // Decoder-side split mirrors the encoder geometrically. `set.len >=
        // 2` here, so both halves are non-empty and the recursion depth is
        // bounded by log2(array_len).
        let second = set.len / 2;
        let first = set.len - second;
        let a = Span { start: set.start, len: first };
        let b = Span { start: set.start + first, len: second };
        self.process(a, lvl + 1, thrd)?;
        self.process(b, lvl + 1, thrd)
    }

    /// One refinement pass: bits are consumed up to 64 at a time through
    /// the reader's refill register and scattered to their corrections,
    /// mirroring the encoder's word-packed emission. A truncated stream
    /// applies exactly the bits that exist (the reader's remaining budget
    /// is checked up front per word) and then stops, matching the
    /// bit-at-a-time behavior.
    fn refinement_pass(&mut self, thrd: f64) -> Result<(), Stop> {
        let len = self.lsp.len();
        let mut i = 0usize;
        while i < len {
            let want = (len - i).min(64);
            let avail = self.input.remaining_bits().min(want);
            if avail > 0 {
                let word = self.input.get_bits(avail as u32).map_err(|_| Stop)?;
                for j in 0..avail {
                    let Some(&idx) = self.lsp.get(i + j) else {
                        return Err(Stop); // unreachable: i + j < len
                    };
                    let idx = idx as usize;
                    // Listing 3 lines 5/7: move to the centre of the
                    // narrowed interval.
                    if let Some(p) = self.points.get_mut(idx) {
                        if (word >> j) & 1 == 1 {
                            p.corr += thrd / 2.0;
                        } else {
                            p.corr -= thrd / 2.0;
                        }
                    }
                }
                i += avail;
            }
            if avail < want {
                return Err(Stop);
            }
        }
        let new = std::mem::take(&mut self.lnsp);
        self.lsp.extend(new);
        Ok(())
    }
}

/// Decodes a stream produced by [`crate::encode`] with the same
/// `array_len`, `t` and the `max_n` it returned. Positions are exact;
/// correction values are within `t/2` of the originals when the stream is
/// complete. A truncated stream yields a partial (coarser) set of
/// corrections without error. Invalid parameters — a non-positive or
/// non-finite tolerance, or a non-empty stream over an empty array —
/// return a typed error instead of panicking, so header fields from
/// untrusted containers can be passed through unchecked.
pub fn decode(
    stream: &[u8],
    array_len: usize,
    t: f64,
    max_n: u8,
) -> Result<Vec<Outlier>, DecodeError> {
    let _span = sperr_telemetry::span!("outlier.decode");
    if !(t > 0.0) || !t.is_finite() {
        return Err(DecodeError::Corrupt("tolerance must be positive and finite"));
    }
    if stream.is_empty() {
        return Ok(Vec::new());
    }
    if array_len == 0 {
        // The encoder never emits bits over an empty array; a degenerate
        // root set would otherwise recurse once per garbage bit.
        return Err(DecodeError::Corrupt("non-empty stream over an empty array"));
    }
    let mut dec = Decoder {
        input: BitReader::new(stream),
        lis: vec![vec![Span { start: 0, len: array_len }]],
        lsp: Vec::new(),
        lnsp: Vec::new(),
        points: Vec::new(),
    };
    'outer: for n in (0..=max_n as i64).rev() {
        let thrd = f64::exp2(n as f64) * t;
        if dec.sorting_pass(thrd).is_err() {
            break 'outer;
        }
        if dec.refinement_pass(thrd).is_err() {
            break 'outer;
        }
    }
    Ok(dec
        .points
        .into_iter()
        .map(|p| Outlier { pos: p.pos, corr: if p.negative { -p.corr } else { p.corr } })
        .collect())
}
