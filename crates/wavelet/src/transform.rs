//! Multilevel, multi-dimensional transform driver.
//!
//! 2D/3D transforms are separable: each level applies the 1D kernel along
//! every axis of the current approximation sub-box ("transforms are
//! separately applied along each axis", §III-A), then halves the
//! transformed axes. Axes with fewer levels (short dimensions) simply stop
//! participating once their level budget is exhausted.
//!
//! # Hot path
//!
//! The strided (y/z) passes are *panel-blocked*: instead of gathering one
//! stride-`N` line at a time (one cache miss per sample), a panel of up to
//! [`PANEL_W`](crate::PANEL_W) adjacent lines is transposed into a
//! contiguous line-major scratch buffer, the lifting kernel runs over the
//! whole panel, and the panel is scattered back. Because the lines of a
//! panel are adjacent along x, the gather/scatter reads and writes
//! `PANEL_W` *contiguous* doubles per touched row — every fetched cache
//! line is fully used, amortizing the strided walk across the panel.
//! Panels are independent, so passes parallelize through an
//! [`Exec`]; per-line arithmetic is exactly the reference path's,
//! so output is bit-identical to [`reference`] for any executor (enforced
//! by proptests).

use crate::exec::{TransformScratch, WorkerScratch, PANEL_W};
use crate::kernels::Kernel;
use crate::support::Support;
use sperr_exec::{Exec, Serial};
use sperr_simd::Float;
use std::ops::Range;

/// Telemetry labels for per-axis lifting passes (span value = level).
/// The `reference` module is deliberately not instrumented: it is the
/// bit-identity oracle and its perf profile should stay untouched.
const FWD_AXIS_SPAN: [&str; 3] = ["wavelet.fwd.x", "wavelet.fwd.y", "wavelet.fwd.z"];
const INV_AXIS_SPAN: [&str; 3] = ["wavelet.inv.x", "wavelet.inv.y", "wavelet.inv.z"];

/// Number of recursive transform passes for an axis of length `n`:
/// `min(6, ⌊log2 n⌋ − 2)`, clamped to 0 for short axes (paper §III-A).
pub fn num_levels(n: usize) -> usize {
    if n < 8 {
        return 0;
    }
    let log2 = usize::BITS as usize - 1 - n.leading_zeros() as usize;
    (log2 - 2).min(6)
}

/// Per-axis level counts for a 3D volume, using [`num_levels`].
pub fn levels_for_dims(dims: [usize; 3]) -> [usize; 3] {
    [num_levels(dims[0]), num_levels(dims[1]), num_levels(dims[2])]
}

/// Length of the approximation band after one level on an axis of length
/// `n` (`ceil(n/2)`; the low band is packed first).
pub fn approx_len(n: usize) -> usize {
    n.div_ceil(2)
}

/// Forward multilevel transform of a 1D signal in place.
pub fn forward_1d<T: Float>(data: &mut [T], n: usize, levels: usize, kernel: Kernel) {
    let mut scratch = vec![T::ZERO; n];
    forward_1d_with(data, n, levels, kernel, &mut scratch);
}

/// [`forward_1d`] with caller-provided scratch (`scratch.len() >= n`), so
/// repeated calls allocate nothing.
pub fn forward_1d_with<T: Float>(data: &mut [T], n: usize, levels: usize, kernel: Kernel, scratch: &mut [T]) {
    assert!(data.len() >= n);
    assert!(scratch.len() >= n, "scratch too short: {} < {n}", scratch.len());
    let mut len = n;
    for _ in 0..levels {
        if len < 2 {
            break;
        }
        kernel.forward_line(data, len, scratch);
        len = approx_len(len);
    }
}

/// Inverse of [`forward_1d`].
pub fn inverse_1d<T: Float>(data: &mut [T], n: usize, levels: usize, kernel: Kernel) {
    let mut scratch = vec![T::ZERO; n];
    inverse_1d_with(data, n, levels, kernel, &mut scratch);
}

/// [`inverse_1d`] with caller-provided scratch (`scratch.len() >= n`).
pub fn inverse_1d_with<T: Float>(data: &mut [T], n: usize, levels: usize, kernel: Kernel, scratch: &mut [T]) {
    assert!(data.len() >= n);
    assert!(scratch.len() >= n, "scratch too short: {} < {n}", scratch.len());
    // Recompute the per-level lengths, then undo them in reverse order.
    let mut lens = [0usize; 64];
    let mut n_lens = 0;
    let mut len = n;
    for _ in 0..levels {
        if len < 2 {
            break;
        }
        lens[n_lens] = len;
        n_lens += 1;
        len = approx_len(len);
    }
    for &len in lens[..n_lens].iter().rev() {
        kernel.inverse_line(data, len, scratch);
    }
}

/// Forward multilevel transform of a row-major 2D field in place.
/// `dims = [nx, ny]` with `x` fastest-varying.
pub fn forward_2d<T: Float>(data: &mut [T], dims: [usize; 2], levels: [usize; 2], kernel: Kernel) {
    let d3 = [dims[0], dims[1], 1];
    forward_3d(data, d3, [levels[0], levels[1], 0], kernel);
}

/// Inverse of [`forward_2d`].
pub fn inverse_2d<T: Float>(data: &mut [T], dims: [usize; 2], levels: [usize; 2], kernel: Kernel) {
    let d3 = [dims[0], dims[1], 1];
    inverse_3d(data, d3, [levels[0], levels[1], 0], kernel);
}

/// Forward multilevel transform of a row-major 3D volume in place.
/// `dims = [nx, ny, nz]` with `x` fastest-varying (index
/// `x + nx*(y + ny*z)`).
pub fn forward_3d<T: Float>(data: &mut [T], dims: [usize; 3], levels: [usize; 3], kernel: Kernel) {
    forward_3d_with(data, dims, levels, kernel, &Serial, &mut TransformScratch::new());
}

/// [`forward_3d`] with a caller-supplied executor (for intra-volume
/// parallelism) and reusable scratch (for allocation-free repetition).
pub fn forward_3d_with<T: Float>(
    data: &mut [T],
    dims: [usize; 3],
    levels: [usize; 3],
    kernel: Kernel,
    exec: &dyn Exec,
    scratch: &mut TransformScratch<T>,
) {
    assert_eq!(data.len(), dims[0] * dims[1] * dims[2], "data/dims mismatch");
    let max_levels = levels.iter().copied().max().unwrap_or(0);
    let max_dim = dims.iter().copied().max().unwrap_or(0);
    scratch.ensure(max_dim, exec.width());
    let mut cur = dims;
    for level in 0..max_levels {
        for axis in 0..3 {
            if level < levels[axis] && cur[axis] >= 2 {
                let _pass = sperr_telemetry::span!(FWD_AXIS_SPAN[axis], level);
                let lines = cur.map(|c| 0..c);
                apply_axis_blocked(data, dims, cur, axis, &lines, kernel, true, exec, scratch);
                cur[axis] = approx_len(cur[axis]);
            }
        }
    }
}

/// Inverse of [`forward_3d`].
pub fn inverse_3d<T: Float>(data: &mut [T], dims: [usize; 3], levels: [usize; 3], kernel: Kernel) {
    inverse_3d_partial(data, dims, levels, 0, kernel);
}

/// [`inverse_3d`] with executor + reusable scratch.
pub fn inverse_3d_with<T: Float>(
    data: &mut [T],
    dims: [usize; 3],
    levels: [usize; 3],
    kernel: Kernel,
    exec: &dyn Exec,
    scratch: &mut TransformScratch<T>,
) {
    inverse_3d_partial_with(data, &Support::new(dims, levels, 0, None), kernel, exec, scratch);
}

/// Partial inverse supporting multi-resolution reconstruction (paper
/// §VII: each coarsened hierarchy level resembles the full-resolution
/// data): undoes all forward steps *except* the finest `skip_finest`
/// levels on each axis. Afterwards, the sub-box
/// `[0, coarse_dims(dims, levels, skip_finest))` holds the reconstructed
/// approximation of the data at that resolution (values carry the
/// kernel's per-level DC gain, √2 per skipped level for the unit-norm
/// kernels — divide by `2^(skip/2)` per axis for physical units; see
/// [`coarse_scale`]).
pub fn inverse_3d_partial<T: Float>(
    data: &mut [T],
    dims: [usize; 3],
    levels: [usize; 3],
    skip_finest: usize,
    kernel: Kernel,
) {
    let support = Support::new(dims, levels, skip_finest, None);
    inverse_3d_partial_with(data, &support, kernel, &Serial, &mut TransformScratch::new());
}

/// The one inverse driver: undoes the steps `support` lists, last to
/// first, each lifting only the rectangle of lines the support gives it.
/// For a [`Support`] of the whole output this is the full (or, at a
/// skipped level, the coarse) inverse; for a box of it, the box is
/// bit-identical to the same samples of that inverse as long as every
/// coefficient in [`Support::boxes`] holds its value — the rest of `data`
/// may hold anything, and outside the box the result is unspecified.
pub fn inverse_3d_partial_with<T: Float>(
    data: &mut [T],
    support: &Support,
    kernel: Kernel,
    exec: &dyn Exec,
    scratch: &mut TransformScratch<T>,
) {
    let dims = support.dims();
    assert_eq!(data.len(), dims[0] * dims[1] * dims[2], "data/dims mismatch");
    let max_dim = dims.iter().copied().max().unwrap_or(0);
    scratch.ensure(max_dim, exec.width());
    for step in support.steps().iter().rev() {
        let _pass = sperr_telemetry::span!(INV_AXIS_SPAN[step.axis], step.level);
        apply_axis_blocked(data, dims, step.cur, step.axis, &step.lines, kernel, false, exec, scratch);
    }
}

/// Dimensions of the approximation sub-box after `skip_finest` forward
/// levels remain un-inverted (companion to [`inverse_3d_partial`]).
pub fn coarse_dims(dims: [usize; 3], levels: [usize; 3], skip_finest: usize) -> [usize; 3] {
    let mut out = dims;
    for axis in 0..3 {
        for _ in 0..skip_finest.min(levels[axis]) {
            if out[axis] >= 2 {
                out[axis] = approx_len(out[axis]);
            }
        }
    }
    out
}

/// Amplitude scale carried by the approximation band at a coarse
/// resolution: the unit-norm kernels gain √2 per level per transformed
/// axis. Divide coarse samples by this to recover physical units.
pub fn coarse_scale(dims: [usize; 3], levels: [usize; 3], skip_finest: usize) -> f64 {
    let mut transformed_axis_levels = 0usize;
    for axis in 0..3 {
        let mut len = dims[axis];
        for lv in 0..levels[axis].min(skip_finest) {
            let _ = lv;
            if len >= 2 {
                transformed_axis_levels += 1;
                len = approx_len(len);
            }
        }
    }
    f64::exp2(transformed_axis_levels as f64 / 2.0)
}

/// Raw pointer wrapper letting independent jobs write disjoint samples of
/// the shared volume. Soundness argument at the use sites.
struct VolPtr<T>(*mut T);
impl<T> Clone for VolPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for VolPtr<T> {}
unsafe impl<T: Send> Send for VolPtr<T> {}
unsafe impl<T: Send> Sync for VolPtr<T> {}

impl<T> VolPtr<T> {
    /// Pointer to sample `off`. Method (not field) access so closures
    /// capture the whole Sync wrapper, not the raw pointer field.
    unsafe fn at(self, off: usize) -> *mut T {
        self.0.add(off)
    }
}

/// Lines per job on the contiguous x-axis pass: enough to amortize job
/// dispatch, few enough to load-balance across workers.
const X_LINES_PER_JOB: usize = 8;

/// Applies one lifting pass (`forward` or inverse) to the lines along
/// `axis` within the sub-box `[0, cur)` of the full `dims` array whose
/// other two coordinates lie in `lines` (`lines[axis]` is ignored: lines
/// are lifted whole), dispatching independent line batches / panels
/// through `exec`.
#[allow(clippy::too_many_arguments)]
fn apply_axis_blocked<T: Float>(
    data: &mut [T],
    dims: [usize; 3],
    cur: [usize; 3],
    axis: usize,
    lines: &[Range<usize>; 3],
    kernel: Kernel,
    forward: bool,
    exec: &dyn Exec,
    scratch: &TransformScratch<T>,
) {
    // The raw-pointer writes below stay inside `data` only because every
    // line lies inside `[0, cur)` and `cur` inside `dims`.
    assert!((0..3).all(|d| cur[d] <= dims[d] && (d == axis || lines[d].end <= cur[d])));
    let n = cur[axis];
    let strides = [1, dims[0], dims[0] * dims[1]];
    let stride = strides[axis];
    let vol = VolPtr(data.as_mut_ptr());
    let workers = &scratch.workers;

    if axis == 0 {
        // Contiguous fast path along x: each job takes a batch of whole
        // lines. Jobs touch disjoint `[base, base + n)` ranges, so the
        // raw-pointer writes never alias.
        let (ys, zs) = (&lines[1], &lines[2]);
        let n_lines = ys.len() * zs.len();
        let n_jobs = n_lines.div_ceil(X_LINES_PER_JOB);
        exec.run(n_jobs, &|job, worker| {
            let ws = &mut *workers.lock(worker);
            let start = job * X_LINES_PER_JOB;
            for li in start..(start + X_LINES_PER_JOB).min(n_lines) {
                let (jy, jz) = (ys.start + li % ys.len(), zs.start + li / ys.len());
                let base = jy * strides[1] + jz * strides[2];
                // SAFETY: this job exclusively owns lines `start..end`.
                let line = unsafe { std::slice::from_raw_parts_mut(vol.at(base), n) };
                if forward {
                    kernel.forward_line(line, n, &mut ws.line);
                } else {
                    kernel.inverse_line(line, n, &mut ws.line);
                }
            }
        });
        return;
    }

    // Strided passes (y: stride nx, z: stride nx*ny). The non-transformed
    // axes are x (stride 1, always one of them for axis != 0) and `b`.
    // A panel is up to PANEL_W lines adjacent along x: sample i of every
    // panel line lives in one contiguous run of `wlen` doubles, so the
    // transpose in/out of the line-major panel buffer streams through
    // memory instead of striding.
    let b = if axis == 1 { 2 } else { 1 };
    let (xs, bs) = (&lines[0], &lines[b]);
    let panels_per_row = xs.len().div_ceil(PANEL_W);
    let n_jobs = bs.len() * panels_per_row;
    exec.run(n_jobs, &|job, worker| {
        let ws = &mut *workers.lock(worker);
        let WorkerScratch { panel, line } = ws;
        let jb = bs.start + job / panels_per_row;
        let x0 = xs.start + (job % panels_per_row) * PANEL_W;
        let wlen = PANEL_W.min(xs.end - x0);
        let base = jb * strides[b] + x0;
        // SAFETY: this job exclusively owns samples
        // `{base + i*stride + w : i in 0..n, w in 0..wlen}` — jobs differ
        // in `jb` (disjoint b-slices) or `x0` (disjoint x-ranges).
        unsafe {
            // Gather: transpose wlen contiguous doubles per row into the
            // line-major panel.
            for i in 0..n {
                let row = vol.at(base + i * stride);
                for w in 0..wlen {
                    *panel.get_unchecked_mut(w * n + i) = *row.add(w);
                }
            }
            // Lift every line of the panel.
            for w in 0..wlen {
                let buf = &mut panel[w * n..(w + 1) * n];
                if forward {
                    kernel.forward_line(buf, n, line);
                } else {
                    kernel.inverse_line(buf, n, line);
                }
            }
            // Scatter back.
            for i in 0..n {
                let row = vol.at(base + i * stride);
                for w in 0..wlen {
                    *row.add(w) = *panel.get_unchecked(w * n + i);
                }
            }
        }
    });
}

/// The pre-blocking per-line driver, kept as the equivalence oracle: the
/// blocked path must produce bit-identical output (proptests) and the
/// benchmark harness measures blocked vs per-line on the strided passes.
pub mod reference {
    use super::*;

    /// Per-line forward multilevel transform (original implementation).
    pub fn forward_3d<T: Float>(data: &mut [T], dims: [usize; 3], levels: [usize; 3], kernel: Kernel) {
        assert_eq!(data.len(), dims[0] * dims[1] * dims[2], "data/dims mismatch");
        let max_levels = levels.iter().copied().max().unwrap_or(0);
        let max_dim = dims.iter().copied().max().unwrap_or(0);
        let mut line = vec![T::ZERO; max_dim];
        let mut scratch = vec![T::ZERO; max_dim];
        let mut cur = dims;
        for level in 0..max_levels {
            for axis in 0..3 {
                if level < levels[axis] && cur[axis] >= 2 {
                    apply_axis_per_line(data, dims, cur, axis, &mut line, &mut scratch, |buf, n, s| {
                        kernel.forward_line(buf, n, s)
                    });
                    cur[axis] = approx_len(cur[axis]);
                }
            }
        }
    }

    /// Per-line inverse multilevel transform (original implementation).
    pub fn inverse_3d<T: Float>(data: &mut [T], dims: [usize; 3], levels: [usize; 3], kernel: Kernel) {
        assert_eq!(data.len(), dims[0] * dims[1] * dims[2], "data/dims mismatch");
        let max_levels = levels.iter().copied().max().unwrap_or(0);
        let max_dim = dims.iter().copied().max().unwrap_or(0);
        let mut line = vec![T::ZERO; max_dim];
        let mut scratch = vec![T::ZERO; max_dim];
        let mut schedule: Vec<(usize, usize)> = Vec::new(); // (axis, len before)
        let mut cur = dims;
        for level in 0..max_levels {
            for axis in 0..3 {
                if level < levels[axis] && cur[axis] >= 2 {
                    schedule.push((axis, cur[axis]));
                    cur[axis] = approx_len(cur[axis]);
                }
            }
        }
        for &(axis, len_before) in schedule.iter().rev() {
            cur[axis] = len_before;
            apply_axis_per_line(data, dims, cur, axis, &mut line, &mut scratch, |buf, n, s| {
                kernel.inverse_line(buf, n, s)
            });
        }
    }

    /// Applies `f` to every line along `axis` within the sub-box
    /// `[0, cur)`, gathering/scattering one strided line at a time.
    fn apply_axis_per_line<T: Float>(
        data: &mut [T],
        dims: [usize; 3],
        cur: [usize; 3],
        axis: usize,
        line: &mut [T],
        scratch: &mut [T],
        mut f: impl FnMut(&mut [T], usize, &mut [T]),
    ) {
        let n = cur[axis];
        let (stride_x, stride_y, stride_z) = (1, dims[0], dims[0] * dims[1]);
        let strides = [stride_x, stride_y, stride_z];
        let stride = strides[axis];
        // The two non-transformed axes.
        let (a, b) = match axis {
            0 => (1, 2),
            1 => (0, 2),
            _ => (0, 1),
        };
        for jb in 0..cur[b] {
            for ja in 0..cur[a] {
                let base = ja * strides[a] + jb * strides[b];
                if stride == 1 {
                    // Contiguous fast path along x.
                    f(&mut data[base..base + n], n, scratch);
                } else {
                    for (i, slot) in line[..n].iter_mut().enumerate() {
                        *slot = data[base + i * stride];
                    }
                    f(line, n, scratch);
                    for (i, &v) in line[..n].iter().enumerate() {
                        data[base + i * stride] = v;
                    }
                }
            }
        }
    }
}
