//! The four workloads: what each one feeds the program and why it exists.
//! `BENCHMARK.json` carries a one-line `why` per workload; the full
//! reasoning stays here, next to the code that builds the inputs.

use sperr_compress_api::{Bound, FieldOf};
use sperr_core::{Float, SperrConfig};
use sperr_datagen::SyntheticField;
use std::io::Write;
use std::path::{Path, PathBuf};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub field: SyntheticField,
    /// Samples above this are set to it before staging.
    pub clamp_above: Option<f64>,
    pub f32_samples: bool,
    /// Edge of the cubic volume: full size, `--smoke` size.
    pub edge: [usize; 2],
    /// Chunks along each axis; `None` leaves `SperrConfig::default()`
    /// exactly as it ships.
    pub chunks_per_axis: Option<usize>,
    /// Tolerances are the paper's `range / 2^idx` taken of the field's
    /// *nominal* range and fixed here as absolute numbers: the actual range
    /// is an extreme-value statistic that moves ±8 % between seeds, and a
    /// tolerance derived from it would make the ratio a property of the
    /// seed instead of the program.
    pub bound: Bound,
    /// Every operation is a `sperr` child process working file → file,
    /// instead of a library call on memory.
    pub via_cli: bool,
    /// `decode_region` calls in each cycle of compress, decompress,
    /// regions, preview: the knob that makes a workload read-heavy.
    pub regions_per_cycle: usize,
}

/// Every workload runs the same closed loop, one client: compress the
/// input, decompress the stream, read `regions_per_cycle` seeded boxes out
/// of it, decode one 1-bpp preview; repeat until the time is up. What
/// differs is the input, the configuration, the way in (library or CLI) and
/// how read-heavy the loop is — so that each layer is used in at least two
/// different ways and a change that helps one use shows its cost on another.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "default_f64",
        why: "SperrConfig::default() exactly as it ships: lossless pass on, one \
              power-of-two cubic chunk, so SPECK takes the Morton encoder. SPECK does \
              most of the work, the whole-container lossless pass and outlier coding \
              follow. With one chunk the chunk-level pool has nothing to fan out (a pool \
              change must read 'no change' here) and a region read costs a full decode.",
        field: SyntheticField::MirandaPressure,
        clamp_above: None,
        f32_samples: false,
        edge: [128, 64],
        chunks_per_axis: None,
        // idx 20 of 9.5 standard deviations of the unit-variance field.
        bound: Bound::Pwe(9.5 / 1_048_576.0),
        via_cli: false,
        regions_per_cycle: 4,
    },
    Workload {
        name: "chunked_f32_spiky",
        why: "Heavy-tailed f32 samples in 27 chunks whose edge is not a power of two: \
              a large share of points goes through the outlier coder, the pool fans chunks \
              over the cores, and SPECK runs its generic (non-Morton) coder at single \
              width. Each is a different use of a layer default_f64 also runs, so a \
              Morton-only or f64-only gain shows nothing here and its cost does. The \
              serial lossless tail is the Amdahl term.",
        field: SyntheticField::NyxDarkMatterDensity,
        // About four standard deviations of the log-density
        // (exp(1.8·4)·1e10). The field's maximum is an extreme-value
        // statistic that moves ±30 % between seeds and drags `range`, the
        // tolerance and the ratio with it; saturating ~1 sample in 30 000
        // pins the range so the workload is the same work under every seed.
        clamp_above: Some(1.34e13),
        f32_samples: true,
        edge: [120, 60],
        chunks_per_axis: Some(3),
        // idx 12 of the clamped range.
        bound: Bound::Pwe(1.34e13 / 4096.0),
        via_cli: false,
        regions_per_cycle: 16,
    },
    Workload {
        name: "cli_stream_bpp",
        why: "The paper's second termination mode through the path a shell user takes: \
              every operation spawns `sperr` (compress --stream --bpp 2, decompress \
              --stream, --region, --preview-bpp) file to file and pays process start and \
              cold arenas. No outlier stage and a budget-cut SPECK pass, so raw I/O, \
              wavelet, container emit and the streaming driver do most of the work.",
        field: SyntheticField::S3dTemperature,
        clamp_above: None,
        f32_samples: false,
        edge: [128, 64],
        chunks_per_axis: Some(2),
        bound: Bound::Bpp(2.0),
        via_cli: true,
        regions_per_cycle: 8,
    },
    Workload {
        name: "region_reads",
        why: "The decode layers used the way analysis users do: 64 chunks, container \
              v3, and twenty reads of a box holding 0.66 % of the volume (1 to 8 chunks \
              touched) per compress. Cost should follow chunks touched and today follows \
              stream length, because the whole container is inflated per call. Index \
              seek, per-chunk lossless, a Morton decoder and sub-chunk decode show here \
              and must not move the bulk workloads.",
        field: SyntheticField::MirandaVelocityX,
        clamp_above: None,
        f32_samples: false,
        edge: [128, 64],
        chunks_per_axis: Some(4),
        // idx 12 of 9.5 standard deviations (the generator scales by 1.2e6).
        // At idx 16 the lossless pass saves 0.09 % and sits on a cliff: it
        // stores some blocks and codes others, which ones depends on the
        // seed, and a region read takes 28 or 46 ms with it. At idx 12
        // every block is coded, under every seed.
        bound: Bound::Pwe(9.5 * 1.2e6 / 4096.0),
        via_cli: false,
        regions_per_cycle: 20,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One invocation's settings: the workload plus what the command line chose.
pub struct Run {
    pub workload: &'static Workload,
    pub seed: u64,
    /// How long the end-to-end loop measures.
    pub seconds: f64,
    /// Small volumes and two cycles instead of `seconds`.
    pub smoke: bool,
    /// Scratch directory holding the staged input and every file the
    /// workload writes.
    pub dir: PathBuf,
    /// The `sperr` binary under test.
    pub sperr: PathBuf,
}

impl Run {
    pub fn dims(&self) -> [usize; 3] {
        [self.workload.edge[usize::from(self.smoke)]; 3]
    }

    /// The configuration under test; `threads` is 0 for one per core.
    pub fn config(&self, threads: usize) -> SperrConfig {
        let mut cfg = SperrConfig { num_threads: threads, ..SperrConfig::default() };
        if let Some(n) = self.workload.chunks_per_axis {
            cfg.chunk_dims = [self.dims()[0] / n; 3];
        }
        cfg
    }

    /// Edge of a region box: 3/16 of the volume's, so a box holds 0.66 % of
    /// the points and straddles up to eight chunks of a 4×4×4 grid.
    pub fn box_edge(&self) -> usize {
        self.dims()[0] * 3 / 16
    }

    pub fn raw_bytes(&self) -> usize {
        self.dims().iter().product::<usize>() * if self.workload.f32_samples { 4 } else { 8 }
    }

    pub fn input(&self) -> PathBuf {
        self.dir.join("input.raw")
    }

    /// Generates the workload's samples from the seed and writes them to
    /// [`Run::input`] as little-endian scalars, x fastest: the staging step
    /// `setup_s` times. Datagen runs here, in the parent, so that no
    /// measured process carries its memory.
    pub fn stage(&self) -> std::io::Result<()> {
        let mut field = self.workload.field.generate(self.dims(), self.seed);
        if let Some(cap) = self.workload.clamp_above {
            field.data.iter_mut().for_each(|v| *v = v.min(cap));
        }
        if self.workload.f32_samples {
            write_raw(&self.input(), &field.narrow_lossy().data)
        } else {
            write_raw(&self.input(), &field.data)
        }
    }
}

pub fn write_raw<T: Float>(path: &Path, samples: &[T]) -> std::io::Result<()> {
    let mut bytes = vec![0u8; samples.len() * T::BYTES];
    for (v, out) in samples.iter().zip(bytes.chunks_exact_mut(T::BYTES)) {
        v.write_le(out);
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)
}

pub fn read_raw<T: Float>(path: &Path, dims: [usize; 3]) -> Result<FieldOf<T>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if bytes.len() != dims.iter().product::<usize>() * T::BYTES {
        return Err(format!("{}: {} bytes do not fill {dims:?}", path.display(), bytes.len()));
    }
    Ok(FieldOf::new(dims, bytes.chunks_exact(T::BYTES).map(T::read_le).collect()))
}

/// The point-wise error a decode may show under `bound`: `t` itself at
/// double width, the documented `t·(1+1e-5) + range·1e-5` at single width,
/// nothing in size-bounded mode.
pub fn allowed_error<T: Float>(bound: Bound, range: f64) -> Option<f64> {
    match bound {
        Bound::Pwe(t) if T::BYTES == 4 => Some(t * (1.0 + 1e-5) + range * 1e-5),
        Bound::Pwe(t) => Some(t),
        Bound::Bpp(_) | Bound::Psnr(_) => None,
    }
}

/// SplitMix64: the benchmark's own seeded generator, for box placement.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A cubic box of edge `edge` placed uniformly inside `dims`.
    pub fn region(&mut self, dims: [usize; 3], edge: usize) -> ([usize; 3], [usize; 3]) {
        let lo = dims.map(|d| (self.next_u64() % (d - edge + 1) as u64) as usize);
        (lo, lo.map(|l| l + edge))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxes_are_seeded_and_inside_the_volume() {
        let boxes = |seed| {
            let mut rng = Rng(seed);
            (0..50).map(|_| rng.region([128; 3], 24)).collect::<Vec<_>>()
        };
        assert_eq!(boxes(7), boxes(7));
        assert_ne!(boxes(7), boxes(8));
        for (lo, hi) in boxes(7) {
            assert!((0..3).all(|d| hi[d] - lo[d] == 24 && hi[d] <= 128));
        }
    }

    #[test]
    fn raw_files_round_trip_at_both_widths() {
        let dir = std::env::temp_dir().join(format!("sperr-bench-raw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.raw");
        write_raw(&path, &[1.5f32, -2.25, 3.0, 0.0]).unwrap();
        assert_eq!(read_raw::<f32>(&path, [2, 2, 1]).unwrap().data, [1.5, -2.25, 3.0, 0.0]);
        assert!(read_raw::<f64>(&path, [2, 2, 1]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workload_geometry() {
        let run = |name: &str, smoke| Run {
            workload: find(name).unwrap(),
            seed: 1,
            seconds: 1.0,
            smoke,
            dir: PathBuf::new(),
            sperr: PathBuf::new(),
        };
        assert_eq!(run("region_reads", false).config(0).chunk_dims, [32; 3]);
        assert_eq!(run("region_reads", false).box_edge(), 24);
        assert_eq!(run("region_reads", true).config(1).chunk_dims, [16; 3]);
        assert_eq!(run("default_f64", false).config(0).chunk_dims, [256; 3]);
        assert_eq!(run("chunked_f32_spiky", false).raw_bytes(), 120 * 120 * 120 * 4);
        assert!(find("nope").is_none());
    }
}
