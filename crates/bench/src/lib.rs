//! Shared plumbing for the per-figure benchmark binaries (one binary per
//! table/figure of the paper — see DESIGN.md §4 for the index).
//!
//! Conventions: every binary prints a short header describing what it
//! reproduces, then CSV rows to stdout so results can be piped into any
//! plotting tool. Volume sizes are scaled-down versions of the paper's
//! (laptop-scale); set `SPERR_BENCH_SCALE=full|half|quarter|tiny` to grow
//! or shrink them.

use sperr_compress_api::Field;
use sperr_datagen::SyntheticField;
use sperr_outlier::Outlier;
use sperr_wavelet::{forward_3d, inverse_3d, levels_for_dims, Kernel};

/// Scale factor applied to the standard bench dims, from the
/// `SPERR_BENCH_SCALE` environment variable.
pub fn scale() -> f64 {
    match std::env::var("SPERR_BENCH_SCALE").as_deref() {
        Ok("full") => 2.0,
        Ok("half") => 1.0,
        Ok("quarter") => 0.5,
        Ok("tiny") => 0.25,
        _ => 1.0,
    }
}

/// Laptop-scale dimensions standing in for each field's paper dims
/// (`SyntheticField::paper_dims`), preserving the aspect ratio.
pub fn bench_dims(field: SyntheticField) -> [usize; 3] {
    let s = scale();
    let base: [usize; 3] = match field {
        // paper: 384x384x256 (double-precision Miranda fields)
        SyntheticField::MirandaPressure
        | SyntheticField::MirandaViscosity
        | SyntheticField::MirandaVelocityX => [96, 96, 64],
        // paper: 3072^3 (cutouts of 1024^3 / 2048^3 used)
        SyntheticField::MirandaDensity => [128, 128, 128],
        // paper: 500^3
        SyntheticField::S3dCh4 | SyntheticField::S3dTemperature | SyntheticField::S3dVelocityX => {
            [64, 64, 64]
        }
        // paper: 512^3
        SyntheticField::NyxDarkMatterDensity | SyntheticField::NyxVelocityX => [64, 64, 64],
        // paper: 69^2 x 115 per orbital — kept at native size
        SyntheticField::Qmcpack => return [69, 69, 115],
        SyntheticField::Image2d => return [768, 512, 1],
    };
    base.map(|d| ((d as f64 * s) as usize).max(8))
}

/// Generates a field at its bench dims with the standard seed.
pub fn bench_field(field: SyntheticField) -> Field {
    field.generate(bench_dims(field), 20230512)
}

/// Intercepts SPERR's pipeline right after outlier detection (the paper
/// does exactly this for the Fig. 11 comparison): forward CDF 9/7,
/// quantize at `q = q_factor·t`, inverse, compare. Returns the outliers
/// over the linearized field.
pub fn intercept_outliers(field: &Field, t: f64, q_factor: f64) -> Vec<Outlier> {
    let dims = field.dims;
    let levels = levels_for_dims(dims);
    let mut coeffs = field.data.clone();
    forward_3d(&mut coeffs, dims, levels, Kernel::Cdf97);
    let mut recon = sperr_speck::reconstruct_quantized(&coeffs, q_factor * t);
    inverse_3d(&mut recon, dims, levels, Kernel::Cdf97);
    field
        .data
        .iter()
        .zip(&recon)
        .enumerate()
        .filter_map(|(pos, (&orig, &rec))| {
            let corr = orig - rec;
            (corr.abs() > t).then_some(Outlier { pos, corr })
        })
        .collect()
}

/// The Table II experiment matrix: (field, idx) pairs with abbreviations.
pub fn table2_matrix() -> Vec<(SyntheticField, u32)> {
    use SyntheticField::*;
    vec![
        (S3dCh4, 20),
        (S3dCh4, 40),
        (S3dTemperature, 20),
        (S3dTemperature, 40),
        (S3dVelocityX, 20),
        (S3dVelocityX, 40),
        (MirandaPressure, 20),
        (MirandaPressure, 40),
        (MirandaViscosity, 20),
        (MirandaViscosity, 40),
        (MirandaVelocityX, 20),
        (MirandaVelocityX, 40),
        (Qmcpack, 20),
        (NyxDarkMatterDensity, 20),
        (NyxVelocityX, 20),
    ]
}

/// Prints the standard experiment banner.
pub fn banner(what: &str, paper_ref: &str) {
    println!("# SPERR reproduction — {what}");
    println!("# reproduces: {paper_ref}");
    println!("# bench scale: {} (set SPERR_BENCH_SCALE=full|half|quarter|tiny)", scale());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_dims_reasonable() {
        for f in SyntheticField::TABLE2_FIELDS {
            let d = bench_dims(f);
            assert!(d.iter().all(|&x| x >= 8));
            assert!(d.iter().product::<usize>() <= 1 << 26);
        }
    }

    #[test]
    fn intercepted_outliers_all_violate_t() {
        let field = bench_field(SyntheticField::Qmcpack);
        let t = field.tolerance_for_idx(15);
        let outliers = intercept_outliers(&field, t, 1.5);
        assert!(outliers.iter().all(|o| o.corr.abs() > t));
    }

    #[test]
    fn larger_q_more_outliers() {
        let field = SyntheticField::S3dTemperature.generate([32, 32, 32], 1);
        let t = field.tolerance_for_idx(15);
        let few = intercept_outliers(&field, t, 1.0).len();
        let many = intercept_outliers(&field, t, 2.5).len();
        assert!(many >= few);
    }

    #[test]
    fn table2_matrix_matches_paper() {
        let m = table2_matrix();
        assert_eq!(m.len(), 15); // 6 fields x 2 levels + 3 single-level
        assert_eq!(m[0].0.abbrev(m[0].1), "CH4-20");
    }
}
