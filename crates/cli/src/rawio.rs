//! Raw binary field I/O: little-endian f32/f64 arrays, the format the
//! SDRBench files (and upstream SPERR's CLI) use.

use crate::args::ScalarType;
use sperr_compress_api::{Field, FieldOf, Precision};
use sperr_core::Float;
use std::fs;
use std::io;
use std::path::Path;

fn check_size(path: &Path, len: usize, dims: [usize; 3], elem: usize, ty: ScalarType) -> io::Result<usize> {
    let n: usize = dims.iter().product();
    if len != n * elem {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} holds {} bytes but dims {:?} as {:?} need {}",
                path.display(),
                len,
                dims,
                ty,
                n * elem
            ),
        ));
    }
    Ok(n)
}

/// Reads a raw little-endian scalar file into a [`Field`] of the given
/// dims, widening f32 samples to f64 (the legacy ingest path; prefer
/// [`read_field_f32`] for f32 files headed to the native pipeline).
/// Errors if the file size does not match.
pub fn read_field(path: &Path, dims: [usize; 3], ty: ScalarType) -> io::Result<Field> {
    let bytes = fs::read(path)?;
    let elem = match ty {
        ScalarType::F32 => 4,
        ScalarType::F64 => 8,
    };
    let n = check_size(path, bytes.len(), dims, elem, ty)?;
    let mut data = Vec::with_capacity(n);
    match ty {
        ScalarType::F32 => {
            for c in bytes.chunks_exact(4) {
                data.push(f32::from_le_bytes(c.try_into().unwrap()) as f64);
            }
        }
        ScalarType::F64 => {
            for c in bytes.chunks_exact(8) {
                data.push(f64::from_le_bytes(c.try_into().unwrap()));
            }
        }
    }
    let precision = match ty {
        ScalarType::F32 => Precision::Single,
        ScalarType::F64 => Precision::Double,
    };
    Ok(Field::new(dims, data).with_precision(precision))
}

/// Reads a raw little-endian f32 file at its native width — no widening,
/// feeding the f32-native pipeline directly.
pub fn read_field_f32(path: &Path, dims: [usize; 3]) -> io::Result<FieldOf<f32>> {
    let bytes = fs::read(path)?;
    let n = check_size(path, bytes.len(), dims, 4, ScalarType::F32)?;
    let mut data = Vec::with_capacity(n);
    for c in bytes.chunks_exact(4) {
        data.push(f32::from_le_bytes(c.try_into().unwrap()));
    }
    Ok(FieldOf::<f32>::new(dims, data))
}

fn write_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if path.as_os_str() == "-" {
        use io::Write;
        let mut out = io::stdout().lock();
        out.write_all(bytes)?;
        return out.flush();
    }
    fs::write(path, bytes)
}

/// Writes a field of either sample width as raw little-endian `ty`
/// scalars; an f32 field written as f32 keeps its exact samples.
///
/// Writing a double-precision field (`precision == Double`) as f32 rounds
/// every sample — real information loss, not a format conversion — so it
/// is refused unless `lossy_ok` (the CLI sets it when the user passed an
/// explicit `--dtype f32`/`--type f32`). Single-precision-origin fields
/// narrow freely: their payload is f32 data, possibly widened in transit.
pub fn write_field<T: Float>(
    path: &Path,
    field: &FieldOf<T>,
    ty: ScalarType,
    lossy_ok: bool,
) -> io::Result<()> {
    if ty == ScalarType::F32 && field.precision == Precision::Double && !lossy_ok {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "refusing to silently narrow f64 data to f32 output; \
             pass an explicit --dtype f32 to round",
        ));
    }
    let mut bytes = Vec::with_capacity(field.len() * 8);
    match ty {
        ScalarType::F32 => {
            for &v in &field.data {
                bytes.extend_from_slice(&(v.to_f64() as f32).to_le_bytes());
            }
        }
        ScalarType::F64 => {
            for &v in &field.data {
                bytes.extend_from_slice(&v.to_f64().to_le_bytes());
            }
        }
    }
    write_bytes(path, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64_and_f32() {
        let dir = std::env::temp_dir().join("sperr_cli_rawio_test");
        fs::create_dir_all(&dir).unwrap();
        let field = Field::from_fn([3, 2, 2], |x, y, z| x as f64 + 0.5 * y as f64 - z as f64);

        let p64 = dir.join("a.f64");
        write_field(&p64, &field, ScalarType::F64, false).unwrap();
        let back = read_field(&p64, [3, 2, 2], ScalarType::F64).unwrap();
        assert_eq!(back.data, field.data);
        assert_eq!(back.precision, Precision::Double);

        let p32 = dir.join("a.f32");
        write_field(&p32, &field, ScalarType::F32, true).unwrap();
        let back = read_field(&p32, [3, 2, 2], ScalarType::F32).unwrap();
        for (a, b) in field.data.iter().zip(&back.data) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(back.precision, Precision::Single);

        // wrong dims -> clean error
        assert!(read_field(&p64, [4, 2, 2], ScalarType::F64).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_narrowing_requires_opt_in() {
        let dir = std::env::temp_dir().join("sperr_cli_rawio_narrow_test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.f32");
        // A true f64 field refuses f32 output without the override...
        let field = Field::new([2, 1, 1], vec![0.1, 0.2]);
        let err = write_field(&p, &field, ScalarType::F32, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        write_field(&p, &field, ScalarType::F32, true).unwrap();
        // ...but a Single-origin field narrows freely (its payload is
        // f32 data in transit at f64).
        let single = field.clone().with_precision(Precision::Single);
        write_field(&p, &single, ScalarType::F32, false).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn native_f32_io_roundtrips_bit_exact() {
        let dir = std::env::temp_dir().join("sperr_cli_rawio_f32_test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("n.f32");
        let field =
            FieldOf::<f32>::from_fn([4, 2, 1], |x, y, _| (x as f64 * 0.7).sin() + y as f64);
        write_field(&p, &field, ScalarType::F32, false).unwrap();
        let back = read_field_f32(&p, [4, 2, 1]).unwrap();
        assert_eq!(back.precision, Precision::Single);
        for (a, b) in field.data.iter().zip(&back.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(read_field_f32(&p, [5, 2, 1]).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
