//! Raw binary field I/O: little-endian f32/f64 arrays, the format the
//! SDRBench files (and upstream SPERR's CLI) use.

use crate::args::ScalarType;
use sperr_compress_api::{Field, FieldOf, Precision};
use sperr_core::Float;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// The one input-size rule: a raw file of `len` bytes must hold exactly
/// `dims` samples of `ty`. Returns the sample count.
fn check_size(path: &Path, len: usize, dims: [usize; 3], ty: ScalarType) -> io::Result<usize> {
    let n: usize = dims.iter().product();
    if len != n * ty.bytes() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} holds {} bytes but dims {:?} as {:?} need {}",
                path.display(),
                len,
                dims,
                ty,
                n * ty.bytes()
            ),
        ));
    }
    Ok(n)
}

/// Checks a regular file's length against `dims` samples of `ty` before
/// anything is read. Devices and pipes have no length to check; a short
/// one fails on read.
pub fn check_file_len(path: &Path, dims: [usize; 3], ty: ScalarType) -> io::Result<()> {
    let meta = fs::metadata(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    if meta.is_file() {
        check_size(path, meta.len() as usize, dims, ty)?;
    }
    Ok(())
}

/// Reads a raw little-endian scalar file into a [`Field`] of the given
/// dims, widening f32 samples to f64 (the legacy ingest path; prefer
/// [`read_field_f32`] for f32 files headed to the native pipeline).
/// Errors if the file size does not match.
pub fn read_field(path: &Path, dims: [usize; 3], ty: ScalarType) -> io::Result<Field> {
    let bytes = fs::read(path)?;
    let n = check_size(path, bytes.len(), dims, ty)?;
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
    Ok(Field::new(dims, data).with_precision(ty.precision()))
}

/// Reads a raw little-endian f32 file at its native width — no widening,
/// feeding the f32-native pipeline directly.
pub fn read_field_f32(path: &Path, dims: [usize; 3]) -> io::Result<FieldOf<f32>> {
    let bytes = fs::read(path)?;
    let n = check_size(path, bytes.len(), dims, ScalarType::F32)?;
    let mut data = Vec::with_capacity(n);
    for c in bytes.chunks_exact(4) {
        data.push(f32::from_le_bytes(c.try_into().unwrap()));
    }
    Ok(FieldOf::<f32>::new(dims, data))
}

/// The one narrowing guard. Writing data of `source` precision `Double`
/// as f32 rounds every sample — real information loss, not a format
/// conversion — so it is refused unless the width was `explicit` (the
/// user passed `--dtype f32`/`--type f32`). Single-precision sources
/// narrow freely: their payload is f32 data, possibly widened in transit.
pub fn check_narrowing(ty: ScalarType, explicit: bool, source: Precision) -> io::Result<()> {
    if ty == ScalarType::F32 && source == Precision::Double && !explicit {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "refusing to silently narrow f64 data to f32 output; \
             pass an explicit --dtype f32 to round",
        ));
    }
    Ok(())
}

/// Writes a field of either sample width to `out` as raw little-endian
/// `ty` scalars; an f32 field written as f32 keeps its exact samples.
pub fn write_field<T: Float>(
    out: &mut dyn Write,
    field: &FieldOf<T>,
    ty: ScalarType,
) -> io::Result<()> {
    let mut bytes = Vec::new();
    for block in field.data.chunks(1 << 14) {
        bytes.clear();
        for &v in block {
            match ty {
                ScalarType::F32 => bytes.extend_from_slice(&(v.to_f64() as f32).to_le_bytes()),
                ScalarType::F64 => bytes.extend_from_slice(&v.to_f64().to_le_bytes()),
            }
        }
        out.write_all(&bytes)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_to<T: Float>(path: &Path, field: &FieldOf<T>, ty: ScalarType) -> io::Result<()> {
        write_field(&mut fs::File::create(path)?, field, ty)
    }

    #[test]
    fn roundtrip_f64_and_f32() {
        let dir = std::env::temp_dir().join("sperr_cli_rawio_test");
        fs::create_dir_all(&dir).unwrap();
        let field = Field::from_fn([3, 2, 2], |x, y, z| x as f64 + 0.5 * y as f64 - z as f64);

        let p64 = dir.join("a.f64");
        write_to(&p64, &field, ScalarType::F64).unwrap();
        let back = read_field(&p64, [3, 2, 2], ScalarType::F64).unwrap();
        assert_eq!(back.data, field.data);
        assert_eq!(back.precision, Precision::Double);

        let p32 = dir.join("a.f32");
        write_to(&p32, &field, ScalarType::F32).unwrap();
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
        // True f64 data refuses an inferred f32 output...
        let err = check_narrowing(ScalarType::F32, false, Precision::Double).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        check_narrowing(ScalarType::F32, true, Precision::Double).unwrap();
        check_narrowing(ScalarType::F64, false, Precision::Double).unwrap();
        // ...but Single-origin data narrows freely (its payload is f32
        // data in transit at f64).
        check_narrowing(ScalarType::F32, false, Precision::Single).unwrap();
    }

    #[test]
    fn native_f32_io_roundtrips_bit_exact() {
        let dir = std::env::temp_dir().join("sperr_cli_rawio_f32_test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("n.f32");
        let field =
            FieldOf::<f32>::from_fn([4, 2, 1], |x, y, _| (x as f64 * 0.7).sin() + y as f64);
        write_to(&p, &field, ScalarType::F32).unwrap();
        let back = read_field_f32(&p, [4, 2, 1]).unwrap();
        assert_eq!(back.precision, Precision::Single);
        for (a, b) in field.data.iter().zip(&back.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(read_field_f32(&p, [5, 2, 1]).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
