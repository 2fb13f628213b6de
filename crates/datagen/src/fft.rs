//! Minimal complex FFT substrate (iterative radix-2 Cooley–Tukey) used by
//! the Gaussian-random-field synthesizer. Power-of-two lengths only; the
//! GRF generator pads and crops around it.

/// A complex number; kept as a plain pair for tight loops.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    /// Constructs `re + i·im`.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    #[inline]
    fn mul(self, other: Complex) -> Complex {
        Complex {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    #[inline]
    fn add(self, other: Complex) -> Complex {
        Complex { re: self.re + other.re, im: self.im + other.im }
    }

    #[inline]
    fn sub(self, other: Complex) -> Complex {
        Complex { re: self.re - other.re, im: self.im - other.im }
    }
}

/// In-place FFT of a power-of-two-length buffer. `inverse` applies the
/// conjugate transform *and* the 1/n normalization, so
/// `fft(x, false); fft(x, true)` is the identity.
pub fn fft(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "fft length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            buf.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for j in 0..len / 2 {
                let u = buf[i + j];
                let v = buf[i + j + len / 2].mul(w);
                buf[i + j] = u.add(v);
                buf[i + j + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
    if inverse {
        let inv_n = 1.0 / n as f64;
        for c in buf.iter_mut() {
            c.re *= inv_n;
            c.im *= inv_n;
        }
    }
}

/// In-place 3D FFT over a row-major cube of power-of-two dims.
pub fn fft_3d(buf: &mut [Complex], dims: [usize; 3], inverse: bool) {
    assert_eq!(buf.len(), dims[0] * dims[1] * dims[2]);
    let max_dim = dims.iter().copied().max().unwrap();
    let mut line = vec![Complex::default(); max_dim];
    let strides = [1usize, dims[0], dims[0] * dims[1]];
    for axis in 0..3 {
        let n = dims[axis];
        if n <= 1 {
            continue;
        }
        let (a, b) = match axis {
            0 => (1, 2),
            1 => (0, 2),
            _ => (0, 1),
        };
        for jb in 0..dims[b] {
            for ja in 0..dims[a] {
                let base = ja * strides[a] + jb * strides[b];
                let stride = strides[axis];
                for (i, slot) in line[..n].iter_mut().enumerate() {
                    *slot = buf[base + i * stride];
                }
                fft(&mut line[..n], inverse);
                for (i, &v) in line[..n].iter().enumerate() {
                    buf[base + i * stride] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_inverse_identity() {
        let mut buf: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let orig = buf.clone();
        fft(&mut buf, false);
        fft(&mut buf, true);
        for (a, b) in orig.iter().zip(&buf) {
            assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn delta_transforms_to_constant() {
        let mut buf = vec![Complex::default(); 8];
        buf[0] = Complex::new(1.0, 0.0);
        fft(&mut buf, false);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_has_single_bin() {
        let n = 32;
        let k = 5;
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| {
                let ang = 2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        fft(&mut buf, false);
        for (i, c) in buf.iter().enumerate() {
            let mag = (c.re * c.re + c.im * c.im).sqrt();
            if i == k {
                assert!((mag - n as f64).abs() < 1e-9);
            } else {
                assert!(mag < 1e-9, "leak at bin {i}: {mag}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut buf: Vec<Complex> =
            (0..128).map(|i| Complex::new(((i * 13) % 17) as f64 - 8.0, 0.0)).collect();
        let time_energy: f64 = buf.iter().map(|c| c.re * c.re + c.im * c.im).sum();
        fft(&mut buf, false);
        let freq_energy: f64 =
            buf.iter().map(|c| c.re * c.re + c.im * c.im).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn fft_3d_roundtrip() {
        let dims = [8usize, 4, 2];
        let mut buf: Vec<Complex> = (0..64)
            .map(|i| Complex::new(i as f64, (i * i % 7) as f64))
            .collect();
        let orig = buf.clone();
        fft_3d(&mut buf, dims, false);
        fft_3d(&mut buf, dims, true);
        for (a, b) in orig.iter().zip(&buf) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }
}
