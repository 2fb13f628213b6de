//! Tests of the outer framing (kept out of `outer.rs`, which the panic
//! audit reads whole).

use super::*;
use crate::container::read_container;
use crate::{Sperr, SperrConfig};
use sperr_compress_api::{Bound, Field, LossyCompressor};
use sperr_exec::stress::{ReverseOrder, StripedWorkers};
use sperr_exec::Exec;

/// A few SLZ1 blocks' worth of bytes, some that code and some that
/// store (so block sizes differ and ordering mistakes show).
fn blocky_bytes() -> Vec<u8> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut data = Vec::new();
    for block in 0..5 {
        for i in 0..128 * 1024 + 777 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.push(if block % 2 == 0 { x as u8 } else { (i % 61) as u8 });
        }
    }
    data
}

#[test]
fn lossless_pass_is_byte_identical_under_any_executor_and_pool_width() {
    let data = blocky_bytes();
    let serial = sperr_lossless::compress(&data);
    // The adversarial executors the wavelet drivers are held to:
    // reversed job order, and jobs striped over worker slots.
    let executors: [&dyn Exec; 3] = [&ReverseOrder, &StripedWorkers(3), &StripedWorkers(7)];
    for exec in executors {
        let mut packed = Vec::new();
        sperr_lossless::compress_with(&data, exec, &mut Default::default(), &mut packed);
        assert!(packed == serial, "executor of width {}", exec.width());
    }
    // The real pool, as the compress drivers use it.
    for threads in [1usize, 2, 7] {
        let framed = WorkerPool::scoped(threads, |pool| {
            wrap_outer(&data, true, pool, &mut Default::default())
        });
        assert_eq!(framed[0], OUTER_LOSSLESS);
        assert!(framed[1..] == serial[..], "{threads} threads");
    }
}

#[test]
fn framed_access_agrees_with_whole_container_reads() {
    let field = Field::from_fn([40, 36, 28], |x, y, z| {
        (x as f64 * 0.3).sin() * 40.0 + (y * z) as f64 * 0.01 + ((x ^ y ^ z) % 7) as f64
    });
    for lossless in [false, true] {
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            lossless,
            num_threads: 1,
            ..SperrConfig::default()
        });
        let stream = sperr.compress(&field, Bound::Pwe(1e-6)).unwrap();
        assert_eq!(stream[0], if lossless { OUTER_LOSSLESS } else { OUTER_RAW });
        let container = if lossless {
            sperr_lossless::decompress(&stream[1..]).unwrap()
        } else {
            stream[1..].to_vec()
        };
        let framed = Framed::open(&stream).unwrap();
        assert_eq!(framed.lossless(), lossless);
        assert_eq!(framed.container_len(), container.len());

        // Head: same parse as from the whole container.
        let (head, whole) = (framed.read_head().unwrap(), read_container(&container).unwrap());
        assert_eq!(head.payload_start, whole.payload_start);
        assert_eq!(head.chunk_crcs, whole.chunk_crcs);
        assert_eq!(head.index, whole.index);
        assert_eq!(head.entries.len(), whole.entries.len());

        // Payload ranges, in scrambled order and overlapping.
        let len = container.len();
        let ranges = [len - 100..len, 50..90, len / 2..len / 2 + 3000, 60..70, 7..7];
        let executors: [&dyn Exec; 3] = [&Serial, &ReverseOrder, &StripedWorkers(3)];
        for exec in executors {
            let fetched = framed.fetch(&ranges, exec).unwrap();
            assert_eq!(matches!(fetched, Fetched::Raw(_)), !lossless, "raw is borrowed");
            for r in ranges.clone() {
                assert_eq!(fetched.get(r.clone()).unwrap(), &container[r]);
            }
        }
    }
}
