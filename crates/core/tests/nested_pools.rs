//! A `Sperr` used inside a job of another worker pool — an application
//! that maps its own work over a pool and compresses or reads in each job
//! — runs on its own pool, with that pool's worker indices, and gives the
//! bytes and samples it gives at the top level.

use sperr_compress_api::{Bound, Field, LossyCompressor};
use sperr_core::{OnDamage, ReadRequest, Sperr, SperrConfig, WorkerPool};

#[test]
fn a_sperr_inside_another_pools_job_matches_the_top_level() {
    // 8 chunks of 16³, so the read's own 2-thread pool fans out.
    let field = Field::from_fn([32, 32, 32], |x, y, z| {
        (x as f64 * 0.3).sin() * 20.0 + (y as f64 * 0.2).cos() * 10.0 + z as f64 * 0.5
    });
    let sperr = Sperr::new(SperrConfig {
        chunk_dims: [16, 16, 16],
        num_threads: 2,
        ..SperrConfig::default()
    });
    let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
    let read = || sperr.read::<f64>(&stream, ReadRequest::Full, OnDamage::Fail).unwrap();
    let want: Vec<u64> = read().field.data.iter().map(|v| v.to_bits()).collect();
    WorkerPool::scoped(4, |outer| {
        outer.run(8, &|_, _| {
            assert!(sperr.compress(&field, Bound::Pwe(1e-3)).unwrap() == stream);
            assert!(read().field.data.iter().map(|v| v.to_bits()).eq(want.iter().copied()));
        });
    });
}
