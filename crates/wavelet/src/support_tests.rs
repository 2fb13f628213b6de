//! Unit tests of [`crate::support`], kept apart so the audited file
//! holds no `assert`.

use crate::support::*;
use crate::{coarse_dims, levels_for_dims};

#[test]
fn the_whole_volume_needs_every_coefficient_and_line() {
    for dims in [[16usize, 16, 16], [21, 10, 11], [61, 1, 1], [1, 1, 1]] {
        let levels = levels_for_dims(dims);
        let full = Support::new(dims, levels, 0, None);
        assert!(full.is_everything(), "{dims:?}");
        assert_eq!(Support::new(dims, levels, 0, Some(([0; 3], dims))), full);
        for step in full.steps() {
            assert_eq!(step.lines, step.cur.map(|c| 0..c), "{dims:?}");
        }
    }
}

#[test]
fn a_coarse_level_needs_exactly_its_corner() {
    let dims = [24usize, 16, 12];
    let levels = levels_for_dims(dims);
    for skip in 1..=2 {
        let s = Support::new(dims, levels, skip, None);
        let corner = coarse_dims(dims, levels, skip);
        assert_eq!(s.coefficients(), corner.iter().product::<usize>());
        assert!(s.steps().iter().all(|step| step.level >= skip));
    }
}

#[test]
fn boxes_are_disjoint_and_the_bitmap_counts_them() {
    let dims = [40usize, 33, 17];
    let s = Support::new(dims, levels_for_dims(dims), 0, Some(([9, 20, 3], [14, 21, 9])));
    let bits = s.keep_bitmap().unwrap();
    let set: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
    assert_eq!(set, s.coefficients(), "overlapping boxes");
    assert!(s.coefficients() < dims.iter().product::<usize>());
}

#[test]
fn empty_and_out_of_range_boxes_need_nothing() {
    let dims = [16usize, 16, 16];
    let levels = levels_for_dims(dims);
    for region in [([3, 3, 3], [3, 9, 9]), ([20, 0, 0], [30, 16, 16]), ([5, 5, 5], [2, 2, 2])] {
        let s = Support::new(dims, levels, 0, Some(region));
        assert_eq!(s.coefficients(), 0, "{region:?}");
        assert!(s.steps().iter().all(|step| step.lines.iter().all(|r| r.is_empty())));
    }
}

#[test]
fn set_bits_crosses_words() {
    let mut words = [0u64; 3];
    set_bits(&mut words, 60..130);
    assert_eq!(words, [0xF << 60, u64::MAX, 0b11]);
    set_bits(&mut words, 190..400); // past the end: ignored
    assert_eq!(words[2], 0b11 | (u64::MAX << 62));
}
