//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access and no vendored registry,
//! so this crate implements the subset of proptest's API the workspace's
//! property tests use: the `proptest!` macro, `prop_assert*`/`prop_assume`,
//! `Strategy` with `prop_map`/`prop_flat_map`/`boxed`, range and tuple
//! strategies, `Just`, `any`, `prop_oneof!`, and `prop::collection::
//! {vec, btree_set}`.
//!
//! Differences from real proptest, by design:
//! - Cases are generated from a seed derived from the test's module path
//!   and name, so every run explores the same inputs (CI-reproducible).
//! - No shrinking: a failing case reports its case index and seed instead
//!   of a minimized input.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic SplitMix64 generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a fixed seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, span)` for `1 <= span <= 2^64` (Lemire's
    /// multiply-shift; bias is negligible at these spans).
    #[inline]
    pub fn below(&mut self, span: u128) -> u128 {
        debug_assert!(span >= 1 && span <= 1u128 << 64);
        (self.next_u64() as u128 * span) >> 64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a hash used to derive per-test seeds from test names.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Test-case plumbing
// ---------------------------------------------------------------------------

/// Why a generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed: the property is violated.
    Fail(String),
    /// The case was rejected by `prop_assume!`; try another input.
    Reject(String),
}

/// Result type the `proptest!`-generated case closure returns.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration (`cases` is the only knob this workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` accepted cases, times the positive integer
    /// in `SPERR_PROPTEST_SCALE` (1 when unset): one knob that deepens
    /// every property test of a run, e.g. in a release-mode CI lane.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases: cases.saturating_mul(case_scale()) }
    }
}

/// `SPERR_PROPTEST_SCALE`, read once per test. A value that is not a
/// positive integer fails the test rather than silently running the
/// default counts.
fn case_scale() -> u32 {
    match std::env::var("SPERR_PROPTEST_SCALE") {
        Err(_) => 1,
        Ok(v) => match v.trim().parse::<u32>() {
            Ok(scale) if scale > 0 => scale,
            _ => panic!("SPERR_PROPTEST_SCALE must be a positive integer, got {v:?}"),
        },
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { source: self, f }
    }

    /// Erases the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe view of [`Strategy`] backing [`BoxedStrategy`].
trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.source.generate(rng)).generate(rng)
    }
}

/// Uniform choice among boxed alternatives (backs `prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; `options` must be non-empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u128) as usize;
        self.options[i].generate(rng)
    }
}

// Integer range strategies -------------------------------------------------

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u128;
                assert!(span > 0, "empty integer range strategy");
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// Float range strategies ---------------------------------------------------

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty float range strategy");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty float range strategy");
        lo + rng.unit_f64() * (hi - lo)
    }
}

// Tuple strategies ---------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

// ---------------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------------

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy type returned by [`any`].
    type Strategy: Strategy<Value = Self>;
    /// The canonical full-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-domain strategy for a primitive type.
pub struct AnyPrimitive<T>(PhantomData<T>);

macro_rules! impl_arbitrary_prim {
    ($($t:ty => $gen:expr),* $(,)?) => {$(
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let f: fn(&mut TestRng) -> $t = $gen;
                f(rng)
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyPrimitive(PhantomData)
            }
        }
    )*};
}
impl_arbitrary_prim! {
    bool => |r| r.next_u64() & 1 == 1,
    u8 => |r| r.next_u64() as u8,
    u16 => |r| r.next_u64() as u16,
    u32 => |r| r.next_u64() as u32,
    u64 => |r| r.next_u64(),
    usize => |r| r.next_u64() as usize,
    i8 => |r| r.next_u64() as i8,
    i16 => |r| r.next_u64() as i16,
    i32 => |r| r.next_u64() as i32,
    i64 => |r| r.next_u64() as i64,
}

/// The canonical strategy producing any value of `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies (`prop::collection::*` in real proptest).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive size bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            let hi = r.end.saturating_sub(1).max(r.start);
            SizeRange { lo: r.start, hi }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: (*r.end()).max(*r.start()) }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo + 1) as u128) as usize
        }
    }

    /// `Vec` of values from `element`, length within `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet` of values from `element`; aims for a size within `size`
    /// but may return fewer elements if the domain is too small (matching
    /// proptest's best-effort semantics).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < target && attempts < target * 10 + 100 {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                left,
                right,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Fails the current case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
}

/// Discards the current case (without failing) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ...)`
/// runs `cases` deterministic inputs through its body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ($config:expr; $(
        #[test]
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let seed = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            let mut rng = $crate::TestRng::new(seed);
            let mut accepted: u32 = 0;
            let mut attempts: u64 = 0;
            let max_attempts = config.cases as u64 * 20 + 100;
            while accepted < config.cases {
                attempts += 1;
                if attempts > max_attempts {
                    panic!(
                        "proptest '{}': too many rejected cases ({} accepted of {} wanted)",
                        stringify!($name), accepted, config.cases
                    );
                }
                $(let $pat = $crate::Strategy::generate(&($strategy), &mut rng);)+
                let outcome: $crate::TestCaseResult = (|| {
                    $body;
                    ::core::result::Result::Ok(())
                })();
                match outcome {
                    ::core::result::Result::Ok(()) => accepted += 1,
                    ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => continue,
                    ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => panic!(
                        "proptest '{}' failed at case {} (seed {:#x}): {}",
                        stringify!($name), accepted, seed, msg
                    ),
                }
            }
        }
    )*};
}

// ---------------------------------------------------------------------------
// Prelude
// ---------------------------------------------------------------------------

/// Glob-import surface matching `proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::generate(&(5usize..=5), &mut rng);
            assert_eq!(w, 5);
            let f = Strategy::generate(&(-2.0f64..3.5), &mut rng);
            assert!((-2.0..3.5).contains(&f));
        }
    }

    #[test]
    fn union_picks_all_arms() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::TestRng::new(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(Strategy::generate(&s, &mut rng));
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn collections_respect_sizes() {
        let mut rng = crate::TestRng::new(3);
        for _ in 0..100 {
            let v = Strategy::generate(&prop::collection::vec(0u8..255, 2..7), &mut rng);
            assert!((2..7).contains(&v.len()));
            let s = Strategy::generate(&prop::collection::btree_set(0usize..50, 0..10), &mut rng);
            assert!(s.len() < 10);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_tuples((a, b) in (0u32..10, 10u32..20), c in 0i64..5) {
            prop_assert!(a < 10);
            prop_assert!((10..20).contains(&b));
            prop_assert!(c < 5, "c was {}", c);
            prop_assert_eq!(a + b - b, a);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn failing_case_produces_fail_error() {
        // The closure shape generated by `proptest!`: a false property
        // yields `TestCaseError::Fail` with the formatted message.
        let case = || -> TestCaseResult {
            let x = 3u32;
            prop_assert!(x > 100, "x is only {}", x);
            Ok(())
        };
        match case() {
            Err(TestCaseError::Fail(msg)) => assert!(msg.contains("x is only 3")),
            other => panic!("expected Fail, got {other:?}"),
        }
    }
}
