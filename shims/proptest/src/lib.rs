//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The build environment has no access to crates.io, so the real proptest
//! cannot be vendored. This shim keeps the workspace's property tests
//! running with the same syntax — `proptest! { #[test] fn p(x in strat)
//! {..} }`, range/tuple/`Just`/`prop_oneof!`/`collection::vec` strategies,
//! `prop_map`, `any::<T>()`, `prop_assert*!` and `prop_assume!` — with two
//! simplifications: cases are generated from a deterministic per-test seed
//! (the FNV hash of the test name), and failing inputs are reported but
//! **not shrunk**.

// Vendored stand-in: exempt from the workspace's no-panic lint walls.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use rand::rngs::StdRng;
use rand::{Rng, SampleRange, SeedableRng, Standard};

/// The deterministic generator handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> TestRng {
        TestRng(StdRng::seed_from_u64(seed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.gen::<u64>()
    }

    /// Samples from the standard distribution.
    pub fn gen<T: Standard>(&mut self) -> T {
        self.0.gen::<T>()
    }

    /// Samples uniformly from a range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        self.0.gen_range(range)
    }
}

/// How a test case ended short of success.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the input; try another.
    Reject,
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// Creates a rejection.
    pub fn reject(_reason: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject
    }
}

/// Test-runner configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
    /// Maximum `prop_assume!` rejections before giving up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64, max_global_rejects: 4096 }
    }
}

impl ProptestConfig {
    /// A config running `cases` successful cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases, ..ProptestConfig::default() }
    }
}

/// FNV-1a over the test name: a stable per-test seed.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `body` for `config.cases` successful cases with deterministic
/// inputs derived from `name`. Called by the [`proptest!`] expansion.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) on the first failed case, or
/// when the assume-rejection budget is exhausted.
pub fn run_cases(
    name: &str,
    config: &ProptestConfig,
    mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let mut rng = TestRng::seed_from_u64(fnv1a(name));
    let mut done = 0u32;
    let mut rejects = 0u32;
    let mut case_index = 0u64;
    while done < config.cases {
        case_index += 1;
        match body(&mut rng) {
            Ok(()) => done += 1,
            Err(TestCaseError::Reject) => {
                rejects += 1;
                assert!(
                    rejects <= config.max_global_rejects,
                    "proptest {name}: too many prop_assume! rejections \
                     ({rejects} while looking for {} cases)",
                    config.cases
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest {name}: case #{case_index} failed: {msg}");
            }
        }
    }
}

/// A generation strategy: how to produce values of [`Strategy::Value`].
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps produced values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (needed by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(::std::rc::Rc::new(self))
    }
}

/// Object-safe sampling, behind [`BoxedStrategy`].
trait DynStrategy<V> {
    fn sample_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased strategy. Cloning shares the underlying strategy.
pub struct BoxedStrategy<V>(std::rc::Rc<dyn DynStrategy<V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> BoxedStrategy<V> {
        BoxedStrategy(self.0.clone())
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        self.0.sample_dyn(rng)
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy producing a single constant value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed alternatives — the [`prop_oneof!`] backend.
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Clone for Union<V> {
    fn clone(&self) -> Union<V> {
        Union { arms: self.arms.clone() }
    }
}

impl<V> Union<V> {
    /// Creates a union over `arms`.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].sample(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a canonical [`any`] strategy.
pub trait Arbitrary: Sized {
    /// Samples an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_via_standard {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.gen::<$t>()
            }
        }
    )*};
}
arbitrary_via_standard!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64);

/// The canonical strategy for `T` (`any::<T>()`).
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Length specifications accepted by [`vec()`].
    pub trait SizeRange {
        /// Samples a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// A strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates vectors of `element` with lengths in `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

/// The property-test declaration macro (see crate docs for the supported
/// grammar).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::run_cases(stringify!($name), &__config, |__rng| {
                $crate::__proptest_bind!{ __rng $($params)* }
                $body
                Ok(())
            });
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: binds one parameter per step.
/// `arg in strategy` samples the strategy; `arg: Type` samples
/// `any::<Type>()`.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident) => {};
    ($rng:ident,) => {};
    ($rng:ident $arg:ident in $strat:expr, $($rest:tt)*) => {
        let $arg = $crate::Strategy::sample(&($strat), $rng);
        $crate::__proptest_bind!{ $rng $($rest)* }
    };
    ($rng:ident $arg:ident in $strat:expr) => {
        let $arg = $crate::Strategy::sample(&($strat), $rng);
    };
    ($rng:ident $arg:ident : $ty:ty, $($rest:tt)*) => {
        let $arg = $crate::Strategy::sample(&$crate::any::<$ty>(), $rng);
        $crate::__proptest_bind!{ $rng $($rest)* }
    };
    ($rng:ident $arg:ident : $ty:ty) => {
        let $arg = $crate::Strategy::sample(&$crate::any::<$ty>(), $rng);
    };
    ($rng:ident $arg:pat in $strat:expr, $($rest:tt)*) => {
        let $arg = $crate::Strategy::sample(&($strat), $rng);
        $crate::__proptest_bind!{ $rng $($rest)* }
    };
    ($rng:ident $arg:pat in $strat:expr) => {
        let $arg = $crate::Strategy::sample(&($strat), $rng);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the operands compare equal. A custom
/// message follows both operands' values, as in upstream proptest.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: {} == {} (left: {:?}, right: {:?})",
                    stringify!($a), stringify!($b), __l, __r
                );
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: `(left == right)`\n  left: `{:?}`,\n right: `{:?}`: {}",
                    __l, __r, format!($($fmt)+)
                );
            }
        }
    };
}

/// Fails the current case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l != *__r,
                    "assertion failed: {} != {} (both: {:?})",
                    stringify!($a),
                    stringify!($b),
                    __l
                );
            }
        }
    };
}

/// Rejects the current case (the runner draws a fresh input) unless `cond`
/// holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies producing a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

pub mod prelude {
    //! The customary glob import.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Tag {
        A,
        B(u8),
    }

    proptest! {
        #[test]
        fn ranges_and_tuples(x in 0u32..10, (a, b) in (0i64..5, -2.0f64..2.0)) {
            prop_assert!(x < 10);
            prop_assert!((0..5).contains(&a));
            prop_assert!((-2.0..2.0).contains(&b));
        }

        #[test]
        fn vec_and_any(v in crate::collection::vec(any::<u8>(), 1..16)) {
            prop_assert!(!v.is_empty() && v.len() < 16);
        }

        #[test]
        fn oneof_and_map(t in prop_oneof![Just(Tag::A), (0u8..9).prop_map(Tag::B)]) {
            match t {
                Tag::A => {}
                Tag::B(x) => prop_assert!(x < 9),
            }
        }

        #[test]
        fn assume_rejects(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        #[test]
        fn config_is_respected(_x in 0u8..255) {
            // Five cases only; nothing to assert beyond reaching here.
        }
    }

    #[test]
    fn deterministic_inputs_per_name() {
        let mut first = Vec::new();
        crate::run_cases("stable", &ProptestConfig::with_cases(10), |rng| {
            first.push(rng.next_u64());
            Ok(())
        });
        let mut second = Vec::new();
        crate::run_cases("stable", &ProptestConfig::with_cases(10), |rng| {
            second.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "left: `1`,\n right: `2`: geometry 7")]
    fn eq_with_a_message_reports_both_values() {
        crate::run_cases("eq_message", &ProptestConfig::with_cases(1), |_rng| {
            prop_assert_eq!(1, 2, "geometry {}", 7);
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "case #")]
    fn failures_panic_with_case_number() {
        crate::run_cases("always_fails", &ProptestConfig::with_cases(3), |_rng| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
