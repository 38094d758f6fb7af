//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this path crate
//! re-implements the subset of proptest the workspace uses: range, tuple
//! and `collection::vec` strategies, `prop_map`/`prop_flat_map`
//! composition, and the `proptest!`/`prop_assert*` macros. Cases are
//! generated from a deterministic per-test seed; there is no shrinking —
//! on failure the macro reports the case index, the seed, and the `Debug`
//! form of the generated inputs, which is enough to reproduce exactly.

use rand::rngs::StdRng;

// Re-exported so the `proptest!` macro can reach the RNG traits through
// `$crate` regardless of the caller's own dependency list.
#[doc(hidden)]
pub use rand;

/// Re-export so `proptest::strategy::Strategy` paths resolve.
pub mod strategy {
    pub use crate::Strategy;
}

/// The generation source handed to strategies.
pub type TestRng = StdRng;

/// A recipe for generating random values of `Self::Value`.
///
/// Unlike the real proptest there is no value-tree/shrinking machinery:
/// `generate` directly produces a value from the RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value: Clone + std::fmt::Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Clone + std::fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// out of it (dependent generation).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Copy, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Clone + std::fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Copy, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
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
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields the same value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategies {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64, f32);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
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
impl_tuple_strategy!(A, B, C, D, E, G);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Sizes accepted by [`vec()`]: a fixed length or a length range.
    pub trait IntoSizeRange {
        /// Samples a concrete length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng, self.clone())
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng, self.clone())
        }
    }

    /// A strategy producing `Vec`s of `element` values with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Uniformly random booleans.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The canonical instance, mirroring `proptest::bool::ANY`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rand::Rng::gen_bool(rng, 0.5)
        }
    }
}

/// Runner configuration (`proptest::test_runner::ProptestConfig`).
pub mod test_runner {
    /// How many cases each property runs. Only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }
}

/// Everything a test normally imports.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{Just, Strategy};
}

/// Deterministic per-test seed: FNV-1a over the test's name, so adding or
/// reordering sibling tests never changes a test's case stream.
#[must_use]
pub fn seed_for(test_name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_cfg ($cfg) $($rest)*);
    };
    (@with_cfg ($cfg:expr)
        $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                let seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
                let strat = ($($strat,)+);
                for case in 0..config.cases {
                    let mut rng = <$crate::TestRng as $crate::rand::SeedableRng>::seed_from_u64(
                        seed ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let value = $crate::Strategy::generate(&strat, &mut rng);
                    let ($($pat,)+) = ::std::clone::Clone::clone(&value);
                    let outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err(e) if e == $crate::ASSUME_REJECTED => {}
                        ::std::result::Result::Err(e) => {
                            panic!(
                                "property {} failed at case {case} (seed {seed:#x}):\n{e}\ninputs: {:?}",
                                stringify!($name),
                                value,
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Sentinel distinguishing `prop_assume!` rejections from real failures.
pub const ASSUME_REJECTED: &str = "__proptest_shim_assume_rejected__";

/// Asserts inside `proptest!` bodies; failures report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Equality assertion inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Inequality assertion inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::ASSUME_REJECTED.to_string());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn evens() -> impl Strategy<Value = u64> {
        (0u64..100).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -4i8..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn mapped_strategies_compose(e in evens()) {
            prop_assert_eq!(e % 2, 0);
        }

        #[test]
        fn flat_map_dependent_generation(v in (1usize..8).prop_flat_map(|n| crate::collection::vec(0usize..n, n))) {
            let n = v.len();
            prop_assert!(v.iter().all(|&x| x < n));
        }

        #[test]
        fn assume_skips_cases(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }

        #[test]
        fn tuples_and_bools(pair in (0u32..5, crate::bool::ANY)) {
            prop_assert!(pair.0 < 5);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::Strategy;
        let strat = (0u64..1000, crate::collection::vec(0u8..9, 1..5));
        let seed = crate::seed_for("determinism-check");
        let mut a = <crate::TestRng as rand::SeedableRng>::seed_from_u64(seed);
        let mut b = <crate::TestRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..50 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failures_report_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(_x in 0u32..4) {
                prop_assert!(false, "intentional");
            }
        }
        always_fails();
    }
}
