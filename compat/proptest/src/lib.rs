//! Offline stand-in for `proptest`, exposing the subset of its API this
//! workspace uses: `proptest!`, `prop_assert!`, `prop_assert_eq!`,
//! `any::<T>()`, integer-range strategies, tuple strategies,
//! `collection::vec`, `prop_map`, and `ProptestConfig::with_cases`.
//!
//! Inputs are generated from a deterministic SplitMix64 stream seeded
//! per (test name, case index), so failures reproduce exactly across
//! runs. There is no shrinking: a failing case panics with the values
//! visible in the assertion message.
//!
//! Vendored because the build environment has no network access to
//! crates.io; wired in via `[patch.crates-io]` in the workspace root.

pub mod test_runner {
    /// Per-test configuration (subset: case count only).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic SplitMix64 generator.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from the test name and case index so each case draws an
        /// independent, reproducible stream.
        pub fn for_case(test_name: &str, case: u32) -> TestRng {
            // FNV-1a over the name, mixed with the case index.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                state: h ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Modulo bias is irrelevant for test-input generation.
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream proptest there is no value tree or shrinking;
    /// `generate` draws a value directly from the RNG stream.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.source.generate(rng))
        }
    }

    /// A type-erased generator arm of a [`Union`].
    pub type UnionArm<T> = Box<dyn Fn(&mut TestRng) -> T>;

    /// Strategy choosing uniformly among alternatives, built by the
    /// [`prop_oneof!`](crate::prop_oneof) macro. The arms are erased to
    /// generator closures so heterogeneous strategy types can mix, as
    /// long as they produce the same value type.
    pub struct Union<T> {
        options: Vec<UnionArm<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<UnionArm<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            (self.options[i])(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as u64).wrapping_sub(self.start as u64);
                    (self.start as u64).wrapping_add(rng.below(width)) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                    ((self.start as i64).wrapping_add(rng.below(width) as i64)) as $t
                }
            }
        )*};
    }
    signed_range_strategy!(i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
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
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Any<T> {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `T`'s whole domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Element-count specification for [`vec()`]: an exact size or range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.size.lo < self.size.hi, "empty size range");
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates `Vec`s of `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Picks uniformly among the given strategies (upstream's weighted form
/// is not supported). Arms may be different strategy types as long as
/// they generate the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        $crate::strategy::Union::new(vec![
            $({
                let __s = $arm;
                Box::new(move |__rng: &mut $crate::test_runner::TestRng| {
                    $crate::strategy::Strategy::generate(&__s, __rng)
                }) as Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>
            }),+
        ])
    }};
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), __case);
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    (($cfg:expr);) => {};
}

/// Asserts a condition inside a property test (panics on failure; this
/// shim has no shrinking, so it is equivalent to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pairs() -> impl Strategy<Value = Vec<(u8, bool)>> {
        crate::collection::vec((any::<u8>(), any::<bool>()), 0..10)
    }

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u8..7, y in 1u64..1000, n in 0usize..5) {
            prop_assert!((3..7).contains(&x));
            prop_assert!((1..1000).contains(&y));
            prop_assert!(n < 5);
        }

        #[test]
        fn vec_sizes_respect_spec(v in crate::collection::vec(any::<u8>(), 4), mut w in arb_pairs()) {
            prop_assert_eq!(v.len(), 4);
            prop_assert!(w.len() < 10);
            w.clear();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_cases_apply(x in 0u32..10) {
            prop_assert!(x < 10);
        }
    }

    proptest! {
        #[test]
        fn oneof_draws_only_from_its_arms(
            x in prop_oneof![Just(2u32), Just(5u32), 10u32..12],
        ) {
            prop_assert!([2u32, 5, 10, 11].contains(&x), "{x}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::TestRng::for_case("t", 3);
        let mut b = crate::test_runner::TestRng::for_case("t", 3);
        let s = crate::collection::vec(any::<u64>(), 0..20);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
