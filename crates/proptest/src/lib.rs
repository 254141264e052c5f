//! Vendored shim for the `proptest` crate.
//!
//! The build environment cannot reach a cargo registry, so the workspace
//! vendors the subset of proptest it uses: `Strategy` + combinators
//! (`prop_map`, tuples, ranges, `Just`, `prop_oneof!`), collection
//! strategies (`vec`, `btree_set`), `sample::select`, `bool::ANY`, the
//! `proptest!` macro with `#![proptest_config(..)]`, and the `prop_assert*`
//! macros.
//!
//! Differences from real proptest, by design:
//! - no shrinking: a failing case reports its deterministic seed instead;
//! - case generation is seeded from the test's module path + case index, so
//!   failures reproduce exactly on re-run;
//! - `prop_assert*` are plain `assert*` (a panic fails the test).

pub mod test_runner {
    /// Deterministic splitmix64-based RNG driving value generation.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn for_case(name: &str, case: u32) -> Self {
            // FNV-1a over the test name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                state: h ^ ((case as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            }
        }

        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            // splitmix64
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        #[inline]
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Multiply-shift reduction; bias is negligible for test sizes.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        pub fn bool(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }
    }

    /// Configuration for a `proptest!` block; only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 64,
                max_shrink_iters: 0,
            }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Default::default()
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values; the shimmed analogue of proptest's `Strategy`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// `prop_map` combinator.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Weighted union backing `prop_oneof!`.
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            let total = arms.iter().map(|(w, _)| *w as u64).sum::<u64>().max(1);
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            self.arms.last().expect("empty prop_oneof").1.generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if span == 0 {
                        // Full u64 domain: any value works.
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    signed_range_strategy!(i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
    }
}

pub mod arbitrary {
    use crate::test_runner::TestRng;

    /// Default generation for bare typed args in `proptest!` signatures.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.bool()
        }
    }

    impl<T: Arbitrary> Arbitrary for Vec<T> {
        fn arbitrary(rng: &mut TestRng) -> Vec<T> {
            let len = rng.below(256) as usize;
            (0..len).map(|_| T::arbitrary(rng)).collect()
        }
    }

    impl Arbitrary for String {
        fn arbitrary(rng: &mut TestRng) -> String {
            let len = rng.below(64) as usize;
            (0..len)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect()
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Length specification: a `usize` range or an exact size.
    pub trait SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<i32> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let r = (self.start.max(0) as usize)..(self.end.max(0) as usize);
            Strategy::generate(&r, rng)
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: Box<dyn SizeRange>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl SizeRange + 'static) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: Box::new(size),
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Box<dyn SizeRange>,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = BTreeSet::new();
            // Bounded attempts: small element domains may not reach `target`.
            for _ in 0..target.saturating_mul(8).max(16) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.element.generate(rng));
            }
            out
        }
    }

    pub fn btree_set<S: Strategy>(element: S, size: impl SizeRange + 'static) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: Box::new(size),
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.bool()
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.items.is_empty(), "select from empty set");
            self.items[rng.below(self.items.len() as u64) as usize].clone()
        }
    }

    /// Uniformly pick one of the given items.
    pub fn select<T: Clone>(items: impl Into<Vec<T>>) -> Select<T> {
        Select {
            items: items.into(),
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Bind one `proptest!` argument: either `pat in strategy` or `name: Type`.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $name:ident : $ty:ty) => {
        let $name: $ty = <$ty as $crate::arbitrary::Arbitrary>::arbitrary($rng);
    };
    ($rng:ident; $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name: $ty = <$ty as $crate::arbitrary::Arbitrary>::arbitrary($rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $pat:pat_param in $strat:expr) => {
        let $pat = $crate::strategy::Strategy::generate(&($strat), $rng);
    };
    ($rng:ident; $pat:pat_param in $strat:expr, $($rest:tt)*) => {
        let $pat = $crate::strategy::Strategy::generate(&($strat), $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
}

/// Shimmed `proptest!` block: runs each test for `config.cases` deterministic
/// cases, or `PROPTEST_CASES` when that is set. No shrinking; the case
/// index printed on failure reproduces it.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)]
     $($(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                let __cases = ::std::env::var("PROPTEST_CASES").ok().and_then(|n| n.parse().ok());
                for __case in 0..__cases.unwrap_or(__config.cases) {
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    let __rng = &mut __rng;
                    $crate::__proptest_bind!(__rng; $($args)*);
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($rest)*
        }
    };
}

/// Weighted (or unweighted) choice between strategies producing one type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism_per_case() {
        let mut a = crate::test_runner::TestRng::for_case("t", 3);
        let mut b = crate::test_runner::TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let v = Strategy::generate(&(10u16..300), &mut rng);
            assert!((10..300).contains(&v));
            let w = Strategy::generate(&(b'a'..=b'f'), &mut rng);
            assert!((b'a'..=b'f').contains(&w));
        }
    }

    #[test]
    fn oneof_weights_cover_all_arms() {
        let mut rng = crate::test_runner::TestRng::for_case("oneof", 0);
        let s = prop_oneof![3 => Just(1u8), 1 => Just(2u8)];
        let mut seen = [0u32; 3];
        for _ in 0..500 {
            seen[Strategy::generate(&s, &mut rng) as usize] += 1;
        }
        assert!(seen[1] > seen[2]);
        assert!(seen[2] > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_end_to_end(
            mut xs in crate::collection::vec(0u8..10, 1..20),
            flag in crate::bool::ANY,
            label: u32,
        ) {
            if flag {
                xs.push(0);
            }
            prop_assert!(!xs.is_empty());
            prop_assert_eq!(label, label);
            prop_assert_ne!(xs.len(), 0);
        }
    }
}
