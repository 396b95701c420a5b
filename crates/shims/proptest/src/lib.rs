//! Offline stand-in for `proptest`.
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the slice of the proptest API the workspace's property tests use:
//!
//! * [`strategy::Strategy`] with `prop_map`, implemented for numeric
//!   ranges and tuples;
//! * [`collection::vec`] for variable-length vectors;
//! * the [`proptest!`] macro (named-ident `in` bindings, optional
//!   `#![proptest_config]` header);
//! * [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Failing cases are reported with their inputs via `Debug`, but there is
//! **no shrinking** — a failure prints the raw counterexample. Each test
//! derives its RNG seed from its name, so runs are deterministic.

pub mod strategy;

#[doc(hidden)]
pub use rand as __rand;

pub mod collection {
    //! Strategies for collections.
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy producing `Vec`s with lengths drawn from `size` and
    /// elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.random_range(self.size.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Test-run configuration and failure plumbing.

    /// Per-test configuration. Only the case count is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// A failed property, carrying the rendered assertion message.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Wraps an assertion message.
        pub fn fail(msg: String) -> Self {
            Self(msg)
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic seed derived from the test name (FNV-1a).
    pub fn seed_for(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate as prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Defines property tests: each `#[test] fn name(x in strategy, ...)`
/// item becomes a `#[test]` running `cases` random samples of the
/// strategies, with `prop_assert!`-style failures reported alongside the
/// sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;
     $(#[test] fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*
    ) => {$(
        #[test]
        fn $name() {
            let __config = $cfg;
            let __strats = ($($strat,)+);
            let mut __rng = <$crate::__rand::rngs::StdRng as $crate::__rand::SeedableRng>::seed_from_u64(
                $crate::test_runner::seed_for(stringify!($name)),
            );
            for __case in 0..__config.cases {
                let ($($arg,)+) =
                    $crate::strategy::TupleStrategy::sample_all(&__strats, &mut __rng);
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; ",)+),
                    $(&$arg,)+
                );
                let __result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(e) = __result {
                    panic!(
                        "property {} failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name), __case + 1, __config.cases, e, __inputs,
                    );
                }
            }
        }
    )*};
}

/// Asserts inside a property, failing the case (with its inputs) instead
/// of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}
