//! Offline stand-in for `proptest`.
//!
//! The build environment has no registry access, so this crate provides
//! the subset of the proptest API the workspace's property tests use:
//! the [`proptest!`] / [`prop_assert!`] / [`prop_assume!`] / [`prop_oneof!`]
//! macros, integer-range / `any` / tuple / `Just` / `prop_map` /
//! [`collection::vec`] strategies, and a [`test_runner::TestRunner`] that
//! samples cases from a **deterministic** RNG: every case has its own
//! 64-bit seed, so failures reproduce run-to-run and are identified by a
//! single `cc <seed>` token. `tests/*.proptest-regressions` files are
//! honoured like upstream — stored seeds are replayed before fresh cases
//! and a fresh failure appends its seed to the file (check it in). Two
//! differences from upstream: no shrinking — the failing input is
//! printed in full instead, and regressions worth a narrative are also
//! ported into ordinary `#[test]`s; and `PROPTEST_CASES` overrides every
//! property's case count, including one set with
//! `ProptestConfig::with_cases`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// `Vec` strategy: each element from `elem`, length uniform in `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything a property-test module needs (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Property-test entry point. Accepts the upstream form: an optional
/// `#![proptest_config(...)]` header followed by `#[test] fn name(args in
/// strategies) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(@cfg($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            // Wire regression persistence to this property's source file,
            // like upstream's macro does.
            let config = $crate::test_runner::ProptestConfig {
                source_file: ::core::option::Option::Some(::core::file!()),
                ..config
            };
            let strategy = ($($strat,)+);
            let mut runner = $crate::test_runner::TestRunner::new(config);
            runner.run(&strategy, |($($pat,)+)| {
                $body
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_impl!(@cfg($cfg) $($rest)*);
    };
}

/// Fail the current case with a formatted message if `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current case if the two expressions are not equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    left,
                    right
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "{}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)+),
                    left,
                    right
                ),
            ));
        }
    }};
}

/// Fail the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            )));
        }
    }};
}

/// Discard the current case (generate a fresh one) if `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Weighted (or unweighted) choice between strategies producing the same
/// value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $( ($weight as u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $( (1u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
}
