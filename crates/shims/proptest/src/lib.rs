//! Offline shim for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so the workspace vendors a
//! generate-only property-testing harness with proptest's macro surface:
//! `proptest! { #![proptest_config(...)] #[test] fn f(x in strat) {...} }`,
//! `prop_assert!`/`prop_assert_eq!`, `prop_oneof!`, `Just`, `any::<T>()`,
//! range/tuple/char-class strategies, `prop::collection::vec`, and
//! `prop::sample::select`.
//!
//! Differences from upstream, deliberate:
//! * **No shrinking.** A failing case panics with the full `Debug` dump of
//!   its generated inputs instead of a minimized one.
//! * **Deterministic seeding.** Case RNGs derive from the test path and
//!   case index, so failures reproduce without `.proptest-regressions`
//!   persistence (existing regression files are simply ignored).
//! * Fewer default cases (64) — generation dominates runtime without
//!   shrinking, and the suites here also cap cases explicitly.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod sample;
pub mod strategy;
pub mod test_runner;

pub use test_runner::ProptestConfig;

/// Everything the standard `use proptest::prelude::*;` import provides.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop::` namespace (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Define property tests.
///
/// Each case draws every input from its strategy, then runs the body;
/// `prop_assert*` failures and panics abort the test with the offending
/// inputs printed.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let __test_path = concat!(module_path!(), "::", stringify!($name));
            let mut __rejects: u32 = 0;
            let mut __case: u64 = 0;
            let mut __done: u32 = 0;
            while __done < config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(__test_path, __case);
                __case += 1;
                let __vals = ( $( $crate::strategy::Strategy::generate(&($strat), &mut __rng), )+ );
                let __input_dump = format!("{:#?}", __vals);
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| -> $crate::test_runner::TestCaseResult {
                        let ( $($pat,)+ ) = __vals;
                        $body
                        ::std::result::Result::Ok(())
                    }),
                );
                match __outcome {
                    Ok(Ok(())) => { __done += 1; }
                    Ok(Err($crate::test_runner::TestCaseError::Reject(_))) => {
                        __rejects += 1;
                        assert!(
                            __rejects <= config.cases.saturating_mul(16).max(256),
                            "{}: too many rejected inputs", __test_path,
                        );
                    }
                    Ok(Err($crate::test_runner::TestCaseError::Fail(msg))) => {
                        panic!(
                            "{} failed at case {}: {}\ninput: {}",
                            __test_path, __case - 1, msg, __input_dump,
                        );
                    }
                    Err(payload) => {
                        eprintln!(
                            "{} panicked at case {}\ninput: {}",
                            __test_path, __case - 1, __input_dump,
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

/// Assert within a proptest body; failure aborts only the current case's
/// closure via an early `Err` return.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = ($left, $right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{:?}` == `{:?}`", __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = ($left, $right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{:?}` == `{:?}`: {}", __l, __r, format!($($fmt)+)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = ($left, $right);
        $crate::prop_assert!(__l != __r, "assertion failed: `{:?}` != `{:?}`", __l, __r);
    }};
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn sorted_after_sorting(mut v in prop::collection::vec(any::<u32>(), 0..20)) {
            v.sort();
            for w in v.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }

        #[test]
        fn tuple_and_question_mark((a, b) in (0u32..50, 50u32..100)) {
            let checked = || -> Result<u32, TestCaseError> {
                prop_assert!(a < b);
                Ok(b - a)
            };
            prop_assert_eq!(checked()?, checked()?);
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = prop::collection::vec(any::<u8>(), 1..16);
        let mut r1 = TestRng::for_case("t", 0);
        let mut r2 = TestRng::for_case("t", 0);
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }
}
