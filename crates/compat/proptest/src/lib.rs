//! Offline property-testing shim exposing the `proptest` API subset this
//! workspace uses: the `proptest!` macro, `Strategy` with `prop_map`,
//! integer/float range strategies, tuple composition, `any::<T>()`,
//! `collection::vec`, regex-literal string strategies, and the
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from real proptest: cases are generated from a deterministic
//! per-test RNG (no OS entropy), there is no shrinking (the failing inputs
//! are printed verbatim), and regex strategies support the subset of syntax
//! found in-tree (classes, groups, alternation, `{m,n}` / `?` / `*` / `+`).
//!
//! Set `PROPTEST_CASES` to change the number of cases per property
//! (default 128).

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod regex;
pub mod strategy;
pub mod test_runner;

pub use arbitrary::{any, Arbitrary};
pub use strategy::{Just, Strategy};

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declare property tests. Each function body runs once per generated case;
/// use `prop_assert*` for case-level assertions.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(stringify!($name), |__rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                    let mut __repr = ::std::string::String::new();
                    $(
                        __repr.push_str(stringify!($arg));
                        __repr.push_str(" = ");
                        __repr.push_str(&::std::format!("{:?}", &$arg));
                        __repr.push_str("; ");
                    )+
                    let __outcome = (move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        #[allow(unreachable_code, reason = "a body that returns early makes the trailing `Ok` unreachable; an `expect` in an exported macro is never checked")]
                        ::std::result::Result::Ok(())
                    })();
                    (__repr, __outcome)
                });
            }
        )*
    };
}

/// Assert within a property body; failure reports the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)*)),
            );
        }
    };
}

/// Equality assertion within a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` == `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            __l,
            __r,
            ::std::format!($($fmt)*)
        );
    }};
}

/// Inequality assertion within a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?}` != `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            __l,
            __r,
            ::std::format!($($fmt)*)
        );
    }};
}

/// Discard the current case when a precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}
