//! Minimal in-tree stand-in for the `proptest` crate.
//!
//! The build environment has no network access to a crate registry, so this
//! shim implements the subset of proptest used by the workspace's property
//! tests: the `proptest!` / `prop_assert*` / `prop_assume!` macros, range and
//! tuple strategies, `collection::vec`, `bool::ANY`, and
//! `ProptestConfig::with_cases`.
//!
//! Unlike real proptest there is no shrinking: generation is driven by a
//! deterministic splitmix64 stream seeded from the test name, so failures
//! reproduce exactly from run to run and the failing inputs are printed in
//! the panic message via the `prop_assert*` text.

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the test name: stable per test, independent across tests.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (*self.start() as i128 + off as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
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

/// Always yields a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub mod bool {
    /// Strategy yielding `true`/`false` with equal probability.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl crate::Strategy for Any {
        type Value = ::core::primitive::bool;
        fn generate(&self, rng: &mut crate::TestRng) -> Self::Value {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_excl: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_excl: r.end,
            }
        }
    }

    // Unsuffixed literals like `1..40` default to i32; accept that too.
    impl From<Range<i32>> for SizeRange {
        fn from(r: Range<i32>) -> Self {
            assert!(0 <= r.start && r.start < r.end, "bad size range");
            SizeRange {
                lo: r.start as usize,
                hi_excl: r.end as usize,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi_excl - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Config / errors / runner
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

#[derive(Debug)]
pub enum TestCaseError {
    Fail(String),
    Reject,
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject() -> Self {
        TestCaseError::Reject
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(msg) => write!(f, "{msg}"),
            TestCaseError::Reject => write!(f, "case rejected by prop_assume!"),
        }
    }
}

/// Drive one `#[test]` expanded by `proptest!`: run `cfg.cases` accepted
/// cases, skipping `prop_assume!` rejections (with an attempt cap so a
/// never-satisfiable assumption fails instead of spinning).
pub fn run_cases<F>(name: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::from_name(name);
    let mut executed = 0u32;
    let mut attempts = 0u64;
    let max_attempts = (config.cases as u64).saturating_mul(20).max(1000);
    while executed < config.cases {
        attempts += 1;
        assert!(
            attempts <= max_attempts,
            "proptest shim: '{name}' rejected too many cases ({executed}/{} accepted)",
            config.cases
        );
        match case(&mut rng) {
            Ok(()) => executed += 1,
            Err(TestCaseError::Reject) => continue,
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest case failed ('{name}', case {executed}): {msg}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($config) $($rest)*);
    };
    (@fns ($config:expr)) => {};
    (@fns ($config:expr)
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config = $config;
            $crate::run_cases(stringify!($name), &config, |rng| {
                $(let $arg = $crate::Strategy::generate(&($strategy), rng);)+
                let case = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                };
                case()
            });
        }
        $crate::proptest!(@fns ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(*left != *right, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{Just, ProptestConfig, Strategy, TestCaseError, TestRng};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(a in -5i64..5, b in 1usize..4, x in 0.0f64..1.0) {
            prop_assert!((-5..5).contains(&a));
            prop_assert!((1..4).contains(&b));
            prop_assert!((0.0..1.0).contains(&x));
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec((0i64..10, 0i64..10), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn assume_rejects(n in 0i64..10) {
            prop_assume!(n != 3);
            prop_assert_ne!(n, 3);
        }
    }

    #[test]
    fn deterministic_stream() {
        let mut a = TestRng::from_name("t");
        let mut b = TestRng::from_name("t");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
