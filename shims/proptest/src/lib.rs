//! Offline stand-in for the `proptest` crate: the subset of the API this
//! workspace's property tests use.
//!
//! Supported surface: the [`proptest!`] macro (with an optional
//! `#![proptest_config(...)]` line), [`prop_assert!`] /
//! [`prop_assert_eq!`], the [`strategy::Strategy`] trait with
//! `prop_map`, integer range strategies, tuple strategies, `&str`
//! pattern strategies (a small regex-like subset: `.`, `[a-z]` classes,
//! `{m,n}` / `*` / `+` / `?` quantifiers, literals),
//! [`collection::vec`], and [`sample::select`].
//!
//! Not supported (by design, to stay dependency-free): shrinking,
//! persisted failure files, and `fork`. A failing case panics with the
//! plain `assert!`/`assert_eq!` message — the generated inputs are not
//! printed; to reproduce, rerun the test: the RNG stream is a
//! deterministic function of the test's module path and name, so the
//! same cases regenerate every run.

pub mod test_runner {
    //! Run configuration and the deterministic RNG handed to strategies.

    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// Configuration accepted by `#![proptest_config(...)]`. Only the
    /// `cases` knob is meaningful here.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// The RNG strategies draw from. Deterministic per test name, so
    /// failures reproduce run-to-run.
    #[derive(Debug, Clone)]
    pub struct TestRng(SmallRng);

    impl TestRng {
        /// A generator seeded deterministically from a test name.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the name; any stable hash works.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng(SmallRng::seed_from_u64(h))
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.0.next_u64() % bound
        }

        /// Uniform in `[lo, hi]` (inclusive).
        pub fn in_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
            debug_assert!(lo <= hi);
            lo + self.below(hi - lo + 1)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no shrinking tree; `generate`
    /// produces a value directly.
    pub trait Strategy {
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
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

    macro_rules! impl_int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start
                        + rng.below((self.end - self.start) as u64) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    lo + rng.in_inclusive(0, (hi - lo) as u64) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }

    impl Strategy for &str {
        type Value = String;

        /// Interpret the string as the regex-like pattern subset
        /// described in the crate docs and generate a matching string.
        fn generate(&self, rng: &mut TestRng) -> String {
            super::string::generate_from_pattern(self, rng)
        }
    }
}

pub mod string {
    //! Pattern-string generation: the regex subset used as `&str`
    //! strategies (`.{0,200}`, `[ -~]{0,200}`, literals, `*`/`+`/`?`).

    use super::test_runner::TestRng;

    enum Atom {
        /// `.` — any printable-ish character (ASCII plus a few
        /// multi-byte code points, to exercise UTF-8 handling).
        Dot,
        /// `[a-z0]` — inclusive ranges and single chars.
        Class(Vec<(char, char)>),
        /// A literal character (possibly `\`-escaped).
        Literal(char),
    }

    struct Piece {
        atom: Atom,
        min: u32,
        max: u32,
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let mut chars = pattern.chars().peekable();
        let mut pieces = Vec::new();
        while let Some(c) = chars.next() {
            let atom = match c {
                '.' => Atom::Dot,
                '\\' => Atom::Literal(chars.next().unwrap_or('\\')),
                '[' => {
                    let mut ranges = Vec::new();
                    let mut prev: Option<char> = None;
                    loop {
                        match chars.next() {
                            None | Some(']') => break,
                            Some('-') if prev.is_some() && chars.peek() != Some(&']') => {
                                let lo = prev.take().expect("checked above");
                                let hi = chars.next().expect("checked above");
                                ranges.push((lo, hi));
                            }
                            Some(ch) => {
                                if let Some(p) = prev.replace(ch) {
                                    ranges.push((p, p));
                                }
                            }
                        }
                    }
                    if let Some(p) = prev {
                        ranges.push((p, p));
                    }
                    Atom::Class(ranges)
                }
                other => Atom::Literal(other),
            };
            let (min, max) = match chars.peek() {
                Some('{') => {
                    chars.next();
                    let mut spec = String::new();
                    for ch in chars.by_ref() {
                        if ch == '}' {
                            break;
                        }
                        spec.push(ch);
                    }
                    let (lo, hi) = match spec.split_once(',') {
                        Some((lo, hi)) => (lo, hi),
                        None => (spec.as_str(), spec.as_str()),
                    };
                    (lo.trim().parse().unwrap_or(0), hi.trim().parse().unwrap_or(0))
                }
                Some('*') => {
                    chars.next();
                    (0, 8)
                }
                Some('+') => {
                    chars.next();
                    (1, 8)
                }
                Some('?') => {
                    chars.next();
                    (0, 1)
                }
                _ => (1, 1),
            };
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    /// Characters `.` draws from: all printable ASCII, whitespace, and a
    /// few multi-byte code points.
    const DOT_EXTRAS: &[char] = &['\n', '\t', 'é', 'λ', '中', '🦀', '\u{0}'];

    fn gen_char(atom: &Atom, rng: &mut TestRng) -> char {
        match atom {
            Atom::Literal(c) => *c,
            Atom::Dot => {
                let printable = ('~' as u32 - ' ' as u32 + 1) as u64;
                let pick = rng.below(printable + DOT_EXTRAS.len() as u64);
                if pick < printable {
                    char::from_u32(' ' as u32 + pick as u32).expect("printable ASCII")
                } else {
                    DOT_EXTRAS[(pick - printable) as usize]
                }
            }
            Atom::Class(ranges) => {
                if ranges.is_empty() {
                    return '?';
                }
                let total: u64 =
                    ranges.iter().map(|&(lo, hi)| (hi as u64).saturating_sub(lo as u64) + 1).sum();
                let mut pick = rng.below(total.max(1));
                for &(lo, hi) in ranges {
                    let span = (hi as u64).saturating_sub(lo as u64) + 1;
                    if pick < span {
                        return char::from_u32(lo as u32 + pick as u32).unwrap_or(lo);
                    }
                    pick -= span;
                }
                ranges[0].0
            }
        }
    }

    /// Generate a string matching `pattern`.
    pub fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let n = rng.in_inclusive(piece.min as u64, piece.max.max(piece.min) as u64);
            for _ in 0..n {
                out.push(gen_char(&piece.atom, rng));
            }
        }
        out
    }
}

pub mod collection {
    //! Collection strategies ([`vec()`]).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// An inclusive length range for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        pub min: usize,
        pub max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// `Vec` strategy: lengths drawn from `size`, elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.in_inclusive(self.size.min as u64, self.size.max as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies ([`select`]).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy choosing uniformly among fixed options.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }

    /// Strategy returned by [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    pub mod prop {
        //! The `prop::` namespace (`prop::collection`, `prop::sample`).
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Define property tests. Accepts an optional leading
/// `#![proptest_config(expr)]` followed by `#[test]` functions whose
/// arguments are `pattern in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..config.cases {
                let ($($pat,)+) = (
                    $($crate::strategy::Strategy::generate(&($strat), &mut rng),)+
                );
                $body
            }
        }
    )*};
}

/// `assert!` under another name (real proptest routes this through its
/// shrinking machinery; here a failure just panics).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `assert_eq!` under another name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `assert_ne!` under another name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs(
            x in 3u32..10,
            v in prop::collection::vec(0u8..=1, 2..=5),
            (a, b) in (1usize..4, 10u64..=12),
        ) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((2..=5).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e <= 1));
            prop_assert!((1..4).contains(&a));
            prop_assert!((10..=12).contains(&b));
        }

        #[test]
        fn string_patterns(s in "[a-c]{2,4}", any in ".{0,20}") {
            prop_assert!((2..=4).contains(&s.chars().count()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            prop_assert!(any.chars().count() <= 20);
        }

        #[test]
        fn select_and_map(
            w in prop::sample::select(vec!["x", "y"]),
            n in (0u32..5).prop_map(|v| v * 2),
        ) {
            prop_assert!(w == "x" || w == "y");
            prop_assert!(n % 2 == 0 && n < 10);
        }
    }

    #[test]
    fn macro_defines_runnable_tests() {
        ranges_and_vecs();
        string_patterns();
        select_and_map();
    }
}
