//! The [`Strategy`] trait and its combinators (generation only — the shim
//! does not shrink; failing inputs are printed instead).

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// How many times a filtered strategy regenerates before giving up.
const FILTER_RETRIES: usize = 1_000;

/// A value generator.
pub trait Strategy {
    type Value: Debug;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Reject values failing `f` (regenerates; panics if the filter is
    /// too strict instead of shrinking the rejection like upstream).
    fn prop_filter<F>(self, whence: impl Into<String>, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { source: self, whence: whence.into(), f }
    }

    /// Type-erase the strategy (for heterogeneous `prop_oneof!` arms).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A boxed, type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V: Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// Strategy yielding exactly one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

pub struct Filter<S, F> {
    source: S,
    whence: String,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..FILTER_RETRIES {
            let v = self.source.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter {:?} rejected {FILTER_RETRIES} consecutive values", self.whence);
    }
}

/// Uniform choice between boxed strategies (`prop_oneof!`).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V: Debug> Union<V> {
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len());
        self.arms[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                let off = (rng.next_u64() as u128 % span) as i128;
                (start as i128 + off) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($S:ident $idx:tt),+);)*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (S0 0, S1 1);
    (S0 0, S1 1, S2 2);
    (S0 0, S1 1, S2 2, S3 3);
    (S0 0, S1 1, S2 2, S3 3, S4 4);
    (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5);
    (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5, S6 6);
    (S0 0, S1 1, S2 2, S3 3, S4 4, S5 5, S6 6, S7 7);
}

/// `&'static str` literals act as generation patterns, supporting the
/// regex subset the workspace's tests use: literal characters, character
/// classes `[a-z0-9._-]`, groups `(...)`, and `{min,max}` / `{n}`
/// repetition of the preceding atom (e.g. `"(/[a-z][a-z0-9_%]{0,6}){1,4}"`).
/// A pattern that fails to parse generates itself verbatim.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        match parse_pattern(self) {
            Some(pieces) => {
                let mut out = String::new();
                generate_seq(&pieces, rng, &mut out);
                out
            }
            None => (*self).to_owned(),
        }
    }
}

enum PatternNode {
    Lit(char),
    Class(Vec<char>),
    Group(Vec<PatternPiece>),
}

struct PatternPiece {
    node: PatternNode,
    min: usize,
    max: usize,
}

fn generate_seq(pieces: &[PatternPiece], rng: &mut TestRng, out: &mut String) {
    for piece in pieces {
        let reps = piece.min + rng.below(piece.max - piece.min + 1);
        for _ in 0..reps {
            match &piece.node {
                PatternNode::Lit(c) => out.push(*c),
                PatternNode::Class(alphabet) => out.push(alphabet[rng.below(alphabet.len())]),
                PatternNode::Group(inner) => generate_seq(inner, rng, out),
            }
        }
    }
}

fn parse_pattern(pattern: &str) -> Option<Vec<PatternPiece>> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut pos = 0;
    let pieces = parse_seq(&chars, &mut pos, None)?;
    (pos == chars.len()).then_some(pieces)
}

fn parse_seq(chars: &[char], pos: &mut usize, closing: Option<char>) -> Option<Vec<PatternPiece>> {
    let mut pieces = Vec::new();
    while *pos < chars.len() {
        let c = chars[*pos];
        if Some(c) == closing {
            return Some(pieces);
        }
        let node = match c {
            '[' => {
                *pos += 1;
                PatternNode::Class(parse_class(chars, pos)?)
            }
            '(' => {
                *pos += 1;
                let inner = parse_seq(chars, pos, Some(')'))?;
                if chars.get(*pos) != Some(&')') {
                    return None;
                }
                *pos += 1;
                PatternNode::Group(inner)
            }
            ']' | ')' | '{' | '}' | '*' | '+' | '?' | '|' | '\\' => return None,
            lit => {
                *pos += 1;
                PatternNode::Lit(lit)
            }
        };
        let (min, max) = parse_repetition(chars, pos)?;
        pieces.push(PatternPiece { node, min, max });
    }
    closing.is_none().then_some(pieces)
}

/// `{m,n}` or `{n}` after an atom; absent means exactly once.
fn parse_repetition(chars: &[char], pos: &mut usize) -> Option<(usize, usize)> {
    if chars.get(*pos) != Some(&'{') {
        return Some((1, 1));
    }
    let close = chars[*pos..].iter().position(|&c| c == '}')?;
    let body: String = chars[*pos + 1..*pos + close].iter().collect();
    *pos += close + 1;
    let (min, max) = match body.split_once(',') {
        Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
        None => {
            let n = body.trim().parse().ok()?;
            (n, n)
        }
    };
    (min <= max).then_some((min, max))
}

fn parse_class(chars: &[char], pos: &mut usize) -> Option<Vec<char>> {
    let mut alphabet = Vec::new();
    while *pos < chars.len() && chars[*pos] != ']' {
        // `a-z` is a range unless `-` is the class's final character.
        if chars[*pos + 1..].first() == Some(&'-') && chars.get(*pos + 2).is_some_and(|&c| c != ']')
        {
            let (lo, hi) = (chars[*pos], chars[*pos + 2]);
            if lo > hi {
                return None;
            }
            for c in lo..=hi {
                alphabet.push(c);
            }
            *pos += 3;
        } else {
            alphabet.push(chars[*pos]);
            *pos += 1;
        }
    }
    if chars.get(*pos) != Some(&']') || alphabet.is_empty() {
        return None;
    }
    *pos += 1;
    Some(alphabet)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::from_seed(7)
    }

    #[test]
    fn pattern_respects_class_and_length() {
        let s = "[a-z0-9._-]{1,8}";
        let mut r = rng();
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!((1..=8).contains(&v.len()), "{v:?}");
            assert!(v
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c)));
        }
    }

    #[test]
    fn map_filter_union() {
        let s = crate::prop_oneof![(0u32..10).prop_map(|n| n * 2), Just(99u32),]
            .prop_filter("nonzero", |&v| v != 0);
        let mut r = rng();
        for _ in 0..100 {
            let v = s.generate(&mut r);
            assert!(v == 99 || (v % 2 == 0 && v > 0 && v < 20));
        }
    }

    #[test]
    fn grouped_pattern_generates_topic_paths() {
        let s = "(/[a-z][a-z0-9_%]{0,6}){1,4}";
        let mut r = rng();
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!(v.starts_with('/'), "{v:?}");
            let comps: Vec<&str> = v.split('/').skip(1).collect();
            assert!((1..=4).contains(&comps.len()), "{v:?}");
            for c in comps {
                assert!((1..=7).contains(&c.len()), "{v:?}");
                assert!(c.starts_with(|ch: char| ch.is_ascii_lowercase()), "{v:?}");
            }
        }
    }

    #[test]
    fn unparseable_pattern_is_literal() {
        let mut r = rng();
        assert_eq!("plain text".generate(&mut r), "plain text");
        assert_eq!("a|b".generate(&mut r), "a|b");
    }

    #[test]
    fn inclusive_range_hits_bounds() {
        let mut r = rng();
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(2usize..=4).generate(&mut r) - 2] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
