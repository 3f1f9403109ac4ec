//! Query-mix generator for serving workloads: the wall-clock benchmark's
//! `window_mix` and the serve tests' request mix.
//!
//! Post-mission analysis traffic is *skewed*: most queries land on the
//! few containers recorded recently (yesterday's missions under active
//! analysis) while a long tail of archive containers sees occasional
//! hits. The generator models that with a two-tier distribution — a
//! small **hot set** receiving most of the traffic, the **cold rest**
//! sharing what remains uniformly — which is the regime where a
//! capacity-bounded handle cache either shines (capacity ≥ hot set) or
//! thrashes (capacity below it). Both regimes are worth measuring, so
//! the knobs are explicit rather than baked in.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// What one query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// List topics (metadata-only).
    Topics,
    /// Container summary numbers (metadata-only).
    Stat,
    /// Read one topic over a short time window (data-touching).
    ReadWindow,
    /// Read one topic in full (data-heavy).
    ReadFull,
}

/// One generated query against container `container` (an index the
/// caller maps to a real container root).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub container: usize,
    pub kind: QueryKind,
    /// Topic selector: index into the container's (sorted) topic list,
    /// modulo its length — the generator does not need to know the
    /// actual topics.
    pub topic_index: usize,
    /// For [`QueryKind::ReadWindow`]: window start as a fraction of the
    /// container's time span, and the window's length as a fraction.
    pub window_start: f64,
    pub window_frac: f64,
}

/// Knobs for [`generate`].
#[derive(Debug, Clone)]
pub struct QueryMixOptions {
    /// Total containers addressable by the mix.
    pub containers: usize,
    /// How many of them form the hot set (first `hot_set` indices).
    pub hot_set: usize,
    /// Fraction of queries that target the hot set (e.g. `0.9`).
    pub hot_traffic: f64,
    /// Number of queries to generate.
    pub queries: usize,
    /// Mix of query kinds, as cumulative weights over
    /// `[Topics, Stat, ReadWindow, ReadFull]`. Defaults favour windowed
    /// reads — the op whose open-amortization matters most.
    pub kind_weights: [f64; 4],
    pub seed: u64,
    /// `Some(s)` replaces the two-tier hot/cold container pick with a
    /// Zipf(s) distribution over all `containers` (rank 0 hottest):
    /// `P(rank k) ∝ 1/(k+1)^s`. `s = 0` is uniform; `s ≈ 1` is classic
    /// web-trace skew; larger `s` concentrates harder. `None` (default)
    /// keeps the hot/cold behavior and `hot_set`/`hot_traffic` knobs.
    pub zipf_s: Option<f64>,
}

impl Default for QueryMixOptions {
    fn default() -> Self {
        QueryMixOptions {
            containers: 8,
            hot_set: 2,
            hot_traffic: 0.9,
            queries: 200,
            kind_weights: [0.15, 0.15, 0.55, 0.15],
            seed: 0x5e12e,
            zipf_s: None,
        }
    }
}

/// Cumulative Zipf(s) mass over ranks `0..n`, normalized to end at 1.
/// Inversion sampling against this table costs one binary search per
/// query, independent of `n`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 0..n {
        acc += 1.0 / ((k + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

/// Deterministically generate a skewed query mix.
pub fn generate(opts: &QueryMixOptions) -> Vec<Query> {
    assert!(opts.containers > 0, "need at least one container");
    assert!(opts.hot_set > 0 && opts.hot_set <= opts.containers, "hot set must be 1..=containers");
    let weight_sum: f64 = opts.kind_weights.iter().sum();
    assert!(weight_sum > 0.0, "kind weights must not all be zero");

    let zipf = opts.zipf_s.map(|s| {
        assert!(s >= 0.0 && s.is_finite(), "zipf_s must be finite and >= 0, got {s}");
        zipf_cdf(opts.containers, s)
    });

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut queries = Vec::with_capacity(opts.queries);
    for _ in 0..opts.queries {
        let container = if let Some(cdf) = &zipf {
            let u = rng.random_range(0.0..1.0);
            cdf.partition_point(|&c| c <= u).min(opts.containers - 1)
        } else if opts.hot_set == opts.containers
            || rng.random_bool(opts.hot_traffic.clamp(0.0, 1.0))
        {
            rng.random_range(0..opts.hot_set)
        } else {
            rng.random_range(opts.hot_set..opts.containers)
        };
        let kind = {
            let mut pick = rng.random_range(0.0..weight_sum);
            let mut kind = QueryKind::ReadFull;
            for (i, w) in opts.kind_weights.iter().enumerate() {
                if pick < *w {
                    kind = [
                        QueryKind::Topics,
                        QueryKind::Stat,
                        QueryKind::ReadWindow,
                        QueryKind::ReadFull,
                    ][i];
                    break;
                }
                pick -= w;
            }
            kind
        };
        // Windows sit anywhere in the first 90% of the span and cover
        // 2-10% of it: small enough that open cost dominates a cold query.
        queries.push(Query {
            container,
            kind,
            topic_index: rng.random_range(0..64usize),
            window_start: rng.random_range(0.0..0.9),
            window_frac: rng.random_range(0.02..0.10),
        });
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_skewed() {
        let opts = QueryMixOptions { queries: 2_000, ..QueryMixOptions::default() };
        let a = generate(&opts);
        let b = generate(&opts);
        assert_eq!(a, b, "same seed, same mix");

        let hot = a.iter().filter(|q| q.container < opts.hot_set).count();
        let frac = hot as f64 / a.len() as f64;
        assert!((0.85..=0.95).contains(&frac), "hot traffic {frac} should track hot_traffic=0.9");
        // Cold containers all get some traffic.
        for c in opts.hot_set..opts.containers {
            assert!(a.iter().any(|q| q.container == c), "container {c} never queried");
        }
    }

    #[test]
    fn all_kinds_appear_and_windows_are_sane() {
        let a = generate(&QueryMixOptions { queries: 1_000, ..QueryMixOptions::default() });
        for kind in [QueryKind::Topics, QueryKind::Stat, QueryKind::ReadWindow, QueryKind::ReadFull]
        {
            assert!(a.iter().any(|q| q.kind == kind), "{kind:?} missing from mix");
        }
        for q in &a {
            assert!((0.0..0.9).contains(&q.window_start));
            assert!((0.02..0.10).contains(&q.window_frac));
        }
    }

    #[test]
    fn zipf_mix_is_deterministic_per_seed() {
        let opts = QueryMixOptions {
            containers: 16,
            queries: 1_000,
            zipf_s: Some(1.1),
            ..QueryMixOptions::default()
        };
        assert_eq!(generate(&opts), generate(&opts), "same seed, same zipf mix");
        let other = generate(&QueryMixOptions { seed: 7, ..opts.clone() });
        assert_ne!(generate(&opts), other, "different seed, different mix");
    }

    #[test]
    fn zipf_rank_frequencies_decay() {
        let opts = QueryMixOptions {
            containers: 8,
            queries: 8_000,
            zipf_s: Some(1.0),
            ..QueryMixOptions::default()
        };
        let a = generate(&opts);
        let counts: Vec<usize> =
            (0..8).map(|c| a.iter().filter(|q| q.container == c).count()).collect();
        // Rank 0 carries the most traffic; expected share is
        // 1/H(8) ≈ 0.368 at s=1. Every rank still appears.
        assert!(counts[0] > counts[3] && counts[3] > counts[7], "{counts:?}");
        let frac0 = counts[0] as f64 / a.len() as f64;
        assert!((0.30..=0.45).contains(&frac0), "rank-0 share {frac0} off Zipf(1) expectation");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn zipf_zero_is_uniform() {
        let opts = QueryMixOptions {
            containers: 4,
            queries: 4_000,
            zipf_s: Some(0.0),
            ..QueryMixOptions::default()
        };
        let a = generate(&opts);
        for c in 0..4 {
            let n = a.iter().filter(|q| q.container == c).count();
            assert!((800..=1200).contains(&n), "container {c} got {n}/4000 at s=0");
        }
    }

    #[test]
    fn hot_set_equal_to_containers_is_uniform() {
        let opts = QueryMixOptions {
            containers: 4,
            hot_set: 4,
            hot_traffic: 0.5,
            queries: 400,
            ..QueryMixOptions::default()
        };
        let a = generate(&opts);
        for c in 0..4 {
            assert!(a.iter().filter(|q| q.container == c).count() > 40);
        }
    }
}
