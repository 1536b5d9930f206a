//! The single factory for symmetrization methods and clusterers used by
//! every harness (engine, bench, CLI).
//!
//! Before the engine existed, the bench runner and the CLI each built
//! `Symmetrizer`/`ClusterAlgorithm` instances from their own match
//! statements. This module is now the one place that maps a declarative
//! [`SymMethod`]/[`Clusterer`] value to a configured algorithm; both
//! construction paths and the cache-key encoding live next to each other
//! so they cannot drift apart.

use symclust_cluster::{ClusterAlgorithm, GraclusLike, MetisLike, MlrMcl};
use symclust_core::{
    Bibliometric, BibliometricOptions, DegreeDiscounted, DegreeDiscountedOptions, DiscountExponent,
    PlusTranspose, RandomWalk, SymmetrizedGraph, Symmetrizer,
};
use symclust_graph::DiGraph;
use symclust_sparse::Exec;

/// The four symmetrization methods compared throughout the paper, with the
/// thresholds that make the similarity methods tractable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SymMethod {
    /// `U = A + Aᵀ` (§3.1).
    PlusTranspose,
    /// `U = (ΠP + PᵀΠ)/2` (§3.2).
    RandomWalk,
    /// `U = AAᵀ + AᵀA`, pruned at `threshold` (§3.3).
    Bibliometric {
        /// Prune threshold (Table 2 column).
        threshold: f64,
    },
    /// Eq. 8 with discount exponents and threshold (§3.4).
    DegreeDiscounted {
        /// Out-degree exponent α.
        alpha: f64,
        /// In-degree exponent β.
        beta: f64,
        /// Prune threshold.
        threshold: f64,
    },
}

impl SymMethod {
    /// The paper's four-method lineup with the given similarity thresholds.
    pub fn lineup(bib_threshold: f64, dd_threshold: f64) -> Vec<SymMethod> {
        vec![
            SymMethod::DegreeDiscounted {
                alpha: 0.5,
                beta: 0.5,
                threshold: dd_threshold,
            },
            SymMethod::Bibliometric {
                threshold: bib_threshold,
            },
            SymMethod::PlusTranspose,
            SymMethod::RandomWalk,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            SymMethod::PlusTranspose => "A+A'".into(),
            SymMethod::RandomWalk => "Random Walk".into(),
            SymMethod::Bibliometric { .. } => "Bibliometric".into(),
            SymMethod::DegreeDiscounted { .. } => "Degree-discounted".into(),
        }
    }

    /// Builds the configured symmetrizer under an optional SpGEMM output
    /// budget (in stored entries). The budget only affects the similarity
    /// methods ([`uses_budget`](Self::uses_budget)); when their estimated
    /// product size exceeds it they degrade to an adaptively-thresholded
    /// product instead of aborting, so the budget is part of
    /// [`cache_params_with_budget`](Self::cache_params_with_budget). How
    /// the product runs — threads, accumulator, panel plan — is the
    /// [`Exec`] passed to `symmetrize`, and never reaches a cache key.
    pub fn build(&self, nnz_budget: Option<usize>) -> Box<dyn Symmetrizer + Send + Sync> {
        match *self {
            SymMethod::PlusTranspose => Box::new(PlusTranspose),
            SymMethod::RandomWalk => Box::new(RandomWalk::default()),
            SymMethod::Bibliometric { threshold } => Box::new(Bibliometric {
                options: BibliometricOptions {
                    threshold,
                    nnz_budget,
                    ..Default::default()
                },
            }),
            SymMethod::DegreeDiscounted {
                alpha,
                beta,
                threshold,
            } => Box::new(DegreeDiscounted {
                options: DegreeDiscountedOptions {
                    alpha: DiscountExponent::Power(alpha),
                    beta: DiscountExponent::Power(beta),
                    threshold,
                    nnz_budget,
                    ..Default::default()
                },
            }),
        }
    }

    /// Whether an SpGEMM memory budget changes this method's output (only
    /// the similarity methods run a matrix product).
    pub fn uses_budget(&self) -> bool {
        matches!(
            self,
            SymMethod::Bibliometric { .. } | SymMethod::DegreeDiscounted { .. }
        )
    }

    /// Runs the symmetrization under [`Exec::default`] (panics on error —
    /// valid for the in-memory graphs the harnesses use; the engine path
    /// builds the symmetrizer and runs it under its own [`Exec`]).
    pub fn symmetrize(&self, g: &DiGraph) -> SymmetrizedGraph {
        self.build(None)
            .symmetrize(g, &Exec::default())
            .expect("symmetrization cannot fail on a valid graph")
    }

    /// Stable (stage name, parameter vector) encoding for content-addressed
    /// cache keys. Everything that affects the output must appear here.
    pub fn cache_params(&self) -> (&'static str, Vec<f64>) {
        match *self {
            SymMethod::PlusTranspose => ("symmetrize/aat", vec![]),
            SymMethod::RandomWalk => ("symmetrize/rw", vec![]),
            SymMethod::Bibliometric { threshold } => ("symmetrize/bib", vec![threshold]),
            SymMethod::DegreeDiscounted {
                alpha,
                beta,
                threshold,
            } => ("symmetrize/dd", vec![alpha, beta, threshold]),
        }
    }

    /// [`cache_params`](Self::cache_params) including an effective SpGEMM
    /// budget when one applies. A budgeted product can differ from the
    /// exact one (it may degrade), so the budget must be part of the
    /// artifact address — otherwise a degraded artifact computed under a
    /// tight budget would be served to a consumer expecting the exact one.
    pub fn cache_params_with_budget(&self, nnz_budget: Option<usize>) -> (&'static str, Vec<f64>) {
        let (name, mut params) = self.cache_params();
        if let Some(b) = nnz_budget {
            if self.uses_budget() {
                params.push(b as f64);
            }
        }
        (name, params)
    }
}

/// Selects prune thresholds for Bibliometric and Degree-discounted on a
/// graph so both symmetrized graphs land near `target_avg_degree`
/// (the paper's §5.3.1 recipe; Table 2 chooses thresholds per dataset).
/// Returns `(bib_threshold, dd_threshold)`.
pub fn select_thresholds(g: &DiGraph, target_avg_degree: f64) -> (f64, f64) {
    let sample = 120.min(g.n_nodes());
    let dd = symclust_core::select_threshold(
        g,
        &DegreeDiscountedOptions::default(),
        target_avg_degree,
        sample,
        0xBEEF,
    )
    .expect("threshold selection succeeds")
    .threshold;
    // Bibliometric = Degree-discounted with α = β = 0 (plus the +I step).
    let bib_opts = DegreeDiscountedOptions {
        alpha: DiscountExponent::Power(0.0),
        beta: DiscountExponent::Power(0.0),
        add_identity: true,
        ..Default::default()
    };
    let bib = symclust_core::select_threshold(g, &bib_opts, target_avg_degree, sample, 0xBEEF)
        .expect("threshold selection succeeds")
        .threshold;
    (bib, dd)
}

/// The stage-2 clusterers used in the sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Clusterer {
    /// MLR-MCL at a given inflation (cluster count is implicit).
    MlrMcl {
        /// Inflation parameter.
        inflation: f64,
    },
    /// Metis-like at a given k.
    Metis {
        /// Number of parts.
        k: usize,
    },
    /// Graclus-like at a given k.
    Graclus {
        /// Number of clusters.
        k: usize,
    },
}

impl Clusterer {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Clusterer::MlrMcl { .. } => "MLR-MCL",
            Clusterer::Metis { .. } => "Metis",
            Clusterer::Graclus { .. } => "Graclus",
        }
    }

    /// Display name including the granularity parameter, for event labels.
    pub fn label(&self) -> String {
        match self {
            Clusterer::MlrMcl { inflation } => format!("MLR-MCL(i={inflation})"),
            Clusterer::Metis { k } => format!("Metis(k={k})"),
            Clusterer::Graclus { k } => format!("Graclus(k={k})"),
        }
    }

    /// Builds the configured clustering algorithm.
    pub fn build(&self) -> Box<dyn ClusterAlgorithm + Send + Sync> {
        match *self {
            Clusterer::MlrMcl { inflation } => Box::new(MlrMcl::with_inflation(inflation)),
            Clusterer::Metis { k } => Box::new(MetisLike::with_k(k)),
            Clusterer::Graclus { k } => Box::new(GraclusLike::with_k(k)),
        }
    }

    /// Stable (stage name, parameter vector) encoding, mirroring
    /// [`SymMethod::cache_params`]. Used to compose the per-chain journal
    /// keys for crash-safe resume.
    pub fn cache_params(&self) -> (&'static str, Vec<f64>) {
        match *self {
            Clusterer::MlrMcl { inflation } => ("cluster/mlrmcl", vec![inflation]),
            Clusterer::Metis { k } => ("cluster/metis", vec![k as f64]),
            Clusterer::Graclus { k } => ("cluster/graclus", vec![k as f64]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::figure1_graph;

    #[test]
    fn lineup_has_four_methods() {
        let lineup = SymMethod::lineup(5.0, 0.01);
        assert_eq!(lineup.len(), 4);
        let names: Vec<String> = lineup.iter().map(|m| m.name()).collect();
        assert!(names.contains(&"Degree-discounted".to_string()));
        assert!(names.contains(&"A+A'".to_string()));
    }

    #[test]
    fn built_symmetrizer_matches_direct_construction() {
        let g = figure1_graph();
        let via_factory = SymMethod::DegreeDiscounted {
            alpha: 0.5,
            beta: 0.5,
            threshold: 0.0,
        }
        .symmetrize(&g);
        let direct = DegreeDiscounted::default()
            .symmetrize(&g, &Exec::default())
            .unwrap();
        assert_eq!(via_factory.adjacency(), direct.adjacency());
    }

    #[test]
    fn cache_params_distinguish_methods_and_parameters() {
        let a = SymMethod::Bibliometric { threshold: 1.0 }.cache_params();
        let b = SymMethod::Bibliometric { threshold: 2.0 }.cache_params();
        assert_eq!(a.0, b.0);
        assert_ne!(a.1, b.1);
        let dd = SymMethod::DegreeDiscounted {
            alpha: 0.5,
            beta: 0.5,
            threshold: 0.0,
        }
        .cache_params();
        assert_ne!(a.0, dd.0);
        assert_eq!(dd.1, vec![0.5, 0.5, 0.0]);
    }

    #[test]
    fn budget_extends_cache_params_only_for_similarity_methods() {
        let bib = SymMethod::Bibliometric { threshold: 1.0 };
        let plain = bib.cache_params_with_budget(None);
        let tight = bib.cache_params_with_budget(Some(1000));
        assert_eq!(plain, bib.cache_params());
        assert_ne!(plain.1, tight.1, "budget must change the artifact address");
        // A+A' ignores the budget entirely: no SpGEMM, same key either way.
        let aat = SymMethod::PlusTranspose;
        assert!(!aat.uses_budget());
        assert_eq!(aat.cache_params_with_budget(Some(1000)), aat.cache_params());
    }

    #[test]
    fn clusterer_cache_params_distinguish_algorithms_and_k() {
        let a = Clusterer::Metis { k: 3 }.cache_params();
        let b = Clusterer::Metis { k: 4 }.cache_params();
        let c = Clusterer::Graclus { k: 3 }.cache_params();
        assert_eq!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.0, c.0);
        assert_eq!(
            Clusterer::MlrMcl { inflation: 2.0 }.cache_params(),
            ("cluster/mlrmcl", vec![2.0])
        );
    }

    #[test]
    fn clusterer_names_and_labels() {
        assert_eq!(Clusterer::MlrMcl { inflation: 2.0 }.name(), "MLR-MCL");
        assert_eq!(Clusterer::Metis { k: 3 }.label(), "Metis(k=3)");
        assert_eq!(Clusterer::Graclus { k: 3 }.name(), "Graclus");
    }

    #[test]
    fn cancelled_token_propagates_through_factory() {
        use symclust_obs::MetricsRegistry;
        use symclust_sparse::CancelToken;
        // A cancelled `Exec` carrying its own registry: every factory
        // pairing must fail as cancelled before any kernel does work.
        let cancelled = || {
            let token = CancelToken::new();
            token.cancel();
            let metrics = MetricsRegistry::new();
            let exec = Exec {
                token: Some(token),
                metrics: Some(metrics.clone()),
                ..Exec::default()
            };
            (exec, metrics)
        };
        let assert_no_work = |metrics: &MetricsRegistry, what: &str| {
            let snap = metrics.snapshot();
            assert_eq!(snap.counter("spgemm.flops"), None, "{what} ran SpGEMM");
            assert_eq!(snap.counter("mcl.iterations"), None, "{what} ran R-MCL");
        };
        let g = figure1_graph();
        for method in SymMethod::lineup(0.0, 0.0) {
            for budget in [None, Some(1_000_000)] {
                let (exec, metrics) = cancelled();
                let err = method.build(budget).symmetrize(&g, &exec).unwrap_err();
                assert!(err.is_cancelled(), "{}: {err}", method.name());
                assert_no_work(&metrics, &method.name());
            }
        }
        let sym = SymMethod::PlusTranspose.symmetrize(&g);
        for clusterer in [
            Clusterer::MlrMcl { inflation: 2.0 },
            Clusterer::Metis { k: 2 },
            Clusterer::Graclus { k: 2 },
        ] {
            let (exec, metrics) = cancelled();
            let err = clusterer
                .build()
                .cluster_ungraph(sym.graph(), &exec)
                .unwrap_err();
            assert!(err.is_cancelled(), "{}: {err}", clusterer.label());
            assert_no_work(&metrics, &clusterer.label());
        }
    }
}
