//! Bit-identity of the R-MCL step on the shared row runner against the
//! serial kernels it replaced (`oracle`), for every thread count and
//! accumulator strategy.

mod oracle;

use proptest::prelude::*;
use symclust_cluster::mcl::{canonical_flow_capped, rmcl_iterate, rmcl_step, MclOptions};
use symclust_cluster::{ClusterAlgorithm, MlrMcl};
use symclust_engine::{select_thresholds, SymMethod};
use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};
use symclust_graph::UnGraph;
use symclust_sparse::{AccumStrategy, CsrMatrix, Exec};

/// Every `Exec` the step must be invariant under.
fn execs() -> Vec<Exec> {
    let mut out = Vec::new();
    for threads in [1, 2, 4] {
        for accum in [
            AccumStrategy::Dense,
            AccumStrategy::Sparse,
            AccumStrategy::Adaptive,
        ] {
            out.push(Exec {
                threads,
                accum,
                ..Exec::default()
            });
        }
    }
    out
}

/// Structure and value bits of `got` versus `want`.
fn same_bits(got: &CsrMatrix, want: &CsrMatrix) -> bool {
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    got.n_rows() == want.n_rows()
        && got.n_cols() == want.n_cols()
        && got.indptr() == want.indptr()
        && got.indices() == want.indices()
        && bits(got) == bits(want)
}

/// Strategy: a weighted undirected graph wide enough to split into
/// several 64-row scheduler blocks.
fn weighted_graph() -> impl Strategy<Value = UnGraph> {
    (70usize..260).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 1u32..4), n..6 * n).prop_map(move |edges| {
            let edges: Vec<(usize, usize, f64)> = edges
                .into_iter()
                .map(|(u, v, w)| (u, v, f64::from(w)))
                .collect();
            UnGraph::from_weighted_edges(n, &edges).expect("in-bounds edges")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_step_matches_oracle_bit_for_bit(
        g in weighted_graph(),
        inflation in 1.2f64..3.0,
        max_row_nnz in 2usize..48,
        prune_exp in 1i32..5,
    ) {
        let opts = MclOptions {
            inflation,
            max_row_nnz,
            prune_threshold: 10f64.powi(-prune_exp),
            ..Default::default()
        };
        let m_g = oracle::canonical_flow_capped(&g, opts.max_graph_row_nnz);
        prop_assert!(same_bits(&canonical_flow_capped(&g, opts.max_graph_row_nnz), &m_g));
        // Two steps: from M_G itself, then from a pruned flow.
        let m1 = oracle::expand_inflate_prune(&m_g, &m_g, &opts);
        let m2 = oracle::expand_inflate_prune(&m1, &m_g, &opts);
        for exec in execs() {
            let (threads, accum) = (exec.threads, exec.accum.name());
            let got1 = rmcl_step(&m_g, &m_g, &opts, &exec).unwrap();
            prop_assert!(same_bits(&got1, &m1), "step 1, threads {threads}, {accum}");
            let got2 = rmcl_step(&m1, &m_g, &opts, &exec).unwrap();
            prop_assert!(same_bits(&got2, &m2), "step 2, threads {threads}, {accum}");
        }
    }
}

/// Full R-MCL runs and MLR-MCL clusterings on a 1,000-node, 15-cluster
/// shared-link DSBM symmetrized by Degree-discounted and Bibliometric at
/// target degree 40: every iterate, the iteration count, the convergence
/// flag and the final assignments equal the oracle's. The graph is below
/// MLR-MCL's coarsening target, so MLR-MCL runs single-level R-MCL here.
#[test]
fn rmcl_runs_match_oracle_on_dsbm() {
    let g = shared_link_dsbm(&SharedLinkDsbmConfig {
        n_nodes: 1_000,
        n_clusters: 15,
        seed: 120,
        ..Default::default()
    })
    .unwrap()
    .graph;
    let (bib, dd) = select_thresholds(&g, 40.0);
    let opts = MclOptions::default();
    for method in &SymMethod::lineup(bib, dd)[..2] {
        let ug = method.symmetrize(&g).graph().clone();
        let m_g = oracle::canonical_flow_capped(&ug, opts.max_graph_row_nnz);
        assert!(same_bits(
            &canonical_flow_capped(&ug, opts.max_graph_row_nnz),
            &m_g
        ));
        let (steps, converged) = oracle::rmcl_trajectory(&m_g, m_g.clone(), &opts, opts.max_iter);
        let last = steps.last().expect("at least one iteration");
        let want = symclust_cluster::mcl::extract_clusters(last);
        // Each iterate on the parallel path; the full runs under the
        // environment's knobs (serial unless SYMCLUST_THREADS is set).
        let name = method.name();
        let parallel = Exec {
            threads: 4,
            ..Exec::default()
        };
        let mut m = m_g.clone();
        for (i, step) in steps.iter().enumerate() {
            m = rmcl_step(&m, &m_g, &opts, &parallel).unwrap();
            assert!(same_bits(&m, step), "{name}: step {}", i + 1);
        }
        let exec = Exec::default();
        let (flow, iterations, conv) =
            rmcl_iterate(&m_g, m_g.clone(), &opts, opts.max_iter, &exec).unwrap();
        assert_eq!((iterations, conv), (steps.len(), converged), "{name}");
        assert!(same_bits(&flow, last), "{name}: final flow");
        let c = MlrMcl::default().cluster_ungraph(&ug, &exec).unwrap();
        assert_eq!(c.assignments(), want.assignments(), "{name}");
    }
}
