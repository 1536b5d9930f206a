//! Clustering a citation network: the paper's Cora experiment in miniature.
//!
//! Generates the Cora stand-in (a citation-style directed graph with 70
//! planted research areas, 7.7% reciprocal links and 20% unlabeled papers),
//! runs all four symmetrizations through MLR-MCL and Metis, and reports the
//! micro-averaged best-match F-scores of §4.3 — reproducing the ordering of
//! the paper's Figure 5: Degree-discounted ≥ Bibliometric ≫ A+Aᵀ ≈ Random
//! walk.
//!
//! Run with: `cargo run --release --example citation_network`

use std::time::Instant;
use symclust::prelude::*;

fn main() {
    // How the kernels run (threads, cancellation, metrics); never what
    // they compute.
    let exec = Exec::default();
    let dataset = cora_like();
    let truth = dataset.truth.as_ref().expect("cora_like has ground truth");
    println!(
        "cora_like: {} papers, {} citations, {} research areas ({}% unlabeled)",
        dataset.n_nodes(),
        dataset.n_edges(),
        truth.n_categories(),
        (100.0 * truth.unlabeled_fraction()).round()
    );

    let symmetrizers: Vec<(&str, Box<dyn Symmetrizer>)> = vec![
        ("Degree-discounted", Box::new(DegreeDiscounted::default())),
        ("Bibliometric", Box::new(Bibliometric::default())),
        ("A+A'", Box::new(PlusTranspose)),
        ("Random Walk", Box::new(RandomWalk::default())),
    ];

    println!(
        "\n{:<18} {:>10} | {:>9} {:>8} | {:>9} {:>8}",
        "symmetrization", "edges", "MCL F", "MCL k", "Metis F", "time(ms)"
    );
    for (name, sym_method) in symmetrizers {
        let sym = sym_method
            .symmetrize(&dataset.graph, &exec)
            .expect("symmetrize");

        let mcl = MlrMcl::with_inflation(2.0)
            .cluster(&sym, &exec)
            .expect("mlr-mcl");
        let mcl_f = avg_f_score(mcl.assignments(), truth).avg_f;

        let start = Instant::now();
        let metis = MetisLike::with_k(truth.n_categories())
            .cluster(&sym, &exec)
            .expect("metis");
        let metis_ms = start.elapsed().as_millis();
        let metis_f = avg_f_score(metis.assignments(), truth).avg_f;

        println!(
            "{:<18} {:>10} | {:>9.2} {:>8} | {:>9.2} {:>8}",
            name,
            sym.n_edges(),
            mcl_f,
            mcl.n_clusters(),
            metis_f,
            metis_ms
        );
    }
    println!(
        "\nExpected shape (paper Figure 5): Degree-discounted best, Bibliometric\n\
         close behind, A+A' and Random Walk clearly worse — because citation\n\
         clusters are defined by shared references and shared citers, not by\n\
         papers citing each other."
    );
}
