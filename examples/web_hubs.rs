//! Hub nodes and why Bibliometric symmetrization breaks on the web.
//!
//! Reproduces the paper's §3.4/§3.5 argument on a hub-heavy power-law graph
//! (the Wikipedia stand-in): the plain Bibliometric matrix `AAᵀ + AᵀA`
//! puts its largest weights on hub pairs and is nearly impossible to prune
//! well — a threshold high enough to keep it sparse strands half the graph
//! as singletons — while the Degree-discounted similarity demotes hubs and
//! prunes cleanly, keeping most nodes connected at a fraction of the edges.
//!
//! Run with: `cargo run --release --example web_hubs`

use symclust::core::{
    Bibliometric, BibliometricOptions, DegreeDiscounted, DegreeDiscountedOptions,
};
use symclust::prelude::*;
use symclust::sparse::ops::top_k_entries_upper;

fn main() {
    let dataset = symclust::datasets::wikipedia_like_scaled(4000);
    let g = &dataset.graph;
    println!(
        "wikipedia_like: {} pages, {} links",
        g.n_nodes(),
        g.n_edges()
    );
    let in_deg = g.in_degrees();
    let max_in = in_deg.iter().copied().max().unwrap_or(0);
    println!(
        "max in-degree {} vs mean {:.1} — hubs are present\n",
        max_in,
        in_deg.iter().sum::<usize>() as f64 / in_deg.len() as f64
    );

    // Select thresholds so both similarity graphs target the same average
    // degree (the paper's §5.3.1 recipe, aiming at typical cluster size).
    let target_degree = 60.0;
    let dd_sel = symclust::core::select_threshold(
        g,
        &DegreeDiscountedOptions::default(),
        target_degree,
        100,
        7,
    )
    .expect("threshold selection");
    let bib_opts = DegreeDiscountedOptions {
        alpha: symclust::core::DiscountExponent::Power(0.0),
        beta: symclust::core::DiscountExponent::Power(0.0),
        add_identity: true,
        ..Default::default()
    };
    let bib_sel =
        symclust::core::select_threshold(g, &bib_opts, target_degree, 100, 7).expect("selection");

    let bib = Bibliometric {
        options: BibliometricOptions {
            threshold: bib_sel.threshold,
            ..Default::default()
        },
    }
    .symmetrize(g, &Exec::default())
    .expect("bibliometric");
    let dd = DegreeDiscounted {
        options: DegreeDiscountedOptions {
            threshold: dd_sel.threshold,
            ..Default::default()
        },
    }
    .symmetrize(g, &Exec::default())
    .expect("degree-discounted");

    println!(
        "{:<18} {:>10} {:>12} {:>12}",
        "symmetrization", "edges", "singletons", "threshold"
    );
    for sym in [&bib, &dd] {
        println!(
            "{:<18} {:>10} {:>12} {:>12.4}",
            sym.method(),
            sym.n_edges(),
            sym.n_singletons(),
            sym.threshold()
        );
    }

    // Show whose edges carry the most weight (the paper's Table 5 point).
    let out_deg = g.out_degrees();
    for sym in [&bib, &dd] {
        let top = top_k_entries_upper(sym.adjacency(), 5);
        let mean_endpoint_degree: f64 = top
            .iter()
            .map(|&(u, v, _)| (in_deg[u] + out_deg[u] + in_deg[v] + out_deg[v]) as f64 / 2.0)
            .sum::<f64>()
            / top.len().max(1) as f64;
        println!(
            "\n{}: top-5 edges touch nodes of mean degree {:.0}",
            sym.method(),
            mean_endpoint_degree
        );
        for (u, v, w) in top {
            println!(
                "  {u:>5} -- {v:<5} weight {w:>10.3} (degrees {} and {})",
                in_deg[u] + out_deg[u],
                in_deg[v] + out_deg[v]
            );
        }
    }
    println!(
        "\nBibliometric's heaviest edges sit between hubs; Degree-discounted's\n\
         sit between specific, strongly-related low-degree pages."
    );
}
