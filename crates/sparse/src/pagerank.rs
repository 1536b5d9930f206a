//! Power iteration for the stationary distribution of a random walk with
//! uniform teleportation (PageRank).
//!
//! The paper's Random-walk symmetrization (§3.2, §4.2) needs the stationary
//! distribution `π` of the walk on the directed graph; the paper computes it
//! "via power iterations" with "a uniform random teleport probability of
//! 0.05". Dangling nodes (zero out-degree) redistribute their mass uniformly,
//! the standard PageRank convention, which guarantees a unique stationary
//! distribution for any input graph.

use crate::csr::CsrMatrix;
use crate::dense;
use crate::error::SparseError;
use crate::exec::Exec;
use crate::ops::row_normalize;
use crate::Result;

/// Options for the PageRank power iteration.
#[derive(Debug, Clone, Copy)]
pub struct PageRankOptions {
    /// Teleport probability (the paper uses 0.05).
    pub teleport: f64,
    /// Convergence threshold on the L1 change between iterates.
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        PageRankOptions {
            teleport: 0.05,
            tol: 1e-10,
            max_iter: 1000,
        }
    }
}

/// Outcome of a PageRank computation.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// The stationary distribution (sums to 1).
    pub pi: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final L1 residual.
    pub residual: f64,
}

/// Computes the PageRank vector of the directed adjacency matrix `a`.
///
/// `a` is row-normalized internally; edge weights act as transition
/// preferences. Polls `exec`'s token once per power iteration and bails
/// out with [`SparseError::Cancelled`] when it trips (explicitly or by
/// deadline). The iteration holds no shared state, so a cancelled run
/// leaves nothing poisoned — the same matrix can be solved again.
pub fn pagerank(a: &CsrMatrix, opts: &PageRankOptions, exec: &Exec) -> Result<PageRankResult> {
    if a.n_rows() != a.n_cols() {
        return Err(SparseError::DimensionMismatch {
            op: "pagerank",
            lhs: (a.n_rows(), a.n_cols()),
            rhs: (a.n_cols(), a.n_cols()),
        });
    }
    if !(0.0..1.0).contains(&opts.teleport) {
        return Err(SparseError::InvalidArgument(format!(
            "teleport probability {} outside [0, 1)",
            opts.teleport
        )));
    }
    let n = a.n_rows();
    if n == 0 {
        return Ok(PageRankResult {
            pi: Vec::new(),
            iterations: 0,
            residual: 0.0,
        });
    }
    let p = row_normalize(a);
    let dangling: Vec<bool> = (0..n).map(|r| p.row_nnz(r) == 0).collect();
    let damping = 1.0 - opts.teleport;
    let uniform = 1.0 / n as f64;

    let mut pi = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    for iter in 1..=opts.max_iter {
        exec.checkpoint()?;
        // next = damping * (Pᵀ pi + dangling_mass * uniform) + teleport * uniform
        let mut dangling_mass = 0.0;
        for (i, &d) in dangling.iter().enumerate() {
            if d {
                dangling_mass += pi[i];
            }
        }
        next.iter_mut().for_each(|x| *x = 0.0);
        for (row, &mass) in pi.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            for (col, w) in p.row_iter(row) {
                next[col as usize] += w * mass;
            }
        }
        let base = damping * dangling_mass * uniform + opts.teleport * uniform;
        for x in next.iter_mut() {
            *x = damping * *x + base;
        }
        // Guard against numerical drift by renormalizing.
        dense::normalize1(&mut next);
        let residual: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if residual < opts.tol {
            return Ok(PageRankResult {
                pi,
                iterations: iter,
                residual,
            });
        }
    }
    Err(SparseError::NoConvergence {
        what: "pagerank",
        iterations: opts.max_iter,
    })
}

/// Convenience wrapper returning just the stationary distribution with the
/// paper's default teleport probability of 0.05.
pub fn stationary_distribution(a: &CsrMatrix) -> Result<Vec<f64>> {
    pagerank(a, &PageRankOptions::default(), &Exec::default()).map(|r| r.pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::coo::CooMatrix;

    #[test]
    fn uniform_on_symmetric_cycle() {
        // Directed 4-cycle: stationary distribution is uniform for any
        // teleport because of symmetry.
        let coo = CooMatrix::from_triplets(
            4,
            4,
            vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
        )
        .unwrap();
        let r = pagerank(&coo.to_csr(), &PageRankOptions::default(), &Exec::default()).unwrap();
        for &v in &r.pi {
            assert!((v - 0.25).abs() < 1e-8, "pi = {:?}", r.pi);
        }
        assert!(r.iterations >= 1);
    }

    #[test]
    fn sums_to_one_with_dangling_nodes() {
        // Node 2 is dangling.
        let coo = CooMatrix::from_triplets(3, 3, vec![(0, 2, 1.0), (1, 2, 1.0)]).unwrap();
        let r = pagerank(&coo.to_csr(), &PageRankOptions::default(), &Exec::default()).unwrap();
        let sum: f64 = r.pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-10);
        // The dangling sink accumulates the most mass.
        assert!(r.pi[2] > r.pi[0]);
        assert!(r.pi[2] > r.pi[1]);
    }

    #[test]
    fn hub_gets_more_mass() {
        // Star pointing at node 0.
        let mut coo = CooMatrix::new(5, 5);
        for i in 1..5 {
            coo.push(i, 0, 1.0).unwrap();
        }
        coo.push(0, 1, 1.0).unwrap(); // keep node 0 non-dangling
        let r = pagerank(&coo.to_csr(), &PageRankOptions::default(), &Exec::default()).unwrap();
        for i in 2..5 {
            assert!(r.pi[0] > r.pi[i]);
        }
    }

    #[test]
    fn satisfies_stationarity() {
        // pi should satisfy pi = pi * G where G is the Google matrix.
        let coo = CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 0, 1.0),
                (2, 3, 1.0),
            ],
        )
        .unwrap();
        let a = coo.to_csr();
        let opts = PageRankOptions {
            teleport: 0.05,
            tol: 1e-13,
            max_iter: 5000,
        };
        let r = pagerank(&a, &opts, &Exec::default()).unwrap();
        // Rebuild one explicit iteration and compare.
        let p = row_normalize(&a);
        let n = a.n_rows();
        let mut next = vec![0.0; n];
        for row in 0..n {
            for (col, w) in p.row_iter(row) {
                next[col as usize] += 0.95 * w * r.pi[row];
            }
        }
        for x in next.iter_mut() {
            *x += 0.05 / n as f64;
        }
        for (a, b) in r.pi.iter().zip(&next) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let rect = CsrMatrix::zeros(2, 3);
        assert!(pagerank(&rect, &PageRankOptions::default(), &Exec::default()).is_err());
        let sq = CsrMatrix::zeros(2, 2);
        let bad = PageRankOptions {
            teleport: 1.5,
            ..Default::default()
        };
        assert!(pagerank(&sq, &bad, &Exec::default()).is_err());
    }

    #[test]
    fn empty_matrix_is_ok() {
        let r = pagerank(
            &CsrMatrix::zeros(0, 0),
            &PageRankOptions::default(),
            &Exec::default(),
        )
        .unwrap();
        assert!(r.pi.is_empty());
    }

    #[test]
    fn all_dangling_gives_uniform() {
        let r = pagerank(
            &CsrMatrix::zeros(4, 4),
            &PageRankOptions::default(),
            &Exec::default(),
        )
        .unwrap();
        for &v in &r.pi {
            assert!((v - 0.25).abs() < 1e-10);
        }
    }

    #[test]
    fn stationary_distribution_wrapper() {
        let coo = CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let pi = stationary_distribution(&coo.to_csr()).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-8);
    }

    fn directed_ring(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn live_token_matches_plain_pagerank() {
        let a = directed_ring(16);
        let exec = Exec {
            token: Some(CancelToken::new()),
            ..Exec::default()
        };
        let plain = pagerank(&a, &PageRankOptions::default(), &Exec::default()).unwrap();
        let with_token = pagerank(&a, &PageRankOptions::default(), &exec).unwrap();
        assert_eq!(plain.pi, with_token.pi);
        assert_eq!(plain.iterations, with_token.iterations);
    }

    #[test]
    fn cancel_mid_iteration_returns_promptly_without_poisoned_state() {
        // tol = 0 means the residual test (`residual < tol`) never passes,
        // so only cancellation can end this run before the huge budget.
        let a = directed_ring(512);
        let endless = PageRankOptions {
            teleport: 0.05,
            tol: 0.0,
            max_iter: usize::MAX,
        };
        let token = CancelToken::new();
        let canceller = token.clone();
        let exec = Exec {
            token: Some(token),
            ..Exec::default()
        };
        let started = std::time::Instant::now();
        let result = crossbeam::thread::scope(|scope| {
            let handle = scope.spawn(|_| pagerank(&a, &endless, &exec));
            // Let the iteration genuinely start, then cancel mid-flight.
            std::thread::sleep(std::time::Duration::from_millis(30));
            canceller.cancel();
            handle.join().expect("pagerank worker panicked")
        })
        .expect("scope");
        assert!(
            matches!(result, Err(SparseError::Cancelled)),
            "expected cancellation, got {result:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "cancellation was not prompt"
        );
        // No poisoned state: the same matrix solves fine afterwards.
        let again = pagerank(&a, &PageRankOptions::default(), &Exec::default()).unwrap();
        assert!((again.pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }
}
