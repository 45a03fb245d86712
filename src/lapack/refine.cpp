#include "lapack/refine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "blas/aux.hpp"
#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "lapack/bisect.hpp"
#include "lapack/tridiag_lu.hpp"
#include "obs/metrics.hpp"
#include "runtime/engine.hpp"
#include "runtime/graph.hpp"

namespace dnc::lapack {
namespace {

// Per-column residual target, as a multiple of eps64 * ||T||_1.
constexpr double kTolFactor = 30.0;
// Rayleigh-quotient iterations per eigenpair before giving up.
constexpr int kMaxIters = 5;

// y = T x for the tridiagonal (d, e).
void tridiag_matvec(index_t n, const double* d, const double* e, const double* x, double* y) {
  for (index_t i = 0; i < n; ++i) {
    double s = d[i] * x[i];
    if (i > 0) s += e[i - 1] * x[i - 1];
    if (i + 1 < n) s += e[i] * x[i + 1];
    y[i] = s;
  }
}

// ||T x - lambda x||_inf, with y = T x already formed.
double residual_inf(index_t n, const double* x, const double* y, double lambda) {
  double r = 0.0;
  for (index_t i = 0; i < n; ++i) r = std::max(r, std::fabs(y[i] - lambda * x[i]));
  return r;
}

// Scratch of one column sweep: T v, the RQI iterate, and the LU of T - rho I.
struct Workspace {
  explicit Workspace(index_t n) : y(n), w(n), lu(n) {}
  std::vector<double> y, w;
  TridiagLU<double> lu;
};

// Runs the blocks of one refinement phase. With several workers they are
// tasks on one runtime that every phase of the call shares; with one, they
// run inline in block order. Each phase returns only when all its blocks
// have, so the phases run in sequence, and as long as the blocks of a phase
// write disjoint data the result does not depend on the worker count.
class PhaseRunner {
 public:
  PhaseRunner(int threads, index_t max_blocks) {
    const index_t workers = std::min<index_t>(threads, max_blocks);
    if (workers > 1) runtime_ = std::make_unique<rt::Runtime>(graph_, static_cast<int>(workers));
  }
  PhaseRunner(const PhaseRunner&) = delete;
  PhaseRunner& operator=(const PhaseRunner&) = delete;

  /// body(b) for b = first, first + step, ... below end.
  template <typename Body>
  void run(index_t first, index_t end, index_t step, const Body& body) {
    if (!runtime_) {
      for (index_t b = first; b < end; b += step) body(b);
      return;
    }
    for (index_t b = first; b < end; b += step) graph_.submit(kind_, [&body, b] { body(b); }, {});
    runtime_->wait_all();
  }

 private:
  rt::TaskGraph graph_;  // outlives runtime_, which is declared after it
  rt::KindId kind_ = graph_.register_kind("Refine", false, "#17becf");
  std::unique_ptr<rt::Runtime> runtime_;
};

// Columns per RQI task: each column costs a few O(n) solves, so a block
// amortises the task overhead while leaving enough blocks to balance.
constexpr index_t kRqiBlock = 16;

// Columns per block of the residual pass, the overlap scan and the polish.
// Each scan or polish block is one Gram product V[:, q0:k1]' V[:, k0:k1],
// so the block must be wide enough to run at GEMM speed and narrow enough
// that the band rows wasted above the diagonal stay few.
constexpr index_t kGramBlock = 64;

// Rayleigh-quotient iteration on columns [j0, j1), tallied into rep. Each
// column reads and writes only its own (lam[j], v[:,j]), so disjoint ranges
// may run concurrently and give the same bits as one serial sweep.
void rqi_columns(index_t n, const double* d, const double* e, double* lam, double* v,
                 index_t ldv, index_t j0, index_t j1, double tol, Workspace& ws,
                 RefineReport& rep) {
  std::vector<double>& y = ws.y;
  std::vector<double>& w = ws.w;
  TridiagLU<double>& lu = ws.lu;
  for (index_t j = j0; j < j1; ++j) {
    double* vj = v + j * ldv;
    // fp32-normalised columns can be off by ~eps32 in SCALE even when
    // their direction is exact (a 2x2 rotation narrowed to fp32 has zero
    // residual but |1 - v'v| ~ 1e-8), and the residual fast path below
    // would then keep the bad scale: renormalise in fp64 first.
    const double nrm0 = blas::nrm2(n, vj);
    if (nrm0 > 0.0 && std::isfinite(nrm0)) blas::scal(n, 1.0 / nrm0, vj);
    tridiag_matvec(n, d, e, vj, y.data());
    double resid = residual_inf(n, vj, y.data(), lam[j]);
    ++rep.checked;
    rep.max_resid_before = std::max(rep.max_resid_before, resid);
    if (resid <= tol) {
      rep.max_resid_after = std::max(rep.max_resid_after, resid);
      continue;
    }
    ++rep.refined;
    // Start from the fp64 Rayleigh quotient of the fp32 vector -- already
    // ~quadratically better than the fp32 eigenvalue.
    double rho = blas::dot(n, vj, y.data()) / blas::dot(n, vj, vj);
    for (int it = 0; it < kMaxIters; ++it) {
      ++rep.iterations;
      lu.factor(n, d, e, rho);
      blas::copy(n, vj, w.data());
      lu.solve(n, w.data());
      const double nrm = blas::nrm2(n, w.data());
      if (!(nrm > 0.0) || !std::isfinite(nrm)) break;  // solve blew up: keep current pair
      blas::scal(n, 1.0 / nrm, w.data());
      tridiag_matvec(n, d, e, w.data(), y.data());
      const double rho_new = blas::dot(n, w.data(), y.data());
      const double resid_new = residual_inf(n, w.data(), y.data(), rho_new);
      if (resid_new >= resid) break;  // stagnated; keep the better pair we have
      blas::copy(n, w.data(), vj);
      lam[j] = rho_new;
      rho = rho_new;
      resid = resid_new;
      if (resid <= tol) break;
    }
    rep.max_resid_after = std::max(rep.max_resid_after, resid);
  }
}

// The RQI sweep over all nvec columns: blocks of kRqiBlock columns, each
// with its own workspace and partial report. Counts add and maxima combine
// exactly, so the reduced report (like the refined pairs) is independent of
// the worker count.
RefineReport rqi_sweep(index_t n, const double* d, const double* e, double* lam, double* v,
                       index_t ldv, index_t nvec, double tol, PhaseRunner& runner) {
  const index_t nblocks = (nvec + kRqiBlock - 1) / kRqiBlock;
  std::vector<RefineReport> parts(static_cast<std::size_t>(nblocks));
  runner.run(0, nblocks, 1, [&](index_t b) {
    Workspace local(n);
    rqi_columns(n, d, e, lam, v, ldv, b * kRqiBlock, std::min(nvec, (b + 1) * kRqiBlock), tol,
                local, parts[static_cast<std::size_t>(b)]);
  });
  RefineReport rep;
  for (const RefineReport& p : parts) {
    rep.checked += p.checked;
    rep.refined += p.refined;
    rep.iterations += p.iterations;
    rep.max_resid_before = std::max(rep.max_resid_before, p.max_resid_before);
    rep.max_resid_after = std::max(rep.max_resid_after, p.max_resid_after);
  }
  return rep;
}

}  // namespace

RefineReport refine_eigenpairs(index_t n, const double* d, const double* e, double* lam,
                               double* v, index_t ldv, index_t nvec, int threads) {
  if (n <= 0 || nvec <= 0) return {};
  DNC_REQUIRE(ldv >= n, "refine_eigenpairs: ldv < n");

  const double tnorm = blas::lanst_one(n, d, e);
  const double eps = real_traits<double>::eps();
  const double tol = kTolFactor * eps * std::max(tnorm, real_traits<double>::safmin());
  PhaseRunner runner(threads, (nvec + kRqiBlock - 1) / kRqiBlock);

  RefineReport rep = rqi_sweep(n, d, e, lam, v, ldv, nvec, tol, runner);

  // Refined eigenvalues can cross their unrefined neighbours: re-sort pairs
  // (selection sort to minimise column swaps, as dsteqr does).
  const auto sort_pairs = [&] {
    for (index_t ii = 1; ii < nvec; ++ii) {
      const index_t i = ii - 1;
      index_t k = i;
      double p = lam[i];
      for (index_t j = ii; j < nvec; ++j) {
        if (lam[j] < p) {
          k = j;
          p = lam[j];
        }
      }
      if (k != i) {
        lam[k] = lam[i];
        lam[i] = p;
        blas::swap(n, v + i * ldv, v + k * ldv);
      }
    }
  };
  sort_pairs();

  // Cluster safety net. RQI converges to the eigenvector whose eigenvalue
  // is nearest the starting Rayleigh quotient; inside an fp32-degenerate
  // cluster it can fail two ways: two members both converge to the SAME
  // dominant eigenvector (visible as overlap), or -- when the intra-cluster
  // gap is itself fp32-residual-sized -- the fp32 basis is an internally
  // rotated but orthogonal basis of the eigenspace, RQI stalls at the gap,
  // and the stall is visible only as residual. Either trigger re-extracts
  // the column with inverse iteration kept orthogonal to its cluster
  // predecessors (the dstein recipe, warm-started from the current vector)
  // -- unlike a plain Gram-Schmidt sweep this re-converges to a genuine
  // eigenvector, so the fp64 residual is restored, not just orthogonality.
  // Chaining width for cluster detection. Two refined vectors of DISTINCT
  // clusters carry mutual overlap up to ~2 tol / gap, and gap can be as
  // small as `close` itself -- so `close` must be large enough that
  // 2 tol / close stays below fp64 orthogonality (~100 eps n). 1e-2 gives
  // boundary overlap ~ 6e3 eps, i.e. invisible at the n eps scale; the cost
  // is only that a broken cluster chains more members into the bisection
  // re-extraction below.
  const double close = 1e-2 * std::max(tnorm, real_traits<double>::safmin());
  // Overlap trigger: anything visible above fp64 round-off (clean vectors
  // sit at ~sqrt(n) eps). RQI alone stalls at the intra-cluster gap, so a
  // loose 1e-4-scale trigger would leave fp32-grade cross-talk in place.
  const double otol = 64.0 * eps * static_cast<double>(n);
  // Rounding floor on a computed ||r_k||_2, so the overlap bound below
  // holds for the exact residual. Being positive, it also keeps the scan
  // from skipping a pair at zero gap.
  const double rfloor =
      static_cast<double>(n) * eps * std::max(tnorm, real_traits<double>::safmin());
  // Polish window: the predecessors q of column k with lam_k - lam_q <= wide
  // (see (c) below); wstart[k] is its first column.
  const double wide = 5e-2 * std::max(tnorm, real_traits<double>::safmin());
  std::vector<index_t> wstart(static_cast<std::size_t>(nvec));
  const auto find_windows = [&] {
    for (index_t k = 0, q = 0; k < nvec; ++k) {
      while (lam[k] - lam[q] > wide) ++q;
      wstart[k] = q;
    }
  };
  find_windows();

  // Per block of kGramBlock columns [k0, k1): the banded Gram block
  // G = V[:, q0:k1-1]' V[:, k0:k1] (rows q0 .. k1-2, column-major), formed
  // by one GEMM. The scan forms it over the rows both the scan and the
  // polish need, and the polish reuses it unless a re-extraction changed V.
  const index_t nblocks = (nvec + kGramBlock - 1) / kGramBlock;
  const auto block_end = [&](index_t b) { return std::min(nvec, (b + 1) * kGramBlock); };
  struct Gram {
    index_t q0 = 0;
    std::vector<double> g;
  };
  std::vector<Gram> grams(static_cast<std::size_t>(nblocks));
  const auto form_gram = [&](index_t b, index_t q0) {
    const index_t k0 = b * kGramBlock, k1 = block_end(b), m = k1 - 1 - q0;
    Gram& gr = grams[static_cast<std::size_t>(b)];
    gr.q0 = q0;
    gr.g.resize(static_cast<std::size_t>(std::max<index_t>(m, 0) * (k1 - k0)));
    if (m > 0)
      blas::gemm(blas::Trans::Yes, blas::Trans::No, m, k1 - k0, n, 1.0, v + q0 * ldv, ldv,
                 v + k0 * ldv, ldv, 0.0, gr.g.data(), m);
  };

  // (a) Residual pass. A residual above tol marks a stalled column, which
  // breaks its cluster outright; the 2-norms bound every overlap. With
  // r = T v - lambda v and unit columns, (lam_k - lam_q) v_q'v_k =
  // v_k'r_q - v_q'r_k, so |v_q'v_k| <= (||r_q|| + ||r_k||) / (lam_k - lam_q).
  std::vector<double> rnorm(static_cast<std::size_t>(nvec));
  std::vector<char> stalled(static_cast<std::size_t>(nvec));
  runner.run(0, nblocks, 1, [&](index_t b) {
    std::vector<double> r(static_cast<std::size_t>(n));
    for (index_t k = b * kGramBlock; k < block_end(b); ++k) {
      const double* vk = v + k * ldv;
      tridiag_matvec(n, d, e, vk, r.data());
      stalled[k] = residual_inf(n, vk, r.data(), lam[k]) > tol;
      for (index_t i = 0; i < n; ++i) r[i] -= lam[k] * vk[i];
      rnorm[k] = blas::nrm2(n, r.data()) + rfloor;
    }
  });

  // Clusters: chains of neighbours at most `close` apart, each with its
  // largest residual norm and whether any member stalled.
  struct Cluster {
    index_t s, t;
    double rmax;
    bool stalled;
  };
  std::vector<Cluster> clusters;
  std::vector<index_t> cluster_of(static_cast<std::size_t>(nvec));
  for (index_t s = 0; s < nvec;) {
    Cluster c{s, s, rnorm[s], stalled[s] != 0};
    while (c.t + 1 < nvec && lam[c.t + 1] - lam[c.t] <= close) {
      ++c.t;
      c.rmax = std::max(c.rmax, rnorm[c.t]);
      c.stalled = c.stalled || stalled[c.t];
    }
    for (index_t k = s; k <= c.t; ++k) cluster_of[k] = static_cast<index_t>(clusters.size());
    clusters.push_back(c);
    s = c.t + 1;
  }

  // (b) Overlap scan. Column k is dotted with its cluster predecessors,
  // nearest first, until the bound drops below otol / 2 at some q: every
  // farther q (ascending lam, so a wider gap) is below it too, and its
  // computed dot could not exceed otol. So the pairs to test are
  // q in [qlo[k], k), all inside the block's Gram band. Each column records
  // the nearest q whose dot exceeds otol (-1 if none).
  std::vector<index_t> qlo(static_cast<std::size_t>(nvec));
  std::vector<index_t> fail(static_cast<std::size_t>(nvec), -1);
  runner.run(0, nblocks, 1, [&](index_t b) {
    const index_t k0 = b * kGramBlock, k1 = block_end(b);
    index_t q0 = wstart[k0];
    for (index_t k = k0; k < k1; ++k) {
      const Cluster& c = clusters[cluster_of[k]];
      index_t q = k;
      if (!c.stalled)
        while (q > c.s && c.rmax + rnorm[k] > 0.5 * otol * (lam[k] - lam[q - 1])) --q;
      qlo[k] = q;
      q0 = std::min(q0, q);
    }
    form_gram(b, q0);
    const index_t m = k1 - 1 - q0;
    const double* g = grams[static_cast<std::size_t>(b)].g.data();
    for (index_t k = k0; k < k1; ++k)
      for (index_t q = k - 1; q >= qlo[k]; --q)
        if (std::fabs(g[(q - q0) + (k - k0) * m]) > otol) {
          fail[k] = q;
          break;
        }
  });

  // Walk each cluster in the order a pairwise scan would, k ascending and q
  // descending, stopping at its first failed test; overlap_dots counts the
  // tests up to there.
  bool any_broken = false;
  Workspace work(n);
  std::vector<double>& y = work.y;
  TridiagLU<double>& lu = work.lu;
  for (const Cluster& c : clusters) {
    bool broken = c.stalled;
    for (index_t k = c.s + 1; k <= c.t && !broken; ++k) {
      broken = fail[k] >= 0;
      rep.overlap_dots += k - (broken ? fail[k] : qlo[k]);
    }
    if (!broken) continue;
    any_broken = true;
    // Re-extract the WHOLE cluster with fixed-shift inverse iteration (the
    // dstein recipe), shifts taken from Sturm bisection. Per-member repair
    // with Rayleigh or RQI-refined shifts cannot work here: when two fp32
    // columns collapse onto the same dominant eigenvector, the member
    // holding the duplicate would be orthogonalised against exactly the
    // direction its own shift amplifies, and the missing eigendirection is
    // recoverable only through its true eigenvalue -- which no surviving
    // column knows. Bisection is fp64-accurate regardless of how wrong the
    // fp32 start was; ascending order + Gram-Schmidt against the already
    // re-extracted predecessors makes each member claim a distinct
    // eigendirection (truly degenerate shifts coincide and GS alone picks
    // the remaining basis vector, exactly as in dstein).
    for (index_t k = c.s; k <= c.t; ++k) {
      double* vk = v + k * ldv;
      const double rho = nvec == n ? bisect_eigenvalue<double>(n, d, e, k) : lam[k];
      // Classical Gram-Schmidt run twice: after the solve collapses the
      // iterate towards the shift's eigendirection the remainder against the
      // predecessors can be small, and a single pass leaves eps/|remainder|
      // of round-off cross-talk -- twice is enough (Kahan-Parlett).
      const auto orthogonalise = [&] {
        for (int pass = 0; pass < 2; ++pass)
          for (index_t q = c.s; q < k; ++q) {
            const double* vq = v + q * ldv;
            blas::axpy(n, -blas::dot(n, vq, vk), vq, vk);
          }
      };
      for (int it = 0; it < 3; ++it) {
        ++rep.iterations;
        orthogonalise();
        double nrm = blas::nrm2(n, vk);
        if (!(nrm > 0.0)) break;
        blas::scal(n, 1.0 / nrm, vk);
        lu.factor(n, d, e, rho);
        lu.solve(n, vk);
        nrm = blas::nrm2(n, vk);
        if (!(nrm > 0.0) || !std::isfinite(nrm)) break;
        blas::scal(n, 1.0 / nrm, vk);
      }
      orthogonalise();
      const double nrm = blas::nrm2(n, vk);
      if (nrm > 0.0) blas::scal(n, 1.0 / nrm, vk);
      tridiag_matvec(n, d, e, vk, y.data());
      lam[k] = blas::dot(n, vk, y.data());
      rep.max_resid_after =
          std::max(rep.max_resid_after, residual_inf(n, vk, y.data(), lam[k]));
    }
  }
  // The cluster fix-up changes columns and eigenvalues: restore ascending
  // order, and let the polish re-form every Gram block from the new V.
  if (any_broken) {
    sort_pairs();
    find_windows();
  }

  // (c) Orthogonality polish. Each refined column is individually
  // fp64-accurate, but two columns with eigenvalue gap g still carry mutual
  // overlap up to (r_i + r_j) / g ~ 2 tol / g -- visible above the n-eps
  // noise floor whenever g is a small multiple of `close`. Every column k is
  // projected once off its window: v_k -= sum_q G_qk v_q over
  // wstart[k] <= q < k. Each subtraction perturbs the residual by
  // |G_qk| * g <= 2 tol, so fp64-grade residuals survive. One pass
  // suffices: after the scan every |G_qk| in a window is at most otol, so
  // the overlap the projection leaves is O(otol^2), even where v_q was
  // itself projected after G was formed. Pairs outside the window already
  // satisfy overlap <= 2 tol / wide ~ 1e3 eps, invisible at the n-eps
  // metric scale.
  //
  // A block reads the columns of its window and writes its own. Windows
  // reach back at most `reach` blocks, so blocks b and b + reach + 1 never
  // touch each other's columns: running the blocks in reach + 1 colour
  // phases (colour = b mod (reach + 1)) needs no n x nvec copy of V, and
  // every block sees the same inputs whatever the worker count.
  index_t reach = 0;
  for (index_t b = 0; b < nblocks; ++b)
    reach = std::max(reach, b - wstart[b * kGramBlock] / kGramBlock);
  for (index_t colour = 0; colour <= reach; ++colour)
    runner.run(colour, nblocks, reach + 1, [&](index_t b) {
      const index_t k0 = b * kGramBlock, k1 = block_end(b), nb = k1 - k0;
      if (any_broken) form_gram(b, wstart[k0]);
      const index_t q0 = grams[static_cast<std::size_t>(b)].q0, m = k1 - 1 - q0;
      std::vector<double> g = std::move(grams[static_cast<std::size_t>(b)].g);
      const index_t w0 = wstart[k0];  // the band rows above w0 lie outside every window
      if (w0 >= k1 - 1) return;
      for (index_t j = 0; j < nb; ++j)
        for (index_t q = w0; q < k1 - 1; ++q)
          if (q < wstart[k0 + j] || q >= k0 + j) g[(q - q0) + j * m] = 0.0;
      // The block's own columns are window members of its later columns
      // and are written too, so each panel of rows is projected in a copy
      // and then stored: row i of the result reads only row i of V.
      constexpr index_t kRows = 128;
      std::vector<double> x(static_cast<std::size_t>(kRows * nb));
      for (index_t i0 = 0; i0 < n; i0 += kRows) {
        const index_t rows = std::min(kRows, n - i0);
        for (index_t j = 0; j < nb; ++j)
          blas::copy(rows, v + i0 + (k0 + j) * ldv, x.data() + j * rows);
        blas::gemm(blas::Trans::No, blas::Trans::No, rows, nb, k1 - 1 - w0, -1.0,
                   v + i0 + w0 * ldv, ldv, g.data() + (w0 - q0), m, 1.0, x.data(), rows);
        for (index_t j = 0; j < nb; ++j)
          if (wstart[k0 + j] < k0 + j)
            blas::copy(rows, x.data() + j * rows, v + i0 + (k0 + j) * ldv);
      }
      for (index_t k = k0; k < k1; ++k) {
        if (wstart[k] == k) continue;  // empty window: column untouched
        const double nrm = blas::nrm2(n, v + k * ldv);
        if (nrm > 0.0) blas::scal(n, 1.0 / nrm, v + k * ldv);
      }
    });

  if (obs::metrics::enabled()) {
    namespace m = obs::metrics;
    m::add(m::register_metric(m::Kind::Counter, "dnc_refine_columns_total",
                              "result=\"checked\"",
                              "Eigenpairs examined/improved by fp64 refinement"),
           static_cast<double>(rep.checked));
    m::add(m::register_metric(m::Kind::Counter, "dnc_refine_columns_total",
                              "result=\"refined\"",
                              "Eigenpairs examined/improved by fp64 refinement"),
           static_cast<double>(rep.refined));
    if (rep.checked > 0)
      m::observe(m::register_metric(m::Kind::Histogram, "dnc_refine_steps", "",
                                    "Rayleigh-quotient iterations per refinement call"),
                 static_cast<double>(rep.iterations));
  }
  return rep;
}

}  // namespace dnc::lapack
