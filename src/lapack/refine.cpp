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
#include "lapack/tridiag_lu.hpp"
#include "obs/metrics.hpp"
#include "runtime/engine.hpp"
#include "runtime/graph.hpp"
#include "runtime/scheduler.hpp"

namespace dnc::lapack {
namespace {

// Per-column residual target, as a multiple of eps64 * ||T||_1.
constexpr double kTolFactor = 30.0;
// Rayleigh-quotient iterations per eigenpair before giving up.
constexpr int kMaxIters = 5;

// y = T x for the tridiagonal (d, e) of order n >= 1. Row i sums
// d[i] x[i], then e[i-1] x[i-1], then e[i] x[i+1]; the first and last
// rows are peeled so that the loop between them has no branch.
void tridiag_matvec(index_t n, const double* d, const double* e, const double* x, double* y) {
  if (n == 1) {
    y[0] = d[0] * x[0];
    return;
  }
  y[0] = d[0] * x[0] + e[0] * x[1];
  for (index_t i = 1; i + 1 < n; ++i) y[i] = d[i] * x[i] + e[i - 1] * x[i - 1] + e[i] * x[i + 1];
  y[n - 1] = d[n - 1] * x[n - 1] + e[n - 2] * x[n - 2];
}

// r = T x - lambda x, with y = T x already formed (r may be y); returns
// ||r||_inf. The maximum skips NaN entries, as std::max(m, NaN) keeps m,
// and does not depend on the order it visits the entries in, so four
// running maxima give the bits of one.
double residual_inf(index_t n, const double* x, const double* y, double lambda, double* r) {
  for (index_t i = 0; i < n; ++i) r[i] = y[i] - lambda * x[i];
  double m[4] = {0.0, 0.0, 0.0, 0.0};
  index_t i = 0;
  for (; i + 4 <= n; i += 4)
    for (int k = 0; k < 4; ++k) m[k] = std::max(m[k], std::fabs(r[i + k]));
  for (; i < n; ++i) m[0] = std::max(m[0], std::fabs(r[i]));
  return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
}

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

  /// Threads that run blocks, and the calling block's one in [0, workers()),
  /// for per-worker scratch.
  int workers() const { return runtime_ ? runtime_->threads() : 1; }
  int worker() const { return runtime_ ? rt::current_worker() : 0; }

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

// Columns per block of the overlap scan and the polish. Each block is one
// Gram product V[:, q0:k1]' V[:, k0:k1], so the block must be wide enough
// to run at GEMM speed and narrow enough that the band rows wasted above
// the diagonal stay few.
constexpr index_t kGramBlock = 64;

// The columns iterating at once in one RQI task, one lane each.
constexpr int kLanes = TridiagLUBatch<double>::kLanes;

// Where the sweep leaves each column's final residual, for the overlap
// scan: ||T v - lambda v||_2 + rfloor, and whether ||T v - lambda v||_inf
// stayed above tol.
struct ResidualOut {
  double rfloor;
  double* rnorm;
  char* stalled;
};

// Scratch of one RQI worker: the lanes' right-hand sides, interleaved as
// the batched LU wants them; the batched LU of T - rho I; and, one column
// at a time, an iterate w, its product T w and a residual r.
struct RqiWorkspace {
  explicit RqiWorkspace(index_t n) : x(n * kLanes), w(n), tw(n), r(n), lu(n) {}
  std::vector<double> x, w, tw, r;
  TridiagLUBatch<double> lu;
};

// Rayleigh-quotient iteration on columns [j0, j1), tallied into rep, with
// up to kLanes columns iterating together: each step factors T - rho_l I
// and solves for every active lane in one batched LU. A column leaves its
// lane when it converges, stagnates, blows up or runs out of steps, and the
// next column of the range takes the lane. Each column reads and writes
// only its own (lam[j], v[:,j]) and its residual outputs, and every lane
// does exactly what one column alone would, so disjoint ranges may run
// concurrently and give the same bits as one serial sweep.
void rqi_columns(index_t n, const double* d, const double* e, double* lam, double* v,
                 index_t ldv, index_t j0, index_t j1, double tol, const ResidualOut& out,
                 RqiWorkspace& ws, RefineReport& rep) {
  struct Lane {
    index_t j;
    double rho, resid;  // the shift of the next step; the residual of the current pair
    int steps;
  };
  Lane lanes[kLanes] = {};
  int active = 0;
  std::vector<double>& w = ws.w;
  std::vector<double>& tw = ws.tw;
  std::vector<double>& r = ws.r;
  // A column's final pair (lam[j], v[:,j]), with r = T v - lam[j] v and
  // resid = ||r||_inf: record what the overlap scan needs.
  const auto finish = [&](index_t j, double resid) {
    rep.max_resid_after = std::max(rep.max_resid_after, resid);
    out.stalled[j] = resid > tol;
    out.rnorm[j] = blas::nrm2(n, r.data()) + out.rfloor;
  };
  for (index_t next = j0;;) {
    while (active < kLanes && next < j1) {
      const index_t j = next++;
      double* vj = v + j * ldv;
      // fp32-normalised columns can be off by ~eps32 in SCALE even when
      // their direction is exact (a 2x2 rotation narrowed to fp32 has zero
      // residual but |1 - v'v| ~ 1e-8), and the residual fast path below
      // would then keep the bad scale: renormalise in fp64 first.
      const double nrm0 = blas::nrm2(n, vj);
      if (nrm0 > 0.0 && std::isfinite(nrm0)) blas::scal(n, 1.0 / nrm0, vj);
      tridiag_matvec(n, d, e, vj, tw.data());
      const double resid = residual_inf(n, vj, tw.data(), lam[j], r.data());
      ++rep.checked;
      rep.max_resid_before = std::max(rep.max_resid_before, resid);
      if (resid <= tol) {
        finish(j, resid);
        continue;
      }
      ++rep.refined;
      // Start from the fp64 Rayleigh quotient of the fp32 vector -- already
      // ~quadratically better than the fp32 eigenvalue.
      const double rho = blas::dot(n, vj, tw.data()) / blas::dot(n, vj, vj);
      lanes[active++] = {j, rho, resid, 0};
    }
    if (active == 0) return;

    // One step for every active lane: solve (T - rho I) w = v.
    rep.iterations += active;
    double rho[kLanes] = {};
    for (int l = 0; l < active; ++l) rho[l] = lanes[l].rho;
    ws.lu.factor(n, d, e, rho, active);
    for (int l = 0; l < active; ++l) {
      const double* vj = v + lanes[l].j * ldv;
      for (index_t i = 0; i < n; ++i) ws.x[i * kLanes + l] = vj[i];
    }
    ws.lu.solve(n, ws.x.data(), active);
    // Descending, so a finished lane can take the last lane's place.
    for (int l = active - 1; l >= 0; --l) {
      Lane& ln = lanes[l];
      double* vj = v + ln.j * ldv;
      for (index_t i = 0; i < n; ++i) w[i] = ws.x[i * kLanes + l];
      ++ln.steps;
      bool done = ln.steps == kMaxIters;
      bool kept = true;  // the step left the pair as it was, so r is not its residual
      const double nrm = blas::nrm2(n, w.data());
      if (nrm > 0.0 && std::isfinite(nrm)) {  // else the solve blew up: keep the pair
        blas::scal(n, 1.0 / nrm, w.data());
        tridiag_matvec(n, d, e, w.data(), tw.data());
        const double rho_new = blas::dot(n, w.data(), tw.data());
        const double resid_new = residual_inf(n, w.data(), tw.data(), rho_new, r.data());
        // Unless it stagnated: then keep the better pair we have.
        if (!(resid_new >= ln.resid)) {
          kept = false;
          blas::copy(n, w.data(), vj);
          lam[ln.j] = rho_new;
          ln.rho = rho_new;
          ln.resid = resid_new;
          done = done || ln.resid <= tol;
        }
      }
      if (!done && !kept) continue;
      if (kept) {
        tridiag_matvec(n, d, e, vj, tw.data());
        residual_inf(n, vj, tw.data(), lam[ln.j], r.data());
      }
      finish(ln.j, ln.resid);
      ln = lanes[--active];
    }
  }
}

// The RQI sweep over all nvec columns: blocks of kRqiBlock columns, each
// with its own partial report, on the workspace of the worker that runs it.
// Counts add and maxima combine exactly, so the reduced report (like the
// refined pairs) is independent of the worker count.
RefineReport rqi_sweep(index_t n, const double* d, const double* e, double* lam, double* v,
                       index_t ldv, index_t nvec, double tol, const ResidualOut& out,
                       PhaseRunner& runner) {
  const index_t nblocks = (nvec + kRqiBlock - 1) / kRqiBlock;
  std::vector<RefineReport> parts(static_cast<std::size_t>(nblocks));
  std::vector<std::unique_ptr<RqiWorkspace>> ws(static_cast<std::size_t>(runner.workers()));
  runner.run(0, nblocks, 1, [&](index_t b) {
    std::unique_ptr<RqiWorkspace>& mine = ws[static_cast<std::size_t>(runner.worker())];
    if (!mine) mine = std::make_unique<RqiWorkspace>(n);
    rqi_columns(n, d, e, lam, v, ldv, b * kRqiBlock, std::min(nvec, (b + 1) * kRqiBlock), tol,
                out, *mine, parts[static_cast<std::size_t>(b)]);
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

// refine_eigenpairs between its argument checks and its metrics: the sweep,
// the certification and, for a certified basis, the polish.
RefineReport refine(index_t n, const double* d, const double* e, double* lam, double* v,
                    index_t ldv, index_t nvec, int threads) {
  const double tnorm = blas::lanst_one(n, d, e);
  const double eps = real_traits<double>::eps();
  const double tol = kTolFactor * eps * std::max(tnorm, real_traits<double>::safmin());
  PhaseRunner runner(threads, (nvec + kRqiBlock - 1) / kRqiBlock);

  // The sweep leaves each column's residual 2-norm and whether it stalled
  // above tol. A stalled column breaks its cluster outright; the 2-norms
  // bound every overlap. With r = T v - lambda v and unit columns,
  // (lam_k - lam_q) v_q'v_k = v_k'r_q - v_q'r_k, so
  // |v_q'v_k| <= (||r_q|| + ||r_k||) / (lam_k - lam_q). The rounding floor
  // rfloor on a computed ||r_k||_2 makes the bound hold for the exact
  // residual; being positive, it also keeps the scan from skipping a pair
  // at zero gap.
  const double rfloor =
      static_cast<double>(n) * eps * std::max(tnorm, real_traits<double>::safmin());
  std::vector<double> rnorm(static_cast<std::size_t>(nvec));
  std::vector<char> stalled(static_cast<std::size_t>(nvec));
  RefineReport rep = rqi_sweep(n, d, e, lam, v, ldv, nvec, tol,
                               ResidualOut{rfloor, rnorm.data(), stalled.data()}, runner);

  // Refined eigenvalues can cross their unrefined neighbours: re-sort pairs
  // (selection sort to minimise column swaps, as dsteqr does), and their
  // residuals with them.
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
      std::swap(rnorm[i], rnorm[k]);
      std::swap(stalled[i], stalled[k]);
    }
  }

  // Certification. RQI converges to the eigenvector whose eigenvalue is
  // nearest the starting Rayleigh quotient; inside an fp32-degenerate
  // cluster it can fail two ways: two members both converge to the SAME
  // dominant eigenvector (visible as overlap), or -- when the intra-cluster
  // gap is itself fp32-residual-sized -- the fp32 basis is an internally
  // rotated but orthogonal basis of the eigenspace, RQI stalls at the gap,
  // and the stall is visible only as residual. A cluster with either is
  // broken: the pairs are returned unpolished and the caller solves again
  // in fp64 (lapack/front_door.hpp).
  // Chaining width for cluster detection. Two refined vectors of DISTINCT
  // clusters carry mutual overlap up to ~2 tol / gap, and gap can be as
  // small as `close` itself -- so `close` must be large enough that
  // 2 tol / close stays below fp64 orthogonality (~100 eps n). 1e-2 gives
  // boundary overlap ~ 6e3 eps, i.e. invisible at the n eps scale.
  const double close = 1e-2 * std::max(tnorm, real_traits<double>::safmin());
  // Overlap trigger: anything visible above fp64 round-off (clean vectors
  // sit at ~sqrt(n) eps). RQI alone stalls at the intra-cluster gap, so a
  // loose 1e-4-scale trigger would leave fp32-grade cross-talk in place.
  const double otol = 64.0 * eps * static_cast<double>(n);
  // Polish window: the predecessors q of column k with lam_k - lam_q <= wide
  // (see (b) below); wstart[k] is its first column.
  const double wide = 5e-2 * std::max(tnorm, real_traits<double>::safmin());
  std::vector<index_t> wstart(static_cast<std::size_t>(nvec));
  for (index_t k = 0, q = 0; k < nvec; ++k) {
    while (lam[k] - lam[q] > wide) ++q;
    wstart[k] = q;
  }

  // Per block of kGramBlock columns [k0, k1): the banded Gram block
  // G = V[:, q0:k1-1]' V[:, k0:k1] (rows q0 .. k1-2, column-major), formed
  // by one GEMM over the rows both the scan and the polish need.
  const index_t nblocks = (nvec + kGramBlock - 1) / kGramBlock;
  const auto block_end = [&](index_t b) { return std::min(nvec, (b + 1) * kGramBlock); };
  struct Gram {
    index_t q0 = 0;
    std::vector<double> g;
  };
  std::vector<Gram> grams(static_cast<std::size_t>(nblocks));

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

  // (a) Overlap scan. Column k is dotted with its cluster predecessors,
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
    const index_t m = k1 - 1 - q0;
    Gram& gr = grams[static_cast<std::size_t>(b)];
    gr.q0 = q0;
    gr.g.resize(static_cast<std::size_t>(std::max<index_t>(m, 0) * (k1 - k0)));
    if (m <= 0) return;
    blas::gemm(blas::Trans::Yes, blas::Trans::No, m, k1 - k0, n, 1.0, v + q0 * ldv, ldv,
               v + k0 * ldv, ldv, 0.0, gr.g.data(), m);
    for (index_t k = k0; k < k1; ++k)
      for (index_t q = k - 1; q >= qlo[k]; --q)
        if (std::fabs(gr.g[(q - q0) + (k - k0) * m]) > otol) {
          fail[k] = q;
          break;
        }
  });

  // Walk each cluster in the order a pairwise scan would, k ascending and q
  // descending, stopping at its first failed test; overlap_dots counts the
  // tests up to there.
  for (const Cluster& c : clusters) {
    bool broken = c.stalled;
    for (index_t k = c.s + 1; k <= c.t && !broken; ++k) {
      broken = fail[k] >= 0;
      rep.overlap_dots += k - (broken ? fail[k] : qlo[k]);
    }
    if (broken) ++rep.broken_clusters;
  }
  if (rep.broken_clusters > 0) return rep;

  // (b) Orthogonality polish. Each refined column is individually
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

  return rep;
}

}  // namespace

RefineReport refine_eigenpairs(index_t n, const double* d, const double* e, double* lam,
                               double* v, index_t ldv, index_t nvec, int threads) {
  if (n <= 0 || nvec <= 0) return {};
  DNC_REQUIRE(ldv >= n, "refine_eigenpairs: ldv < n");
  const RefineReport rep = refine(n, d, e, lam, v, ldv, nvec, threads);
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
