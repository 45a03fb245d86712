#include "mrrr/mrrr.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <type_traits>

#include "blas/aux.hpp"
#include "blas/level1.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "lapack/bisect.hpp"
#include "lapack/refine.hpp"
#include "lapack/stein.hpp"
#include "mrrr/getvec.hpp"
#include "mrrr/ldl.hpp"
#include "obs/analysis.hpp"
#include "obs/health.hpp"
#include "obs/telemetry.hpp"
#include "runtime/engine.hpp"

namespace dnc::mrrr {
namespace {

struct MrrrKinds {
  rt::KindId bisect, refine, getvec, cluster, setup, sort;
  explicit MrrrKinds(rt::TaskGraph& g) {
    setup = g.register_kind("RootRep", false, "#aaaaaa");
    bisect = g.register_kind("Bisection", false, "#1f77b4");
    refine = g.register_kind("RefineEig", false, "#17becf");
    getvec = g.register_kind("Getvec", false, "#9467bd");
    cluster = g.register_kind("ClusterShift", false, "#d62728");
    sort = g.register_kind("SortEigenvectors", true, "#8c564b");
  }
};

/// A unit of representation-tree work: a contiguous index range [k0, k1)
/// (block-local) whose eigenvalues share the representation `rep` and are
/// currently approximated by lam_local (relative to rep->sigma).
template <typename Real>
struct WorkItemT {
  std::shared_ptr<RepresentationT<Real>> rep;
  index_t k0, k1;
  std::vector<Real> lam_local;  ///< size k1-k0
  int depth = 0;
};

template <typename Real>
void mrrr_solve_impl(index_t n, const Real* d, const Real* e, std::vector<Real>& lam,
                     MatrixT<Real>& v, const Options& opt, Stats* stats,
                     const std::vector<int>& sim) {
  using WorkItem = WorkItemT<Real>;
  Stopwatch sw;
  obs::SolveScope scope("mrrr");
  DNC_REQUIRE(n >= 0, "mrrr_solve: n >= 0");
  if (stats) *stats = Stats{};
  lam.assign(n, Real(0));
  v.resize(n, n);
  if (n == 0) return;
  v.fill(Real(0));
  if (n == 1) {
    lam[0] = d[0];
    v(0, 0) = Real(1);
    if (stats) {
      stats->n = 1;
      stats->seconds = sw.elapsed();
    }
    return;
  }

  const Real eps = real_traits<Real>::eps();
  const Real safmin = real_traits<Real>::safmin();

  // dlarre's unconditional random ulp perturbation of the working copy of
  // T: absolutely degenerate ("glued") eigenvalues split by O(eps ||T||),
  // after which close-by shifts can create large relative gaps. Without
  // this no shift strategy can separate a zero-width cluster.
  std::vector<Real> dw(d, d + n), ew(e, e + n - 1);
  {
    Rng prng(0x135735ULL);
    for (auto& x : dw) x *= Real(1) + Real(4) * eps * Real(prng.uniform_sym());
    for (auto& x : ew) x *= Real(1) + Real(4) * eps * Real(prng.uniform_sym());
  }
  d = dw.data();
  e = ew.data();

  // ---- split into unreduced blocks (dlarra criterion) ----
  std::vector<index_t> block_start{0};
  for (index_t i = 0; i + 1 < n; ++i) {
    if (std::fabs(e[i]) <= eps * std::sqrt(std::fabs(d[i])) * std::sqrt(std::fabs(d[i + 1])))
      block_start.push_back(i + 1);
  }
  block_start.push_back(n);

  rt::TaskGraph graph;
  const MrrrKinds K(graph);
  rt::Runtime runtime(graph, opt.threads, opt.sched);

  std::mutex next_mu;
  std::vector<std::shared_ptr<rt::Handle>> block_handles;
  std::vector<WorkItem> items;
  index_t cluster_count = 0;
  int depth_used = 0;

  // ---- per block: root representation + eigenvalue bootstrap ----
  for (std::size_t b = 0; b + 1 < block_start.size(); ++b) {
    const index_t off = block_start[b];
    const index_t bn = block_start[b + 1] - off;
    if (bn == 1) {
      lam[off] = d[off];
      v(off, off) = Real(1);
      continue;
    }
    const Real* bd = d + off;
    const Real* be = e + off;
    Real glo, ghi;
    lapack::gershgorin_bounds(bn, bd, be, glo, ghi);
    const Real spread = std::max(ghi - glo, safmin);
    // Root shift just below the spectrum keeps D positive (definite
    // factorization => relatively robust).
    const Real sigma0 = glo - Real(0.03125) * spread;
    auto root = std::make_shared<RepresentationT<Real>>(ldl_factor(bn, bd, be, sigma0));
    // The crude pass only needs to land inside the refinement bracket; the
    // LDL bisection below restores full relative accuracy. A loose crude
    // tolerance halves the total Sturm-count work.
    const Real crude_tol = std::max(Real(1.0e-8) * spread,
                                    Real(4) * eps * std::max(std::fabs(glo), std::fabs(ghi)));

    // Crude eigenvalues for the whole block in one task (the recursive
    // interval bisection shares Sturm counts across eigenvalues), then
    // grain-sized refinement tasks against the root representation.
    auto crude = std::make_shared<std::vector<Real>>();
    auto hblock = std::make_shared<rt::Handle>("block");
    block_handles.push_back(hblock);
    graph.submit(K.bisect,
                 [bd, be, bn, crude, crude_tol] {
                   *crude = lapack::bisect_all(bn, bd, be, Real(0), crude_tol);
                 },
                 {{hblock.get(), rt::Access::InOut}});
    const index_t nchunks = (bn + opt.grain - 1) / opt.grain;
    for (index_t c = 0; c < nchunks; ++c) {
      const index_t k0 = c * opt.grain;
      const index_t k1 = std::min(k0 + opt.grain, bn);
      graph.submit(K.refine,
                   [&, off, k0, k1, root, crude, crude_tol, spread, eps] {
                     WorkItem item;
                     item.rep = root;
                     item.k0 = k0;
                     item.k1 = k1;
                     item.lam_local.resize(k1 - k0);
                     for (index_t k = k0; k < k1; ++k) {
                       const Real w = (*crude)[k];
                       // Refine against the root representation for high
                       // relative accuracy w.r.t. the shifted origin.
                       const Real lo = (w - root->sigma) - Real(4) * crude_tol - eps * spread;
                       const Real hi = (w - root->sigma) + Real(4) * crude_tol + eps * spread;
                       item.lam_local[k - k0] = bisect_ldl(*item.rep, k, lo, hi, Real(0));
                     }
                     std::lock_guard<std::mutex> lk(next_mu);
                     // Block offset is folded in by shifting indices here.
                     item.k0 += off;
                     item.k1 += off;
                     items.push_back(std::move(item));
                   },
                   {{hblock.get(), rt::Access::In}});
    }
  }
  runtime.wait_all();

  // Re-split bootstrap items so each WorkItem's indices are block-local
  // again (store block offset alongside). To keep the structure simple we
  // record the owning block for every global index.
  std::vector<index_t> block_of(n), block_off(n);
  for (std::size_t b = 0; b + 1 < block_start.size(); ++b)
    for (index_t i = block_start[b]; i < block_start[b + 1]; ++i) {
      block_of[i] = static_cast<index_t>(b);
      block_off[i] = block_start[b];
    }

  // ---- representation tree, level by level ----
  // Merge bootstrap chunks that belong to one block into a single sorted
  // item so cluster detection sees the whole block.
  {
    std::vector<WorkItem> merged;
    std::sort(items.begin(), items.end(),
              [](const WorkItem& a, const WorkItem& b) { return a.k0 < b.k0; });
    for (auto& it : items) {
      if (!merged.empty() && merged.back().rep == it.rep && merged.back().k1 == it.k0) {
        merged.back().lam_local.insert(merged.back().lam_local.end(), it.lam_local.begin(),
                                       it.lam_local.end());
        merged.back().k1 = it.k1;
      } else {
        merged.push_back(std::move(it));
      }
    }
    items = std::move(merged);
  }

  std::vector<WorkItem> current = std::move(items);
  while (!current.empty()) {
    std::vector<WorkItem> next;
    for (WorkItem& item : current) {
      depth_used = std::max(depth_used, item.depth);
      // Partition the item's eigenvalues into singletons and clusters by
      // relative gap with respect to the representation's origin.
      const index_t cnt = item.k1 - item.k0;
      index_t s = 0;
      while (s < cnt) {
        index_t t = s;
        while (t + 1 < cnt) {
          const Real gap = item.lam_local[t + 1] - item.lam_local[t];
          const Real scale =
              std::max(std::fabs(item.lam_local[t]), std::fabs(item.lam_local[t + 1]));
          if (gap > Real(opt.gaptol) * std::max(scale, safmin)) break;
          ++t;
        }
        const index_t g0 = item.k0 + s;          // global index of group start
        const index_t gcnt = t - s + 1;          // group size
        auto rep = item.rep;
        std::vector<Real> grp(item.lam_local.begin() + s, item.lam_local.begin() + s + gcnt);
        const index_t boff = block_off[g0];
        if (gcnt == 1 || item.depth >= opt.max_depth) {
          // Singletons get the O(n) twisted-factorization vector. A group
          // that is still clustered at max depth cannot be resolved by
          // representations at all (numerically degenerate eigenvalues);
          // for those we fall back to dstein-style inverse iteration with
          // reorthogonalisation inside the group -- the classical robust
          // treatment (see DESIGN.md).
          const bool degenerate_group = grp.size() > 1;
          graph.submit(
              K.getvec,
              [&, rep, g0, grp, boff, degenerate_group] {
                const index_t bn = rep->n();
                std::vector<Real> z(bn);
                if (degenerate_group) {
                  Rng rng(0x9d5ULL ^ static_cast<std::uint64_t>(g0));
                  for (std::size_t j = 0; j < grp.size(); ++j) {
                    lam[g0 + j] = rep->sigma + grp[j];
                    lapack::stein_vector(bn, d + boff, e + boff, lam[g0 + j],
                                 v.data() + boff + g0 * v.ld(), v.ld(),
                                 static_cast<index_t>(j), z.data(), rng);
                    blas::copy(bn, z.data(), v.data() + boff + (g0 + j) * v.ld());
                  }
                  return;
                }
                for (std::size_t j = 0; j < grp.size(); ++j) {
                  // grp values are already refined to full relative accuracy
                  // against this representation.
                  Real w = grp[j];
                  auto r = twisted_eigenvector(*rep, w, z.data());
                  // One Rayleigh correction step sharpens the eigenvalue.
                  const Real corr = rayleigh_correction(r);
                  if (std::isfinite(corr) && std::fabs(corr) < std::fabs(w) * Real(1e-2)) {
                    auto r2 = twisted_eigenvector(*rep, w + corr, z.data());
                    if (r2.resid < r.resid) {
                      r = r2;
                      w += corr;
                    } else {
                      r = twisted_eigenvector(*rep, w, z.data());
                    }
                  }
                  lam[g0 + j] = rep->sigma + w;
                  blas::copy(bn, z.data(), v.data() + boff + (g0 + j) * v.ld());
                }
              },
              {}, 2 * std::min(item.depth, 30));
        } else {
          // Cluster: shift to a new representation near the cluster and
          // refine the members against it.
          graph.submit(
              K.cluster,
              [&, rep, g0, grp, boff, eps, safmin, depth = item.depth] {

                const Real width = grp.back() - grp.front();
                const Real base = std::max(std::fabs(grp.front()), std::fabs(grp.back()));
                // Candidate shifts at either side of the cluster with a
                // dlarrf-style element-growth acceptance test: a shift whose
                // differential transform blows the pivots up does NOT yield
                // a relatively robust representation and must be rejected,
                // otherwise the refined cluster eigenvalues are garbage.
                const Real delta =
                    std::max(width, Real(4) * eps * std::max(base, safmin));
                Real dmax_parent = 0;
                for (Real x : rep->d) dmax_parent = std::max(dmax_parent, std::fabs(x));
                const Real growth_limit = Real(64) * std::max(dmax_parent, base);
                RepresentationT<Real> child;
                bool ok = false;
                for (double mult : {1.0, 4.0, 16.0, 0.25, 64.0}) {
                  for (int side = 0; side < 2 && !ok; ++side) {
                    const Real tau = side == 0 ? grp.front() - Real(mult) * delta
                                               : grp.back() + Real(mult) * delta;
                    RepresentationT<Real> cand;
                    if (!dstqds(*rep, tau, cand)) continue;
                    Real growth = 0;
                    for (Real x : cand.d) growth = std::max(growth, std::fabs(x));
                    if (growth > growth_limit) continue;
                    child = std::move(cand);
                    ok = true;
                  }
                  if (ok) break;
                }
                if (ok) {
                  // dlarrf's trick for glued clusters: perturb the child
                  // representation by a few random ulps. Exactly degenerate
                  // eigenvalues (zero-width clusters) can never be separated
                  // by shifting alone; the perturbation splits them by
                  // O(eps) so deeper levels resolve the members.
                  Rng prng(0x5eedULL ^ (static_cast<std::uint64_t>(g0) << 20) ^
                           static_cast<std::uint64_t>(depth));
                  for (auto& x : child.d)
                    x *= Real(1) + Real(4) * eps * Real(prng.uniform_sym());
                  for (auto& x : child.l)
                    x *= Real(1) + Real(4) * eps * Real(prng.uniform_sym());
                }
                WorkItem childitem;
                childitem.k0 = g0;
                childitem.k1 = g0 + static_cast<index_t>(grp.size());
                childitem.depth = depth + 1;
                if (ok) {
                  auto childrep = std::make_shared<RepresentationT<Real>>(std::move(child));
                  childitem.rep = childrep;
                  childitem.lam_local.resize(grp.size());
                  const Real tau = childrep->sigma - rep->sigma;
                  for (std::size_t j = 0; j < grp.size(); ++j) {
                    const index_t klocal = g0 + static_cast<index_t>(j) - boff;
                    const Real guess = grp[j] - tau;
                    const Real pad = width + delta * Real(16) + safmin;
                    childitem.lam_local[j] =
                        bisect_ldl(*childrep, klocal, guess - pad, guess + pad, Real(0));
                  }
                } else {
                  // Could not build a child representation: fall back to
                  // treating members as singletons of the parent.
                  childitem.rep = rep;
                  childitem.lam_local = grp;
                  childitem.depth = opt.max_depth;  // forces singleton path
                }
                std::lock_guard<std::mutex> lk(next_mu);
                next.push_back(std::move(childitem));
              },
              // Clusters gate the next representation level, so they
              // outrank same-depth singleton extraction.
              {}, 2 * std::min(item.depth, 30) + 1);
          ++cluster_count;
        }
        s = t + 1;
      }
    }
    runtime.wait_all();
    current = std::move(next);
  }

  // ---- orthogonality safety net ----
  // Pure MR3 relies on every cluster being resolved by shifts; representation
  // breakdowns or pathological gluings can leave near-parallel vectors in a
  // numerically degenerate group. A single MGS sweep over runs of
  // nearly-equal eigenvalues (triggered only when an overlap is actually
  // observed) bounds the orthogonality without disturbing resolved pairs.
  // This is a robustness deviation from MR3-SMP, recorded in DESIGN.md.
  graph.submit(
      K.getvec,
      [&, n, eps, safmin] {
        std::vector<index_t> order(n);
        std::iota(order.begin(), order.end(), index_t{0});
        std::sort(order.begin(), order.end(),
                  [&](index_t a, index_t b) { return lam[a] < lam[b]; });
        Real lmax = 0;
        for (Real x : lam) lmax = std::max(lmax, std::fabs(x));
        const Real close = Real(64) * eps * std::max(lmax, safmin);
        // The dot-product noise floor of unit vectors scales with eps, so
        // the overlap trigger must too (1e-8 would fire on every fp32 pair).
        const Real overlap_tol = std::is_same_v<Real, float> ? Real(1e-4) : Real(1e-8);
        index_t s = 0;
        while (s < n) {
          index_t t = s;
          while (t + 1 < n && lam[order[t + 1]] - lam[order[t]] <= close) ++t;
          if (t > s) {
            bool overlap = false;
            for (index_t a = s; a <= t && !overlap; ++a)
              for (index_t b = a + 1; b <= t && !overlap; ++b)
                if (std::fabs(blas::dot(n, v.data() + order[a] * v.ld(),
                                        v.data() + order[b] * v.ld())) > overlap_tol)
                  overlap = true;
            if (overlap) {
              // Recompute the whole run by inverse iteration with
              // reorthogonalisation (copying into a contiguous panel so the
              // prev-columns stride is uniform).
              MatrixT<Real> panel(n, t - s + 1);
              Rng rng(0xfa11ULL ^ static_cast<std::uint64_t>(s));
              for (index_t a = s; a <= t; ++a) {
                lapack::stein_vector(n, d, e, lam[order[a]], panel.data(), panel.ld(), a - s,
                             panel.data() + (a - s) * panel.ld(), rng);
              }
              for (index_t a = s; a <= t; ++a)
                blas::copy(n, panel.data() + (a - s) * panel.ld(),
                           v.data() + order[a] * v.ld());
            }
          }
          s = t + 1;
        }
      },
      {});
  runtime.wait_all();

  // ---- global ascending sort of the eigenpairs ----
  graph.submit(K.sort,
               [&, n] {
                 std::vector<index_t> order(n);
                 std::iota(order.begin(), order.end(), index_t{0});
                 std::sort(order.begin(), order.end(),
                           [&](index_t a, index_t b) { return lam[a] < lam[b]; });
                 MatrixT<Real> tmp(n, n);
                 std::vector<Real> ltmp(n);
                 for (index_t r = 0; r < n; ++r) {
                   ltmp[r] = lam[order[r]];
                   blas::copy(n, v.data() + order[r] * v.ld(), tmp.data() + r * tmp.ld());
                 }
                 lam.assign(ltmp.begin(), ltmp.end());
                 blas::lacpy(n, n, tmp.data(), tmp.ld(), v.data(), v.ld());
               },
               {});
  runtime.wait_all();

  const double seconds = sw.elapsed();
  rt::Trace trace;
  const rt::Trace* tr = nullptr;
  const bool want_export = obs::trace_export_requested() || obs::report_export_requested();
  if (stats || want_export) {
    trace = runtime.trace();
    tr = &trace;
  }
  if (stats) {
    stats->n = n;
    stats->blocks = static_cast<index_t>(block_start.size()) - 1;
    stats->clusters = cluster_count;
    stats->depth_used = depth_used;
    stats->trace = trace;
    stats->seconds = seconds;
    for (int w : sim) stats->simulated.push_back(obs::replay_trace(trace, w));
  }
  if (stats || want_export) {
    obs::SolveReport local;
    obs::SolveReport& rep = stats ? stats->report : local;
    scope.finish(rep, n, opt.threads, seconds, tr);
    rep.precision = precision_name(opt.precision);
    // Workspace telemetry: the final sort task's n x n scratch matrix plus
    // its n-vector of reordered eigenvalues; the n x n eigenvector output;
    // the per-solve eigenvalue/work arrays (lam + the per-block d/l copies
    // are O(n) and folded into context_bytes).
    const std::uint64_t nn = static_cast<std::uint64_t>(n);
    rep.memory.workspace_bytes = (nn * nn + nn) * sizeof(Real);
    rep.memory.output_bytes = nn * nn * sizeof(Real);
    rep.memory.context_bytes = 3u * nn * sizeof(Real);
    if (want_export) obs::export_solve_artifacts(rep, tr);
  }
}

}  // namespace

void mrrr_solve(index_t n, const double* d, const double* e, std::vector<double>& lam,
                Matrix& v, const Options& opt, Stats* stats, const std::vector<int>& sim) {
  // Always-on telemetry (DNC_METRICS / DNC_FLIGHT): the report must exist
  // for the epilogue to record it, so substitute a local Stats when the
  // caller passed none. mrrr_solve keeps (d, e) intact, so the health probe
  // needs no snapshot -- it reads the caller's buffers after the solve.
  const bool telemetry = obs::solve_telemetry_wanted() && n > 0;
  Stats local;
  Stats* st = stats ? stats : (telemetry ? &local : nullptr);
  if (opt.precision == Precision::F64 || n <= 1) {
    mrrr_solve_impl<double>(n, d, e, lam, v, opt, st, sim);
  } else {
    // fp32 fast path: narrow the tridiagonal, run the whole representation
    // tree in single precision, widen the eigenpairs back. Unlike the D&C
    // drivers, mrrr_solve does not destroy its inputs, so the caller's (d, e)
    // double the role of the fp64 reference matrix for refinement.
    std::vector<float> d32(d, d + n), e32;
    if (n > 1) e32.assign(e, e + n - 1);
    std::vector<float> lam32;
    MatrixT<float> v32;
    mrrr_solve_impl<float>(n, d32.data(), e32.data(), lam32, v32, opt, st, sim);
    lam.assign(lam32.begin(), lam32.end());
    v.resize(v32.rows(), v32.cols());
    for (index_t j = 0; j < v32.cols(); ++j) {
      const float* src = v32.data() + j * v32.ld();
      double* dst = v.data() + j * v.ld();
      for (index_t i = 0; i < v32.rows(); ++i) dst[i] = static_cast<double>(src[i]);
    }
    if (opt.precision == Precision::F32RefineF64 && n > 0) {
      const lapack::RefineReport rr =
          lapack::refine_eigenpairs(n, d, e, lam.data(), v.data(), v.ld(), v.cols(), {},
                                    opt.threads);
      if (st) st->refine = rr;
    }
  }
  if (telemetry && st && !lam.empty()) {
    obs::HealthProbe probe;
    probe.arm(n, d, e);
    st->report.health =
        probe.evaluate(lam.data(), v.data(), v.ld(), v.cols());
    st->report.has_health = st->report.health.sampled_columns > 0;
    obs::record_solve_telemetry(st->report, &st->trace);
  }
}

}  // namespace dnc::mrrr
