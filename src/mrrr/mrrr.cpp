#include "mrrr/mrrr.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <type_traits>

#include "blas/aux.hpp"
#include "blas/level1.hpp"
#include "blas/simd/kernels.hpp"
#include "common/error.hpp"
#include "common/real_traits.hpp"
#include "common/rng.hpp"
#include "lapack/bisect.hpp"
#include "lapack/front_door.hpp"
#include "lapack/stein.hpp"
#include "lapack/sterf.hpp"
#include "mrrr/getvec.hpp"
#include "mrrr/ldl.hpp"
#include "obs/report.hpp"
#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"

namespace dnc::mrrr {
namespace {

/// Relative gap below which neighbouring eigenvalues form a cluster.
constexpr double kGapTol = 1.0e-3;
/// Maximum representation-tree depth; clusters still unresolved at this
/// depth are treated as singletons (the usual MRRR accuracy trade-off).
constexpr int kMaxDepth = 8;

struct MrrrKinds {
  rt::KindId bisect, refine, getvec, cluster, setup, sort, safety;
  explicit MrrrKinds(rt::TaskGraph& g) {
    setup = g.register_kind("RootRep", false, "#aaaaaa");
    // "Bisection" names the root-eigenvalue bootstrap, which is sterf with
    // bisect_all as its fallback; the name is kept so that traces and
    // mrrr.busy_s.Bisection stay comparable across versions.
    bisect = g.register_kind("Bisection", false, "#1f77b4");
    refine = g.register_kind("RefineEig", false, "#17becf");
    getvec = g.register_kind("Getvec", false, "#9467bd");
    cluster = g.register_kind("ClusterShift", false, "#d62728");
    sort = g.register_kind("SortEigenvectors", true, "#8c564b");
    // Registered last so the kind ids above keep their values.
    safety = g.register_kind("SafetyNet", false, "#bcbd22");
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
  /// Handle the producing task wrote. The tasks that consume lam_local read
  /// it, so the traced DAG carries the phase order wait_all() enforces.
  const rt::Handle* src = nullptr;
};

/// A block's root eigenvalues (ascending, absolute) and a bound on their
/// absolute error, written by the Bisection task.
template <typename Real>
struct RootEigs {
  std::vector<Real> w;
  Real pad = 0;
};

template <typename Real>
void mrrr_solve_impl(index_t n, const Real* d, const Real* e, Real* lam, MatrixT<Real>& v,
                     const Options& opt, Stats* stats, const std::vector<int>& sim) {
  using WorkItem = WorkItemT<Real>;
  obs::SolveScope scope("mrrr", precision_name(opt.precision),
                        blas::simd::kernels_t<Real>().name);
  if (stats) *stats = Stats{};
  std::fill(lam, lam + n, Real(0));
  v.resize(n, n);
  if (n == 0) return;
  v.fill(Real(0));
  if (n == 1) {
    lam[0] = d[0];
    v(0, 0) = Real(1);
    if (stats) stats->n = 1;
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
  rt::Runtime runtime(graph, opt.threads);

  // Dependency handles live as long as the graph: it keys them by address.
  std::deque<rt::Handle> handles;
  const auto new_handle = [&](const char* label) { return &handles.emplace_back(label); };
  // Every eigenvector task writes its own columns of v (and entries of lam).
  const rt::Handle* hv = new_handle("V");

  std::mutex next_mu;
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
    const Real gmax = std::max(std::fabs(glo), std::fabs(ghi));
    // Root shift just below the spectrum keeps D positive (definite
    // factorization => relatively robust).
    const Real sigma0 = glo - Real(0.03125) * spread;
    auto root = std::make_shared<RepresentationT<Real>>(ldl_factor(bn, bd, be, sigma0));

    // All root eigenvalues in O(bn^2) by square-root-free QL (sterf, a
    // dsterf port) on a copy of the block. Against fp64 bisection over the
    // 15 Table III types at n in {512, 2000} they are off by up to
    // 147 * eps * max|lambda| in fp64 (type 15, n = 2000) and 674 in fp32
    // (type 11), so the pad below (about 10 * eps * max|lambda|) does not
    // cover every one, and some refinement brackets widen. If QL fails to
    // converge, interval bisection at a loose tolerance takes over. Either
    // way the values only need to land near the refinement bracket:
    // RefineEig verifies and restores full relative accuracy against the
    // root.
    auto root_eigs = std::make_shared<RootEigs<Real>>();
    const rt::Handle* hblock = new_handle("block");
    const rt::Handle* hvals = new_handle("vals");
    graph.submit(K.bisect,
                 [bd, be, bn, root_eigs, gmax, spread, eps] {
                   RootEigs<Real>& r = *root_eigs;
                   r.w.assign(bd, bd + bn);
                   std::vector<Real> ework(be, be + bn - 1);
                   try {
                     lapack::sterf(bn, r.w.data(), ework.data());
                     r.pad = Real(8) * eps * gmax + eps * spread;
                   } catch (const NumericalError&) {
                     const Real tol = std::max(Real(1.0e-8) * spread, Real(4) * eps * gmax);
                     r.w = lapack::bisect_all(bn, bd, be, Real(0), tol);
                     r.pad = Real(4) * tol + eps * spread;
                   }
                 },
                 {{hblock, rt::Access::Out}});
    const index_t nchunks = (bn + opt.grain - 1) / opt.grain;
    for (index_t c = 0; c < nchunks; ++c) {
      const index_t k0 = c * opt.grain;
      const index_t k1 = std::min(k0 + opt.grain, bn);
      graph.submit(K.refine,
                   [&, off, k0, k1, root, root_eigs, hvals] {
                     WorkItem item;
                     item.rep = root;
                     item.k0 = off + k0;
                     item.k1 = off + k1;
                     item.src = hvals;
                     const index_t m = k1 - k0;
                     std::vector<index_t> ks(m);
                     std::vector<Real> guess(m), pad(m, root_eigs->pad);
                     for (index_t k = k0; k < k1; ++k) {
                       ks[k - k0] = k;
                       guess[k - k0] = root_eigs->w[k] - root->sigma;
                     }
                     item.lam_local.resize(m);
                     refine_ldl(*root, m, ks.data(), guess.data(), pad.data(),
                                item.lam_local.data());
                     std::lock_guard<std::mutex> lk(next_mu);
                     items.push_back(std::move(item));
                   },
                   {{hblock, rt::Access::In}, {hvals, rt::Access::GatherV}});
    }
  }
  runtime.wait_all();

  // Record the owning block's offset for every global index.
  std::vector<index_t> block_off(n);
  for (std::size_t b = 0; b + 1 < block_start.size(); ++b)
    for (index_t i = block_start[b]; i < block_start[b + 1]; ++i) block_off[i] = block_start[b];

  // Items complete in any order; sorting by first index keeps the
  // submission order (and so task ids and the DAG) the same on every run.
  const auto by_index = [](const WorkItem& a, const WorkItem& b) { return a.k0 < b.k0; };

  // ---- representation tree, level by level ----
  // Merge bootstrap chunks that belong to one block into a single sorted
  // item so cluster detection sees the whole block.
  {
    std::vector<WorkItem> merged;
    std::sort(items.begin(), items.end(), by_index);
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

  // Getvec tasks: the eigenvectors of grp (values relative to rep, already
  // refined to full relative accuracy against it) for the global indices
  // g0, g0 + 1, ... Each task factors its whole run in two batched
  // twisted_eigenvectors passes: all members, then the members whose
  // Rayleigh correction is worth trying. A corrected vector is kept only
  // when its residual is smaller.
  const auto submit_singletons = [&](const WorkItem& item, index_t g0, std::vector<Real> grp) {
    auto rep = item.rep;
    const index_t boff = block_off[g0];
    graph.submit(
        K.getvec,
        [&, rep, g0, grp = std::move(grp), boff] {
          const index_t bn = rep->n();
          const index_t m = static_cast<index_t>(grp.size());
          Real* vcol = v.data() + boff + g0 * v.ld();
          std::vector<GetvecResultT<Real>> r(m);
          twisted_eigenvectors(*rep, m, grp.data(), vcol, v.ld(), r.data());
          std::vector<index_t> sel;
          std::vector<Real> wc;
          for (index_t j = 0; j < m; ++j) {
            lam[g0 + j] = rep->sigma + grp[j];
            const Real corr = rayleigh_correction(r[j]);
            if (std::isfinite(corr) && std::fabs(corr) < std::fabs(grp[j]) * Real(1e-2)) {
              sel.push_back(j);
              wc.push_back(grp[j] + corr);
            }
          }
          if (sel.empty()) return;
          const index_t mc = static_cast<index_t>(sel.size());
          std::vector<Real> zc(bn * mc);
          std::vector<GetvecResultT<Real>> rc(mc);
          twisted_eigenvectors(*rep, mc, wc.data(), zc.data(), bn, rc.data());
          for (index_t q = 0; q < mc; ++q) {
            const index_t j = sel[q];
            if (rc[q].resid < r[j].resid) {
              lam[g0 + j] = rep->sigma + wc[q];
              blas::copy(bn, zc.data() + q * bn, vcol + j * v.ld());
            }
          }
        },
        {{item.src, rt::Access::In}, {hv, rt::Access::GatherV}}, 2 * std::min(item.depth, 30));
  };

  std::vector<WorkItem> current = std::move(items);
  while (!current.empty()) {
    std::vector<WorkItem> next;
    for (WorkItem& item : current) {
      depth_used = std::max(depth_used, item.depth);
      // Runs of consecutive singletons, cut at opt.grain members, become
      // one Getvec task each.
      index_t run0 = 0;
      std::vector<Real> run;
      const auto flush_run = [&] {
        if (!run.empty()) submit_singletons(item, run0, std::move(run));
        run.clear();
      };
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
          if (gap > Real(kGapTol) * std::max(scale, safmin)) break;
          ++t;
        }
        const index_t g0 = item.k0 + s;          // global index of group start
        const index_t gcnt = t - s + 1;          // group size
        if (gcnt == 1) {
          if (run.empty()) run0 = g0;
          run.push_back(item.lam_local[s]);
          if (static_cast<index_t>(run.size()) == opt.grain) flush_run();
          s = t + 1;
          continue;
        }
        flush_run();
        auto rep = item.rep;
        std::vector<Real> grp(item.lam_local.begin() + s, item.lam_local.begin() + s + gcnt);
        const index_t boff = block_off[g0];
        if (item.depth >= kMaxDepth) {
          // A group that is still clustered at max depth cannot be resolved
          // by representations at all (numerically degenerate
          // eigenvalues); for those we fall back to dstein-style inverse
          // iteration with reorthogonalisation inside the group -- the
          // classical robust treatment (see DESIGN.md).
          graph.submit(
              K.getvec,
              [&, rep, g0, grp, boff] {
                const index_t bn = rep->n();
                std::vector<Real> z(bn);
                Rng rng(0x9d5ULL ^ static_cast<std::uint64_t>(g0));
                for (std::size_t j = 0; j < grp.size(); ++j) {
                  lam[g0 + j] = rep->sigma + grp[j];
                  lapack::stein_vector(bn, d + boff, e + boff, lam[g0 + j],
                                       v.data() + boff + g0 * v.ld(), v.ld(),
                                       static_cast<index_t>(j), z.data(), rng);
                  blas::copy(bn, z.data(), v.data() + boff + (g0 + j) * v.ld());
                }
              },
              {{item.src, rt::Access::In}, {hv, rt::Access::GatherV}},
              2 * std::min(item.depth, 30));
        } else {
          // Cluster: shift to a new representation near the cluster and
          // refine the members against it.
          const rt::Handle* hchild = new_handle("cluster");
          graph.submit(
              K.cluster,
              [&, rep, g0, grp, boff, eps, safmin, hchild, depth = item.depth] {

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
                WorkItem childitem;
                childitem.k0 = g0;
                childitem.k1 = g0 + static_cast<index_t>(grp.size());
                childitem.depth = depth + 1;
                childitem.src = hchild;
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
                  auto childrep = std::make_shared<RepresentationT<Real>>(std::move(child));
                  childitem.rep = childrep;
                  childitem.lam_local.resize(grp.size());
                  const Real tau = childrep->sigma - rep->sigma;
                  // Members are refined in grain-sized child tasks. The
                  // parent knows each member to full relative accuracy, so
                  // the shifted guess is off by a few ulps of |member|+|tau|.
                  const index_t m = static_cast<index_t>(grp.size());
                  const long nchunks = static_cast<long>((m + opt.grain - 1) / opt.grain);
                  std::atomic<bool> failed{false};
                  rt::spawn_and_wait("refine", nchunks, [&](long c) {
                    const index_t j0 = static_cast<index_t>(c) * opt.grain;
                    const index_t j1 = std::min(j0 + opt.grain, m);
                    std::vector<index_t> ks(j1 - j0);
                    std::vector<Real> guess(j1 - j0), pad(j1 - j0);
                    for (index_t j = j0; j < j1; ++j) {
                      ks[j - j0] = g0 + j - boff;
                      guess[j - j0] = grp[j] - tau;
                      pad[j - j0] =
                          Real(16) * eps * (std::fabs(grp[j]) + std::fabs(tau)) + safmin;
                    }
                    try {
                      refine_ldl(*childrep, j1 - j0, ks.data(), guess.data(), pad.data(),
                                 childitem.lam_local.data() + j0);
                    } catch (const NumericalError&) {
                      failed = true;
                    }
                  });
                  ok = !failed;
                }
                if (!ok) {
                  // Could not build (or refine against) a child
                  // representation: fall back to treating members as
                  // singletons of the parent.
                  childitem.rep = rep;
                  childitem.lam_local = grp;
                  childitem.depth = kMaxDepth;  // forces singleton path
                }
                std::lock_guard<std::mutex> lk(next_mu);
                next.push_back(std::move(childitem));
              },
              // Clusters gate the next representation level, so they
              // outrank same-depth singleton extraction.
              {{item.src, rt::Access::In}, {hchild, rt::Access::Out}},
              2 * std::min(item.depth, 30) + 1);
          ++cluster_count;
        }
        s = t + 1;
      }
      flush_run();
    }
    runtime.wait_all();
    std::sort(next.begin(), next.end(), by_index);
    current = std::move(next);
  }

  // ---- orthogonality safety net ----
  // Pure MR3 relies on every cluster being resolved by shifts; representation
  // breakdowns or pathological gluings can leave near-parallel vectors in a
  // numerically degenerate group. A single MGS sweep over runs of
  // nearly-equal eigenvalues (triggered only when an overlap is actually
  // observed) bounds the orthogonality without disturbing resolved pairs.
  // This is a robustness deviation from MR3-SMP, recorded in DESIGN.md.
  // It has its own task kind, so traces and `dnc diff` separate its cost
  // from eigenvector extraction.
  graph.submit(
      K.safety,
      [&, n, eps, safmin] {
        std::vector<index_t> order(n);
        std::iota(order.begin(), order.end(), index_t{0});
        std::sort(order.begin(), order.end(),
                  [&](index_t a, index_t b) { return lam[a] < lam[b]; });
        Real lmax = 0;
        for (index_t i = 0; i < n; ++i) lmax = std::max(lmax, std::fabs(lam[i]));
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
      {{hv, rt::Access::InOut}});

  // ---- global ascending sort of the eigenpairs ----
  // Only misplaced columns move: each cycle of the permutation is followed
  // with one column buffer, so an identity order copies nothing.
  graph.submit(K.sort,
               [&, n] {
                 std::vector<index_t> order(n);
                 std::iota(order.begin(), order.end(), index_t{0});
                 std::sort(order.begin(), order.end(),
                           [&](index_t a, index_t b) { return lam[a] < lam[b]; });
                 std::vector<Real> col;
                 const auto column = [&](index_t j) { return v.data() + j * v.ld(); };
                 for (index_t r = 0; r < n; ++r) {
                   if (order[r] == r) continue;
                   // Position r's old pair is overwritten first: park it.
                   col.resize(n);
                   blas::copy(n, column(r), col.data());
                   const Real lr = lam[r];
                   index_t dst = r;
                   for (index_t src = order[dst]; src != r; src = order[dst]) {
                     blas::copy(n, column(src), column(dst));
                     lam[dst] = lam[src];
                     order[dst] = dst;
                     dst = src;
                   }
                   blas::copy(n, col.data(), column(dst));
                   lam[dst] = lr;
                   order[dst] = dst;
                 }
               },
               {{hv, rt::Access::InOut}});
  runtime.wait_all();

  if (stats == nullptr) return;
  stats->n = n;
  stats->blocks = static_cast<index_t>(block_start.size()) - 1;
  stats->clusters = cluster_count;
  stats->depth_used = depth_used;
  stats->trace = runtime.trace();
  obs::SolveReport& rep = stats->report;
  scope.finish(rep, n, opt.threads, &stats->trace, sim, stats->simulated);
  // Workspace telemetry: the final sort task's one column buffer; the
  // n x n eigenvector output; the per-solve eigenvalue/work arrays (lam +
  // the per-block d/l copies are O(n) and folded into context_bytes).
  const std::uint64_t nn = static_cast<std::uint64_t>(n);
  rep.memory.workspace_bytes = nn * sizeof(Real);
  rep.memory.output_bytes = nn * nn * sizeof(Real);
  rep.memory.context_bytes = 3u * nn * sizeof(Real);
}

}  // namespace

void mrrr_solve(index_t n, const double* d, const double* e, std::vector<double>& lam,
                Matrix& v, const Options& opt, Stats* stats, const std::vector<int>& sim) {
  lam.resize(static_cast<std::size_t>(std::max<index_t>(n, 0)));
  lapack::solve_front_door("mrrr_solve", n, d, e, lam.data(), v, opt.precision, stats,
                           [&](const auto* wd, const auto* we, auto* wlam, auto& wv, Stats* st) {
                             mrrr_solve_impl(n, wd, we, wlam, wv, opt, st, sim);
                           });
}

}  // namespace dnc::mrrr
