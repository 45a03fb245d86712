#include "dc/emit.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "blas/aux.hpp"
#include "blas/level1.hpp"
#include "blas/simd/kernels.hpp"
#include "dc/api.hpp"
#include "lapack/front_door.hpp"
#include "lapack/steqr.hpp"
#include "runtime/dot.hpp"
#include "runtime/scheduler.hpp"

namespace dnc::dc {
namespace detail {
namespace {

// Task kinds in registration order (kind 0 is the graph's generic task),
// coloured as in the paper's Table II; memory-bound kinds share bandwidth
// in the DAG replay.
enum Kind : rt::KindId {
  kScale = 1, kPartition, kLaset, kStedc, kDeflate, kPermute, kLaed4, kLocalW, kReduceW,
  kCopyBack, kComputeVect, kUpdateVect, kSort
};

void register_kinds(rt::TaskGraph& g) {
  struct Info {
    const char* name;
    bool memory_bound;
    const char* color;
  };
  static const Info kInfo[] = {
      {"ScaleT", false, "#aaaaaa"},           {"Partitioning", false, "#aaaaaa"},
      {"LASET", true, "#7f7f7f"},             {"STEDC", false, "#e377c2"},
      {"ComputeDeflation", false, "#17becf"}, {"PermuteV", true, "#ff7f0e"},
      {"LAED4", false, "#1f77b4"},            {"ComputeLocalW", false, "#2ca02c"},
      {"ReduceW", false, "#98df8a"},          {"CopyBackDeflated", true, "#bcbd22"},
      {"ComputeVect", false, "#9467bd"},      {"UpdateVect", false, "#d62728"},
      {"SortEigenvectors", true, "#8c564b"}};
  for (const Info& k : kInfo) g.register_kind(k.name, k.memory_bound, k.color);
}

const char* model_name(ExecModel model) {
  static const char* const kNames[] = {"sequential", "taskflow", "lapack_model",
                                       "scalapack_model"};
  return kNames[static_cast<int>(model)];
}

/// Scheduling priority of a D&C task: deeper merge-tree levels outrank
/// shallower ones (leaves are deepest, the root is level 0) so subtrees
/// retire and unlock their joins early, and within a level the join
/// kernels (Deflate, ReduceW -- the serial bottleneck of every merge)
/// outrank the panel fan-out so the critical path drains first. The result
/// fits the scheduler's [0, 63] priority buckets.
int task_priority(int level, bool join) {
  level = std::clamp(level, 0, 30);
  return 2 * level + (join ? 1 : 0);
}

/// Trivial sizes handled without the machinery. Returns true if done.
template <typename Real>
bool solve_trivial(index_t n, Real* d, Real* e, MatrixT<Real>& v) {
  if (n > 2) return false;
  v.resize(n, n);
  if (n == 0) return true;
  // steqr handles n = 1, 2 directly (and sorts).
  lapack::steqr(lapack::CompZ::Identity, n, d, e, v.data(), std::max<index_t>(1, n));
  return true;
}

/// Scales d/e so the norm is 1 (dstedc's orgnrm scaling); returns the
/// original norm (0 means the matrix was zero and nothing was scaled).
template <typename Real>
Real scale_problem(index_t n, Real* d, Real* e) {
  const Real orgnrm = blas::lanst_max(n, d, e);
  if (orgnrm == Real(0)) return Real(0);
  blas::lascl(n, 1, orgnrm, Real(1), d, n);
  if (n > 1) blas::lascl(n - 1, 1, orgnrm, Real(1), e, n);
  return orgnrm;
}

template <typename Real>
void unscale_eigenvalues(index_t n, Real* d, Real orgnrm) {
  if (orgnrm != Real(0) && orgnrm != Real(1)) blas::lascl(n, 1, Real(1), orgnrm, d, n);
}

/// Applies Cuppen's boundary modification: for every internal node, the
/// two diagonal entries adjacent to the split lose |e_split| (see
/// DESIGN.md for why the absolute value is correct for both signs).
template <typename Real>
void adjust_boundaries(const Plan& plan, Real* d, const Real* e) {
  for (const TreeNode& node : plan.nodes) {
    if (node.leaf()) continue;
    const index_t split = node.i0 + node.n1 - 1;  // coupling e[split]
    const Real b = std::fabs(e[split]);
    d[split] -= b;
    d[split + 1] -= b;
  }
}

/// Solves one leaf with steqr into the node's block of v; perm gets the
/// identity (steqr sorts ascending).
template <typename Real>
void solve_leaf(const TreeNode& node, Real* d, Real* e, MatrixT<Real>& v, index_t* perm) {
  lapack::steqr(lapack::CompZ::Identity, node.m, d + node.i0,
                node.m > 1 ? e + node.i0 : nullptr,
                v.data() + node.i0 + node.i0 * v.ld(), v.ld());
  for (index_t r = 0; r < node.m; ++r) perm[node.i0 + r] = r;
}

/// Applies the root permutation: d and the columns of v are reordered
/// ascending using qwork as scratch.
template <typename Real>
void sort_eigenpairs(index_t n, Real* d, MatrixT<Real>& v, const index_t* perm,
                     const MatrixViewT<Real>& qwork) {
  std::vector<Real> dsorted(n);
  for (index_t r = 0; r < n; ++r) {
    dsorted[r] = d[perm[r]];
    blas::copy(n, v.data() + perm[r] * v.ld(), qwork.col(r));
  }
  blas::copy(n, dsorted.data(), d);
  blas::lacpy(n, n, qwork.data, qwork.ld, v.data(), v.ld());
}

/// Accumulates deflation statistics over the contexts.
template <typename Real>
void fill_stats(const Plan& plan, const Contexts<Real>& ctxs, SolveStats* stats) {
  stats->merges = 0;
  stats->leaves = plan.leaf_count;
  index_t total_m = 0, total_defl = 0;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    if (!ctxs[i]) continue;
    ++stats->merges;
    total_m += ctxs[i]->node.m;
    total_defl += ctxs[i]->node.m - ctxs[i]->defl.k;
    if (static_cast<index_t>(i) == plan.root) stats->root_k = ctxs[i]->defl.k;
  }
  stats->deflation_ratio = total_m > 0 ? static_cast<double>(total_defl) / total_m : 0.0;
}

/// Observability epilogue: finishes the SolveReport (header, counter deltas
/// and scheduler metrics via `scope`, replays of `trace` when non-null,
/// per-merge deflation records from the contexts) into stats->report. The
/// byte accounting scales with sizeof(Real).
template <typename Real>
void finish_report(const obs::SolveScope& scope, const Contexts<Real>& ctxs, index_t n,
                   const Options& opt, rt::Trace* trace,
                   const std::vector<int>& simulate_workers, SolveStats* stats) {
  obs::SolveReport& rep = stats->report;
  scope.finish(rep, n, opt.threads, trace, simulate_workers, stats->simulated);
  if (trace) trace->meta_counters.emplace_back("nb", static_cast<double>(opt.nb));
  // Workspace telemetry: the solve's scratch (workspace_bytes), the n x n
  // eigenvector output, and the per-merge contexts (z + zhat + the
  // m x npanels partial-product matrix each). All of it is allocated at the
  // working precision, so fp32 solves report half the fp64 bytes.
  const std::uint64_t nn = static_cast<std::uint64_t>(n);
  rep.memory.workspace_bytes = workspace_bytes(n, opt);
  rep.memory.output_bytes = nn * nn * sizeof(Real);
  rep.memory.context_bytes = 0;  // accumulated below; keep per-solve on report reuse
  rep.merges.clear();            // reused reports must not accumulate merge records
  for (const auto& ctx : ctxs) {
    if (!ctx) continue;
    const std::uint64_t m = static_cast<std::uint64_t>(ctx->node.m);
    rep.memory.context_bytes +=
        (2u * m + m * static_cast<std::uint64_t>(ctx->npanels)) * sizeof(Real);
    obs::MergeRecord mr;
    mr.level = ctx->node.level;
    mr.m = ctx->node.m;
    mr.n1 = ctx->node.n1;
    mr.k = ctx->defl.k;
    for (int t = 0; t < 4; ++t) mr.ctot[t] = ctx->defl.ctot[t];
    mr.t_end = ctx->t_deflate_end;
    rep.merges.push_back(mr);
  }
}

/// The workspace the library keeps between solves, one per working
/// precision. Leaked like the obs singletons: a solve may still run on
/// another thread while the process tears down.
template <typename Real>
struct Retained {
  std::mutex mu;  ///< held by the solve using ws
  WorkspaceT<Real> ws;
};

template <typename Real>
Retained<Real>& retained() {
  static Retained<Real>* r = new Retained<Real>;
  return *r;
}

/// One solve at the working precision Real: the shared prologue, the
/// emitter, and the stats / trace / report epilogue (skipped when stats is
/// null). The front door checks the input and writes the artifacts.
template <typename Real>
void emit_solve(ExecModel model, index_t n, Real* d, Real* e, MatrixT<Real>& v,
                const Options& opt, SolveStats* stats, const std::vector<int>& simulate_workers) {
  // The kernel table that runs, which in-process overrides can set below
  // the DNC_SIMD request.
  obs::SolveScope scope(model_name(model), precision_name(opt.precision),
                        blas::simd::kernels_t<Real>().name);
  if (stats) *stats = SolveStats{};
  if (solve_trivial(n, d, e, v)) {
    if (stats) stats->n = n;
    return;
  }
  v.resize(n, n);

  const Plan plan = build_plan(n, opt.minpart);
  // The retained workspace, unless a concurrent solve holds it: then a
  // transient one, freed on return.
  Retained<Real>& kept = retained<Real>();
  std::unique_lock<std::mutex> hold(kept.mu, std::try_to_lock);
  WorkspaceT<Real> transient;
  auto ctxs = make_contexts(plan, e, opt.nb);
  std::vector<index_t> perm(n);
  Emitter<Real> emitter(model, opt, plan, ctxs, d, e, v, hold ? kept.ws : transient,
                        perm.data());
  emitter.solve();
  if (hold) hold.unlock();  // the epilogue does not touch the workspace

  if (stats == nullptr) return;
  rt::Trace* tr = nullptr;
  if (emitter.runtime()) {
    stats->trace = emitter.runtime()->trace();
    tr = &stats->trace;
  }
  fill_stats(plan, ctxs, stats);
  stats->n = n;
  if (opt.export_dag && emitter.graph()) stats->dag_dot = rt::export_dot(*emitter.graph());
  finish_report(scope, ctxs, n, opt, tr, simulate_workers, stats);
}

/// The D&C solve behind the front door (lapack/front_door.hpp), in place
/// on (d, e): the emitter at the working precision.
void run(ExecModel model, index_t n, double* d, double* e, Matrix& v, Options opt,
         SolveStats* stats, const std::vector<int>& simulate_workers) {
  // The inline sink has no workers.
  if (model == ExecModel::Sequential) opt.threads = 1;
  lapack::solve_front_door("stedc", n, d, e, d, v, opt.precision, stats,
                           [&](auto* wd, auto* we, auto* /*lam == wd*/, auto& wv,
                               SolveStats* st) {
                             emit_solve(model, n, wd, we, wv, opt, st, simulate_workers);
                           });
}

}  // namespace

template <typename Real>
Emitter<Real>::Emitter(ExecModel model, const Options& opt, const Plan& plan,
                       Contexts<Real>& ctxs, Real* d, Real* e, MatrixT<Real>& v,
                       WorkspaceT<Real>& ws, index_t* perm)
    : model_(model), opt_(opt), plan_(plan), ctxs_(ctxs), d_(d), e_(e), v_(v), ws_(ws),
      perm_(perm), n_(plan.nodes[plan.root].m), hnode_(plan.nodes.size()) {
  ws_.fit(n_, opt);
  qwork_ = ws_.qwork();
  if (model == ExecModel::Sequential || model == ExecModel::Taskflow) {
    hpanel_.resize(plan.nodes.size());
    for (std::size_t i = 0; i < plan.nodes.size(); ++i)
      if (ctxs[i]) hpanel_[i].resize(ctxs[i]->npanels);
    hsort_.resize((n_ + opt.nb - 1) / opt.nb);
    dsorted_.resize(n_);
  }
  if (model != ExecModel::Sequential) {
    graph_ = std::make_unique<rt::TaskGraph>();
    register_kinds(*graph_);
    runtime_ = std::make_unique<rt::Runtime>(*graph_, opt.threads);
  }
}

template <typename Real>
Emitter<Real>::~Emitter() = default;

/// Submits one kernel, or runs it right away under the Sequential model.
/// `deps` is the node/panel wiring; the LAPACK model replaces it with its
/// single chain. `nd` names the tree node the kernel works on: it sets the
/// priority (`join` marks Deflate/ReduceW-like joins) and, under Taskflow,
/// the trace annotation, with `panel` >= 0 for panel kernels.
template <typename Real>
template <typename F>
void Emitter<Real>::task(int kind, F&& body, std::vector<rt::TaskDep> deps, const TreeNode* nd,
                         bool join, long panel) {
  if (!graph_) {
    body();
    return;
  }
  int priority = 0;
  if (model_ == ExecModel::LapackModel)
    deps = {{&hflow_, rt::Access::InOut}};
  else if (nd)
    priority = task_priority(nd->level, join);
  rt::TaskNode* t = graph_->submit(kind, std::forward<F>(body), deps, priority);
  if (model_ == ExecModel::Taskflow && nd) t->annotate(nd->level, nd->m, panel);
}

/// A panel kernel joins its node's GATHERV group; under Sequential/Taskflow
/// it also chains through its panel's handle.
template <typename Real>
std::vector<rt::TaskDep> Emitter<Real>::panel_deps(std::size_t i, index_t p) {
  std::vector<rt::TaskDep> deps{{&hnode_[i], rt::Access::GatherV}};
  if (!hpanel_.empty()) deps.push_back({&hpanel_[i][p], rt::Access::InOut});
  return deps;
}

/// The calling thread's S-panel slot. Under the runtime models only the
/// solve's own workers run its tasks, each on its worker id's slot; the
/// inline Sequential solve has one slot, whatever thread calls it (a
/// worker of an outer runtime included).
template <typename Real>
Real* Emitter<Real>::spanel() {
  return ws_.spanel(runtime_ ? rt::current_worker() : 0);
}

template <typename Real>
void Emitter<Real>::solve() {
  using rt::Access;
  // --- prologue: scaling, boundary adjustment, zero fill of V ---
  task(kScale, [this] { orgnrm_ = scale_problem(n_, d_, e_); }, {{&hflow_, Access::InOut}});
  const auto laset = [this](index_t j0, index_t w) {
    blas::laset(n_, w, Real(0), Real(0), v_.data() + j0 * v_.ld(), v_.ld());
  };
  if (model_ == ExecModel::ScalapackModel) {
    task(kPartition,
         [this, laset] {
           adjust_boundaries(plan_, d_, e_);
           laset(0, n_);
         },
         {{&hflow_, Access::InOut}});
  } else {
    task(kPartition, [this] { adjust_boundaries(plan_, d_, e_); }, {{&hflow_, Access::InOut}});
    // The LASET tasks of the paper's Table II: commuting column panels.
    const index_t w = model_ == ExecModel::LapackModel ? n_ : opt_.nb;
    for (index_t j0 = 0; j0 < n_; j0 += w)
      task(kLaset, [this, laset, j0, w] { laset(j0, std::min(w, n_ - j0)); },
           {{&hflow_, Access::GatherV}});
  }

  // --- leaves and merges ---
  const auto emit_node = [this](std::size_t i) {
    if (plan_.nodes[i].leaf())
      leaf(i);
    else
      merge(i);
  };
  if (model_ == ExecModel::ScalapackModel) {
    // Tree levels deepest first (leaves may sit at several levels), each
    // closed by a barrier: the data redistribution between levels
    // synchronises every process.
    std::map<int, std::vector<std::size_t>, std::greater<int>> by_level;
    for (std::size_t i = 0; i < plan_.nodes.size(); ++i)
      by_level[plan_.nodes[i].level].push_back(i);
    for (const auto& [level, nodes] : by_level) {
      for (std::size_t i : nodes) emit_node(i);
      std::vector<rt::TaskDep> deps{{&hflow_, Access::InOut}};
      for (std::size_t i : nodes) deps.push_back({&hnode_[i], Access::InOut});
      task(kPartition, [] {}, deps);
    }
  } else {
    // plan.nodes is post-order: every node appears after its sons.
    for (std::size_t i = 0; i < plan_.nodes.size(); ++i) emit_node(i);
  }

  sort_and_unscale();
  if (runtime_) runtime_->wait_all();
}

template <typename Real>
void Emitter<Real>::leaf(std::size_t i) {
  const TreeNode& nd = plan_.nodes[i];
  task(kStedc, [this, nd] { solve_leaf(nd, d_, e_, v_, perm_); },
       {{&hflow_, rt::Access::In}, {&hnode_[i], rt::Access::InOut}}, &nd);
}

template <typename Real>
void Emitter<Real>::merge(std::size_t i) {
  using rt::Access;
  const TreeNode& nd = plan_.nodes[i];
  MergeContextT<Real>* ctx = ctxs_[i].get();
  const index_t m = nd.m;
  Real* d = d_ + nd.i0;
  index_t* perm = perm_ + nd.i0;
  const bool lapack = model_ == ExecModel::LapackModel;
  const bool scalapack = model_ == ExecModel::ScalapackModel;
  const std::vector<rt::TaskDep> join{{&hnode_[i], Access::InOut}};

  // Deflation joins the sons (pdlaed2 replicates it on every process, after
  // the level barrier).
  std::vector<rt::TaskDep> deps{{&hnode_[nd.son1], Access::InOut},
                                {&hnode_[nd.son2], Access::InOut},
                                {&hnode_[i], Access::InOut}};
  if (scalapack) deps.insert(deps.begin(), {&hflow_, Access::In});
  task(kDeflate, [this, ctx, d, perm] { run_deflation(*ctx, ctx->qblock(v_), d, perm); }, deps,
       &nd, true);

  // dlaed2's permutation copy and dlaed3's secular loop run once over the
  // whole merge in the LAPACK model; the other models cut nb-wide panels.
  const index_t pw = lapack ? m : opt_.nb;
  const index_t np = (m + pw - 1) / pw;
  // pdlaed3 forms the Gu-Eisenstat product once per merge; the other models
  // form a partial product per panel and reduce them.
  const index_t nparts = scalapack ? 1 : np;
  for (index_t p = 0; p < np; ++p) {
    const index_t j0 = p * pw, j1 = std::min(j0 + pw, m);
    task(kPermute,
         [this, ctx, j0, j1] {
           permute_panel(ctx->defl, ctx->qblock(v_), ctx->w1(qwork_), ctx->w2(qwork_),
                         ctx->wdefl(qwork_), j0, j1);
         },
         panel_deps(i, p), &nd, false, p);
  }
  // The secular matrix overwrites the node's block of v, from which any
  // PermuteV panel may still be copying: LAED4 waits for all of them
  // (dlaed3 likewise runs after dlaed2's copy).
  task(kPermute, [] {}, join, &nd, true);
  for (index_t p = 0; p < np; ++p) {
    const index_t j0 = p * pw, j1 = std::min(j0 + pw, m);
    task(kLaed4,
         [this, ctx, d, j0, j1] {
           secular_solve_panel(ctx->defl, j0, j1, d, ctx->secular(v_));
         },
         panel_deps(i, p), &nd, false, p);
    if (!scalapack)
      task(kLocalW,
           [this, ctx, p, j0, j1] {
             zhat_local_panel(ctx->defl, ctx->secular(v_), j0, j1,
                              ctx->wparts.data() + p * ctx->wparts.ld());
           },
           panel_deps(i, p), &nd, false, p);
  }
  if (scalapack)
    task(kLocalW,
         [this, ctx, m] {
           zhat_local_panel(ctx->defl, ctx->secular(v_), 0, m, ctx->wparts.data());
         },
         join, &nd);
  task(kReduceW,
       [ctx, d, perm, nparts] {
         zhat_reduce(ctx->defl, ctx->wparts.view(), nparts, ctx->zhat.data());
         finalize_order(*ctx, d, perm);
       },
       join, &nd, true);

  const auto update = [this, ctx](index_t j0, index_t j1) {
    update_vectors_panel(ctx->defl, ctx->w1(qwork_), ctx->w2(qwork_), ctx->secular(v_), j0, j1,
                         ctx->qblock(v_), spanel());
  };
  for (index_t p = 0; p < np; ++p) {
    const index_t j0 = p * pw, j1 = std::min(j0 + pw, m);
    task(kCopyBack,
         [this, ctx, j0, j1] {
           copyback_panel(ctx->defl, ctx->wdefl(qwork_), j0, j1, ctx->qblock(v_));
         },
         panel_deps(i, p), &nd, false, p);
    task(kComputeVect,
         [this, ctx, j0, j1] {
           secular_vectors_panel(ctx->defl, ctx->secular(v_), ctx->zhat.data(), j0, j1);
         },
         panel_deps(i, p), &nd, false, p);
    if (!lapack && !scalapack)
      task(kUpdateVect, [update, j0, j1] { update(j0, j1); }, panel_deps(i, p), &nd, false, p);
  }
  if (scalapack) {
    // Join before the distributed GEMM (pdgemm starts in lockstep).
    task(kReduceW, [] {}, join, &nd, true);
    for (index_t p = 0; p < np; ++p) {
      const index_t j0 = p * pw, j1 = std::min(j0 + pw, m);
      task(kUpdateVect, [update, j0, j1] { update(j0, j1); }, panel_deps(i, p), &nd);
    }
  } else if (lapack) {
    // The one parallel region of the LAPACK model: the GEMM forks column
    // panels (the multithreaded-BLAS fork) and joins right after. The
    // children run on the same scheduler (help-first join) and show up in
    // traces as "UpdateVect/panel" nested under this task.
    const index_t nb = opt_.nb;
    task(kUpdateVect,
         [ctx, update, nb, m] {
           rt::spawn_and_wait("panel", static_cast<long>(ctx->npanels), [&](long p) {
             const index_t j0 = static_cast<index_t>(p) * nb;
             update(j0, std::min(j0 + nb, m));
           });
         },
         join, &nd);
  }
}

template <typename Real>
void Emitter<Real>::sort_and_unscale() {
  using rt::Access;
  const std::vector<rt::TaskDep> root{{&hnode_[plan_.root], Access::InOut}};
  if (model_ == ExecModel::ScalapackModel) {
    task(kSort,
         [this] {
           sort_eigenpairs(n_, d_, v_, perm_, qwork_);
           unscale_eigenvalues(n_, d_, orgnrm_);
         },
         {{&hflow_, Access::InOut}, root[0]});
    return;
  }
  if (model_ == ExecModel::LapackModel) {
    task(kSort, [this] { sort_eigenpairs(n_, d_, v_, perm_, qwork_); }, root);
  } else {
    // Gather columns in ascending-eigenvalue order into the workspace, then
    // copy back: two GATHERV phases around joins. The leading join closes
    // the root merge's GATHERV group -- without it the sort tasks would
    // enter that group and overlap the last UpdateVect.
    const index_t nb = opt_.nb;
    task(kSort, [] {}, root);
    for (index_t p = 0; p < static_cast<index_t>(hsort_.size()); ++p) {
      task(kSort,
           [this, p, nb] {
             for (index_t r = p * nb; r < std::min(p * nb + nb, n_); ++r) {
               dsorted_[r] = d_[perm_[r]];
               blas::copy(n_, v_.data() + perm_[r] * v_.ld(), qwork_.col(r));
             }
           },
           {{&hnode_[plan_.root], Access::GatherV}, {&hsort_[p], Access::InOut}});
    }
    task(kSort, [this] { blas::copy(n_, dsorted_.data(), d_); }, root);
    for (index_t p = 0; p < static_cast<index_t>(hsort_.size()); ++p) {
      task(kSort,
           [this, p, nb] {
             const index_t j0 = p * nb;
             blas::lacpy(n_, std::min(nb, n_ - j0), qwork_.col(j0), qwork_.ld,
                         v_.data() + j0 * v_.ld(), v_.ld());
           },
           {{&hnode_[plan_.root], Access::GatherV}, {&hsort_[p], Access::InOut}});
    }
  }
  task(kScale, [this] { unscale_eigenvalues(n_, d_, orgnrm_); },
       {root[0], {&hflow_, Access::InOut}});
}

template class Emitter<double>;
template class Emitter<float>;

std::uint64_t workspace_elements(index_t n, const Options& opt) {
  if (n <= 2) return 0;  // solved directly, without the merge machinery
  const std::uint64_t nn = static_cast<std::uint64_t>(n);
  const std::uint64_t panel = static_cast<std::uint64_t>(std::min(opt.nb, n));
  return nn * nn + static_cast<std::uint64_t>(opt.threads) * nn * panel;
}

}  // namespace detail

using detail::ExecModel;

std::uint64_t workspace_bytes(index_t n, const Options& opt) {
  return detail::workspace_elements(n, opt) *
         (opt.precision == Precision::F32 ? sizeof(float) : sizeof(double));
}

void release_workspace() {
  const auto release = [](auto& kept) {
    std::lock_guard<std::mutex> lk(kept.mu);
    kept.ws.release();
  };
  release(detail::retained<double>());
  release(detail::retained<float>());
  lapack::KeptF32Output& out = lapack::kept_f32_output();
  std::lock_guard<std::mutex> lk(out.mu);
  out.v = MatrixT<float>();
}

void stedc_sequential(index_t n, double* d, double* e, Matrix& v, const Options& opt,
                      SolveStats* stats) {
  detail::run(ExecModel::Sequential, n, d, e, v, opt, stats, {});
}

void stedc_taskflow(index_t n, double* d, double* e, Matrix& v, const Options& opt,
                    SolveStats* stats, const std::vector<int>& simulate_workers) {
  detail::run(ExecModel::Taskflow, n, d, e, v, opt, stats, simulate_workers);
}

void stedc_lapack_model(index_t n, double* d, double* e, Matrix& v, const Options& opt,
                        SolveStats* stats, const std::vector<int>& simulate_workers) {
  detail::run(ExecModel::LapackModel, n, d, e, v, opt, stats, simulate_workers);
}

void stedc_scalapack_model(index_t n, double* d, double* e, Matrix& v, const Options& opt,
                           SolveStats* stats, const std::vector<int>& simulate_workers) {
  detail::run(ExecModel::ScalapackModel, n, d, e, v, opt, stats, simulate_workers);
}

}  // namespace dnc::dc
