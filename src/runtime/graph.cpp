#include "runtime/graph.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dnc::rt {

const char* access_name(Access a) {
  switch (a) {
    case Access::In: return "IN";
    case Access::Out: return "OUT";
    case Access::InOut: return "INOUT";
    case Access::GatherV: return "GATHERV";
  }
  return "?";
}

TaskGraph::TaskGraph() {
  // Kind 0 is the generic task.
  kinds_.push_back({"task", false, "#808080"});
}

TaskGraph::~TaskGraph() = default;

KindId TaskGraph::register_kind(const std::string& name, bool memory_bound,
                                const std::string& color) {
  kinds_.push_back({name, memory_bound, color});
  return static_cast<KindId>(kinds_.size() - 1);
}

TaskNode* TaskGraph::submit(KindId kind, std::function<void()> fn,
                            const std::vector<TaskDep>& deps, int priority) {
  DNC_REQUIRE(kind >= 0 && kind < static_cast<KindId>(kinds_.size()), "unknown task kind");
  nodes_.push_back(std::make_unique<TaskNode>());
  TaskNode* node = nodes_.back().get();
  node->id = next_id_++;
  node->kind = kind;
  node->priority = priority;
  node->fn = std::move(fn);
  // Self-guard keeps the task from becoming ready while predecessors are
  // still being wired.
  node->unsatisfied.store(1, std::memory_order_relaxed);

  // Gather the predecessor set implied by each handle access.
  std::vector<TaskNode*> preds;
  for (const TaskDep& dep : deps) {
    DNC_REQUIRE(dep.handle != nullptr, "null handle in task dependency");
    HandleState& st = handles_[dep.handle];
    switch (dep.mode) {
      case Access::In:
        preds.insert(preds.end(), st.writers.begin(), st.writers.end());
        st.readers.push_back(node);
        break;
      case Access::Out:
      case Access::InOut:
        preds.insert(preds.end(), st.writers.begin(), st.writers.end());
        preds.insert(preds.end(), st.readers.begin(), st.readers.end());
        st.writers.assign(1, node);
        st.writers_are_gatherv = false;
        st.readers.clear();
        st.gather_base.clear();
        break;
      case Access::GatherV:
        if (st.writers_are_gatherv && st.readers.empty()) {
          // Join the open commuting-writer group: same predecessors as the
          // group, no ordering against other members.
          preds.insert(preds.end(), st.gather_base.begin(), st.gather_base.end());
          st.writers.push_back(node);
        } else {
          // Open a new group ordered after the previous writers + readers.
          std::vector<TaskNode*> base;
          base.insert(base.end(), st.writers.begin(), st.writers.end());
          base.insert(base.end(), st.readers.begin(), st.readers.end());
          preds.insert(preds.end(), base.begin(), base.end());
          st.gather_base = std::move(base);
          st.writers.assign(1, node);
          st.writers_are_gatherv = true;
          st.readers.clear();
        }
        break;
    }
  }
  // A task accessing several handles can pick up duplicate predecessors.
  // Sorting by id (not address) keeps pred_ids -- and so the DOT export and
  // the trace's edge list -- the same from run to run.
  std::sort(preds.begin(), preds.end(),
            [](const TaskNode* a, const TaskNode* b) { return a->id < b->id; });
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  // A task can appear in its own predecessor set when it holds multiple
  // qualifiers on one handle; self-edges are meaningless.
  preds.erase(std::remove(preds.begin(), preds.end(), node), preds.end());

  for (TaskNode* p : preds) {
    node->pred_ids.push_back(p->id);
    std::lock_guard<std::mutex> lk(p->mu);
    if (!p->done) {
      p->successors.push_back(node);
      node->unsatisfied.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Drop the self-guard; if everything already completed the task is ready.
  if (node->unsatisfied.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (on_ready) on_ready(node);
  }
  return node;
}

std::vector<TaskNode*> TaskGraph::complete(TaskNode* node) {
  std::vector<TaskNode*> succs;
  {
    std::lock_guard<std::mutex> lk(node->mu);
    node->done = true;
    succs = std::move(node->successors);
    node->successors.clear();
  }
  std::vector<TaskNode*> ready;
  for (TaskNode* s : succs) {
    if (s->unsatisfied.fetch_sub(1, std::memory_order_acq_rel) == 1) ready.push_back(s);
  }
  return ready;
}

}  // namespace dnc::rt
