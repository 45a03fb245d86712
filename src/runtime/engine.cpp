#include "runtime/engine.hpp"

#include "runtime/scheduler.hpp"

namespace dnc::rt {

Runtime::Runtime(TaskGraph& graph, int threads, SchedPolicy policy)
    : sched_(Scheduler::make(policy, graph, threads)) {}

Runtime::~Runtime() = default;

void Runtime::wait_all() { sched_->wait_all(); }

int Runtime::threads() const { return sched_->threads(); }

SchedPolicy Runtime::policy() const { return sched_->policy(); }

Trace Runtime::trace() const { return sched_->trace(); }

}  // namespace dnc::rt
