#include "runtime/engine.hpp"

#include "runtime/scheduler.hpp"

namespace dnc::rt {

Runtime::Runtime(TaskGraph& graph, int threads)
    : sched_(std::make_unique<Scheduler>(graph, threads)) {}

Runtime::~Runtime() = default;

void Runtime::wait_all() { sched_->wait_all(); }

int Runtime::threads() const { return sched_->threads(); }

Trace Runtime::trace() const { return sched_->trace(); }

}  // namespace dnc::rt
