#include "sim/des.hpp"

#include <cmath>

namespace pprox::sim {

void Simulator::schedule_at(SimTime when, std::function<void()> fn) {
  if (when < now_) when = now_;  // clamp: no scheduling into the past
  queue_.push(Event{when, next_seq_++, std::move(fn)});
}

void Simulator::run_until(SimTime end) {
  while (!queue_.empty() && queue_.top().when <= end) {
    // priority_queue::top() is const; move out via const_cast is UB — copy
    // the closure instead (events are small).
    Event event = queue_.top();
    queue_.pop();
    now_ = event.when;
    event.fn();
  }
  if (now_ < end) now_ = end;
}

void Simulator::run() {
  while (!queue_.empty()) {
    Event event = queue_.top();
    queue_.pop();
    now_ = event.when;
    event.fn();
  }
}

void CpuPool::submit(SimTime service_ms, std::function<void()> on_done) {
  Job job{service_ms, std::move(on_done)};
  if (busy_ < cores_) {
    start(std::move(job));
  } else {
    waiting_.push_back(std::move(job));
  }
}

void CpuPool::start(Job job) {
  ++busy_;
  cpu_time_used_ += job.service_ms;
  sim_->schedule_in(job.service_ms, [this, on_done = std::move(job.on_done)] {
    --busy_;
    if (!waiting_.empty()) {
      Job next = std::move(waiting_.front());
      waiting_.pop_front();
      start(std::move(next));
    }
    on_done();
  });
}

double lognormal_sample(double median_ms, double sigma, RandomSource& rng) {
  // Box–Muller for a standard normal.
  double u1 = rng.next_double();
  while (u1 <= 0.0) u1 = rng.next_double();
  const double u2 = rng.next_double();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return median_ms * std::exp(sigma * z);
}

}  // namespace pprox::sim
