#include "workload/injector.hpp"

#include "common/sync.hpp"

namespace pprox::workload {

InjectionReport run_injection(
    net::HttpChannel& channel, const InjectorConfig& config,
    const std::function<http::HttpRequest()>& make_request) {
  using Clock = std::chrono::steady_clock;
  InjectionReport report;

  Mutex mutex;
  CondVar done_cv;
  std::size_t in_flight = 0;
  bool injecting = true;

  const auto start = Clock::now();
  const auto end = start + config.duration;
  const auto measure_from = start + config.warmup;
  const auto measure_to = end - config.cooldown;
  const auto interval =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          1.0 / config.rps));

  auto next_shot = start;
  while (Clock::now() < end) {
    sleep_until(next_shot);
    next_shot += interval;

    const auto sent_at = Clock::now();
    if (sent_at >= end) break;
    {
      LockGuard lock(mutex);
      ++report.injected;
      ++in_flight;
    }
    // The by-ref captures (mutex, report, in_flight, done_cv) outlive every
    // callback: run_injection blocks on done_cv until in_flight reaches zero
    // before returning, so no completion can run after the frame dies.
    channel.send(make_request(), [&, sent_at](http::HttpResponse response) {
      const auto now = Clock::now();
      const double latency_ms =
          std::chrono::duration<double, std::milli>(now - sent_at).count();
      LockGuard lock(mutex);
      ++report.completed;
      if (response.status < 200 || response.status >= 300) ++report.failed;
      if (sent_at >= measure_from && sent_at <= measure_to) {
        report.latencies_ms.add(latency_ms);
      }
      --in_flight;
      if (in_flight == 0 && !injecting) done_cv.notify_all();
    });
  }

  UniqueLock lock(mutex);
  injecting = false;
  // Drain: wait for stragglers (bounded so a wedged backend cannot hang us).
  done_cv.wait_for(lock, std::chrono::seconds(30),
                   [&] { return in_flight == 0; });
  return report;
}

}  // namespace pprox::workload
