// Latency statistics used by the evaluation harness: percentiles and the
// candlestick summaries the paper plots (p25/median/p75, 1.5*IQR whiskers).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pprox {

/// Candlestick summary of a sample distribution, matching the paper's
/// figures: box = [p25, p75], middle line = median, whiskers extend to the
/// most distant sample within 1.5*IQR of the box boundary.
struct Candlestick {
  std::size_t count = 0;
  double min = 0;
  double p25 = 0;
  double median = 0;
  double p75 = 0;
  double max = 0;
  double whisker_low = 0;
  double whisker_high = 0;
  double mean = 0;
};

/// Accumulates scalar samples (latencies in milliseconds) and produces
/// summaries. Stores raw samples; experiment sizes here are modest.
class SampleStats {
 public:
  void add(double v) { samples_.push_back(v); }
  void add_all(const std::vector<double>& vs);
  void merge(const SampleStats& other);
  void clear() { samples_.clear(); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Interpolated percentile, q in [0, 100]. Requires a non-empty sample set.
  double percentile(double q) const;

  double mean() const;

  /// Full candlestick summary. Requires a non-empty sample set.
  Candlestick candlestick() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Renders one candlestick as a fixed-width text row, e.g. for bench output.
std::string format_candlestick_row(const std::string& label, const Candlestick& c);

/// Header matching format_candlestick_row columns.
std::string candlestick_header();

}  // namespace pprox
