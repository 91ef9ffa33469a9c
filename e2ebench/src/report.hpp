// Statistics helpers and the result printer shared by the end-to-end and
// traced runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace e2e {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Linear-interpolated quantile (q in [0,1]); NaN for no samples.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Named metrics with units. Every metric is printed as a report line
/// ("metric <name> <value> <unit>"); the ones named in `result_keys` also go
/// into the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Note(const std::string& line) { std::printf("# %s\n", line.c_str()); }

  /// The value of a metric added earlier; NaN when absent.
  double Value(const std::string& name) const {
    const Metric* m = Find(name);
    return m == nullptr ? std::nan("") : m->value;
  }

  void PrintLines() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  /// The final JSON line. A key with no finite value makes the run
  /// incorrect (a metric that cannot be measured is a failed run).
  void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& result_keys) const {
    std::string metrics;
    for (const std::string& key : result_keys) {
      const Metric* m = Find(key);
      if (m == nullptr || !std::isfinite(m->value)) {
        std::fprintf(stderr, "e2ebench: metric %s not measured\n", key.c_str());
        correct = false;
        continue;
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", m->value);
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + key + "\": {\"value\": " + buf + ", \"unit\": \"" +
                 m->unit + "\"}";
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        correct ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  std::vector<Metric> metrics_;
};

}  // namespace e2e
