// laminar_e2ebench_compare: compares two sets of benchmark results.
//
//   laminar_e2ebench_compare BENCHMARK.json BASE_DIR [NEW_DIR]
//
// Each directory holds the captured stdout of runs (one file per run). A
// run's workload comes from its "# stamp {...}" line and its metrics from
// its last line. For every (workload, metric) the tool prints each side's
// median and quartiles (Python's statistics.quantiles(n=4) method), the
// spread (quartile distance over the median) and, for the end-to-end
// metrics, a verdict against the bound in BENCHMARK.json. With one
// directory it prints that set's figures only.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace {

using laminar::Value;

struct Bound {
  double share = -1;  ///< < 0: per-layer metric, no bound
  bool lower_is_better = true;
};

/// workload -> metric -> values
using Set = std::map<std::string, std::map<std::string, std::vector<double>>>;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

Set LoadSet(const std::string& dir, int* bad) {
  Set set;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::istringstream lines(ReadFile(entry.path().string()));
    std::string line;
    std::string last;
    std::string workload;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      last = line;
      if (line.rfind("# stamp ", 0) == 0) {
        laminar::Result<Value> stamp = laminar::json::Parse(line.substr(8));
        if (stamp.ok()) {
          workload = stamp->GetString("workload") +
                     (stamp->GetInt("trace") == 1 ? " (trace)" : "");
        }
      }
    }
    laminar::Result<Value> result = laminar::json::Parse(last);
    if (workload.empty() || !result.ok() || !result->GetBool("correct")) {
      std::fprintf(stderr, "skipping %s: no correct result\n",
                   entry.path().c_str());
      ++*bad;
      continue;
    }
    for (const auto& [name, m] : result->at("metrics").as_object()) {
      set[workload][name].push_back(m.GetDouble("value"));
    }
  }
  return set;
}

/// statistics.quantiles(data, n=4) with the default 'exclusive' method.
std::vector<double> Quartiles(std::vector<double> data) {
  std::sort(data.begin(), data.end());
  const long ld = static_cast<long>(data.size());
  if (ld < 2) return {data.empty() ? NAN : data[0], data.empty() ? NAN : data[0],
                      data.empty() ? NAN : data[0]};
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    long delta = i * m - j * 4;
    out.push_back((data[j - 1] * static_cast<double>(4 - delta) +
                   data[j] * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  if (n == 0) return NAN;
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 && argc != 4) {
    std::fprintf(stderr,
                 "usage: %s BENCHMARK.json BASE_DIR [NEW_DIR]\n", argv[0]);
    return 2;
  }
  laminar::Result<Value> manifest = laminar::json::Parse(ReadFile(argv[1]));
  if (!manifest.ok()) {
    std::fprintf(stderr, "cannot parse %s\n", argv[1]);
    return 2;
  }
  std::map<std::string, Bound> bounds;
  for (const Value& m : manifest->at("end_to_end").as_array()) {
    bounds[m.GetString("name")] = {m.GetDouble("bound"),
                                   m.GetString("better") == "lower"};
  }
  for (const Value& m : manifest->at("per_layer").as_array()) {
    bounds[m.GetString("name")] = {-1, m.GetString("better") == "lower"};
  }
  int bad = 0;
  const Set base = LoadSet(argv[2], &bad);
  const Set fresh = argc == 4 ? LoadSet(argv[3], &bad) : Set();
  int regressions = 0;
  std::printf("%-22s %-30s %12s %12s %12s %8s", "workload", "metric",
              "base_q1", "base_median", "base_q3", "spread");
  if (argc == 4) {
    std::printf(" %12s %12s %12s %8s  verdict", "new_q1", "new_median",
                "new_q3", "change");
  }
  std::printf("\n");
  for (const auto& [workload, metrics] : base) {
    for (const auto& [name, values] : metrics) {
      const Bound b = bounds.count(name) ? bounds[name] : Bound{};
      const std::vector<double> q = Quartiles(values);
      const double med = Median(values);
      const double spread = (q[2] - q[0]) / std::abs(med);
      std::printf("%-22s %-30s %12.5g %12.5g %12.5g %8.4f", workload.c_str(),
                  name.c_str(), q[0], med, q[2], spread);
      if (argc == 4) {
        auto wit = fresh.find(workload);
        if (wit == fresh.end() || !wit->second.count(name)) {
          std::printf("  missing in new set\n");
          ++regressions;
          continue;
        }
        const std::vector<double>& nv = wit->second.at(name);
        const std::vector<double> nq = Quartiles(nv);
        const double nmed = Median(nv);
        const double change = (nmed - med) / std::abs(med);
        const double worse = b.lower_is_better ? change : -change;
        std::string verdict = "info";
        if (b.share >= 0) {
          const double bmin = *std::min_element(values.begin(), values.end());
          const double bmax = *std::max_element(values.begin(), values.end());
          const double nmin = *std::min_element(nv.begin(), nv.end());
          const double nmax = *std::max_element(nv.begin(), nv.end());
          const bool all_better =
              b.lower_is_better ? nmax < bmin : nmin > bmax;
          if (worse > b.share) {
            verdict = "WORSE";
            ++regressions;
          } else if (spread > b.share && !all_better) {
            verdict = "unresolved";
          } else if (worse < -b.share) {
            verdict = "better";
          } else {
            verdict = "no change";
          }
        }
        std::printf(" %12.5g %12.5g %12.5g %+8.4f  %s", nq[0], nmed, nq[2],
                    change, verdict.c_str());
      } else if (b.share >= 0 && spread > b.share / 3) {
        std::printf("  spread above a third of the bound %.3g", b.share);
      }
      std::printf("\n");
    }
  }
  if (bad > 0) std::printf("%d run(s) without a correct result\n", bad);
  return regressions > 0 || bad > 0 ? 1 : 0;
}
