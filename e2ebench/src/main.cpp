// laminar_e2ebench: the end-to-end benchmark of a spawned laminar_serve.
//
//   laminar_e2ebench --workload search_mix --seed 1 --seconds 8 --trace 0
//       --serve path/to/laminar_serve --config e2ebench/workloads.json
//       --work-dir .bench_build/e2ebench/work [--manifest BENCHMARK.json]
//       [--smoke] [--source-digest HEX] [--revision REV]
//
// --trace 0 runs the open-loop end-to-end measurement; --trace 1 the traced
// per-layer replay. Report lines ("# ..." notes and "metric <name> <value>
// <unit>") come first; the last line of stdout is the JSON result holding
// the metrics the manifest lists for that mode. Exit status 0 only for a
// valid, correct run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "host.hpp"
#include "load.hpp"
#include "trace.hpp"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: laminar_e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve BIN --config FILE --work-dir DIR\n"
               "       [--manifest BENCHMARK.json] [--smoke] "
               "[--source-digest HEX] [--revision REV]\n");
}

/// Metric names the manifest lists for this mode.
std::vector<std::string> ManifestKeys(const std::string& path, bool trace) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  laminar::Result<laminar::Value> doc = laminar::json::Parse(text.str());
  std::vector<std::string> keys;
  if (!doc.ok()) return keys;
  for (const laminar::Value& m :
       doc->at(trace ? "per_layer" : "end_to_end").as_array()) {
    keys.push_back(m.GetString("name"));
  }
  return keys;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string serve;
  std::string config_path;
  std::string work_dir;
  std::string manifest = "BENCHMARK.json";
  std::string digest = "none";
  std::string revision = "none";
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    const char* a = argv[i];
    if (!std::strcmp(a, "--workload")) workload = next();
    else if (!std::strcmp(a, "--seed")) seed = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(a, "--seconds")) seconds = std::atof(next());
    else if (!std::strcmp(a, "--trace")) trace = std::atoi(next());
    else if (!std::strcmp(a, "--serve")) serve = next();
    else if (!std::strcmp(a, "--config")) config_path = next();
    else if (!std::strcmp(a, "--work-dir")) work_dir = next();
    else if (!std::strcmp(a, "--manifest")) manifest = next();
    else if (!std::strcmp(a, "--source-digest")) digest = next();
    else if (!std::strcmp(a, "--revision")) revision = next();
    else if (!std::strcmp(a, "--smoke")) smoke = true;
    else {
      Usage();
      return 2;
    }
  }
  if (workload.empty() || serve.empty() || config_path.empty() ||
      work_dir.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }
  const std::vector<std::string> keys = ManifestKeys(manifest, trace == 1);
  if (keys.empty()) {
    std::fprintf(stderr, "e2ebench: no metrics listed in %s\n",
                 manifest.c_str());
    return 2;
  }
  laminar::Result<e2e::BenchConfig> config =
      e2e::LoadConfig(config_path, workload, smoke);
  if (!config.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n",
                 config.status().ToString().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);

  e2e::RunContext ctx;
  ctx.config = std::move(config.value());
  ctx.corpus = e2e::BuildCorpus(ctx.config);
  ctx.serve_bin = serve;
  ctx.work_dir = work_dir;
  ctx.source_digest = digest;
  ctx.seed = seed;
  ctx.seconds = seconds;
  ctx.nproc = e2e::Nproc();
  ctx.connections = std::clamp(ctx.nproc - 1, 1, 2);

  laminar::Value stamp = e2e::HostStamp();
  stamp["revision"] = revision;
  stamp["source_digest"] = digest;
  stamp["workload"] = workload;
  stamp["trace"] = static_cast<int64_t>(trace);
  stamp["smoke"] = smoke;
  stamp["seed"] = static_cast<int64_t>(seed);
  stamp["seconds"] = seconds;
  stamp["corpus_pes"] = static_cast<int64_t>(ctx.corpus.pes.size());
  stamp["workflows"] = static_cast<int64_t>(ctx.corpus.workflow_bodies.size());
  stamp["offered_rps"] = ctx.config.workload.fixed_rps;
  stamp["limit_ms"] = ctx.config.workload.limit_ms;
  stamp["limited_class"] = e2e::KindName(ctx.config.workload.limited);
  stamp["connections"] = static_cast<int64_t>(ctx.connections);
  std::printf("# stamp %s\n", stamp.ToJson().c_str());
  std::fflush(stdout);

  return trace == 1 ? e2e::RunTraced(ctx, keys) : e2e::RunEndToEnd(ctx, keys);
}
