#include "host.hpp"

#include <unistd.h>

#include <fstream>
#include <string>

#include "simd/simd.hpp"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

std::string FirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int Nproc() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

laminar::Value HostStamp() {
  laminar::Value stamp = laminar::Value::MakeObject();
  stamp["nproc"] = static_cast<int64_t>(Nproc());
  stamp["cpu"] = CpuModel();
  std::string l3 = FirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size");
  stamp["l3"] = l3.empty() ? "unknown" : l3;
  stamp["simd"] = laminar::simd::TierName(laminar::simd::ActiveTier());
  stamp["build_type"] = E2EBENCH_BUILD_TYPE;
  return stamp;
}

}  // namespace e2e
