// Host and build stamp printed with every result.
#pragma once

#include "common/value.hpp"

namespace e2e {

/// nproc, CPU model, L3 size, active SIMD tier and build type.
laminar::Value HostStamp();

/// Online CPUs.
int Nproc();

}  // namespace e2e
