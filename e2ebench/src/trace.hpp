// The traced run (--trace 1) and the in-process reference for the
// correctness gate.
//
// The traced run rebuilds the workload's corpus in one process and replays
// the measured phase's seeded request stream serially. Around each request
// it calls the modules' public functions from this file, recording a span
// (name, start, end, parent) around each call; the spans stay in memory and
// are written to the work directory at the end. A short low-rate TCP
// segment against a spawned laminar_serve gives the transport numbers and
// the unloaded end-to-end median each endpoint's layer sum is checked
// against.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "load.hpp"

namespace e2e {

/// Canonical answers to `probes` from an in-process server seeded with the
/// same corpus. Cached in the work directory per workload, corpus size and
/// source digest, since neither depends on the seed.
laminar::Result<std::vector<std::string>> ReferenceAnswers(
    const RunContext& ctx, const std::vector<Request>& probes);

/// The traced run. Returns the exit code.
int RunTraced(const RunContext& ctx, const std::vector<std::string>& keys);

}  // namespace e2e
