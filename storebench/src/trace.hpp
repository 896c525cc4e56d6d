// Traced run: per-layer metrics from spans recorded around the benchmark's
// own calls into each layer's public functions (nothing inside src/ is
// instrumented), plus the layer map every per-layer metric belongs to.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench.hpp"

namespace storebench {

/// Runs one traced measurement of `spec` and prints the per-layer metrics;
/// returns the process exit code.
int run_traced(const Spec& spec, std::uint64_t seed, double seconds,
               const std::string& trace_out);

/// Prints each per-layer metric -> the end-to-end metric it should move ->
/// the workloads that exercise it (and those that bypass it).
void print_layer_map(std::FILE* out);

}  // namespace storebench
