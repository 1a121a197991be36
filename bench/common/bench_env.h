#ifndef MBI_BENCH_COMMON_BENCH_ENV_H_
#define MBI_BENCH_COMMON_BENCH_ENV_H_

// Build-provenance stamping and the Release gate for the google-benchmark
// harnesses (perf_smoke, micro_kernels).
//
// A benchmark JSON whose numbers came from a -O0 assert-laden build is worse
// than no JSON: it gets committed, compared against, and silently poisons
// every later "X is N% faster" claim. Two defenses, both here:
//
//   * StampBuildContext() writes the build type, compiler, flags, assertion
//     state, and the runtime-dispatched kernel ISA into the JSON `context`
//     block, so every BENCH_*.json carries enough provenance to be audited
//     after the fact;
//   * RequireReleaseBuild() refuses to run a non-Release binary outright.
//     MBI_ALLOW_DEBUG_BENCH=1 overrides for local debugging, and the run is
//     loudly marked (stderr + a `mbi_non_release_run` context key).
//
// Header-only because only benchmark binaries may depend on
// <benchmark/benchmark.h>; the common harness library stays free of it.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "kernel/dispatch.h"

// The CMakeLists of bench/ passes the configured build type and the exact
// flag string; a binary built outside that scaffolding stamps "unknown".
#ifndef MBI_BENCH_BUILD_TYPE
#define MBI_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MBI_BENCH_CXX_FLAGS
#define MBI_BENCH_CXX_FLAGS "unknown"
#endif

namespace mbi::bench {

inline bool IsReleaseBuild() {
#ifdef NDEBUG
  // NDEBUG alone is not enough (RelWithDebInfo and MinSizeRel set it too,
  // at -O2 / -Os, and a custom build type could set it at -O0). Every
  // committed BENCH_*.json is compared against the others, so only the one
  // -O3 configuration counts: the configured type must be exactly Release.
  return std::string_view(MBI_BENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

/// Stamps build + dispatch provenance into the benchmark JSON `context`.
/// Call after benchmark::Initialize (AddCustomContext needs it).
inline void StampBuildContext() {
  benchmark::AddCustomContext("mbi_build_type", MBI_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("mbi_cxx_flags", MBI_BENCH_CXX_FLAGS);
#if defined(__clang__)
  benchmark::AddCustomContext("mbi_compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  benchmark::AddCustomContext("mbi_compiler", "gcc " __VERSION__);
#else
  benchmark::AddCustomContext("mbi_compiler", "unknown");
#endif
#ifdef NDEBUG
  benchmark::AddCustomContext("mbi_assertions", "off");
#else
  benchmark::AddCustomContext("mbi_assertions", "on");
#endif
  benchmark::AddCustomContext("mbi_kernel_isa",
                              kernel::IsaName(kernel::ActiveIsa()));
  benchmark::AddCustomContext(
      "mbi_kernel_isa_widest",
      kernel::IsaName(kernel::WidestSupportedIsa()));
}

/// Exits (code 1) when this binary is not an optimized build, unless
/// MBI_ALLOW_DEBUG_BENCH is set — then the run proceeds but is marked in
/// both stderr and the JSON context. Call after benchmark::Initialize.
inline void RequireReleaseBuild(const char* harness_name) {
  if (IsReleaseBuild()) return;
  if (std::getenv("MBI_ALLOW_DEBUG_BENCH") != nullptr) {
    std::fprintf(stderr,
                 "%s: WARNING: non-Release build (%s); numbers are "
                 "meaningless for comparison and the JSON is marked "
                 "mbi_non_release_run\n",
                 harness_name, MBI_BENCH_BUILD_TYPE);
    benchmark::AddCustomContext("mbi_non_release_run", "true");
    return;
  }
  std::fprintf(stderr,
               "%s: refusing to benchmark a non-Release build (%s). "
               "Configure with -DCMAKE_BUILD_TYPE=Release, or set "
               "MBI_ALLOW_DEBUG_BENCH=1 to run anyway (marked in the "
               "JSON).\n",
               harness_name, MBI_BENCH_BUILD_TYPE);
  std::exit(1);
}

}  // namespace mbi::bench

#endif  // MBI_BENCH_COMMON_BENCH_ENV_H_
