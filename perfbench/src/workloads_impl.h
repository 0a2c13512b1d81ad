/**
 * @file
 * Constructors of the individual workloads (see workloads.h).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "workloads.h"

namespace perfbench {

/** core_ilp / core_memstall: @p bench on RR-256 and WSRS-RC-512 under the
 *  memory preset @p mem_label. */
std::unique_ptr<Workload> makeCoreWorkload(const std::string &bench,
                                           const std::string &mem_label,
                                           std::uint64_t seed);
/** sweep_fig4: the 12 x 6 Figure-4 matrix on @p threads workers. */
std::unique_ptr<Workload> makeSweepWorkload(std::uint64_t seed,
                                            unsigned threads);
/** explore_space: analytic search of the benchmark's space. */
std::unique_ptr<Workload> makeExploreWorkload(std::uint64_t seed,
                                              unsigned threads);

} // namespace perfbench
