/**
 * @file
 * Standalone per-layer probes of a traced run: single calls into the
 * executor, mrf and rsu layers' public functions on fixed, seeded
 * problems, each timed from outside and recorded as a span.
 *
 * The probes are the same on every workload, so a layer figure means
 * the same thing whichever workload's traced run reports it.
 */

#ifndef RSU_PERFBENCH_PROBES_H
#define RSU_PERFBENCH_PROBES_H

#include <cstdint>
#include <vector>

#include "harness.h"

namespace perfbench {

/**
 * Run every layer probe and return the executor.*, mrf.* and rsu.*
 * metrics. @p threads is the pool size the engine uses; problems are
 * generated from @p seed.
 */
std::vector<Metric> runLayerProbes(uint64_t seed, int threads,
                                   SpanRecorder &spans);

} // namespace perfbench

#endif // RSU_PERFBENCH_PROBES_H
