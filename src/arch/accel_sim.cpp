#include "arch/accel_sim.h"

#include <algorithm>
#include <stdexcept>

namespace rsu::arch {

AcceleratorSim::AcceleratorSim(rsu::mrf::GridMrf &mrf,
                               const AcceleratorSimConfig &config)
    : mrf_(mrf), config_(config), kernel_(mrf)
{
    if (config_.num_units < 1)
        throw std::invalid_argument("AcceleratorSim: need units");
    if (config_.frequency_ghz <= 0.0 || config_.mem_bw_gbs <= 0.0)
        throw std::invalid_argument("AcceleratorSim: bad "
                                    "configuration");

    rsu::core::RsuGConfig unit_config = config_.unit;
    unit_config.energy = mrf_.config().energy;
    units_.reserve(config_.num_units);
    for (int u = 0; u < config_.num_units; ++u) {
        units_.push_back(std::make_unique<rsu::core::RsuG>(
            unit_config, config_.seed + u));
        units_.back()->initialize(mrf_.numLabels(),
                                  mrf_.temperature());
        units_.back()->setLabelCodes(mrf_.labelCodes());
    }

    // Paper section 8.2 byte accounting: 1 B observed data + 4 B
    // neighbour labels, plus one byte per candidate when data2
    // varies per label (e.g. motion's 49 destination pixels).
    bytes_per_site_ =
        5 + (mrf_.singleton().data2PerLabel() &&
                     mrf_.numLabels() > 1
                 ? mrf_.numLabels()
                 : 0);
}

AcceleratorIterationStats
AcceleratorSim::sweep()
{
    const int n_units = numUnits();
    std::vector<uint64_t> busy_before(n_units);
    for (int u = 0; u < n_units; ++u) {
        busy_before[u] = units_[u]->stats().issue_cycles +
                         units_[u]->stats().stall_cycles;
    }

    // Checkerboard: all even-parity sites (round-robin across
    // units), then all odd-parity sites.
    int counter = 0;
    for (int parity = 0; parity < 2; ++parity) {
        for (int y = 0; y < mrf_.height(); ++y) {
            for (int x = 0; x < mrf_.width(); ++x) {
                if (((x + y) & 1) != parity)
                    continue;
                auto &unit = *units_[counter % n_units];
                ++counter;
                kernel_.update(mrf_, unit, work_, x, y);
            }
        }
    }

    AcceleratorIterationStats stats;
    for (int u = 0; u < n_units; ++u) {
        const uint64_t busy = units_[u]->stats().issue_cycles +
                              units_[u]->stats().stall_cycles -
                              busy_before[u];
        stats.total_cycles += busy;
        stats.critical_cycles =
            std::max(stats.critical_cycles, busy);
    }
    stats.bytes =
        static_cast<int64_t>(mrf_.size()) * bytes_per_site_;
    stats.compute_seconds =
        static_cast<double>(stats.critical_cycles) /
        (config_.frequency_ghz * 1e9);
    stats.memory_seconds = static_cast<double>(stats.bytes) /
                           (config_.mem_bw_gbs * 1e9);
    last_utilization_ =
        stats.critical_cycles == 0
            ? 0.0
            : static_cast<double>(stats.total_cycles) /
                  (static_cast<double>(stats.critical_cycles) *
                   n_units);
    return stats;
}

AcceleratorIterationStats
AcceleratorSim::run(int n)
{
    AcceleratorIterationStats acc;
    for (int i = 0; i < n; ++i) {
        const AcceleratorIterationStats s = sweep();
        acc.critical_cycles += s.critical_cycles;
        acc.total_cycles += s.total_cycles;
        acc.bytes += s.bytes;
        acc.compute_seconds += s.compute_seconds;
        acc.memory_seconds += s.memory_seconds;
    }
    return acc;
}

} // namespace rsu::arch
