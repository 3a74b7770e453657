#include "ret/ret_circuit.h"

#include <stdexcept>

namespace rsu::ret {

namespace {

double
defaultBaseRate(const RetCircuitConfig &config)
{
    if (config.base_rate_per_ns > 0.0)
        return config.base_rate_per_ns;
    // Tune so the all-on code yields a 1 ns mean TTF.
    double max_intensity = 0.0;
    for (double w : config.led_weights)
        max_intensity += w;
    return 1.0 / max_intensity;
}

} // namespace

RetCircuit::RetCircuit(const RetCircuitConfig &config)
    : leds_(config.led_weights),
      network_(defaultBaseRate(config), config.wear),
      spad_(config.spad),
      timer_(config.clock_period_ns),
      quiescence_cycles_(config.quiescence_cycles)
{
    if (quiescence_cycles_ < 0)
        throw std::invalid_argument("RetCircuit: negative quiescence");
}

void
RetCircuit::setSpadModel(const SpadModel &model)
{
    spad_ = Spad(model);
}

double
RetCircuit::detectionRate(uint8_t code) const
{
    const double photon_rate =
        network_.effectiveRate() * leds_.intensity(code);
    return spad_.effectiveRate(photon_rate);
}

} // namespace rsu::ret
