/**
 * @file
 * Gibbs sweeps through an RSU-G device.
 *
 * The accelerated inner loop: per site, the per-pixel operand set
 * (neighbour labels, singleton data) is transferred to the RSU-G
 * through its instruction interface and a read-result draws the new
 * label from the device's first-to-fire race (paper section 6.1,
 * "Execution"). Two operating modes:
 *
 *  - Isa: drive the full RsuDevice control-register protocol,
 *    counting the dynamic RSU instructions a real program would
 *    issue — the mode the architecture models cost;
 *  - Direct: run the RsuSiteKernel, which computes the candidate
 *    energies from staged tables and hands them straight to the
 *    unit's race (RsuG::sampleEnergies), skipping instruction
 *    emulation for speed (labels are identical by construction).
 */

#ifndef RSU_MRF_RSU_GIBBS_H
#define RSU_MRF_RSU_GIBBS_H

#include <cstdint>
#include <vector>

#include "core/rsu_isa.h"
#include "mrf/gibbs.h"
#include "mrf/grid_mrf.h"
#include "mrf/schedule.h"

namespace rsu::mrf {

/**
 * The RSU path's one site-update kernel, shared by RsuGibbsSampler
 * (Direct mode), the chromatic runtime's RSU shards, and the
 * accelerator simulator (arch::AcceleratorSim).
 *
 * Construction stages the model's operands once: data1 per site
 * (1 B/site), the Data2Table row per site (M B/site), and the
 * neighbour-code x candidate doubleton distances (L1-sized). A site
 * update then reads its operand bytes and four neighbour labels,
 * computes each candidate's energy with the energy unit's integer
 * terms and single saturation point, re-references it, and hands
 * the energies to RsuG::sampleEnergies — no virtual calls, no
 * EnergyInputs copies, no allocation. The energies equal what
 * RsuG::sample() computes from GridMrf::referencedInputsAt(), and
 * the race consumes the unit's entropy in the same order, so labels
 * are bit-identical to the operand-transfer path.
 *
 * The kernel is read-only after construction: any number of threads
 * may update disjoint sites concurrently, each with its own unit
 * and work counters. The singleton model must be static.
 */
class RsuSiteKernel
{
  public:
    explicit RsuSiteKernel(const GridMrf &mrf);

    /**
     * Draw a new label for (x, y) of @p mrf through @p unit (whose
     * internal RNG is the entropy source), record costs in
     * @p work, and install it. @p mrf must be the model the kernel
     * was built from; @p unit must be initialized for it.
     */
    Label update(GridMrf &mrf, rsu::core::RsuG &unit,
                 SamplerWork &work, int x, int y) const;

    /** Staged data2 bytes of @p site (numLabels() entries). */
    const uint8_t *data2Row(int site) const { return data2_.row(site); }

  private:
    std::vector<uint8_t> data1_;
    rsu::core::Data2Table data2_;
    rsu::core::TransposedDoubletonTable doubletons_;
};

/** Gibbs sampler whose conditional draws run on an RSU-G. */
class RsuGibbsSampler
{
  public:
    /** Instruction-level vs direct device access. */
    enum class Mode { Isa, Direct };

    /**
     * @param mrf model to sample (mutated in place)
     * @param unit RSU-G device (must outlive the sampler); the
     *        sampler initializes it for the model's label count and
     *        temperature. The unit's energy datapath configuration
     *        must equal the model's — hardware and reference must
     *        compute identical energies — or the constructor
     *        throws. Use unitConfigFor() to build a matching unit.
     * @param schedule site visit order
     * @param mode access mode
     */
    RsuGibbsSampler(GridMrf &mrf, rsu::core::RsuG &unit,
                    Schedule schedule = Schedule::Checkerboard,
                    Mode mode = Mode::Direct);

    /**
     * RSU-G configuration matching @p mrf's energy datapath, with
     * every other knob taken from @p base.
     */
    static rsu::core::RsuGConfig
    unitConfigFor(const GridMrf &mrf,
                  rsu::core::RsuGConfig base = {});

    /** Resample one site through the device. */
    Label updateSite(int x, int y);

    /** One MCMC iteration: every site updated once. */
    void sweep();

    /** Run @p n sweeps. */
    void run(int n);

    /** Dynamic RSU instructions issued (Isa mode only). */
    uint64_t rsuInstructions() const;

    /**
     * Install a new Gibbs temperature: updates the model and
     * rebuilds the unit's intensity map (a per-application
     * re-initialization, section 6.1). Used by annealing drivers.
     */
    void setTemperature(double t);

    const SamplerWork &work() const { return work_; }
    rsu::core::RsuG &unit() { return unit_; }

  private:
    GridMrf &mrf_;
    rsu::core::RsuG &unit_;
    rsu::core::RsuDevice device_;
    Schedule schedule_;
    Mode mode_;
    SamplerWork work_;
    RsuSiteKernel kernel_; // staged per-site operands
};

} // namespace rsu::mrf

#endif // RSU_MRF_RSU_GIBBS_H
