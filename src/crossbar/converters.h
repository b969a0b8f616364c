/**
 * @file
 * DAC (input driver) and ADC (sense) models — the circuit non-idealities
 * the paper groups as "DAC+Driver" and "Sense+ADC" (Figs. 8/9).
 *
 * Each converter *instance* draws its static error profile (INL curve,
 * gain, offset) from a seeded RNG at construction, modeling die-to-die
 * variation; per-conversion noise is drawn at use time.
 *
 * Both converters work on blocks: convertBlock() converts a whole tile
 * input or output row in one call, with the instance's parameters loaded
 * once. The one-element convert() calls are thin wrappers around it, so
 * every caller shares one implementation and one noise stream.
 */

#ifndef SWORDFISH_CROSSBAR_CONVERTERS_H
#define SWORDFISH_CROSSBAR_CONVERTERS_H

#include <cstddef>
#include <vector>

#include "crossbar/device.h"
#include "util/rng.h"

namespace swordfish::crossbar {

/**
 * Input DAC with R_load droop and integral nonlinearity.
 *
 * Operates on normalized inputs in [-1, 1]; the droop term models the
 * effective resistive load of the driver: large total line conductance
 * (many low-resistance cells on the row) pulls the delivered voltage down
 * (paper Section 2.3 non-ideality 1).
 */
class DacModel
{
  public:
    /**
     * @param config           DAC parameters
     * @param seed             instance seed (die-to-die variation)
     * @param line_load_factor total line conductance / (size * gMax),
     *                         in [0, 1]; scales the droop
     * @param ideal            when true the DAC is a pure quantizer-free
     *                         pass-through (used by ideal configurations)
     */
    DacModel(const DacConfig& config, std::uint64_t seed,
             double line_load_factor, bool ideal = false);

    /**
     * Convert n normalized inputs in place to delivered line voltages:
     * clip to [-1, 1], round to the nearest code (ties away from zero),
     * add the code's INL, apply the droop. No-op when ideal.
     */
    void convertBlock(float* xs, std::size_t n) const;

    /** Convert one normalized input to the delivered line voltage. */
    float
    convert(float x) const
    {
        convertBlock(&x, 1);
        return x;
    }

    bool isIdeal() const { return ideal_; }
    float step() const { return step_; }
    /** Per-code INL offsets in value units (empty when ideal). */
    const std::vector<float>& inl() const { return inl_; }
    /** Multiplier the R_load droop applies to every delivered voltage. */
    float droopFactor() const { return static_cast<float>(1.0 - droopGain_); }

  private:
    DacConfig config_;
    bool ideal_;
    double droopGain_;       ///< effective droop multiplier
    std::vector<float> inl_; ///< per-code INL offsets (in value units)
    float step_;             ///< LSB size in normalized value units
};

/**
 * Column ADC with gain error, offset, and thermal noise.
 *
 * Operates on normalized accumulated values; `range` sets full scale. Per
 * conversion it consumes randomness, so conversion takes an Rng.
 */
class AdcModel
{
  public:
    /**
     * @param config ADC parameters
     * @param seed   instance seed for the static gain/offset profile
     * @param range  full-scale input magnitude (clipping threshold)
     * @param ideal  pure pass-through when true
     */
    AdcModel(const AdcConfig& config, std::uint64_t seed, double range,
             bool ideal = false);

    /**
     * Convert n accumulated values in place: gain and offset, thermal
     * noise, clip to +-range, round to the nearest code (ties away from
     * zero). Draws exactly one Rng::gaussZiggurat() sample per value, in
     * order, so the output bits and the stream position afterwards do not
     * depend on how a row is split into calls. No-op (and no draws) when
     * ideal.
     */
    void convertBlock(float* ys, std::size_t n, Rng& rng) const;

    /** Convert one accumulated value (noise drawn from rng). */
    float
    convert(float y, Rng& rng) const
    {
        convertBlock(&y, 1, rng);
        return y;
    }

    bool isIdeal() const { return ideal_; }
    double range() const { return range_; }
    float gain() const { return gain_; }
    float offset() const { return offset_; }
    float step() const { return step_; }

  private:
    AdcConfig config_;
    bool ideal_;
    double range_;
    float gain_;
    float offset_;
    float step_;
};

} // namespace swordfish::crossbar

#endif // SWORDFISH_CROSSBAR_CONVERTERS_H
