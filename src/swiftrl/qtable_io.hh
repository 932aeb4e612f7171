/**
 * @file
 * Q-table wire I/O shared by the offline (PimTrainer) and streaming
 * (StreamingTrainer) trainers: initialising, gathering, and
 * broadcasting Q-tables over a command stream, including the on-core
 * fixed-point<->FP32 conversion the paper describes flanking every
 * transfer ("convert the values back from INT32 to FP32 ... before
 * the PIM cores transfer", Sec. 4.2).
 *
 * Extracting this from PimTrainer keeps the two trainers' transfers
 * byte- and cycle-identical by construction: same packing, same
 * conversion cost formula, same event labels on the timeline.
 */

#ifndef SWIFTRL_SWIFTRL_QTABLE_IO_HH
#define SWIFTRL_SWIFTRL_QTABLE_IO_HH

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "pimsim/command_stream.hh"
#include "rlcore/qtable.hh"
#include "rlcore/types.hh"
#include "swiftrl/retry_policy.hh"
#include "swiftrl/workload.hh"

namespace swiftrl {

/**
 * Stateless helper binding a workload's numeric format (and its
 * fixed-point scale) to the Q-table transfer commands. The Q region
 * always starts at MRAM offset 0.
 */
class QTableIo
{
  public:
    /**
     * @param workload decides the wire format (FP32 bytes vs raw
     *        fixed point with an on-core conversion step).
     * @param hyper supplies the fixed-point scale parameters.
     */
    QTableIo(const Workload &workload, const rlcore::Hyper &hyper)
        : _workload(workload), _hyper(hyper)
    {
    }

    /** MRAM byte offset of the Q-table region (always 0). */
    std::size_t qOffset() const { return 0; }

    /**
     * Fixed-point scale for the active format: hyper.scale for INT32,
     * 1 << hyper.int8Shift for the INT8 optimisation.
     */
    std::int32_t
    fixedScale() const
    {
        return _workload.format == rlcore::NumericFormat::Int8
                   ? 1 << _hyper.int8Shift
                   : _hyper.scale;
    }

    /**
     * Modelled on-core cost of converting a Q-table between raw
     * fixed point and FP32 wire format (the descale-before-transfer /
     * requantise-after-broadcast step); zero for FP32 workloads.
     */
    double conversionSeconds(const pimsim::CommandStream &stream,
                             std::size_t q_entries,
                             bool to_float) const;

    /**
     * Broadcast the all-zeros initial Q-table to every core
     * (Algorithm 1's initialisation; both formats share a 4-byte
     * zero encoding). Charged to CpuToPim.
     */
    void initQTables(pimsim::CommandStream &stream,
                     rlcore::StateId num_states,
                     rlcore::ActionId num_actions) const;

    /**
     * Gather the first @p entries Q wire entries of every core into
     * @p views (CommandStream::gather views: no copy, empty for
     * dropped cores), including the on-core descale-to-FP32 step,
     * charged to @p bucket.
     *
     * A corrupted gather is retried under @p retry (the on-core
     * conversion is *not* redone — the converted table still sits in
     * the bank, only the wire transfer failed). With no policy, or
     * once its limit is exhausted, the run dies loudly.
     */
    void gatherWire(pimsim::CommandStream &stream, std::size_t entries,
                    std::vector<std::span<const std::uint8_t>> &views,
                    pimsim::TimeBucket bucket, std::string_view label,
                    const RetryPolicy *retry = nullptr) const;

    /**
     * Decode entry @p e of one Q wire image: FP32 as is, fixed point
     * descaled in double precision (the correctly rounded quotient,
     * as in QTable::fromFixed; the modelled cost is the on-core
     * conversion's). Summing the live cores' decoded
     * tables in ascending order into zeros and scaling once by
     * 1/live is QTable::average bit for bit.
     */
    float
    decodeEntry(std::span<const std::uint8_t> wire, std::size_t e) const
    {
        if (_workload.format == rlcore::NumericFormat::Fp32) {
            float value;
            std::memcpy(&value, wire.data() + e * sizeof(float),
                        sizeof(float));
            return value;
        }
        std::int32_t fixed;
        std::memcpy(&fixed, wire.data() + e * sizeof(std::int32_t),
                    sizeof(std::int32_t));
        return static_cast<float>(static_cast<double>(fixed) /
                                  static_cast<double>(fixedScale()));
    }

    /** Decode one Q wire image of out.size() entries into @p out
     *  with decodeEntry(). */
    void decodeWire(std::span<const std::uint8_t> wire,
                    std::span<float> out) const;

    /**
     * Broadcast one packWire() image to every core's MRAM Q region,
     * including the on-core requantise step, charged to @p bucket.
     */
    void broadcastWire(pimsim::CommandStream &stream,
                       std::span<const std::uint8_t> wire,
                       pimsim::TimeBucket bucket,
                       std::string_view label = "broadcast:q") const;

    /**
     * The exact bytes the session broadcasts for @p q (FP32 copy or
     * the fixed-point encoding). The session restore path pokes
     * these bytes into MRAM functionally, so a restored bank is
     * byte-identical to one the last broadcast wrote.
     */
    std::vector<std::uint8_t> packWire(const rlcore::QTable &q) const;

  private:
    Workload _workload;
    rlcore::Hyper _hyper;
};

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_QTABLE_IO_HH
