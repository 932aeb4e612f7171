#include "swiftrl/qtable_io.hh"

#include <cstring>

#include "pimsim/pim_system.hh"

namespace swiftrl {

using pimsim::TimeBucket;
using rlcore::ActionId;
using rlcore::NumericFormat;
using rlcore::QTable;
using rlcore::StateId;

double
QTableIo::conversionSeconds(const pimsim::CommandStream &stream,
                            std::size_t q_entries, bool to_float) const
{
    if (_workload.format == NumericFormat::Fp32)
        return 0.0;
    const auto &model = stream.system().config().costModel;
    using pimsim::OpClass;
    // Descale: int divide (or a shift for the power-of-two INT8
    // scale) + int-to-float conversion per entry. Requantise: FP32
    // multiply + float-to-int per entry.
    const bool pow2 = _workload.format == NumericFormat::Int8;
    const pimsim::Cycles descale_op =
        pow2 ? model.cyclesFor(OpClass::IntAlu)
             : model.cyclesFor(OpClass::Int32Div);
    const pimsim::Cycles per_entry =
        to_float ? descale_op + 2 * model.cyclesFor(OpClass::IntAlu)
                 : model.cyclesFor(OpClass::Fp32Mul) +
                       2 * model.cyclesFor(OpClass::IntAlu);
    return model.seconds(per_entry *
                         static_cast<pimsim::Cycles>(q_entries));
}

void
QTableIo::initQTables(pimsim::CommandStream &stream, StateId ns,
                      ActionId na) const
{
    const std::size_t q_bytes = static_cast<std::size_t>(ns) *
                                static_cast<std::size_t>(na) *
                                rlcore::kQWireBytesPerEntry;
    const std::vector<std::uint8_t> zeros(q_bytes, 0);
    stream.pushBroadcast(qOffset(), zeros, TimeBucket::CpuToPim,
                         "broadcast:qinit");
}

void
QTableIo::gatherWire(pimsim::CommandStream &stream, std::size_t entries,
                     std::vector<std::span<const std::uint8_t>> &views,
                     TimeBucket bucket, std::string_view label,
                     const RetryPolicy *retry) const
{
    // INT32 kernels descale their tables to FP32 on-core before the
    // transfer (Sec. 4.2); the conversion runs in parallel on all
    // cores, so it costs one per-core table pass. Charged once even
    // under retries — a corrupted wire transfer does not un-convert
    // the table sitting in the bank.
    const double convert =
        conversionSeconds(stream, entries, /*to_float=*/true);
    if (convert > 0.0)
        stream.onCoreCompute(convert, bucket, "convert:descale");
    // No policy = no recovery: a single fault is then fatal.
    static constexpr RetryPolicy kNoRetries{.limit = 0};
    runWithRecovery(
        stream, retry ? *retry : kNoRetries, label,
        [&] {
            return stream.gather(qOffset(),
                                 entries * rlcore::kQWireBytesPerEntry,
                                 views, bucket, label);
        },
        [](const pimsim::CommandError &) {
            SWIFTRL_PANIC("gathers cannot drop cores");
        });
}

void
QTableIo::decodeWire(std::span<const std::uint8_t> wire,
                     std::span<float> out) const
{
    SWIFTRL_ASSERT(wire.size() ==
                       out.size() * rlcore::kQWireBytesPerEntry,
                   "Q wire size mismatch");
    for (std::size_t e = 0; e < out.size(); ++e)
        out[e] = decodeEntry(wire, e);
}

std::vector<std::uint8_t>
QTableIo::packWire(const QTable &q) const
{
    std::vector<std::uint8_t> bytes(q.byteSize());
    if (_workload.format == NumericFormat::Fp32) {
        std::memcpy(bytes.data(), q.values().data(), bytes.size());
    } else {
        const auto fixed = q.toFixed(fixedScale());
        std::memcpy(bytes.data(), fixed.data(), bytes.size());
    }
    return bytes;
}

void
QTableIo::broadcastWire(pimsim::CommandStream &stream,
                        std::span<const std::uint8_t> wire,
                        TimeBucket bucket, std::string_view label) const
{
    const std::size_t entries = wire.size() / rlcore::kQWireBytesPerEntry;
    stream.pushBroadcast(qOffset(), wire, bucket, label);
    // Re-quantisation back to raw fixed point happens on-core after
    // the broadcast lands.
    const double convert =
        conversionSeconds(stream, entries, /*to_float=*/false);
    if (convert > 0.0)
        stream.onCoreCompute(convert, bucket, "convert:requantise");
}

} // namespace swiftrl
