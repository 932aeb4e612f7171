/**
 * @file
 * The host side of a synchronisation round: QTableIo::accumulateWire
 * decodes one core's Q wire image and adds it into a float sum.
 * Summing the live cores in ascending order into zeros and scaling
 * once by 1/live must equal QTable::average over the decoded tables
 * bit for bit, in every wire format, and its decode must equal the
 * per-slice decode the sharded path used before it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "rlcore/qtable.hh"
#include "rlcore/shard_map.hh"
#include "swiftrl/qtable_io.hh"
#include "swiftrl/sharding.hh"
#include "swiftrl/workload.hh"

namespace {

using swiftrl::QTableIo;
using swiftrl::Workload;
using namespace swiftrl::rlcore;

QTableIo
ioFor(NumericFormat format)
{
    return QTableIo(
        Workload{Algorithm::QLearning, Sampling::Seq, format}, Hyper{});
}

QTable
randomTable(StateId ns, ActionId na, std::uint32_t seed)
{
    std::mt19937 gen(seed);
    std::uniform_real_distribution<float> dist(-50.0f, 50.0f);
    QTable q(ns, na);
    for (float &v : q.values())
        v = dist(gen);
    return q;
}

/** One core's table as the per-core QTable gather decoded it. */
QTable
decodedTable(const QTableIo &qio, NumericFormat format,
             const std::vector<std::uint8_t> &wire, StateId ns,
             ActionId na)
{
    if (format == NumericFormat::Fp32) {
        QTable t(ns, na);
        std::memcpy(t.values().data(), wire.data(), wire.size());
        return t;
    }
    std::vector<std::int32_t> raw(wire.size() / sizeof(std::int32_t));
    std::memcpy(raw.data(), wire.data(), wire.size());
    return QTable::fromFixed(ns, na, raw, qio.fixedScale());
}

/** The slice decode the sharded aggregation used before the helper. */
std::vector<float>
sliceDecode(const std::vector<std::uint8_t> &bytes, std::size_t entries,
            bool fp32, std::int32_t scale)
{
    std::vector<float> out(entries);
    if (fp32) {
        std::memcpy(out.data(), bytes.data(), bytes.size());
    } else {
        const auto *fixed =
            reinterpret_cast<const std::int32_t *>(bytes.data());
        for (std::size_t i = 0; i < entries; ++i) {
            out[i] = static_cast<float>(static_cast<double>(fixed[i]) /
                                        static_cast<double>(scale));
        }
    }
    return out;
}

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
               0;
}

class AccumulateWire : public ::testing::TestWithParam<NumericFormat>
{
};

TEST_P(AccumulateWire, EqualsDecodedTableAverageSkippingADeadCore)
{
    const NumericFormat format = GetParam();
    const QTableIo qio = ioFor(format);
    const StateId ns = 37;
    const ActionId na = 6;
    const std::size_t cores = 7;
    const std::size_t dead = 3;

    std::vector<std::vector<std::uint8_t>> wires;
    for (std::size_t c = 0; c < cores; ++c)
        wires.push_back(qio.packWire(
            randomTable(ns, na, static_cast<std::uint32_t>(100 + c))));

    std::vector<QTable> live_tables;
    for (std::size_t c = 0; c < cores; ++c) {
        if (c != dead)
            live_tables.push_back(
                decodedTable(qio, format, wires[c], ns, na));
    }
    const QTable expected = QTable::average(live_tables);

    std::vector<float> sum(static_cast<std::size_t>(ns) * na, 0.0f);
    std::size_t live = 0;
    for (std::size_t c = 0; c < cores; ++c) {
        if (c == dead)
            continue;
        qio.accumulateWire(wires[c], sum);
        ++live;
    }
    const float inv = 1.0f / static_cast<float>(live);
    for (float &v : sum)
        v *= inv;
    EXPECT_TRUE(sameBits(sum, expected.values()));
}

TEST_P(AccumulateWire, EqualsTheSliceDecodeOnSlices)
{
    const NumericFormat format = GetParam();
    const QTableIo qio = ioFor(format);
    const bool fp32 = format == NumericFormat::Fp32;
    const ActionId na = 4;
    const ShardMap map(10, 3); // 4 rows per shard; the last is padded
    const QTable aggregated = randomTable(10, na, 7);
    const std::size_t entries =
        static_cast<std::size_t>(map.rowsPerShard()) * na;

    for (std::size_t s = 0; s < map.numShards(); ++s) {
        const auto wire =
            swiftrl::packSliceWire(qio, aggregated, map, s);
        const auto expected =
            sliceDecode(wire, entries, fp32, qio.fixedScale());
        std::vector<float> summed(entries, 0.0f);
        qio.accumulateWire(wire, summed);
        EXPECT_TRUE(sameBits(summed, expected)) << "shard " << s;
        std::vector<float> decoded(entries, 123.0f);
        qio.decodeWire(wire, decoded);
        EXPECT_TRUE(sameBits(decoded, expected)) << "shard " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(Formats, AccumulateWire,
                         ::testing::Values(NumericFormat::Fp32,
                                           NumericFormat::Int32,
                                           NumericFormat::Int8));

TEST(DecodeWire, KeepsTheSignOfAZero)
{
    // Adding into +0.0f would turn a -0.0f entry into +0.0f; decoding
    // accumulates into -0.0f instead, so the copy is exact.
    const QTableIo qio = ioFor(NumericFormat::Fp32);
    QTable q(1, 2);
    q.values() = {-0.0f, 1.5f};
    const auto wire = qio.packWire(q);
    std::vector<float> out(2, 9.0f);
    qio.decodeWire(wire, out);
    EXPECT_TRUE(sameBits(out, q.values()));
    EXPECT_TRUE(std::signbit(out[0]));
}

} // namespace
