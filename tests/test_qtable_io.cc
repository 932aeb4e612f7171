/**
 * @file
 * The host side of a synchronisation round: QTableIo::decodeWire and
 * QTableIo::decodeEntry decode a core's Q wire image. Summing the
 * live cores' decoded tables in ascending order into zeros and
 * scaling once by 1/live must equal QTable::average over the tables
 * the fixed-point reader builds, bit for bit, in every wire format;
 * the decode must equal the per-slice decode the sharded path used
 * before it; and the one-entry decode must equal the whole-image one.
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

class DecodeWireFormats : public ::testing::TestWithParam<NumericFormat>
{
};

TEST_P(DecodeWireFormats, SumEqualsDecodedTableAverageSkippingADeadCore)
{
    const NumericFormat format = GetParam();
    const QTableIo qio = ioFor(format);
    const StateId ns = 37;
    const ActionId na = 6;
    const std::size_t cores = 7;
    const std::size_t dead = 3;
    const std::size_t entries = static_cast<std::size_t>(ns) * na;

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

    std::vector<float> sum(entries, 0.0f);
    std::vector<float> table(entries);
    std::size_t live = 0;
    for (std::size_t c = 0; c < cores; ++c) {
        if (c == dead)
            continue;
        qio.decodeWire(wires[c], table);
        for (std::size_t e = 0; e < entries; ++e)
            sum[e] += table[e];
        ++live;
    }
    const float inv = 1.0f / static_cast<float>(live);
    for (float &v : sum)
        v *= inv;
    EXPECT_TRUE(sameBits(sum, expected.values()));
}

TEST_P(DecodeWireFormats, EqualsTheSliceDecodeOnSlices)
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
        std::vector<float> decoded(entries, 123.0f);
        qio.decodeWire(wire, decoded);
        EXPECT_TRUE(sameBits(decoded, expected)) << "shard " << s;
        std::vector<float> one_by_one(entries);
        for (std::size_t e = 0; e < entries; ++e)
            one_by_one[e] = qio.decodeEntry(wire, e);
        EXPECT_TRUE(sameBits(one_by_one, expected)) << "shard " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(Formats, DecodeWireFormats,
                         ::testing::Values(NumericFormat::Fp32,
                                           NumericFormat::Int32,
                                           NumericFormat::Int8));

TEST(DecodeWire, KeepsTheSignOfAZero)
{
    // A decoded table is the wire's values exactly, the sign of a
    // zero included.
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
