/**
 * @file
 * State of one simulated PIM core (UPMEM DPU): its MRAM bank contents,
 * its cycle counter, and per-op-class retirement counts.
 */

#ifndef SWIFTRL_PIMSIM_DPU_HH
#define SWIFTRL_PIMSIM_DPU_HH

#include <array>
#include <cstdint>
#include <vector>

#include "pimsim/cost_model.hh"
#include "pimsim/op_class.hh"

namespace swiftrl::pimsim {

/**
 * One PIM core plus its attached 64-MB DRAM (MRAM) bank.
 *
 * The MRAM buffer is grown lazily up to the configured capacity so a
 * 2,000-core system does not actually reserve 128 GB of host memory.
 * Cycle accounting is the responsibility of KernelContext; this class
 * only stores the counters.
 */
class Dpu
{
  public:
    /**
     * @param id core index within the system.
     * @param mram_capacity bank size in bytes.
     */
    Dpu(std::size_t id, std::size_t mram_capacity);

    /** Core index within the system. */
    std::size_t id() const { return _id; }

    /** Bank capacity in bytes. */
    std::size_t mramCapacity() const { return _mramCapacity; }

    /**
     * Host- or DMA-side write into the MRAM bank.
     * Fatal when the range exceeds the bank capacity (the simulated
     * equivalent of over-allocating a 64-MB bank).
     */
    void mramWrite(std::size_t offset, const void *src, std::size_t bytes);

    /** Read from the MRAM bank; fatal on out-of-range access. */
    void mramRead(std::size_t offset, void *dst, std::size_t bytes) const;

    /**
     * Raw read-only view of MRAM bytes [offset, offset + bytes).
     * Grows the lazy buffer (zero-filled) first, so never-written
     * ranges read as zero exactly like mramRead. The pointer stays
     * valid until the buffer grows — a later view, write or
     * mramReserve reaching past its end — so callers that take
     * several views, or interleave writes, size the bank first (or
     * re-acquire). Fatal past the bank capacity. Used by the batch
     * interpreter (transition records) and by CommandStream::gather
     * to avoid staging copies.
     */
    const std::uint8_t *
    mramView(std::size_t offset, std::size_t bytes)
    {
        ensure(offset + bytes);
        return _mram.data() + offset;
    }

    /**
     * Writable view of the same range, with mramView's growth and
     * validity rules. Writes through it land in the bank directly:
     * the batch interpreter trains a halo-free lane's Q region in
     * place and charges the modelled DMA separately.
     */
    std::uint8_t *
    mramViewMutable(std::size_t offset, std::size_t bytes)
    {
        ensure(offset + bytes);
        return _mram.data() + offset;
    }

    /**
     * Size the lazy buffer to hold at least [0, end) (zero-filled),
     * so views and writes inside it never grow, and so never move,
     * the bank. A no-op when the bank already holds @p end bytes.
     * Fatal past the bank capacity.
     */
    void mramReserve(std::size_t end) { ensure(end); }

    /** Total cycles this core has consumed. */
    Cycles cycles() const { return _cycles; }

    /** Advance the core's clock. */
    void addCycles(Cycles c) { _cycles += c; }

    /** Record @p n retired ops of class @p op (diagnostics). */
    void
    countOps(OpClass op, std::uint64_t n)
    {
        _opCounts[static_cast<std::size_t>(op)] += n;
    }

    /** Retired-op histogram across all launches. */
    const std::array<std::uint64_t, kNumOpClasses> &
    opCounts() const
    {
        return _opCounts;
    }

    /** Bytes moved by MRAM DMA across all launches. */
    std::uint64_t dmaBytes() const { return _dmaBytes; }

    /** Record DMA traffic (diagnostics). */
    void addDmaBytes(std::uint64_t b) { _dmaBytes += b; }

    /** Reset clock and statistics, keep MRAM contents. */
    void resetStats();

  private:
    /** Grow the lazy buffer to cover [0, end); fatal past capacity. */
    void ensure(std::size_t end);

    std::size_t _id;
    std::size_t _mramCapacity;
    std::vector<std::uint8_t> _mram;
    Cycles _cycles = 0;
    std::array<std::uint64_t, kNumOpClasses> _opCounts{};
    std::uint64_t _dmaBytes = 0;
};

} // namespace swiftrl::pimsim

#endif // SWIFTRL_PIMSIM_DPU_HH
