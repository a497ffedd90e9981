/**
 * @file
 * The read-memory micro-benchmark (paper Section III): streams
 * through an input buffer summing BLOCKSIZE = 64 contiguous elements
 * per work-item and writing the sum to an output buffer.
 *
 * This file holds the problem state shared by every programming-model
 * variant; the per-model host orchestration lives in the
 * readmem_<model>.cc files.
 */

#ifndef HETSIM_APPS_READMEM_READMEM_CORE_HH
#define HETSIM_APPS_READMEM_READMEM_CORE_HH

#include <algorithm>
#include <vector>

#include "apps/appsupport.hh"
#include "kernelir/kernel.hh"
#include "kernelir/tracegen.hh"

namespace hetsim::apps::readmem
{

/** Block of contiguous elements summed per work-item (the paper). */
constexpr u64 blockSize = 64;

/** Elements streamed at scale 1.0 (a 64 MiB single-precision buffer). */
constexpr u64 baseElements = 16ull * 1024 * 1024;

/** Problem state of one read-memory run. */
template <typename Real>
struct Problem
{
    u64 elements = 0;
    std::vector<Real> in;
    std::vector<Real> out;

    explicit Problem(double scale)
    {
        elements = static_cast<u64>(static_cast<double>(baseElements) *
                                    scale);
        elements = std::max<u64>(elements / blockSize, 1) * blockSize;
        // in[i] = (i % 97) * 0.125: compute one period, then append
        // copies of it, so the buffer is written once, not zeroed first.
        std::vector<Real> period;
        for (u64 i = 0; i < std::min<u64>(97, elements); ++i)
            period.push_back(static_cast<Real>(i * 0.125));
        in.reserve(elements);
        while (in.size() < elements) {
            const u64 n = std::min<u64>(period.size(), elements - in.size());
            in.insert(in.end(), period.begin(), period.begin() + n);
        }
        out.assign(elements / blockSize, Real(0));
    }

    u64 items() const { return elements / blockSize; }

    /** Reference serial result (paper Figure 3a). */
    std::vector<Real>
    reference() const
    {
        std::vector<Real> ref(items(), Real(0));
        for (u64 i = 0; i < elements; i += blockSize) {
            Real sum = Real(0);
            for (u64 j = 0; j < blockSize; ++j)
                sum += in[i + j];
            ref[i / blockSize] = sum;
        }
        return ref;
    }

    /** Figure of merit: sum of the output buffer. */
    double
    checksum() const
    {
        double sum = 0.0;
        for (Real v : out)
            sum += static_cast<double>(v);
        return sum;
    }

    /** What the compilers see: a clean streaming block-sum loop. */
    ir::KernelDescriptor
    descriptor() const
    {
        ir::KernelDescriptor desc;
        desc.name = "read_mem";
        desc.flopsPerItem = static_cast<double>(blockSize); // 64 adds
        desc.intOpsPerItem = 8.0; // index arithmetic
        desc.loop.unrollableDepth = 1;
        desc.preferredWorkgroup = 64;

        ir::MemStream in_stream;
        in_stream.buffer = "in";
        in_stream.bytesPerItemSp = static_cast<double>(blockSize) * 4.0;
        in_stream.pattern = sim::AccessPattern::Sequential;
        in_stream.workingSetBytesSp = elements * 4;
        in_stream.trace =
            ir::sequentialTrace(elements * sizeof(Real), sizeof(Real));
        desc.streams.push_back(std::move(in_stream));

        ir::MemStream out_stream;
        out_stream.buffer = "out";
        out_stream.bytesPerItemSp = 4.0;
        out_stream.pattern = sim::AccessPattern::Sequential;
        out_stream.workingSetBytesSp = items() * 4;
        desc.streams.push_back(std::move(out_stream));
        return desc;
    }
};

} // namespace hetsim::apps::readmem

#endif // HETSIM_APPS_READMEM_READMEM_CORE_HH
