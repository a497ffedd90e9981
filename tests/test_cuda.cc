/**
 * @file
 * Tests for the CUDA-style frontend's streams: in-order copies and
 * launches, cross-stream events, synchronization and launch-
 * configuration errors.
 */

#include <gtest/gtest.h>

#include "cuda/cuda.hh"

namespace hetsim::cuda
{
namespace
{

ir::KernelDescriptor
streamKernel(const char *name = "cuda_kernel")
{
    ir::KernelDescriptor desc;
    desc.name = name;
    desc.flopsPerItem = 4;
    ir::MemStream s;
    s.buffer = "io";
    s.bytesPerItemSp = 8;
    s.workingSetBytesSp = 8 * MiB;
    desc.streams.push_back(s);
    return desc;
}

double
finish(const Device &dev, const Event &event)
{
    return dev.runtime().taskFinishSeconds(event.task);
}

TEST(CudaStream, MemcpyAndLaunchRunInStreamOrder)
{
    Device dev(sim::DeviceType::DiscreteGpu, Precision::Single);
    std::vector<float> host(1 << 20, 1.0f);
    DevicePtr ptr = dev.malloc(host.data(), host.size() * 4, "host");
    Stream stream(dev);

    Event in = stream.memcpyAsync(ptr, CopyDir::HostToDevice);
    ASSERT_TRUE(in.valid());
    Event kernel = stream.launchKernel(streamKernel(), host.size(), 256,
                                       {}, [&](u64 begin, u64 end) {
                                           for (u64 i = begin; i < end;
                                                ++i)
                                               host[i] *= 2.0f;
                                       });
    ASSERT_TRUE(kernel.valid());
    Event out = stream.memcpyAsync(ptr, CopyDir::DeviceToHost);
    ASSERT_TRUE(out.valid());

    EXPECT_FLOAT_EQ(host[5], 2.0f);
    const double kernel_seconds =
        dev.runtime().records().back().timing.seconds;
    EXPECT_GE(finish(dev, kernel) - kernel_seconds, finish(dev, in));
    EXPECT_GT(finish(dev, out), finish(dev, kernel));
    EXPECT_DOUBLE_EQ(dev.runtime().stats().get("xfer.h2d.count"), 1.0);
    EXPECT_DOUBLE_EQ(dev.runtime().stats().get("xfer.d2h.count"), 1.0);
    // <<<grid, block>>>: the block size is the work-group size.
    EXPECT_EQ(dev.runtime().records().back().profile.workgroupSize,
              256u);
}

TEST(CudaStream, ZeroCopyMemcpyLeavesStreamFront)
{
    Device dev(sim::DeviceType::IntegratedGpu, Precision::Single);
    std::vector<float> host(1 << 16);
    DevicePtr ptr = dev.malloc(host.data(), host.size() * 4, "host");
    Stream stream(dev);

    // Shared memory: the copy is a no-op and the empty stream stays
    // empty.
    EXPECT_FALSE(stream.memcpyAsync(ptr, CopyDir::HostToDevice).valid());
    Event kernel = stream.launchKernel(streamKernel(), host.size(), 64,
                                       {}, nullptr);
    // After a launch the no-op copy reports the launch as the front.
    Event out = stream.memcpyAsync(ptr, CopyDir::DeviceToHost);
    EXPECT_EQ(out.task, kernel.task);
    EXPECT_DOUBLE_EQ(dev.runtime().stats().get("xfer.h2d.count"), 0.0);
    EXPECT_DOUBLE_EQ(dev.runtime().stats().get("xfer.d2h.count"), 0.0);
}

TEST(CudaStream, WaitEventOrdersAfterLaterTask)
{
    Device dev(sim::DeviceType::DiscreteGpu, Precision::Single);
    std::vector<float> small(1 << 10);
    DevicePtr big_ptr = dev.malloc(small.data(), 256 * MiB, "big");
    Stream copier(dev), worker(dev);

    // The copier's long transfer finishes after the worker's short
    // kernel: waiting on it moves the worker's front to the copy.
    Event copied = copier.memcpyAsync(big_ptr, CopyDir::HostToDevice);
    Event ran = worker.launchKernel(streamKernel(), small.size(), 64, {},
                                    nullptr);
    ASSERT_GT(finish(dev, copied), finish(dev, ran));
    worker.waitEvent(copied);
    EXPECT_EQ(worker.recordEvent().task, copied.task);
    EXPECT_DOUBLE_EQ(worker.synchronize(), finish(dev, copied));

    // The next launch on the worker starts after the copy.
    Event after = worker.launchKernel(streamKernel(), small.size(), 64,
                                      {}, nullptr);
    const double kernel_seconds =
        dev.runtime().records().back().timing.seconds;
    EXPECT_GE(finish(dev, after) - kernel_seconds, finish(dev, copied));

    // Waiting on an event that finished earlier keeps the own front.
    worker.waitEvent(ran);
    EXPECT_EQ(worker.recordEvent().task, after.task);

    // An invalid event is ignored.
    worker.waitEvent(Event{});
    EXPECT_EQ(worker.recordEvent().task, after.task);
}

TEST(CudaStream, EmptyStreamAdoptsWaitedEvent)
{
    Device dev(sim::DeviceType::DiscreteGpu, Precision::Single);
    Stream producer(dev), consumer(dev);
    Event done = producer.launchKernel(streamKernel(), 1 << 16, 64, {},
                                       nullptr);
    consumer.waitEvent(done);
    EXPECT_EQ(consumer.recordEvent().task, done.task);
}

TEST(CudaStream, RecordEventAndSynchronize)
{
    Device dev(sim::DeviceType::DiscreteGpu, Precision::Single);
    Stream stream(dev);
    EXPECT_FALSE(stream.recordEvent().valid());
    EXPECT_DOUBLE_EQ(stream.synchronize(), 0.0);

    Event first = stream.launchKernel(streamKernel("first"), 1 << 16, 64,
                                      {}, nullptr);
    EXPECT_EQ(stream.recordEvent().task, first.task);
    Event second = stream.launchKernel(streamKernel("second"), 1 << 16,
                                       64, {}, nullptr);
    EXPECT_EQ(stream.recordEvent().task, second.task);
    EXPECT_GT(finish(dev, second), finish(dev, first));
    EXPECT_DOUBLE_EQ(stream.synchronize(), finish(dev, second));
    EXPECT_DOUBLE_EQ(dev.deviceSynchronize(), dev.elapsedSeconds());
}

TEST(CudaDeath, ZeroBlockLaunchRejected)
{
    Device dev(sim::DeviceType::DiscreteGpu, Precision::Single);
    Stream stream(dev);
    EXPECT_EXIT(stream.launchKernel(streamKernel(), 1024, 0, {}, nullptr),
                testing::ExitedWithCode(1), "zero block size");
}

TEST(CudaDeath, EmptyGridLaunchRejected)
{
    Device dev(sim::DeviceType::DiscreteGpu, Precision::Single);
    Stream stream(dev);
    EXPECT_EXIT(stream.launchKernel(streamKernel(), 0, 64, {}, nullptr),
                testing::ExitedWithCode(1), "empty grid");
}

} // namespace
} // namespace hetsim::cuda
