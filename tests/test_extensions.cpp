// Tests for the remaining extension module: the multi-GPU estimate (paper
// §IV).
#include <gtest/gtest.h>

#include "simgpu/multi_gpu.hpp"

namespace {

using namespace are;

// --- Multi-GPU (paper §IV) -------------------------------------------------------

class MultiGpuTest : public ::testing::Test {
 protected:
  simgpu::DeviceSpec device_ = simgpu::DeviceSpec::tesla_c2075();
  simgpu::WorkloadShape shape_{1'000'000, 1000.0, 15.0, 1};
  static constexpr std::size_t kCatalog = 2'000'000;
};

TEST_F(MultiGpuTest, OneDeviceMatchesSingleKernelPlusTransfer) {
  const auto estimate = simgpu::estimate_multi_gpu(device_, shape_, 1, 192, 4, kCatalog);
  const auto kernel = simgpu::estimate_chunked_kernel(device_, shape_, 192, 4);
  EXPECT_NEAR(estimate.kernel_seconds, kernel.seconds, 1e-9);
  EXPECT_GT(estimate.transfer_seconds, 0.0);
  EXPECT_NEAR(estimate.speedup_vs_one, 1.0, 1e-9);
}

TEST_F(MultiGpuTest, SpeedupGrowsSublinearlyWithDevices) {
  const auto two = simgpu::estimate_multi_gpu(device_, shape_, 2, 192, 4, kCatalog);
  const auto four = simgpu::estimate_multi_gpu(device_, shape_, 4, 192, 4, kCatalog);
  const auto eight = simgpu::estimate_multi_gpu(device_, shape_, 8, 192, 4, kCatalog);
  EXPECT_GT(two.speedup_vs_one, 1.4);
  EXPECT_GT(four.speedup_vs_one, two.speedup_vs_one);
  EXPECT_GT(eight.speedup_vs_one, four.speedup_vs_one);
  // ELT replication caps scaling short of ideal.
  EXPECT_LT(eight.speedup_vs_one, 8.0);
}

TEST_F(MultiGpuTest, TransferIncludesEltReplication) {
  // Doubling the catalog doubles the replicated direct-access footprint.
  const auto small = simgpu::estimate_multi_gpu(device_, shape_, 4, 192, 4, 1'000'000);
  const auto large = simgpu::estimate_multi_gpu(device_, shape_, 4, 192, 4, 2'000'000);
  EXPECT_GT(large.transfer_seconds, small.transfer_seconds);
}

TEST_F(MultiGpuTest, DevicesForTargetFindsMinimalCount) {
  const auto one = simgpu::estimate_multi_gpu(device_, shape_, 1, 192, 4, kCatalog);
  // A target just below the 1-device time needs >= 2 devices.
  const int needed =
      simgpu::devices_for_target(device_, shape_, one.seconds * 0.9, 192, 4, kCatalog);
  EXPECT_GE(needed, 2);
  // A generous target needs exactly 1.
  EXPECT_EQ(simgpu::devices_for_target(device_, shape_, one.seconds * 2.0, 192, 4, kCatalog),
            1);
  // An impossible target returns 0 (ELT transfer floor never shrinks).
  EXPECT_EQ(simgpu::devices_for_target(device_, shape_, 1e-6, 192, 4, kCatalog, 8), 0);
}

TEST_F(MultiGpuTest, RejectsBadArguments) {
  EXPECT_THROW(simgpu::estimate_multi_gpu(device_, shape_, 0, 192, 4, kCatalog),
               std::invalid_argument);
  EXPECT_THROW(simgpu::devices_for_target(device_, shape_, -1.0, 192, 4, kCatalog),
               std::invalid_argument);
}

}  // namespace
