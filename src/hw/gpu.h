// GPU types and specifications.
//
// The specs model the four GPU types of the paper's testbeds (Table 1 / §8.1):
// A100 and V100 nodes have NVLink, A40 and A10 nodes connect GPUs over PCIe,
// and nodes are interconnected with Mellanox ConnectX-5 or ConnectX-6
// InfiniBand. Peak throughputs are public fp16 tensor-core numbers; they feed
// the analytical performance model that substitutes for the paper's physical
// cluster (see DESIGN.md §2).

#ifndef SRC_HW_GPU_H_
#define SRC_HW_GPU_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace crius {

enum class GpuType : uint8_t {
  kA100 = 0,
  kA40 = 1,
  kA10 = 2,
  kV100 = 3,
};

// Number of distinct GPU types.
inline constexpr int kNumGpuTypes = 4;

// All GPU types, in Table-1 order.
const std::vector<GpuType>& AllGpuTypes();

enum class GpuArch : uint8_t {
  kAmpere,
  kVolta,
};

// Intra-node GPU interconnect class.
enum class IntraLink : uint8_t {
  kNvLink,
  kPcie,
};

// Inter-node NIC class (Table 1).
enum class InterLink : uint8_t {
  kInfinibandCx5,  // 100 Gb/s
  kInfinibandCx6,  // 200 Gb/s
};

struct GpuSpec {
  GpuType type;
  std::string name;
  GpuArch arch;
  // Peak dense fp16 tensor throughput, FLOPs/s.
  double peak_flops;
  // Device memory, bytes.
  double memory_bytes;
  // Intra-node interconnect and its effective per-GPU bus bandwidth, bytes/s.
  IntraLink intra_link;
  double intra_bw;
  // Inter-node NIC and its effective bandwidth, bytes/s (one NIC per node).
  InterLink inter_link;
  double inter_bw;
};

// Returns the immutable spec for a GPU type.
const GpuSpec& GpuSpecOf(GpuType type);

// Short display name, e.g. "A100".
const std::string& GpuName(GpuType type);

// Parses "A100" / "a40" / ... (case-insensitive); std::nullopt on unknown
// names.
std::optional<GpuType> FindGpuType(const std::string& name);

// FindGpuType for trusted names: aborts on unknown ones.
GpuType ParseGpuType(const std::string& name);

// True if the GPU's intra-node link is NVLink.
bool HasNvLink(GpuType type);

}  // namespace crius

#endif  // SRC_HW_GPU_H_
