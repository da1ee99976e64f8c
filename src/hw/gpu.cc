#include "src/hw/gpu.h"

#include <array>

#include "src/util/check.h"
#include "src/util/units.h"

namespace crius {

namespace {

// Effective bandwidths are deliberately below marketing peaks: NVLink numbers
// are bus bandwidth achievable by NCCL rings, PCIe is shared-host effective,
// and InfiniBand is line rate (100 / 200 Gb/s) per node NIC.
const std::array<GpuSpec, kNumGpuTypes> kSpecs = {{
    {GpuType::kA100, "A100", GpuArch::kAmpere, 312.0 * kTeraFlops, 40.0 * kGiB,
     IntraLink::kNvLink, 300.0 * kGB, InterLink::kInfinibandCx5, 100.0 * kGbps},
    {GpuType::kA40, "A40", GpuArch::kAmpere, 150.0 * kTeraFlops, 48.0 * kGiB,
     IntraLink::kPcie, 16.0 * kGB, InterLink::kInfinibandCx5, 100.0 * kGbps},
    {GpuType::kA10, "A10", GpuArch::kAmpere, 125.0 * kTeraFlops, 24.0 * kGiB,
     IntraLink::kPcie, 16.0 * kGB, InterLink::kInfinibandCx6, 200.0 * kGbps},
    {GpuType::kV100, "V100", GpuArch::kVolta, 112.0 * kTeraFlops, 32.0 * kGiB,
     IntraLink::kNvLink, 150.0 * kGB, InterLink::kInfinibandCx5, 100.0 * kGbps},
}};

}  // namespace

const std::vector<GpuType>& AllGpuTypes() {
  static const std::vector<GpuType> kAll = {GpuType::kA100, GpuType::kA40, GpuType::kA10,
                                            GpuType::kV100};
  return kAll;
}

const GpuSpec& GpuSpecOf(GpuType type) {
  const auto index = static_cast<size_t>(type);
  CRIUS_CHECK(index < kSpecs.size());
  const GpuSpec& spec = kSpecs[index];
  CRIUS_CHECK(spec.type == type);
  return spec;
}

const std::string& GpuName(GpuType type) {
  return GpuSpecOf(type).name;
}

std::optional<GpuType> FindGpuType(const std::string& name) {
  for (GpuType t : AllGpuTypes()) {
    const std::string& n = GpuName(t);
    if (n.size() == name.size()) {
      bool match = true;
      for (size_t i = 0; i < n.size(); ++i) {
        const char a = n[i];
        const char b = name[i];
        const char bu = (b >= 'a' && b <= 'z') ? static_cast<char>(b - 'a' + 'A') : b;
        if (a != bu) {
          match = false;
          break;
        }
      }
      if (match) {
        return t;
      }
    }
  }
  return std::nullopt;
}

GpuType ParseGpuType(const std::string& name) {
  const std::optional<GpuType> type = FindGpuType(name);
  CRIUS_CHECK_MSG(type.has_value(), "unknown GPU type name: " << name);
  return *type;
}

bool HasNvLink(GpuType type) {
  return GpuSpecOf(type).intra_link == IntraLink::kNvLink;
}

}  // namespace crius
