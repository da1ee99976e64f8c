// Model zoo: the three large-model families of Table 2.
//
//   Wide-ResNet  [256, 512, 1024] global batch, {0.5, 1.0, 2.0, 4.0, 6.8} B params
//   BERT         [128, 256,  512] global batch, {0.76, 1.3, 2.6, 6.7} B params
//   GShard MoE   [256, 512, 1024] global batch, {0.69, 1.3, 2.4, 10, 27} B params
//
// Builders synthesize operator graphs from the standard architecture formulas
// at the published parameter counts; see each .cc for the derivation. Built
// graphs are cached because trace-scale simulations request the same specs
// millions of times.

#ifndef SRC_MODEL_MODELS_H_
#define SRC_MODEL_MODELS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/model/opgraph.h"

namespace crius {

enum class ModelFamily : uint8_t {
  kWideResNet = 0,
  kBert = 1,
  kMoe = 2,
};

inline constexpr int kNumModelFamilies = 3;

const char* FamilyName(ModelFamily family);

// Inverse of FamilyName ("WRes" / "BERT" / "MoE", exact match); nullopt for
// any other name, so each reader can report it in its own context.
std::optional<ModelFamily> ParseModelFamily(const std::string& name);

struct ModelSpec {
  ModelFamily family = ModelFamily::kBert;
  // Nominal parameter count in billions; must match a supported size.
  double params_billion = 1.3;
  // Global (per-iteration) batch size in samples.
  int64_t global_batch = 256;

  // "BERT-1.3B" style display name.
  std::string Name() const;
  // Name plus batch, usable as a cache key.
  std::string Key() const;

  bool operator==(const ModelSpec& other) const;
};

// Supported parameter sizes (billions) per family, ascending.
const std::vector<double>& SupportedSizes(ModelFamily family);

// Supported global batch sizes per family (Table 2).
const std::vector<int64_t>& SupportedBatches(ModelFamily family);

// All (family, size, batch) combinations of Table 2.
std::vector<ModelSpec> AllModelConfigs();

// Fraction of peak FLOPs the family's kernels achieve at large batch
// (convolutions run denser pipelines than attention, MoE loses to routing).
double ComputeEfficiency(ModelFamily family);

// Per-GPU-group sample count at which kernels reach half of their asymptotic
// efficiency; models the small-batch utilization droop that makes jobs
// "approach the performance ceiling" when scaled out (Fig. 4a).
double BatchHalfPoint(ModelFamily family);

// Builds the operator graph for `spec`. Aborts if spec.params_billion is not a
// supported size for the family.
OpGraph BuildOpGraph(const ModelSpec& spec);

// Cached variant of BuildOpGraph; the returned reference lives for the
// process lifetime. Thread-safe: the cache is process-wide and mutex-guarded,
// so oracles owned by different threads (one per seed in ext_robustness) can
// share it.
const OpGraph& GetOpGraph(const ModelSpec& spec);

// Individual builders (exposed for tests).
OpGraph BuildWideResNet(double params_billion);
OpGraph BuildBert(double params_billion);
OpGraph BuildMoe(double params_billion);

}  // namespace crius

#endif  // SRC_MODEL_MODELS_H_
