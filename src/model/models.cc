#include "src/model/models.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>

#include "src/util/check.h"

namespace crius {

const char* FamilyName(ModelFamily family) {
  switch (family) {
    case ModelFamily::kWideResNet:
      return "WRes";
    case ModelFamily::kBert:
      return "BERT";
    case ModelFamily::kMoe:
      return "MoE";
  }
  return "?";
}

std::optional<ModelFamily> ParseModelFamily(const std::string& name) {
  for (ModelFamily f : {ModelFamily::kWideResNet, ModelFamily::kBert, ModelFamily::kMoe}) {
    if (name == FamilyName(f)) {
      return f;
    }
  }
  return std::nullopt;
}

std::string ModelSpec::Name() const {
  char buf[64];
  // Sizes like 0.76 print with two decimals, whole-ish sizes with one.
  const double frac = params_billion - std::floor(params_billion);
  if (params_billion >= 10.0) {
    std::snprintf(buf, sizeof(buf), "%s-%.0fB", FamilyName(family), params_billion);
  } else if (frac > 1e-9 && std::abs(frac * 100.0 - std::round(frac * 100.0)) < 1e-6 &&
             std::abs(frac * 10.0 - std::round(frac * 10.0)) > 1e-6) {
    std::snprintf(buf, sizeof(buf), "%s-%.2fB", FamilyName(family), params_billion);
  } else {
    std::snprintf(buf, sizeof(buf), "%s-%.1fB", FamilyName(family), params_billion);
  }
  return buf;
}

std::string ModelSpec::Key() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/b%lld", Name().c_str(),
                static_cast<long long>(global_batch));
  return buf;
}

bool ModelSpec::operator==(const ModelSpec& other) const {
  return family == other.family && params_billion == other.params_billion &&
         global_batch == other.global_batch;
}

const std::vector<double>& SupportedSizes(ModelFamily family) {
  static const std::vector<double> kWres = {0.5, 1.0, 2.0, 4.0, 6.8};
  static const std::vector<double> kBert = {0.76, 1.3, 2.6, 6.7};
  static const std::vector<double> kMoe = {0.69, 1.3, 2.4, 10.0, 27.0};
  switch (family) {
    case ModelFamily::kWideResNet:
      return kWres;
    case ModelFamily::kBert:
      return kBert;
    case ModelFamily::kMoe:
      return kMoe;
  }
  CRIUS_UNREACHABLE("bad family");
}

const std::vector<int64_t>& SupportedBatches(ModelFamily family) {
  static const std::vector<int64_t> kWres = {256, 512, 1024};
  static const std::vector<int64_t> kBert = {128, 256, 512};
  static const std::vector<int64_t> kMoe = {256, 512, 1024};
  switch (family) {
    case ModelFamily::kWideResNet:
      return kWres;
    case ModelFamily::kBert:
      return kBert;
    case ModelFamily::kMoe:
      return kMoe;
  }
  CRIUS_UNREACHABLE("bad family");
}

std::vector<ModelSpec> AllModelConfigs() {
  std::vector<ModelSpec> out;
  for (ModelFamily family : {ModelFamily::kWideResNet, ModelFamily::kBert, ModelFamily::kMoe}) {
    for (double size : SupportedSizes(family)) {
      for (int64_t batch : SupportedBatches(family)) {
        out.push_back(ModelSpec{family, size, batch});
      }
    }
  }
  return out;
}

double ComputeEfficiency(ModelFamily family) {
  switch (family) {
    case ModelFamily::kWideResNet:
      return 0.42;
    case ModelFamily::kBert:
      return 0.52;
    case ModelFamily::kMoe:
      return 0.44;
  }
  CRIUS_UNREACHABLE("bad family");
}

double BatchHalfPoint(ModelFamily family) {
  switch (family) {
    case ModelFamily::kWideResNet:
      return 3.0;
    case ModelFamily::kBert:
      return 1.5;
    case ModelFamily::kMoe:
      return 2.0;
  }
  CRIUS_UNREACHABLE("bad family");
}

OpGraph BuildOpGraph(const ModelSpec& spec) {
  switch (spec.family) {
    case ModelFamily::kWideResNet:
      return BuildWideResNet(spec.params_billion);
    case ModelFamily::kBert:
      return BuildBert(spec.params_billion);
    case ModelFamily::kMoe:
      return BuildMoe(spec.params_billion);
  }
  CRIUS_UNREACHABLE("bad family");
}

const OpGraph& GetOpGraph(const ModelSpec& spec) {
  // Keyed by family+size only: the graph does not depend on the batch.
  // Mutex-guarded so oracles on different threads can share the cache; builds
  // are pure, so holding the lock across the (rare) build keeps each graph
  // constructed exactly once. std::map nodes are stable, so returned
  // references outlive later inserts.
  static std::mutex mu;
  static std::map<std::pair<int, double>, OpGraph> cache;
  const auto key = std::make_pair(static_cast<int>(spec.family), spec.params_billion);
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, BuildOpGraph(spec)).first;
  }
  return it->second;
}

}  // namespace crius
