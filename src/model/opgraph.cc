#include "src/model/opgraph.h"

#include "src/util/check.h"

namespace crius {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kEmbedding:
      return "embedding";
    case OpKind::kAttention:
      return "attention";
    case OpKind::kMlp:
      return "mlp";
    case OpKind::kMoeLayer:
      return "moe";
    case OpKind::kConvBlock:
      return "conv_block";
    case OpKind::kHead:
      return "head";
  }
  return "?";
}

void OpGraph::Add(Operator op) {
  CRIUS_CHECK(!finalized_);
  op.id = static_cast<int>(ops_.size());
  CRIUS_CHECK(op.fwd_flops_per_sample >= 0.0);
  CRIUS_CHECK(op.param_bytes >= 0.0);
  CRIUS_CHECK(op.act_bytes_per_sample >= 0.0);
  if (op.act_mem_bytes_per_sample < op.act_bytes_per_sample) {
    op.act_mem_bytes_per_sample = op.act_bytes_per_sample;
  }
  ops_.push_back(std::move(op));
}

void OpGraph::Finalize() {
  CRIUS_CHECK(!finalized_);
  CRIUS_CHECK_MSG(!ops_.empty(), "OpGraph needs at least one operator");
  const size_t n = ops_.size();
  for (std::vector<double>* prefix : {&flops_prefix_, &param_prefix_, &act_prefix_,
                                      &act_mem_prefix_, &tp_prefix_, &a2a_prefix_}) {
    prefix->assign(n + 1, 0.0);
  }
  for (size_t i = 0; i < n; ++i) {
    flops_prefix_[i + 1] = flops_prefix_[i] + ops_[i].fwd_flops_per_sample;
    param_prefix_[i + 1] = param_prefix_[i] + ops_[i].param_bytes;
    act_prefix_[i + 1] = act_prefix_[i] + ops_[i].act_bytes_per_sample;
    act_mem_prefix_[i + 1] = act_mem_prefix_[i] + ops_[i].act_mem_bytes_per_sample;
    tp_prefix_[i + 1] = tp_prefix_[i] + ops_[i].tp_comm_bytes_per_sample;
    a2a_prefix_[i + 1] = a2a_prefix_[i] + ops_[i].a2a_bytes_per_sample;
  }
  finalized_ = true;
}

const Operator& OpGraph::op(size_t i) const {
  CRIUS_CHECK(i < ops_.size());
  return ops_[i];
}

namespace {

double RangeSum(const std::vector<double>& prefix, size_t begin, size_t end) {
  CRIUS_CHECK(begin <= end);
  CRIUS_CHECK(end < prefix.size());
  return prefix[end] - prefix[begin];
}

}  // namespace

double OpGraph::FwdFlops(size_t begin, size_t end) const {
  CRIUS_CHECK(finalized_);
  return RangeSum(flops_prefix_, begin, end);
}

double OpGraph::ParamBytes(size_t begin, size_t end) const {
  CRIUS_CHECK(finalized_);
  return RangeSum(param_prefix_, begin, end);
}

double OpGraph::ActBytes(size_t begin, size_t end) const {
  CRIUS_CHECK(finalized_);
  return RangeSum(act_prefix_, begin, end);
}

double OpGraph::ActMemBytes(size_t begin, size_t end) const {
  CRIUS_CHECK(finalized_);
  return RangeSum(act_mem_prefix_, begin, end);
}

double OpGraph::TpCommBytes(size_t begin, size_t end) const {
  CRIUS_CHECK(finalized_);
  return RangeSum(tp_prefix_, begin, end);
}

double OpGraph::A2aBytes(size_t begin, size_t end) const {
  CRIUS_CHECK(finalized_);
  return RangeSum(a2a_prefix_, begin, end);
}

double OpGraph::BoundaryBytes(size_t i) const {
  CRIUS_CHECK(finalized_);
  CRIUS_CHECK(i >= 1 && i < ops_.size());
  return ops_[i - 1].act_bytes_per_sample;
}

}  // namespace crius
