// OpGraph: a linear operator graph with O(1) range aggregates.
//
// Stage determination (§4.2) and the performance model repeatedly need sums of
// FLOPs / bytes over contiguous operator ranges [begin, end); the graph keeps
// prefix sums for all of them.

#ifndef SRC_MODEL_OPGRAPH_H_
#define SRC_MODEL_OPGRAPH_H_

#include <vector>

#include "src/model/op.h"

namespace crius {

class OpGraph {
 public:
  OpGraph() = default;

  // Appends an operator; its id is assigned sequentially.
  void Add(Operator op);

  // Builds the prefix sums. Must be called once after the last Add and before
  // any query. Requires at least one operator.
  void Finalize();

  bool finalized() const { return finalized_; }
  size_t size() const { return ops_.size(); }
  const Operator& op(size_t i) const;
  const std::vector<Operator>& ops() const { return ops_; }

  // Range aggregates over ops [begin, end). Require finalized().
  double FwdFlops(size_t begin, size_t end) const;
  double ParamBytes(size_t begin, size_t end) const;
  double ActBytes(size_t begin, size_t end) const;
  double ActMemBytes(size_t begin, size_t end) const;
  double TpCommBytes(size_t begin, size_t end) const;
  double A2aBytes(size_t begin, size_t end) const;

  // Whole-model aggregates.
  double TotalFwdFlops() const { return FwdFlops(0, size()); }
  double TotalParamBytes() const { return ParamBytes(0, size()); }

  // Activation bytes crossing the boundary placed before op `i` (i.e. the
  // output of op i-1). Requires 1 <= i < size().
  double BoundaryBytes(size_t i) const;

 private:
  std::vector<Operator> ops_;
  // Prefix sums, all length size()+1 once Finalize has run.
  std::vector<double> flops_prefix_;
  std::vector<double> param_prefix_;
  std::vector<double> act_prefix_;
  std::vector<double> act_mem_prefix_;
  std::vector<double> tp_prefix_;
  std::vector<double> a2a_prefix_;
  bool finalized_ = false;
};

}  // namespace crius

#endif  // SRC_MODEL_OPGRAPH_H_
