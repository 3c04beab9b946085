#include "gnn/aggregator.h"

#include "common/check.h"

namespace ripple {

const char* aggregator_name(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::sum: return "sum";
    case AggregatorKind::mean: return "mean";
    case AggregatorKind::weighted_sum: return "weighted_sum";
    case AggregatorKind::max: return "max";
    case AggregatorKind::min: return "min";
  }
  return "?";
}

AggregatorKind aggregator_from_name(const std::string& name) {
  if (name == "sum") return AggregatorKind::sum;
  if (name == "mean") return AggregatorKind::mean;
  if (name == "weighted_sum") return AggregatorKind::weighted_sum;
  if (name == "max") return AggregatorKind::max;
  if (name == "min") return AggregatorKind::min;
  RIPPLE_CHECK_MSG(false, "unknown aggregator '" << name << '\'');
  throw check_error("unreachable");
}

bool is_linear(AggregatorKind kind) {
  return kind == AggregatorKind::sum || kind == AggregatorKind::mean ||
         kind == AggregatorKind::weighted_sum;
}

void aggregate_neighbors(AggregatorKind kind,
                         std::span<const Neighbor> in_nbrs,
                         const Matrix& h_prev, std::span<float> out) {
  RIPPLE_CHECK(h_prev.cols() == out.size());
  aggregate_neighbors_resolved(kind, in_nbrs, rows_of(h_prev), out);
}

}  // namespace ripple
