#include "algos/saps_psgd.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/pull_engine.h"

namespace netmax::algos {

net::Topology BuildFastLinkSubgraph(const linalg::Matrix& cost) {
  const int n = cost.rows();
  NETMAX_CHECK_EQ(cost.rows(), cost.cols());
  net::Topology subgraph(n);
  if (n == 1) return subgraph;

  // Prim's MST on the measured cost.
  std::vector<bool> in_tree(static_cast<size_t>(n), false);
  std::vector<double> best_cost(static_cast<size_t>(n),
                                std::numeric_limits<double>::infinity());
  std::vector<int> best_edge(static_cast<size_t>(n), -1);
  in_tree[0] = true;
  for (int v = 1; v < n; ++v) {
    best_cost[static_cast<size_t>(v)] = cost(0, v);
    best_edge[static_cast<size_t>(v)] = 0;
  }
  for (int step = 1; step < n; ++step) {
    int pick = -1;
    for (int v = 0; v < n; ++v) {
      if (in_tree[static_cast<size_t>(v)]) continue;
      if (pick < 0 ||
          best_cost[static_cast<size_t>(v)] <
              best_cost[static_cast<size_t>(pick)]) {
        pick = v;
      }
    }
    NETMAX_CHECK_GE(pick, 0);
    in_tree[static_cast<size_t>(pick)] = true;
    subgraph.AddEdge(pick, best_edge[static_cast<size_t>(pick)]);
    for (int v = 0; v < n; ++v) {
      if (!in_tree[static_cast<size_t>(v)] &&
          cost(pick, v) < best_cost[static_cast<size_t>(v)]) {
        best_cost[static_cast<size_t>(v)] = cost(pick, v);
        best_edge[static_cast<size_t>(v)] = pick;
      }
    }
  }
  // Redundancy: add each node's cheapest non-tree edge — but only if it is
  // still a fast link (within a small factor of the node's cheapest existing
  // edge); SAPS keeps *initially high-speed* links only, so an expensive
  // redundant edge defeats the purpose.
  constexpr double kRedundancyCostFactor = 3.0;
  for (int v = 0; v < n; ++v) {
    double cheapest_existing = std::numeric_limits<double>::infinity();
    for (int u : subgraph.Neighbors(v)) {
      cheapest_existing = std::min(cheapest_existing, cost(v, u));
    }
    int best = -1;
    for (int u = 0; u < n; ++u) {
      if (u == v || subgraph.AreNeighbors(u, v)) continue;
      if (best < 0 || cost(v, u) < cost(v, best)) best = u;
    }
    if (best >= 0 &&
        cost(v, best) <= kRedundancyCostFactor * cheapest_existing) {
      subgraph.AddEdge(v, best);
    }
  }
  return subgraph;
}

namespace {

class SapsEngine : public core::PullEngine {
 public:
  explicit SapsEngine(const core::ExperimentConfig& config)
      : PullEngine(config, "SAPS-PSGD", /*step_before_mix=*/false) {}

 private:
  // One-shot link measurement at t = 0 (the paper's "initially high-speed
  // links"); the subgraph never changes afterwards, so a restored run
  // rebuilds it here and needs no engine blob.
  Status Setup() override {
    const int n = harness_.num_workers();
    linalg::Matrix cost(n, n, 0.0);
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a != b) cost(a, b) = harness_.PullSeconds(b, a);
      }
    }
    subgraph_ = std::make_unique<net::Topology>(BuildFastLinkSubgraph(cost));
    NETMAX_CHECK(subgraph_->IsConnected());
    return Status::Ok();
  }

  // Uniform over w's subgraph neighbors.
  int DrawPeer(int w) override {
    const auto& neighbors = subgraph_->Neighbors(w);
    return neighbors[static_cast<size_t>(harness_.worker(w).rng.UniformInt(
        0, static_cast<int64_t>(neighbors.size()) - 1))];
  }

  // One-sided averaging writes only the puller's parameters (m is read-only,
  // and compute halves only read their own worker's parameters, so m needs
  // no notify under any backend).
  void Mix(int w, int m, int64_t round) override {
    harness_.sim().NotifyStateWrite(w);
    auto x_i = harness_.worker(w).model->parameters();
    const auto x_m = harness_.worker(m).model->parameters();
    if (!harness_.compression_enabled()) {
      for (size_t j = 0; j < x_i.size(); ++j) {
        x_i[j] = 0.5 * (x_i[j] + x_m[j]);
      }
    } else {
      // The puller moves halfway along the decoded difference C(x_m - x_i).
      std::span<double> diff = harness_.CompressionScratch();
      for (size_t j = 0; j < x_i.size(); ++j) diff[j] = x_m[j] - x_i[j];
      harness_.ApplyCompression(w, round, diff);
      for (size_t j = 0; j < x_i.size(); ++j) x_i[j] += 0.5 * diff[j];
    }
  }

  std::unique_ptr<net::Topology> subgraph_;
};

}  // namespace

StatusOr<core::RunResult> SapsPsgdAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  SapsEngine engine(config);
  return engine.Run();
}

}  // namespace netmax::algos
