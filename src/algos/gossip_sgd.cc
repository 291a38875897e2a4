#include "algos/gossip_sgd.h"

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.h"

namespace netmax::algos {
namespace {

class GossipEngine : public core::Engine {
 public:
  explicit GossipEngine(const core::ExperimentConfig& config)
      : Engine(config, "GoSGD") {}

 private:
  // Event tags: each tag and its args describe one event (core/engine.h).
  enum Tag : int64_t {
    kIterate = 0,  // compute event: args [compute_seconds]
    kArrival = 1,  // plain event: args [receiver, round, sender snapshot...]
  };

  Status Setup() override {
    push_busy_until_.assign(static_cast<size_t>(harness_.num_workers()), 0.0);
    return Status::Ok();
  }

  void StartIteration(int w) override {
    if (ParkIfDone(w)) return;
    const double compute = harness_.EffectiveComputeSeconds(w);
    harness_.SampleBatch(w);
    Emit(compute, w, {kIterate, {compute}});
  }

  Status BuildEvent(net::SimEvent& event) override {
    const std::vector<double>& args = event.payload.args;
    switch (event.payload.tag) {
      case kIterate: {
        if (!IsComputeEvent(event, 1)) break;
        const int w = event.worker_key;
        const double compute = args[0];
        return GradientEvent(event, [this, w, compute](double loss) {
          harness_.CommitBatchStats(w, loss);
          harness_.ApplyStoredGradient(w);
          MaybePush(w);
          // The push does not block the training loop: wall time is compute
          // only.
          harness_.AccountIteration(w, compute, compute);
          StartIteration(w);
        });
      }
      case kArrival: {
        const size_t num_params = harness_.worker(0).gradient.size();
        if (!IsPlainEvent(event, 2 + num_params)) break;
        const int m = static_cast<int>(args[0]);
        const int64_t round = static_cast<int64_t>(args[1]);
        if (!IsWorker(m)) break;
        return PlainEvent(event, [this, m, round,
                                  snapshot = std::vector<double>(
                                      args.begin() + 2, args.end())] {
          Arrive(m, round, snapshot);
        });
      }
      default:
        break;
    }
    return Malformed(event);
  }

  void MaybePush(int w) {
    const double now = harness_.sim().Now();
    if (now < push_busy_until_[static_cast<size_t>(w)]) return;  // NIC busy
    core::WorkerRuntime& worker = harness_.worker(w);
    const auto& neighbors = harness_.topology().Neighbors(w);
    const int m = neighbors[static_cast<size_t>(worker.rng.UniformInt(
        0, static_cast<int64_t>(neighbors.size()) - 1))];
    if (!harness_.WorkerAlive(m)) {
      // Push-gossip never blocks: a dead target just means no push this
      // iteration (the NIC stays free for the next draw).
      harness_.CountDegradedRound();
      return;
    }
    const int64_t round = harness_.NextCommRound(w);
    const double transfer = harness_.SendSeconds(w, m, round);  // w -> m push
    push_busy_until_[static_cast<size_t>(w)] = now + transfer;
    // Snapshot the sender's parameters at push time; the snapshot rides in
    // the event payload so an in-flight push checkpoints/restores losslessly.
    const auto p = worker.model->parameters();
    std::vector<double> args;
    args.reserve(2 + p.size());
    args.push_back(static_cast<double>(m));
    args.push_back(static_cast<double>(round));
    args.insert(args.end(), p.begin(), p.end());
    Emit(transfer, core::kPlainEvent, {kArrival, std::move(args)});
  }

  // A push lands: the receiver m averages the sender's snapshot in.
  void Arrive(int m, int64_t round, std::span<const double> snapshot) {
    if (!harness_.WorkerAlive(m)) {
      // The receiver died while the push was in flight: drop it.
      harness_.CountDegradedRound();
      return;
    }
    // Arrival writes the receiver's parameters — invalidate whatever the
    // backend ran ahead for m (an in-flight evaluation is waited out first).
    harness_.sim().NotifyStateWrite(m);
    auto x_m = harness_.worker(m).model->parameters();
    if (!harness_.compression_enabled()) {
      for (size_t j = 0; j < x_m.size(); ++j) {
        x_m[j] = 0.5 * (x_m[j] + snapshot[j]);
      }
    } else {
      // The push carried C(snapshot - x_m^push); decode against the
      // receiver's current parameters (arrivals are ordered, so this is the
      // deterministic gossip analogue of the exact average). Int8's
      // stochastic rounding draws from the receiver's stream — the worker
      // whose state this plain event commits.
      std::span<double> diff = harness_.CompressionScratch();
      for (size_t j = 0; j < x_m.size(); ++j) diff[j] = snapshot[j] - x_m[j];
      harness_.ApplyCompression(m, round, diff);
      for (size_t j = 0; j < x_m.size(); ++j) x_m[j] += 0.5 * diff[j];
    }
  }

  void SaveState(Serializer& out) const override {
    out.WriteDoubleVec(push_busy_until_);
  }
  Status RestoreState(Deserializer& in) override {
    return in.ReadDoubleSpan(push_busy_until_);
  }

  std::vector<double> push_busy_until_;
};

}  // namespace

StatusOr<core::RunResult> GossipSgdAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  GossipEngine engine(config);
  return engine.Run();
}

}  // namespace netmax::algos
