#include "algos/param_server.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"

namespace netmax::algos {
namespace {

// Local (same machine/region) worker <-> PS link for the co-located worker 0.
const net::LinkClass kPsLocalLink{/*latency_seconds=*/0.010,
                                  /*bandwidth_bytes_per_second=*/2.0e9};

// Shared PS state: the global model, its optimizer, and the serialized NIC.
class PsState {
 public:
  // `use_momentum` is false for the asynchronous server: interleaved pushes
  // from M workers through one shared velocity amplify every gradient ~M-fold
  // and diverge, so async parameter servers apply plain SGD steps (the
  // classic Hogwild-style update); the synchronous server sees one sequential
  // stream of averaged gradients and keeps momentum.
  PsState(core::ExperimentHarness& harness, bool use_momentum)
      : harness_(&harness) {
    const core::ExperimentConfig& config = harness.config();
    model_ = std::make_unique<ml::Mlp>(*harness.worker(0).model);
    ml::SgdOptions options;
    options.learning_rate = config.learning_rate;
    options.momentum = use_momentum ? config.momentum : 0.0;
    options.weight_decay = config.weight_decay;
    optimizer_ = std::make_unique<ml::SgdOptimizer>(model_->num_parameters(),
                                                    options);
  }

  // Transfer seconds for `bytes` between worker w and the PS at time `now`
  // (either direction; the paper's links are symmetric).
  double LinkSeconds(int w, double now, int64_t bytes) const {
    if (w == 0) return kPsLocalLink.TransferSeconds(bytes);
    return harness_->links().TransferSeconds(0, w, now, bytes);
  }

  // Reserves the PS NIC from max(now, free) for `duration`; returns the
  // transfer's completion time.
  double ReserveNic(double now, double duration) {
    const double start = std::max(now, nic_free_);
    nic_free_ = start + duration;
    return nic_free_;
  }

  ml::Mlp& model() { return *model_; }
  ml::SgdOptimizer& optimizer() { return *optimizer_; }

  void SaveState(Serializer& out) const {
    out.WriteDoubleVec(model_->parameters());
    optimizer_->SaveState(out);
    out.WriteDouble(nic_free_);
  }

  Status RestoreState(Deserializer& in) {
    NETMAX_RETURN_IF_ERROR(in.ReadDoubleSpan(model_->parameters()));
    NETMAX_RETURN_IF_ERROR(optimizer_->RestoreState(in));
    NETMAX_ASSIGN_OR_RETURN(nic_free_, in.ReadDouble());
    return Status::Ok();
  }

 private:
  core::ExperimentHarness* harness_ = nullptr;
  std::unique_ptr<ml::Mlp> model_;
  std::unique_ptr<ml::SgdOptimizer> optimizer_;
  double nic_free_ = 0.0;
};

// Bulk-synchronous rounds on the round loop: the last member's commit
// exchanges with the PS.
class PsSyncEngine : public core::RoundEngine {
 public:
  explicit PsSyncEngine(const core::ExperimentConfig& config)
      : RoundEngine(config, "PS-syn") {}

 private:
  Status Setup() override {
    ps_ = std::make_unique<PsState>(harness_, /*use_momentum=*/true);
    return Status::Ok();
  }

  double Reduce() override {
    const std::vector<int>& group = members();
    const int g = static_cast<int>(group.size());
    const double t0 = harness_.sim().Now();
    // One communication round per PS exchange: every member's upload and
    // download leg carries the same encoding. With compression off the
    // payload equals the dense baseline and bytes_saved stays zero.
    const int64_t round = harness_.NextCommRound(group.front());
    const int64_t payload_bytes = harness_.MessagePayloadBytes(round);
    harness_.AccountWire(2 * g, 2 * g * payload_bytes,
                         2 * g * config().profile.message_bytes());

    // Uploads, serialized at the PS NIC (central congestion).
    double clock = t0;
    for (int w : group) {
      const double ready = t0 + harness_.EffectiveComputeSeconds(w);
      const double start = std::max(ready, clock);
      clock = start + ps_->LinkSeconds(w, start, payload_bytes);
    }

    // The PS applies the averaged gradient once; each member uploaded C(g_w).
    const std::vector<double> mean = MeanGradient(true, round);
    ps_->optimizer().set_learning_rate(
        harness_.worker(0).optimizer->learning_rate());
    ps_->optimizer().Step(ps_->model().parameters(), mean);

    // Downloads, serialized again; the round ends when the last member holds
    // the fresh model (dead or dropped workers keep their stale replicas
    // until they rejoin a round). Nothing is pending, but the download
    // writes every replica, so AdoptModel notifies per the contract.
    for (int w : group) clock += ps_->LinkSeconds(w, clock, payload_bytes);
    const auto fresh = ps_->model().parameters();
    for (int w : group) {
      harness_.AdoptModel(w, fresh, round);
      harness_.AccountIteration(w, harness_.EffectiveComputeSeconds(w),
                                clock - t0);
    }
    return clock;
  }

  void SaveState(Serializer& out) const override {
    RoundEngine::SaveState(out);
    ps_->SaveState(out);
  }
  Status RestoreState(Deserializer& in) override {
    NETMAX_RETURN_IF_ERROR(RoundEngine::RestoreState(in));
    return ps_->RestoreState(in);
  }

  std::unique_ptr<PsState> ps_;
};

class PsAsyncEngine : public core::Engine {
 public:
  explicit PsAsyncEngine(const core::ExperimentConfig& config)
      : Engine(config, "PS-asyn") {}

 private:
  // Event tags: each tag and its args describe one event (core/engine.h).
  // An in-flight PS round trip checkpoints as its pending upload/download
  // events: the NIC reservations already happened at commit time and live in
  // PsState's nic_free_, and the worker's gradient rides in the worker
  // snapshot, so the pending events only need (w, t0, compute, round) to
  // replay exactly.
  enum Tag : int64_t {
    kCompute = 0,   // compute event: args [t0, compute_seconds]
    kUpload = 1,    // plain event: args [worker, round]
    kDownload = 2,  // plain event: args [worker, t0, compute_seconds, round]
  };

  Status Setup() override {
    ps_ = std::make_unique<PsState>(harness_, /*use_momentum=*/false);
    return Status::Ok();
  }

  // The PS itself never dies (faults target workers). A worker that dies
  // mid round trip finishes it — its NIC reservations already happened — and
  // parks at the download's StartIteration.
  void StartIteration(int w) override {
    if (ParkIfDone(w)) return;
    const double compute = harness_.EffectiveComputeSeconds(w);
    // Gradient at the worker's (possibly stale) parameters: the pure compute
    // half; the NIC reservation and PS interaction commit in event order.
    harness_.SampleBatch(w);
    Emit(compute, w, {kCompute, {harness_.sim().Now(), compute}});
  }

  Status BuildEvent(net::SimEvent& event) override {
    const std::vector<double>& args = event.payload.args;
    switch (event.payload.tag) {
      case kCompute: {
        if (!IsComputeEvent(event, 2)) break;
        const int w = event.worker_key;
        const double t0 = args[0];
        const double compute = args[1];
        return GradientEvent(event, [this, w, t0, compute](double loss) {
          harness_.CommitBatchStats(w, loss);
          SendRoundTrip(w, t0, compute);
        });
      }
      case kUpload: {
        if (!IsPlainEvent(event, 2)) break;
        const int w = static_cast<int>(args[0]);
        const int64_t round = static_cast<int64_t>(args[1]);
        if (!IsWorker(w)) break;
        return PlainEvent(event, [this, w, round] {
          // Async SGD: apply this worker's gradient immediately. The PS
          // received C(g_w); the decode happens in place (the buffer is
          // rewritten by w's next compute anyway).
          harness_.ApplyCompression(w, round, harness_.worker(w).gradient);
          ps_->optimizer().set_learning_rate(
              harness_.worker(w).optimizer->learning_rate());
          ps_->optimizer().Step(ps_->model().parameters(),
                                harness_.worker(w).gradient);
        });
      }
      case kDownload: {
        if (!IsPlainEvent(event, 4)) break;
        const int w = static_cast<int>(args[0]);
        if (!IsWorker(w)) break;
        const double t0 = args[1];
        const double compute = args[2];
        const int64_t round = static_cast<int64_t>(args[3]);
        return PlainEvent(event, [this, w, t0, compute, round] {
          // The download overwrites w's replica. OTHER workers' in-flight
          // evaluations never read w's parameters, so notifying w alone (in
          // AdoptModel) satisfies the write contract under every backend.
          harness_.AdoptModel(w, ps_->model().parameters(), round);
          harness_.AccountIteration(w, compute, harness_.sim().Now() - t0);
          StartIteration(w);
        });
      }
      default:
        break;
    }
    return Malformed(event);
  }

  // Upload, then download, both serialized on the PS NIC; the worker blocks
  // for the round trip (async only across workers). One communication round
  // per round trip, claimed here so the reservations price its payload.
  void SendRoundTrip(int w, double t0, double compute) {
    const double now = harness_.sim().Now();
    const int64_t round = harness_.NextCommRound(w);
    const int64_t payload_bytes = harness_.MessagePayloadBytes(round);
    harness_.AccountWire(2, 2 * payload_bytes,
                         2 * config().profile.message_bytes());
    const double upload_done =
        ps_->ReserveNic(now, ps_->LinkSeconds(w, now, payload_bytes));
    const double download_done = ps_->ReserveNic(
        upload_done, ps_->LinkSeconds(w, upload_done, payload_bytes));
    EmitAt(upload_done, core::kPlainEvent,
           {kUpload, {static_cast<double>(w), static_cast<double>(round)}});
    EmitAt(download_done, core::kPlainEvent,
           {kDownload,
            {static_cast<double>(w), t0, compute,
             static_cast<double>(round)}});
  }

  void SaveState(Serializer& out) const override { ps_->SaveState(out); }
  Status RestoreState(Deserializer& in) override {
    return ps_->RestoreState(in);
  }

  std::unique_ptr<PsState> ps_;
};

}  // namespace

StatusOr<core::RunResult> PsSyncAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  PsSyncEngine engine(config);
  return engine.Run();
}

StatusOr<core::RunResult> PsAsyncAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  PsAsyncEngine engine(config);
  return engine.Run();
}

}  // namespace netmax::algos
