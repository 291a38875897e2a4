#include "core/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <utility>

#include "common/serialize.h"
#include "core/experiment.h"
#include "ml/metrics.h"

namespace netmax::core {

Status WriteCheckpointFile(const std::string& path,
                           const std::vector<uint8_t>& bytes) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return InvalidArgumentError("cannot open \"" + tmp_path +
                                  "\" for writing");
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      return InternalError("short write to \"" + tmp_path + "\"");
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return InternalError("cannot rename \"" + tmp_path + "\" to \"" + path +
                         "\"");
  }
  return Status::Ok();
}

StatusOr<std::vector<uint8_t>> ReadCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return NotFoundError("cannot open checkpoint file \"" + path + "\"");
  }
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return InternalError("short read from checkpoint file \"" + path + "\"");
  }
  return bytes;
}

namespace {

// A worker index from a checkpointed event's args: an integral value in
// [0, num_workers). Checked on the double, before any narrowing cast.
StatusOr<int> WorkerArg(double value, int num_workers, const char* what) {
  if (!(value >= 0.0 && value < num_workers && value == std::floor(value))) {
    return InvalidArgumentError(std::string(what) + " names worker " +
                                std::to_string(value) + ", outside [0, " +
                                std::to_string(num_workers) + ")");
  }
  return static_cast<int>(value);
}

// A slowdown factor from a checkpointed event's args: finite and > 0.
Status CheckFactor(double factor, const char* what) {
  if (!std::isfinite(factor) || factor <= 0.0) {
    return InvalidArgumentError(std::string(what) +
                                " has a non-finite or non-positive factor");
  }
  return Status::Ok();
}

// A recorded series: its length, then each point's (x, y).
Status TransferSeries(StateIo& io, ml::Series& series) {
  uint64_t size = series.size();
  NETMAX_RETURN_IF_ERROR(io.Count(size, 16));
  series.resize(size);
  for (ml::SeriesPoint& point : series) {
    NETMAX_RETURN_IF_ERROR(io(point.x, point.y));
  }
  return Status::Ok();
}

// A pending event's description: the fields SaveQueue snapshots and
// RestoreQueue rebuilds from.
Status TransferEvent(StateIo& io, net::SimEvent& event) {
  return io(event.time, event.sequence, event.worker_key, event.payload.tag,
            event.payload.args);
}

// Each event takes at least 40 bytes: its time, sequence, worker key, tag
// and args length.
constexpr uint64_t kMinEventBytes = 40;

}  // namespace

void ExperimentHarness::ArmCheckpoint(EngineStateIo engine_state) {
  NETMAX_CHECK(initialized_) << "ArmCheckpoint before Init";
  engine_state_ = std::move(engine_state);
  const double at = config_.checkpoint_at_seconds;
  if (at > 0.0 && at > sim_.Now()) {
    net::EventPayload payload;
    payload.tag = kHarnessCheckpointTag;
    payload.args = {at};
    sim_.Schedule(at, kPlainEvent, std::move(payload));
  }
  // Periodic cadence: arm the next tick — unless this is a restored run
  // whose queue already carries one (a one-shot checkpoint saved while a
  // tick was pending). A run restored FROM a cadence tick has no pending
  // tick — the tick popped itself before saving — so re-arming here consumes
  // the exact sequence number the uninterrupted run's tick handler consumed
  // when it scheduled its successor, keeping the two runs bit-identical.
  const double every = config_.checkpoint_every_seconds;
  if (every > 0.0 && !cadence_tick_restored_) {
    net::EventPayload payload;
    payload.tag = kHarnessCadenceTag;
    payload.args = {static_cast<double>(cadence_next_index_)};
    sim_.Schedule(sim_.Now() + every, kPlainEvent, std::move(payload));
  }
}

void ExperimentHarness::OneShotCheckpoint(double at) {
  if (sim_.empty()) {
    // Nothing left to run: the checkpoint time lies beyond the run's last
    // event, so popping this event has dragged the virtual clock past the
    // run's true end, and a checkpoint here could only restore into an
    // already-finished run. Fail the run loudly rather than write a dead
    // checkpoint and distort total_virtual_seconds.
    checkpoint_status_ = FailedPreconditionError(
        "checkpoint_at_seconds=" + std::to_string(at) +
        " is past the end of the run");
    return;
  }
  checkpoint_status_ = SaveCheckpoint();
}

void ExperimentHarness::CadenceTick(int64_t tick_index) {
  cadence_next_index_ = tick_index + 1;
  // A tick past the run's last event ends the cadence silently — unlike the
  // one-shot, the cadence is a standing service, not a user-requested
  // snapshot of a specific moment. (The pop already advanced the clock to
  // the tick time; runs with a cadence own that as part of their config.)
  if (sim_.empty()) return;
  const Status status = SavePeriodicCheckpoint(tick_index);
  if (!status.ok()) {
    checkpoint_status_ = status;
    return;  // stop the cadence: later ticks would likely fail the same way
  }
  // Chain the next tick AFTER the save, so no cadence event is ever pending
  // inside its own snapshot.
  net::EventPayload payload;
  payload.tag = kHarnessCadenceTag;
  payload.args = {static_cast<double>(cadence_next_index_)};
  sim_.Schedule(sim_.Now() + config_.checkpoint_every_seconds, kPlainEvent,
                std::move(payload));
}

Status ExperimentHarness::BuildHarnessEvent(net::SimEvent& event) {
  const std::vector<double>& args = event.payload.args;
  switch (event.payload.tag) {
    case kHarnessFaultTag: {
      if (args.size() != 4) {
        return InvalidArgumentError("harness fault event needs 4 args");
      }
      if (!(args[0] >= 0.0 &&
            args[0] <= static_cast<double>(net::FaultKind::kSlowdown) &&
            args[0] == std::floor(args[0]))) {
        return InvalidArgumentError("harness fault event has an unknown kind");
      }
      net::FaultEvent fault;
      fault.time = event.time;
      fault.kind = static_cast<net::FaultKind>(static_cast<int>(args[0]));
      // A crash names no worker (-1); every other kind indexes per-worker
      // state when it fires.
      if (fault.kind != net::FaultKind::kCrash) {
        NETMAX_ASSIGN_OR_RETURN(
            fault.worker,
            WorkerArg(args[1], config_.num_workers, "harness fault event"));
      }
      fault.factor = args[2];
      fault.duration = args[3];
      // Only a slowdown reads its factor and duration.
      if (fault.kind == net::FaultKind::kSlowdown) {
        NETMAX_RETURN_IF_ERROR(
            CheckFactor(fault.factor, "harness slowdown fault event"));
        if (!std::isfinite(fault.duration) || fault.duration < 0.0) {
          return InvalidArgumentError("harness slowdown fault event has a "
                                      "non-finite or negative duration");
        }
      }
      event.plain = [this, fault] { ApplyFault(fault); };
      return Status::Ok();
    }
    case kHarnessSlowdownEndTag: {
      if (args.size() != 2) {
        return InvalidArgumentError("harness slowdown-end event needs 2 args");
      }
      NETMAX_ASSIGN_OR_RETURN(
          const int worker,
          WorkerArg(args[0], config_.num_workers,
                    "harness slowdown-end event"));
      const double factor = args[1];
      NETMAX_RETURN_IF_ERROR(
          CheckFactor(factor, "harness slowdown-end event"));
      event.plain = [this, worker, factor] { EndSlowdown(worker, factor); };
      return Status::Ok();
    }
    case kHarnessCadenceTag: {
      if (args.size() != 1) {
        return InvalidArgumentError("harness cadence event needs 1 arg");
      }
      const int64_t tick_index = static_cast<int64_t>(args[0]);
      event.plain = [this, tick_index] { CadenceTick(tick_index); };
      return Status::Ok();
    }
    case kHarnessCheckpointTag: {
      if (args.size() != 1) {
        return InvalidArgumentError("harness checkpoint event needs 1 arg");
      }
      const double at = args[0];
      event.plain = [this, at] { OneShotCheckpoint(at); };
      return Status::Ok();
    }
    default:
      return InvalidArgumentError("unknown harness event tag " +
                                  std::to_string(event.payload.tag));
  }
}

StatusOr<std::vector<uint8_t>> ExperimentHarness::SerializeCheckpoint() {
  NETMAX_CHECK(engine_state_ != nullptr)
      << "checkpoint armed without the engine's state";
  Serializer out;
  out.WriteU32(kCheckpointMagic);
  out.WriteU32(kCheckpointVersion);
  StateIo io(out);
  NETMAX_RETURN_IF_ERROR(TransferCheckpoint(io, engine_state_));
  out.WriteU32(kCheckpointEndMarker);
  return out.bytes();
}

Status ExperimentHarness::SaveCheckpoint() {
  NETMAX_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                          SerializeCheckpoint());
  if (config_.checkpoint_sink != nullptr) {
    *config_.checkpoint_sink = bytes;
  }
  if (!config_.checkpoint_path.empty()) {
    NETMAX_RETURN_IF_ERROR(WriteCheckpointFile(config_.checkpoint_path,
                                               bytes));
  }
  return Status::Ok();
}

Status ExperimentHarness::SavePeriodicCheckpoint(int64_t tick_index) {
  NETMAX_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                          SerializeCheckpoint());
  // The sink always holds the newest periodic snapshot (in-memory restores,
  // tests); the path gets the newest bytes at `<path>` — what --restore-path
  // naturally points at after a crash — plus a rotating `<path>.t<k>`
  // history trimmed to config_.checkpoint_retain files.
  if (config_.checkpoint_sink != nullptr) {
    *config_.checkpoint_sink = bytes;
  }
  if (!config_.checkpoint_path.empty()) {
    NETMAX_RETURN_IF_ERROR(
        WriteCheckpointFile(config_.checkpoint_path, bytes));
    NETMAX_RETURN_IF_ERROR(WriteCheckpointFile(
        config_.checkpoint_path + ".t" + std::to_string(tick_index), bytes));
    const int64_t expired = tick_index - config_.checkpoint_retain;
    if (expired >= 1) {
      // Best-effort: a missing history file (e.g. after a restore that
      // skipped ticks) is not an error.
      std::remove(
          (config_.checkpoint_path + ".t" + std::to_string(expired)).c_str());
    }
  }
  return Status::Ok();
}

Status ExperimentHarness::Restore(const EngineStateIo& engine_state) {
  NETMAX_CHECK(initialized_) << "Restore before Init";
  NETMAX_CHECK(sim_.empty()) << "Restore after events were scheduled";
  std::vector<uint8_t> file_bytes;
  std::span<const uint8_t> bytes;
  if (config_.restore_source != nullptr) {
    bytes = *config_.restore_source;
  } else if (!config_.restore_path.empty()) {
    NETMAX_ASSIGN_OR_RETURN(file_bytes,
                            ReadCheckpointFile(config_.restore_path));
    bytes = file_bytes;
  } else {
    return FailedPreconditionError(
        "Restore called without a configured restore source");
  }
  Deserializer in(bytes);

  NETMAX_ASSIGN_OR_RETURN(const uint32_t magic, in.ReadU32());
  if (magic != kCheckpointMagic) {
    return InvalidArgumentError("not a NetMax checkpoint (bad magic)");
  }
  NETMAX_ASSIGN_OR_RETURN(const uint32_t version, in.ReadU32());
  if (version != kCheckpointVersion) {
    return InvalidArgumentError("unsupported checkpoint version " +
                                std::to_string(version));
  }
  StateIo io(in);
  NETMAX_RETURN_IF_ERROR(TransferCheckpoint(io, engine_state));
  NETMAX_ASSIGN_OR_RETURN(const uint32_t end_marker, in.ReadU32());
  if (end_marker != kCheckpointEndMarker) {
    return InvalidArgumentError("checkpoint end marker mismatch");
  }
  if (!in.AtEnd()) {
    return InvalidArgumentError("trailing bytes after checkpoint end marker");
  }
  return Status::Ok();
}

Status ExperimentHarness::TransferCheckpoint(
    StateIo& io, const EngineStateIo& engine_state) {
  NETMAX_RETURN_IF_ERROR(TransferFingerprint(io));
  std::vector<uint8_t> computing(workers_.size(), 0);
  NETMAX_RETURN_IF_ERROR(TransferQueue(io, computing));
  for (WorkerRuntime& worker : workers_) {
    NETMAX_RETURN_IF_ERROR(TransferWorker(
        io, worker, computing[static_cast<size_t>(worker.id)] != 0));
  }
  NETMAX_RETURN_IF_ERROR(TransferSeries(io, loss_vs_time_));
  NETMAX_RETURN_IF_ERROR(TransferSeries(io, loss_vs_epoch_));
  NETMAX_RETURN_IF_ERROR(TransferSeries(io, accuracy_vs_time_));
  NETMAX_RETURN_IF_ERROR(io(total_epochs_completed_, policies_generated_));
  // Fault-injection state (version 2): the liveness view, active slowdown
  // factors, the degradation counters, and the cadence tick index.
  for (size_t w = 0; w < alive_.size(); ++w) {
    bool alive = alive_[w];  // std::vector<bool> hands out no bool&
    NETMAX_RETURN_IF_ERROR(io(alive, compute_factor_[w]));
    alive_[w] = alive;
  }
  NETMAX_RETURN_IF_ERROR(io(faults_injected_, rounds_degraded_,
                            peers_timed_out_));
  // Wire accounting (version 3), alongside the fault counters: restored runs
  // must report the same totals as the uninterrupted run.
  NETMAX_RETURN_IF_ERROR(io(messages_sent_, bytes_sent_, bytes_saved_,
                            cadence_next_index_));
  return engine_state(io);
}

// One fingerprint entry: the config field named `field`, by its own name.
#define NETMAX_SAME(field) NETMAX_RETURN_IF_ERROR(io.Same(#field, field))

Status ExperimentHarness::TransferFingerprint(StateIo& io) {
  // So a restore into a different experiment fails loudly, naming the field:
  // the fingerprint covers every config field that changes a result bit.
  // Every ExperimentConfig member is bound here by position, so a new member
  // fails to compile until it is listed below as covered or excluded.
  [[maybe_unused]] const auto& [dataset, partition, segments, lost_labels,
                                hidden_layers, profile, num_workers, network,
                                two_server_placement, slowdown_period_seconds,
                                topology, batch_size, learning_rate, momentum,
                                weight_decay, lr_milestones, max_epochs,
                                max_virtual_seconds, monitor_period_seconds,
                                generator, eval_every_epochs, seed, threads,
                                shards, backend, event_queue, faults,
                                peer_policy, peer_timeout_seconds,
                                peer_poll_seconds, compress,
                                checkpoint_at_seconds, checkpoint_every_seconds,
                                checkpoint_retain, checkpoint_path,
                                checkpoint_sink, restore_path, restore_source] =
      config_;
  // Not covered, each for its reason:
  //  * threads, shards, backend, event_queue: execution choices, under which
  //    every result bit is the same (the determinism grid);
  //  * checkpoint_at_seconds, checkpoint_every_seconds, checkpoint_retain,
  //    checkpoint_path, checkpoint_sink, restore_path, restore_source: where
  //    and when checkpoint bytes are written and read;
  //  * generator.alpha: overwritten from learning_rate, which is covered;
  //  * faults: the restored queue carries the pending faults, and a run
  //    restored after a crash finishes under the crash-free schedule by
  //    design (the crash event is dropped from the saved queue).
  NETMAX_RETURN_IF_ERROR(io.Same("algorithm", algorithm_name_));
  NETMAX_SAME(dataset.name);
  NETMAX_SAME(dataset.num_classes);
  NETMAX_SAME(dataset.feature_dim);
  NETMAX_SAME(dataset.num_train);
  NETMAX_SAME(dataset.num_test);
  NETMAX_SAME(dataset.class_separation);
  NETMAX_SAME(dataset.noise_stddev);
  NETMAX_SAME(dataset.seed);
  NETMAX_SAME(partition);
  NETMAX_SAME(segments);
  NETMAX_SAME(lost_labels);
  NETMAX_SAME(hidden_layers);
  // The cost profile drives every event time.
  NETMAX_SAME(profile.name);
  NETMAX_SAME(profile.num_parameters);
  NETMAX_SAME(profile.compute_seconds);
  NETMAX_SAME(num_workers);
  NETMAX_SAME(network);
  NETMAX_SAME(two_server_placement);
  NETMAX_SAME(slowdown_period_seconds);
  NETMAX_SAME(topology.shape);
  NETMAX_SAME(topology.cluster_size);
  NETMAX_SAME(batch_size);
  NETMAX_SAME(learning_rate);
  NETMAX_SAME(momentum);
  NETMAX_SAME(weight_decay);
  NETMAX_SAME(lr_milestones);
  NETMAX_SAME(max_epochs);
  NETMAX_SAME(max_virtual_seconds);
  NETMAX_SAME(monitor_period_seconds);
  NETMAX_SAME(generator.outer_rounds);
  NETMAX_SAME(generator.inner_rounds);
  NETMAX_SAME(generator.mode);
  NETMAX_SAME(eval_every_epochs);
  NETMAX_SAME(seed);
  NETMAX_SAME(peer_policy);
  NETMAX_SAME(peer_timeout_seconds);
  NETMAX_SAME(peer_poll_seconds);
  // The compression spec shapes every transfer time and RNG draw after the
  // snapshot.
  const std::string compress_name = ml::CompressionSpecName(compress);
  NETMAX_RETURN_IF_ERROR(io.Same("compress", compress_name));
  // Derived from the fields above, so it differs only across builds whose
  // model layout differs.
  return io.Same("model parameters",
                 int64_t{workers_[0].model->num_parameters()});
}

#undef NETMAX_SAME

Status ExperimentHarness::TransferQueue(StateIo& io,
                                        std::vector<uint8_t>& computing) {
  double now = sim_.Now();
  int64_t next_sequence = sim_.next_sequence();
  int64_t processed = sim_.num_events_processed();
  std::vector<net::SimEvent> events;
  if (!io.restoring()) {
    NETMAX_ASSIGN_OR_RETURN(events, sim_.SaveQueue());
    // Pending crash faults are dropped from the snapshot: the entire point
    // of restoring is to finish the run the crash cut short, so the restored
    // run must be the fault-free-suffix run — which is exactly the
    // uninterrupted run, because (a) before the crash time the two runs are
    // bit-identical (a pending crash event influences nothing until it
    // fires) and (b) RestoreQueue tolerates the sequence-number gap the
    // dropped event leaves.
    std::erase_if(events, [](const net::SimEvent& event) {
      return event.payload.tag == kHarnessFaultTag &&
             !event.payload.args.empty() &&
             static_cast<int>(event.payload.args[0]) ==
                 static_cast<int>(net::FaultKind::kCrash);
    });
    for (const net::SimEvent& event : events) {
      if (event.worker_key != kPlainEvent) {
        computing[static_cast<size_t>(event.worker_key)] = 1;
      }
    }
  }
  uint64_t count = events.size();
  NETMAX_RETURN_IF_ERROR(io(now, next_sequence, processed));
  NETMAX_RETURN_IF_ERROR(io.Count(count, kMinEventBytes));
  events.resize(count);
  for (net::SimEvent& event : events) {
    NETMAX_RETURN_IF_ERROR(TransferEvent(io, event));
  }
  if (!io.restoring()) return Status::Ok();
  // A restored cadence tick tells ArmCheckpoint not to arm a duplicate.
  cadence_tick_restored_ =
      std::any_of(events.begin(), events.end(), [](const net::SimEvent& event) {
        return event.payload.tag == kHarnessCadenceTag;
      });
  return sim_.RestoreQueue(now, next_sequence, processed, std::move(events));
}

Status ExperimentHarness::TransferWorker(StateIo& io, WorkerRuntime& worker,
                                         bool computing) {
  // The gradient scratch buffer IS part of the run's future: e.g. the
  // parameter-server upload event reads it after the commit that filled it,
  // and a checkpoint can land between the two. Not so while the worker has
  // a compute pending: that compute rewrites the buffer before anything
  // reads it, and a speculated evaluation may already have written it ahead
  // of its turn (net/event_sim.h). Such a worker saves zeros and leaves the
  // buffer unread, so the bytes do not depend on the dispatch and the save
  // reads nothing a pool thread writes. (Workspace is pure scratch.)
  std::vector<double> zeros;
  std::span<double> gradient = worker.gradient;
  if (computing && !io.restoring()) {
    zeros.assign(gradient.size(), 0.0);
    gradient = zeros;
  }
  NETMAX_RETURN_IF_ERROR(io(worker.rng, worker.model->parameters(),
                            *worker.optimizer, *worker.sampler,
                            *worker.lr_schedule, gradient,
                            worker.batch_indices));
  // A pending compute half reads the shard at these indices.
  for (const int index : worker.batch_indices) {
    if (io.restoring() && (index < 0 || index >= worker.shard.size())) {
      return InvalidArgumentError(
          "checkpointed batch index " + std::to_string(index) +
          " is outside worker " + std::to_string(worker.id) + "'s shard of " +
          std::to_string(worker.shard.size()));
    }
  }
  // The compressor schedule index comm_rounds (version 3): a restore must
  // hand out the same round numbers — and so the same layer-wise masks and
  // payload byte counts — the uninterrupted run would.
  return io(worker.epoch_loss_sum, worker.epoch_batches,
            worker.epochs_completed, worker.latest_epoch_loss,
            worker.has_epoch_loss, worker.compute_cost_total,
            worker.comm_cost_total, worker.iterations, worker.comm_rounds,
            worker.finished);
}

}  // namespace netmax::core
