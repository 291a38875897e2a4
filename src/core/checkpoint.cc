#include "core/checkpoint.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

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

void SaveMatrix(Serializer& out, const linalg::Matrix& matrix) {
  out.WriteInt(matrix.rows());
  out.WriteInt(matrix.cols());
  out.WriteDoubleVec(matrix.data());
}

StatusOr<linalg::Matrix> LoadMatrix(Deserializer& in) {
  NETMAX_ASSIGN_OR_RETURN(const int rows, in.ReadInt());
  NETMAX_ASSIGN_OR_RETURN(const int cols, in.ReadInt());
  if (rows < 0 || cols < 0) {
    return InvalidArgumentError("checkpointed matrix has negative shape");
  }
  linalg::Matrix matrix(rows, cols);
  NETMAX_RETURN_IF_ERROR(in.ReadDoubleSpan(matrix.mutable_data()));
  return matrix;
}

void SaveEmaGrid(
    Serializer& out,
    const std::vector<std::vector<ExponentialMovingAverage>>& grid) {
  out.WriteU64(grid.size());
  for (const auto& row : grid) {
    out.WriteU64(row.size());
    for (const ExponentialMovingAverage& ema : row) {
      out.WriteDouble(ema.value());
      out.WriteI64(ema.count());
    }
  }
}

Status RestoreEmaGrid(
    Deserializer& in,
    std::vector<std::vector<ExponentialMovingAverage>>* grid) {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t rows, in.ReadU64());
  if (rows != grid->size()) {
    return InvalidArgumentError("checkpointed EMA grid row count mismatch");
  }
  for (auto& row : *grid) {
    NETMAX_ASSIGN_OR_RETURN(const uint64_t cols, in.ReadU64());
    if (cols != row.size()) {
      return InvalidArgumentError("checkpointed EMA grid column count "
                                  "mismatch");
    }
    for (ExponentialMovingAverage& ema : row) {
      NETMAX_ASSIGN_OR_RETURN(const double value, in.ReadDouble());
      NETMAX_ASSIGN_OR_RETURN(const int64_t count, in.ReadI64());
      if (count < 0) {
        return InvalidArgumentError("checkpointed EMA count is negative");
      }
      ema.RestoreState(value, count);
    }
  }
  return Status::Ok();
}

namespace {

void SaveSeries(Serializer& out, const ml::Series& series) {
  out.WriteU64(series.size());
  for (const ml::SeriesPoint& point : series) {
    out.WriteDouble(point.x);
    out.WriteDouble(point.y);
  }
}

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

Status LoadSeries(Deserializer& in, ml::Series* series) {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t size, in.ReadU64());
  if (size * 16 > in.remaining()) {
    return OutOfRangeError("checkpointed series is truncated");
  }
  series->clear();
  series->reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    ml::SeriesPoint point;
    NETMAX_ASSIGN_OR_RETURN(point.x, in.ReadDouble());
    NETMAX_ASSIGN_OR_RETURN(point.y, in.ReadDouble());
    series->push_back(point);
  }
  return Status::Ok();
}

}  // namespace

void ExperimentHarness::ArmCheckpoint(EngineStateSaver save_engine) {
  NETMAX_CHECK(initialized_) << "ArmCheckpoint before Init";
  checkpoint_saver_ = std::move(save_engine);
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
  checkpoint_status_ = SaveCheckpoint(checkpoint_saver_);
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

StatusOr<std::vector<uint8_t>> ExperimentHarness::SerializeCheckpoint(
    const EngineStateSaver& save_engine) {
  NETMAX_CHECK(save_engine != nullptr)
      << "checkpoint armed without an engine saver";
  // Quiesce: invalidate every speculated compute evaluation so all state
  // below is at its committed value. The simulator re-dispatches the
  // invalidated evaluations after this handler returns; compute halves are
  // pure, so the re-evaluations reproduce the same bits and the run
  // continues unperturbed.
  for (int w = 0; w < config_.num_workers; ++w) sim_.NotifyStateWrite(w);

  Serializer out;
  out.WriteU32(kCheckpointMagic);
  out.WriteU32(kCheckpointVersion);
  // Fingerprint, so a restore into a mismatched experiment fails loudly.
  out.WriteString(algorithm_name_);
  out.WriteInt(config_.num_workers);
  out.WriteU64(config_.seed);
  out.WriteInt(config_.max_epochs);
  out.WriteI64(workers_[0].model->num_parameters());
  // The cost profile drives every event time; restoring into a different
  // profile would silently graft this run's state onto another time scale.
  out.WriteString(config_.profile.name);
  out.WriteI64(config_.profile.num_parameters);
  out.WriteDouble(config_.profile.compute_seconds);
  // The compression spec shapes every transfer time and RNG draw after the
  // snapshot, so restoring under a different spec must fail like a profile
  // mismatch would (version 3).
  out.WriteString(ml::CompressionSpecName(config_.compress));

  out.WriteDouble(sim_.Now());
  out.WriteI64(sim_.next_sequence());
  out.WriteI64(sim_.num_events_processed());
  NETMAX_ASSIGN_OR_RETURN(std::vector<net::SimEvent> events,
                          sim_.SaveQueue());
  // Pending crash faults are dropped from the snapshot: the entire point of
  // restoring is to finish the run the crash cut short, so the restored run
  // must be the fault-free-suffix run — which is exactly the uninterrupted
  // run, because (a) before the crash time the two runs are bit-identical
  // (a pending crash event influences nothing until it fires) and (b)
  // RestoreQueue tolerates the sequence-number gap the dropped event leaves.
  std::erase_if(events, [](const net::SimEvent& event) {
    return event.payload.tag == kHarnessFaultTag &&
           !event.payload.args.empty() &&
           static_cast<int>(event.payload.args[0]) ==
               static_cast<int>(net::FaultKind::kCrash);
  });
  out.WriteU64(events.size());
  for (const net::SimEvent& event : events) {
    out.WriteDouble(event.time);
    out.WriteI64(event.sequence);
    out.WriteInt(event.worker_key);
    out.WriteI64(event.payload.tag);
    out.WriteDoubleVec(event.payload.args);
  }

  for (const WorkerRuntime& worker : workers_) SaveWorker(out, worker);

  SaveSeries(out, loss_vs_time_);
  SaveSeries(out, loss_vs_epoch_);
  SaveSeries(out, accuracy_vs_time_);
  out.WriteI64(total_epochs_completed_);
  out.WriteI64(policies_generated_);

  // Fault-injection state (version 2): the liveness view, active slowdown
  // factors, the degradation counters, and the cadence tick index.
  for (int w = 0; w < config_.num_workers; ++w) {
    out.WriteBool(alive_[static_cast<size_t>(w)]);
    out.WriteDouble(compute_factor_[static_cast<size_t>(w)]);
  }
  out.WriteI64(faults_injected_);
  out.WriteI64(rounds_degraded_);
  out.WriteI64(peers_timed_out_);
  // Wire accounting (version 3), alongside the fault counters: restored runs
  // must report the same totals as the uninterrupted run.
  out.WriteI64(messages_sent_);
  out.WriteI64(bytes_sent_);
  out.WriteI64(bytes_saved_);
  out.WriteI64(cadence_next_index_);

  NETMAX_RETURN_IF_ERROR(save_engine(out));
  out.WriteU32(kCheckpointEndMarker);
  return out.bytes();
}

Status ExperimentHarness::SaveCheckpoint(const EngineStateSaver& save_engine) {
  NETMAX_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                          SerializeCheckpoint(save_engine));
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
                          SerializeCheckpoint(checkpoint_saver_));
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

Status ExperimentHarness::Restore(const EngineStateRestorer& restore_engine) {
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
  NETMAX_ASSIGN_OR_RETURN(const std::string algorithm, in.ReadString());
  if (algorithm != algorithm_name_) {
    return FailedPreconditionError("checkpoint was written by \"" + algorithm +
                                   "\", restoring into \"" + algorithm_name_ +
                                   "\"");
  }
  NETMAX_ASSIGN_OR_RETURN(const int num_workers, in.ReadInt());
  if (num_workers != config_.num_workers) {
    return FailedPreconditionError(
        "checkpoint has " + std::to_string(num_workers) + " workers, config " +
        std::to_string(config_.num_workers));
  }
  NETMAX_ASSIGN_OR_RETURN(const uint64_t seed, in.ReadU64());
  if (seed != config_.seed) {
    return FailedPreconditionError("checkpoint seed mismatch");
  }
  NETMAX_ASSIGN_OR_RETURN(const int max_epochs, in.ReadInt());
  if (max_epochs != config_.max_epochs) {
    return FailedPreconditionError("checkpoint max_epochs mismatch");
  }
  NETMAX_ASSIGN_OR_RETURN(const int64_t num_parameters, in.ReadI64());
  if (num_parameters != workers_[0].model->num_parameters()) {
    return FailedPreconditionError("checkpoint model size mismatch");
  }
  NETMAX_ASSIGN_OR_RETURN(const std::string profile_name, in.ReadString());
  NETMAX_ASSIGN_OR_RETURN(const int64_t profile_params, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(const double profile_compute, in.ReadDouble());
  if (profile_name != config_.profile.name ||
      profile_params != config_.profile.num_parameters ||
      profile_compute != config_.profile.compute_seconds) {
    return FailedPreconditionError("checkpoint was written under the \"" +
                                   profile_name + "\" cost profile, config " +
                                   "uses \"" + config_.profile.name + "\"");
  }
  NETMAX_ASSIGN_OR_RETURN(const std::string compress_name, in.ReadString());
  if (compress_name != ml::CompressionSpecName(config_.compress)) {
    return FailedPreconditionError(
        "checkpoint was written with --compress=" + compress_name +
        ", config uses --compress=" +
        ml::CompressionSpecName(config_.compress));
  }

  NETMAX_ASSIGN_OR_RETURN(const double now, in.ReadDouble());
  NETMAX_ASSIGN_OR_RETURN(const int64_t next_sequence, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(const int64_t processed, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(const uint64_t event_count, in.ReadU64());
  if (event_count > in.remaining()) {  // every event takes > 1 byte
    return OutOfRangeError("checkpointed event queue is truncated");
  }
  // Grown as read, not reserved: a corrupted count must not allocate ahead
  // of the bytes that back it.
  std::vector<net::SimEvent> events;
  for (uint64_t i = 0; i < event_count; ++i) {
    net::SimEvent& event = events.emplace_back();
    NETMAX_ASSIGN_OR_RETURN(event.time, in.ReadDouble());
    NETMAX_ASSIGN_OR_RETURN(event.sequence, in.ReadI64());
    NETMAX_ASSIGN_OR_RETURN(event.worker_key, in.ReadInt());
    NETMAX_ASSIGN_OR_RETURN(event.payload.tag, in.ReadI64());
    NETMAX_RETURN_IF_ERROR(in.ReadDoubleVec(&event.payload.args));
  }
  // A restored cadence tick tells ArmCheckpoint not to arm a duplicate.
  cadence_tick_restored_ =
      std::any_of(events.begin(), events.end(), [](const net::SimEvent& event) {
        return event.payload.tag == kHarnessCadenceTag;
      });
  NETMAX_RETURN_IF_ERROR(
      sim_.RestoreQueue(now, next_sequence, processed, std::move(events)));

  for (auto& worker : workers_) {
    NETMAX_RETURN_IF_ERROR(RestoreWorker(in, worker));
  }

  NETMAX_RETURN_IF_ERROR(LoadSeries(in, &loss_vs_time_));
  NETMAX_RETURN_IF_ERROR(LoadSeries(in, &loss_vs_epoch_));
  NETMAX_RETURN_IF_ERROR(LoadSeries(in, &accuracy_vs_time_));
  NETMAX_ASSIGN_OR_RETURN(total_epochs_completed_, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(policies_generated_, in.ReadI64());

  for (int w = 0; w < config_.num_workers; ++w) {
    NETMAX_ASSIGN_OR_RETURN(const bool alive, in.ReadBool());
    alive_[static_cast<size_t>(w)] = alive;
    NETMAX_ASSIGN_OR_RETURN(compute_factor_[static_cast<size_t>(w)],
                            in.ReadDouble());
  }
  NETMAX_ASSIGN_OR_RETURN(faults_injected_, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(rounds_degraded_, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(peers_timed_out_, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(messages_sent_, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(bytes_sent_, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(bytes_saved_, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(cadence_next_index_, in.ReadI64());

  NETMAX_RETURN_IF_ERROR(restore_engine(in));
  NETMAX_ASSIGN_OR_RETURN(const uint32_t end_marker, in.ReadU32());
  if (end_marker != kCheckpointEndMarker) {
    return InvalidArgumentError("checkpoint end marker mismatch");
  }
  if (!in.AtEnd()) {
    return InvalidArgumentError("trailing bytes after checkpoint end marker");
  }
  return Status::Ok();
}

void ExperimentHarness::SaveWorker(Serializer& out,
                                   const WorkerRuntime& worker) const {
  for (const uint64_t word : worker.rng.SaveState()) out.WriteU64(word);
  out.WriteDoubleVec(worker.model->parameters());
  worker.optimizer->SaveState(out);
  worker.sampler->SaveState(out);
  worker.lr_schedule->SaveState(out);
  // The gradient scratch buffer IS part of the run's future: e.g. the
  // parameter-server upload event reads it after the commit that filled it,
  // and a checkpoint can land between the two. (Workspace is pure scratch
  // and batch_indices pairs with the gradient, both rewritten before any
  // read that follows a pending compute's re-evaluation.)
  out.WriteDoubleVec(worker.gradient);
  out.WriteIntVec(worker.batch_indices);
  out.WriteDouble(worker.epoch_loss_sum);
  out.WriteI64(worker.epoch_batches);
  out.WriteI64(worker.epochs_completed);
  out.WriteDouble(worker.latest_epoch_loss);
  out.WriteBool(worker.has_epoch_loss);
  out.WriteDouble(worker.compute_cost_total);
  out.WriteDouble(worker.comm_cost_total);
  out.WriteI64(worker.iterations);
  // The compressor schedule index (version 3): a restore must hand out the
  // same round numbers — and so the same layer-wise masks and payload
  // byte counts — the uninterrupted run would.
  out.WriteI64(worker.comm_rounds);
  out.WriteBool(worker.finished);
}

Status ExperimentHarness::RestoreWorker(Deserializer& in,
                                        WorkerRuntime& worker) {
  std::array<uint64_t, 5> rng_state;
  for (uint64_t& word : rng_state) {
    NETMAX_ASSIGN_OR_RETURN(word, in.ReadU64());
  }
  worker.rng.RestoreState(rng_state);
  NETMAX_RETURN_IF_ERROR(in.ReadDoubleSpan(worker.model->parameters()));
  NETMAX_RETURN_IF_ERROR(worker.optimizer->RestoreState(in));
  NETMAX_RETURN_IF_ERROR(worker.sampler->RestoreState(in));
  NETMAX_RETURN_IF_ERROR(worker.lr_schedule->RestoreState(in));
  NETMAX_RETURN_IF_ERROR(in.ReadDoubleSpan(worker.gradient));
  NETMAX_RETURN_IF_ERROR(in.ReadIntVec(&worker.batch_indices));
  // A pending compute half reads the shard at these indices.
  for (const int index : worker.batch_indices) {
    if (index < 0 || index >= worker.shard.size()) {
      return InvalidArgumentError(
          "checkpointed batch index " + std::to_string(index) +
          " is outside worker " + std::to_string(worker.id) + "'s shard of " +
          std::to_string(worker.shard.size()));
    }
  }
  NETMAX_ASSIGN_OR_RETURN(worker.epoch_loss_sum, in.ReadDouble());
  NETMAX_ASSIGN_OR_RETURN(worker.epoch_batches, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(worker.epochs_completed, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(worker.latest_epoch_loss, in.ReadDouble());
  NETMAX_ASSIGN_OR_RETURN(worker.has_epoch_loss, in.ReadBool());
  NETMAX_ASSIGN_OR_RETURN(worker.compute_cost_total, in.ReadDouble());
  NETMAX_ASSIGN_OR_RETURN(worker.comm_cost_total, in.ReadDouble());
  NETMAX_ASSIGN_OR_RETURN(worker.iterations, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(worker.comm_rounds, in.ReadI64());
  NETMAX_ASSIGN_OR_RETURN(worker.finished, in.ReadBool());
  return Status::Ok();
}

}  // namespace netmax::core
