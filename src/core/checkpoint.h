#ifndef NETMAX_CORE_CHECKPOINT_H_
#define NETMAX_CORE_CHECKPOINT_H_

// Bit-exact checkpoint/restore for experiment runs.
//
// A checkpoint captures everything a run's future depends on: per-worker
// model parameters, optimizer velocity, RNG and sampler streams, the pending
// event queue (as tagged, reified descriptions — see net::EventPayload), the
// simulator clock and sequence counter, the harness's recorded series, and an
// engine-specific state blob. Restoring the checkpoint and finishing the run
// produces a RunResult bit-identical to the uninterrupted run, under serial
// or speculative dispatch at any thread count.
//
// Two properties make that work:
//  * Quiesce-before-save: the checkpoint event runs on the simulator thread
//    and first invalidates every speculated compute evaluation
//    (NotifyStateWrite per worker), so all serialized state is at its
//    committed value; invalidated evaluations re-run afterwards and
//    reproduce the same bits because compute halves are pure.
//  * Exact sequence restore: pending events are re-inserted with the saved
//    (time, sequence) identity, so every tie-break after the restore matches
//    the original run. The checkpoint event itself consumes one sequence
//    number, shifting all later sequences uniformly relative to a run that
//    never armed one — a strictly monotone shift that preserves every
//    relative ordering, which is why checkpointed and checkpoint-free runs
//    also match each other bit for bit.
//
// The harness-side entry points (ArmCheckpoint / Restore / restore_requested)
// are declared on ExperimentHarness in core/experiment.h and implemented in
// core/checkpoint.cc; this header has the wire-format constants, the file
// helpers, and the scheduling/serialization helpers engines use.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "net/event_sim.h"

namespace netmax::core {

// worker_key value marking a plain (callback) event in reified scheduling.
inline constexpr int kPlainEvent = -1;

// "NMCP" / "NMCE": header magic and end marker of the checkpoint format.
inline constexpr uint32_t kCheckpointMagic = 0x4E4D4350;
inline constexpr uint32_t kCheckpointEndMarker = 0x4E4D4345;
// Version 2 added the fault-injection state (liveness flags, slowdown
// factors, fault counters) and the periodic-cadence tick index. Version 3
// added the wire-accounting counters (messages/bytes sent, bytes saved), the
// per-worker communication-round index, and the compression spec in the
// config fingerprint. Version 4 moved the engines onto shared loops
// (core/engine.h, core/pull_engine.h): new event tags, the parked-chain flags
// saved once by the skeleton ahead of every engine blob, and leaner blobs
// (no policy for monitor-less engines, no duplicate policy counter, no
// reduce seconds in Prague's group events).
inline constexpr uint32_t kCheckpointVersion = 4;

// Whole-file read/write. Write goes through a temp file + rename so a crash
// mid-write never leaves a truncated checkpoint at `path`.
Status WriteCheckpointFile(const std::string& path,
                           const std::vector<uint8_t>& bytes);
StatusOr<std::vector<uint8_t>> ReadCheckpointFile(const std::string& path);

// Matrix round trip (policy matrices, EMA grids).
void SaveMatrix(Serializer& out, const linalg::Matrix& matrix);
StatusOr<linalg::Matrix> LoadMatrix(Deserializer& in);

// Per-link iteration-time EMA grid round trip (the monitor's
// UPDATETIMEVECTOR state in the NetMax and AD-PSGD+Monitor engines). Restore
// requires `grid` to be pre-sized to the saved shape — the engine builds it
// from the config before restoring — and keeps each cell's beta.
void SaveEmaGrid(Serializer& out,
                 const std::vector<std::vector<ExponentialMovingAverage>>& grid);
Status RestoreEmaGrid(Deserializer& in,
                      std::vector<std::vector<ExponentialMovingAverage>>* grid);

// Schedules the event described by (worker_key, payload) at virtual time
// `time` (>= Now()) by running the description through `builder` — the same
// mapping Restore uses — so each engine defines every event closure exactly
// once and live scheduling cannot drift from the restore path. The payload
// is moved into the description, built, and moved on into the queue, never
// copied; builders' closures capture by value, so they outlive that move.
// Relative scheduling passes sim.Now() + delay, the same double the
// simulator's own *After overloads compute. `builder` rejecting an engine's
// own payload is a programmer error and aborts.
inline void ScheduleReified(net::EventSimulator& sim, double time,
                            int worker_key, net::EventPayload payload,
                            const net::EventRebuilder& builder) {
  net::SavedEvent saved;
  saved.time = time;
  saved.worker_key = worker_key;
  saved.payload = std::move(payload);
  StatusOr<net::RebuiltEvent> rebuilt = builder(saved);
  NETMAX_CHECK_OK(rebuilt.status());
  if (worker_key < 0) {
    sim.ScheduleAt(time, std::move(saved.payload), std::move(rebuilt->plain));
  } else {
    sim.ScheduleCompute(time, worker_key, std::move(saved.payload),
                        std::move(rebuilt->compute),
                        std::move(rebuilt->commit));
  }
}

}  // namespace netmax::core

#endif  // NETMAX_CORE_CHECKPOINT_H_
