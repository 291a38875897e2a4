#ifndef NETMAX_CORE_CHECKPOINT_H_
#define NETMAX_CORE_CHECKPOINT_H_

// Bit-exact checkpoint/restore for experiment runs.
//
// A checkpoint captures everything a run's future depends on: per-worker
// model parameters, optimizer velocity, RNG and sampler streams, the pending
// event queue (as descriptions — worker key plus net::EventPayload — that the
// simulator's one builder turns back into closures, net/event_sim.h), the
// simulator clock and sequence counter, the harness's recorded series, and an
// engine-specific state blob. Restoring the checkpoint and finishing the run
// produces a RunResult bit-identical to the uninterrupted run, under serial
// or speculative dispatch at any thread count.
//
// Two properties make that work:
//  * Committed state only: the checkpoint event runs on the simulator thread,
//    where everything but a worker's gradient scratch is at its committed
//    value. The scratch of a worker with a compute event pending is dead
//    until that compute rewrites it, and a speculated evaluation may have
//    written it ahead of its turn (net/event_sim.h), so such a worker saves
//    zeros in its place. The bytes are therefore the same under every
//    dispatch and thread count, and the save reads nothing a pool thread
//    writes, so speculation in flight is left to run on.
//  * Exact sequence restore: pending events are re-inserted with the saved
//    (time, sequence) identity, so every tie-break after the restore matches
//    the original run. The checkpoint event itself consumes one sequence
//    number, shifting all later sequences uniformly relative to a run that
//    never armed one — a strictly monotone shift that preserves every
//    relative ordering, which is why checkpointed and checkpoint-free runs
//    also match each other bit for bit.
//
// Every checkpointed type states its layout once, in a
// `Status TransferState(StateIo&)` (common/serialize.h) that both saves and
// restores it, so the two directions cannot drift apart. Only the header,
// the event queue and the end marker are direction-specific.
//
// The harness-side entry points (ArmCheckpoint / Restore / restore_requested)
// are declared on ExperimentHarness in core/experiment.h and implemented in
// core/checkpoint.cc; this header has the wire-format constants and the file
// helpers.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/event_sim.h"

namespace netmax::core {

// worker_key value marking a plain (callback) event description.
inline constexpr int kPlainEvent = net::kNoWorkerKey;

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
// reduce seconds in Prague's group events). Version 5 widened the config
// fingerprint to every field that changes a result bit.
inline constexpr uint32_t kCheckpointVersion = 5;

// Whole-file read/write. Write goes through a temp file + rename so a crash
// mid-write never leaves a truncated checkpoint at `path`.
Status WriteCheckpointFile(const std::string& path,
                           const std::vector<uint8_t>& bytes);
StatusOr<std::vector<uint8_t>> ReadCheckpointFile(const std::string& path);

}  // namespace netmax::core

#endif  // NETMAX_CORE_CHECKPOINT_H_
