#ifndef NETMAX_ML_COMPRESSION_H_
#define NETMAX_ML_COMPRESSION_H_

// Gradient/delta compression for the communication-efficiency experiments:
// deterministic top-k sparsification, int8 stochastic quantization, and
// layer-wise partial sync (L-FGADMM-style alternating-layer schedule). Every
// variant is a pure function of (values, round, rng stream position), so the
// simulation stays bit-identical across the whole
// {backend, threads, shards, event queue} grid — engines call Transform only
// from commit contexts, exactly like every other RNG draw.
//
// The compressor is stateless; the only evolving state is the per-worker
// communication-round counter (core::WorkerRuntime::comm_rounds), which rides
// in reified event args and checkpoints so restores replay the same layer
// schedule.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/wire_format.h"

namespace netmax::ml {

enum class CompressionKind {
  kNone = 0,
  kTopK = 1,      // keep the largest-|v| fraction, ties to the lower index
  kInt8 = 2,      // per-block scales + stochastic rounding to int8
  kLayerwise = 3, // sync layer l in round r iff l % period == r % period
};

struct CompressionSpec {
  CompressionKind kind = CompressionKind::kNone;
  double topk_fraction = 0.1;  // kTopK: fraction of values kept, in (0, 1]
  int layerwise_period = 2;    // kLayerwise: layer schedule period, >= 1

  bool enabled() const { return kind != CompressionKind::kNone; }
  Status Validate() const;
};

// Parses "none" | "topk:<frac>" | "int8" | "layerwise:<period>" (the
// --compress grammar). kInvalidArgument on anything else.
StatusOr<CompressionSpec> ParseCompressionSpec(std::string_view text);

// The canonical spelling of `spec` in the same grammar ("topk:0.1"); also the
// string pinned into checkpoint fingerprints.
std::string CompressionSpecName(const CompressionSpec& spec);

// Applies one compression variant to model-sized delta/gradient vectors and
// describes the wire message each send produces. `layer_segments` are the
// contiguous parameter segment sizes of the trained proxy model
// (ml::Mlp::LayerSegments()); the layer-wise schedule masks those segments,
// and the simulated profile's bytes are scaled by the proxy's active
// fraction (the profile models a network whose layer geometry we don't
// simulate parameter-by-parameter).
class GradientCompressor {
 public:
  // A default-constructed compressor is the identity ("none" over an empty
  // model); harnesses build the real one once the proxy model exists.
  GradientCompressor() = default;
  GradientCompressor(const CompressionSpec& spec,
                     std::vector<int64_t> layer_segments);

  const CompressionSpec& spec() const { return spec_; }

  // The wire message a model-sized send in communication round `round`
  // produces, for a simulated tensor of `profile_values` values. Content-free
  // (byte counts depend only on the spec, the round, and the sizes), so byte
  // accounting needs no payload materialization.
  net::WireMessage Describe(int64_t profile_values, int64_t round) const;

  // In-place lossy transform of `values`: what the receiver decodes from
  // round `round`'s encoding. Top-k zeroes the dropped entries and rounds the
  // kept ones through f32; int8 quantizes per 256-value block with stochastic
  // rounding drawn from `rng` (one draw per value in every nonzero block);
  // layerwise zeroes the round's inactive layers; none is the identity.
  // Commit contexts only — `rng` is the committing worker's stream.
  void Transform(std::span<double> values, int64_t round, Rng& rng) const;

  // Proxy values the layer-wise schedule keeps in round `round` (all of them
  // for the other variants).
  int64_t ActiveValues(int64_t round) const;

 private:
  CompressionSpec spec_;
  std::vector<int64_t> segments_;
  int64_t total_segment_values_ = 0;
  // Selection scratch for top-k; commits are strictly serial per run, so one
  // buffer per compressor (== per harness) is safe and keeps the steady
  // state allocation-free.
  mutable std::vector<int32_t> order_scratch_;
};

}  // namespace netmax::ml

#endif  // NETMAX_ML_COMPRESSION_H_
