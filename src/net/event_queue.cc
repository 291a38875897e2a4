#include "net/event_queue.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace netmax::net {
namespace {

constexpr size_t kInitialBuckets = 16;  // always a power of two

}  // namespace

// Correctness notes:
//  * Window membership is decided by VirtualBucket(time) == vb, never by a
//    separately recomputed time bound, so floating-point rounding at bucket
//    boundaries cannot disagree with where Push placed the key.
//  * VirtualBucket is monotone in time and equal times map to equal virtual
//    buckets, so cross-bucket order follows the window scan and ties stay
//    inside one bucket, where the (time, sequence) key order breaks them.

EventQueue::EventQueue() { buckets_.resize(kInitialBuckets); }

void EventQueue::Push(SimEvent&& event) {
  uint32_t slot = slab_size_;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if ((slab_size_ >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<SimEvent[]>(size_t{1} << kChunkBits));
    }
    ++slab_size_;
  }
  const Key key{event.time, event.sequence, slot};
  Slot(slot) = std::move(event);
  const int64_t vb = VirtualBucket(key.time);
  if (size_ == 0 || vb < current_virtual_bucket_) {
    current_virtual_bucket_ = vb;
  }
  InsertKey(key);
  ++size_;
  if (size_ > 2 * static_cast<int64_t>(buckets_.size())) {
    Recalibrate(2 * buckets_.size());
  }
}

SimEvent EventQueue::PopNext() {
  NETMAX_CHECK_GT(size_, 0);
  Bucket& bucket = buckets_[NextBucket()];
  const uint32_t slot = bucket.keys[bucket.head].slot;
  if (++bucket.head == bucket.keys.size()) {
    bucket.keys.clear();
    bucket.head = 0;
  }
  --size_;
  free_slots_.push_back(slot);
  SimEvent event = std::move(Slot(slot));
  return event;
}

double EventQueue::NextTime() {
  NETMAX_CHECK_GT(size_, 0);
  const Bucket& bucket = buckets_[NextBucket()];
  return bucket.keys[bucket.head].time;
}

void EventQueue::Clear() {
  for (Bucket& bucket : buckets_) {
    for (size_t i = bucket.head; i < bucket.keys.size(); ++i) {
      Slot(bucket.keys[i].slot) = SimEvent{};
      free_slots_.push_back(bucket.keys[i].slot);
    }
    bucket.keys.clear();
    bucket.head = 0;
  }
  size_ = 0;
}

void EventQueue::VisitInOrder(int64_t max_visit, const Visitor& visit) const {
  if (size_ == 0 || max_visit <= 0) return;
  // Epoch-stamped per-bucket cursors make the non-destructive scan cheap:
  // no O(buckets) reset per call, and no allocation once the cursor arrays
  // match the bucket count.
  ++scan_epoch_;
  if (cursor_.size() != buckets_.size()) {
    cursor_.assign(buckets_.size(), 0);
    cursor_epoch_.assign(buckets_.size(), 0);
  }
  int64_t visited = 0;
  int64_t remaining = size_;
  int64_t vb = current_virtual_bucket_;
  size_t fruitless = 0;
  while (visited < max_visit && remaining > 0) {
    const size_t index = BucketIndex(vb);
    const std::vector<Key>& keys = buckets_[index].keys;
    size_t& cursor = Cursor(index);
    if (cursor < keys.size() && VirtualBucket(keys[cursor].time) <= vb) {
      const SimEvent& event = Slot(keys[cursor].slot);
      ++cursor;
      --remaining;
      ++visited;
      fruitless = 0;
      if (visit(event) == VisitAction::kStop) return;
      continue;
    }
    ++vb;
    if (++fruitless > buckets_.size()) {
      // Stale width, as in NextBucket's fruitless year — but the scan is
      // const, so jump to the earliest unvisited key directly.
      const Key* best = nullptr;
      for (size_t i = 0; i < buckets_.size(); ++i) {
        const size_t next = Cursor(i);
        if (next == buckets_[i].keys.size()) continue;
        const Key& candidate = buckets_[i].keys[next];
        if (best == nullptr || candidate < *best) best = &candidate;
      }
      if (best == nullptr) return;
      vb = VirtualBucket(best->time);
      fruitless = 0;
    }
  }
}

size_t EventQueue::BucketIndex(int64_t vb) const {
  // Power-of-two bucket counts make `& (n-1)` a correct modulo for negative
  // virtual buckets too.
  return static_cast<size_t>(vb & (static_cast<int64_t>(buckets_.size()) - 1));
}

int64_t EventQueue::VirtualBucket(double time) const {
  // Clamped so the cast is always defined; everything beyond the clamp
  // collapses into one far-future (or far-past) virtual bucket, where the
  // (time, sequence) key order still sorts it exactly.
  constexpr double kClamp = 4.0e15;
  const double vb = std::floor(time / width_);
  if (vb >= kClamp) return static_cast<int64_t>(kClamp);
  if (vb <= -kClamp) return -static_cast<int64_t>(kClamp);
  return static_cast<int64_t>(vb);
}

void EventQueue::InsertKey(const Key& key) {
  Bucket& bucket = buckets_[BucketIndex(VirtualBucket(key.time))];
  std::vector<Key>& keys = bucket.keys;
  if (bucket.head > 0 && keys.size() == keys.capacity()) {
    keys.erase(keys.begin(),
               keys.begin() + static_cast<ptrdiff_t>(bucket.head));
    bucket.head = 0;
  }
  if (bucket.empty() || keys.back() < key) {
    keys.push_back(key);
    return;
  }
  const auto position = std::upper_bound(
      keys.begin() + static_cast<ptrdiff_t>(bucket.head), keys.end(), key);
  keys.insert(position, key);
}

size_t EventQueue::NextBucket() {
  for (int attempt = 0; attempt < 2; ++attempt) {
    int64_t vb = current_virtual_bucket_;
    for (size_t lap = 0; lap <= buckets_.size(); ++lap, ++vb) {
      const size_t index = BucketIndex(vb);
      const Bucket& bucket = buckets_[index];
      if (!bucket.empty() &&
          VirtualBucket(bucket.keys[bucket.head].time) <= vb) {
        current_virtual_bucket_ = vb;
        return index;
      }
    }
    // A fruitless year: every pending event sits far beyond the current
    // window, so the width is stale. Recalibrate; the minimum then lands in
    // the first window of the rescan.
    Recalibrate(buckets_.size());
  }
  NETMAX_CHECK(false) << "calendar queue lost track of its events";
  return 0;
}

size_t& EventQueue::Cursor(size_t index) const {
  if (cursor_epoch_[index] != scan_epoch_) {
    cursor_epoch_[index] = scan_epoch_;
    cursor_[index] = buckets_[index].head;
  }
  return cursor_[index];
}

// Re-derives the bucket width from the live keys and redistributes them into
// `bucket_count` buckets. The width targets about two distinct pending times
// per bucket window: counting distinct times rather than events keeps a tie
// cluster from hiding the real spacing. Deterministic: its inputs are the
// pending keys only. Keys move; events do not.
void EventQueue::Recalibrate(size_t bucket_count) {
  scratch_.clear();
  for (Bucket& bucket : buckets_) {
    scratch_.insert(scratch_.end(),
                    bucket.keys.begin() + static_cast<ptrdiff_t>(bucket.head),
                    bucket.keys.end());
    bucket.keys.clear();
    bucket.head = 0;
  }
  if (buckets_.size() < bucket_count) buckets_.resize(bucket_count);
  if (scratch_.empty()) return;
  std::sort(scratch_.begin(), scratch_.end());
  int64_t distinct = 1;
  for (size_t i = 1; i < scratch_.size(); ++i) {
    if (scratch_[i].time != scratch_[i - 1].time) ++distinct;
  }
  const double t_min = scratch_.front().time;
  const double t_max = scratch_.back().time;
  const double span = t_max - t_min;
  double width =
      span > 0.0 ? 2.0 * span / static_cast<double>(distinct) : width_;
  // Floors keep VirtualBucket well inside the clamp for the live times and
  // away from degenerate zero width.
  width = std::max({width, std::abs(t_max) / 4.0e15, std::abs(t_min) / 4.0e15,
                    1e-9});
  width_ = width;
  current_virtual_bucket_ = VirtualBucket(t_min);
  // Ascending order makes every redistributed key its bucket's latest.
  for (const Key& key : scratch_) {
    buckets_[BucketIndex(VirtualBucket(key.time))].keys.push_back(key);
  }
}

std::unique_ptr<EventQueue> MakeEventQueue(EventQueueKind /*kind*/) {
  return std::make_unique<EventQueue>();
}

}  // namespace netmax::net
