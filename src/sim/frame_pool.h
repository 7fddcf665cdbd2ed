// Recycled coroutine frames for SubTask<T>.
//
// Protocol sub-procedures are short-lived coroutines: an agreement cycle,
// a clock update or an operand read each allocates a frame, runs a few
// steps and frees it again, roughly once every five simulated steps.  A
// FramePool keeps those frames on per-size free lists so the steady state
// makes no heap calls at all.
//
// Ownership.  Each Simulator owns one pool and makes it the thread's
// RUNNING pool for the duration of run() (Scope below).  A frame allocated
// while a pool is running comes from that pool; a frame allocated with no
// pool running (or too large for the size classes) comes from the global
// heap.  Every frame carries a small header naming the pool it came from,
// so it always goes back to that pool, whichever simulator (if any) is
// running when it is freed — in particular when a Simulator is destroyed
// mid-run with nested SubTasks still suspended: its processors' frames are
// destroyed before the pool (the pool is declared first), and return to it.
//
// Pools are not thread-safe and are never shared: every simulator runs on
// one thread at a time, and parallel drivers (batch::SweepEngine, the
// fuzzer's workers) give each task its own simulator.
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace apex::sim {

class FramePool {
 public:
  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    for (void* c : chunks_) ::operator delete(c);
  }

  /// Makes `pool` the running pool on this thread until the scope ends
  /// (restoring the previous one, so nested runs compose).
  class Scope {
   public:
    explicit Scope(FramePool* pool) noexcept
        : prev_(std::exchange(running_, pool)) {}
    ~Scope() { running_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FramePool* prev_;
  };

  /// Frame storage of `size` bytes, from the running pool if there is one.
  static void* allocate(std::size_t size) {
    const std::size_t total = size + kHeader;
    FramePool* const pool = running_;
    void* raw;
    if (pool != nullptr && total <= kMaxBlock) [[likely]] {
      raw = pool->take((total - 1) / kGranule);
    } else {
      raw = ::operator new(total);
    }
    *static_cast<FramePool**>(raw) = total <= kMaxBlock ? pool : nullptr;
    return static_cast<char*>(raw) + kHeader;
  }

  /// Return a frame from allocate(); `size` is the size it was asked for.
  static void deallocate(void* frame, std::size_t size) noexcept {
    void* const raw = static_cast<char*>(frame) - kHeader;
    const std::size_t total = size + kHeader;
    if (FramePool* const pool = *static_cast<FramePool**>(raw)) [[likely]] {
      FreeBlock* const b = static_cast<FreeBlock*>(raw);
      FreeBlock*& head = pool->free_[(total - 1) / kGranule];
      b->next = head;
      head = b;
    } else {
      ::operator delete(raw, total);
    }
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  /// The header keeps frames at the default new alignment.
  static constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kClasses = 64;
  static constexpr std::size_t kMaxBlock = kClasses * kGranule;
  static constexpr std::size_t kChunk = 64 * 1024;
  static_assert(kHeader >= sizeof(FramePool*) && kGranule % kHeader == 0);

  /// A block of size class `cls` ((cls + 1) * kGranule bytes).
  void* take(std::size_t cls) {
    if (FreeBlock* const b = free_[cls]) [[likely]] {
      free_[cls] = b->next;
      return b;
    }
    const std::size_t bytes = (cls + 1) * kGranule;
    if (static_cast<std::size_t>(end_ - next_) < bytes) {
      chunks_.reserve(chunks_.size() + 1);
      next_ = static_cast<char*>(::operator new(kChunk));
      end_ = next_ + kChunk;
      chunks_.push_back(next_);
    }
    void* const b = next_;
    next_ += bytes;
    return b;
  }

  static inline constinit thread_local FramePool* running_ = nullptr;

  FreeBlock* free_[kClasses] = {};
  char* next_ = nullptr;  ///< Uncarved tail of the newest chunk.
  char* end_ = nullptr;
  std::vector<void*> chunks_;
};

}  // namespace apex::sim
