#ifndef MOST_COMMON_ARENA_H_
#define MOST_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace most {

/// A bump allocator for per-evaluation scratch memory.
///
/// The FTL hot path builds and discards many short-lived buffers per
/// refresh (aligned-segment cuts, real-interval solver output, tick
/// interval runs, join key arrays). Allocating each from the global heap is
/// node-per-tuple churn; the arena hands out memory by bumping a cursor
/// through reusable blocks and releases everything at once with Reset().
///
/// Lifetime rule (docs/eval_internals.md): nothing allocated from an
/// evaluation's arena may escape that evaluation — results that outlive a
/// refresh (TemporalRelation, IntervalSet) are normal heap values copied
/// out of arena scratch before the arena is reset.
///
/// Not thread-safe: one arena belongs to the single thread driving an
/// evaluation.
class BumpArena {
 public:
  struct Stats {
    size_t bytes_allocated = 0;   ///< Live bytes requested since last Reset.
    size_t bytes_reserved = 0;    ///< Sum of block capacities held.
    size_t block_count = 0;       ///< Blocks (normal + oversize) held.
    uint64_t heap_fallbacks = 0;  ///< Oversize requests since last Reset.
    uint64_t lifetime_bytes = 0;  ///< Cumulative requested bytes, all time.
    uint64_t lifetime_heap_fallbacks = 0;  ///< Cumulative oversize requests.
  };

  /// `block_bytes` is the capacity of each normal block. Requests larger
  /// than a block get a dedicated exactly-sized block (counted as a heap
  /// fallback — the arena still owns and reuses nothing about it beyond
  /// this Reset cycle).
  explicit BumpArena(size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes) {}

  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;

  /// Returns `bytes` of memory aligned to `align` (a power of two). Never
  /// returns null for bytes > 0; bytes == 0 returns a unique non-null
  /// pointer (cursor position).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    stats_.bytes_allocated += bytes;
    stats_.lifetime_bytes += bytes;
    size_t cursor = Align(cursor_, align);
    if (current_ < blocks_.size() && cursor + bytes <= block_bytes_) {
      cursor_ = cursor + bytes;
      return blocks_[current_].data.get() + cursor;
    }
    return AllocateSlow(bytes, align);
  }

  template <typename T>
  T* AllocateArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Releases every allocation at once. Normal blocks are retained for
  /// reuse (steady-state refreshes stop touching malloc entirely);
  /// oversize blocks are returned to the heap.
  void Reset();

  Stats stats() const {
    Stats s = stats_;
    s.block_count = blocks_.size() + oversize_.size();
    return s;
  }

  size_t block_bytes() const { return block_bytes_; }

  static constexpr size_t kDefaultBlockBytes = 256u << 10;

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t capacity;
  };

  /// Out-of-line rest of Allocate: oversize requests and block advancement.
  void* AllocateSlow(size_t bytes, size_t align);

  template <typename U>
  static U Align(U value, size_t align) {
    return (value + static_cast<U>(align - 1)) & ~static_cast<U>(align - 1);
  }

  size_t block_bytes_;
  std::vector<Block> blocks_;    ///< Reusable fixed-size blocks.
  std::vector<Block> oversize_;  ///< One-shot oversize blocks (fallbacks).
  size_t current_ = 0;           ///< Index of the block being bumped.
  size_t cursor_ = 0;            ///< Bump offset within blocks_[current_].
  Stats stats_;
};

/// Minimal std::allocator adaptor over a BumpArena. Deallocation is a
/// no-op; the container's memory is reclaimed when the arena resets, so
/// containers using this allocator must not outlive the arena cycle
/// (the "nothing escapes a refresh" rule). A default-constructed /
/// null-arena allocator falls back to the global heap, so arena-backed
/// container types remain usable as ordinary values in tests.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() = default;
  explicit ArenaAllocator(BumpArena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& o) : arena_(o.arena()) {}

  T* allocate(size_t n) {
    if (arena_ == nullptr) {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    return arena_->AllocateArray<T>(n);
  }
  void deallocate(T* p, size_t) {
    if (arena_ == nullptr) ::operator delete(p);
  }

  BumpArena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& o) const {
    return arena_ == o.arena();
  }

 private:
  BumpArena* arena_ = nullptr;
};

/// Scratch vector type used throughout the SoA evaluation path.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace most

#endif  // MOST_COMMON_ARENA_H_
