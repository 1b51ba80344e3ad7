#include "iso/heap.h"

#include <cstdlib>
#include <cstring>

#include "chaos/chaos.h"
#include "util/check.h"

namespace mfc::iso {

namespace {
constexpr std::uint32_t kBlockMagic = 0x150b10cU;
constexpr std::uint64_t kArenaMagic = 0x150a12e4aULL;
constexpr std::size_t kAlign = 16;
constexpr std::size_t kMinPayload = 32;  ///< don't split below this

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}
}  // namespace

/// Block header preceding every allocation. `prev`/`next` are address-order
/// neighbors within the arena; they point into slot memory only, so they
/// remain valid across migration.
struct alignas(16) ThreadHeap::Block {
  std::size_t size;  ///< payload bytes
  Block* prev;
  Block* next;
  ArenaHeader* arena;
  std::uint32_t free_flag;
  std::uint32_t magic;

  void* payload() { return reinterpret_cast<char*>(this) + sizeof(Block); }
  static Block* from_payload(void* p) {
    auto* b = reinterpret_cast<Block*>(static_cast<char*>(p) - sizeof(Block));
    MFC_CHECK_MSG(b->magic == kBlockMagic, "bad pointer passed to iso free");
    return b;
  }
};

/// Arena header at the base of each slot run. Carries the live-byte
/// accounting so a heap can be reconstructed purely from its slots.
struct alignas(16) ThreadHeap::ArenaHeader {
  std::uint64_t magic;
  std::size_t arena_bytes;
  Block* first;
  std::size_t live_bytes;
  std::size_t live_count;
};

ThreadHeap::ThreadHeap(int birth_pe)
    : ThreadHeap(birth_pe, Region::instance().acquire(birth_pe, 1)) {}

ThreadHeap::ThreadHeap(int birth_pe, SlotId first) : birth_pe_(birth_pe) {
  static_assert(sizeof(Block) % 16 == 0);
  add_arena(first);
}

ThreadHeap::ThreadHeap(int birth_pe, std::vector<SlotId> slots)
    : birth_pe_(birth_pe), slots_(std::move(slots)) {
  Region& region = Region::instance();
  for (const SlotId& id : slots_) {
    auto* arena = static_cast<ArenaHeader*>(region.slot_base(id));
    MFC_CHECK_MSG(arena->magic == kArenaMagic, "reattach: corrupt arena");
    arenas_.push_back(arena);
  }
}

ThreadHeap* ThreadHeap::reattach(int birth_pe, std::vector<SlotId> slots) {
  return new ThreadHeap(birth_pe, std::move(slots));
}

ThreadHeap::~ThreadHeap() {
  Region& region = Region::instance();
  for (const SlotId& id : slots_) region.release(id);
}

ThreadHeap::ArenaHeader* ThreadHeap::add_arena(SlotId id) {
  Region& region = Region::instance();
  auto* arena = static_cast<ArenaHeader*>(region.slot_base(id));
  arena->magic = kArenaMagic;
  arena->arena_bytes = region.slot_span(id);
  arena->live_bytes = 0;
  arena->live_count = 0;
  auto* block = reinterpret_cast<Block*>(
      reinterpret_cast<char*>(arena) + round_up(sizeof(ArenaHeader), kAlign));
  block->size = arena->arena_bytes - round_up(sizeof(ArenaHeader), kAlign) -
                sizeof(Block);
  block->prev = nullptr;
  block->next = nullptr;
  block->arena = arena;
  block->free_flag = 1;
  block->magic = kBlockMagic;
  arena->first = block;
  slots_.push_back(id);
  arenas_.push_back(arena);
  return arena;
}

void* ThreadHeap::malloc_from(ArenaHeader* arena, std::size_t size) {
  for (Block* b = arena->first; b != nullptr; b = b->next) {
    if (!b->free_flag || b->size < size) continue;
    // Split when the remainder can hold a useful block.
    if (b->size >= size + sizeof(Block) + kMinPayload) {
      auto* rest = reinterpret_cast<Block*>(
          static_cast<char*>(b->payload()) + size);
      rest->size = b->size - size - sizeof(Block);
      rest->prev = b;
      rest->next = b->next;
      rest->arena = arena;
      rest->free_flag = 1;
      rest->magic = kBlockMagic;
      if (b->next) b->next->prev = rest;
      b->next = rest;
      b->size = size;
    }
    b->free_flag = 0;
    arena->live_bytes += b->size;
    arena->live_count += 1;
    return b->payload();
  }
  return nullptr;
}

void* ThreadHeap::malloc(std::size_t size) {
  if (size == 0) size = 1;
  size = round_up(size, kAlign);
  for (ArenaHeader* arena : arenas_) {
    if (void* p = malloc_from(arena, size)) return p;
  }
  // Grow: size the new arena to fit this allocation (multi-slot for big
  // blocks), with one slot minimum.
  const std::size_t slot_bytes = Region::instance().config().slot_bytes;
  const std::size_t need =
      size + round_up(sizeof(ArenaHeader), kAlign) + sizeof(Block);
  const auto slot_count =
      static_cast<std::uint32_t>((need + slot_bytes - 1) / slot_bytes);
  ArenaHeader* arena =
      add_arena(Region::instance().acquire(birth_pe_, slot_count));
  void* p = malloc_from(arena, size);
  MFC_CHECK_MSG(p != nullptr, "iso heap: fresh arena cannot satisfy request");
  return p;
}

void ThreadHeap::free_anywhere(void* p) {
  if (p == nullptr) return;
  Block* b = Block::from_payload(p);
  MFC_CHECK_MSG(!b->free_flag, "iso heap: double free");
  ArenaHeader* arena = b->arena;
  arena->live_bytes -= b->size;
  arena->live_count -= 1;
  b->free_flag = 1;
  // Coalesce with next, then with prev.
  if (b->next && b->next->free_flag) {
    Block* n = b->next;
    b->size += sizeof(Block) + n->size;
    b->next = n->next;
    if (n->next) n->next->prev = b;
    n->magic = 0;
  }
  if (b->prev && b->prev->free_flag) {
    Block* pr = b->prev;
    pr->size += sizeof(Block) + b->size;
    pr->next = b->next;
    if (b->next) b->next->prev = pr;
    b->magic = 0;
  }
}

void ThreadHeap::free(void* p) { free_anywhere(p); }

std::size_t ThreadHeap::payload_size(const void* p) {
  return Block::from_payload(const_cast<void*>(p))->size;
}

void* ThreadHeap::realloc(void* p, std::size_t size) {
  if (p == nullptr) return malloc(size);
  if (size == 0) {
    free(p);
    return nullptr;
  }
  Block* b = Block::from_payload(p);
  if (b->size >= size) return p;  // shrink in place (no split for simplicity)
  void* q = malloc(size);
  std::memcpy(q, p, b->size);
  free(p);
  return q;
}

void* ThreadHeap::calloc(std::size_t nmemb, std::size_t size) {
  MFC_CHECK_MSG(size == 0 || nmemb <= SIZE_MAX / size, "calloc overflow");
  const std::size_t total = nmemb * size;
  void* p = malloc(total);
  std::memset(p, 0, total);
  return p;
}

bool ThreadHeap::owns(const void* p) const {
  const Region& region = Region::instance();
  const char* c = static_cast<const char*>(p);
  for (const SlotId& id : slots_) {
    const char* base = static_cast<const char*>(region.slot_base(id));
    if (c >= base && c < base + region.slot_span(id)) return true;
  }
  return false;
}

std::size_t ThreadHeap::extent(std::size_t i) const {
  MFC_CHECK(i < arenas_.size());
  const ArenaHeader* arena = arenas_[i];
  const Block* tail = arena->first;
  while (tail->next != nullptr) tail = tail->next;
  if (!tail->free_flag) return arena->arena_bytes;
  return static_cast<std::size_t>(reinterpret_cast<const char*>(tail) +
                                  sizeof(Block) -
                                  reinterpret_cast<const char*>(arena));
}

std::size_t ThreadHeap::footprint() const {
  std::size_t total = 0;
  for (const ArenaHeader* arena : arenas_) total += arena->arena_bytes;
  return total;
}

std::size_t ThreadHeap::live_bytes() const {
  std::size_t total = 0;
  for (const ArenaHeader* arena : arenas_) total += arena->live_bytes;
  return total;
}

std::size_t ThreadHeap::allocation_count() const {
  std::size_t total = 0;
  for (const ArenaHeader* arena : arenas_) total += arena->live_count;
  return total;
}

// ---- Thread-context routing -------------------------------------------------

namespace {
thread_local ThreadHeap* t_current_heap = nullptr;
}

ThreadHeap* current_heap() { return t_current_heap; }
void set_current_heap(ThreadHeap* heap) { t_current_heap = heap; }

void* routed_malloc(std::size_t size) {
  if (ThreadHeap* heap = t_current_heap) {
    // A thread can be descheduled right at an allocation boundary — the
    // spot where a migration racing an in-progress malloc would corrupt the
    // arena if heap routing weren't per-thread.
    chaos::preempt_point("iso.routed_malloc");
    return heap->malloc(size);
  }
  return std::malloc(size);
}

void routed_free(void* p) {
  if (p == nullptr) return;
  if (Region::initialized() && Region::instance().contains(p)) {
    ThreadHeap::free_anywhere(p);
    return;
  }
  std::free(p);
}

void* routed_realloc(void* p, std::size_t size) {
  const bool iso_ptr =
      p != nullptr && Region::initialized() && Region::instance().contains(p);
  if (ThreadHeap* heap = t_current_heap; heap && (p == nullptr || iso_ptr)) {
    return heap->realloc(p, size);
  }
  if (iso_ptr) {
    // An iso pointer resized outside any thread context: migrate the data
    // to libc memory (the block header records the old size).
    const std::size_t old_size = ThreadHeap::payload_size(p);
    void* q = std::malloc(size);
    MFC_CHECK(q != nullptr || size == 0);
    if (q) std::memcpy(q, p, old_size < size ? old_size : size);
    ThreadHeap::free_anywhere(p);
    return q;
  }
  return std::realloc(p, size);
}

void* routed_calloc(std::size_t nmemb, std::size_t size) {
  if (ThreadHeap* heap = t_current_heap) return heap->calloc(nmemb, size);
  return std::calloc(nmemb, size);
}

}  // namespace mfc::iso
