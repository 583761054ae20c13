#include "sim/task.h"

#include <sanitizer/asan_interface.h>

#include <array>
#include <new>
#include <vector>

namespace nm::sim::detail {
namespace {

constexpr std::size_t kFrameClasses = kMaxPooledFrame / kFrameClass;

// One free stack per size class, kept outside the blocks it holds:
// LeakSanitizer ignores pointers stored in poisoned memory, so a free list
// threaded through the blocks would report every pooled block as leaked.
// The holder is never destroyed, so a frame freed during static
// destruction still finds its stack.
using FreeStacks = std::array<std::vector<void*>, kFrameClasses>;

FreeStacks& free_stacks() {
  static FreeStacks& stacks = *new FreeStacks;
  return stacks;
}

// Size class of a pooled frame (1 <= size <= kMaxPooledFrame).
std::size_t frame_class(std::size_t size) { return (size - 1) / kFrameClass; }

}  // namespace

void* allocate_frame(std::size_t size) {
  if (size > kMaxPooledFrame) {
    return ::operator new(size);
  }
  const std::size_t cls = frame_class(size);
  std::vector<void*>& stack = free_stacks()[cls];
  if (stack.empty()) {
    return ::operator new((cls + 1) * kFrameClass);
  }
  void* block = stack.back();
  stack.pop_back();
  ASAN_UNPOISON_MEMORY_REGION(block, (cls + 1) * kFrameClass);
  return block;
}

void free_frame(void* frame, std::size_t size) noexcept {
  if (size > kMaxPooledFrame) {
    ::operator delete(frame, size);
    return;
  }
  const std::size_t cls = frame_class(size);
  ASAN_POISON_MEMORY_REGION(frame, (cls + 1) * kFrameClass);
  free_stacks()[cls].push_back(frame);
}

}  // namespace nm::sim::detail
