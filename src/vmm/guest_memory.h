// Guest physical memory model. We do not store page contents — only each
// page's *content class*, because that is all the QEMU 1.1 migration path
// cares about: `is_dup_page()` sends a page filled with one repeated byte
// (e.g. a zero page) as a 9-byte marker instead of 4 KiB + header.
//
// Content classes and the dirty log are interval maps, so a 20 GiB guest
// costs O(#distinct runs), not O(#pages).
#pragma once

#include <cstdint>

#include "util/interval_map.h"
#include "util/units.h"

namespace nm::vmm {

inline constexpr std::uint64_t kPageSize = 4096;
/// Wire cost of a full page: payload + migration stream header.
inline constexpr std::uint64_t kPageWireBytes = kPageSize + 8;
/// Wire cost of a compressed duplicate page: header + fill byte.
inline constexpr std::uint64_t kDupPageWireBytes = 9;

enum class PageClass : std::uint8_t {
  kZero,     // never written (or explicitly zeroed)
  kUniform,  // filled with one repeated byte (memtest patterns)
  kData,     // incompressible content
};

struct PageContent {
  PageClass cls = PageClass::kZero;
  std::uint8_t fill = 0;  // meaningful for kUniform
  bool operator==(const PageContent&) const = default;
};

class GuestMemory {
 public:
  explicit GuestMemory(Bytes size);

  [[nodiscard]] Bytes size() const { return size_; }
  [[nodiscard]] std::uint64_t page_count() const { return pages_; }

  /// Guest writes incompressible data to [offset, offset+len).
  void write_data(Bytes offset, Bytes len);
  /// Guest writes a repeated byte pattern (compressible).
  void write_uniform(Bytes offset, Bytes len, std::uint8_t fill);
  /// Guest zeroes a region.
  void write_zero(Bytes offset, Bytes len);

  [[nodiscard]] PageContent page_at(std::uint64_t page_index) const;
  /// Bytes resident in incompressible (kData) pages.
  [[nodiscard]] Bytes data_bytes() const;

  // --- Dirty logging (migration support) -------------------------------
  /// Enables write tracking and marks *all* pages dirty, as QEMU does at
  /// migration start ("the VMM traverses the whole of the guest's memory").
  void start_dirty_logging();
  void stop_dirty_logging();
  [[nodiscard]] Bytes dirty_bytes() const;

  /// Removes up to `max_pages` pages from the front of the dirty set and
  /// returns the range (page indices). Empty range when clean.
  struct PageRange {
    std::uint64_t first_page = 0;
    std::uint64_t last_page = 0;  // exclusive
    [[nodiscard]] std::uint64_t pages() const { return last_page - first_page; }
    [[nodiscard]] Bytes bytes() const { return Bytes(pages() * kPageSize); }
    [[nodiscard]] bool empty() const { return first_page == last_page; }
  };
  [[nodiscard]] PageRange pop_dirty(std::uint64_t max_pages);

  /// Atomically takes the current dirty set, leaving it empty (QEMU syncs
  /// the dirty bitmap once per pre-copy round; pages dirtied afterwards
  /// belong to the next round).
  [[nodiscard]] IntervalSet take_dirty_snapshot();

  /// Wire bytes needed to ship the pages in `range`, with or without
  /// duplicate-page compression.
  [[nodiscard]] Bytes wire_size(const PageRange& range, bool compress_dup) const;
  /// Wire bytes needed to ship everything currently dirty (downtime
  /// estimation input for the pre-copy convergence test).
  [[nodiscard]] Bytes dirty_wire_size(bool compress_dup) const;
  /// Incompressible payload bytes within `range` (scan-cost input).
  [[nodiscard]] Bytes data_bytes_in(const PageRange& range) const;

 private:
  void mark_dirty(Bytes offset, Bytes len);
  [[nodiscard]] std::uint64_t page_of(Bytes offset) const;

  Bytes size_;
  std::uint64_t pages_;
  IntervalMap<PageContent> content_;
  IntervalSet dirty_;
  bool logging_ = false;
};

}  // namespace nm::vmm
