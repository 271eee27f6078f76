// Anonymous memory region that the kernel commits on first touch.
//
// Stands in for the IVSHMEM huge-page region of the paper's prototype: the
// mapping reserves address space only, every page reads as zero until it
// is first written, and release() hands pages back to the kernel (they
// read as zero again afterwards). So a region costs memory in proportion
// to what its users touch, not to its size.
#pragma once

#include <cstddef>

namespace nk::shm {

class region {
 public:
  // Maps `bytes` (> 0) of private anonymous memory; throws std::bad_alloc
  // when the mapping fails.
  explicit region(std::size_t bytes);
  ~region();

  region(const region&) = delete;
  region& operator=(const region&) = delete;

  [[nodiscard]] std::byte* data() { return base_; }
  [[nodiscard]] const std::byte* data() const { return base_; }

  // Returns the whole OS pages inside [offset, offset+len) to the kernel.
  // The range is rounded inward, so a page shared with bytes outside it is
  // left alone. Released pages read as zero on their next touch.
  void release(std::size_t offset, std::size_t len);

  // Bytes of the region the kernel currently holds (mincore(2)).
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  std::byte* base_;
  std::size_t size_;
};

}  // namespace nk::shm
