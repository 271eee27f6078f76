#include "shm/region.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <vector>

namespace nk::shm {

namespace {

std::size_t os_page() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::byte* map_anonymous(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  return static_cast<std::byte*>(p);
}

}  // namespace

region::region(std::size_t bytes)
    : base_{map_anonymous(bytes)}, size_{bytes} {}

region::~region() { ::munmap(base_, size_); }

void region::release(std::size_t offset, std::size_t len) {
  if (offset >= size_) return;
  if (len > size_ - offset) len = size_ - offset;
  const std::size_t page = os_page();
  const std::size_t first = (offset + page - 1) / page * page;
  const std::size_t last = (offset + len) / page * page;
  if (first >= last) return;
  ::madvise(base_ + first, last - first, MADV_DONTNEED);
}

std::size_t region::resident_bytes() const {
  const std::size_t page = os_page();
  std::vector<unsigned char> in_core((size_ + page - 1) / page);
  if (::mincore(base_, size_, in_core.data()) != 0) return 0;
  std::size_t pages = 0;
  for (const unsigned char c : in_core) pages += c & 1u;
  return pages * page;
}

}  // namespace nk::shm
