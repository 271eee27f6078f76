#include "shm/hugepage_pool.hpp"

namespace nk::shm {

hugepage_pool::hugepage_pool(std::uint32_t key, const hugepage_config& cfg)
    : key_{key},
      cfg_{cfg},
      chunk_count_{cfg.page_size * cfg.page_count / cfg.chunk_size},
      region_{cfg.page_size * cfg.page_count},
      allocated_(chunk_count_, false) {
  free_.reserve(chunk_count_);
  // Hand out low indices first: makes allocation order deterministic.
  for (std::size_t i = chunk_count_; i > 0; --i) {
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
}

result<chunk_ref> hugepage_pool::alloc() {
  if (exhausted_ || free_.empty()) {
    ++failed_allocs_;
    return errc::resource_exhausted;
  }
  const std::uint32_t index = free_.back();
  free_.pop_back();
  allocated_[index] = true;
  return chunk_ref{key_, index};
}

status hugepage_pool::validate(chunk_ref ref) const {
  if (ref.pool_key != key_) return errc::permission_denied;
  if (ref.index >= chunk_count_) return errc::invalid_argument;
  if (!allocated_[ref.index]) return errc::not_found;
  return {};
}

status hugepage_pool::free(chunk_ref ref) {
  if (auto s = validate(ref); !s) {
    ++bad_frees_;
    return s;
  }
  allocated_[ref.index] = false;
  free_.push_back(ref.index);
  return {};
}

result<std::span<std::byte>> hugepage_pool::writable(chunk_ref ref) {
  if (auto s = validate(ref); !s) return s.error();
  return std::span<std::byte>{region_.data() + ref.index * cfg_.chunk_size,
                              cfg_.chunk_size};
}

result<std::span<const std::byte>> hugepage_pool::readable(
    const data_descriptor& desc) const {
  if (auto s = validate(desc.chunk); !s) return s.error();
  if (std::uint64_t{desc.offset} + desc.length > cfg_.chunk_size) {
    return errc::invalid_argument;
  }
  return std::span<const std::byte>{
      region_.data() + desc.chunk.index * cfg_.chunk_size + desc.offset,
      desc.length};
}

void hugepage_pool::release_free() {
  for (std::size_t first = 0; first < chunk_count_;) {
    if (allocated_[first]) {
      ++first;
      continue;
    }
    std::size_t end = first;
    while (end < chunk_count_ && !allocated_[end]) ++end;
    region_.release(first * cfg_.chunk_size, (end - first) * cfg_.chunk_size);
    first = end;
  }
}

}  // namespace nk::shm
