// Fixed-capacity ring buffer.
//
// NTP's per-peer clock filter is an 8-stage shift register of (offset,
// delay, dispersion) tuples; MNTP's warm-up keeps a bounded window of
// recorded offsets. Both sit on this container: O(1) push with oldest
// eviction, stable iteration from oldest to newest.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace mntp::core {

template <typename T>
class RingBuffer {
 public:
  /// An empty ring of capacity 0 that allocates nothing; it holds no
  /// element and must be replaced by a sized ring before push().
  RingBuffer() = default;
  explicit RingBuffer(std::size_t capacity) : buf_(capacity) {
    if (capacity == 0) throw std::invalid_argument("RingBuffer: capacity 0");
  }

  /// Append, evicting the oldest element when full.
  void push(T value) {
    buf_[(head_ + size_) % buf_.size()] = std::move(value);
    if (size_ < buf_.size()) {
      ++size_;
    } else {
      head_ = (head_ + 1) % buf_.size();
    }
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == buf_.size(); }

  /// Element i, where 0 is the oldest retained element.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) % buf_.size()];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    return buf_[(head_ + i) % buf_.size()];
  }

  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  /// Copy the retained elements, oldest first.
  [[nodiscard]] std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mntp::core
