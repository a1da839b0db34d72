// SmallVector<T, N>: a vector with N elements of inline storage.
//
// The interleaving explorer forks its Model at every branch point; the
// model's hot containers (in-flight channel messages, per-step property
// bookkeeping) almost always hold a handful of elements, so a std::vector
// pays a heap allocation per fork for a few dozen bytes of payload. This
// container keeps up to N elements in the object itself and only spills to
// the heap beyond that.
//
// Deliberately minimal: the subset of the std::vector interface the model
// and the protocol cores need (push_back/emplace_back, assign, erase, clear,
// iteration, indexing, copy and move). Copy assignment reuses the target's
// buffer when it is large enough, so assigning into a recycled vector does not
// allocate, and elements of a trivially copyable type are copied (and moved
// out of inline storage) as one block of bytes. Not exception-safe against throwing element copies mid-operation
// beyond the basic guarantee, which is fine for the value types it holds.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sa::util {

template <typename T, std::size_t N>
class SmallVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;

  SmallVector(const SmallVector& other) { append_from(other.begin(), other.end()); }

  SmallVector(SmallVector&& other) noexcept(std::is_nothrow_move_constructible_v<T>) {
    take_from(std::move(other));
  }

  /// Element-wise: the common prefix is copy-assigned, so elements that
  /// already hold equal handles (shared_ptrs to the same message, say) skip
  /// their reference-count traffic.
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      if (other.size_ > capacity_) {
        clear();
        relocate(other.size_);
      }
      if constexpr (std::is_trivially_copyable_v<T>) {  // plain bytes, one copy
        std::memcpy(static_cast<void*>(data_), other.data_, other.size_ * sizeof(T));
        size_ = other.size_;
        return *this;
      }
      std::copy(other.data_, other.data_ + std::min(size_, other.size_), data_);
      while (size_ > other.size_) pop_back();
      for (; size_ < other.size_; ++size_) {
        ::new (static_cast<void*>(data_ + size_)) T(other.data_[size_]);
      }
    }
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      destroy_all();
      take_from(std::move(other));
    }
    return *this;
  }

  ~SmallVector() { destroy_all(); }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool inline_storage() const { return data_ == inline_data(); }

  void reserve(std::size_t wanted) {
    if (wanted > capacity_) relocate(wanted);
  }

  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) emplace_back(*first);
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) relocate(capacity_ * 2);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    --size_;
    data_[size_].~T();
  }

  iterator erase(const_iterator pos) {
    const std::size_t index = static_cast<std::size_t>(pos - data_);
    std::move(data_ + index + 1, data_ + size_, data_ + index);
    pop_back();
    return data_ + index;
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* inline_data() { return reinterpret_cast<T*>(inline_storage_); }
  const T* inline_data() const { return reinterpret_cast<const T*>(inline_storage_); }

  void append_from(const T* first, const T* last) {
    reserve(static_cast<std::size_t>(last - first));
    for (; first != last; ++first) emplace_back(*first);
  }

  /// Steals `other`'s heap buffer when it has one; element-wise moves
  /// otherwise. `*this` must be empty/destroyed storage beforehand.
  void take_from(SmallVector&& other) {
    if (other.inline_storage()) {
      data_ = inline_data();
      capacity_ = N;
      size_ = 0;
      if constexpr (std::is_trivially_copyable_v<T>) {
        std::memcpy(static_cast<void*>(data_), other.data_, other.size_ * sizeof(T));
        size_ = other.size_;
      } else {
        for (T& value : other) emplace_back(std::move(value));
      }
      other.clear();
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.capacity_ = N;
      other.size_ = 0;
    }
  }

  void destroy_all() {
    clear();
    if (!inline_storage()) {
      ::operator delete(static_cast<void*>(data_), std::align_val_t{alignof(T)});
    }
    data_ = inline_data();
    capacity_ = N;
  }

  void relocate(std::size_t wanted) {
    const std::size_t new_capacity = std::max<std::size_t>(wanted, capacity_ * 2);
    T* fresh = static_cast<T*>(
        ::operator new(new_capacity * sizeof(T), std::align_val_t{alignof(T)}));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (!inline_storage()) {
      ::operator delete(static_cast<void*>(data_), std::align_val_t{alignof(T)});
    }
    data_ = fresh;
    capacity_ = new_capacity;
  }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* data_ = inline_data();
  std::size_t capacity_ = N;
  std::size_t size_ = 0;
};

}  // namespace sa::util
