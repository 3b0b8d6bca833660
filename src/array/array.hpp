#pragma once

#include <cstddef>

#include "array/policies.hpp"
#include "mem/buffer.hpp"

namespace npb {

/// Linearized arrays — the translation choice the paper settled on after
/// finding dimension-preserving Java arrays 2.3-4.5x slower (section 3).
/// A single flat buffer is indexed with an explicitly computed offset and,
/// under the Checked policy, a single bounds test per access, exactly like a
/// linearized Java array.  Row-major: the *last* index is fastest.
///
/// Storage is a mem::AlignedBuffer: base address aligned per the installed
/// MemOptions (64 B default, optional 2 MiB huge-page hint) and pages
/// committed by the construction fill — on the worker team under
/// Placement::FirstTouch, so each rank faults in the slab it will compute
/// on.  fill() after construction is always a serial rewrite of the already
/// committed pages.

template <class T, class P>
class Array1 {
 public:
  Array1() = default;
  explicit Array1(std::size_t n, T init = T{}) : store_(n, init), n_(n) {}

  T& operator[](std::size_t i) {
    P::on_access();
    P::bounds(i, n_);
    return store_[i];
  }
  const T& operator[](std::size_t i) const {
    P::on_access();
    P::bounds(i, n_);
    return store_[i];
  }

  std::size_t size() const noexcept { return n_; }
  T* data() noexcept { return store_.data(); }
  const T* data() const noexcept { return store_.data(); }
  void fill(T v) { store_.fill(v); }

 private:
  mem::AlignedBuffer<T> store_;
  std::size_t n_ = 0;
};

/// A small array of compile-time length N held inside the object — on the
/// stack for a local — for a per-cell kernel's workspace (LU's diagonal
/// block and 5-vectors).  Zero-initialized like a Java `new double[N]`, and
/// policy-checked per access exactly like Array1.
template <class T, std::size_t N, class P>
class FixedArray {
 public:
  T& operator[](std::size_t i) {
    P::on_access();
    P::bounds(i, N);
    return v_[i];
  }
  const T& operator[](std::size_t i) const {
    P::on_access();
    P::bounds(i, N);
    return v_[i];
  }

 private:
  T v_[N]{};
};

template <class T, class P>
class Array2 {
 public:
  Array2() = default;
  Array2(std::size_t n1, std::size_t n2, T init = T{})
      : store_(n1 * n2, init), n1_(n1), n2_(n2) {}

  T& operator()(std::size_t i, std::size_t j) {
    P::on_access();
    const std::size_t idx = i * n2_ + j;
    P::bounds(idx, store_.size());
    return store_[idx];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    P::on_access();
    const std::size_t idx = i * n2_ + j;
    P::bounds(idx, store_.size());
    return store_[idx];
  }

  std::size_t extent(int d) const noexcept { return d == 0 ? n1_ : n2_; }
  std::size_t size() const noexcept { return store_.size(); }
  T* data() noexcept { return store_.data(); }
  const T* data() const noexcept { return store_.data(); }
  void fill(T v) { store_.fill(v); }

 private:
  mem::AlignedBuffer<T> store_;
  std::size_t n1_ = 0, n2_ = 0;
};

template <class T, class P>
class Array3 {
 public:
  Array3() = default;
  Array3(std::size_t n1, std::size_t n2, std::size_t n3, T init = T{})
      : store_(n1 * n2 * n3, init), n1_(n1), n2_(n2), n3_(n3) {}

  T& operator()(std::size_t i, std::size_t j, std::size_t k) {
    P::on_access();
    const std::size_t idx = (i * n2_ + j) * n3_ + k;
    P::bounds(idx, store_.size());
    return store_[idx];
  }
  const T& operator()(std::size_t i, std::size_t j, std::size_t k) const {
    P::on_access();
    const std::size_t idx = (i * n2_ + j) * n3_ + k;
    P::bounds(idx, store_.size());
    return store_[idx];
  }

  std::size_t extent(int d) const noexcept {
    return d == 0 ? n1_ : d == 1 ? n2_ : n3_;
  }
  std::size_t size() const noexcept { return store_.size(); }
  T* data() noexcept { return store_.data(); }
  const T* data() const noexcept { return store_.data(); }
  void fill(T v) { store_.fill(v); }

 private:
  mem::AlignedBuffer<T> store_;
  std::size_t n1_ = 0, n2_ = 0, n3_ = 0;
};

template <class T, class P>
class Array4 {
 public:
  Array4() = default;
  Array4(std::size_t n1, std::size_t n2, std::size_t n3, std::size_t n4, T init = T{})
      : store_(n1 * n2 * n3 * n4, init), n1_(n1), n2_(n2), n3_(n3), n4_(n4) {}

  T& operator()(std::size_t i, std::size_t j, std::size_t k, std::size_t m) {
    P::on_access();
    const std::size_t idx = ((i * n2_ + j) * n3_ + k) * n4_ + m;
    P::bounds(idx, store_.size());
    return store_[idx];
  }
  const T& operator()(std::size_t i, std::size_t j, std::size_t k, std::size_t m) const {
    P::on_access();
    const std::size_t idx = ((i * n2_ + j) * n3_ + k) * n4_ + m;
    P::bounds(idx, store_.size());
    return store_[idx];
  }

  std::size_t extent(int d) const noexcept {
    return d == 0 ? n1_ : d == 1 ? n2_ : d == 2 ? n3_ : n4_;
  }
  std::size_t size() const noexcept { return store_.size(); }
  T* data() noexcept { return store_.data(); }
  const T* data() const noexcept { return store_.data(); }
  void fill(T v) { store_.fill(v); }

 private:
  mem::AlignedBuffer<T> store_;
  std::size_t n1_ = 0, n2_ = 0, n3_ = 0, n4_ = 0;
};

template <class T, class P>
class Array5 {
 public:
  Array5() = default;
  Array5(std::size_t n1, std::size_t n2, std::size_t n3, std::size_t n4,
         std::size_t n5, T init = T{})
      : store_(n1 * n2 * n3 * n4 * n5, init), n1_(n1), n2_(n2), n3_(n3), n4_(n4), n5_(n5) {}

  T& operator()(std::size_t i, std::size_t j, std::size_t k, std::size_t m,
                std::size_t n) {
    P::on_access();
    const std::size_t idx = (((i * n2_ + j) * n3_ + k) * n4_ + m) * n5_ + n;
    P::bounds(idx, store_.size());
    return store_[idx];
  }
  const T& operator()(std::size_t i, std::size_t j, std::size_t k, std::size_t m,
                      std::size_t n) const {
    P::on_access();
    const std::size_t idx = (((i * n2_ + j) * n3_ + k) * n4_ + m) * n5_ + n;
    P::bounds(idx, store_.size());
    return store_[idx];
  }

  std::size_t extent(int d) const noexcept {
    return d == 0 ? n1_ : d == 1 ? n2_ : d == 2 ? n3_ : d == 3 ? n4_ : n5_;
  }
  std::size_t size() const noexcept { return store_.size(); }
  T* data() noexcept { return store_.data(); }
  const T* data() const noexcept { return store_.data(); }
  void fill(T v) { store_.fill(v); }

 private:
  mem::AlignedBuffer<T> store_;
  std::size_t n1_ = 0, n2_ = 0, n3_ = 0, n4_ = 0, n5_ = 0;
};

}  // namespace npb
