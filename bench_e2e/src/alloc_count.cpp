// Counting replacement of the global allocation functions. Every form of
// operator new funnels into one counter that runs only while armed, so the
// count covers exactly the run_dag_fabric call main.cpp brackets.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

bool g_armed = false;
std::uint64_t g_count = 0;

void* allocate(std::size_t size, std::size_t alignment) {
  if (g_armed) ++g_count;
  if (size == 0) size = 1;
  void* ptr = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    ptr = std::malloc(size);
  } else if (posix_memalign(&ptr, alignment, size) != 0) {
    ptr = nullptr;
  }
  return ptr;
}

void* allocate_or_throw(std::size_t size, std::size_t alignment) {
  void* ptr = allocate(size, alignment);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

namespace bench::alloc {

void arm() noexcept {
  g_count = 0;
  g_armed = true;
}

std::uint64_t disarm() noexcept {
  g_armed = false;
  return g_count;
}

}  // namespace bench::alloc

void* operator new(std::size_t size) {
  return allocate_or_throw(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return allocate_or_throw(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return allocate_or_throw(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return allocate_or_throw(size, static_cast<std::size_t>(alignment));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return allocate(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return allocate(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}
