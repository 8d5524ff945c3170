/**
 * @file
 * Replaces the global aligned operator new/delete pair so that every
 * buffer it hands out starts as 0xFF bytes, a NaN in every float.
 *
 * Tensor storage is allocated through exactly this pair, so linking
 * this file into the golden suite (test_golden_poisoned) runs every
 * workload with garbage in each freshly allocated tensor. A golden
 * that then fails (a NaN or drifted score) names a workload with an
 * op that reads its uninitialized() output before writing it. A read
 * whose NaN never reaches the score goes unseen.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a nonzero multiple of the alignment.
    std::size_t rounded =
        (std::max<std::size_t>(bytes, 1) + alignment - 1) / alignment *
        alignment;
    void *ptr = std::aligned_alloc(alignment, rounded);
    if (ptr == nullptr)
        throw std::bad_alloc();
    std::memset(ptr, 0xFF, rounded);
    return ptr;
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
