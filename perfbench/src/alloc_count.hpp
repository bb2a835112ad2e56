#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made through operator new since process start.
std::uint64_t allocationCount() noexcept;

}  // namespace perfbench
