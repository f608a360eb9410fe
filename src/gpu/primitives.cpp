// The primitives are header-only templates; this translation unit forces a
// standalone compile of the header (catches missing includes) and pins the
// common instantiations so downstream targets link faster.
#include "gpu/primitives.hpp"

namespace lasagna::gpu {

template void sort_pairs<std::uint32_t>(Stream, std::span<Key128>,
                                        std::span<std::uint32_t>);
template void sort_pairs<std::uint64_t>(Stream, std::span<Key128>,
                                        std::span<std::uint64_t>);

}  // namespace lasagna::gpu
