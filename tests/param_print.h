// gtest printers for the library types that parameterize tests. Without
// them gtest prints a parameter as its raw bytes, padding included, and
// gtest_discover_tests puts that dump into the ctest name, so the names
// would change from build to build.

#ifndef TESTS_PARAM_PRINT_H_
#define TESTS_PARAM_PRINT_H_

#include <ostream>

#include "src/hw/gpu.h"
#include "src/model/models.h"

namespace crius {

inline void PrintTo(const ModelSpec& spec, std::ostream* os) { *os << spec.Key(); }

inline void PrintTo(GpuType type, std::ostream* os) { *os << GpuName(type); }

}  // namespace crius

#endif  // TESTS_PARAM_PRINT_H_
