#include <stdexcept>
#include <string>

#include "kernel/backend.hpp"
#include "kernel/cpu_features.hpp"
#include "util/logging.hpp"

namespace lasagna::kernel {

const char* kernel_name(KernelId id) {
  switch (id) {
    case KernelId::kFingerprint:
      return "fingerprint";
    case KernelId::kMatchBounds:
      return "match_bounds";
    case KernelId::kSortPairs:
      return "sort_pairs";
  }
  return "unknown";
}

std::vector<Backend*> all_backends() {
  return {&simulated_backend(), &scalar_backend(), &avx2_backend()};
}

Backend* find_backend(std::string_view name) {
  for (Backend* b : all_backends()) {
    if (b->name() == name) return b;
  }
  return nullptr;
}

Backend& fastest_host_backend() {
  return avx2_backend().available() ? avx2_backend() : scalar_backend();
}

Backend& resolve_backend(std::string_view name) {
  const CpuFeatures& cpu = cpu_features();
  Backend* chosen = nullptr;
  if (name.empty() || name == "simulated") {
    chosen = &simulated_backend();
  } else if (name == "host" || name == "auto") {
    chosen = &fastest_host_backend();
  } else if (name == "avx2") {
    if (avx2_backend().available()) {
      chosen = &avx2_backend();
    } else {
      LOG_WARN << "kernel backend 'avx2' unavailable ("
               << (cpu.avx2 ? "vector codegen disabled at build time"
                            : "cpu lacks avx2")
               << "); falling back to scalar";
      chosen = &scalar_backend();
    }
  } else if (name == "scalar") {
    chosen = &scalar_backend();
  } else {
    throw std::invalid_argument("unknown kernel backend: " +
                                std::string(name));
  }
  LOG_INFO << "kernel backend: " << chosen->name()
           << (chosen->uses_device() ? " (simulated device)" : " (host)")
           << ", cpu avx2=" << (cpu.avx2 ? 1 : 0)
           << " bmi2=" << (cpu.bmi2 ? 1 : 0);
  return *chosen;
}

Backend& active_backend() {
  Backend* backend = Backend::active();
  return backend != nullptr ? *backend : simulated_backend();
}

}  // namespace lasagna::kernel
