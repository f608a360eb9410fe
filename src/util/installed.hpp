// One process-wide "installed instance" slot per hook type: the tracer,
// the profiler, the fault injector, the kernel capture session and the
// kernel backend each derive from Installed<Self>. Hot paths test the slot
// with one acquire load, which is their whole cost when nothing is
// installed; tests and tools install an instance for a scope.
#pragma once

#include <atomic>

namespace lasagna::util {

template <typename T>
class Installed {
 public:
  /// The installed instance, or nullptr when none is.
  [[nodiscard]] static T* active() {
    return slot_.load(std::memory_order_acquire);
  }

  /// Install (or with nullptr, remove) the process-wide instance.
  static void install(T* instance) {
    slot_.store(instance, std::memory_order_release);
  }

  /// RAII installation: installs on construction and restores the
  /// previous instance on destruction.
  class ScopedInstall {
   public:
    explicit ScopedInstall(T* instance) : previous_(active()) {
      install(instance);
    }
    ~ScopedInstall() { install(previous_); }
    ScopedInstall(const ScopedInstall&) = delete;
    ScopedInstall& operator=(const ScopedInstall&) = delete;

   private:
    T* previous_;
  };

 private:
  static inline std::atomic<T*> slot_{nullptr};
};

}  // namespace lasagna::util
