// The three ways the recovery suites damage a checkpoint sidecar: cut one
// byte, append one byte, or flip one bit of the first record's payload
// (past the header, and in a byte no record type pads).
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/checkpoint.hpp"

namespace lasagna::testing {

enum class SidecarDamage { kCut, kAppend, kFlip };

inline constexpr SidecarDamage kSidecarDamages[] = {
    SidecarDamage::kCut, SidecarDamage::kAppend, SidecarDamage::kFlip};

inline const char* damage_name(SidecarDamage damage) {
  switch (damage) {
    case SidecarDamage::kCut:
      return "cut";
    case SidecarDamage::kAppend:
      return "append";
    case SidecarDamage::kFlip:
      return "flip";
  }
  return "?";
}

inline void damage_sidecar(const std::filesystem::path& file,
                           SidecarDamage damage) {
  const std::uintmax_t size = std::filesystem::file_size(file);
  switch (damage) {
    case SidecarDamage::kCut:
      std::filesystem::resize_file(file, size - 1);
      return;
    case SidecarDamage::kAppend:
      std::filesystem::resize_file(file, size + 1);
      return;
    case SidecarDamage::kFlip: {
      constexpr auto kOffset = static_cast<std::streamoff>(
          core::CheckpointManager::kSidecarHeaderBytes);
      ASSERT_GT(size, static_cast<std::uintmax_t>(kOffset)) << file;
      std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
      io.seekg(kOffset);
      const char byte = static_cast<char>(io.get() ^ 0x01);
      io.seekp(kOffset);
      io.put(byte);
      ASSERT_TRUE(io.good()) << file;
      return;
    }
  }
}

}  // namespace lasagna::testing
