#include "core/checkpoint.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string_view>
#include <system_error>
#include <vector>

#include "io/file_stream.hpp"
#include "obs/trace.hpp"
#include "util/fnv.hpp"

namespace lasagna::core {

namespace {

constexpr const char* kManifestName = "checkpoint.manifest";
constexpr const char* kHeader = "lasagna-checkpoint 3";

struct SidecarHeader {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t record_size = 0;
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a-64 of the payload bytes
};
static_assert(sizeof(SidecarHeader) ==
              CheckpointManager::kSidecarHeaderBytes);

constexpr std::uint64_t kSidecarMagic = 0x54504b434e47534cULL;  // "LSGNCKPT"
constexpr std::uint32_t kSidecarVersion = 1;

std::uint64_t payload_checksum(std::span<const std::byte> payload) {
  return util::fnv::fold_bytes(util::fnv::kOffset, payload.data(),
                               payload.size());
}

/// `token` as an unsigned number in `base` when it is nothing but digits
/// and fits 64 bits; nothing otherwise (no sign, space or prefix).
std::optional<std::uint64_t> parse_u64(std::string_view token, int base) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value, base);
  if (token.empty() || error != std::errc() || stop != end) return {};
  return value;
}

}  // namespace

CheckpointManager::CheckpointManager(std::filesystem::path dir,
                                     std::uint64_t input_fingerprint,
                                     std::uint64_t config_hash,
                                     io::IoStats& io)
    : dir_(std::move(dir)),
      input_fingerprint_(input_fingerprint),
      config_hash_(config_hash),
      io_(&io) {}

bool CheckpointManager::load(
    std::initializer_list<std::string_view> numbered) {
  const obs::WallSpan span = obs::wall_span("core.checkpoint", "load");
  const std::filesystem::path path = dir_ / kManifestName;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // A final line without its newline is an append a crash cut short: the
  // work it names is redone. Cut it off the file too, so that the next
  // append starts a line of its own.
  const std::size_t complete = text.rfind('\n') + 1;  // 0 when there is none
  const bool torn = complete != text.size();
  text.resize(complete);

  std::istringstream lines(text);
  std::string line;
  if (!std::getline(lines, line) || line != kHeader) return false;

  // Any line that does not parse rejects the whole manifest.
  std::optional<std::uint64_t> input;
  std::optional<std::uint64_t> config;
  std::map<std::string, Counters> entries;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    std::string word;
    fields >> tag >> word;
    if (tag == "input" || tag == "config") {
      (tag == "input" ? input : config) = parse_u64(word, 16);
      if (fields >> word) return false;
    } else if (tag == "entry") {
      if (word.empty()) return false;
      Counters counters;
      std::string pair;
      while (fields >> pair) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos) return false;
        const auto value = parse_u64(std::string_view(pair).substr(eq + 1), 10);
        if (!value) return false;
        counters[pair.substr(0, eq)] = *value;
      }
      entries[word] = std::move(counters);  // a later line for a key wins
    } else {
      return false;  // unknown tag: written by a newer format
    }
  }
  if (input != input_fingerprint_ || config != config_hash_) return false;
  for (const std::string_view prefix : numbered) {
    for (auto it = entries.lower_bound(std::string(prefix));
         it != entries.end() && it->first.starts_with(prefix); ++it) {
      if (!parse_u64(std::string_view(it->first).substr(prefix.size()), 10)) {
        return false;
      }
    }
  }
  if (torn) std::filesystem::resize_file(path, complete);

  const std::scoped_lock lock(mutex_);
  entries_ = std::move(entries);
  return true;
}

void CheckpointManager::reset() {
  const std::scoped_lock lock(mutex_);
  entries_.clear();
  // Drop every checkpoint.* file (manifest + sidecars) from earlier runs.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().filename().string().rfind("checkpoint.", 0) == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  write_header_locked();
}

bool CheckpointManager::has(const std::string& key) const {
  const std::scoped_lock lock(mutex_);
  return entries_.count(key) != 0;
}

CheckpointManager::Counters CheckpointManager::counters(
    const std::string& key) const {
  const std::scoped_lock lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? Counters{} : it->second;
}

std::uint64_t CheckpointManager::counter(const std::string& key,
                                         const std::string& name,
                                         std::uint64_t fallback) const {
  const std::scoped_lock lock(mutex_);
  const auto entry = entries_.find(key);
  if (entry == entries_.end()) return fallback;
  const auto it = entry->second.find(name);
  return it == entry->second.end() ? fallback : it->second;
}

std::vector<std::string> CheckpointManager::keys_with_prefix(
    const std::string& prefix) const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.rfind(prefix, 0) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

std::map<std::uint64_t, std::string> CheckpointManager::numbered_keys(
    const std::string& prefix) const {
  std::map<std::uint64_t, std::string> out;
  for (std::string& key : keys_with_prefix(prefix)) {
    const std::uint64_t number =
        parse_u64(std::string_view(key).substr(prefix.size()), 10).value();
    out.emplace(number, std::move(key));
  }
  return out;
}

void CheckpointManager::record(const std::string& key,
                               const Counters& counters) {
  const obs::WallSpan span =
      obs::wall_span("core.checkpoint", [&] { return "record:" + key; });
  std::string line = "entry " + key;
  for (const auto& [name, value] : counters) {
    line += ' ' + name + '=' + std::to_string(value);
  }
  line += '\n';
  const std::scoped_lock lock(mutex_);
  const std::filesystem::path path = dir_ / kManifestName;
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << line;
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot append to checkpoint manifest " +
                             path.string());
  }
  entries_[key] = counters;
}

void CheckpointManager::write_header_locked() {
  const std::filesystem::path final_path = dir_ / kManifestName;
  const std::filesystem::path tmp_path =
      dir_ / (std::string(kManifestName) + ".tmp");
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot write checkpoint manifest " +
                               tmp_path.string());
    }
    out << kHeader << '\n';
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(input_fingerprint_));
    out << "input " << hex << '\n';
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(config_hash_));
    out << "config " << hex << '\n';
    out.flush();
    if (!out) {
      throw std::runtime_error("short write to checkpoint manifest " +
                               tmp_path.string());
    }
  }
  std::filesystem::rename(tmp_path, final_path);
}

void CheckpointManager::save_bytes(const std::string& name,
                                   std::size_t record_size,
                                   std::uint64_t count,
                                   std::span<const std::byte> payload) {
  const std::filesystem::path path = dir_ / ("checkpoint." + name);
  const std::filesystem::path tmp = path.string() + ".tmp";
  const SidecarHeader header{kSidecarMagic, kSidecarVersion,
                             static_cast<std::uint32_t>(record_size), count,
                             payload_checksum(payload)};
  {
    io::WriteOnlyStream out(tmp, *io_);
    out.write_bytes(std::as_bytes(std::span<const SidecarHeader>(&header, 1)));
    out.write_bytes(payload);
    out.close();
  }
  std::filesystem::rename(tmp, path);
}

bool CheckpointManager::load_bytes(
    const std::string& name, std::size_t record_size,
    const std::function<std::span<std::byte>(std::uint64_t)>& alloc) const {
  const std::filesystem::path path = dir_ / ("checkpoint." + name);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size < sizeof(SidecarHeader)) return false;
  io::ReadOnlyStream in(path, *io_);
  SidecarHeader header;
  in.read_bytes(std::as_writable_bytes(std::span<SidecarHeader>(&header, 1)));
  // The count is checked against the bytes actually present before it
  // sizes anything.
  const std::uintmax_t payload_bytes = size - sizeof(SidecarHeader);
  if (header.magic != kSidecarMagic || header.version != kSidecarVersion ||
      header.record_size != record_size ||
      header.count != payload_bytes / record_size ||
      payload_bytes % record_size != 0) {
    return false;
  }
  const std::span<std::byte> payload = alloc(header.count);
  return in.read_bytes(payload) == payload.size() &&
         payload_checksum(payload) == header.checksum;
}

std::uint64_t CheckpointManager::fingerprint_inputs(
    const std::vector<std::filesystem::path>& files) {
  std::uint64_t hash = util::fnv::kOffset;
  std::vector<char> block(1 << 20);
  for (const auto& file : files) {
    const std::string name = file.filename().string();
    hash = util::fnv::fold_bytes(hash, name.data(), name.size());
    hash = util::fnv::fold_u64(hash, std::filesystem::file_size(file));
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      throw std::system_error(errno, std::generic_category(),
                              "open " + file.string());
    }
    while (in.read(block.data(), static_cast<std::streamsize>(block.size())) ||
           in.gcount() > 0) {
      hash = util::fnv::fold_bytes(hash, block.data(),
                                   static_cast<std::size_t>(in.gcount()));
    }
    if (in.bad()) {
      throw std::system_error(errno, std::generic_category(),
                              "read " + file.string());
    }
  }
  return hash;
}

std::uint64_t hash_assembly_config(const RunConfig& config) {
  std::uint64_t hash = util::fnv::kOffset;
  for (const std::uint64_t value :
       {std::uint64_t{config.min_overlap}, config.machine.host_memory_bytes,
        config.machine.device_memory_bytes,
        config.fingerprints.primary.radix,
        config.fingerprints.primary.modulus,
        config.fingerprints.secondary.radix,
        config.fingerprints.secondary.modulus,
        static_cast<std::uint64_t>(config.graph)}) {
    hash = util::fnv::fold_u64(hash, value);
  }
  return hash;
}

}  // namespace lasagna::core
