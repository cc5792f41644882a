#include "nn/checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <string>

namespace tdfm::nn {

namespace {

constexpr std::uint64_t kMagicV1 = 0x7dF30001ULL;  // 'tdfm' + format version 1
constexpr std::uint64_t kMagicV2 = 0x7dF30002ULL;  // + arch metadata header
constexpr std::uint64_t kMagicV3 = 0x7dF30003ULL;  // + flags word (quantize)
constexpr std::uint32_t kMaxArchNameLen = 256;     // sanity bound on the header

constexpr std::uint32_t kFlagQuantize = 1U << 0;   // v3 flags bit 0
constexpr std::uint32_t kKnownFlags = kFlagQuantize;

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
void read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
}

std::uint32_t read_version(std::ifstream& in, const std::string& path) {
  std::uint64_t magic = 0;
  read_pod(in, magic);
  if (!in ||
      (magic != kMagicV1 && magic != kMagicV2 && magic != kMagicV3)) {
    throw Error("not a tdfm checkpoint (bad header): " + path);
  }
  return static_cast<std::uint32_t>(magic - kMagicV1) + 1;
}

/// Reads the v2/v3 metadata block (caller has consumed the magic).
CheckpointMeta read_meta_block(std::ifstream& in, const std::string& path,
                               std::uint32_t version) {
  CheckpointMeta meta;
  meta.format_version = version;
  std::uint32_t arch_len = 0;
  read_pod(in, arch_len);
  if (!in || arch_len == 0 || arch_len > kMaxArchNameLen) {
    throw Error("checkpoint metadata corrupt (arch name length): " + path);
  }
  meta.arch.resize(arch_len);
  in.read(meta.arch.data(), arch_len);
  read_pod(in, meta.width);
  read_pod(in, meta.in_channels);
  read_pod(in, meta.image_size);
  read_pod(in, meta.num_classes);
  if (version >= 3) {
    std::uint32_t flags = 0;
    read_pod(in, flags);
    if (in && (flags & ~kKnownFlags) != 0) {
      throw Error("checkpoint metadata corrupt (unknown flags): " + path);
    }
    meta.quantize = (flags & kFlagQuantize) != 0;
  }
  if (!in) throw Error("checkpoint metadata truncated: " + path);
  if (meta.width == 0 || meta.in_channels == 0 || meta.image_size == 0 ||
      meta.num_classes < 2) {
    throw Error("checkpoint metadata corrupt (bad geometry): " + path);
  }
  return meta;
}

void write_weights(std::ofstream& out, Network& net, const std::string& path) {
  const std::vector<float> weights = net.save_weights();
  const std::uint64_t count = weights.size();
  write_pod(out, count);
  out.write(reinterpret_cast<const char*>(weights.data()),
            static_cast<std::streamsize>(count * sizeof(float)));
  if (!out) throw Error("failed writing checkpoint: " + path);
}

std::vector<float> read_weights(std::ifstream& in, const std::string& path) {
  std::uint64_t count = 0;
  read_pod(in, count);
  if (!in) throw Error("checkpoint truncated: " + path);
  // Bound the allocation by the bytes actually present, so a forged count
  // cannot reach the vector (length_error, or gigabytes zero-filled).
  const std::streamoff here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff left = in.tellg() - here;
  in.seekg(here);
  if (!in || count > static_cast<std::uint64_t>(left) / sizeof(float)) {
    throw Error("checkpoint truncated: " + path + " declares " +
                std::to_string(count) + " weights but " +
                std::to_string(left) + " bytes follow");
  }
  std::vector<float> weights(count);
  in.read(reinterpret_cast<char*>(weights.data()),
          static_cast<std::streamsize>(count * sizeof(float)));
  if (!in) throw Error("checkpoint truncated: " + path);
  return weights;
}

}  // namespace

void save_checkpoint(Network& net, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open checkpoint file for writing: " + path);
  write_pod(out, kMagicV1);
  write_weights(out, net, path);
}

void save_checkpoint(Network& net, const std::string& path,
                     const CheckpointMeta& meta) {
  TDFM_CHECK(!meta.arch.empty() && meta.arch.size() <= kMaxArchNameLen,
             "checkpoint metadata needs an architecture name");
  TDFM_CHECK(meta.width > 0 && meta.in_channels > 0 && meta.image_size > 0 &&
                 meta.num_classes >= 2,
             "checkpoint metadata geometry incomplete");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open checkpoint file for writing: " + path);
  // v2 stays the output format while no v3-only field is used, so
  // checkpoints written by older configurations remain byte-identical.
  const bool v3 = meta.quantize;
  write_pod(out, v3 ? kMagicV3 : kMagicV2);
  const auto arch_len = static_cast<std::uint32_t>(meta.arch.size());
  write_pod(out, arch_len);
  out.write(meta.arch.data(), arch_len);
  write_pod(out, meta.width);
  write_pod(out, meta.in_channels);
  write_pod(out, meta.image_size);
  write_pod(out, meta.num_classes);
  if (v3) {
    const std::uint32_t flags = meta.quantize ? kFlagQuantize : 0U;
    write_pod(out, flags);
  }
  write_weights(out, net, path);
}

std::uint32_t checkpoint_format_version(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint file: " + path);
  return read_version(in, path);
}

CheckpointMeta read_checkpoint_meta(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint file: " + path);
  const std::uint32_t version = read_version(in, path);
  if (version == 1) {
    throw Error(
        "checkpoint has no architecture metadata (v1 count-only format; "
        "supply the architecture explicitly): " +
        path);
  }
  return read_meta_block(in, path, version);
}

void load_checkpoint(Network& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint file: " + path);
  const std::uint32_t version = read_version(in, path);
  if (version >= 2) {
    (void)read_meta_block(in, path, version);  // validated, then skipped
  }
  // load_weights validates the count against the network's structure.
  net.load_weights(read_weights(in, path));
}

}  // namespace tdfm::nn
