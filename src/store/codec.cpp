#include "store/codec.hpp"

#include <cstring>
#include <vector>

#include "core/error.hpp"
#include "core/varint.hpp"

#ifdef TDFM_HAVE_ZLIB
#include <zlib.h>
#endif

namespace tdfm::store {

namespace {

// --- built-in LZ codec ------------------------------------------------------
//
// LZ4-flavoured token stream, chosen for a trivially verifiable decoder:
//   token byte: high nibble = literal length, low nibble = match length - 4
//   (nibble 15 extends with 255-run bytes), then the literals, then a
//   2-byte little-endian backwards offset (1..65535).  The final sequence
//   carries literals only — its token's low nibble is unused (0) and no
//   offset follows.  Matching is greedy over a 64Ki hash table of 4-byte
//   prefixes; correctness never depends on the matcher, only the format.

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 15;
// The most bytes one compressed byte can decode to: a length-run byte adds
// at most 255 to a match, and every other byte yields fewer.
constexpr std::size_t kTlzMaxExpansion = 255;
// Deflate's limit: a 258-byte match coded in two bits.
constexpr std::size_t kZlibMaxExpansion = 1032;

/// Throws unless `comp` can decode to `raw_size` bytes, so a size forged in
/// a segment or telemetry block never sizes an allocation.
void check_expansion(const char* codec, std::string_view comp,
                     std::size_t raw_size, std::size_t max_expansion) {
  if (raw_size / max_expansion > comp.size()) {
    throw ConfigError(std::string("store block: ") + codec + " block of " +
                      std::to_string(comp.size()) + " bytes cannot decode to " +
                      std::to_string(raw_size) + " bytes");
  }
}

std::uint32_t hash4(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_len(std::string& out, std::size_t len) {
  // Extension bytes for a nibble that saturated at 15.
  while (len >= 255) {
    out += static_cast<char>(255);
    len -= 255;
  }
  out += static_cast<char>(len);
}

std::size_t get_len(std::string_view s, std::size_t& pos) {
  std::size_t len = 0;
  while (true) {
    if (pos >= s.size()) throw ConfigError("tlz: truncated length run");
    const auto b = static_cast<std::uint8_t>(s[pos++]);
    len += b;
    if (b != 255) return len;
  }
}

}  // namespace

std::string tlz_compress(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() / 2 + 16);
  std::vector<std::size_t> table(1u << kHashBits, SIZE_MAX);
  std::size_t lit_start = 0;  // first byte not yet emitted as a literal
  std::size_t i = 0;

  const auto emit = [&](std::size_t match_pos, std::size_t match_len) {
    const std::size_t lit_len = i - lit_start;
    const std::uint8_t lit_nibble = lit_len >= 15 ? 15 : lit_len;
    if (match_len > 0) {
      const std::size_t code = match_len - kMinMatch;
      const std::uint8_t match_nibble = code >= 15 ? 15 : code;
      out += static_cast<char>((lit_nibble << 4) | match_nibble);
      if (lit_nibble == 15) put_len(out, lit_len - 15);
      out.append(raw.data() + lit_start, lit_len);
      const std::size_t offset = i - match_pos;
      out += static_cast<char>(offset & 0xFF);
      out += static_cast<char>((offset >> 8) & 0xFF);
      if (match_nibble == 15) put_len(out, code - 15);
    } else {
      out += static_cast<char>(lit_nibble << 4);
      if (lit_nibble == 15) put_len(out, lit_len - 15);
      out.append(raw.data() + lit_start, lit_len);
    }
  };

  while (i + kMinMatch <= raw.size()) {
    const std::uint32_t h = hash4(raw.data() + i);
    const std::size_t cand = table[h];
    table[h] = i;
    if (cand != SIZE_MAX && i - cand <= kMaxOffset &&
        std::memcmp(raw.data() + cand, raw.data() + i, kMinMatch) == 0) {
      std::size_t len = kMinMatch;
      while (i + len < raw.size() && raw[cand + len] == raw[i + len]) ++len;
      emit(cand, len);
      i += len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  i = raw.size();
  emit(0, 0);  // final literals-only sequence (may be empty)
  return out;
}

std::string tlz_decompress(std::string_view comp, std::size_t raw_size) {
  check_expansion("tlz", comp, raw_size, kTlzMaxExpansion);
  std::string out;
  out.reserve(raw_size);
  std::size_t pos = 0;
  while (true) {
    if (pos >= comp.size()) throw ConfigError("tlz: truncated stream");
    const auto token = static_cast<std::uint8_t>(comp[pos++]);
    std::size_t lit_len = token >> 4;
    if (lit_len == 15) lit_len += get_len(comp, pos);
    if (pos + lit_len > comp.size()) throw ConfigError("tlz: truncated literals");
    out.append(comp.data() + pos, lit_len);
    pos += lit_len;
    if (pos == comp.size()) break;  // final sequence: literals only
    if (pos + 2 > comp.size()) throw ConfigError("tlz: truncated offset");
    const std::size_t offset =
        static_cast<std::uint8_t>(comp[pos]) |
        (static_cast<std::size_t>(static_cast<std::uint8_t>(comp[pos + 1]))
         << 8);
    pos += 2;
    if (offset == 0 || offset > out.size()) {
      throw ConfigError("tlz: match offset outside decoded window");
    }
    std::size_t match_len = (token & 0x0F) + kMinMatch;
    if ((token & 0x0F) == 15) match_len += get_len(comp, pos);
    if (out.size() + match_len > raw_size) {
      throw ConfigError("tlz: output overruns declared size");
    }
    // Byte-at-a-time on purpose: offsets < match_len replicate runs.
    const std::size_t start = out.size() - offset;
    for (std::size_t k = 0; k < match_len; ++k) out += out[start + k];
  }
  if (out.size() != raw_size) {
    throw ConfigError("tlz: decoded " + std::to_string(out.size()) +
                      " bytes, expected " + std::to_string(raw_size));
  }
  return out;
}

bool zlib_available() {
#ifdef TDFM_HAVE_ZLIB
  return true;
#else
  return false;
#endif
}

std::pair<Codec, std::string> compress_block(std::string_view raw) {
#ifdef TDFM_HAVE_ZLIB
  if (!raw.empty()) {
    uLongf bound = compressBound(static_cast<uLong>(raw.size()));
    std::string z(bound, '\0');
    const int rc =
        compress2(reinterpret_cast<Bytef*>(z.data()), &bound,
                  reinterpret_cast<const Bytef*>(raw.data()),
                  static_cast<uLong>(raw.size()), Z_DEFAULT_COMPRESSION);
    if (rc == Z_OK && bound < raw.size()) {
      z.resize(bound);
      return {Codec::kZlib, std::move(z)};
    }
  }
#else
  if (!raw.empty()) {
    std::string t = tlz_compress(raw);
    if (t.size() < raw.size()) return {Codec::kTlz, std::move(t)};
  }
#endif
  return {Codec::kRaw, std::string(raw)};
}

std::string decompress_block(Codec codec, std::string_view comp,
                             std::size_t raw_size) {
  switch (codec) {
    case Codec::kRaw:
      if (comp.size() != raw_size) {
        throw ConfigError("store block: raw size mismatch");
      }
      return std::string(comp);
    case Codec::kTlz:
      return tlz_decompress(comp, raw_size);
    case Codec::kZlib: {
#ifdef TDFM_HAVE_ZLIB
      check_expansion("zlib", comp, raw_size, kZlibMaxExpansion);
      std::string out(raw_size, '\0');
      uLongf dest_len = static_cast<uLongf>(raw_size);
      const int rc =
          uncompress(reinterpret_cast<Bytef*>(out.data()), &dest_len,
                     reinterpret_cast<const Bytef*>(comp.data()),
                     static_cast<uLong>(comp.size()));
      if (rc != Z_OK || dest_len != raw_size) {
        throw ConfigError("store block: zlib inflate failed");
      }
      return out;
#else
      throw ConfigError(
          "store block was compressed with zlib but this build has no zlib "
          "support — rebuild with zlib to read this store");
#endif
    }
  }
  throw ConfigError("store block: unknown codec " +
                    std::to_string(static_cast<int>(codec)));
}

}  // namespace tdfm::store
