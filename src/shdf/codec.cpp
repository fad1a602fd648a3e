#include "shdf/codec.h"

#include <cstring>

#include "util/serialize.h"

namespace roc::shdf {

namespace {

constexpr size_t kMinZeroRun = 16;
constexpr uint8_t kTokZeros = 0x00;
constexpr uint8_t kTokLiteral = 0x01;

void put_literal(ByteWriter& w, const unsigned char* p, size_t n) {
  while (n > 0) {
    const size_t chunk = std::min<size_t>(n, UINT32_MAX);
    w.put<uint8_t>(kTokLiteral);
    w.put<uint32_t>(static_cast<uint32_t>(chunk));
    w.put_bytes(p, chunk);
    p += chunk;
    n -= chunk;
  }
}

}  // namespace

const char* codec_name(Codec c) {
  switch (c) {
    case Codec::kNone: return "none";
    case Codec::kZeroRle: return "zero-rle";
  }
  return "?";
}

// ROC_COLD: compression is the opt-in ablation; the zero-copy pipeline
// ships Codec::kNone and never materialises through here.
ROC_COLD std::vector<unsigned char> encode(Codec c, const void* data,
                                           size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  if (c == Codec::kNone) return {p, p + n};

  ByteWriter w;
  w.reserve(n / 4 + 16);
  size_t literal_start = 0;
  size_t i = 0;
  while (i < n) {
    if (p[i] != 0) {
      ++i;
      continue;
    }
    // Measure the zero run starting at i.
    size_t j = i;
    while (j < n && p[j] == 0) ++j;
    if (j - i >= kMinZeroRun) {
      if (i > literal_start)
        put_literal(w, p + literal_start, i - literal_start);
      size_t run = j - i;
      while (run > 0) {
        const size_t chunk = std::min<size_t>(run, UINT32_MAX);
        w.put<uint8_t>(kTokZeros);
        w.put<uint32_t>(static_cast<uint32_t>(chunk));
        run -= chunk;
      }
      literal_start = j;
    }
    i = j;
  }
  if (n > literal_start) put_literal(w, p + literal_start, n - literal_start);
  return w.take();
}

std::vector<unsigned char> decode(Codec c, const unsigned char* data,
                                  size_t n, uint64_t expected_bytes) {
  if (c == Codec::kNone && n != expected_bytes)
    throw FormatError("uncompressed payload size mismatch");
  std::vector<unsigned char> out(static_cast<size_t>(expected_bytes));
  decode_into(c, data, n, out.data(), expected_bytes);
  return out;
}

void decode_into(Codec c, const unsigned char* data, size_t n,
                 unsigned char* out, uint64_t expected_bytes) {
  if (c == Codec::kNone) {
    if (n != expected_bytes)
      throw FormatError("uncompressed payload size mismatch");
    // memcpy's arguments are declared nonnull even for zero sizes.
    if (n > 0) std::memcpy(out, data, n);
    return;
  }

  uint64_t produced = 0;
  ByteReader r(data, n);
  while (!r.at_end()) {
    const auto tok = r.get<uint8_t>();
    const auto count = r.get<uint32_t>();
    if (produced + count > expected_bytes)
      throw FormatError("codec stream produces more bytes than declared");
    if (tok == kTokZeros) {
      if (count > 0) std::memset(out + produced, 0, count);
    } else if (tok == kTokLiteral) {
      r.get_bytes(out + produced, count);
    } else {
      throw FormatError("unknown codec token");
    }
    produced += count;
  }
  if (produced != expected_bytes)
    throw FormatError("codec stream produces fewer bytes than declared");
}

}  // namespace roc::shdf
