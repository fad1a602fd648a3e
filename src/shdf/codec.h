#pragma once
/// \file codec.h
/// \brief Dataset payload codecs (SHDF's analogue of HDF's I/O filters).
///
/// kZeroRle targets the dominant redundancy in simulation snapshots:
/// long zero runs (untouched fields, padded regions, sparse interface
/// loads).  Token stream:
///   0x00 <u32 n>            n zero bytes
///   0x01 <u32 n> <n bytes>  literal bytes
/// Runs shorter than 16 zero bytes are folded into literals, so
/// incompressible data grows by at most ~5 bytes per 4 GiB literal chunk.
/// The dataset checksum is always over the UNCOMPRESSED payload, so
/// corruption is detected after decoding.

#include <cstdint>
#include <vector>

#include "util/error.h"

namespace roc::shdf {

enum class Codec : uint8_t {
  kNone = 0,
  kZeroRle = 1,
};

[[nodiscard]] const char* codec_name(Codec c);

/// Encodes `n` bytes with the codec (kNone returns a plain copy).
[[nodiscard]] std::vector<unsigned char> encode(Codec c, const void* data,
                                                size_t n);

/// Decodes into exactly `expected_bytes`; throws FormatError on malformed
/// streams or size mismatch.
[[nodiscard]] std::vector<unsigned char> decode(Codec c,
                                                const unsigned char* data,
                                                size_t n,
                                                uint64_t expected_bytes);

/// decode() into caller storage: `out` has room for exactly
/// `expected_bytes`, and the same streams are rejected.
void decode_into(Codec c, const unsigned char* data, size_t n,
                 unsigned char* out, uint64_t expected_bytes);

}  // namespace roc::shdf
