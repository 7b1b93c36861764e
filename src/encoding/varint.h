//===- varint.h - Variable-length byte codes ------------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Variable-length byte codes ("byte codes" in the paper, Sec. 3): an
/// unsigned integer is stored in 7-bit groups, least significant first, with
/// the high bit of each byte marking continuation. The paper uses byte codes
/// rather than gamma codes because they are cheap to encode/decode and waste
/// little space [Shun, Dhulipala, Blelloch, DCC'15].
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_ENCODING_VARINT_H
#define CPAM_ENCODING_VARINT_H

#include <cstddef>
#include <cstdint>

namespace cpam {

/// Number of bytes byte-coding \p X requires (1..10).
inline size_t varint_size(uint64_t X) {
  size_t N = 1;
  while (X >= 0x80) {
    X >>= 7;
    ++N;
  }
  return N;
}

/// Longest byte code of a value of the unsigned type \p T: ceil(bits / 7).
template <class T> constexpr size_t varint_max_size() {
  return (8 * sizeof(T) + 6) / 7;
}

/// Encodes \p X at \p Out; returns one past the last byte written.
inline uint8_t *varint_encode(uint64_t X, uint8_t *Out) {
  while (X >= 0x80) {
    *Out++ = static_cast<uint8_t>(X) | 0x80;
    X >>= 7;
  }
  *Out++ = static_cast<uint8_t>(X);
  return Out;
}

/// Decodes a value at \p In into \p X; returns one past the last byte read.
inline const uint8_t *varint_decode(const uint8_t *In, uint64_t &X) {
  uint64_t Result = 0;
  int Shift = 0;
  uint8_t Byte;
  do {
    Byte = *In++;
    Result |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
    Shift += 7;
  } while (Byte & 0x80);
  X = Result;
  return In;
}

/// ZigZag maps signed to unsigned so small magnitudes stay small.
inline uint64_t zigzag_encode(int64_t X) {
  return (static_cast<uint64_t>(X) << 1) ^ static_cast<uint64_t>(X >> 63);
}

inline int64_t zigzag_decode(uint64_t X) {
  return static_cast<int64_t>(X >> 1) ^ -static_cast<int64_t>(X & 1);
}

} // namespace cpam

#endif // CPAM_ENCODING_VARINT_H
