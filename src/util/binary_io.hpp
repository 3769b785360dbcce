// Simple self-describing binary container for 3-D fields ("BDF1" format).
//
// Stands in for the NetCDF files the real system writes: the final forecast
// product whose file timestamp defines the end of time-to-solution (paper
// Sec. 6.1, "Measurement mechanism: final product file time stamp"), and the
// legacy SCALE<->LETKF file transport that the parallel in-memory path
// replaced.  Little-endian; header carries dims and scalar width.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/field.hpp"

namespace bda::io {

// The repo's single home for byte-level type punning.  Everything goes
// through std::memcpy on trivially-copyable types (defined behaviour, and
// compilers lower it to plain loads/stores), so serializers elsewhere never
// need a reinterpret_cast of their own — tools/bda_analyze (reinterpret-cast)
// enforces that only util/binary_io.cpp may spell one.

/// Append the object representation of `v` to `buf` (native endianness).
template <typename T>
void put_scalar(std::vector<std::uint8_t>& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t old = buf.size();
  buf.resize(old + sizeof(T));
  std::memcpy(buf.data() + old, &v, sizeof(T));
}

/// Read a `T` at `pos` and advance; throws if the buffer is too short.
template <typename T>
T take_scalar(const std::vector<std::uint8_t>& buf, std::size_t& pos,
              const char* what = "binary_io") {
  static_assert(std::is_trivially_copyable_v<T>);
  if (pos + sizeof(T) > buf.size())
    throw std::runtime_error(std::string(what) + ": truncated buffer");
  T v;
  std::memcpy(&v, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

/// Append the raw bytes of `n` contiguous elements at `p`.
template <typename T>
void append_raw(std::vector<std::uint8_t>& buf, const T* p, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t old = buf.size();
  buf.resize(old + n * sizeof(T));
  std::memcpy(buf.data() + old, p, n * sizeof(T));
}

/// Copy `n` elements out of `buf` at `pos` into `dst` and advance; throws if
/// the buffer is too short.
template <typename T>
void take_raw(const std::vector<std::uint8_t>& buf, std::size_t& pos, T* dst,
              std::size_t n, const char* what = "binary_io") {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t bytes = n * sizeof(T);
  if (pos + bytes > buf.size())
    throw std::runtime_error(std::string(what) + ": truncated buffer");
  std::memcpy(dst, buf.data() + pos, bytes);
  pos += bytes;
}

/// Write a whole byte buffer to `path` (binary, truncating); throws on I/O
/// failure.  `what` prefixes error messages ("BDF", "PWR1", ...).
/// NOTE: writes in place — a concurrent reader can observe a truncated
/// file.  Product-of-record paths must use write_file_atomic instead.
void write_file(const std::string& path, const std::vector<std::uint8_t>& buf,
                const char* what = "binary_io");

/// Write `buf` to a unique temp file next to `path`, then rename it into
/// place.  rename(2) is atomic within a filesystem, so a concurrent reader
/// (the serving tier, the ops watcher, the JIT-DT directory poll) sees
/// either the previous complete file or the new complete file — never a
/// torn intermediate whose mtime already claims T_fcst.  Throws on I/O
/// failure; the temp file is removed on error.
void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& buf,
                       const char* what = "binary_io");

}  // namespace bda::io

namespace bda {

struct FieldRecord {
  std::string name;       ///< variable name, e.g. "qr" or "reflectivity"
  Field3D<float> data;    ///< interior values (halo is never serialized)
};

/// Write records to `path`; throws std::runtime_error on I/O failure.
void write_bdf(const std::string& path, const std::vector<FieldRecord>& recs);

/// Read all records; throws std::runtime_error on missing/corrupt file.
std::vector<FieldRecord> read_bdf(const std::string& path);

/// Serialize to an in-memory buffer (used by the host I/O calibration and by
/// JIT-DT framing tests).
std::vector<std::uint8_t> encode_bdf(const std::vector<FieldRecord>& recs);
std::vector<FieldRecord> decode_bdf(const std::vector<std::uint8_t>& buf);

/// CRC32 (IEEE) — JIT-DT verifies every transferred chunk with this.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

}  // namespace bda
