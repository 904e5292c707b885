#ifndef DIFFC_NET_CURSOR_H_
#define DIFFC_NET_CURSOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace diffc::net {

/// The single audited home of raw byte reads on the decode path.
///
/// Every decoder that consumes untrusted bytes — the wire codecs in
/// net/wire.{h,cc}, the frame-header validator, the HTTP request-head
/// parser — reads through a `ByteCursor`; the `decoder-discipline` rule of
/// tools/diffc_lint.py rejects `memcpy` / `reinterpret_cast` / pointer
/// arithmetic in those files, so an out-of-bounds read can only be written
/// *here*, where the fuzz targets (fuzz/) hammer it under ASan+UBSan.
///
/// Every `Try*` either consumes exactly its advertised bytes and returns
/// true, or consumes nothing and returns false — a failed read never
/// advances the cursor and never touches memory past `size`. Scalars are
/// little-endian, matching the wire format (DESIGN.md §11).
class ByteCursor {
 public:
  ByteCursor(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteCursor(const std::vector<std::uint8_t>& buf)
      : ByteCursor(buf.data(), buf.size()) {}

  /// Bytes not yet consumed.
  std::size_t remaining() const { return size_ - pos_; }
  /// Bytes consumed so far.
  std::size_t consumed() const { return pos_; }
  /// True iff the buffer was consumed exactly.
  bool exhausted() const { return pos_ == size_; }

  bool TryU8(std::uint8_t* out) {
    if (remaining() < 1) return false;
    *out = data_[pos_++];
    return true;
  }

  bool TryU32(std::uint32_t* out) {
    if (remaining() < 4) return false;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
    pos_ += 4;
    *out = v;
    return true;
  }

  bool TryU64(std::uint64_t* out) {
    if (remaining() < 8) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += 8;
    *out = v;
    return true;
  }

  /// Copies the next `len` bytes into `*out` (replacing its contents).
  bool TryBytes(std::size_t len, std::string* out) {
    if (remaining() < len) return false;
    out->assign(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return true;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace diffc::net

#endif  // DIFFC_NET_CURSOR_H_
