#pragma once
/// \file reader.h
/// \brief SHDF file reader.
///
/// The reader honours the file's directory engine: a kLinear file is looked
/// up by scanning the directory in insertion order (HDF4-like, O(n) per
/// lookup), a kIndexed file by binary search.  Payload integrity is verified
/// against the stored CRC-64 on every read.

#include <memory>
#include <optional>

#include "shdf/format.h"
#include "vfs/vfs.h"

namespace roc::shdf {

class Reader {
 public:
  /// Opens `path` and loads the directory + all dataset headers.
  Reader(vfs::FileSystem& fs, const std::string& path);

  [[nodiscard]] size_t dataset_count() const { return infos_.size(); }
  [[nodiscard]] DirectoryKind directory_kind() const { return kind_; }

  /// Dataset names in directory order.
  [[nodiscard]] std::vector<std::string> dataset_names() const;

  /// Names that start with `prefix` (SHDF's group convention), directory
  /// order.
  [[nodiscard]] std::vector<std::string> dataset_names_with_prefix(
      const std::string& prefix) const;

  [[nodiscard]] bool has_dataset(const std::string& name) const;

  /// Metadata of a dataset; throws FormatError if absent.
  [[nodiscard]] const DatasetInfo& info(const std::string& name) const;
  [[nodiscard]] const DatasetInfo& info(size_t index) const;

  /// Reads and checksum-verifies the raw payload.
  [[nodiscard]] std::vector<unsigned char> read_raw(
      const std::string& name) const;

  /// Typed read; throws FormatError if the stored element type mismatches T.
  template <typename T>
  [[nodiscard]] std::vector<T> read(const std::string& name) const {
    const DatasetInfo& i = info(name);
    if (i.def.type != TypeTag<T>::value)
      throw FormatError("dataset '" + name + "' has element type " +
                        std::string(type_name(i.def.type)) + ", not " +
                        std::string(type_name(TypeTag<T>::value)));
    check_extent(i);
    std::vector<T> out(static_cast<size_t>(i.data_bytes / sizeof(T)));
    read_into(i, out.data());
    return out;
  }

  /// Throws FormatError unless `i`'s stored payload lies inside the file
  /// and has the size its dims declare.  Call before sizing storage
  /// from `i.data_bytes`, so a corrupted header fails cleanly, not by OOM.
  void check_extent(const DatasetInfo& i) const;

  /// The one read pass every typed and raw read goes through: the payload
  /// of `i` (an info() of this reader) lands in `out`, which has room for
  /// exactly `i.data_bytes`, read from the file straight into it.  The
  /// extent and size are validated, but the CRC-64 is NOT checked:
  /// the caller checks `out` against `i.checksum` (read_into does it in
  /// place; Rocpanda's restart ships the stored CRC to the client that
  /// consumes the bytes).
  void read_payload_into(const DatasetInfo& i, void* out) const;

  /// read_payload_into plus the CRC-64 check of the bytes in `out`.
  void read_into(const DatasetInfo& i, void* out) const;

  /// Attribute lookup on a dataset; nullopt if the attribute is absent.
  [[nodiscard]] std::optional<AttrValue> attribute(
      const std::string& dataset, const std::string& attr) const;

 private:
  /// Index of `name` in infos_, or SIZE_MAX.  Linear scan or binary search
  /// depending on the directory kind.
  [[nodiscard]] size_t find(const std::string& name) const;

  mutable std::unique_ptr<vfs::File> file_;
  std::string path_;
  DirectoryKind kind_ = DirectoryKind::kIndexed;
  std::vector<DatasetInfo> infos_;  ///< Directory order.
};

}  // namespace roc::shdf
