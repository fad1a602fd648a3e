#include "mesh/mesh_block.h"

#include <algorithm>

#include "util/crc64.h"
#include "util/serialize.h"

namespace roc::mesh {

MeshBlock MeshBlock::structured(int block_id, std::array<int, 3> node_dims) {
  require(node_dims[0] >= 2 && node_dims[1] >= 2 && node_dims[2] >= 2,
          "structured block needs at least 2 nodes per dimension");
  MeshBlock b;
  b.id_ = block_id;
  b.kind_ = MeshKind::kStructured;
  b.dims_ = node_dims;
  b.coords_.assign(3 * b.node_count(), 0.0);
  return b;
}

MeshBlock MeshBlock::unstructured(int block_id, size_t node_count,
                                  std::vector<int32_t> connectivity) {
  require(connectivity.size() % 4 == 0,
          "tetrahedral connectivity must be a multiple of 4");
  for (int32_t v : connectivity)
    require(v >= 0 && static_cast<size_t>(v) < node_count,
            "connectivity references a node out of range");
  MeshBlock b;
  b.id_ = block_id;
  b.kind_ = MeshKind::kUnstructured;
  b.node_count_ = node_count;
  b.connectivity_ = std::move(connectivity);
  b.coords_.assign(3 * node_count, 0.0);
  return b;
}

size_t MeshBlock::node_count() const {
  if (kind_ == MeshKind::kStructured)
    return static_cast<size_t>(dims_[0]) * static_cast<size_t>(dims_[1]) *
           static_cast<size_t>(dims_[2]);
  return node_count_;
}

size_t MeshBlock::element_count() const {
  if (kind_ == MeshKind::kStructured)
    return static_cast<size_t>(dims_[0] - 1) *
           static_cast<size_t>(dims_[1] - 1) *
           static_cast<size_t>(dims_[2] - 1);
  return connectivity_.size() / 4;
}

Field& MeshBlock::add_field(const std::string& name, Centering centering,
                            int ncomp) {
  require(ncomp >= 1, "field needs at least one component");
  require(find_field(name) == nullptr,
          "duplicate field '" + name + "' on block " + std::to_string(id_));
  Field f;
  f.name = name;
  f.centering = centering;
  f.ncomp = ncomp;
  f.data.assign(static_cast<size_t>(ncomp) * entity_count(centering), 0.0);
  fields_.push_back(std::move(f));
  return fields_.back();
}

Field* MeshBlock::find_field(const std::string& name) {
  for (auto& f : fields_)
    if (f.name == name) return &f;
  return nullptr;
}

const Field* MeshBlock::find_field(const std::string& name) const {
  for (const auto& f : fields_)
    if (f.name == name) return &f;
  return nullptr;
}

Field& MeshBlock::field(const std::string& name) {
  Field* f = find_field(name);
  require(f != nullptr, "no field '", name, "' on block ", id_);
  return *f;
}

const Field& MeshBlock::field(const std::string& name) const {
  const Field* f = find_field(name);
  require(f != nullptr, "no field '", name, "' on block ", id_);
  return *f;
}

size_t MeshBlock::payload_bytes() const {
  size_t n = coords_.size() * sizeof(double) +
             connectivity_.size() * sizeof(int32_t);
  for (const auto& f : fields_) n += f.data.size() * sizeof(double);
  return n;
}

uint64_t MeshBlock::state_checksum() const {
  Crc64 crc;
  crc.update_value(id_);
  crc.update_value(kind_);
  crc.update(dims_.data(), sizeof(dims_));
  crc.update(coords_.data(), coords_.size() * sizeof(double));
  crc.update(connectivity_.data(), connectivity_.size() * sizeof(int32_t));
  // Fields sorted by name so the fingerprint is registration-order
  // independent.
  std::vector<const Field*> sorted;
  sorted.reserve(fields_.size());
  for (const auto& f : fields_) sorted.push_back(&f);
  std::sort(sorted.begin(), sorted.end(),
            [](const Field* a, const Field* b) { return a->name < b->name; });
  for (const Field* f : sorted) {
    crc.update(f->name.data(), f->name.size());
    crc.update_value(f->centering);
    crc.update_value(f->ncomp);
    crc.update(f->data.data(), f->data.size() * sizeof(double));
  }
  return crc.value();
}

std::vector<unsigned char> MeshBlock::serialize() const {
  ByteWriter w;
  w.reserve(payload_bytes() + 256);
  w.put<int32_t>(id_);
  w.put<uint8_t>(static_cast<uint8_t>(kind_));
  for (int d : dims_) w.put<int32_t>(d);
  w.put<uint64_t>(node_count_);
  w.put_vector(coords_);
  w.put_vector(connectivity_);
  w.put<uint32_t>(static_cast<uint32_t>(fields_.size()));
  for (const auto& f : fields_) {
    w.put_string(f.name);
    w.put<uint8_t>(static_cast<uint8_t>(f.centering));
    w.put<int32_t>(f.ncomp);
    w.put_vector(f.data);
  }
  return w.take();
}

MeshBlock MeshBlock::deserialize(const unsigned char* data, size_t n) {
  ByteReader r(data, n);
  MeshBlock b;
  b.id_ = r.get<int32_t>();
  const auto kind = r.get<uint8_t>();
  if (kind > 1) throw FormatError("bad mesh kind in serialized block");
  b.kind_ = static_cast<MeshKind>(kind);
  for (auto& d : b.dims_) d = r.get<int32_t>();
  b.node_count_ = r.get<uint64_t>();
  b.coords_ = r.get_vector<double>();
  b.connectivity_ = r.get_vector<int32_t>();
  const auto nfields = r.get<uint32_t>();
  // Smallest serialized field is ~17 bytes; guard the reserve against
  // corrupted counts.
  if (nfields > r.remaining() / 17)
    throw FormatError("field count exceeds stream in serialized block");
  b.fields_.reserve(nfields);
  for (uint32_t i = 0; i < nfields; ++i) {
    Field f;
    f.name = r.get_string();
    f.centering = static_cast<Centering>(r.get<uint8_t>());
    f.ncomp = r.get<int32_t>();
    f.data = r.get_vector<double>();
    b.fields_.push_back(std::move(f));
  }
  return b;
}

void require_coords_fit(const MeshBlock& dst, size_t stored_values) {
  require(stored_values == dst.coords().size(), "block ", dst.id(),
          ": stored coordinates do not match the registered pane");
}

void require_field_fits(const MeshBlock& dst, const Field& g,
                        size_t stored_values, int stored_ncomp) {
  require(stored_values == g.data.size() && stored_ncomp == g.ncomp,
          "block ", dst.id(), ": stored field '", g.name,
          "' does not match the registered pane");
}

void copy_block_attribute(const MeshBlock& src, MeshBlock& dst,
                          const std::string& attribute) {
  require(src.id() == dst.id(), "copy_block_attribute: block id mismatch");
  auto copy_mesh = [&] {
    require_coords_fit(dst, src.coords().size());
    dst.coords() = src.coords();
  };
  auto copy_field = [&](const std::string& name) {
    const Field& f = src.field(name);
    Field& g = dst.field(name);
    require_field_fits(dst, g, f.data.size(), f.ncomp);
    g.data = f.data;
  };
  if (attribute == "all") {
    copy_mesh();
    for (const auto& f : dst.fields()) copy_field(f.name);
  } else if (attribute == "mesh") {
    copy_mesh();
  } else {
    copy_field(attribute);
  }
}

}  // namespace roc::mesh
