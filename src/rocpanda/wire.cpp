#include "rocpanda/wire.h"

#include <cstdint>
#include <cstring>

#include "roccom/blockio.h"
#include "util/crc64.h"
#include "util/serialize.h"

namespace roc::rocpanda {

std::vector<unsigned char> WriteHeader::serialize() const {
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: one header per request, not per block.
  ByteWriter w;
  w.put_string(file);
  w.put_string(window);
  w.put_string(attribute);
  w.put<double>(time);
  w.put<uint32_t>(nblocks);
  w.put<uint64_t>(trace_id);
  w.put<uint64_t>(span_id);
  return w.take();
}

WriteHeader WriteHeader::deserialize(const void* data, size_t n) {
  ByteReader r(data, n);
  WriteHeader h;
  h.file = r.get_string();
  h.window = r.get_string();
  h.attribute = r.get_string();
  h.time = r.get<double>();
  h.nblocks = r.get<uint32_t>();
  h.trace_id = r.get<uint64_t>();
  h.span_id = r.get<uint64_t>();
  return h;
}

std::vector<unsigned char> ReadHeader::serialize() const {
  ByteWriter w;
  w.put_string(file);
  w.put_string(window);
  w.put_vector(pane_ids);
  return w.take();
}

ReadHeader ReadHeader::deserialize(const void* data, size_t n) {
  ByteReader r(data, n);
  ReadHeader h;
  h.file = r.get_string();
  h.window = r.get_string();
  h.pane_ids = r.get_vector<int32_t>();
  return h;
}

// --- wire format v2 --------------------------------------------------------
//
//   i32  pane_id
//   u8   kind        (0 = all, 1 = mesh, 2 = field; bit 7 = checksummed)
//   u8   mesh_kind   (0 = structured, 1 = unstructured; 0 for kind=field)
//   i32 x3 node_dims (structured only; zeros otherwise)
//   u32  nsections
//   per section: u8 role (0 coords | 1 connectivity | 2 field),
//                string name (empty for geometry), u8 centering, i32 ncomp,
//                u64 count (elements),
//                u64 CRC-64 of the payload (checksummed blocks only)
//   payload: the raw little-endian arrays, concatenated in table order
//            (coords/fields float64, connectivity int32)
//
// The payload arrays sit unframed after the header, which is what lets
// serialize_chain alias caller storage and WireBlockView write straight
// from received bytes.  The write direction never sets the checksum bit
// (the server checksums what it writes); restart replies always do.
//
// A restart reply whose pane could not be encoded is the error form
// instead: i32 pane_id, u8 kind = 0x40, string message.  parse_wire
// rejects that kind, so an error reply never passes for a block.

namespace {

using Section = WireBlockView::Section;

constexpr uint8_t kRoleCoords = 0;
constexpr uint8_t kRoleConn = 1;
constexpr uint8_t kRoleField = 2;

constexpr uint8_t kKindAll = 0;
constexpr uint8_t kKindField = 2;
constexpr uint8_t kKindChecksummed = 0x80;
constexpr uint8_t kKindRestoreError = 0x40;

/// Smallest encodable section-table entry, to bound nsections.
constexpr size_t kMinSectionTableBytes = 1 + 4 + 1 + 4 + 8;

struct Parsed {
  int pane_id = -1;
  uint8_t kind = 0;
  bool checksummed = false;
  mesh::MeshKind mesh_kind = mesh::MeshKind::kStructured;
  std::array<int, 3> node_dims{0, 0, 0};
  std::vector<Section> sections;
};

size_t elem_size(uint8_t role) { return role == kRoleConn ? 4 : 8; }

/// Parses and validates the header + section table of `[data, data+n)`;
/// computes each section's absolute payload offset.  Throws FormatError on
/// anything malformed, including payloads extending past the buffer, so
/// the materialising and pass-through paths reject identical inputs.
Parsed parse_wire(const unsigned char* data, size_t n) {
  ByteReader r(data, n);
  Parsed p;
  p.pane_id = r.get<int32_t>();
  const auto kind_byte = r.get<uint8_t>();
  p.checksummed = (kind_byte & kKindChecksummed) != 0;
  p.kind = static_cast<uint8_t>(kind_byte & ~kKindChecksummed);
  if (p.kind > 2) throw FormatError("bad WireBlock kind");
  const auto mk = r.get<uint8_t>();
  if (mk > 1) throw FormatError("bad mesh kind in WireBlock");
  p.mesh_kind = static_cast<mesh::MeshKind>(mk);
  for (auto& d : p.node_dims) d = r.get<int32_t>();
  const auto nsec = r.get<uint32_t>();
  if (nsec > r.remaining() / kMinSectionTableBytes)
    throw FormatError("section count exceeds stream in WireBlock");
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: bounded per-block header
  // metadata (one section table per received block, sized up front).
  p.sections.reserve(nsec);
  for (uint32_t i = 0; i < nsec; ++i) {
    Section s;
    s.role = r.get<uint8_t>();
    if (s.role > 2) throw FormatError("bad section role in WireBlock");
    s.name = r.get_string();
    s.centering = static_cast<mesh::Centering>(r.get<uint8_t>());
    s.ncomp = r.get<int32_t>();
    if (s.role == kRoleField && s.ncomp < 1)
      throw FormatError("bad field component count in WireBlock");
    s.count = r.get<uint64_t>();
    if (p.checksummed) s.crc = r.get<uint64_t>();
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: reserved above; bounded
    // per-block section metadata.
    p.sections.push_back(std::move(s));
  }
  // Lay the payload out; every section must fit in the remaining bytes
  // (guards both truncation and oversized counts before any allocation).
  uint64_t off = r.position();
  for (Section& s : p.sections) {
    const size_t esz = elem_size(s.role);
    if (s.count > (n - off) / esz)
      throw FormatError("wire payload truncated in WireBlock");
    s.offset = off;
    s.bytes = s.count * esz;
    off += s.bytes;
  }
  // Structural validation shared by both consumers.
  if (p.kind == kKindField) {
    if (p.sections.size() != 1 || p.sections[0].role != kRoleField)
      throw FormatError("field WireBlock must carry exactly one field");
  } else {
    if (p.sections.empty() || p.sections[0].role != kRoleCoords)
      throw FormatError("WireBlock lacks a coords section");
    const size_t ngeo =
        p.mesh_kind == mesh::MeshKind::kUnstructured ? 2 : 1;
    if (ngeo == 2 &&
        (p.sections.size() < 2 || p.sections[1].role != kRoleConn))
      throw FormatError("unstructured WireBlock lacks connectivity");
    for (size_t i = ngeo; i < p.sections.size(); ++i)
      if (p.sections[i].role != kRoleField)
        throw FormatError("unexpected geometry section in WireBlock");
    if (p.kind == 1 && p.sections.size() != ngeo)
      throw FormatError("mesh WireBlock must not carry fields");
  }
  return p;
}

/// Appends one raw array as a chain segment: aliased on little-endian
/// hosts, converted into an owned segment elsewhere.
template <typename T>
void append_payload(BufferChain& chain, const T* data, size_t count) {
  if constexpr (roc::detail::kHostLittleEndian) {
    chain.append_borrowed(data, count * sizeof(T));
  } else {
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: big-endian conversion fallback only.
    ByteWriter w;
    w.put_raw_array(data, count);
    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: big-endian conversion fallback only.
    chain.append(SharedBuffer::adopt(w.take()));
  }
}

void put_block_header(ByteWriter& h, int pane_id, uint8_t kind,
                      mesh::MeshKind mesh_kind,
                      const std::array<int, 3>& node_dims, uint32_t nsec) {
  h.put<int32_t>(pane_id);
  h.put<uint8_t>(kind);
  h.put<uint8_t>(static_cast<uint8_t>(mesh_kind));
  for (int d : node_dims) h.put<int32_t>(d);
  h.put<uint32_t>(nsec);
}

void put_section_entry(ByteWriter& h, uint8_t role, const std::string& name,
                       mesh::Centering centering, int32_t ncomp,
                       uint64_t count) {
  h.put<uint8_t>(role);
  h.put_string(name);
  h.put<uint8_t>(static_cast<uint8_t>(centering));
  h.put<int32_t>(ncomp);
  h.put<uint64_t>(count);
}

/// Builds the chain for one marshalled block: an owned header segment plus
/// payload segments borrowed from `geo`/`fields` storage.  With `pool` the
/// header storage comes from (and returns to) the pool; `out` is refilled
/// in place, keeping its segment-list capacity.
void build_chain_into(int pane_id, uint8_t kind, const mesh::MeshBlock* geo,
                      std::span<const mesh::Field> fields,
                      BufferPool* pool, BufferChain& out) {
  out.clear();
  // Pool-seeded scratch: acquire() hands back recycled storage whose
  // capacity the ByteWriter keeps, so steady-state marshalling allocates
  // nothing for the header.
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: ByteWriter is seeded from
  // pool-acquired storage; steady state reuses recycled capacity.
  ByteWriter h(pool ? pool->acquire(256) : std::vector<unsigned char>());
  const bool unstructured =
      geo && geo->kind() == mesh::MeshKind::kUnstructured;
  const auto nsec = static_cast<uint32_t>(
      (geo ? 1u + (unstructured ? 1u : 0u) : 0u) + fields.size());
  put_block_header(h, pane_id, kind,
                   geo ? geo->kind() : mesh::MeshKind::kStructured,
                   geo ? geo->node_dims() : std::array<int, 3>{0, 0, 0},
                   nsec);
  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: function-local static, constructed once per process.
  static const std::string kNoName;
  if (geo) {
    put_section_entry(h, kRoleCoords, kNoName, mesh::Centering::kNode, 1,
                      geo->coords().size());
    if (unstructured)
      put_section_entry(h, kRoleConn, kNoName, mesh::Centering::kNode, 1,
                        geo->connectivity().size());
  }
  for (const mesh::Field& f : fields)
    put_section_entry(h, kRoleField, f.name, f.centering, f.ncomp,
                      f.data.size());

  // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: pool-less fallback keeps the
  // legacy adopt; the pooled branch seals through the recycling channel.
  out.append(pool ? pool->seal(h.take()) : SharedBuffer::adopt(h.take()));
  if (geo) {
    append_payload(out, geo->coords().data(), geo->coords().size());
    if (unstructured)
      append_payload(out, geo->connectivity().data(),
                     geo->connectivity().size());
  }
  for (const mesh::Field& f : fields)
    append_payload(out, f.data.data(), f.data.size());
}

BufferChain build_chain(int pane_id, uint8_t kind,
                        const mesh::MeshBlock* geo,
                        std::span<const mesh::Field> fields) {
  BufferChain chain;
  build_chain_into(pane_id, kind, geo, fields, nullptr, chain);
  return chain;
}

/// Copies section `s`'s payload (s.count elements of T) into `out`.
template <typename T>
void copy_payload(const unsigned char* base, const Section& s, T* out) {
  if constexpr (roc::detail::kHostLittleEndian) {
    // memcpy's arguments are declared nonnull even for zero sizes.
    if (s.bytes > 0) std::memcpy(out, base + s.offset, s.bytes);
  } else {
    ByteReader r(base + s.offset, static_cast<size_t>(s.bytes));
    for (uint64_t i = 0; i < s.count; ++i) out[i] = r.get<T>();
  }
}

template <typename T>
std::vector<T> read_array(const unsigned char* base, const Section& s) {
  std::vector<T> v(static_cast<size_t>(s.count));
  copy_payload(base, s, v.data());
  return v;
}

/// Builds a whole block (kind "all" or "mesh") from parsed sections over
/// `base`: one copy per array.
mesh::MeshBlock build_block(const unsigned char* base, int pane_id,
                            mesh::MeshKind mesh_kind,
                            const std::array<int, 3>& node_dims,
                            const std::vector<Section>& sections) {
  const Section& cs = sections[0];
  mesh::MeshBlock b;
  size_t next = 1;
  if (mesh_kind == mesh::MeshKind::kStructured) {
    // Validate before the factory allocates: coords (bounded by the wire
    // buffer) must agree with the node dims, which bounds the allocation.
    const auto d0 = static_cast<uint64_t>(node_dims[0]);
    const auto d1 = static_cast<uint64_t>(node_dims[1]);
    const auto d2 = static_cast<uint64_t>(node_dims[2]);
    if (node_dims[0] < 2 || node_dims[1] < 2 || node_dims[2] < 2 ||
        static_cast<unsigned __int128>(cs.count) !=
            3 * static_cast<unsigned __int128>(d0) * d1 * d2)
      throw FormatError("coords do not match node dims in WireBlock");
    b = mesh::MeshBlock::structured(pane_id, node_dims);
  } else {
    if (cs.count % 3 != 0)
      throw FormatError("coords count not divisible by 3 in WireBlock");
    // The factory validates connectivity (multiple of 4, node refs in
    // range) and throws on violation.
    b = mesh::MeshBlock::unstructured(
        pane_id, static_cast<size_t>(cs.count / 3),
        read_array<int32_t>(base, sections[1]));
    next = 2;
  }
  copy_payload(base, cs, b.coords().data());
  for (; next < sections.size(); ++next) {
    const Section& s = sections[next];
    mesh::Field& f = b.add_field(s.name, s.centering, s.ncomp);
    f.data.resize(static_cast<size_t>(s.count));
    copy_payload(base, s, f.data.data());
  }
  return b;
}

int64_t int_attr(const shdf::DatasetInfo& i, const std::string& name) {
  const shdf::AttrValue* v = i.def.find_attribute(name);
  if (!v || !std::holds_alternative<int64_t>(*v))
    throw FormatError("dataset '" + i.def.name +
                      "' lacks integer attribute '" + name + "'");
  return std::get<int64_t>(*v);
}

/// Rejects a dataset whose stored shape is not `type` [n, width] (width 0:
/// any width >= 1 that fits an i32 component count).
void require_shape(const shdf::DatasetInfo& i, shdf::DataType type,
                   uint64_t width) {
  const auto& d = i.def.dims;
  if (i.def.type != type || d.size() != 2 ||
      (width != 0 ? d[1] != width : d[1] < 1 || d[1] > INT32_MAX))
    throw FormatError("dataset '" + i.def.name + "' is not a " +
                      shdf::type_name(type) + " block array");
}

}  // namespace

WireBlock WireBlock::from_block(const mesh::MeshBlock& block,
                                const std::string& attribute) {
  WireBlock wb;
  wb.pane_id_ = block.id();
  if (attribute == "all") {
    wb.kind_ = Kind::kAll;
    wb.block_ = block;
  } else if (attribute == "mesh") {
    wb.kind_ = Kind::kMesh;
    wb.block_ = block;
    wb.block_.fields().clear();
  } else {
    wb.kind_ = Kind::kField;
    wb.field_ = block.field(attribute);
  }
  return wb;
}

BufferChain WireBlock::serialize_chain(const mesh::MeshBlock& block,
                                       const std::string& attribute) {
  BufferChain chain;
  serialize_chain_into(block, attribute, nullptr, chain);
  return chain;
}

void WireBlock::serialize_chain_into(const mesh::MeshBlock& block,
                                     const std::string& attribute,
                                     BufferPool* pool, BufferChain& out) {
  if (attribute == "all") {
    // The block's fields are contiguous, so the whole set marshals as one
    // span — no per-call pointer scratch (this is an R8 hot path).
    build_chain_into(block.id(), 0, &block, block.fields(), pool, out);
    return;
  }
  if (attribute == "mesh") {
    build_chain_into(block.id(), 1, &block, {}, pool, out);
    return;
  }
  build_chain_into(block.id(), 2, nullptr, {&block.field(attribute), 1},
                   pool, out);
}

uint64_t WireBlock::payload_bytes() const {
  if (kind_ == Kind::kField) return field_.data.size() * sizeof(double);
  return block_.payload_bytes();
}

std::vector<unsigned char> WireBlock::serialize() const {
  if (kind_ == Kind::kField)
    return build_chain(pane_id_, 2, nullptr, {&field_, 1}).to_vector();
  return build_chain(pane_id_, static_cast<uint8_t>(kind_), &block_,
                     block_.fields())
      .to_vector();
}

// ROC_COLD: the materialising deserialize is the reference the zero-copy
// path is tested against; the hot receive path keeps WireBlockView over
// wire bytes.
ROC_COLD WireBlock WireBlock::deserialize(
    const std::vector<unsigned char>& bytes) {
  const Parsed p = parse_wire(bytes.data(), bytes.size());
  WireBlock wb;
  wb.pane_id_ = p.pane_id;
  wb.kind_ = static_cast<Kind>(p.kind);
  if (wb.kind_ == Kind::kField) {
    const Section& s = p.sections[0];
    wb.field_.name = s.name;
    wb.field_.centering = s.centering;
    wb.field_.ncomp = s.ncomp;
    wb.field_.data = read_array<double>(bytes.data(), s);
    return wb;
  }
  wb.block_ = build_block(bytes.data(), p.pane_id, p.mesh_kind, p.node_dims,
                          p.sections);
  return wb;
}

// ROC_COLD: companion of the legacy deserialize above -- writes from a
// materialised WireBlock; the hot path uses WireBlockView::write_to.
ROC_COLD void WireBlock::write_to(shdf::Writer& w, const std::string& window,
                         double time) const {
  switch (kind_) {
    case Kind::kAll:
      roccom::write_block(w, window, block_, "all", time);
      break;
    case Kind::kMesh:
      roccom::write_block(w, window, block_, "mesh", time);
      break;
    case Kind::kField:
      w.add_dataset(
          roccom::field_def(window, pane_id_, field_.name, field_.centering,
                            field_.ncomp, field_.data.size(), time),
          field_.data.data());
      break;
  }
}

WireBlockView WireBlockView::parse(SharedBuffer wire) {
  Parsed p = parse_wire(wire.data(), wire.size());
  WireBlockView v;
  v.wire_ = std::move(wire);
  v.pane_id_ = p.pane_id;
  v.kind_ = p.kind;
  v.checksummed_ = p.checksummed;
  v.mesh_kind_ = p.mesh_kind;
  v.node_dims_ = p.node_dims;
  v.sections_ = std::move(p.sections);
  if (v.kind_ != kKindField) v.node_count_ = v.sections_[0].count / 3;
  return v;
}

uint64_t WireBlockView::payload_bytes() const {
  uint64_t n = 0;
  for (const Section& s : sections_) n += s.bytes;
  return n;
}

void WireBlockView::write_to(shdf::Writer& w, const std::string& window,
                             double time, WriteScratch* scratch) const {
  if constexpr (!roc::detail::kHostLittleEndian) {
    // Big-endian hosts cannot alias the little-endian wire payloads;
    // fall back to the materialising path.
    // ROCANALYZE-ALLOW(r9-copy-discipline): why: big-endian fallback only;
    // little-endian hosts take the zero-copy path below.
    WireBlock::deserialize(wire_.to_vector()).write_to(w, window, time);
    return;
  }
  // The scratch (prefix string, dataset def, payload chain) is rebuilt in
  // place per dataset; a caller-retained scratch makes the whole write
  // allocation-free in steady state.
  WriteScratch local;
  WriteScratch& sc = scratch ? *scratch : local;
  roccom::block_prefix_into(window, pane_id_, sc.prefix);
  const unsigned char* base = wire_.data();
  auto put = [&](const Section& s, const shdf::DatasetDef& def) {
    sc.chain.clear();
    sc.chain.append_borrowed(base + s.offset, static_cast<size_t>(s.bytes));
    w.put_dataset(def, sc.chain);
  };
  if (kind_ == kKindField) {
    const Section& s = sections_[0];
    roccom::field_def_into(sc.prefix, s.name, s.centering, s.ncomp, s.count,
                           time, sc.def);
    put(s, sc.def);
    return;
  }
  const Section& cs = sections_[0];
  roccom::coords_def_into(sc.prefix, pane_id_, mesh_kind_, node_dims_,
                          node_count_, time, sc.geo_def);
  put(cs, sc.geo_def);
  size_t next = 1;
  if (mesh_kind_ == mesh::MeshKind::kUnstructured) {
    const Section& ns = sections_[next++];
    roccom::connectivity_def_into(sc.prefix, ns.count / 4, sc.def);
    put(ns, sc.def);
  }
  for (; next < sections_.size(); ++next) {
    const Section& s = sections_[next];
    roccom::field_def_into(sc.prefix, s.name, s.centering, s.ncomp, s.count,
                           time, sc.def);
    put(s, sc.def);
  }
}

// --- restart direction ------------------------------------------------------

const WireBlockView::Section* WireBlockView::first_corrupt_section() const {
  require(checksummed_, "WireBlock ", pane_id_, " carries no checksums");
  for (const Section& s : sections_)
    if (crc64(wire_.data() + s.offset, static_cast<size_t>(s.bytes)) !=
        s.crc)
      return &s;
  return nullptr;
}

std::string WireBlockView::section_label(const Section& s) {
  if (s.role == kRoleCoords) return "coords";
  if (s.role == kRoleConn) return "connectivity";
  return "field:" + s.name;
}

void WireBlockView::copy_attribute_to(mesh::MeshBlock& dst,
                                      const std::string& attribute) const {
  require(pane_id_ == dst.id(), "copy_block_attribute: block id mismatch");
  const unsigned char* base = wire_.data();
  auto copy_mesh = [&] {
    if (kind_ == kKindField)
      throw FormatError("field WireBlock carries no coordinates");
    const Section& cs = sections_[0];
    mesh::require_coords_fit(dst, static_cast<size_t>(cs.count));
    copy_payload(base, cs, dst.coords().data());
  };
  auto copy_field = [&](const std::string& name) {
    const Section* src = nullptr;
    for (const Section& s : sections_)
      if (s.role == kRoleField && s.name == name) src = &s;
    require(src != nullptr, "no field '", name, "' on block ", pane_id_);
    mesh::Field& g = dst.field(name);
    mesh::require_field_fits(dst, g, static_cast<size_t>(src->count),
                             src->ncomp);
    copy_payload(base, *src, g.data.data());
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

mesh::MeshBlock WireBlockView::to_block() const {
  if (kind_ == kKindField)
    throw FormatError("field WireBlock does not hold a whole block");
  return build_block(wire_.data(), pane_id_, mesh_kind_, node_dims_,
                     sections_);
}

SharedBuffer encode_restore_reply(const shdf::Reader& r,
                                  const std::string& window, int pane_id,
                                  BufferPool& pool) {
  const std::string prefix = roccom::block_prefix(window, pane_id);
  const shdf::DatasetInfo& coords = r.info(prefix + "coords");
  require_shape(coords, shdf::DataType::kFloat64, 3);
  const int64_t kind = int_attr(coords, "kind");
  if (kind != 0 && kind != 1)
    throw FormatError("dataset '" + coords.def.name + "' has bad mesh kind");
  const auto mesh_kind = static_cast<mesh::MeshKind>(kind);
  std::array<int, 3> node_dims{0, 0, 0};
  if (mesh_kind == mesh::MeshKind::kStructured) {
    const shdf::AttrValue* nd = coords.def.find_attribute("node_dims");
    const auto* v = nd ? std::get_if<std::vector<int64_t>>(nd) : nullptr;
    if (!v || v->size() != 3)
      throw FormatError("structured block " + coords.def.name +
                        " lacks node_dims");
    for (size_t k = 0; k < 3; ++k) {
      if ((*v)[k] < 0 || (*v)[k] > INT32_MAX)
        throw FormatError("structured block " + coords.def.name +
                          " has bad node_dims");
      node_dims[k] = static_cast<int>((*v)[k]);
    }
  }

  // The section table, straight from the directory: coords, connectivity
  // (unstructured), then every field dataset of the block in directory
  // order.
  struct Slot {
    const shdf::DatasetInfo* info;
    uint8_t role;
    std::string name;
    mesh::Centering centering;
    int32_t ncomp;
  };
  std::vector<Slot> slots;
  slots.push_back({&coords, kRoleCoords, {}, mesh::Centering::kNode, 1});
  if (mesh_kind == mesh::MeshKind::kUnstructured) {
    const shdf::DatasetInfo& conn = r.info(prefix + "connectivity");
    require_shape(conn, shdf::DataType::kInt32, 4);
    slots.push_back({&conn, kRoleConn, {}, mesh::Centering::kNode, 1});
  }
  const std::string field_prefix = prefix + "field:";
  for (size_t k = 0; k < r.dataset_count(); ++k) {
    const shdf::DatasetInfo& f = r.info(k);
    if (f.def.name.compare(0, field_prefix.size(), field_prefix) != 0)
      continue;
    require_shape(f, shdf::DataType::kFloat64, 0);
    const int64_t centering = int_attr(f, "centering");
    if (centering != 0 && centering != 1)
      throw FormatError("dataset '" + f.def.name + "' has bad centering");
    slots.push_back({&f, kRoleField, f.def.name.substr(field_prefix.size()),
                     static_cast<mesh::Centering>(centering),
                     static_cast<int32_t>(f.def.dims[1])});
  }

  ByteWriter h;
  put_block_header(h, pane_id,
                   static_cast<uint8_t>(kKindAll | kKindChecksummed), mesh_kind,
                   node_dims, static_cast<uint32_t>(slots.size()));
  uint64_t payload = 0;
  for (const Slot& s : slots) {
    r.check_extent(*s.info);  // before data_bytes sizes the buffer
    put_section_entry(h, s.role, s.name, s.centering, s.ncomp,
                      s.info->data_bytes / elem_size(s.role));
    h.put<uint64_t>(s.info->checksum);
    payload += s.info->data_bytes;
  }
  std::vector<unsigned char> buf =
      pool.acquire(h.size() + static_cast<size_t>(payload));
  const std::vector<unsigned char> header = h.take();
  std::memcpy(buf.data(), header.data(), header.size());
  size_t off = header.size();
  for (const Slot& s : slots) {
    r.read_payload_into(*s.info, buf.data() + off);
    off += static_cast<size_t>(s.info->data_bytes);
  }
  return pool.seal(std::move(buf));
}

std::vector<unsigned char> RestoreError::serialize() const {
  ByteWriter w;
  w.put<int32_t>(pane_id);
  w.put<uint8_t>(kKindRestoreError);
  w.put_string(message);
  return w.take();
}

bool RestoreError::parse(const SharedBuffer& reply, RestoreError* out) {
  if (reply.size() < 5 || reply.data()[4] != kKindRestoreError) return false;
  ByteReader r(reply.data(), reply.size());
  out->pane_id = r.get<int32_t>();
  (void)r.get<uint8_t>();
  out->message = r.get_string();
  return true;
}

}  // namespace roc::rocpanda
