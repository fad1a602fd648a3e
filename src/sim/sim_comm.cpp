#include "sim/sim_comm.h"

#include <algorithm>

#include "util/check_hooks.h"
#include "util/serialize.h"

namespace roc::sim {

namespace {

bool matches(const SimWorld::Envelope&, uint64_t, int, int);

/// One process's communicator handle.
class SimComm final : public comm::Comm {
 public:
  SimComm(SimWorld* world, uint64_t comm_id, std::vector<int> members,
          int rank)
      : world_(world),
        comm_id_(comm_id),
        members_(std::move(members)),
        rank_(rank) {}

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override {
    return static_cast<int>(members_.size());
  }

  using comm::Comm::send;
  void send(int dest, int tag, const void* data, size_t n) override;
  /// Zero-copy counterpart: ships a reference; cost model unchanged (the
  /// simulated network still charges for every byte).
  void send(int dest, int tag, SharedBuffer buf) override;
  [[nodiscard]] comm::Message recv(int source, int tag) override;
  bool iprobe(int source, int tag, comm::Status* st) override;
  comm::Status probe(int source, int tag) override;
  [[nodiscard]] std::unique_ptr<comm::Comm> split(int color,
                                                  int key) override;

 private:
  SimWorld::Mailbox& my_mailbox() {
    return world_->mailboxes_[static_cast<size_t>(
        members_[static_cast<size_t>(rank_)])];
  }
  /// Finds the first matching envelope; returns queue.end() if none.
  std::deque<SimWorld::Envelope>::iterator find(int source, int tag);

  SimWorld* world_;
  uint64_t comm_id_;
  std::vector<int> members_;
  int rank_;
};

bool matches(const SimWorld::Envelope& e, uint64_t comm_id, int source,
             int tag) {
  return e.comm_id == comm_id &&
         (source == comm::kAnySource || e.source == source) &&
         (tag == comm::kAnyTag || e.tag == tag);
}

std::deque<SimWorld::Envelope>::iterator SimComm::find(int source, int tag) {
  auto& q = my_mailbox().queue;
  return std::find_if(q.begin(), q.end(), [&](const SimWorld::Envelope& e) {
    return matches(e, comm_id_, source, tag);
  });
}

void SimComm::send(int dest, int tag, const void* data, size_t n) {
  // The raw-pointer contract allows immediate buffer reuse, so copy here;
  // the SharedBuffer overload below ships a reference.
  send(dest, tag, SharedBuffer::copy_of(data, n));
}

void SimComm::send(int dest, int tag, SharedBuffer buf) {
  require(dest >= 0 && dest < size(), "send: dest rank out of range");
  ROC_CHECK_PREEMPT("comm.send");
  const int src_world = members_[static_cast<size_t>(rank_)];
  const int dst_world = members_[static_cast<size_t>(dest)];

  SimWorld::Envelope e;
  e.comm_id = comm_id_;
  e.source = rank_;
  e.tag = tag;
  const size_t n = buf.size();
  e.payload = std::move(buf);
  e.ctx = telemetry::current_trace_context();
  e.check_token = check::next_token();
  ROC_CHECKHOOK_(packet_send(e.check_token));

  const double end = world_->transfer_end(src_world, dst_world, n);
  world_->deliver_at(end, dst_world, std::move(e));
  // Standard-mode blocking send: the sender's CPU is occupied for the
  // transfer (copy + protocol processing).
  world_->sim_.current_context().wait_until(end, /*cpu_busy=*/true);
}

comm::Message SimComm::recv(int source, int tag) {
  require(source == comm::kAnySource || (source >= 0 && source < size()),
          "recv: source rank out of range");
  ROC_CHECK_PREEMPT("comm.recv");
  for (;;) {
    auto it = find(source, tag);
    if (it != my_mailbox().queue.end()) {
      comm::Message m;
      m.source = it->source;
      m.tag = it->tag;
      m.payload = std::move(it->payload);
      m.ctx = it->ctx;
      const uint64_t token = it->check_token;
      ROC_CHECKHOOK_(packet_recv(token));
      my_mailbox().queue.erase(it);
      return m;
    }
    my_mailbox().waiters.push_back(world_->sim_.current());
    world_->sim_.current_context().block();
  }
}

bool SimComm::iprobe(int source, int tag, comm::Status* st) {
  auto it = find(source, tag);
  if (it == my_mailbox().queue.end()) return false;
  if (st) {
    st->source = it->source;
    st->tag = it->tag;
    st->bytes = it->payload.size();
  }
  return true;
}

comm::Status SimComm::probe(int source, int tag) {
  for (;;) {
    auto it = find(source, tag);
    if (it != my_mailbox().queue.end()) {
      comm::Status st;
      st.source = it->source;
      st.tag = it->tag;
      st.bytes = it->payload.size();
      return st;
    }
    my_mailbox().waiters.push_back(world_->sim_.current());
    world_->sim_.current_context().block();
  }
}

std::unique_ptr<comm::Comm> SimComm::split(int color, int key) {
  // Same deterministic algorithm as ThreadComm::split, over this
  // communicator's own collectives.
  ByteWriter w;
  w.put<int32_t>(color);
  w.put<int32_t>(key);
  w.put<int32_t>(rank_);
  auto all = allgather(w.take());

  struct Entry {
    int color, key, rank;
  };
  std::vector<Entry> entries;
  entries.reserve(all.size());
  for (const auto& bytes : all) {
    ByteReader r(bytes.data(), bytes.size());
    Entry e;
    e.color = r.get<int32_t>();
    e.key = r.get<int32_t>();
    e.rank = r.get<int32_t>();
    entries.push_back(e);
  }

  std::vector<int> colors;
  for (const auto& e : entries)
    if (e.color >= 0) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

  std::vector<unsigned char> base_bytes;
  if (rank_ == 0) {
    const uint64_t base = world_->next_comm_id_;
    world_->next_comm_id_ += colors.size() + 1;
    ByteWriter bw;
    bw.put<uint64_t>(base);
    base_bytes = bw.take();
  }
  bcast(base_bytes, 0);
  ByteReader br(base_bytes.data(), base_bytes.size());
  const uint64_t base = br.get<uint64_t>();

  if (color < 0) return nullptr;

  std::vector<Entry> group;
  for (const auto& e : entries)
    if (e.color == color) group.push_back(e);
  std::stable_sort(group.begin(), group.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.key != b.key ? a.key < b.key : a.rank < b.rank;
                   });

  std::vector<int> members;
  int my_new_rank = -1;
  for (const auto& e : group) {
    if (e.rank == rank_) my_new_rank = static_cast<int>(members.size());
    members.push_back(members_[static_cast<size_t>(e.rank)]);
  }

  const auto color_index = static_cast<uint64_t>(
      std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());
  return std::make_unique<SimComm>(world_, base + color_index,
                                   std::move(members), my_new_rank);
}

}  // namespace

SimWorld::SimWorld(Simulation& sim, int nprocs)
    : sim_(sim), nprocs_(nprocs), mailboxes_(static_cast<size_t>(nprocs)) {
  require(nprocs > 0, "SimWorld needs at least one process");
}

std::unique_ptr<comm::Comm> SimWorld::attach() {
  const int rank = sim_.current()->rank;
  require(rank >= 0 && rank < nprocs_,
          "attach: process rank outside this world");
  std::vector<int> members(static_cast<size_t>(nprocs_));
  for (int i = 0; i < nprocs_; ++i) members[static_cast<size_t>(i)] = i;
  return std::make_unique<SimComm>(this, /*comm_id=*/0, std::move(members),
                                   rank);
}

double SimWorld::transfer_end(int src_world, int dst_world, size_t bytes) {
  const NetworkParams& np = sim_.platform().net;
  const int src_node = sim_.node_of_rank(src_world);
  const int dst_node = sim_.node_of_rank(dst_world);
  const double scaled =
      static_cast<double>(bytes) * sim_.platform().byte_scale;
  // Shared-switch / co-scheduled-job interference degrades the whole
  // transfer (latency and effective bandwidth) with job size.
  const double interference =
      1.0 + np.interference_per_proc * static_cast<double>(nprocs_);

  double cost;
  double start;
  if (src_node == dst_node) {
    cost = (np.intra_latency + scaled / np.intra_bandwidth) * interference;
    double& ch = sim_.resource("mem:" + std::to_string(src_node));
    start = std::max(sim_.now(), ch);
    ch = start + cost;
  } else {
    cost = (np.inter_latency + scaled / np.inter_bandwidth) * interference;
    double& s = sim_.resource("nic:" + std::to_string(src_node));
    double& d = sim_.resource("nic:" + std::to_string(dst_node));
    start = std::max({sim_.now(), s, d});
    s = d = start + cost;
  }
  bytes_transferred_ += bytes;
  return start + cost;
}

void SimWorld::deliver_at(double t, int dst_world, Envelope e) {
  sim_.schedule(t, [this, dst_world, e = std::move(e)]() mutable {
    Mailbox& box = mailboxes_[static_cast<size_t>(dst_world)];
    box.queue.push_back(std::move(e));
    for (detail::Process* p : box.waiters) sim_.wake(p, sim_.now());
    box.waiters.clear();
  });
}

}  // namespace roc::sim
