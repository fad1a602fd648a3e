/// \file bench_e2e.cpp
/// \brief End-to-end checkpoint/restart benchmark on the real substrates.
///
/// Runs one workload (README.md lists them) as real `comm::World` thread
/// deployments over `vfs::PosixFileSystem`, driving only the public
/// `roccom::IoService` verbs: `write_attribute`, `sync`, `read_attribute`.
/// Every retained snapshot and every restored pane is checked against the
/// source blocks' `state_checksum()`.  The result is one JSON object on the
/// last line of stdout; `run.py` wraps this binary with a deadline and
/// turns that object into the benchmark's result line.
///
///   bench_e2e --workload panda_bulk --seed 1 --seconds 10 --trace 0
///             --root .bench_run/x [--plant corrupt|hang]
///
/// With `--trace 1` the run also times each layer's public functions on the
/// workload's own blocks (the per-layer budget) and reads the program's
/// counters (ServerStats, ClientStats, Rochdf::Stats, getrusage).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/env.h"
#include "comm/thread_comm.h"
#include "mesh/generators.h"
#include "mesh/mesh_block.h"
#include "mesh/partition.h"
#include "roccom/blockio.h"
#include "roccom/io_service.h"
#include "roccom/roccom.h"
#include "rochdf/rochdf.h"
#include "rocpanda/client.h"
#include "rocpanda/layout.h"
#include "rocpanda/server.h"
#include "rocpanda/wire.h"
#include "shdf/reader.h"
#include "shdf/writer.h"
#include "telemetry/trace.h"
#include "util/buffer.h"
#include "util/crc64.h"
#include "util/rng.h"
#include "vfs/async.h"
#include "vfs/vfs.h"

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_OPTIONS
#define BENCH_OPTIONS "unknown"
#endif

namespace {

using namespace roc;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Length of one /proc/stat tick (USER_HZ = 100).
constexpr double kTickSeconds = 0.01;

/// Steal ticks of all CPUs so far: time the hypervisor ran another guest
/// while one of this machine's virtual CPUs wanted to run.  0 where
/// /proc/stat has no steal column, which turns the adjustment off.
double steal_ticks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  char buf[256] = {};
  const size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  unsigned long long t[8] = {};
  if (std::sscanf(buf, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                  &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) != 8)
    return 0;
  return static_cast<double>(t[7]);
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root;
  std::string plant;      ///< "", "corrupt" or "hang".
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--root") a.root = v;
    else if (k == "--plant") a.plant = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.root.empty())
    throw std::invalid_argument("--workload and --root are required");
  if (a.plant != "" && a.plant != "corrupt" && a.plant != "hang")
    throw std::invalid_argument("--plant must be corrupt or hang");
  return a;
}

// ---------------------------------------------------------------------------
// Statistics and JSON output
// ---------------------------------------------------------------------------

/// Linear-interpolation percentile (p in [0,100]); NaN when empty.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Timed samples with the machine's steal ticks during each.
struct Samples {
  std::vector<double> seconds;
  std::vector<double> steal;  ///< Parallel to seconds.

  void add(double s, double ticks) {
    seconds.push_back(s);
    steal.push_back(ticks);
  }
  [[nodiscard]] size_t size() const { return seconds.size(); }

  /// The samples with CPU steal taken out: each less `slope` times its
  /// steal ticks, where `slope` is the least-squares slope of the run's
  /// sample times on their steal ticks, clamped to [0, one tick]: a stolen
  /// tick can delay a sample by at most its own length.  A run without
  /// steal is returned unchanged.
  [[nodiscard]] std::vector<double> steal_adjusted() const {
    const size_t n = seconds.size();
    if (n < 2) return seconds;
    const double mt = sum(seconds) / static_cast<double>(n);
    const double ms = sum(steal) / static_cast<double>(n);
    double cov = 0, var = 0;
    for (size_t i = 0; i < n; ++i) {
      cov += (steal[i] - ms) * (seconds[i] - mt);
      var += (steal[i] - ms) * (steal[i] - ms);
    }
    const double slope =
        var > 0 ? std::clamp(cov / var, 0.0, kTickSeconds) : 0.0;
    std::vector<double> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = seconds[i] - slope * steal[i];
    return out;
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 1;
  std::string maps_to;  ///< Per-layer only: end-to-end metric it moves.
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Service { kRocpanda, kTRochdf };

struct Deployment {
  Service service = Service::kRocpanda;
  int nclients = 3;
  int nservers = 1;
};

struct Workload {
  std::string name;
  bool bulk = false;            ///< 56^3 structured blocks vs lab rocket.
  Deployment write;             ///< Set-up and write phase.
  Deployment restore;           ///< Restart phase.
  /// Restart runs in its own deployment, on a checkpoint set-up writes.
  bool separate_restore = false;
  double compute_s = 0;         ///< Busy compute phase per step.
};

Workload find_workload(const std::string& name) {
  const Deployment panda31{Service::kRocpanda, 3, 1};
  if (name == "panda_bulk")
    return {name, true, panda31, panda31, false, 0.0};
  if (name == "panda_irregular")
    return {name, false, panda31, panda31, false, 0.0};
  if (name == "trochdf_overlap") {
    // T-Rochdf itself never restores: its checkpoint, written by the two
    // ranks in set-up, is restored by Rocpanda 1+3 (the modules' files are
    // interchangeable), so restart_* measure that N->M restore.
    const Deployment t{Service::kTRochdf, 2, 0};
    return {name, false, t, panda31, true, 0.030};
  }
  if (name == "restart_remap")
    return {name, false, {Service::kRocpanda, 2, 2}, panda31, true, 0.0};
  throw std::invalid_argument("unknown workload " + name);
}

/// Forwards every call to the client's world communicator and counts the
/// point-to-point messages the client sends and receives through it: the
/// client-server protocol as the program runs it.  Collectives forward
/// whole, so their internal messages are not counted.
class CountingComm final : public comm::Comm {
 public:
  explicit CountingComm(comm::Comm& inner) : inner_(inner) {}

  /// Messages sent plus messages received so far.
  [[nodiscard]] uint64_t messages() const { return messages_; }

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  void send(int dest, int tag, const void* data, size_t n) override {
    ++messages_;
    inner_.send(dest, tag, data, n);
  }
  void send(int dest, int tag, SharedBuffer buf) override {
    ++messages_;
    inner_.send(dest, tag, std::move(buf));
  }
  void sendv(int dest, int tag, const BufferChain& chain) override {
    ++messages_;
    inner_.sendv(dest, tag, chain);
  }
  [[nodiscard]] comm::Message recv(int source, int tag) override {
    ++messages_;
    return inner_.recv(source, tag);
  }
  bool iprobe(int source, int tag, comm::Status* st) override {
    return inner_.iprobe(source, tag, st);
  }
  comm::Status probe(int source, int tag) override {
    return inner_.probe(source, tag);
  }
  [[nodiscard]] std::unique_ptr<comm::Comm> split(int color,
                                                  int key) override {
    return inner_.split(color, key);
  }
  void barrier() override { inner_.barrier(); }
  void bcast(std::vector<unsigned char>& data, int root) override {
    inner_.bcast(data, root);
  }
  std::vector<std::vector<unsigned char>> gather(
      const std::vector<unsigned char>& mine, int root) override {
    return inner_.gather(mine, root);
  }
  std::vector<std::vector<unsigned char>> allgather(
      const std::vector<unsigned char>& mine) override {
    return inner_.allgather(mine);
  }
  std::vector<unsigned char> scatter(
      const std::vector<std::vector<unsigned char>>& parts,
      int root) override {
    return inner_.scatter(parts, root);
  }
  std::vector<std::vector<unsigned char>> alltoall(
      const std::vector<std::vector<unsigned char>>& parts) override {
    return inner_.alltoall(parts);
  }

 private:
  comm::Comm& inner_;
  uint64_t messages_ = 0;
};

/// Every pane of the workload, with the window it belongs to.
struct Mesh {
  std::vector<mesh::MeshBlock> blocks;
  std::vector<std::string> window;  ///< Parallel to blocks.
  std::vector<std::string> windows; ///< Distinct window names.
  uint64_t payload_bytes = 0;       ///< User payload of one snapshot.
};

void fill_fields(mesh::MeshBlock& b, Rng& rng) {
  for (auto& f : b.fields())
    for (double& x : f.data) x = rng.next_double();
}

Mesh make_mesh(const Workload& wl, uint64_t seed) {
  Mesh m;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  if (wl.bulk) {
    // 3 clients x 2 structured fluid blocks of 56^3 nodes: ~66 MB.
    for (int id = 0; id < 6; ++id) {
      auto b = mesh::MeshBlock::structured(id, {56, 56, 56});
      mesh::add_fluid_schema(b);
      for (double& x : b.coords()) x = rng.next_double();
      fill_fields(b, rng);
      m.blocks.push_back(std::move(b));
      m.window.push_back("fluid");
    }
    m.windows = {"fluid"};
  } else {
    // The Table 1 lab-scale rocket: 192 fluid + 128 solid jittered blocks.
    // Its geometry is the generator's fixed mesh, so every seed writes the
    // same block sizes; the seed picks the field values.
    mesh::LabScaleSpec spec;
    spec.fluid_blocks = 192;
    spec.solid_blocks = 128;
    spec.base_block_nodes = 8;
    auto rocket = mesh::make_lab_scale_rocket(spec);
    for (auto& b : rocket.fluid) {
      fill_fields(b, rng);
      m.blocks.push_back(std::move(b));
      m.window.push_back("fluid");
    }
    for (auto& b : rocket.solid) {
      fill_fields(b, rng);
      m.blocks.push_back(std::move(b));
      m.window.push_back("solid");
    }
    m.windows = {"fluid", "solid"};
  }
  for (const auto& b : m.blocks) m.payload_bytes += b.payload_bytes();
  return m;
}

/// Makes snapshot `snap` of every block distinct: a value derived from the
/// snapshot and pane id is stamped into the first coordinate and the first
/// value of every field.  The verifier re-stamps the source to recompute
/// the checksum any snapshot must have.
void stamp(mesh::MeshBlock& b, int snap) {
  const double v = static_cast<double>(snap) * 1048576.0 + b.id() + 0.25;
  b.coords()[0] = v;
  for (auto& f : b.fields()) f.data[0] = v * 0.5;
}

/// Poisons a restore target so that a restore which leaves it untouched
/// fails verification.
void clobber(mesh::MeshBlock& b) {
  b.coords()[0] = -1.0;
  b.coords().back() = -1.0;
  for (auto& f : b.fields()) {
    f.data[0] = -1.0;
    f.data.back() = -1.0;
  }
}

std::string snap_name(int snap) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "snap%06d", snap);
  return buf;
}

/// Busy compute phase: keeps the core occupied for `seconds`.
void busy(double seconds) {
  if (seconds <= 0) return;
  const double end = now_s() + seconds;
  volatile double x = 1.0;
  while (now_s() < end)
    for (int i = 0; i < 256; ++i) x = x * 1.0000001 + 1e-9;
}

// ---------------------------------------------------------------------------
// Measured run state
// ---------------------------------------------------------------------------

/// Samples and counts of one process run.  Per-client vectors are written
/// only by their own client thread and merged after World::run joins.
struct Record {
  explicit Record(int nclients)
      : visible(static_cast<size_t>(nclients)),
        sync(static_cast<size_t>(nclients)),
        messages(static_cast<size_t>(nclients), 0) {}
  std::vector<std::vector<double>> visible;  ///< Per client, per snapshot.
  std::vector<std::vector<double>> sync;     ///< Per client, per snapshot.
  Samples step;                              ///< Client 0, per step.
  Samples restart;                           ///< Client 0, per restore.
  /// Per client: messages on the world communicator during the write
  /// phase (Rocpanda only).
  std::vector<uint64_t> messages;

  /// Per snapshot, the longest time any client was blocked in
  /// write_attribute: the client that holds up the collective.  Pooling
  /// every client's samples instead mixes one mode per client (their
  /// shares differ), and the median of that mixture jumps between modes
  /// from run to run.
  std::vector<double> max_visible() const {
    std::vector<double> out;
    for (const auto& v : visible) {
      if (v.empty()) continue;
      if (out.empty()) out.assign(v.size(), 0.0);
      for (size_t i = 0; i < std::min(v.size(), out.size()); ++i)
        out[i] = std::max(out[i], v[i]);
    }
    return out;
  }
  std::vector<double> all_sync() const {
    std::vector<double> out;
    for (const auto& v : sync) out.insert(out.end(), v.begin(), v.end());
    return out;
  }
};

/// Counts operations (snapshots written, restores, retained-snapshot
/// verifications) and failures.  Failures are reported on stderr at once,
/// and progress() lines let run.py account for a run it had to kill.
struct Failures {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    failed.fetch_add(1);
    std::fprintf(stderr, "bench_e2e: failure: %s\n", what.c_str());
    std::fflush(stderr);
    const std::lock_guard<std::mutex> lock(mu);
    if (errors.size() < 20) errors.push_back(what);
  }

  void progress(const char* stage) const {
    std::printf("progress %s attempted=%llu failed=%llu\n", stage,
                static_cast<unsigned long long>(attempted.load()),
                static_cast<unsigned long long>(failed.load()));
    std::fflush(stdout);
  }
};

/// What one deployment does after its set-up.
struct PhasePlan {
  bool checkpoint = false;      ///< Write + sync the restart checkpoint.
  double write_seconds = 0;     ///< 0: no write phase.
  size_t write_min = 0;         ///< Minimum steps of the write phase.
  double restart_seconds = 0;   ///< 0: no restart phase.
  size_t restart_min = 0;
  int restart_snap = -1;        ///< Restored snapshot; -1: newest written.
  int warmup_steps = 0;         ///< Unsampled write steps ending set-up.
  bool setup_only = false;      ///< Stop after the set-up barrier.
};

/// Shared by the threads of one deployment.
struct Run {
  Run(const Args& a, const Workload& w, Mesh& m, vfs::PosixFileSystem& f,
      Failures& fl, Record& r, int first)
      : args(a), wl(w), mesh(m), fs(f), failures(fl), rec(r),
        first_snap(first) {}

  const Args& args;
  const Workload& wl;
  Mesh& mesh;
  vfs::PosixFileSystem& fs;
  Failures& failures;
  Record& rec;
  mesh::Partition part;       ///< Client index -> block indices.
  int first_snap;             ///< Snapshot id of the first write step.
  int last_snap = -1;         ///< Set by client 0: last snapshot written.
  double ready_at = 0;        ///< Client 0: set-up barrier passed.
  uint64_t bytes_moved = 0;   ///< Payload written + restored.
  std::vector<rocpanda::ServerStats> servers;
  std::vector<rocpanda::ClientStats> clients;
  std::vector<rochdf::Stats> rochdf;
  std::mutex mu;              ///< Guards servers/clients/rochdf.
};

constexpr int kRetained = 2;        ///< Snapshots kept on disk.
constexpr int kCheckpointSnap = 0;  ///< Snapshot id of the checkpoint.
constexpr int kTagPlantedHang = 4242;
/// The first write steps fault in buffers and pools; they are part of
/// set-up rather than samples.
constexpr int kWarmupSteps = 3;
/// Rounds of a measured pass.  The host's speed drifts by a fifth over a
/// second or so; alternating the write and restart phases round by round
/// lets each phase sample the whole run instead of one stretch of it.
constexpr int kRounds = 5;
/// Set-up-only cycles before each round of the untraced pass; setup_s is
/// the median of all of them, so it too samples the whole run.
constexpr int kSetupCyclesPerRound = 2;

bool bcast_flag(comm::Comm& clients, bool mine) {
  std::vector<unsigned char> b{static_cast<unsigned char>(mine ? 1 : 0)};
  clients.bcast(b, 0);
  return !b.empty() && b[0] != 0;
}

void remove_snapshot(vfs::FileSystem& fs, int snap) {
  for (const auto& f : fs.list(snap_name(snap) + "_")) fs.remove(f);
}

/// The body every client runs: set-up, then the planned phases.
/// `counted` is the client's world communicator when it is a Rocpanda
/// client, else null.
void client_body(Run& run, const PhasePlan& plan, comm::Comm& clients,
                 roccom::IoService& io, const CountingComm* counted) {
  const int ci = clients.rank();
  roccom::Roccom com;
  for (const auto& w : run.mesh.windows) com.create_window(w);
  std::vector<mesh::MeshBlock*> mine;
  for (size_t bi : run.part[static_cast<size_t>(ci)]) {
    mesh::MeshBlock& b = run.mesh.blocks[bi];
    com.window(run.mesh.window[bi]).register_pane(b.id(), &b);
    mine.push_back(&b);
  }

  auto write_snapshot = [&](int snap) {
    for (const auto& w : run.mesh.windows)
      io.write_attribute(com, roccom::IoRequest{w, "all", snap_name(snap),
                                                static_cast<double>(snap)});
  };

  // One collective write cycle, barrier to barrier: write, compute, sync.
  // Warm-up steps run the same cycle but are not sampled.
  int snap = run.first_snap;
  auto step = [&](size_t n, bool sampled) {
    for (auto* b : mine) stamp(*b, snap);
    // Client 0 reads the steal ticks around the whole barrier-to-barrier
    // interval, outside the timed region.
    const double steal0 = ci == 0 && sampled ? steal_ticks() : 0;
    clients.barrier();
    const double t0 = now_s();
    if (run.args.plant == "hang" && ci == 0 && sampled && n == 2) {
      // Planted hang: this client never arrives; the others block in the
      // collective sync / barrier until the deadline kills the process.
      (void)clients.recv(comm::kAnySource, kTagPlantedHang);
    }
    write_snapshot(snap);
    const double t1 = now_s();
    // The compute phase lasts a fixed wall time, so steal during it cannot
    // lengthen the step; its ticks are left out of the step's.
    const bool exclude = ci == 0 && sampled && run.wl.compute_s > 0;
    const double busy0 = exclude ? steal_ticks() : 0;
    busy(run.wl.compute_s);
    const double busy_steal = exclude ? steal_ticks() - busy0 : 0;
    const double t2 = now_s();
    io.sync();
    const double t3 = now_s();
    clients.barrier();
    const double t4 = now_s();
    if (sampled) {
      run.rec.visible[static_cast<size_t>(ci)].push_back(t1 - t0);
      run.rec.sync[static_cast<size_t>(ci)].push_back(t3 - t2);
    }
    if (ci == 0) {
      if (sampled)
        run.rec.step.add(t4 - t0, steal_ticks() - steal0 - busy_steal);
      run.failures.attempted.fetch_add(1);
      run.last_snap = snap;
      run.bytes_moved += run.mesh.payload_bytes;
      // Retention: every file of snapshot snap-kRetained is closed (all
      // clients passed sync), so it can go.
      if (snap - kRetained >= run.first_snap)
        remove_snapshot(run.fs, snap - kRetained);
    }
    ++snap;
  };

  // --- set-up: checkpoint, warm-up; ends at the first sampled operation -
  if (plan.checkpoint) {
    for (auto* b : mine) stamp(*b, kCheckpointSnap);
    write_snapshot(kCheckpointSnap);
    io.sync();
    if (ci == 0) run.failures.attempted.fetch_add(1);
  }
  for (int n = 0; n < plan.warmup_steps; ++n) step(0, false);
  clients.barrier();
  if (ci == 0) run.ready_at = now_s();
  if (plan.setup_only) return;

  // --- write phase ------------------------------------------------------
  if (plan.write_seconds > 0) {
    const uint64_t messages0 = counted ? counted->messages() : 0;
    const double t_begin = now_s();
    for (size_t n = 0;; ++n) {
      bool go = false;
      if (ci == 0)
        go = n < plan.write_min || now_s() - t_begin < plan.write_seconds;
      if (!bcast_flag(clients, go)) break;
      step(n, true);
    }
    if (counted)
      run.rec.messages[static_cast<size_t>(ci)] +=
          counted->messages() - messages0;
  }
  const int newest = snap - 1;

  // --- restart phase: collective read of every window; verified --------
  if (plan.restart_seconds > 0) {
    const int restored = plan.restart_snap >= 0 ? plan.restart_snap : newest;
    for (auto* b : mine) stamp(*b, restored);
    std::vector<uint64_t> expect;
    for (auto* b : mine) expect.push_back(b->state_checksum());
    const std::string base = snap_name(restored);
    const double t_begin = now_s();
    for (size_t iter = 0;; ++iter) {
      bool go = false;
      if (ci == 0)
        go = iter < plan.restart_min ||
             now_s() - t_begin < plan.restart_seconds;
      if (!bcast_flag(clients, go)) break;
      for (auto* b : mine) clobber(*b);
      const double steal0 = ci == 0 ? steal_ticks() : 0;
      clients.barrier();
      const double t0 = now_s();
      for (const auto& w : run.mesh.windows)
        io.read_attribute(com, roccom::IoRequest{w, "all", base, 0.0});
      clients.barrier();
      const double t1 = now_s();
      int bad = -1;
      for (size_t i = 0; i < mine.size(); ++i)
        if (mine[i]->state_checksum() != expect[i]) bad = mine[i]->id();
      const int any_bad = comm::allreduce_max(clients, bad);
      if (ci == 0) {
        run.rec.restart.add(t1 - t0, steal_ticks() - steal0);
        run.failures.attempted.fetch_add(1);
        run.bytes_moved += run.mesh.payload_bytes;
        if (any_bad >= 0)
          run.failures.fail("restore " + std::to_string(iter) + " of " +
                            base + ": pane " + std::to_string(any_bad) +
                            " differs from its source");
      }
    }
  }
}

/// Launches one deployment of `dep` running `plan`; returns once every
/// thread has joined.
void deploy(Run& run, const Deployment& dep, const PhasePlan& plan) {
  run.part = mesh::partition_blocks(run.mesh.blocks, dep.nclients);
  const int world_size = dep.nclients + dep.nservers;
  comm::World::run(world_size, [&](comm::Comm& world) {
    comm::RealEnv env;
    try {
      if (dep.service == Service::kTRochdf) {
        rochdf::Options o;
        o.threaded = true;
        o.directory = shdf::DirectoryKind::kIndexed;
        rochdf::Rochdf io(world, env, run.fs, o);
        client_body(run, plan, world, io, nullptr);
        io.sync();
        const std::lock_guard<std::mutex> lock(run.mu);
        run.rochdf.push_back(io.stats());
        return;
      }
      const rocpanda::Layout layout(world.size(), dep.nservers);
      const bool server = layout.is_server(world.rank());
      auto local = world.split(server ? 1 : 0, world.rank());
      if (server) {
        rocpanda::ServerOptions so;
        so.directory = shdf::DirectoryKind::kIndexed;
        const auto stats =
            rocpanda::run_server(world, *local, env, run.fs, layout, so);
        const std::lock_guard<std::mutex> lock(run.mu);
        run.servers.push_back(stats);
        return;
      }
      CountingComm counted(world);
      rocpanda::RocpandaClient client(counted, env, layout);
      client_body(run, plan, *local, client, &counted);
      client.shutdown();
      const std::lock_guard<std::mutex> lock(run.mu);
      run.clients.push_back(client.stats());
    } catch (const std::exception& e) {
      // Reported at once: a peer left behind may hang, and then only the
      // deadline in run.py ends the process.
      run.failures.fail(std::string("rank ") + std::to_string(world.rank()) +
                        " threw: " + e.what());
      throw;
    }
  });
}

/// Reads back every retained snapshot outside the timed region and checks
/// each pane against its source; one operation per snapshot.
void verify_retained(Mesh& mesh, vfs::FileSystem& fs, Failures& failures,
                     int first_snap, int last_snap) {
  if (last_snap < first_snap) return;
  const int from = std::max(first_snap, last_snap - kRetained + 1);
  std::map<std::pair<std::string, int>, size_t> index;
  for (size_t i = 0; i < mesh.blocks.size(); ++i)
    index[{mesh.window[i], mesh.blocks[i].id()}] = i;
  for (int snap = from; snap <= last_snap; ++snap) {
    failures.attempted.fetch_add(1);
    const std::string base = snap_name(snap);
    try {
      std::vector<int> seen(mesh.blocks.size(), 0);
      const auto files = fs.list(base + "_");
      if (files.empty()) throw std::runtime_error("no files");
      for (const auto& f : files) {
        shdf::Reader r(fs, f);
        for (const auto& w : mesh.windows) {
          for (int id : roccom::pane_ids_in_file(r, w)) {
            const auto it = index.find({w, id});
            if (it == index.end())
              throw std::runtime_error("unexpected pane " + w + "/" +
                                       std::to_string(id));
            mesh::MeshBlock& src = mesh.blocks[it->second];
            stamp(src, snap);
            if (roccom::read_block(r, w, id).state_checksum() !=
                src.state_checksum())
              throw std::runtime_error("pane " + w + "/" +
                                       std::to_string(id) + " in " + f +
                                       " differs from its source");
            ++seen[it->second];
          }
        }
      }
      for (size_t i = 0; i < seen.size(); ++i)
        if (seen[i] != 1)
          throw std::runtime_error(
              "pane " + std::to_string(mesh.blocks[i].id()) + " found " +
              std::to_string(seen[i]) + " times");
    } catch (const std::exception& e) {
      failures.fail("verify " + base + ": " + e.what());
    }
  }
}

/// Planted fault: flips one byte in the middle of the newest retained file.
void plant_corruption(vfs::PosixFileSystem& fs, int snap) {
  const auto files = fs.list(snap_name(snap) + "_");
  if (files.empty()) return;
  const std::string path = fs.root() + files.front();
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(c ^ 0x5A, f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Per-layer timings (traced run): each layer's public functions, timed from
// here on the workload's own blocks.
// ---------------------------------------------------------------------------

/// Runs `body` (one pass over the inputs) until `budget` seconds have
/// passed and at least `min_reps` passes ran; returns the median pass time.
double median_pass(const std::function<void()>& body, double budget = 0.3,
                   int min_reps = 3) {
  std::vector<double> t;
  const double start = now_s();
  while (static_cast<int>(t.size()) < min_reps ||
         (now_s() - start < budget && t.size() < 200)) {
    const double t0 = now_s();
    body();
    t.push_back(now_s() - t0);
  }
  return percentile(t, 50);
}

double mbps(uint64_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / seconds;
}

void measure_layers(Mesh& m, vfs::FileSystem& fs, int newest_snap,
                    std::vector<Metric>& out, const std::string& scratch_dir) {
  const size_t nb = m.blocks.size();
  std::vector<SharedBuffer> wire;  // The marshalled block of every pane.
  uint64_t wire_bytes = 0;
  uint64_t payload_bytes = 0;
  BufferPool pool;
  BufferChain chain;
  for (const auto& b : m.blocks) {
    rocpanda::WireBlock::serialize_chain_into(b, "all", &pool, chain);
    wire.push_back(pool.gather(chain));
    wire_bytes += wire.back().size();
    payload_bytes += b.payload_bytes();
  }

  auto add = [&](const std::string& name, double v, const std::string& unit,
                 const std::string& maps) {
    out.push_back({name, v, unit, 1, maps});
  };

  // rocpanda client: marshal (serialize_chain_into + pooled gather).
  {
    BufferPool p;
    BufferChain c;
    const double t = median_pass([&] {
      for (const auto& b : m.blocks) {
        rocpanda::WireBlock::serialize_chain_into(b, "all", &p, c);
        SharedBuffer s = p.gather(c);
        if (s.size() == 0) throw std::runtime_error("empty marshal");
      }
    });
    add("rocpanda.marshal.us_per_block", t * 1e6 / static_cast<double>(nb),
        "us", "write_visible_ms on panda_bulk (bytes), panda_irregular (blocks)");
  }

  // comm: ThreadComm sendv -> recv of the marshalling chains.
  {
    std::vector<BufferChain> chains(nb);
    BufferPool p;
    for (size_t i = 0; i < nb; ++i)
      rocpanda::WireBlock::serialize_chain_into(m.blocks[i], "all", &p,
                                                chains[i]);
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      double elapsed = 0;
      comm::World::run(2, [&](comm::Comm& c) {
        c.barrier();
        if (c.rank() == 0) {
          const double t0 = now_s();
          for (const auto& ch : chains) c.sendv(1, 7, ch);
          (void)c.recv(1, 8);
          elapsed = now_s() - t0;
        } else {
          for (size_t i = 0; i < nb; ++i) (void)c.recv(0, 7);
          c.signal(0, 8);
        }
      });
      times.push_back(elapsed);
    }
    add("comm.sendv.MBps", mbps(wire_bytes, percentile(times, 50)), "MB/s",
        "write_visible_ms on panda_bulk, panda_irregular");
  }

  // rocpanda server: WireBlockView::parse + write_to into shdf::Writer.
  auto passthrough = [&](vfs::FileSystem& fs, const std::string& path) {
    rocpanda::WriteScratch scratch;
    return median_pass([&] {
      shdf::Writer w(fs, path, shdf::DirectoryKind::kIndexed);
      for (size_t i = 0; i < nb; ++i) {
        const auto view = rocpanda::WireBlockView::parse(wire[i]);
        view.write_to(w, m.window[i], 1.0, shdf::Codec::kNone, &scratch);
      }
      w.close();
    });
  };
  vfs::PosixFileSystem posix(scratch_dir);
  double t_passthrough_posix = 0;
  {
    vfs::MemFileSystem mem;
    add("rocpanda.passthrough_mem.MBps",
        mbps(payload_bytes, passthrough(mem, "pt.shdf")), "MB/s",
        "step_ms, checkpoint_MBps on panda_bulk, then panda_irregular");
    t_passthrough_posix = passthrough(posix, "pt.shdf");
    add("rocpanda.passthrough_posix.MBps",
        mbps(payload_bytes, t_passthrough_posix), "MB/s",
        "step_ms, checkpoint_MBps on panda_bulk, then panda_irregular");
  }

  // vfs: the raw-write ceiling, same bytes through File::writev + flush.
  auto raw_write = [&](vfs::FileSystem& fs) {
    return median_pass([&] {
      auto f = fs.open("raw.bin", vfs::OpenMode::kTruncate);
      std::vector<ConstBuffer> segs;
      for (const auto& w : wire) {
        segs.assign(1, ConstBuffer(w));
        f->writev(segs);
      }
      f->flush();
    });
  };
  // The ratio compares the two times on the same snapshot: the
  // pass-through writes it as a shdf file, the raw write its wire bytes.
  const double t_raw_posix = raw_write(posix);
  add("rocpanda.passthrough_vs_raw", t_raw_posix / t_passthrough_posix,
      "ratio", "checkpoint_MBps on panda_bulk (target >= 0.8)");
  add("vfs.writev_posix.MBps", mbps(wire_bytes, t_raw_posix), "MB/s",
      "ceiling of checkpoint_MBps on panda_bulk");
  {
    vfs::AsyncOptions ao;
    ao.backend = vfs::AsyncBackend::kAuto;
    vfs::AsyncFileSystem afs(posix, ao);
    add("vfs.async_write.MBps", mbps(wire_bytes, raw_write(afs)), "MB/s",
        "ceiling of checkpoint_MBps on panda_bulk (async engine, off by "
        "default)");
  }
  {
    const uint64_t size = posix.open("pt.shdf", vfs::OpenMode::kRead)->size();
    std::vector<unsigned char> buf(1 << 20);
    const double t = median_pass([&] {
      auto f = posix.open("pt.shdf", vfs::OpenMode::kRead);
      for (uint64_t done = 0; done < size;) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(buf.size(), size - done));
        f->read(buf.data(), n);
        done += n;
      }
    });
    add("vfs.read_posix.MBps", mbps(size, t), "MB/s",
        "restart_ms on restart_remap");
  }

  // util: checksum and copy ceilings on the same bytes.
  {
    uint64_t acc = 0;
    const double t = median_pass([&] {
      for (const auto& w : wire) acc ^= crc64(w.data(), w.size());
    });
    add("util.crc64.GBps", static_cast<double>(wire_bytes) / 1e9 / t,
        "GB/s", "step_ms on panda_bulk; restart_ms (verify on read)");
    std::vector<unsigned char> dst(wire_bytes + 1);
    const double tc = median_pass([&] {
      size_t off = 0;
      for (const auto& w : wire) {
        std::memcpy(dst.data() + off, w.data(), w.size());
        off += w.size();
      }
      dst[off] ^= static_cast<unsigned char>(acc);
    });
    add("util.memcpy.GBps", static_cast<double>(wire_bytes) / 1e9 / tc,
        "GB/s", "step_ms on panda_bulk (copy ceiling)");
  }

  // shdf: put_dataset alone, over MemFileSystem, definitions prebuilt.
  {
    std::vector<shdf::DatasetDef> defs;
    std::vector<BufferChain> payloads;
    for (size_t i = 0; i < nb; ++i) {
      const auto& b = m.blocks[i];
      const std::string& w = m.window[i];
      defs.push_back(roccom::coords_def(w, b.id(), b.kind(), b.node_dims(),
                                        b.node_count(), 1.0));
      payloads.emplace_back();
      payloads.back().append_borrowed(b.coords().data(),
                                      b.coords().size() * sizeof(double));
      if (b.kind() == mesh::MeshKind::kUnstructured) {
        defs.push_back(roccom::connectivity_def(w, b.id(), b.element_count()));
        payloads.emplace_back();
        payloads.back().append_borrowed(
            b.connectivity().data(),
            b.connectivity().size() * sizeof(int32_t));
      }
      for (const auto& f : b.fields()) {
        defs.push_back(roccom::field_def(w, b.id(), f.name, f.centering,
                                         f.ncomp, f.data.size(), 1.0,
                                         shdf::Codec::kNone));
        payloads.emplace_back();
        payloads.back().append_borrowed(f.data.data(),
                                        f.data.size() * sizeof(double));
      }
    }
    vfs::MemFileSystem mem;
    const double t = median_pass([&] {
      shdf::Writer w(mem, "put.shdf", shdf::DirectoryKind::kIndexed);
      for (size_t i = 0; i < defs.size(); ++i)
        w.put_dataset(defs[i], payloads[i]);
      w.close();
    });
    add("shdf.put_dataset.us_per_dataset",
        t * 1e6 / static_cast<double>(defs.size()), "us",
        "step_ms on panda_irregular");
  }

  // shdf / roccom read path, on the newest retained snapshot's files.
  {
    const auto files = fs.list(snap_name(newest_snap) + "_");
    uint64_t datasets = 0;
    for (const auto& f : files) datasets += shdf::Reader(fs, f).dataset_count();
    add("shdf.datasets_per_step", static_cast<double>(datasets), "count",
        "step_ms on panda_irregular");
    const double t_open = median_pass([&] {
      for (const auto& f : files) (void)shdf::Reader(fs, f);
    });
    add("shdf.reader_open.ms",
        t_open * 1e3 / static_cast<double>(std::max<size_t>(1, files.size())),
        "ms", "restart_ms on restart_remap");
    uint64_t raw_bytes = 0;
    const double t_raw = median_pass([&] {
      raw_bytes = 0;
      for (const auto& f : files) {
        shdf::Reader r(fs, f);
        for (const auto& name : r.dataset_names())
          raw_bytes += r.read_raw(name).size();
      }
    });
    add("shdf.read_raw.MBps", mbps(raw_bytes, t_raw), "MB/s",
        "restart_ms on restart_remap");
    uint64_t block_bytes = 0;
    const double t_rb = median_pass([&] {
      block_bytes = 0;
      for (const auto& f : files) {
        shdf::Reader r(fs, f);
        for (const auto& w : m.windows)
          for (int id : roccom::pane_ids_in_file(r, w))
            block_bytes += roccom::read_block(r, w, id).payload_bytes();
      }
    });
    add("roccom.read_block.MBps", mbps(block_bytes, t_rb), "MB/s",
        "restart_ms only");
  }

  // mesh: serialize / deserialize / copy_block_attribute.
  {
    std::vector<std::vector<unsigned char>> ser(nb);
    const double ts = median_pass([&] {
      for (size_t i = 0; i < nb; ++i) ser[i] = m.blocks[i].serialize();
    });
    add("mesh.serialize.MBps", mbps(payload_bytes, ts), "MB/s",
        "restart_ms only");
    const double td = median_pass([&] {
      for (size_t i = 0; i < nb; ++i) {
        const auto b = mesh::MeshBlock::deserialize(ser[i].data(),
                                                    ser[i].size());
        if (b.id() != m.blocks[i].id())
          throw std::runtime_error("deserialize changed the block id");
      }
    });
    add("mesh.deserialize.MBps", mbps(payload_bytes, td), "MB/s",
        "restart_ms only");
    std::vector<mesh::MeshBlock> dst(m.blocks.begin(), m.blocks.end());
    const double tcopy = median_pass([&] {
      for (size_t i = 0; i < nb; ++i)
        mesh::copy_block_attribute(m.blocks[i], dst[i], "all");
    });
    add("mesh.copy_attribute.MBps", mbps(payload_bytes, tcopy), "MB/s",
        "restart_ms only");
  }
  posix.remove("pt.shdf");
  posix.remove("raw.bin");
}

// ---------------------------------------------------------------------------
// Passes, metrics and main
// ---------------------------------------------------------------------------

/// One pass: the write deployment (set-up, optional checkpoint, write
/// phase and -- unless the workload restores elsewhere -- the restart
/// phase), then the separate restore deployment if any.
struct Pass {
  int last_snap = -1;
  double ready_s = 0;  ///< Deployment start-up up to the set-up barrier.
  uint64_t bytes_moved = 0;
  std::vector<rocpanda::ServerStats> servers;
  std::vector<rocpanda::ClientStats> clients;
  std::vector<rochdf::Stats> rochdf;
};

Pass run_pass(const Args& args, const Workload& wl, Mesh& mesh,
              vfs::PosixFileSystem& fs, Failures& failures, Record& rec,
              int first_snap, const PhasePlan& write_plan,
              const PhasePlan& restore_plan) {
  Pass pass;
  Run w(args, wl, mesh, fs, failures, rec, first_snap);
  double launch = now_s();
  deploy(w, wl.write, write_plan);
  pass.ready_s = w.ready_at - launch;
  pass.last_snap = w.last_snap;
  pass.bytes_moved = w.bytes_moved;
  pass.servers = w.servers;
  pass.clients = w.clients;
  pass.rochdf = w.rochdf;
  if (wl.separate_restore) {
    Run r(args, wl, mesh, fs, failures, rec, first_snap);
    launch = now_s();
    deploy(r, wl.restore, restore_plan);
    pass.ready_s += r.ready_at - launch;
    pass.bytes_moved += r.bytes_moved;
    pass.servers.insert(pass.servers.end(), r.servers.begin(),
                        r.servers.end());
  }
  return pass;
}

/// Plans of one pass.  The write and restart phases each get half of
/// `seconds`: a restore takes two to three steps' time, so its samples are
/// the fewer and its figures the noisier.  Each phase also runs at least
/// `min_samples` iterations.
std::pair<PhasePlan, PhasePlan> plans(const Workload& wl, double seconds,
                                      size_t min_samples, bool setup_only) {
  PhasePlan w;
  w.checkpoint = wl.separate_restore;
  w.setup_only = setup_only;
  w.warmup_steps = kWarmupSteps;
  w.write_seconds = seconds * 0.5;
  w.write_min = min_samples;
  PhasePlan r;
  r.setup_only = setup_only;
  r.restart_seconds = seconds * 0.5;
  r.restart_min = min_samples;
  if (wl.separate_restore) {
    r.restart_snap = kCheckpointSnap;
  } else {
    w.restart_seconds = r.restart_seconds;
    w.restart_min = min_samples;
  }
  return {w, r};
}

/// Deletes every snapshot file the pass left behind.
void clear_snapshots(vfs::FileSystem& fs) {
  for (const auto& f : fs.list("snap")) fs.remove(f);
}

/// One set-up-only cycle in `fs`, a directory of its own: mesh generation
/// plus every deployment's start-up (and the restart checkpoint), torn
/// down again.  Adds its time and the steal ticks during it to `setups`.
void setup_cycle(const Args& args, const Workload& wl,
                 vfs::PosixFileSystem& fs, Failures& failures,
                 Samples& setups) {
  const double steal0 = steal_ticks();
  const double t0 = now_s();
  Mesh mesh = make_mesh(wl, args.seed);
  const double gen_s = now_s() - t0;
  Record rec(std::max(wl.write.nclients, wl.restore.nclients));
  const auto [w, r] = plans(wl, 0, 0, true);
  const Pass p = run_pass(args, wl, mesh, fs, failures, rec, 1, w, r);
  setups.add(gen_s + p.ready_s, steal_ticks() - steal0);
  clear_snapshots(fs);
}

/// One measured pass of `kRounds` rounds, each a run_pass with its share of
/// `seconds` and `min_samples`; the checkpoint is written in the first.
/// The last round's retained snapshots are verified outside the timed
/// phases; those of the earlier rounds are deleted.  With `setups`, each
/// round is preceded by set-up-only cycles in `setup_fs`.
std::vector<Pass> measure(const Args& args, const Workload& wl, Mesh& mesh,
                          vfs::PosixFileSystem& fs, Failures& failures,
                          Record& rec, int first_snap, double seconds,
                          size_t min_samples, vfs::PosixFileSystem* setup_fs,
                          Samples* setups) {
  std::vector<Pass> passes;
  int snap = first_snap;
  for (int round = 0; round < kRounds; ++round) {
    if (setups != nullptr)
      for (int i = 0; i < kSetupCyclesPerRound; ++i)
        setup_cycle(args, wl, *setup_fs, failures, *setups);
    auto [w, r] = plans(wl, seconds / kRounds,
                        (min_samples + kRounds - 1) / kRounds, false);
    w.checkpoint = w.checkpoint && round == 0;
    passes.push_back(run_pass(args, wl, mesh, fs, failures, rec, snap, w, r));
    const int last = passes.back().last_snap;
    if (round + 1 < kRounds) {
      for (int s = snap; s <= last; ++s) remove_snapshot(fs, s);
    } else {
      if (args.plant == "corrupt") plant_corruption(fs, last);
      verify_retained(mesh, fs, failures, snap, last);
    }
    snap = last + 1;
  }
  return passes;
}

void add_timing(std::vector<Metric>& out, const std::string& name,
                const std::vector<double>& seconds) {
  out.push_back({name + ".p50", percentile(seconds, 50) * 1e3, "ms",
                 seconds.size(), ""});
  out.push_back({name + ".p90", percentile(seconds, 90) * 1e3, "ms",
                 seconds.size(), ""});
}

double p50_sum(const Record& r) {
  return percentile(r.step.seconds, 50) + percentile(r.restart.seconds, 50);
}

void print_result(const Args& args, const Failures& failures,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"workload\": " + json_string(args.workload) +
                  ", \"seed\": " + std::to_string(args.seed) +
                  ", \"trace\": " + (args.trace ? "1" : "0") +
                  ", \"build_type\": " + json_string(BENCH_BUILD_TYPE) +
                  ", \"options\": " + json_string(BENCH_OPTIONS) +
                  ", \"attempted\": " +
                  std::to_string(failures.attempted.load()) +
                  ", \"failed\": " + std::to_string(failures.failed.load()) +
                  ", \"errors\": [";
  for (size_t i = 0; i < failures.errors.size(); ++i)
    s += (i ? ", " : "") + json_string(failures.errors[i]);
  s += "], \"metrics\": [";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += std::string(i ? ", " : "") + "{\"name\": " + json_string(m.name) +
         ", \"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) +
         ", \"samples\": " + std::to_string(m.samples) +
         ", \"maps_to\": " + json_string(m.maps_to) + "}";
  }
  s += "]}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

/// The end-to-end metrics as measured, then the same with CPU steal taken
/// out (Samples::steal_adjusted): `<name>.steal_adj`, and setup_s.
std::vector<Metric> end_to_end_metrics(const Record& rec, const Mesh& mesh,
                                       const Samples& setups,
                                       const Failures& failures) {
  std::vector<Metric> m;
  const size_t steps = rec.step.size();
  const size_t restores = rec.restart.size();
  auto rate = [&](size_t n, const std::vector<double>& seconds) {
    return mbps(mesh.payload_bytes * n, sum(seconds));
  };
  add_timing(m, "write_visible_ms", rec.max_visible());
  add_timing(m, "step_ms", rec.step.seconds);
  m.push_back({"checkpoint_MBps", rate(steps, rec.step.seconds), "MB/s",
               steps, ""});
  add_timing(m, "restart_ms", rec.restart.seconds);
  m.push_back({"restart_MBps", rate(restores, rec.restart.seconds), "MB/s",
               restores, ""});
  m.push_back({"setup_s.unadjusted", percentile(setups.seconds, 50), "s",
               setups.size(), ""});
  const std::vector<double> step = rec.step.steal_adjusted();
  const std::vector<double> restart = rec.restart.steal_adjusted();
  m.push_back({"step_ms.p50.steal_adj", percentile(step, 50) * 1e3, "ms",
               steps, ""});
  m.push_back({"checkpoint_MBps.steal_adj", rate(steps, step), "MB/s", steps,
               ""});
  m.push_back({"restart_ms.p50.steal_adj", percentile(restart, 50) * 1e3,
               "ms", restores, ""});
  m.push_back({"restart_MBps.steal_adj", rate(restores, restart), "MB/s",
               restores, ""});
  m.push_back({"setup_s", percentile(setups.steal_adjusted(), 50), "s",
               setups.size(), ""});
  const uint64_t attempted = failures.attempted;
  m.push_back({"ops_failed_ratio",
               static_cast<double>(failures.failed) /
                   static_cast<double>(std::max<uint64_t>(1, attempted)),
               "ratio", attempted, ""});
  return m;
}

/// The program's own counters and the process's resource use, summed over
/// the untraced and traced passes.
void counter_metrics(const std::vector<const Record*>& records,
                     const std::vector<const Pass*>& passes,
                     std::vector<Metric>& out) {
  rocpanda::ServerStats ss;
  rochdf::Stats rs;
  uint64_t bytes_moved = 0;
  for (const Pass* p : passes) {
    for (const auto& s : p->servers) {
      ss.blocks_received += s.blocks_received;
      ss.bytes_received += s.bytes_received;
      ss.buffered_bytes_peak =
          std::max(ss.buffered_bytes_peak, s.buffered_bytes_peak);
      ss.spills += s.spills;
      ss.files_created += s.files_created;
    }
    for (const auto& s : p->rochdf) {
      rs.snapshot_waits += s.snapshot_waits;
      rs.files_written += s.files_written;
    }
    bytes_moved += p->bytes_moved;
  }
  auto count = [&](const char* name, uint64_t v, const char* unit,
                   const std::string& maps) {
    out.push_back({name, static_cast<double>(v), unit, 1, maps});
  };
  // Messages every client sent and received on its world communicator
  // during the sampled write steps, summed over clients, per step.
  uint64_t messages = 0;
  size_t steps = 0;
  for (const Record* r : records) {
    messages = std::accumulate(r->messages.begin(), r->messages.end(),
                               messages);
    steps += r->step.size();
  }
  out.push_back({"comm.messages_per_step",
                 steps > 0 ? static_cast<double>(messages) /
                                 static_cast<double>(steps)
                           : 0.0,
                 "count", steps,
                 "write_visible_ms on panda_bulk (bytes), panda_irregular "
                 "(blocks)"});
  const std::string server =
      "step_ms, checkpoint_MBps on panda_bulk most, then panda_irregular";
  count("server.blocks_received", ss.blocks_received, "count", server);
  count("server.bytes_received", ss.bytes_received, "bytes", server);
  count("server.buffered_bytes_peak", ss.buffered_bytes_peak, "bytes", server);
  count("server.spills", ss.spills, "count", server);
  count("server.files_created", ss.files_created, "count", server);
  const std::string rochdf = "write_visible_ms.p90 on trochdf_overlap";
  count("rochdf.snapshot_waits", rs.snapshot_waits, "count", rochdf);
  count("rochdf.files_written", rs.files_written, "count", rochdf);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double user = static_cast<double>(ru.ru_utime.tv_sec) +
                      static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  const double sys = static_cast<double>(ru.ru_stime.tv_sec) +
                     static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  out.push_back({"proc.peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024,
                 "MB", 1, "working set of every workload"});
  out.push_back({"proc.cpu_user_s", user, "s", 1, "step_ms, restart_ms"});
  out.push_back({"proc.cpu_sys_s", sys, "s", 1, "step_ms, restart_ms"});
  out.push_back({"proc.cpu_s_per_GB",
                 (user + sys) / (static_cast<double>(bytes_moved) / 1e9),
                 "s/GB", 1, "checkpoint_MBps, restart_MBps"});
}

int run_main(const Args& args) {
  const Workload wl = find_workload(args.workload);
  vfs::PosixFileSystem fs(args.root + "/data");
  Failures failures;
  const int nclients = std::max(wl.write.nclients, wl.restore.nclients);

  // Untraced pass: every end-to-end metric.  A traced run makes a shorter
  // untraced pass and then the same pass with the program's trace
  // recording on, so the tracing overhead is measured within one process;
  // the layer timings follow.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const size_t min_samples = args.trace ? 30 : 100;
  // setup_s is the median over set-up-only cycles made between the rounds
  // of the untraced pass, in a directory of their own.
  vfs::PosixFileSystem setup_fs(args.root + "/setup");
  Samples setups;
  Mesh mesh = make_mesh(wl, args.seed);
  Record rec(nclients);
  const std::vector<Pass> p1 = measure(args, wl, mesh, fs, failures, rec, 1,
                                       seconds, min_samples, &setup_fs,
                                       &setups);
  failures.progress("verified");
  if (!args.trace) {
    print_result(args, failures,
                 end_to_end_metrics(rec, mesh, setups, failures));
    return 0;
  }

  clear_snapshots(fs);
  Record traced(nclients);
  telemetry::set_trace_enabled(true);
  const std::vector<Pass> p2 =
      measure(args, wl, mesh, fs, failures, traced, p1.back().last_snap + 1,
              seconds, min_samples, nullptr, nullptr);
  telemetry::set_trace_enabled(false);
  (void)telemetry::collect_trace();
  failures.progress("traced");

  std::vector<Metric> metrics;
  const std::vector<double> sync = rec.all_sync();
  const std::string sync_maps =
      "step_ms on panda_*; about 0 on trochdf_overlap";
  metrics.push_back({"roccom.sync.ms.p50", percentile(sync, 50) * 1e3, "ms",
                     sync.size(), sync_maps});
  metrics.push_back({"roccom.sync.ms.p90", percentile(sync, 90) * 1e3, "ms",
                     sync.size(), sync_maps});
  std::vector<const Pass*> passes;
  for (const auto* ps : {&p1, &p2})
    for (const Pass& p : *ps) passes.push_back(&p);
  counter_metrics({&rec, &traced}, passes, metrics);
  metrics.push_back({"trace.overhead_pct",
                     (p50_sum(traced) / p50_sum(rec) - 1.0) * 100.0, "%",
                     std::min(traced.step.size(), traced.restart.size()),
                     "step_ms.p50 + restart_ms.p50, traced vs untraced"});
  failures.progress("layers");
  measure_layers(mesh, fs, p2.back().last_snap, metrics,
                 args.root + "/layers");
  print_result(args, failures, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: error: %s\n", e.what());
    return 2;
  }
}
