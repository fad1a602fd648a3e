#pragma once
/// \file simulation.h
/// \brief Deterministic discrete-event simulator with cooperatively
/// scheduled processes.
///
/// Each simulated process runs REAL library code (Rocpanda, Rochdf, Roccom,
/// SHDF) on its own std::thread, but exactly one process executes at a time:
/// the scheduler hands control to a process and regains it when the process
/// blocks (message wait, virtual delay, gate wait) or finishes.  Virtual
/// time advances only through the event queue, so results are exactly
/// reproducible and independent of host load — the property that lets a
/// 1-core container replay a 512-processor machine (DESIGN.md §5).
///
/// CPU accounting: a process advancing time may do so *busy* (computing,
/// copying) or *idle* (blocked on I/O or messages).  Each node tracks its
/// busy-CPU count; ProcContext::compute() applies the OS-noise inflation
/// when no idle CPU remains on the node (paper Fig 3(b) mechanism).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <semaphore>
#include <string>
#include <vector>

#include "sim/platform.h"
#include "util/error.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread.h"

namespace roc::sim {

class Simulation;
class ProcContext;

using ProcBody = std::function<void(ProcContext&)>;

/// Thrown inside simulated processes when the simulation aborts (another
/// process failed); unwinds the process stack cleanly.
class SimCancelled : public Error {
 public:
  SimCancelled() : Error("simulation cancelled") {}
};

namespace detail {

struct Process {
  int rank = -1;       ///< World rank (main processes); -1 for aux workers.
  int node = 0;
  int sched_id = -1;   ///< Stable scheduler identity (rank for mains,
                       ///< process_count()+spawn-ordinal for aux workers).
  bool is_aux = false; ///< Aux workers don't occupy a CPU slot.
  roc::Thread thread;
  std::binary_semaphore go{0};
  bool started = false;
  bool finished = false;
  bool wake_pending = false;  ///< An event will resume this process.
  uint64_t finish_token = 0;  ///< Checker HB token published at finish.
  std::vector<Process*> join_waiters;
  std::function<void()> aux_body;
  ProcBody body;
};

struct NodeState {
  int busy_cpus = 0;
  Rng rng{0};
  /// Samples the compute-inflation factor for one compute interval, given
  /// whether any CPU on the node is idle.
  double noise_factor(const NodeParams& p, bool any_idle_cpu);
};

}  // namespace detail

/// Interface each simulated process uses to interact with virtual time and
/// its node.  Only valid on the owning process's thread.
class ProcContext {
 public:
  [[nodiscard]] double now() const;
  [[nodiscard]] int rank() const { return proc_->rank; }
  [[nodiscard]] int node() const { return proc_->node; }
  [[nodiscard]] Simulation& sim() const { return *sim_; }

  /// Advances to time `t`.  `cpu_busy` controls node CPU accounting.
  void wait_until(double t, bool cpu_busy);

  /// Consumes `seconds` of CPU, inflated by the node's OS-noise model when
  /// the node has no idle CPU.
  void compute(double seconds);

  /// Blocks until another event calls Simulation::wake() on this process.
  void block();

 private:
  friend class Simulation;
  ProcContext(Simulation* sim, detail::Process* proc)
      : sim_(sim), proc_(proc) {}
  Simulation* sim_;
  detail::Process* proc_;
};

/// Pluggable tie-break policy for the event loop (used by the schedule
/// explorer, src/check/explorer.h).  Virtual time stays authoritative:
/// the scheduler only chooses among events that are runnable at the SAME
/// earliest virtual time — exactly the nondeterminism a real machine has.
/// The default (no scheduler installed) is FIFO by sequence number.
class Scheduler {
 public:
  /// A runnable event, described but never dereferenced, so policies can
  /// prioritize deterministically from the metadata alone.
  struct Candidate {
    double time;    ///< Virtual due time (equal across one pick() call).
    uint64_t seq;   ///< Global FIFO sequence number (unique).
    int sched_id;   ///< Stable process identity; -1 for bare fn events.
    bool is_aux;    ///< True for auxiliary workers (T-Rochdf I/O thread).
    bool is_fn;     ///< True for scheduler-context fn events.
  };
  virtual ~Scheduler() = default;
  /// Returns the index (into `c`) of the event to run next.  `c` is
  /// non-empty; out-of-range returns fall back to index 0.
  virtual size_t pick(const std::vector<Candidate>& c) = 0;
};

class Simulation {
 public:
  explicit Simulation(Platform platform);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Adds one main process before run(); processes are packed onto nodes
  /// (`platform.node.cpus` per node) in rank order.  Returns its rank.
  int add_process(ProcBody body);

  /// Runs to completion.  Rethrows the first process exception (after
  /// cancelling and joining everything).  May be called once.
  void run();

  /// Installs a tie-break scheduler (nullptr restores FIFO).  Must be set
  /// before run(); the pointer is borrowed, not owned.
  void set_scheduler(Scheduler* s) { scheduler_ = s; }

  /// Requests a zero-time preemption of the process running on the
  /// CALLING thread: its continuation is re-enqueued at the current
  /// virtual time and control returns to the event loop, which may run
  /// other same-time events first.  Returns false (no-op) when the
  /// calling thread is not a process of this simulation — the checker's
  /// preemption hook calls this blindly from any instrumented site.
  bool try_preempt();

  /// Scheduler identity of the process currently executing, or -1 when no
  /// process is running (scheduler context).  Used by the explorer to
  /// demote the priority of a thread it just preempted.
  [[nodiscard]] int current_sched_id() const {
    return current_ != nullptr ? current_->sched_id : -1;
  }

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] const Platform& platform() const { return platform_; }
  [[nodiscard]] int node_of_rank(int rank) const;
  [[nodiscard]] int process_count() const {
    return static_cast<int>(procs_.size());
  }

  /// Schedules `fn` to run in scheduler context at virtual time `t`
  /// (>= now).
  void schedule(double t, std::function<void()> fn);

  /// Schedules process `p` to resume at time `t`; no-op if a wake is
  /// already pending.
  void wake(detail::Process* p, double t);

  /// Spawns an auxiliary worker on the same node as `parent` (T-Rochdf's
  /// I/O thread).  Only callable from a running process.
  detail::Process* spawn_aux(detail::Process* parent,
                             std::function<void()> body);

  /// Blocks the calling process until `target` finishes.
  void join_aux(detail::Process* caller, detail::Process* target);

  /// Node bookkeeping (used by ProcContext and the models).
  detail::NodeState& node_state(int node);

  /// The process currently executing (valid only while one is).  The
  /// simulated services (gates, file system, communicators) use this to
  /// identify their caller without explicit context plumbing, mirroring
  /// how real syscalls identify the calling thread.
  [[nodiscard]] detail::Process* current() {
    require(current_ != nullptr, "no simulated process is running");
    return current_;
  }

  /// ProcContext for the currently running process.
  [[nodiscard]] ProcContext current_context();

  /// OS-noise-aware busy flag changes.
  void set_cpu_busy(detail::Process* p, bool busy);

  // -- shared resource clocks (used by the network and FS models) ----------
  /// Returns a reference to a named monotone resource clock ("next free
  /// time"), creating it at 0.
  double& resource(const std::string& key);

 private:
  friend class ProcContext;

  struct Event {
    double time;
    uint64_t seq;
    detail::Process* proc;  ///< Resume this process...
    std::function<void()> fn;  ///< ...or run this (exclusive).
    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  void resume(detail::Process* p);
  /// Called on the process thread: give control back to the scheduler.
  void yield_to_scheduler(detail::Process* p);
  void start_process_thread(detail::Process* p);
  void finish_process(detail::Process* p);
  /// Pops the next event; with a scheduler installed, gathers the events
  /// tied at the earliest time and lets it choose.
  Event pop_next_event();

  /// Records the first failure.  Callable from any process thread (the
  /// scheduler handoff serialises them in practice, but the error path
  /// must stay safe even when that invariant is being violated — which is
  /// exactly when errors happen).
  void record_error(std::exception_ptr e) ROC_EXCLUDES(error_mutex_);
  [[nodiscard]] bool has_error() ROC_EXCLUDES(error_mutex_);
  [[nodiscard]] std::exception_ptr take_error() ROC_EXCLUDES(error_mutex_);

  Platform platform_;
  double now_ = 0;
  uint64_t next_seq_ = 0;
  bool ran_ = false;
  bool cancelled_ = false;
  roc::Mutex error_mutex_;
  std::exception_ptr first_error_ ROC_GUARDED_BY(error_mutex_);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::vector<std::unique_ptr<detail::Process>> procs_;  // main, by rank
  std::vector<std::unique_ptr<detail::Process>> aux_;
  std::vector<detail::NodeState> nodes_;
  std::map<std::string, double> resources_;

  std::binary_semaphore sched_sem_{0};
  detail::Process* current_ = nullptr;
  Scheduler* scheduler_ = nullptr;  ///< Borrowed; nullptr = FIFO.
};

}  // namespace roc::sim
