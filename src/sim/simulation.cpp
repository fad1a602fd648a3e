#include "sim/simulation.h"

#include <algorithm>

#include "telemetry/clock.h"
#include "telemetry/trace.h"
#include "util/log.h"

namespace roc::sim {

using detail::NodeState;
using detail::Process;

namespace {

/// Exposes the simulation's virtual time as the telemetry clock, so trace
/// spans taken inside simulated processes are stamped in simulated
/// seconds.  Safe without locks: now_ is only mutated by the scheduler
/// while every process thread is parked, and the semaphore handoff orders
/// the accesses.
class SimClockSource final : public telemetry::ClockSource {
 public:
  explicit SimClockSource(const Simulation& sim) : sim_(sim) {}
  [[nodiscard]] double now() const override { return sim_.now(); }

 private:
  const Simulation& sim_;
};

/// Which simulation/process owns the calling thread, for
/// Simulation::try_preempt() — the checker's preemption hook fires on
/// arbitrary threads and must only act on this sim's running process.
thread_local Simulation* t_sim = nullptr;
thread_local Process* t_proc = nullptr;

}  // namespace

double NodeState::noise_factor(const NodeParams& p, bool any_idle_cpu) {
  if (p.os_noise_fraction <= 0) return 1.0;
  // Daemons run on an idle CPU when one exists (paper Fig 3(b)); otherwise
  // they preempt computation for a random burst.
  if (any_idle_cpu) return 1.0;
  return 1.0 + p.os_noise_fraction *
                   (1.0 + p.os_noise_burst * rng.next_exponential(1.0));
}

// ---------------------------------------------------------------------------
// ProcContext
// ---------------------------------------------------------------------------

ProcContext Simulation::current_context() {
  return ProcContext(this, current());
}

double ProcContext::now() const { return sim_->now_; }

void ProcContext::wait_until(double t, bool cpu_busy) {
  if (cpu_busy) sim_->set_cpu_busy(proc_, true);
  sim_->wake(proc_, std::max(t, sim_->now_));
  sim_->yield_to_scheduler(proc_);
  if (cpu_busy) sim_->set_cpu_busy(proc_, false);
}

void ProcContext::compute(double seconds) {
  if (seconds <= 0) return;
  sim_->set_cpu_busy(proc_, true);
  NodeState& node = sim_->node_state(proc_->node);
  const bool any_idle = node.busy_cpus < sim_->platform().node.cpus;
  const double factor =
      node.noise_factor(sim_->platform().node, any_idle);
  sim_->wake(proc_, sim_->now_ + seconds * factor);
  sim_->yield_to_scheduler(proc_);
  sim_->set_cpu_busy(proc_, false);
}

void ProcContext::block() { sim_->yield_to_scheduler(proc_); }

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

Simulation::Simulation(Platform platform) : platform_(std::move(platform)) {
  require(platform_.node.cpus >= 1, "platform needs at least 1 CPU per node");
}

Simulation::~Simulation() {
  // Normal completion joins everything in run().  If run() was never
  // called, no threads were started.  Abnormal completion has already
  // detached and leaked the stuck processes (see run()).
}

int Simulation::add_process(ProcBody body) {
  require(!ran_, "add_process after run()");
  auto p = std::make_unique<Process>();
  p->rank = static_cast<int>(procs_.size());
  p->node = p->rank / platform_.node.cpus;
  p->sched_id = p->rank;
  p->body = std::move(body);
  procs_.push_back(std::move(p));
  return static_cast<int>(procs_.size()) - 1;
}

int Simulation::node_of_rank(int rank) const {
  return rank / platform_.node.cpus;
}

NodeState& Simulation::node_state(int node) {
  while (static_cast<size_t>(node) >= nodes_.size()) {
    NodeState ns;
    ns.rng = Rng(platform_.seed * 1000003ULL +
                 static_cast<uint64_t>(nodes_.size()));
    nodes_.push_back(ns);
  }
  return nodes_[static_cast<size_t>(node)];
}

void Simulation::set_cpu_busy(Process* p, bool busy) {
  if (p->is_aux) return;  // aux workers free-ride on their owner's CPU
  NodeState& ns = node_state(p->node);
  ns.busy_cpus += busy ? 1 : -1;
}

double& Simulation::resource(const std::string& key) {
  return resources_[key];
}

void Simulation::schedule(double t, std::function<void()> fn) {
  events_.push(Event{std::max(t, now_), next_seq_++, nullptr, std::move(fn)});
}

void Simulation::wake(Process* p, double t) {
  if (p->finished || p->wake_pending) return;
  p->wake_pending = true;
  events_.push(Event{std::max(t, now_), next_seq_++, p, {}});
}

void Simulation::record_error(std::exception_ptr e) {
  roc::MutexLock lock(error_mutex_);
  if (!first_error_) first_error_ = std::move(e);
}

bool Simulation::has_error() {
  roc::MutexLock lock(error_mutex_);
  return first_error_ != nullptr;
}

std::exception_ptr Simulation::take_error() {
  roc::MutexLock lock(error_mutex_);
  return first_error_;
}

void Simulation::start_process_thread(Process* p) {
  p->started = true;
  p->thread = roc::Thread([this, p] {
    t_sim = this;
    t_proc = p;
    p->go.acquire();
    // Default trace name; workers may refine it (e.g. "t-rochdf writer").
    telemetry::set_thread_name(p->is_aux
                                   ? "aux@node " + std::to_string(p->node)
                                   : "rank " + std::to_string(p->rank));
    try {
      if (cancelled_) throw SimCancelled();
      if (p->is_aux) {
        p->aux_body();
      } else {
        ProcContext ctx(this, p);
        p->body(ctx);
      }
    } catch (const SimCancelled&) {
      // Clean unwind during cancellation.
    } catch (...) {
      record_error(std::current_exception());
    }
    finish_process(p);
    sched_sem_.release();
  });
}

void Simulation::finish_process(Process* p) {
  // Runs on the process thread while it still holds control: exclusive
  // access to simulation state is guaranteed.
  // Publish this process's clock so join_aux() can pick it up: the
  // semaphore handoff that delivers the join wake-up is scheduler
  // machinery, deliberately not a happens-before edge.
  p->finish_token = check::next_token();
  ROC_CHECKHOOK_(packet_send(p->finish_token));
  p->finished = true;
  for (Process* w : p->join_waiters) wake(w, now_);
  p->join_waiters.clear();
}

void Simulation::resume(Process* p) {
  current_ = p;
  p->go.release();
  sched_sem_.acquire();
  current_ = nullptr;
  if (p->finished && p->thread.joinable()) p->thread.join();
}

void Simulation::yield_to_scheduler(Process* p) {
  sched_sem_.release();
  p->go.acquire();
  if (cancelled_) throw SimCancelled();
}

bool Simulation::try_preempt() {
  if (t_sim != this || t_proc == nullptr) return false;
  Process* p = t_proc;
  if (p != current_ || p->finished) return false;
  // Re-enqueue the continuation at the current virtual time and give the
  // event loop a chance to run other same-time events first.
  wake(p, now_);
  yield_to_scheduler(p);
  return true;
}

Simulation::Event Simulation::pop_next_event() {
  if (scheduler_ == nullptr) {
    Event e = events_.top();
    events_.pop();
    return e;
  }
  // Gather every event due at the earliest virtual time; the scheduler
  // chooses among them.  Unpicked events go back with their original
  // sequence numbers, so relative FIFO order within a tie is preserved.
  const double t = events_.top().time;
  std::vector<Event> ties;
  while (!events_.empty() && events_.top().time == t) {
    ties.push_back(events_.top());
    events_.pop();
  }
  std::vector<Scheduler::Candidate> cands;
  cands.reserve(ties.size());
  for (const Event& e : ties) {
    cands.push_back(Scheduler::Candidate{
        e.time, e.seq, e.proc != nullptr ? e.proc->sched_id : -1,
        e.proc != nullptr && e.proc->is_aux, e.proc == nullptr});
  }
  size_t k = scheduler_->pick(cands);
  if (k >= ties.size()) k = 0;
  Event chosen = std::move(ties[k]);
  for (size_t i = 0; i < ties.size(); ++i) {
    if (i != k) events_.push(std::move(ties[i]));
  }
  return chosen;
}

Process* Simulation::spawn_aux(Process* parent, std::function<void()> body) {
  auto p = std::make_unique<Process>();
  p->rank = -1;
  p->node = parent->node;
  p->sched_id = static_cast<int>(procs_.size() + aux_.size());
  p->is_aux = true;
  p->aux_body = std::move(body);
  Process* raw = p.get();
  aux_.push_back(std::move(p));
  start_process_thread(raw);
  wake(raw, now_);
  return raw;
}

void Simulation::join_aux(Process* caller, Process* target) {
  while (!target->finished) {
    target->join_waiters.push_back(caller);
    yield_to_scheduler(caller);
  }
  if (target->thread.joinable()) target->thread.join();
  if (target->finish_token != 0) {
    ROC_CHECKHOOK_(packet_recv(target->finish_token));
  }
}

void Simulation::run() {
  require(!ran_, "Simulation::run may be called once");
  require(!procs_.empty(), "no processes added");
  ran_ = true;

  // Telemetry timestamps read virtual time for the duration of the run
  // (restored on exit, including the error path).  Threads leaked by an
  // abnormal end stay parked forever and never read the clock.
  SimClockSource sim_clock(*this);
  telemetry::ScopedClock scoped_clock(&sim_clock);

  for (auto& p : procs_) {
    start_process_thread(p.get());
    wake(p.get(), 0.0);
  }

  while (!events_.empty() && !has_error()) {
    Event e = pop_next_event();
    now_ = std::max(now_, e.time);
    if (e.proc != nullptr) {
      if (e.proc->finished) continue;
      e.proc->wake_pending = false;
      resume(e.proc);
    } else {
      e.fn();
    }
  }

  if (!has_error()) {
    std::string stuck;
    // Appended piecewise: `"lit" + std::to_string(...)` trips GCC 12's
    // bogus -Wrestrict at -O3 (PR105651).
    for (const auto& p : procs_) {
      if (p->finished) continue;
      stuck += ' ';
      stuck += std::to_string(p->rank);
    }
    for (const auto& p : aux_) {
      if (p->finished) continue;
      stuck += " aux@";
      stuck += std::to_string(p->node);
    }
    if (!stuck.empty())
      record_error(std::make_exception_ptr(
          CommError("simulation deadlock: processes blocked forever:" +
                    stuck)));
  }

  if (std::exception_ptr err = take_error()) {
    // Abnormal end: blocked process threads cannot be unwound safely (their
    // stacks may be inside destructors).  Detach and intentionally leak
    // them; this only happens on bugs or test-asserted failures.
    cancelled_ = true;
    size_t leaked = 0;
    auto abandon = [&](std::vector<std::unique_ptr<Process>>& list) {
      for (auto& p : list) {
        if (p->started && !p->finished) {
          p->thread.abandon();
          ++leaked;
          (void)p.release();  // leak: the detached thread references it
        } else if (p->thread.joinable()) {
          p->thread.join();
        }
      }
    };
    abandon(procs_);
    abandon(aux_);
    if (leaked > 0) {
      ROC_WARN << "simulation aborted; leaked " << leaked
               << " blocked process thread(s)";
    }
    std::rethrow_exception(err);
  }
}

}  // namespace roc::sim
