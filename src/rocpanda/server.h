#pragma once
/// \file server.h
/// \brief The Rocpanda I/O server routine (paper §4.1, §6.1).
///
/// Dedicated I/O processors enter run_server() after initialization and
/// serve their assigned clients until every one of them sends Shutdown.
/// The server implements *active buffering*: during a collective output it
/// buffers incoming blocks instead of writing them, acknowledges the
/// client as soon as its data is buffered (that ack bounds the client's
/// visible I/O cost), and performs the actual file writes while the
/// clients compute — checking for new client requests between any two
/// block writes so that writing always yields to request handling.  If
/// the buffer would overflow, the oldest buffered blocks are written out
/// to make room (graceful spill, never data loss).
///
/// Files are written through `vfs::AsyncFileSystem` (DESIGN.md §12): on a
/// POSIX filesystem the writes are coalesced and submitted to a
/// thread-pool ring; any other filesystem's own files are used unchanged.
///
/// When there is nothing to write the server uses the *blocking* probe so
/// its CPU goes idle and the operating system can use it — the mechanism
/// behind the paper's SMP observation (Fig 3(b)).  With data pending it
/// uses the non-blocking probe between writes.

#include <cstdint>

#include "comm/comm.h"
#include "comm/env.h"
#include "rocpanda/layout.h"
#include "shdf/format.h"
#include "vfs/vfs.h"

namespace roc::rocpanda {

struct ServerOptions {
  /// false disables active buffering (ablation A1): blocks are written
  /// synchronously before the client is acknowledged.
  bool active_buffering = true;

  /// Buffer capacity in payload bytes; overflow triggers spilling.
  uint64_t buffer_capacity = UINT64_MAX;

  /// Directory engine of the files written (the paper writes HDF4).
  shdf::DirectoryKind directory = shdf::DirectoryKind::kLinear;

  /// false (ablation A4): when idle the server spins on the non-blocking
  /// probe, burning a fixed slice of CPU per poll, instead of blocking and
  /// freeing the CPU.
  bool blocking_probe_when_idle = true;

  /// Prepended to every file name (e.g. an output directory).
  std::string file_prefix;
};

struct ServerStats {
  uint64_t blocks_received = 0;
  uint64_t blocks_written = 0;
  uint64_t bytes_received = 0;
  uint64_t buffered_bytes_peak = 0;
  uint64_t spills = 0;         ///< Blocks written to make room (overflow).
  uint64_t files_created = 0;
  uint64_t restore_errors = 0;  ///< restart blocks answered with an error

  // Async vfs write path (views over the server registry's vfs.async.*
  // entries; all zero on non-POSIX substrates, which bypass the ring).
  uint64_t async_submissions = 0;
  uint64_t async_coalesced_writes = 0;
  uint64_t async_stall_waits = 0;      ///< ring-backpressure blocks
  int64_t async_queue_depth_peak = 0;
};

/// Runs the server routine on this process.  `world` is the full
/// communicator (clients + servers), `server_comm` the servers' own
/// communicator (restart coordination).  Returns once every client of this
/// server has sent Shutdown and all buffered data is on stable storage.
ServerStats run_server(comm::Comm& world, comm::Comm& server_comm,
                       comm::Env& env, vfs::FileSystem& fs,
                       const Layout& layout, const ServerOptions& options);

/// File written by server `server_index` for snapshot basename `base`.
[[nodiscard]] std::string server_file(const std::string& prefix,
                                      const std::string& base,
                                      int server_index);

}  // namespace roc::rocpanda
