#pragma once
// The pluggable engine seam of the miniBP layer.
//
// ADIOS2 separates "what the application stores" (steps of variables and
// attributes) from "how the bytes move" (the engine: BP4, BP5, SST, ...),
// selected by a string through the runtime config.  This header is that
// seam for bitio: an abstract write-side Engine plus a read-side
// EngineReader session, and a string-keyed factory that maps engine names
// onto concrete engines.  The built-ins come from one table in engine.cpp:
//
//   bp4     synchronous file engine (bp::Writer, BP4 semantics)
//   bp5     file engine with the BP5 AsyncWrite background drain
//   stream  miniSST: completed CRC-verified steps are published into a
//           bounded in-memory channel; consumers attach/detach mid-run
//           (src/bp/stream.hpp)
//
// The file engines stay byte-identical to direct bp::Writer use — the
// factory only decides which object sits behind the interface.  Call sites
// (the openPMD backend, the scale workload, the benches) select an engine
// purely via Bit1IoConfig::engine, so swapping BP4 for the stream engine
// touches a TOML line, not code.  Bit1IoConfig::validate() accepts exactly
// the registered names (engine_registered / registered_engines below).

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bp/types.hpp"
#include "bp/writer.hpp"
#include "compress/buffer_pool.hpp"
#include "fsim/posix_fs.hpp"

namespace bitio::bp {

/// Read-side session obtained from Engine::attach() (or attach_reader() for
/// an on-disk container).  next_step() advances a cursor: for file engines
/// it walks the steps already landed in the container; for the stream
/// engine it blocks until the producer publishes the next step (or the
/// stream ends).  The current-step accessors throw UsageError before the
/// first successful next_step().
class EngineReader {
 public:
  virtual ~EngineReader() = default;

  /// Advance to the next step.  Returns its id, or nullopt at the end of
  /// the stream (container exhausted, engine closed, or this consumer
  /// disconnected by the slow-reader policy).
  virtual std::optional<std::uint64_t> next_step() = 0;

  virtual std::uint64_t current_step() const = 0;
  virtual std::vector<std::string> variables() const = 0;
  virtual const VarRecord* find_variable(const std::string& name) const = 0;

  /// Decoded global array of a current-step variable (CRC-verified,
  /// decompressed, chunks scattered into place).  Synthetic chunks
  /// contribute zeroes.
  virtual std::vector<std::uint8_t> get(const std::string& name) = 0;

  virtual std::optional<AttrValue> attribute(const std::string& name) const = 0;

  // Slow-reader diagnostics; inert for file engines.
  /// Steps this consumer missed (evicted by the drop_oldest policy before
  /// it could read them).
  virtual std::uint64_t steps_dropped() const { return 0; }
  /// True once the disconnect policy cut this consumer off.
  virtual bool disconnected() const { return false; }
  /// Detach from a live stream (idempotent; next_step() then returns
  /// nullopt and the producer stops waiting for this consumer).
  virtual void detach() {}
};

/// Abstract write-side engine: the step/put surface bp::Writer pioneered,
/// decoupled from the file container so the stream engine can implement it
/// too.  Thread-safety contract matches Writer: put() may be called
/// concurrently by rank threads; begin_step/end_step/flush/close are
/// collective-like, one thread at a time.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string engine_name() const = 0;
  virtual const std::string& path() const = 0;

  virtual void begin_step(std::uint64_t step) = 0;
  virtual void put(int rank, const std::string& name, const Dims& shape,
                   const ChunkView& chunk) = 0;

  template <typename T>
  void put(int rank, const std::string& name, const Dims& shape,
           const Dims& offset, const Dims& count, std::span<const T> data) {
    put(rank, name, shape, ChunkView::of<T>(data, offset, count));
  }

  /// Size-only put for modelled large-scale runs (see Writer::put_synthetic).
  virtual void put_synthetic(int rank, const std::string& name, Datatype dtype,
                             const Dims& shape, const Dims& offset,
                             const Dims& count) = 0;
  virtual void add_attribute(const std::string& name, AttrValue value) = 0;
  virtual void end_step() = 0;

  /// Join outstanding background work (the async drain; a no-op for
  /// engines that complete at end_step).  Required before attaching a
  /// reader to a file engine mid-run.
  virtual void flush() = 0;
  virtual void close() = 0;

  virtual std::uint64_t steps_written() const = 0;

  // Optional diagnostics; engines without the notion return zeroes.
  /// Peak simultaneously outstanding units of backpressure: drain jobs for
  /// the file engines, buffered channel steps for the stream engine.
  virtual int peak_inflight() const { return 0; }
  virtual cz::BufferPool::Stats pool_stats() const { return {}; }
  virtual void reset_pool_stats() {}
  virtual WatchdogStats watchdog_stats() const { return {}; }

  /// Attach a read-side consumer charged to `client`.  File engines flush
  /// outstanding drains and return a cursor over the steps landed so far;
  /// the stream engine subscribes the consumer to steps published from now
  /// on (mid-run attach/detach is the point).
  virtual std::unique_ptr<EngineReader> attach(fsim::ClientId client) = 0;
};

// --- factory ---------------------------------------------------------------

using EngineFactory = std::function<std::unique_ptr<Engine>(
    fsim::SharedFs& fs, std::string path, EngineConfig config, int nranks)>;

/// Register (or override) an engine under `name`.  The built-ins ("bp4",
/// "bp5", "stream") are registered on first use; tests may add their own.
void register_engine(const std::string& name, EngineFactory factory);

bool engine_registered(const std::string& name);

/// Registered engine names, sorted.
std::vector<std::string> registered_engines();

/// Construct the engine registered under `name`.  `config.engine` is
/// overridden to match `name` (the string is the source of truth — call
/// sites select it from Bit1IoConfig::engine).  Throws UsageError for an
/// unregistered name, listing the registered ones.
std::unique_ptr<Engine> make_engine(const std::string& name,
                                    fsim::SharedFs& fs, std::string path,
                                    EngineConfig config, int nranks);

/// Convenience: engine name taken from `config.engine`.
std::unique_ptr<Engine> make_engine(fsim::SharedFs& fs, std::string path,
                                    EngineConfig config, int nranks);

/// Open an on-disk BP4/BP5 container for sequential consumption without a
/// live engine (the offline analogue of Engine::attach).
std::unique_ptr<EngineReader> attach_reader(fsim::SharedFs& fs,
                                            fsim::ClientId client,
                                            std::string path);

}  // namespace bitio::bp
