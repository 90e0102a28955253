// slot_ledger: one synchronous slot's whole journey (paper §IV) at fleet
// scale, in one process, timed end to end and per layer.
//
// Two threads, matching a 2-core host:
//
//   generator  runs the real collect:: transmit policy of every node over a
//              synthetic `google` trace, encodes each shard's transmitted
//              measurements as one net::wire slot summary, and writes the
//              summaries over two loopback TCP connections. It speaks the
//              aggregator's upstream protocol (shard hello, then one
//              kSlotSummary per shard per slot): the traffic a root receives
//              in the two-tier deployment, without 12,478 sockets.
//   root       net::Controller::collect_slot (read + decode + barrier), then
//              core::MonitoringPipeline::step_external (num_threads = 1),
//              then the slot's forecast_all query.
//
// The load is a closed loop with one slot in flight: the generator prepares
// slot t (decisions + encoding) while the root works on t-1, and writes it
// only once the root has answered t-1's query. A slot's clock starts when
// its first byte is written and stops when its query returns. Each thread
// is pinned to a CPU of its own.
//
// From collect_slot's return to the query's return the root only computes,
// so wall time it spends off its CPU there (wall minus thread CPU time) is
// the host's: on a shared virtual machine, steal. The slot clocks and the
// capacity figure leave it out; agent cost is thread CPU time.
//
// A run generates the trace from --seed once, sets the system up three
// times (set-up time is the trace's generation time plus the median), then
// measures slots for --seconds, and at least a fixed number of them. The
// trace is replayed forward and backward, so its length does not limit the
// run.
//
// Every run also replays the same slot messages into a socket-free
// pipeline and requires its query results to match the socket run's bit
// for bit on the first fixed number of measured slots; a mismatch fails
// the slot.
//
// With --trace 1 the measured slots alternate in blocks between traced and
// untraced; the trace overhead compares the two, and two interleaved halves
// of the untraced blocks give its noise floor. Traced slots record spans
// (name, slot, parent, start, end, item count) from this file's own code
// around each call into a layer; spans stay in memory and are written once,
// to --spans, when the run ends. The per-layer metrics come from these
// spans plus the counters and stage_timers() the library already exposes.
//
// Usage: slot_ledger --workload paper_fleet|ingest_dense|forecast_heavy
//                    --seed N --seconds S --trace 0|1 [--spans PATH]
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
// Diagnostics go to stderr.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agg/aggregator.hpp"
#include "collect/fleet_collector.hpp"
#include "common/cli.hpp"
#include "common/thread_annotations.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "net/controller.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace resmon;
namespace wire = net::wire;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kShards = 2;
constexpr int kIoTimeoutMs = 10000;
/// Measured slots alternate between traced and untraced in blocks of this
/// many, so the trace-overhead comparison sees every phase of the trace.
constexpr std::size_t kTraceBlock = 8;
/// Steps of generated trace; runs replay it forward and backward (see
/// MirroredTrace), so set-up time and memory do not grow with --seconds.
constexpr std::size_t kTraceSteps = 384;
/// System set-ups per run; setup_s is the trace's generation time plus
/// their median.
constexpr std::size_t kSetupReps = 3;
/// Capacity and agent overhead are medians over windows of this many
/// consecutive measured slots. A window spans several cycles of the
/// adaptive policies' send pattern, and a burst of machine noise moves only
/// the windows it falls in.
constexpr std::size_t kWindow = 20;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::size_t nodes = 0;
  std::size_t resources = 0;
  collect::PolicyKind policy = collect::PolicyKind::kAdaptive;
  double budget = 0.3;  ///< B of §V-A
  std::size_t k = 3;
  bool per_resource = true;
  forecast::ForecasterKind model = forecast::ForecasterKind::kArima;
  /// Compressed from the paper's 1000/288 so that a run holds at least ten
  /// retrain slots.
  forecast::RetrainSchedule schedule;
  /// The slot's query: forecast_all(h) for h = 1..horizons.
  std::size_t horizons = 1;
  /// Measured slots every run completes, whatever --seconds says. The
  /// deterministic metrics (rmse_h1, wire bytes) and the output check are
  /// taken over exactly these, so they repeat bit for bit for a fixed seed
  /// and the check costs the same at any --seconds.
  std::size_t min_slots = 0;
  /// Cap on the measured phase (it ends early at this many slots).
  std::size_t max_slots = 6000;
};

Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "paper_fleet") {
    // The paper's deployment: clustering dominates steady slots, net is
    // second, forecasting matters only on retrain slots.
    w.nodes = 12478;
    w.resources = 2;
    w.k = 3;
    w.schedule = {.initial_steps = 48, .retrain_interval = 24};
    w.min_slots = 240;
  } else if (name == "ingest_dense") {
    // Every node sends 4 resources every slot (Fig. 4's uniform baseline at
    // B = 1) into one joint 4-D view with a sample-and-hold model: receive,
    // decode, barrier and store apply are the largest layer.
    w.nodes = 12478;
    w.resources = 4;
    w.policy = collect::PolicyKind::kAlways;
    w.budget = 1.0;
    w.per_resource = false;
    w.model = forecast::ForecasterKind::kSampleHold;
    w.schedule = {.initial_steps = 48, .retrain_interval = 24};
    w.min_slots = 240;
  } else if (name == "forecast_heavy") {
    // 20 ARIMA models over a long centroid history, queried for the whole
    // day ahead every slot: retrain slots are bound by model fits, steady
    // slots by the query path.
    w.nodes = 1000;
    w.resources = 2;
    w.k = 10;
    w.schedule = {.initial_steps = 48, .retrain_interval = 16};
    w.horizons = 48;
    w.min_slots = 160;
  } else {
    throw InvalidArgument("unknown workload: " + name +
                          " (expected paper_fleet|ingest_dense|"
                          "forecast_heavy)");
  }
  return w;
}

core::PipelineOptions pipeline_options(const Workload& w, std::uint64_t seed) {
  core::PipelineOptions opt;
  opt.policy = w.policy;
  opt.max_frequency = w.budget;
  opt.num_clusters = w.k;
  opt.cluster_per_resource = w.per_resource;
  opt.forecaster = w.model;
  opt.schedule = w.schedule;
  opt.seed = seed;
  opt.num_threads = 1;
  return opt;
}

/// A generated trace played forward, then backward, then forward again: a
/// continuous series of any length from a bounded one. The turn points
/// repeat no step, so every transition is one the generator produced.
class MirroredTrace final : public trace::Trace {
 public:
  MirroredTrace(trace::InMemoryTrace base, std::size_t num_steps)
      : base_(std::move(base)), num_steps_(num_steps) {}
  std::size_t num_nodes() const override { return base_.num_nodes(); }
  std::size_t num_steps() const override { return num_steps_; }
  std::size_t num_resources() const override { return base_.num_resources(); }
  double value(std::size_t node, std::size_t t,
               std::size_t resource) const override {
    const std::size_t period = 2 * base_.num_steps() - 2;
    std::size_t p = t % period;
    if (p >= base_.num_steps()) p = period - p;
    return base_.value(node, p, resource);
  }

 private:
  trace::InMemoryTrace base_;
  std::size_t num_steps_;
};

std::shared_ptr<const trace::Trace> make_trace(const Workload& w,
                                               std::uint64_t seed) {
  trace::SyntheticProfile profile = trace::profile_by_name("google");
  profile.num_nodes = w.nodes;
  profile.num_resources = w.resources;
  profile.num_steps = kTraceSteps;
  // Warm-up, the measured phase, and one more step as RMSE(t, 1) truth.
  return std::make_shared<const MirroredTrace>(
      trace::generate(profile, seed),
      w.schedule.initial_steps - 1 + w.max_slots + 1);
}

/// Which slots are measured and which of those are traced. Shared,
/// read-only, by both threads.
struct Plan {
  std::size_t warmup = 0;  ///< slots before the first model fit
  bool tracing = false;
  int generator_cpu = -1;  ///< CPU the generator pins itself to (-1: none)

  bool measured(std::size_t t) const { return t >= warmup; }
  bool traced(std::size_t t) const {
    return tracing && measured(t) && ((t - warmup) / kTraceBlock) % 2 == 0;
  }
};

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pin the calling thread to `cpu` (no-op for -1). The root and the
/// generator each get a core of their own: left to the scheduler, a waking
/// thread is often placed beside the other one, and the two then share a
/// core until load balancing separates them, which shows as run-to-run
/// swings of up to 2x in both threads' times.
void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// ---------------------------------------------------------------------------
// Spans

std::int64_t ns_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

double ms_of(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// CPU time of the calling thread, in ns. Unlike the wall clock it leaves
/// out the time a virtual machine's host gives the CPU to someone else.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Span kinds; a span's id is slot * kKinds + kind, so ids and parent links
/// are the same in every run. kNone marks a root span.
enum Kind : std::int64_t {
  kSlot = 0,  ///< first byte written -> query returned
  kSend,      ///< generator: writing the slot's summaries (items: bytes)
  kCollect,   ///< root: Controller::collect_slot (items: bytes received)
  kStep,      ///< root: MonitoringPipeline::step_external
  kApply,     ///<   its store-apply stage (from stage_timers)
  kCluster,   ///<   its clustering stage (from stage_timers)
  kForecast,  ///<   its model observe/retrain stage (from stage_timers)
  kQuery,     ///< root: the slot's forecast_all calls (items: horizons)
  kPrepare,   ///< generator: decisions + encoding, before the slot clock
  kDecide,    ///<   every node's transmit decision (items: sends)
  kEncode,    ///<   slot-summary encoding (items: measurements)
  kKinds,
  kNone = kKinds,
};

struct Span {
  const char* name = "";
  std::uint64_t slot = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t items = 0;
};

/// In-memory span log of one thread; written out once, after the run.
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, std::size_t capacity) : epoch_(epoch) {
    spans_.reserve(capacity);
  }
  void add(const char* name, std::size_t slot, Kind kind, Kind parent,
           Clock::time_point start, Clock::time_point end,
           std::uint64_t items = 0) {
    const auto base = static_cast<std::int64_t>(slot) * kKinds;
    spans_.push_back({.name = name,
                      .slot = slot,
                      .id = base + kind,
                      .parent = parent == kNone ? -1 : base + parent,
                      .start_ns = ns_since(epoch_, start),
                      .end_ns = ns_since(epoch_, end),
                      .items = items});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Closed-loop gate

/// The generator may write slot t only after the root answered slot t-1.
class Gate {
 public:
  /// Root: slot t's query returned. `stop` ends the generator after it.
  void answer(long long t, bool stop) {
    MutexLock lock(mu_);
    answered_ = t;
    stop_ = stop_ || stop;
    cv_.notify_all();
  }
  void stop() {
    MutexLock lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  /// Generator: wait until slot t may be written; false once stopped.
  bool wait_release(long long t) {
    MutexLock lock(mu_);
    while (!stop_ && answered_ < t - 1) cv_.wait(mu_);
    return !stop_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  long long answered_ RESMON_GUARDED_BY(mu_) = -1;
  bool stop_ RESMON_GUARDED_BY(mu_) = false;
};

// ---------------------------------------------------------------------------
// Generator

/// Every node's transmit policy; decide() groups slot t's sends per shard in
/// node order (the order collect_slot returns them in).
class Fleet {
 public:
  Fleet(const trace::Trace& trace, const Workload& w) : trace_(trace) {
    const auto make = collect::make_policy_factory(w.policy, w.budget);
    policies_.reserve(trace.num_nodes());
    for (std::size_t i = 0; i < trace.num_nodes(); ++i) {
      policies_.push_back(make());
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      ranges_.push_back(agg::shard_range(trace.num_nodes(), kShards, s));
      summaries_.push_back(
          {.shard = static_cast<std::uint32_t>(s),
           .num_resources = static_cast<std::uint32_t>(trace.num_resources())});
    }
  }

  /// Run every node's policy for slot t; returns the number of sends.
  std::uint64_t decide(std::size_t t) {
    std::uint64_t sends = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      wire::SlotSummaryFrame& summary = summaries_[s];
      summary.step = t;
      summary.measurements.clear();
      const agg::ShardRange& r = ranges_[s];
      for (std::size_t i = r.first_node; i < r.first_node + r.num_nodes; ++i) {
        std::vector<double> x = trace_.measurement(i, t);
        if (policies_[i]->decide(t, x)) {
          summary.measurements.push_back(
              {.node = i, .step = t, .values = std::move(x)});
        }
      }
      sends += summary.measurements.size();
    }
    return sends;
  }

  const std::vector<wire::SlotSummaryFrame>& summaries() const {
    return summaries_;
  }
  const agg::ShardRange& range(std::size_t s) const { return ranges_[s]; }

 private:
  const trace::Trace& trace_;
  std::vector<std::unique_ptr<collect::TransmitPolicy>> policies_;
  std::vector<agg::ShardRange> ranges_;
  std::vector<wire::SlotSummaryFrame> summaries_;
};

/// Connect one shard link: shard hello, then wait for the root's ack.
net::Socket connect_shard(std::uint16_t port, std::size_t shard,
                          const agg::ShardRange& range,
                          std::size_t resources) {
  net::Socket sock = net::Socket::connect_tcp("127.0.0.1", port, kIoTimeoutMs);
  const wire::ShardHelloFrame hello{
      .shard = static_cast<std::uint32_t>(shard),
      .first_node = static_cast<std::uint32_t>(range.first_node),
      .num_nodes = static_cast<std::uint32_t>(range.num_nodes),
      .num_resources = static_cast<std::uint32_t>(resources)};
  if (!sock.write_all(wire::encode(hello), kIoTimeoutMs)) {
    throw net::SocketError("shard hello: root closed the connection");
  }
  wire::FrameDecoder decoder;
  const auto deadline = Clock::now() + std::chrono::milliseconds(kIoTimeoutMs);
  while (Clock::now() < deadline) {
    if (!sock.wait_readable(50)) continue;
    std::uint8_t buf[256];
    std::size_t n = 0;
    const net::IoStatus status = sock.read_some(buf, n);
    if (status == net::IoStatus::kClosed) break;
    if (status == net::IoStatus::kOk && !decoder.feed({buf, n})) break;
    if (std::optional<wire::Frame> frame = decoder.next()) {
      const auto* ack = std::get_if<wire::HelloAckFrame>(&*frame);
      if (ack != nullptr && ack->accepted && ack->node == shard) return sock;
      throw net::SocketError("shard hello rejected");
    }
  }
  throw net::SocketError("shard hello: no ack from the root");
}

/// Generator-side record of one slot.
struct GenSlot {
  Clock::time_point write_start;  ///< the slot clock starts here
  double prepare_ns = 0.0;        ///< decisions + encoding, thread CPU time
};

/// The generator thread. Its records are read only after join().
class Generator {
 public:
  Generator(const trace::Trace& trace, const Workload& w, const Plan& plan,
            std::uint16_t port, Gate& gate, Clock::time_point epoch)
      : trace_(trace),
        plan_(plan),
        port_(port),
        gate_(gate),
        fleet_(trace, w),
        slots_(trace.num_steps()),
        spans_(epoch, plan.tracing ? 4 * trace.num_steps() : 0) {
    thread_ = std::thread([this] { run(); });
  }
  ~Generator() { join(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void join() {
    gate_.stop();
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<GenSlot>& slots() const { return slots_; }
  const SpanLog& spans() const { return spans_; }
  const std::string& error() const { return error_; }

 private:
  void run() {
    pin_to_cpu(plan_.generator_cpu);
    try {
      std::vector<net::Socket> socks;
      for (std::size_t s = 0; s < kShards; ++s) {
        socks.push_back(connect_shard(port_, s, fleet_.range(s),
                                      trace_.num_resources()));
      }
      std::vector<std::vector<std::uint8_t>> bytes(kShards);
      // The last trace step only serves as RMSE(t, 1) truth.
      for (std::size_t t = 0; t + 1 < trace_.num_steps(); ++t) {
        const bool traced = plan_.traced(t);
        const double cpu0 = thread_cpu_ns();
        const auto p0 = Clock::now();
        const std::uint64_t sends = fleet_.decide(t);
        const auto p1 = traced ? Clock::now() : p0;
        for (std::size_t s = 0; s < kShards; ++s) {
          bytes[s] = wire::encode(fleet_.summaries()[s]);
        }
        const auto p2 = Clock::now();
        slots_[t].prepare_ns = thread_cpu_ns() - cpu0;
        if (traced) {
          spans_.add("gen.prepare", t, kPrepare, kNone, p0, p2);
          spans_.add("collect.decide", t, kDecide, kPrepare, p0, p1, sends);
          spans_.add("wire.encode", t, kEncode, kPrepare, p1, p2, sends);
        }
        if (!gate_.wait_release(static_cast<long long>(t))) return;
        const auto w0 = Clock::now();
        std::uint64_t written = 0;
        for (std::size_t s = 0; s < kShards; ++s) {
          if (!socks[s].write_all(bytes[s], kIoTimeoutMs)) {
            throw net::SocketError("root closed a shard link");
          }
          written += bytes[s].size();
        }
        slots_[t].write_start = w0;
        if (traced) {
          spans_.add("net.send", t, kSend, kSlot, w0, Clock::now(), written);
        }
      }
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  const trace::Trace& trace_;
  const Plan& plan_;
  std::uint16_t port_;
  Gate& gate_;
  Fleet fleet_;
  std::vector<GenSlot> slots_;
  SpanLog spans_;
  std::string error_;
  std::thread thread_;  // last: started once every member above exists
};

// ---------------------------------------------------------------------------
// Root

/// Bit pattern hash of the slot's query results (the output check).
std::uint64_t hash_queries(const std::vector<Matrix>& queries) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Matrix& m : queries) {
    for (const double v : m.data()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      h = (h ^ bits) * 1099511628211ULL;
    }
  }
  return h;
}

void run_query(const core::MonitoringPipeline& pipeline, std::size_t horizons,
               std::vector<Matrix>& queries) {
  queries.resize(horizons);
  for (std::size_t h = 1; h <= horizons; ++h) {
    queries[h - 1] = pipeline.forecast_all(h);
  }
}

/// Sum of every series of one registry family (all views / models).
double registry_sum(const obs::MetricsRegistry& reg, const std::string& name) {
  double total = 0.0;
  for (const obs::Sample& s : reg.snapshot()) {
    if (s.name == name) total += s.value;
  }
  return total;
}

/// Library counters read at the start and end of the measured phase.
struct Counters {
  double kmeans_iterations = 0.0;
  double reassignments = 0.0;
  double fits = 0.0;
  double fit_seconds_sum = 0.0;
  double fit_seconds_count = 0.0;

  static Counters read(const obs::MetricsRegistry& reg) {
    return {
        .kmeans_iterations =
            registry_sum(reg, "resmon_cluster_kmeans_iterations_total"),
        .reassignments = registry_sum(reg, "resmon_cluster_reassignments_total"),
        .fits = registry_sum(reg, "resmon_forecast_fits_total"),
        .fit_seconds_sum = registry_sum(reg, "resmon_forecast_fit_seconds_sum"),
        .fit_seconds_count =
            registry_sum(reg, "resmon_forecast_fit_seconds_count"),
    };
  }
};

/// One set-up of the whole system: trace, root controller, generator
/// thread, pipeline, warm-up slots. The last one goes on to the measured
/// phase.
class Session {
 public:
  Session(const Workload& w, std::uint64_t seed, const Plan& plan,
          std::shared_ptr<const trace::Trace> trace, Clock::time_point epoch)
      : workload_(w),
        plan_(plan),
        trace_(std::move(trace)),
        controller_(net::Socket::listen_tcp("127.0.0.1", 0),
                    controller_options(w)),
        generator_(*trace_, w, plan, controller_.port(), gate_, epoch),
        spans_(epoch, plan.tracing ? 8 * trace_->num_steps() : 0),
        end_(trace_->num_steps()),
        stolen_ns_(trace_->num_steps(), 0.0),
        retrain_(trace_->num_steps(), 0),
        frames_(trace_->num_steps(), 0),
        bytes_(trace_->num_steps(), 0) {
    if (!controller_.wait_for_shards(kShards, kIoTimeoutMs)) {
      generator_.join();
      throw net::SocketError("shard handshakes timed out: " +
                             generator_.error());
    }
    pipeline_ = std::make_unique<core::MonitoringPipeline>(
        *trace_, pipeline_options(w, seed), core::ExternalCollection{});
  }

  /// Run warm-up slot t (untimed by the ledger; part of set-up). Nothing
  /// reads a warm-up slot's forecasts, so it is not queried.
  bool warmup_slot(std::size_t t, bool stop) {
    if (!slot(t, false)) return false;
    gate_.answer(static_cast<long long>(t), stop);
    return true;
  }

  /// Collect, step and (if `query`) query slot t; false if the barrier
  /// timed out.
  bool slot(std::size_t t, bool query = true) {
    const bool traced = plan_.traced(t);
    const auto c0 = Clock::now();
    std::optional<std::vector<transport::MeasurementMessage>> messages =
        controller_.collect_slot(t, kIoTimeoutMs);
    if (!messages) return false;
    const Clock::time_point c1 = Clock::now();
    const double cpu1 = thread_cpu_ns();
    Clock::time_point c2;
    core::StageTimers before;
    if (traced) before = pipeline_->stage_timers();
    retrain_[t] = pipeline_->model(0, 0).next_observe_retrains() ? 1 : 0;
    pipeline_->step_external(*messages);
    if (traced) c2 = Clock::now();
    if (query) run_query(*pipeline_, workload_.horizons, queries_);
    const double cpu_end = thread_cpu_ns();
    end_[t] = Clock::now();
    // From c1 on the root only computes, so wall time it did not spend on
    // the CPU was taken by the host.
    stolen_ns_[t] = std::max(
        0.0, std::chrono::duration<double, std::nano>(end_[t] - c1).count() -
                 (cpu_end - cpu1));
    frames_[t] = controller_.frames_received();
    bytes_[t] = controller_.bytes_received();
    if (traced) record_spans(t, c0, c1, c2, before);
    return true;
  }

  /// Bookkeeping outside the slot clock: RMSE(t, 1) of eq. (3) and the
  /// query hash the output check compares.
  void account(std::size_t t, double& rmse, std::uint64_t& hash) {
    const std::size_t n = trace_->num_nodes();
    const std::size_t d = trace_->num_resources();
    truth_.resize(n, d);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t r = 0; r < d; ++r) {
        truth_(i, r) = trace_->value(i, t + 1, r);
      }
    }
    rmse = core::rmse_step(truth_, queries_[0]);
    hash = hash_queries(queries_);
  }

  Gate& gate() { return gate_; }
  net::Controller& controller() { return controller_; }
  const core::MonitoringPipeline& pipeline() const { return *pipeline_; }
  Generator& generator() { return generator_; }
  const std::vector<Clock::time_point>& end() const { return end_; }
  const std::vector<double>& stolen_ns() const { return stolen_ns_; }
  const std::vector<char>& retrain() const { return retrain_; }
  const std::vector<std::uint64_t>& frames() const { return frames_; }
  const std::vector<std::uint64_t>& bytes() const { return bytes_; }
  const SpanLog& spans() const { return spans_; }

 private:
  static net::ControllerOptions controller_options(const Workload& w) {
    net::ControllerOptions opt;
    opt.num_nodes = w.nodes;
    opt.num_resources = w.resources;
    opt.num_shards = kShards;
    return opt;
  }

  /// Root-side spans of a traced slot. The three step_external stages are
  /// laid end to end from the stage-timer deltas (the library times them,
  /// this file only reads the gauges).
  void record_spans(std::size_t t, Clock::time_point c0, Clock::time_point c1,
                    Clock::time_point c2, const core::StageTimers& before) {
    const core::StageTimers after = pipeline_->stage_timers();
    const std::uint64_t received = bytes_[t] - (t > 0 ? bytes_[t - 1] : 0);
    spans_.add("net.collect_slot", t, kCollect, kSlot, c0, c1, received);
    spans_.add("core.step_external", t, kStep, kSlot, c1, c2);
    const auto stage = [](double seconds) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(seconds));
    };
    const Clock::time_point a = std::min(
        c2, c1 + stage(after.collect_seconds - before.collect_seconds));
    const Clock::time_point b = std::min(
        c2, a + stage(after.cluster_seconds - before.cluster_seconds));
    const Clock::time_point f = std::min(
        c2, b + stage(after.forecast_seconds - before.forecast_seconds));
    spans_.add("core.apply", t, kApply, kStep, c1, a);
    spans_.add("cluster.step", t, kCluster, kStep, a, b);
    spans_.add(retrain_[t] ? "forecast.retrain" : "forecast.observe", t,
               kForecast, kStep, b, f);
    spans_.add("core.forecast_all", t, kQuery, kSlot, c2, end_[t],
               workload_.horizons);
  }

  const Workload& workload_;
  const Plan& plan_;
  std::shared_ptr<const trace::Trace> trace_;
  Gate gate_;
  net::Controller controller_;
  std::unique_ptr<core::MonitoringPipeline> pipeline_;
  Generator generator_;  // after everything its thread touches
  SpanLog spans_;
  std::vector<Clock::time_point> end_;  ///< query returned, per slot
  std::vector<double> stolen_ns_;       ///< host steal in the root's compute
  std::vector<char> retrain_;           ///< models refit on this slot
  std::vector<std::uint64_t> frames_;   ///< cumulative frames after slot t
  std::vector<std::uint64_t> bytes_;    ///< cumulative bytes after slot t
  std::vector<Matrix> queries_;
  Matrix truth_;
};

/// Replays slots [0, last] socket-free: the same policies produce the same
/// slot messages, fed straight to step_external. Returns the number of
/// measured slots whose query hash differs from the socket run's.
std::size_t reference_mismatches(const trace::Trace& trace, const Workload& w,
                                 std::uint64_t seed, const Plan& plan,
                                 std::size_t last,
                                 const std::vector<std::uint64_t>& hashes) {
  Fleet fleet(trace, w);
  core::MonitoringPipeline pipeline(trace, pipeline_options(w, seed),
                                    core::ExternalCollection{});
  std::vector<transport::MeasurementMessage> messages;
  std::vector<Matrix> queries;
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t <= last; ++t) {
    fleet.decide(t);
    messages.clear();
    for (const wire::SlotSummaryFrame& summary : fleet.summaries()) {
      messages.insert(messages.end(), summary.measurements.begin(),
                      summary.measurements.end());
    }
    pipeline.step_external(messages);
    if (!plan.measured(t)) continue;
    run_query(pipeline, w.horizons, queries);
    if (hash_queries(queries) != hashes[t]) ++mismatches;
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The p99 the sample supports: nearest-rank p99 when at least ten samples
/// lie beyond it (n >= 1000), else the highest percentile that still has
/// ten samples beyond it (the 11th largest). Sets `percentile` to the one
/// used.
double tail(std::vector<double> v, double& percentile) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t idx = 0;
  if (n >= 1000) {
    idx = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))) -
          1;
  } else {
    idx = n > 10 ? n - 11 : n - 1;
  }
  percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return v[idx];
}

double tail(const std::vector<double>& v) {
  double ignored = 0.0;
  return tail(v, ignored);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Spans of every traced slot. Each span's interval is clipped to its
/// parent's, so a root-side call that starts before the slot clock (the
/// root enters collect_slot before the generator has woken to write)
/// counts only from the slot's first written byte. A span's self time is
/// its clipped duration minus the part its children cover.
struct Ledger {
  using Interval = std::pair<std::int64_t, std::int64_t>;
  std::vector<Span> spans;
  std::vector<char> retrain;                 // by slot: models refit
  std::map<std::int64_t, Interval> clipped;  // by span id
  std::map<std::int64_t, double> self_ns;    // by span id

  void derive_self_times() {
    std::map<std::int64_t, const Span*> by_id;
    std::map<std::int64_t, std::vector<const Span*>> children;
    for (const Span& s : spans) {
      by_id[s.id] = &s;
      if (s.parent >= 0) children[s.parent].push_back(&s);
    }
    for (const Span& s : spans) {
      std::int64_t a = s.start_ns, b = s.end_ns;
      if (s.parent >= 0 && by_id.count(s.parent) != 0) {
        a = std::max(a, by_id[s.parent]->start_ns);
        b = std::min(b, by_id[s.parent]->end_ns);
      }
      clipped[s.id] = {a, std::max(a, b)};
    }
    for (const Span& s : spans) {
      const auto [a, b] = clipped.at(s.id);
      std::vector<Interval> cover;
      for (const Span* c : children[s.id]) cover.push_back(clipped.at(c->id));
      std::sort(cover.begin(), cover.end());
      std::int64_t covered = 0, reach = a;
      for (auto [ca, cb] : cover) {
        ca = std::max(ca, reach);
        if (cb > ca) {
          covered += cb - ca;
          reach = cb;
        }
      }
      self_ns[s.id] = static_cast<double>(b - a - covered);
    }
  }

  /// Sum of self time over spans whose name starts with `prefix`.
  double self_sum(const std::string& prefix) const {
    double total = 0.0;
    for (const Span& s : spans) {
      if (std::string(s.name).rfind(prefix, 0) == 0) total += self_ns.at(s.id);
    }
    return total;
  }

  /// Clipped durations (ms) of the spans named `name`, optionally only on
  /// steady (non-retrain) slots.
  std::vector<double> durations_ms(const std::string& name,
                                   bool steady_only = false) const {
    std::vector<double> out;
    for (const Span& s : spans) {
      if (name != s.name || (steady_only && retrain[s.slot] != 0)) continue;
      const auto [a, b] = clipped.at(s.id);
      out.push_back(static_cast<double>(b - a) / 1e6);
    }
    return out;
  }

  double items(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans) {
      if (name == s.name) total += static_cast<double>(s.items);
    }
    return total;
  }

  void dump(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw InvalidArgument("cannot write spans to " + path);
    for (const Span& s : spans) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"slot\":" << s.slot << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns
          << ",\"dur_ns\":" << (s.end_ns - s.start_ns)
          << ",\"self_ns\":" << static_cast<std::int64_t>(self_ns.at(s.id))
          << ",\"items\":" << s.items << "}\n";
    }
  }
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << "\n" << std::flush;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Args& args) {
  const Workload w = workload_by_name(args.get("workload", "paper_fleet"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool tracing = args.get_int("trace", 0) != 0;
  // With two CPUs or more, the root keeps the first and the generator the
  // second; the process never runs more than these two threads.
  const std::vector<int> cpus = allowed_cpus();
  const bool pin = cpus.size() >= 2;
  const Plan plan{.warmup = w.schedule.initial_steps - 1,
                  .tracing = tracing,
                  .generator_cpu = pin ? cpus[1] : -1};
  pin_to_cpu(pin ? cpus[0] : -1);
  const Clock::time_point epoch = Clock::now();

  // -- set-up: the trace once, the system repeatedly; the last system set-up
  // goes on to the measured phase --------------------------------------------
  const auto g0 = Clock::now();
  const std::shared_ptr<const trace::Trace> trace = make_trace(w, seed);
  const double trace_seconds =
      std::chrono::duration<double>(Clock::now() - g0).count();
  std::vector<double> setup_seconds;
  std::unique_ptr<Session> session;
  Clock::time_point phase_start;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    const auto s0 = Clock::now();
    session = std::make_unique<Session>(w, seed, plan, trace, epoch);
    const bool last_rep = rep + 1 == kSetupReps;
    for (std::size_t t = 0; t < plan.warmup; ++t) {
      const bool stop = !last_rep && t + 1 == plan.warmup;
      if (!session->warmup_slot(t, stop)) {
        throw net::SocketError("warm-up slot " + std::to_string(t) +
                               " timed out: " +
                               session->generator().error());
      }
    }
    phase_start = Clock::now();
    setup_seconds.push_back(std::chrono::duration<double>(phase_start - s0)
                                .count());
  }

  // -- measured phase ------------------------------------------------------
  Session& s = *session;
  const std::uint64_t bytes_before = s.bytes()[plan.warmup - 1];
  const std::uint64_t frames_before = s.frames()[plan.warmup - 1];
  const Counters counters_before = Counters::read(s.pipeline().metrics());
  const std::size_t first = plan.warmup;
  const std::size_t end_slot = first + w.max_slots;
  std::vector<double> rmse(end_slot, 0.0);
  std::vector<std::uint64_t> hashes(end_slot, 0);
  std::size_t measured = 0, timeouts = 0;
  // Per-slot bookkeeping time, left out of the capacity figure.
  std::vector<Clock::duration> bookkeeping(end_slot, Clock::duration{});
  for (std::size_t t = first; t < end_slot; ++t) {
    if (!s.slot(t)) {
      ++timeouts;
      break;
    }
    const auto b0 = Clock::now();
    if (measured < w.min_slots) s.account(t, rmse[t], hashes[t]);
    ++measured;
    const bool done =
        (measured >= w.min_slots &&
         std::chrono::duration<double>(Clock::now() - phase_start).count() >=
             seconds) ||
        t + 1 == end_slot;
    bookkeeping[t] = Clock::now() - b0;
    s.gate().answer(static_cast<long long>(t), done);
    if (done) break;
  }
  const auto s_end = Clock::now();
  const std::size_t last = first + measured - 1;
  s.generator().join();
  const Counters counters_after = Counters::read(s.pipeline().metrics());
  const bool rejected = s.controller().connections_rejected() > 0;
  if (!s.generator().error().empty()) {
    std::cerr << "slot_ledger: generator: " << s.generator().error() << "\n";
  }
  if (measured > 0 && measured < w.min_slots) {
    std::cerr << "slot_ledger: only " << measured << " of " << w.min_slots
              << " required slots completed\n";
  }

  // Slot clocks less host steal, split into steady and retrain slots.
  const std::size_t det_slots = std::min(measured, w.min_slots);
  // In a traced run the untraced blocks are also split into two interleaved
  // halves, whose difference is the noise floor of the trace overhead.
  std::vector<double> steady_ms, retrain_ms, traced_steady_ms,
      untraced_steady_ms, untraced_half[2];
  double wall_ms_sum = 0.0, stolen_ms_sum = 0.0;
  for (std::size_t t = first; t < first + measured; ++t) {
    const double wall_ms =
        ms_of(s.end()[t] - s.generator().slots()[t].write_start);
    const double ms = wall_ms - s.stolen_ns()[t] / 1e6;
    wall_ms_sum += wall_ms;
    stolen_ms_sum += s.stolen_ns()[t] / 1e6;
    if (s.retrain()[t]) {
      retrain_ms.push_back(ms);
    } else {
      steady_ms.push_back(ms);
      if (plan.traced(t)) {
        traced_steady_ms.push_back(ms);
      } else {
        untraced_steady_ms.push_back(ms);
        untraced_half[(t - first) / (2 * kTraceBlock) % 2].push_back(ms);
      }
    }
  }
  // A window's wall time runs from the end of the slot before it to the end
  // of its last slot, less the bookkeeping between its slots and less host
  // steal.
  std::vector<double> window_rate, window_agent_ns;
  const double window_node_slots =
      static_cast<double>(w.nodes) * static_cast<double>(kWindow);
  for (std::size_t b = first; b + kWindow <= first + measured; b += kWindow) {
    Clock::duration wall = s.end()[b + kWindow - 1] - s.end()[b - 1];
    double prepare_ns = 0.0, stolen_ns = 0.0;
    for (std::size_t t = b; t < b + kWindow; ++t) {
      if (t > b) wall -= bookkeeping[t - 1];
      prepare_ns += s.generator().slots()[t].prepare_ns;
      stolen_ns += s.stolen_ns()[t];
    }
    window_rate.push_back(
        window_node_slots /
        (std::chrono::duration<double>(wall).count() - stolen_ns / 1e9));
    window_agent_ns.push_back(prepare_ns / window_node_slots);
  }
  double rmse_sum = 0.0;
  for (std::size_t t = first; t < first + det_slots; ++t) rmse_sum += rmse[t];

  // Ledger of the traced slots: generator and root spans plus one slot span
  // per traced slot.
  Ledger ledger;
  if (tracing) {
    ledger.spans = s.generator().spans().spans();
    const auto& root = s.spans().spans();
    ledger.spans.insert(ledger.spans.end(), root.begin(), root.end());
    SpanLog slot_spans(epoch, measured);
    for (std::size_t t = first; t < first + measured; ++t) {
      if (plan.traced(t)) {
        slot_spans.add("slot", t, kSlot, kNone,
                       s.generator().slots()[t].write_start, s.end()[t]);
      }
    }
    ledger.spans.insert(ledger.spans.end(), slot_spans.spans().begin(),
                        slot_spans.spans().end());
    // Drop spans of slots that were prepared but never measured.
    std::erase_if(ledger.spans,
                  [&](const Span& sp) { return sp.slot > last; });
    ledger.retrain = s.retrain();
    ledger.derive_self_times();
    if (args.has("spans")) ledger.dump(args.get("spans", ""));
  }
  const std::uint64_t bytes_det =
      s.bytes()[first + det_slots - 1] - bytes_before;
  const std::uint64_t bytes_all = s.bytes()[last] - bytes_before;
  const std::uint64_t frames_all = s.frames()[last] - frames_before;
  session.reset();  // free the socket run before the reference pipeline

  // -- output check, over the first min_slots measured slots -----------------
  const auto r0 = Clock::now();
  const std::size_t mismatches =
      det_slots > 0 ? reference_mismatches(*trace, w, seed, plan,
                                           first + det_slots - 1, hashes)
                    : 0;
  std::cerr << "slot_ledger: trace " << format_number(trace_seconds)
            << " s, system set-up " << format_number(median(setup_seconds))
            << " s, measured phase "
            << format_number(
                   std::chrono::duration<double>(s_end - phase_start).count())
            << " s, output check "
            << format_number(
                   std::chrono::duration<double>(Clock::now() - r0).count())
            << " s\n";
  const std::size_t attempted = std::max<std::size_t>(1, measured + timeouts);
  std::size_t failed = timeouts + mismatches;
  if (rejected || measured < w.min_slots) failed = std::max<std::size_t>(1, failed);
  failed = std::min(failed, attempted);
  const bool correct = failed == 0;
  std::cerr << "slot_ledger: workload=" << w.name << " seed=" << seed
            << " measured_slots=" << measured
            << " steady=" << steady_ms.size()
            << " retrain=" << retrain_ms.size()
            << " checked=" << det_slots << " mismatches=" << mismatches
            << " timeouts=" << timeouts << " host_steal_pct="
            << format_number(100.0 * stolen_ms_sum / wall_ms_sum) << "\n";

  std::vector<Metric> metrics;
  if (!tracing) {
    double pct = 0.0;
    const double p99 = tail(steady_ms, pct);
    std::cerr << "slot_ledger: slot_ms_p99 is the p" << format_number(pct)
              << " of " << steady_ms.size() << " steady slots\n";
    metrics = {
        {"slot_ms_p50", median(steady_ms), "ms"},
        {"slot_ms_p99", p99, "ms"},
        {"retrain_slot_ms_p50", median(retrain_ms), "ms"},
        {"node_slots_per_s", median(window_rate), "1/s"},
        {"agent_ns_per_node_slot", median(window_agent_ns), "ns"},
        {"wire_bytes_per_node_slot",
         static_cast<double>(bytes_det) /
             (static_cast<double>(w.nodes) * static_cast<double>(det_slots)),
         "bytes"},
        {"rmse_h1", rmse_sum / static_cast<double>(det_slots), "util"},
        {"setup_s", trace_seconds + median(setup_seconds), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"slot_ok_frac",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "fraction"},
    };
  } else {
    const double slots_d = static_cast<double>(measured);
    const double traced_slots =
        static_cast<double>(ledger.durations_ms("slot").size());
    double slot_total_ns = 0.0;
    for (const double ms : ledger.durations_ms("slot")) slot_total_ns += ms * 1e6;
    const auto share = [&](const std::string& prefix) {
      return slot_total_ns > 0 ? 100.0 * ledger.self_sum(prefix) / slot_total_ns
                               : 0.0;
    };
    const double retrain_slots = static_cast<double>(retrain_ms.size());
    const double fit_count =
        counters_after.fit_seconds_count - counters_before.fit_seconds_count;
    const auto change_pct = [](double a, double b) {
      return b > 0 ? 100.0 * (a / b - 1.0) : 0.0;
    };
    metrics = {
        {"collect.decide_ns_per_node",
         ledger.self_sum("collect.decide") /
             (static_cast<double>(w.nodes) * traced_slots),
         "ns"},
        {"collect.tx_fraction",
         ledger.items("collect.decide") /
             (static_cast<double>(w.nodes) * traced_slots),
         "ratio"},
        {"wire.encode_ns_per_measurement",
         ledger.self_sum("wire.encode") /
             std::max(1.0, ledger.items("wire.encode")),
         "ns"},
        {"net.send_ms_p50", median(ledger.durations_ms("net.send")), "ms"},
        {"net.collect_slot_ms_p50",
         median(ledger.durations_ms("net.collect_slot")), "ms"},
        {"net.collect_slot_ms_p99",
         tail(ledger.durations_ms("net.collect_slot")), "ms"},
        {"net.frames_per_slot", static_cast<double>(frames_all) / slots_d,
         "count"},
        {"net.bytes_per_slot", static_cast<double>(bytes_all) / slots_d,
         "bytes"},
        {"net.slot_timeouts", static_cast<double>(timeouts), "count"},
        {"core.apply_ms_p50", median(ledger.durations_ms("core.apply")), "ms"},
        {"core.step_external_ms_p50",
         median(ledger.durations_ms("core.step_external", true)),
         "ms"},
        {"core.step_external_ms_p99",
         tail(ledger.durations_ms("core.step_external", true)),
         "ms"},
        {"core.forecast_all_ms_p50",
         median(ledger.durations_ms("core.forecast_all")), "ms"},
        {"cluster.step_ms_p50", median(ledger.durations_ms("cluster.step")),
         "ms"},
        {"cluster.step_ms_p99", tail(ledger.durations_ms("cluster.step")),
         "ms"},
        {"cluster.kmeans_iterations_per_slot",
         (counters_after.kmeans_iterations -
          counters_before.kmeans_iterations) /
             slots_d,
         "count"},
        {"cluster.reassignments_per_slot",
         (counters_after.reassignments - counters_before.reassignments) /
             slots_d,
         "count"},
        {"forecast.observe_ms_p50",
         median(ledger.durations_ms("forecast.observe")), "ms"},
        {"forecast.retrain_ms_p50",
         median(ledger.durations_ms("forecast.retrain")), "ms"},
        {"forecast.fits_per_retrain_slot",
         retrain_slots > 0
             ? (counters_after.fits - counters_before.fits) / retrain_slots
             : 0.0,
         "count"},
        {"forecast.fit_ms_mean",
         fit_count > 0 ? 1000.0 *
                             (counters_after.fit_seconds_sum -
                              counters_before.fit_seconds_sum) /
                             fit_count
                       : 0.0,
         "ms"},
        {"obs.trace_overhead_pct",
         change_pct(median(traced_steady_ms), median(untraced_steady_ms)),
         "%"},
        {"obs.trace_overhead_noise_pct",
         change_pct(median(untraced_half[0]), median(untraced_half[1])), "%"},
        {"host.steal_pct", 100.0 * stolen_ms_sum / wall_ms_sum, "%"},
        {"share.net_pct", share("net.collect_slot"), "%"},
        {"share.core_apply_pct", share("core.apply"), "%"},
        {"share.cluster_pct", share("cluster.step"), "%"},
        {"share.forecast_pct", share("forecast."), "%"},
        {"share.forecast_all_pct", share("core.forecast_all"), "%"},
        {"share.other_pct",
         share("slot") + share("core.step_external"), "%"},
    };
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "slot_ledger: " << e.what() << "\n";
    return 1;
  }
}
