// Micro-benchmarks for the wire codec: encode and decode throughput of
// measurement frames at the dimensionalities the experiments use, the
// incremental decoder on a long multi-frame stream in socket-sized chunks,
// and one shard's slot summary at the slot ledger's shapes (6,239 entries
// of d = 4 and d = 2) fed in the controller's 64 KiB reads.
// Engineering hygiene, not a paper artifact.
//
// It also gates the root's allocations: a Controller receives two shards'
// summaries over loopback TCP, and each steady collect_slot may allocate at
// most kCollectAllocSlack times, however many messages it returns (their
// values are inline). Only the collecting thread's allocations count
// (alloc_counter.cpp), so the summary writer's encodes stay out.
// --strict turns a breach into exit 1; --json PATH / --json-run LABEL
// write the JSON sink and append a history entry for this run; an unknown
// flag exits 2.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_util.hpp"
#include "capturing_reporter.hpp"
#include "common/rng.hpp"
#include "net/controller.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace {

using namespace resmon;

transport::MeasurementMessage make_message(std::size_t dim, Rng& rng) {
  transport::MeasurementMessage m;
  m.node = 17;
  m.step = 12345;
  for (std::size_t i = 0; i < dim; ++i) m.values.push_back(rng.uniform());
  return m;
}

void BM_WireEncodeMeasurement(benchmark::State& state) {
  Rng rng(1);
  const transport::MeasurementMessage m =
      make_message(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::wire::encode(m));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * m.wire_size()));
}
BENCHMARK(BM_WireEncodeMeasurement)->Arg(1)->Arg(2)->Arg(8)->Arg(64);

void BM_WireDecodeMeasurement(benchmark::State& state) {
  Rng rng(2);
  const transport::MeasurementMessage m =
      make_message(static_cast<std::size_t>(state.range(0)), rng);
  const std::vector<std::uint8_t> bytes = net::wire::encode(m);
  for (auto _ : state) {
    net::wire::FrameDecoder dec;
    dec.feed(bytes);
    benchmark::DoNotOptimize(dec.next());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_WireDecodeMeasurement)->Arg(1)->Arg(2)->Arg(8)->Arg(64);

// A full agent-uplink's worth of traffic through one incremental decoder,
// fed in read_some-sized chunks like the controller sees it.
void BM_WireDecodeStream(benchmark::State& state) {
  const std::size_t frames = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<std::uint8_t> stream;
  for (std::size_t t = 0; t < frames; ++t) {
    transport::MeasurementMessage m = make_message(2, rng);
    m.step = t;
    const std::vector<std::uint8_t> bytes = net::wire::encode(m);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  constexpr std::size_t kChunk = 4096;
  for (auto _ : state) {
    net::wire::FrameDecoder dec;
    std::size_t decoded = 0;
    for (std::size_t off = 0; off < stream.size(); off += kChunk) {
      const std::size_t n = std::min(kChunk, stream.size() - off);
      dec.feed({stream.data() + off, n});
      while (dec.next().has_value()) ++decoded;
    }
    if (decoded != frames) state.SkipWithError("frame loss in decoder");
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * stream.size()));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * frames));
}
BENCHMARK(BM_WireDecodeStream)->Arg(1000)->Arg(10000);

/// The slot ledger's shard: half of 12,478 nodes, every one transmitting.
constexpr std::size_t kShardNodes = 6239;
/// The controller's read size (net/controller.cpp).
constexpr std::size_t kReadChunk = std::size_t{64} << 10;

net::wire::SlotSummaryFrame make_summary(std::uint32_t shard,
                                         std::size_t first_node,
                                         std::uint64_t step, std::size_t dim,
                                         Rng& rng) {
  net::wire::SlotSummaryFrame s{.shard = shard,
                                .step = step,
                                .degraded = 0,
                                .num_resources =
                                    static_cast<std::uint32_t>(dim)};
  s.measurements.resize(kShardNodes);
  for (std::size_t i = 0; i < kShardNodes; ++i) {
    s.measurements[i].node = first_node + i;
    s.measurements[i].step = step;
    for (std::size_t r = 0; r < dim; ++r) {
      s.measurements[i].values.push_back(rng.uniform());
    }
  }
  return s;
}

void BM_WireEncodeSlotSummary(benchmark::State& state) {
  Rng rng(4);
  const net::wire::SlotSummaryFrame s =
      make_summary(0, 0, 77, static_cast<std::size_t>(state.range(0)), rng);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<std::uint8_t> frame = net::wire::encode(s);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
    bytes = frame.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kShardNodes));
}
BENCHMARK(BM_WireEncodeSlotSummary)->Arg(4)->Arg(2);

void BM_WireDecodeSlotSummary(benchmark::State& state) {
  Rng rng(5);
  const std::vector<std::uint8_t> bytes = net::wire::encode(
      make_summary(0, 0, 77, static_cast<std::size_t>(state.range(0)), rng));
  // One decoder across iterations, as one connection keeps one.
  net::wire::FrameDecoder dec;
  for (auto _ : state) {
    for (std::size_t off = 0; off < bytes.size(); off += kReadChunk) {
      dec.feed({bytes.data() + off, std::min(kReadChunk, bytes.size() - off)});
    }
    std::optional<net::wire::Frame> frame = dec.next();
    if (!frame || std::get<net::wire::SlotSummaryFrame>(*frame)
                          .measurements.size() != kShardNodes) {
      state.SkipWithError("slot summary lost in decoder");
    }
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kShardNodes));
}
BENCHMARK(BM_WireDecodeSlotSummary)->Arg(4)->Arg(2);

// -- root allocation gate -------------------------------------------------

/// Allocations a steady collect_slot may make: the slot vector and each
/// shard summary's entry vector, with room to spare. A per-node allocation
/// would put it in the thousands.
constexpr double kCollectAllocSlack = 8.0;

struct CollectAllocs {
  double allocs_per_slot = 0.0;
  double messages_per_slot = 0.0;
};

/// Two shards of kShardNodes nodes at d = 4 (ingest_dense's shape) send
/// their summaries over loopback TCP from a writer thread, one slot at a
/// time after the root has collected the one before (the ledger's closed
/// loop), so each collect_slot decodes exactly its own slot. The steady
/// slots after the warm-up are counted.
CollectAllocs measure_collect_allocs() {
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kDim = 4;
  constexpr std::size_t kWarmSlots = 4;
  constexpr std::size_t kSlots = 24;
  constexpr int kTimeoutMs = 20000;
  net::ControllerOptions options;
  options.num_nodes = kShards * kShardNodes;
  options.num_resources = kDim;
  options.num_shards = kShards;
  net::Controller controller(net::Socket::listen_tcp("127.0.0.1", 0),
                             options);
  const std::uint16_t port = controller.port();
  std::atomic<std::size_t> collected{0};  ///< slots the root has collected
  std::atomic<bool> stop{false};
  std::string writer_error;
  std::thread writer([&] {
    try {
      std::vector<net::Socket> shards;
      for (std::uint32_t shard = 0; shard < kShards; ++shard) {
        shards.push_back(
            net::Socket::connect_tcp("127.0.0.1", port, kTimeoutMs));
        shards.back().write_all(
            net::wire::encode(net::wire::ShardHelloFrame{
                .shard = shard,
                .first_node = static_cast<std::uint32_t>(shard * kShardNodes),
                .num_nodes = kShardNodes,
                .num_resources = kDim}),
            kTimeoutMs);
      }
      Rng rng(6);
      for (std::size_t t = 0; t < kWarmSlots + kSlots; ++t) {
        while (collected.load() < t && !stop.load()) {
          std::this_thread::yield();
        }
        if (stop.load()) return;
        for (std::uint32_t shard = 0; shard < kShards; ++shard) {
          shards[shard].write_all(
              net::wire::encode(
                  make_summary(shard, shard * kShardNodes, t, kDim, rng)),
              kTimeoutMs);
        }
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
  });
  CollectAllocs result;
  std::uint64_t allocs = 0;
  std::size_t messages = 0;
  for (std::size_t t = 0; t < kWarmSlots + kSlots; ++t) {
    const std::uint64_t before = bench::thread_allocations();
    std::optional<std::vector<transport::MeasurementMessage>> slot =
        controller.collect_slot(t, kTimeoutMs);
    if (t >= kWarmSlots) allocs += bench::thread_allocations() - before;
    if (!slot) {
      stop.store(true);
      writer.join();
      throw Error("micro_wire: collect_slot timed out " + writer_error);
    }
    if (t >= kWarmSlots) messages += slot->size();
    collected.store(t + 1);
  }
  writer.join();
  result.allocs_per_slot =
      static_cast<double>(allocs) / static_cast<double>(kSlots);
  result.messages_per_slot =
      static_cast<double>(messages) / static_cast<double>(kSlots);
  return result;
}

}  // namespace

constexpr const char* kUsage =
    "usage: micro_wire [--strict] [--json PATH [--json-run LABEL]]\n"
    "         [--benchmark_filter=REGEX] [--benchmark_* ...]\n";

// Custom main instead of BENCHMARK_MAIN(): identical benchmark runs, plus
// the collect_slot allocation gate, and --json PATH merges the rows into
// PATH (e.g. the tracked BENCH_micro.json, next to the other micro
// harnesses' rows; nothing is written without it).
int main(int argc, char** argv) {
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") != 0) continue;
    strict = true;
    for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
    --argc;
    break;
  }
  const resmon::bench::JsonFlags json =
      resmon::bench::take_json_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv) || !json.valid()) {
    std::cerr << kUsage;
    return 2;
  }
  resmon::bench::BenchJson sink("resmon-micro", "micro_wire");
  resmon::bench::CapturingReporter reporter(&sink);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const CollectAllocs collect = measure_collect_allocs();
  const double budget = kCollectAllocSlack;
  sink.add("collect_slot_allocs",
           {{"allocs_per_slot", collect.allocs_per_slot},
            {"messages_per_slot", collect.messages_per_slot},
            {"budget_per_slot", budget}});
  std::cout << "\ncollect_slot: " << collect.allocs_per_slot
            << " heap allocations per steady slot for "
            << collect.messages_per_slot << " returned messages (budget: "
            << budget << ")\n";
  const bool allocs_ok = collect.allocs_per_slot <= budget;
  if (!allocs_ok) {
    std::cout << "WARNING: collect_slot allocated more than "
              << kCollectAllocSlack << " times (see docs/PERFORMANCE.md)\n";
  }
  json.write(sink);
  return strict && !allocs_ok ? 1 : 0;
}
