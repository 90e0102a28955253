#include "trace/trace.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "trace/loader.hpp"
#include "trace/synthetic.hpp"

namespace resmon::trace {
namespace {

TEST(InMemoryTrace, StoresAndReturnsValues) {
  InMemoryTrace t(2, 3, 2);
  t.set_value(1, 2, 0, 0.5);
  EXPECT_DOUBLE_EQ(t.value(1, 2, 0), 0.5);
  EXPECT_DOUBLE_EQ(t.value(0, 0, 0), 0.0);
}

TEST(InMemoryTrace, RejectsEmptyDimensions) {
  EXPECT_THROW(InMemoryTrace(0, 1, 1), InvalidArgument);
  EXPECT_THROW(InMemoryTrace(1, 0, 1), InvalidArgument);
  EXPECT_THROW(InMemoryTrace(1, 1, 0), InvalidArgument);
}

TEST(InMemoryTrace, MeasurementAndSeriesViews) {
  InMemoryTrace t(1, 3, 2);
  t.set_value(0, 0, 0, 0.1);
  t.set_value(0, 1, 0, 0.2);
  t.set_value(0, 2, 0, 0.3);
  t.set_value(0, 1, 1, 0.9);
  const std::vector<double> m = t.measurement(0, 1);
  EXPECT_DOUBLE_EQ(m[0], 0.2);
  EXPECT_DOUBLE_EQ(m[1], 0.9);
  const std::vector<double> s = t.series(0, 0);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[2], 0.3);
}

TEST(InMemoryTrace, EveryCellRoundTripsAtUnequalShape) {
  // A distinct value per cell, at two shapes with num_nodes != num_steps.
  // An offset that swaps the node and step extents maps two cells to one
  // element at one of the shapes, so a read-back below differs.
  for (const auto& [nodes, steps] :
       {std::pair<std::size_t, std::size_t>{3, 5}, {5, 3}}) {
    const std::size_t resources = 2;
    auto code = [](std::size_t i, std::size_t t, std::size_t r) {
      return static_cast<double>(100 * i + 10 * t + r) / 1000.0;
    };
    InMemoryTrace trace(nodes, steps, resources);
    for (std::size_t i = 0; i < nodes; ++i) {
      for (std::size_t t = 0; t < steps; ++t) {
        for (std::size_t r = 0; r < resources; ++r) {
          trace.set_value(i, t, r, code(i, t, r));
        }
      }
    }
    for (std::size_t i = 0; i < nodes; ++i) {
      for (std::size_t t = 0; t < steps; ++t) {
        const std::vector<double> m = trace.measurement(i, t);
        ASSERT_EQ(m.size(), resources);
        for (std::size_t r = 0; r < resources; ++r) {
          EXPECT_EQ(trace.value(i, t, r), code(i, t, r))
              << nodes << "x" << steps << " cell " << i << "," << t << ","
              << r;
          EXPECT_EQ(m[r], code(i, t, r));
        }
      }
      for (std::size_t r = 0; r < resources; ++r) {
        const std::vector<double> s = trace.series(i, r);
        ASSERT_EQ(s.size(), steps);
        for (std::size_t t = 0; t < steps; ++t) {
          EXPECT_EQ(s[t], code(i, t, r));
        }
      }
    }
  }
}

TEST(ResourceNames, CpuAndMemory) {
  EXPECT_EQ(resource_name(kCpu), "CPU");
  EXPECT_EQ(resource_name(kMemory), "Memory");
  EXPECT_EQ(resource_name(5), "Resource5");
}

TEST(Synthetic, GeneratorIsDeterministic) {
  SyntheticProfile p = alibaba_profile();
  p.num_nodes = 10;
  p.num_steps = 100;
  const InMemoryTrace a = generate(p, 42);
  const InMemoryTrace b = generate(p, 42);
  for (std::size_t t = 0; t < p.num_steps; t += 7) {
    EXPECT_DOUBLE_EQ(a.value(3, t, 0), b.value(3, t, 0));
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticProfile p = google_profile();
  p.num_nodes = 10;
  p.num_steps = 50;
  const InMemoryTrace a = generate(p, 1);
  const InMemoryTrace b = generate(p, 2);
  bool any_diff = false;
  for (std::size_t t = 0; t < p.num_steps && !any_diff; ++t) {
    any_diff = a.value(0, t, 0) != b.value(0, t, 0);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Synthetic, ValuesAreNormalized) {
  for (const char* name : {"alibaba", "bitbrains", "google", "sensors"}) {
    SyntheticProfile p = profile_by_name(name);
    p.num_nodes = 20;
    p.num_steps = 300;
    const InMemoryTrace t = generate(p, 3);
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      for (std::size_t s = 0; s < t.num_steps(); ++s) {
        for (std::size_t r = 0; r < t.num_resources(); ++r) {
          const double v = t.value(i, s, r);
          ASSERT_GE(v, 0.0) << name;
          ASSERT_LE(v, 1.0) << name;
        }
      }
    }
  }
}

TEST(Synthetic, QuantizationRoundsValues) {
  SyntheticProfile p = alibaba_profile();
  p.num_nodes = 5;
  p.num_steps = 50;
  p.quantization = 0.01;
  const InMemoryTrace t = generate(p, 9);
  for (std::size_t s = 0; s < p.num_steps; ++s) {
    const double v = t.value(0, s, 0);
    EXPECT_NEAR(v, std::round(v * 100.0) / 100.0, 1e-9);
  }
}

TEST(Synthetic, GeneratedValuesArePinned) {
  // FNV-1a over the bit patterns of every value in (node, step, resource)
  // order. The constant pins the generator's output; a change to how a
  // trace is stored or emitted must leave it alone. It holds for
  // libstdc++, whose std::normal_distribution draws fix every value.
  SyntheticProfile p = google_profile();
  p.num_nodes = 97;
  p.num_steps = 41;
  const InMemoryTrace t = generate(p, 5);
  std::uint64_t hash = 14695981039346656037ull;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t s = 0; s < t.num_steps(); ++s) {
      for (std::size_t r = 0; r < t.num_resources(); ++r) {
        const auto bits = std::bit_cast<std::uint64_t>(t.value(i, s, r));
        for (int byte = 0; byte < 8; ++byte) {
          hash ^= (bits >> (8 * byte)) & 0xffu;
          hash *= 1099511628211ull;
        }
      }
    }
  }
  EXPECT_EQ(hash, 0x49cc2349e1368fdeull);
}

TEST(Synthetic, UnknownProfileThrows) {
  EXPECT_THROW(profile_by_name("nope"), InvalidArgument);
}

TEST(Synthetic, ProfileLookupIsCaseSensitive) {
  // Scenario packs (and the CLI) pass names through verbatim; "Google"
  // silently mapping to "google" would hide pack typos, so it must throw.
  EXPECT_NO_THROW(profile_by_name("google"));
  EXPECT_THROW(profile_by_name("Google"), InvalidArgument);
  EXPECT_THROW(profile_by_name("ALIBABA"), InvalidArgument);
  EXPECT_THROW(profile_by_name(" google"), InvalidArgument);
}

TEST(Synthetic, PaperScaleProfilesMatchPaper) {
  EXPECT_EQ(scale_to_paper(alibaba_profile()).num_nodes, 4000u);
  EXPECT_EQ(scale_to_paper(bitbrains_profile()).num_nodes, 500u);
  EXPECT_EQ(scale_to_paper(google_profile()).num_steps, 8350u);
}

// The motivational property of Fig. 1: sensor nodes are strongly correlated
// in the long term; machines in a compute cluster are not.
TEST(Synthetic, SensorsCorrelateMoreThanMachines) {
  SyntheticProfile sensors = sensors_profile();
  sensors.num_nodes = 12;
  sensors.num_steps = 800;
  SyntheticProfile machines = google_profile();
  machines.num_nodes = 12;
  machines.num_steps = 800;

  const InMemoryTrace st = generate(sensors, 5);
  const InMemoryTrace mt = generate(machines, 5);

  auto median_corr = [](const Trace& t) {
    std::vector<double> corrs;
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      for (std::size_t j = i + 1; j < t.num_nodes(); ++j) {
        corrs.push_back(
            stats::pearson(t.series(i, 0), t.series(j, 0)));
      }
    }
    return stats::quantile(corrs, 0.5);
  };
  EXPECT_GT(median_corr(st), 0.5);
  EXPECT_LT(median_corr(mt), 0.5);
}

TEST(Synthetic, RegimeSwitchingChangesGroups) {
  // With a high switch probability, node series should decorrelate from
  // their initial group over time; smoke-check that the trace still stays
  // in range and is not constant.
  SyntheticProfile p = alibaba_profile();
  p.num_nodes = 8;
  p.num_steps = 400;
  p.regime_switch_probability = 0.05;
  const InMemoryTrace t = generate(p, 13);
  const std::vector<double> s = t.series(0, 0);
  EXPECT_GT(stats::stddev(s), 0.0);
}

// ---- CSV loader ---------------------------------------------------------

TEST(Loader, RoundTripsThroughCsv) {
  // save -> load is the identity, bit for bit, on every profile.
  for (SyntheticProfile p :
       {alibaba_profile(), bitbrains_profile(), google_profile()}) {
    p.num_nodes = 10;
    p.num_steps = 50;
    const InMemoryTrace original = generate(p, 21);

    std::stringstream ss;
    save_csv(original, ss);
    EXPECT_EQ(ss.precision(), 6) << "caller's stream state was changed";
    const InMemoryTrace loaded = load_csv(ss);

    ASSERT_EQ(loaded.num_nodes(), original.num_nodes());
    ASSERT_EQ(loaded.num_steps(), original.num_steps());
    ASSERT_EQ(loaded.num_resources(), original.num_resources());
    for (std::size_t i = 0; i < original.num_nodes(); ++i) {
      for (std::size_t t = 0; t < original.num_steps(); ++t) {
        for (std::size_t r = 0; r < original.num_resources(); ++r) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(loaded.value(i, t, r)),
                    std::bit_cast<std::uint64_t>(original.value(i, t, r)))
              << p.name << " node " << i << " step " << t << " resource "
              << r;
        }
      }
    }
  }
}

TEST(Loader, RejectsAGridTooLargeToAllocate) {
  // Both indices pass the per-axis bound, but the dense grid would be
  // 10^14 cells.
  std::stringstream ss;
  ss << "node,step,cpu\n"
     << "0,0,0.5\n"
     << "9999999,9999999,0.5\n";
  try {
    load_csv(ss);
    FAIL() << "expected resmon::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("10000000 nodes x 10000000 steps"),
              std::string::npos)
        << e.what();
  }
}

TEST(Loader, FillsGapsWithPreviousValue) {
  std::stringstream ss;
  ss << "node,step,cpu\n"
     << "0,0,0.5\n"
     << "0,2,0.9\n";  // step 1 missing
  const InMemoryTrace t = load_csv(ss);
  EXPECT_DOUBLE_EQ(t.value(0, 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(t.value(0, 1, 0), 0.5);  // held
  EXPECT_DOUBLE_EQ(t.value(0, 2, 0), 0.9);

  // Several nodes, two resources, multi-step gaps, rows out of order.
  std::stringstream many;
  many << "node,step,cpu,mem\n"
       << "2,4,0.24,0.34\n"
       << "0,0,0.10,0.20\n"
       << "1,2,0.12,0.22\n"
       << "0,3,0.13,0.23\n"
       << "2,0,0.20,0.30\n"
       << "1,5,0.15,0.25\n";
  const InMemoryTrace m = load_csv(many);
  ASSERT_EQ(m.num_nodes(), 3u);
  ASSERT_EQ(m.num_steps(), 6u);
  const double want[3][6][2] = {
      // node 0: steps 1-2 hold step 0, steps 4-5 hold step 3.
      {{0.10, 0.20}, {0.10, 0.20}, {0.10, 0.20},
       {0.13, 0.23}, {0.13, 0.23}, {0.13, 0.23}},
      // node 1: leading gap stays zero, steps 3-4 hold step 2.
      {{0.0, 0.0}, {0.0, 0.0}, {0.12, 0.22},
       {0.12, 0.22}, {0.12, 0.22}, {0.15, 0.25}},
      // node 2: steps 1-3 hold step 0, step 5 holds step 4.
      {{0.20, 0.30}, {0.20, 0.30}, {0.20, 0.30},
       {0.20, 0.30}, {0.24, 0.34}, {0.24, 0.34}},
  };
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t s = 0; s < 6; ++s) {
      for (std::size_t r = 0; r < 2; ++r) {
        EXPECT_DOUBLE_EQ(m.value(i, s, r), want[i][s][r])
            << "node " << i << " step " << s << " resource " << r;
      }
    }
  }
}

TEST(Loader, SkipsCommentLinesAnywhere) {
  // Host recordings are trace CSVs with '#' metadata lines (magic header,
  // timestamps, end trailer); the loader must skip them wherever they sit.
  std::stringstream ss;
  ss << "# resmon-host-recording v1\n"
     << "# interval_ms=100 resources=1\n"
     << "node,step,cpu\n"
     << "0,0,0.5\n"
     << "# ts_ms=1000,1100\n"
     << "0,1,0.75\n"
     << "# end rows=2\n";
  const InMemoryTrace t = load_csv(ss);
  EXPECT_EQ(t.num_steps(), 2u);
  EXPECT_DOUBLE_EQ(t.value(0, 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(t.value(0, 1, 0), 0.75);
}

TEST(Loader, CommentOnlyInputIsStillEmpty) {
  std::stringstream ss;
  ss << "# just\n# comments\n";
  EXPECT_THROW(load_csv(ss), Error);
}

TEST(Loader, RejectsEmptyInput) {
  std::stringstream ss;
  EXPECT_THROW(load_csv(ss), Error);
}

TEST(Loader, RejectsMalformedNumbers) {
  std::stringstream ss;
  ss << "node,step,cpu\n0,0,banana\n";
  EXPECT_THROW(load_csv(ss), Error);
}

TEST(Loader, RejectsWrongFieldCount) {
  std::stringstream ss;
  ss << "node,step,cpu\n0,0\n";
  EXPECT_THROW(load_csv(ss), Error);
}

TEST(Loader, MissingFileThrows) {
  EXPECT_THROW(load_csv_file("/nonexistent/trace.csv"), Error);
}

// Malformed-input coverage: every corrupt row must surface as a clean
// Error naming the line (and where possible the column), never UB or a
// giant allocation. The scenario .scn parser shares these parse helpers.

namespace {
template <typename Fn>
void expect_error_containing(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected Error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}
}  // namespace

TEST(Loader, TruncatedRowNamesLineAndFieldCount) {
  std::stringstream ss;
  ss << "node,step,cpu,mem\n"
     << "0,0,0.5,0.6\n"
     << "0,1,0.5\n";  // row truncated mid-record
  expect_error_containing([&] { load_csv(ss); },
                          "line 3 has wrong field count (expected 4, got 3)");
}

TEST(Loader, NonNumericCellNamesLineAndColumn) {
  std::stringstream ss;
  ss << "node,step,cpu,mem\n"
     << "0,0,0.5,fast\n";
  expect_error_containing([&] { load_csv(ss); }, "line 2 column mem");
}

TEST(Loader, NonNumericNodeIndexNamesTheLine) {
  std::stringstream ss;
  ss << "node,step,cpu\n"
     << "host-7,0,0.5\n";
  expect_error_containing([&] { load_csv(ss); }, "line 2 node");
}

TEST(Loader, NegativeIndexIsRejectedNotWrappedAround) {
  std::stringstream ss;
  ss << "node,step,cpu\n"
     << "-1,0,0.5\n";
  EXPECT_THROW(load_csv(ss), Error);
}

TEST(Loader, AbsurdIndexFailsInsteadOfAllocating) {
  // A corrupt "4294967295" index must be diagnosed, not turned into a
  // multi-terabyte dense grid.
  std::stringstream ss;
  ss << "node,step,cpu\n"
     << "4294967295,0,0.5\n";
  expect_error_containing([&] { load_csv(ss); }, "index out of range");
}

TEST(Loader, HeaderOnlyFileIsRejected) {
  std::stringstream ss;
  ss << "node,step,cpu\n";
  expect_error_containing([&] { load_csv(ss); }, "no data rows");
}

TEST(Loader, TooFewHeaderColumnsIsRejected) {
  std::stringstream ss;
  ss << "node,step\n0,0\n";
  EXPECT_THROW(load_csv(ss), Error);
}

TEST(Loader, TrailingCommaCountsAsAnEmptyField) {
  std::stringstream ss;
  ss << "node,step,cpu\n"
     << "0,0,\n";  // empty cpu cell, field count is right
  expect_error_containing([&] { load_csv(ss); }, "line 2 column cpu");
}

TEST(Loader, CrlfLineEndingsParse) {
  std::stringstream ss;
  ss << "node,step,cpu\r\n"
     << "0,0,0.25\r\n";
  const InMemoryTrace t = load_csv(ss);
  EXPECT_DOUBLE_EQ(t.value(0, 0, 0), 0.25);
}

// ---- generator realism features -----------------------------------------

TEST(Synthetic, ReplicasMirrorTheirPartner) {
  SyntheticProfile p = google_profile();
  p.num_nodes = 20;
  p.num_steps = 400;
  p.replica_fraction = 0.5;  // nodes 10..19 replicate nodes 0..9
  p.replica_noise_std = 0.001;
  const InMemoryTrace t = generate(p, 31);
  // Every replica must be near-perfectly correlated with some original.
  for (std::size_t i = 10; i < 20; ++i) {
    double best = -1.0;
    for (std::size_t j = 0; j < 10; ++j) {
      best = std::max(best, stats::pearson(t.series(i, 0), t.series(j, 0)));
    }
    EXPECT_GT(best, 0.98) << "replica " << i;
  }
}

TEST(Synthetic, ZeroReplicaFractionKeepsNodesDistinct) {
  SyntheticProfile p = google_profile();
  p.num_nodes = 10;
  p.num_steps = 300;
  p.replica_fraction = 0.0;
  const InMemoryTrace t = generate(p, 32);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      EXPECT_LT(stats::pearson(t.series(i, 0), t.series(j, 0)), 0.999);
    }
  }
}

TEST(Synthetic, GroupJumpsShiftLevelsPermanently) {
  // With very frequent jumps the long-run variance of a node's series must
  // exceed the no-jump variance.
  SyntheticProfile base = google_profile();
  base.num_nodes = 10;
  base.num_steps = 1500;
  base.group_jump_probability = 0.0;
  SyntheticProfile jumpy = base;
  jumpy.group_jump_probability = 0.01;
  jumpy.group_jump_std = 0.2;
  const InMemoryTrace quiet = generate(base, 33);
  const InMemoryTrace moved = generate(jumpy, 33);
  double var_quiet = 0.0;
  double var_moved = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    var_quiet += stats::variance(quiet.series(i, 0));
    var_moved += stats::variance(moved.series(i, 0));
  }
  EXPECT_GT(var_moved, var_quiet);
}

TEST(Synthetic, OffsetDriftDecorrelatesTrainAndTestLevels) {
  // With strong drift, a node's mean over an early window is a poor
  // predictor of its mean over a late window.
  SyntheticProfile p = google_profile();
  p.num_nodes = 30;
  p.num_steps = 2000;
  p.group_jump_probability = 0.0;
  p.regime_switch_probability = 0.0;
  p.node_offset_drift_std = 0.01;
  const InMemoryTrace t = generate(p, 34);
  double shift = 0.0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    const std::vector<double> s = t.series(i, 0);
    const std::span<const double> early(s.data(), 500);
    const std::span<const double> late(s.data() + 1500, 500);
    shift += std::fabs(stats::mean(early) - stats::mean(late));
  }
  shift /= static_cast<double>(t.num_nodes());
  EXPECT_GT(shift, 0.05);  // drift std over 1500 steps ~ 0.39 per resource
}

TEST(Synthetic, WeekendDampeningLowersWeekendLoad) {
  SyntheticProfile p = google_profile();
  p.num_nodes = 10;
  p.diurnal_period = 50.0;      // short "days" so a trace covers weeks
  p.num_steps = 50 * 14;        // two weeks
  p.weekend_dampening = 0.5;
  p.group_jump_probability = 0.0;
  p.node_offset_drift_std = 0.0;
  const InMemoryTrace t = generate(p, 36);
  // Average over weekday steps vs weekend steps (days 5,6 and 12,13).
  double weekday = 0.0, weekend = 0.0;
  std::size_t n_weekday = 0, n_weekend = 0;
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    const std::size_t day = step / 50;
    const bool is_weekend = day % 7 >= 5;
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      if (is_weekend) {
        weekend += t.value(i, step, 0);
        ++n_weekend;
      } else {
        weekday += t.value(i, step, 0);
        ++n_weekday;
      }
    }
  }
  EXPECT_LT(weekend / n_weekend, 0.8 * (weekday / n_weekday));
}

TEST(Synthetic, VolatilityRegimesProduceBurstyNoise) {
  // With extreme contrast between regimes, per-window variance of a node's
  // detrended series must vary strongly over time.
  SyntheticProfile p = google_profile();
  p.num_nodes = 4;
  p.num_steps = 2000;
  p.volatility_quiet = 0.02;
  p.volatility_active = 4.0;
  p.volatility_switch_probability = 0.01;
  p.spike_probability = 0.0;
  const InMemoryTrace t = generate(p, 35);
  const std::vector<double> s = t.series(0, 0);
  std::vector<double> window_stddevs;
  for (std::size_t start = 0; start + 50 <= s.size(); start += 50) {
    std::vector<double> diffs;
    for (std::size_t i = start + 1; i < start + 50; ++i) {
      diffs.push_back(s[i] - s[i - 1]);  // detrend by differencing
    }
    window_stddevs.push_back(stats::stddev(diffs));
  }
  const double lo = stats::quantile(window_stddevs, 0.1);
  const double hi = stats::quantile(window_stddevs, 0.9);
  EXPECT_GT(hi, 3.0 * lo);
}

}  // namespace
}  // namespace resmon::trace
