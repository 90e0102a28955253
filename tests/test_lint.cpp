// resmon_lint self-tests: feed crafted good/bad snippets through the checker
// library and assert every rule in the catalogue fires where it must and
// stays silent where it must not — including path scoping, the commented
// allowlist, and inline resmon-lint-allow suppressions. This is the suite
// that keeps the linter from silently rotting as the rule set grows.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/checker.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace resmon::lint {
namespace {

std::vector<Finding> check(const std::string& path,
                           const std::string& content) {
  return run_rules(path, lex(content));
}

bool fires(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

int line_of(const std::vector<Finding>& fs, const std::string& rule) {
  for (const auto& f : fs) {
    if (f.rule == rule) return f.line;
  }
  return -1;
}

// ---------------------------------------------------------------- lexer

TEST(Lexer, StripsCommentsAndStrings) {
  const auto lexed = lex(
      "// rand() in a comment\n"
      "const char* s = \"rand()\";\n"
      "/* system_clock */ int x = 0;\n");
  for (const auto& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "system_clock");
  }
}

TEST(Lexer, RawStringsDoNotLeakTokens) {
  const auto lexed = lex("auto s = R\"(rand() srand() time(0))\";\nint y;\n");
  for (const auto& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand");
  }
  // Line counting survives the raw string.
  EXPECT_EQ(lexed.tokens.back().line, 2);
}

TEST(Lexer, CollectsSuppressions) {
  const auto lexed = lex(
      "int a;  // resmon-lint-allow(determinism): reviewed\n"
      "int b;  // resmon-lint-allow(std-endl, virtual-dtor)\n");
  ASSERT_TRUE(lexed.suppressions.count(1));
  EXPECT_TRUE(lexed.suppressions.at(1).count("determinism"));
  ASSERT_TRUE(lexed.suppressions.count(2));
  EXPECT_TRUE(lexed.suppressions.at(2).count("std-endl"));
  EXPECT_TRUE(lexed.suppressions.at(2).count("virtual-dtor"));
}

// ---------------------------------------------------------- determinism

TEST(Determinism, FlagsBannedApisInSrc) {
  const std::string bad =
      "#include <cstdlib>\n"
      "int a() { return rand(); }\n"         // 2
      "void b() { srand(7); }\n"             // 3
      "long c() { return time(nullptr); }\n"  // 4
      "long d() { return time(0); }\n"        // 5
      "auto e = std::chrono::system_clock::now();\n"   // 6
      "auto f = std::chrono::steady_clock::now();\n"   // 7
      "std::random_device rd;\n";             // 8
  const auto fs = check("src/core/pipeline.cpp", bad);
  std::vector<int> lines;
  for (const auto& f : fs) {
    if (f.rule == "determinism") lines.push_back(f.line);
  }
  EXPECT_EQ(lines, (std::vector<int>{2, 3, 4, 5, 6, 7, 8}));
}

TEST(Determinism, IgnoresNonWallClockTimeCalls) {
  // time(&t) and identifiers that merely contain banned names are fine.
  const auto fs = check("src/core/pipeline.cpp",
                        "long f(long* t) { return time(t); }\n"
                        "int training_time = 3;\n"
                        "int randomize_nothing = 4;\n");
  EXPECT_FALSE(fires(fs, "determinism"));
}

TEST(Determinism, ScopedToSrcOnly) {
  const std::string bad = "int a() { return rand(); }\n";
  EXPECT_TRUE(fires(check("src/cluster/kmeans.cpp", bad), "determinism"));
  EXPECT_FALSE(fires(check("tests/test_foo.cpp", bad), "determinism"));
  EXPECT_FALSE(fires(check("bench/fig01.cpp", bad), "determinism"));
}

TEST(Determinism, InlineSuppressionSilences) {
  const auto fs = check(
      "src/core/pipeline.cpp",
      "// resmon-lint-allow(determinism): reviewed wall-clock read\n"
      "auto t = std::chrono::system_clock::now();\n");
  EXPECT_FALSE(fires(fs, "determinism"));
}

// ---------------------------------------------------------- pragma-once

TEST(PragmaOnce, FlagsMissingAndAcceptsPresent) {
  EXPECT_TRUE(fires(check("src/core/x.hpp", "int f();\n"), "pragma-once"));
  EXPECT_FALSE(
      fires(check("src/core/x.hpp", "#pragma once\nint f();\n"),
            "pragma-once"));
  // Source files do not need it.
  EXPECT_FALSE(fires(check("src/core/x.cpp", "int f() { return 0; }\n"),
                     "pragma-once"));
}

// ------------------------------------------------- using-namespace-header

TEST(UsingNamespace, FlagsNamespaceScopeInHeader) {
  const auto fs = check("src/core/x.hpp",
                        "#pragma once\n"
                        "using namespace std;\n");
  EXPECT_TRUE(fires(fs, "using-namespace-header"));
  EXPECT_EQ(line_of(fs, "using-namespace-header"), 2);
}

TEST(UsingNamespace, AllowsInsideFunctionBodiesAndSourceFiles) {
  EXPECT_FALSE(fires(check("src/core/x.hpp",
                           "#pragma once\n"
                           "inline int f() {\n"
                           "  using namespace std;\n"
                           "  return 0;\n"
                           "}\n"),
                     "using-namespace-header"));
  EXPECT_FALSE(fires(check("src/core/x.cpp", "using namespace std;\n"),
                     "using-namespace-header"));
}

TEST(UsingNamespace, AliasAndDeclarationsAreFine) {
  EXPECT_FALSE(fires(check("src/core/x.hpp",
                           "#pragma once\n"
                           "namespace fs = std::filesystem;\n"
                           "using std::vector;\n"),
                     "using-namespace-header"));
}

// ------------------------------------------------------------- std-endl

TEST(StdEndl, FlagsInSrcAndTools) {
  const std::string bad = "void f() { std::cout << 1 << std::endl; }\n";
  EXPECT_TRUE(fires(check("src/core/report.cpp", bad), "std-endl"));
  EXPECT_TRUE(fires(check("tools/resmon_cli.cpp", bad), "std-endl"));
  EXPECT_FALSE(fires(check("bench/fig01.cpp", bad), "std-endl"));
  EXPECT_FALSE(fires(check("examples/quickstart.cpp", bad), "std-endl"));
}

// ---------------------------------------------------- catch-all-swallow

TEST(CatchAll, FlagsSilentSwallowInRuntime) {
  const std::string bad =
      "void f() {\n"
      "  try { g(); } catch (...) { count++; }\n"
      "}\n";
  EXPECT_TRUE(fires(check("src/net/agent.cpp", bad), "catch-all-swallow"));
  EXPECT_TRUE(
      fires(check("src/faultnet/injector.cpp", bad), "catch-all-swallow"));
  // The scenario runner drives the runtime and turns its failures into
  // pass/fail verdicts, so a swallowed error there means bogus greens —
  // the rule covers src/scenario/ too (spec parser included).
  EXPECT_TRUE(
      fires(check("src/scenario/runner.cpp", bad), "catch-all-swallow"));
  EXPECT_TRUE(fires(check("src/scenario/scenario_spec.cpp", bad),
                    "catch-all-swallow"));
  // The host backend parses kernel-shaped text; a swallowed parse error
  // there silently turns garbage procfs into zeros, so it's in scope too.
  EXPECT_TRUE(fires(check("src/host/sampler.cpp", bad), "catch-all-swallow"));
  EXPECT_TRUE(fires(check("src/host/parsers.cpp", bad), "catch-all-swallow"));
  // Out of the rule's blast radius.
  EXPECT_FALSE(fires(check("src/common/thread_pool.cpp", bad),
                     "catch-all-swallow"));
}

TEST(CatchAll, RethrowOrLogIsFine) {
  EXPECT_FALSE(fires(check("src/net/agent.cpp",
                           "void f() {\n"
                           "  try { g(); } catch (...) { throw; }\n"
                           "}\n"),
                     "catch-all-swallow"));
  EXPECT_FALSE(fires(check("src/net/agent.cpp",
                           "void f() {\n"
                           "  try { g(); } catch (...) {\n"
                           "    std::cerr << \"agent: hello failed\\n\";\n"
                           "  }\n"
                           "}\n"),
                     "catch-all-swallow"));
  // Concrete exception types are always fine.
  EXPECT_FALSE(fires(check("src/net/agent.cpp",
                           "void f() {\n"
                           "  try { g(); } catch (const std::exception&) {}\n"
                           "}\n"),
                     "catch-all-swallow"));
}

// -------------------------------------------------------- explicit-ctor

TEST(ExplicitCtor, FlagsSingleArgNonExplicit) {
  const auto fs = check("src/core/x.hpp",
                        "#pragma once\n"
                        "class Foo {\n"
                        " public:\n"
                        "  Foo(int x);\n"
                        "};\n");
  EXPECT_TRUE(fires(fs, "explicit-ctor"));
  EXPECT_EQ(line_of(fs, "explicit-ctor"), 4);
}

TEST(ExplicitCtor, FlagsDefaultedTrailingParams) {
  // Callable with one argument even though it has two parameters.
  EXPECT_TRUE(fires(check("src/core/x.hpp",
                          "#pragma once\n"
                          "class Foo {\n"
                          " public:\n"
                          "  Foo(int x, int y = 0);\n"
                          "};\n"),
                    "explicit-ctor"));
}

TEST(ExplicitCtor, AcceptsSanctionedForms) {
  const std::string good =
      "#pragma once\n"
      "#include <initializer_list>\n"
      "class Foo {\n"
      " public:\n"
      "  Foo() = default;\n"                          // zero-arg
      "  explicit Foo(int x);\n"                      // explicit
      "  Foo(const Foo& other);\n"                    // copy
      "  Foo(Foo&& other) noexcept;\n"                // move
      "  Foo(std::initializer_list<int> xs);\n"       // init-list
      "  Foo(int a, int b);\n"                        // two-arg
      "  Foo(double) = delete;\n"                     // deleted
      "};\n";
  EXPECT_FALSE(fires(check("src/core/x.hpp", good), "explicit-ctor"));
}

TEST(ExplicitCtor, ScopedToSrc) {
  const std::string bad =
      "class Foo {\n public:\n  Foo(int x);\n};\n";
  EXPECT_FALSE(fires(check("tests/helper.hpp", bad), "explicit-ctor"));
  EXPECT_FALSE(fires(check("bench/bench_util.hpp", bad), "explicit-ctor"));
}

// --------------------------------------------------------- virtual-dtor

TEST(VirtualDtor, FlagsPolymorphicBaseWithoutVirtualDtor) {
  const auto fs = check("src/core/x.hpp",
                        "#pragma once\n"
                        "class Base {\n"
                        " public:\n"
                        "  virtual void run() = 0;\n"
                        "};\n");
  EXPECT_TRUE(fires(fs, "virtual-dtor"));
  EXPECT_EQ(line_of(fs, "virtual-dtor"), 2);
}

TEST(VirtualDtor, AcceptsVirtualOrProtectedDtorOrDerived) {
  EXPECT_FALSE(fires(check("src/core/x.hpp",
                           "#pragma once\n"
                           "class Base {\n"
                           " public:\n"
                           "  virtual ~Base() = default;\n"
                           "  virtual void run() = 0;\n"
                           "};\n"),
                     "virtual-dtor"));
  EXPECT_FALSE(fires(check("src/core/x.hpp",
                           "#pragma once\n"
                           "class Base {\n"
                           " public:\n"
                           "  virtual void run() = 0;\n"
                           " protected:\n"
                           "  ~Base() = default;\n"
                           "};\n"),
                     "virtual-dtor"));
  // Derived classes inherit dtor virtuality from their base.
  EXPECT_FALSE(fires(check("src/core/x.hpp",
                           "#pragma once\n"
                           "class Impl : public Base {\n"
                           " public:\n"
                           "  virtual void run() override;\n"
                           "};\n"),
                     "virtual-dtor"));
  // Final classes cannot be deleted through a derived handle.
  EXPECT_FALSE(fires(check("src/core/x.hpp",
                           "#pragma once\n"
                           "class Leaf final {\n"
                           " public:\n"
                           "  virtual void run();\n"
                           "};\n"),
                     "virtual-dtor"));
}

TEST(VirtualDtor, NonPolymorphicClassesAreFine) {
  EXPECT_FALSE(fires(check("src/core/x.hpp",
                           "#pragma once\n"
                           "struct Plain { int x; void f(); };\n"),
                     "virtual-dtor"));
}

// ------------------------------------------------------------ allowlist

TEST(Allowlist, SuppressesByExactPathAndPrefix) {
  const Allowlist allow = parse_allowlist(
      "determinism src/core/pipeline.cpp  # reviewed clock read\n"
      "std-endl    src/obs/               # exposition writer flushes\n");
  ASSERT_TRUE(allow.errors.empty());
  EXPECT_TRUE(check_source("src/core/pipeline.cpp",
                           "int f() { return rand(); }\n", allow)
                  .empty());
  EXPECT_TRUE(check_source("src/obs/export.cpp",
                           "void f() { std::cout << std::endl; }\n", allow)
                  .empty());
  // Other files are still caught.
  EXPECT_FALSE(check_source("src/core/metrics.cpp",
                            "int f() { return rand(); }\n", allow)
                   .empty());
}

TEST(Allowlist, MarksUsedEntries) {
  const Allowlist allow = parse_allowlist(
      "determinism src/core/pipeline.cpp  # reviewed\n"
      "std-endl    src/core/pipeline.cpp  # never fires\n");
  std::vector<bool> used;
  check_source("src/core/pipeline.cpp", "int f() { return rand(); }\n", allow,
               &used);
  ASSERT_EQ(used.size(), 2u);
  EXPECT_TRUE(used[0]);
  EXPECT_FALSE(used[1]);
}

TEST(Allowlist, RejectsEntriesWithoutReasonOrUnknownRule) {
  EXPECT_FALSE(parse_allowlist("determinism src/core/pipeline.cpp\n")
                   .errors.empty());
  EXPECT_FALSE(
      parse_allowlist("not-a-rule src/core/pipeline.cpp # reason\n")
          .errors.empty());
  EXPECT_FALSE(
      parse_allowlist("determinism src/a.cpp extra-field # reason\n")
          .errors.empty());
  // Comments and blank lines are fine; '*' is a valid rule wildcard.
  const Allowlist ok = parse_allowlist(
      "# header comment\n"
      "\n"
      "* src/generated/  # third-party generated code\n");
  EXPECT_TRUE(ok.errors.empty());
  ASSERT_EQ(ok.entries.size(), 1u);
  EXPECT_EQ(ok.entries[0].rule, "*");
}

// The shipped allowlist must itself parse cleanly.
TEST(Allowlist, ShippedAllowlistParses) {
#ifdef RESMON_SOURCE_DIR
  std::ifstream in(std::string(RESMON_SOURCE_DIR) +
                   "/tools/lint_allowlist.txt");
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const Allowlist allow = parse_allowlist(ss.str());
  for (const auto& e : allow.errors) ADD_FAILURE() << e;
  EXPECT_FALSE(allow.entries.empty());
#else
  GTEST_SKIP() << "RESMON_SOURCE_DIR not defined";
#endif
}

// ----------------------------------------------------- mutex-annotation

TEST(MutexAnnotation, FlagsBareDeclarationsInSrc) {
  const auto fs = check("src/core/worker.hpp",
                        "class W {\n"
                        "  std::mutex m_;\n"
                        "  std::condition_variable cv_;\n"
                        "  std::shared_mutex rw_;\n"
                        "};\n");
  EXPECT_TRUE(fires(fs, "mutex-annotation"));
  EXPECT_EQ(line_of(fs, "mutex-annotation"), 2);
  EXPECT_EQ(std::count_if(
                fs.begin(), fs.end(),
                [](const Finding& f) { return f.rule == "mutex-annotation"; }),
            3);
}

TEST(MutexAnnotation, AnnotatedWrappersAndUsesAreFine) {
  // The annotated wrapper types, RESMON_-annotated raw members, and mere
  // *uses* of the std types (references, template args) stay silent.
  EXPECT_FALSE(fires(check("src/core/worker.hpp",
                           "class W {\n"
                           "  Mutex mu_;\n"
                           "  CondVar cv_;\n"
                           "  int queue_ RESMON_GUARDED_BY(mu_);\n"
                           "};\n"),
                     "mutex-annotation"));
  EXPECT_FALSE(fires(check("src/core/worker.cpp",
                           "void f(std::mutex& mu) {\n"
                           "  std::unique_lock<std::mutex> lock(mu);\n"
                           "  std::mutex* p = &mu;\n"
                           "}\n"),
                     "mutex-annotation"));
}

TEST(MutexAnnotation, ScopedToSrcAndInlineSuppressible) {
  const std::string bad = "class W { std::mutex m_; };\n";
  EXPECT_FALSE(fires(check("tests/test_worker.cpp", bad), "mutex-annotation"));
  EXPECT_FALSE(fires(check("bench/micro_worker.cpp", bad),
                     "mutex-annotation"));
  EXPECT_FALSE(fires(
      check("src/core/worker.hpp",
            "class W {\n"
            "  // resmon-lint-allow(mutex-annotation): external lock order\n"
            "  std::mutex m_;\n"
            "};\n"),
      "mutex-annotation"));
}

// -------------------------------------------------------------- layering

LayerGraph two_layers() {
  LayerGraph g = parse_layers(
      "common -> {}\n"
      "obs -> {common}\n"
      "net -> {common, obs}\n");
  EXPECT_TRUE(g.errors.empty());
  return g;
}

TEST(Layering, FlagsOutOfLayerInclude) {
  const LayerGraph g = two_layers();
  const auto fs = run_rules("src/obs/metrics.cpp",
                            lex("#include \"common/error.hpp\"\n"
                                "#include \"net/controller.hpp\"\n"),
                            &g);
  ASSERT_TRUE(fires(fs, "layering"));
  EXPECT_EQ(line_of(fs, "layering"), 2);
}

TEST(Layering, DeclaredDepsSelfAndSystemIncludesAreFine) {
  const LayerGraph g = two_layers();
  EXPECT_FALSE(fires(run_rules("src/net/controller.cpp",
                               lex("#include <vector>\n"
                                   "#include \"net/wire.hpp\"\n"
                                   "#include \"obs/metrics.hpp\"\n"
                                   "#include \"common/error.hpp\"\n"),
                               &g),
                     "layering"));
  // Files outside src/ and non-module includes are not constrained.
  EXPECT_FALSE(fires(run_rules("tests/test_net.cpp",
                               lex("#include \"net/controller.hpp\"\n"), &g),
                     "layering"));
}

TEST(Layering, UndeclaredModuleIsAFinding) {
  const LayerGraph g = two_layers();
  const auto fs = run_rules("src/rogue/new_module.cpp",
                            lex("#include \"common/error.hpp\"\n"), &g);
  ASSERT_TRUE(fires(fs, "layering"));
  EXPECT_EQ(line_of(fs, "layering"), 1);
}

TEST(Layering, InertWithoutAGraph) {
  EXPECT_FALSE(fires(run_rules("src/obs/metrics.cpp",
                               lex("#include \"net/controller.hpp\"\n"),
                               nullptr),
                     "layering"));
  LayerGraph broken = parse_layers("not a layer line\n");
  ASSERT_FALSE(broken.errors.empty());
  EXPECT_FALSE(fires(run_rules("src/obs/metrics.cpp",
                               lex("#include \"net/controller.hpp\"\n"),
                               &broken),
                     "layering"));
}

TEST(Layering, AllowlistSuppressesOutOfLayerInclude) {
  const LayerGraph g = two_layers();
  const Allowlist allow = parse_allowlist(
      "layering src/obs/legacy.cpp  # migration in flight\n");
  ASSERT_TRUE(allow.errors.empty());
  EXPECT_TRUE(check_source("src/obs/legacy.cpp",
                           "#include \"net/controller.hpp\"\n", allow,
                           nullptr, &g)
                  .empty());
  EXPECT_FALSE(check_source("src/obs/metrics.cpp",
                            "#include \"net/controller.hpp\"\n", allow,
                            nullptr, &g)
                   .empty());
}

TEST(Layering, ParseRejectsMalformedGraphs) {
  EXPECT_FALSE(parse_layers("obs\n").errors.empty());
  EXPECT_FALSE(parse_layers("obs -> common\n").errors.empty());
  EXPECT_FALSE(parse_layers("obs -> {common\n").errors.empty());
  // Duplicate module, undeclared dependency, self-dependency.
  EXPECT_FALSE(
      parse_layers("obs -> {}\nobs -> {}\n").errors.empty());
  EXPECT_FALSE(parse_layers("obs -> {ghost}\n").errors.empty());
  EXPECT_FALSE(parse_layers("obs -> {obs}\n").errors.empty());
}

TEST(Layering, ParseDetectsDependencyCycles) {
  const LayerGraph g = parse_layers(
      "a -> {b}\n"
      "b -> {c}\n"
      "c -> {a}\n");
  ASSERT_FALSE(g.errors.empty());
  EXPECT_NE(g.errors[0].find("dependency cycle"), std::string::npos);
}

TEST(Layering, IncludeCycleDetection) {
  // a.hpp -> b.hpp -> a.hpp is a cycle even though each edge individually
  // stays inside one module (so the DAG rule cannot see it).
  const auto fs = check_include_cycles(
      {{"src/common/a.hpp", "#include \"common/b.hpp\"\n"},
       {"src/common/b.hpp", "#include \"common/a.hpp\"\n"},
       {"src/common/c.hpp", "#include \"common/a.hpp\"\n"}});
  ASSERT_FALSE(fs.empty());
  EXPECT_EQ(fs[0].rule, "layering");
  EXPECT_NE(fs[0].message.find("include cycle"), std::string::npos);
  // Acyclic graphs are quiet.
  EXPECT_TRUE(check_include_cycles(
                  {{"src/common/a.hpp", "#include \"common/b.hpp\"\n"},
                   {"src/common/b.hpp", "#include <vector>\n"}})
                  .empty());
}

#ifdef RESMON_SOURCE_DIR
LayerGraph shipped_layers() {
  std::ifstream in(std::string(RESMON_SOURCE_DIR) + "/tools/lint_layers.txt");
  EXPECT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_layers(ss.str());
}
#endif

// The shipped layer graph must itself parse cleanly.
TEST(Layering, ShippedLayerGraphParses) {
#ifdef RESMON_SOURCE_DIR
  const LayerGraph g = shipped_layers();
  for (const auto& e : g.errors) ADD_FAILURE() << e;
  EXPECT_FALSE(g.deps.empty());
  // Every module must be reachable from the leaf layer: common exists and
  // depends on nothing.
  ASSERT_TRUE(g.deps.count("common"));
  EXPECT_TRUE(g.deps.at("common").empty());
#else
  GTEST_SKIP() << "RESMON_SOURCE_DIR not defined";
#endif
}

// The central node consumes slots; the in-process fleet and its fault
// stage live above it (src/sim), so the shipped graph must keep core from
// reaching into faultnet.
TEST(Layering, ShippedLayerGraphKeepsCoreOutOfFaultnet) {
#ifdef RESMON_SOURCE_DIR
  const LayerGraph g = shipped_layers();
  ASSERT_TRUE(g.errors.empty() && !g.deps.empty());
  const auto fs = run_rules("src/core/pipeline.hpp",
                            lex("#include \"core/metrics.hpp\"\n"
                                "#include \"faultnet/faulty_link.hpp\"\n"),
                            &g);
  ASSERT_TRUE(fires(fs, "layering"));
  EXPECT_EQ(line_of(fs, "layering"), 2);
  EXPECT_FALSE(fires(run_rules("src/sim/driver.hpp",
                               lex("#include \"faultnet/faulty_link.hpp\"\n"),
                               &g),
                     "layering"));
#else
  GTEST_SKIP() << "RESMON_SOURCE_DIR not defined";
#endif
}

}  // namespace
}  // namespace resmon::lint
