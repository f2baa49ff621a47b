#include "obs/profiler.h"

#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "query/match.h"
#include "rdf/rdf_store.h"

namespace rdfdb::obs {
namespace {

/// Spin until `deadline`, keeping the process CPU clock (and therefore
/// the SIGPROF timer) advancing.
void BurnCpuUntil(std::chrono::steady_clock::time_point deadline) {
  volatile uint64_t acc = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 4096; ++i) acc = acc + static_cast<uint64_t>(i);
  }
}

/// Process CPU time (all threads) in nanoseconds.
int64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Spin until the process has burned `cpu` of CPU time, however long
/// that takes on the wall clock.
void BurnProcessCpu(std::chrono::nanoseconds cpu) {
  const int64_t until = ProcessCpuNanos() + cpu.count();
  volatile uint64_t acc = 0;
  while (ProcessCpuNanos() < until) {
    for (int i = 0; i < 4096; ++i) acc = acc + static_cast<uint64_t>(i);
  }
}

/// Every non-empty line must be "frame(;frame)* count" with a positive
/// count and no embedded spaces in the frame part.
void ExpectWellFormedCollapsed(const std::string& collapsed) {
  std::istringstream in(collapsed);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string stack = line.substr(0, space);
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    for (char c : count) EXPECT_TRUE(std::isdigit(c)) << line;
    EXPECT_GT(std::stoull(count), 0u) << line;
    // Sanitization: frames never contain spaces (replaced with '_').
    EXPECT_EQ(stack.find(' '), std::string::npos) << line;
    // No empty frames (";;" would break flamegraph.pl).
    EXPECT_EQ(stack.find(";;"), std::string::npos) << line;
    EXPECT_NE(stack.front(), ';') << line;
    EXPECT_NE(stack.back(), ';') << line;
  }
  EXPECT_GT(lines, 0u) << "no stacks in collapsed output";
}

TEST(ProfilerTest, StartStopLifecycle) {
  EXPECT_FALSE(ProfilerRunning());
  ASSERT_TRUE(StartProfiler(100));
  EXPECT_TRUE(ProfilerRunning());
  EXPECT_EQ(ProfilerHz(), 100);
  // Double start is rejected, the original capture keeps running.
  EXPECT_FALSE(StartProfiler(50));
  EXPECT_EQ(ProfilerHz(), 100);
  StopProfiler();
  EXPECT_FALSE(ProfilerRunning());
  StopProfiler();  // idempotent
  EXPECT_FALSE(ProfilerRunning());
  ResetProfile();
}

TEST(ProfilerTest, CapturesSamplesProportionalToCpuBurned) {
  ResetProfile();
  ASSERT_TRUE(StartProfiler(250));
  BurnProcessCpu(std::chrono::milliseconds(400));
  StopProfiler();
  // 250 Hz of process-CPU sampling over 0.4 s of burned CPU: expect a
  // healthy number of samples even on a loaded CI machine. Both the
  // timer and the burn loop run on process CPU time, so a starved
  // process just takes longer to exit the loop — the bound stays safe.
  EXPECT_GE(ProfilerSampleCount(), 20u);
  const std::string collapsed = CollapsedProfile();
  ExpectWellFormedCollapsed(collapsed);
  ResetProfile();
  EXPECT_EQ(ProfilerSampleCount(), 0u);
  EXPECT_TRUE(CollapsedProfile().empty());
}

TEST(ProfilerTest, IdleProcessProducesNoSamples) {
  ResetProfile();
  ASSERT_TRUE(StartProfiler(100));
  // Sleeping burns (almost) no CPU, so the CPU-time timer barely
  // advances: allow a few stray samples from the runtime, not 100/s.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  StopProfiler();
  EXPECT_LE(ProfilerSampleCount(), 5u);
  ResetProfile();
}

TEST(ProfilerTest, ProfileForSecondsStartsAndStops) {
  ResetProfile();
  std::atomic<bool> stop{false};
  std::thread burner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      BurnCpuUntil(std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(10));
    }
  });
  const std::string collapsed = ProfileForSeconds(0.4);
  stop.store(true, std::memory_order_relaxed);
  burner.join();
  EXPECT_FALSE(ProfilerRunning());  // window mode stops the profiler
  ExpectWellFormedCollapsed(collapsed);
  ResetProfile();
}

TEST(ProfilerTest, AlwaysOnModeSurvivesAWindowCapture) {
  ResetProfile();
  ASSERT_TRUE(StartAlwaysOn());
  EXPECT_EQ(ProfilerHz(), kAlwaysOnHz);
  std::atomic<bool> stop{false};
  std::thread burner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      BurnCpuUntil(std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(10));
    }
  });
  (void)ProfileForSeconds(0.2);
  stop.store(true, std::memory_order_relaxed);
  burner.join();
  // The always-on capture is still armed after the window.
  EXPECT_TRUE(ProfilerRunning());
  EXPECT_EQ(ProfilerHz(), kAlwaysOnHz);
  StopProfiler();
  ResetProfile();
}

// The signal-safety stress: SIGPROF lands on threads that are busy
// inside the store's query path (allocating, taking locks, touching
// hash maps). Run under TSan/ASan in tools/run_tsan.sh and CI — any
// malloc-in-handler or data race on the rings surfaces here.
TEST(ProfilerTest, SignalSafeUnderConcurrentQueries) {
  rdf::RdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("p", "p_app", "triple").ok());
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(store
                    .InsertTriple("p", "<urn:s" + std::to_string(i % 64) + ">",
                                  "<urn:p" + std::to_string(i % 7) + ">",
                                  "\"v" + std::to_string(i) + "\"")
                    .ok());
  }

  ResetProfile();
  ASSERT_TRUE(StartProfiler(500));
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      query::MatchOptions options;
      options.limit = 128;
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = query::SdoRdfMatch(&store, nullptr, "(?s ?p ?o)",
                                         {"p"}, {}, {}, "", options);
        if (!result.ok()) return;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  StopProfiler();

  EXPECT_GT(ProfilerSampleCount(), 0u);
  ExpectWellFormedCollapsed(CollapsedProfile());
  ResetProfile();
}

}  // namespace
}  // namespace rdfdb::obs
