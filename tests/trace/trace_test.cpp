// Trace record / serialise / replay, including the replay-equivalence
// property: a recorded benchmark simulates bit-identically to the original.
#include <gtest/gtest.h>

#include <sstream>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_workload.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

Trace tiny_trace() {
  Trace t;
  t.name = "tiny";
  t.footprint_pages = 100;
  t.pattern = PatternType::kThrashing;
  t.streams.resize(2);
  t.streams[0].global_warp_index = 0;
  t.streams[0].accesses = {{1, 10}, {2, 20}, {1, 30}};
  t.streams[1].global_warp_index = 1;
  t.streams[1].accesses = {{99, 5}};
  return t;
}

TEST(TraceIo, RoundTripsThroughStream) {
  const Trace t = tiny_trace();
  std::stringstream ss;
  write_trace(ss, t);
  const Trace r = read_trace(ss);
  EXPECT_EQ(r.name, "tiny");
  EXPECT_EQ(r.footprint_pages, 100u);
  EXPECT_EQ(r.pattern, PatternType::kThrashing);
  ASSERT_EQ(r.streams.size(), 2u);
  ASSERT_EQ(r.streams[0].accesses.size(), 3u);
  EXPECT_EQ(r.streams[0].accesses[1].page, 2u);
  EXPECT_EQ(r.streams[0].accesses[1].think, 20u);
  EXPECT_EQ(r.streams[1].accesses[0].page, 99u);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "definitely not a trace file";
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsTruncation) {
  const Trace t = tiny_trace();
  std::stringstream ss;
  write_trace(ss, t);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream half(bytes);
  EXPECT_THROW((void)read_trace(half), std::runtime_error);

  // A 38-byte file whose one stream claims 2^60 accesses: the count is
  // truncation to report, not a size to allocate.
  Trace one;
  one.footprint_pages = 1;
  one.streams.resize(1);
  std::stringstream header;
  write_trace(header, one);
  std::string claim = header.str();
  ASSERT_EQ(claim.size(), 38u);
  claim.back() = '\x10';  // the little-endian count's top byte: 2^60
  std::stringstream huge(claim);
  EXPECT_THROW((void)read_trace(huge), std::runtime_error);
}

TEST(TraceIo, RejectsOutOfFootprintAccess) {
  Trace t = tiny_trace();
  t.streams[0].accesses.push_back({1000, 1});  // footprint is 100
  std::stringstream ss;
  write_trace(ss, t);
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/uvmsim_trace_test.trc";
  save_trace(path, tiny_trace());
  const Trace r = load_trace(path);
  EXPECT_EQ(r.streams.size(), 2u);
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_trace("/nonexistent/dir/x.trc"), std::runtime_error);
}

TEST(TraceRecord, CapturesAllWarpStreams) {
  const auto wl = make_benchmark("STN");
  const Trace t = record_trace(*wl, /*total_warps=*/16, /*seed=*/42);
  EXPECT_EQ(t.streams.size(), 16u);
  EXPECT_EQ(t.footprint_pages, wl->footprint_pages());
  u64 total = 0;
  for (const auto& s : t.streams) total += s.accesses.size();
  EXPECT_GT(total, 0u);
}

TEST(TraceWorkloadTest, ReplaysRecordedAccesses) {
  const Trace t = tiny_trace();
  TraceWorkload wl{Trace(t)};
  auto s0 = wl.make_stream({0, 2, 999});  // seed irrelevant for replay
  Access a;
  ASSERT_TRUE(s0->next(a));
  EXPECT_EQ(a.page, 1u);
  EXPECT_EQ(a.think, 10u);
  ASSERT_TRUE(s0->next(a));
  ASSERT_TRUE(s0->next(a));
  EXPECT_FALSE(s0->next(a));
}

TEST(TraceWorkloadTest, WarpWithoutStreamIsEmpty) {
  TraceWorkload wl{tiny_trace()};
  auto s = wl.make_stream({7, 8, 0});
  Access a;
  EXPECT_FALSE(s->next(a));
}

TEST(TextTrace, ParsesHeaderAndAccesses) {
  std::stringstream ss;
  ss << "# name: mykernel\n# pattern: 4\n# footprint_pages: 50\n"
     << "0 1 10\n0 2\n3 49 77\n";
  const Trace t = read_text_trace(ss);
  EXPECT_EQ(t.name, "mykernel");
  EXPECT_EQ(t.pattern, PatternType::kThrashing);
  EXPECT_EQ(t.footprint_pages, 50u);
  ASSERT_EQ(t.streams.size(), 2u);  // warps 0 and 3
  EXPECT_EQ(t.streams[0].accesses.size(), 2u);
  EXPECT_EQ(t.streams[0].accesses[1].think, 100u);  // default think
  EXPECT_EQ(t.streams[1].global_warp_index, 3u);
  EXPECT_EQ(t.streams[1].accesses[0].think, 77u);
}

TEST(TextTrace, InfersFootprintWhenAbsent) {
  std::stringstream ss;
  ss << "0 10\n1 99\n";
  EXPECT_EQ(read_text_trace(ss).footprint_pages, 100u);
}

TEST(TextTrace, RejectsGarbageAndEmpty) {
  std::stringstream bad;
  bad << "0 not-a-page\n";
  EXPECT_THROW((void)read_text_trace(bad), std::runtime_error);
  std::stringstream empty;
  EXPECT_THROW((void)read_text_trace(empty), std::runtime_error);
}

TEST(TextTrace, RejectsAccessOutsideDeclaredFootprint) {
  std::stringstream ss;
  ss << "# footprint_pages: 5\n0 9\n";
  EXPECT_THROW((void)read_text_trace(ss), std::runtime_error);
}

TEST(TextTrace, RoundTripsThroughTextForm) {
  for (const char* name : {"tiny", "hot spot"}) {  // a name may hold a space
    Trace original = tiny_trace();
    original.name = name;
    std::stringstream ss;
    write_text_trace(ss, original);
    const Trace back = read_text_trace(ss);
    EXPECT_EQ(back.name, original.name);
    EXPECT_EQ(back.footprint_pages, original.footprint_pages);
    EXPECT_EQ(back.pattern, original.pattern);
    ASSERT_EQ(back.streams.size(), original.streams.size());
    for (std::size_t i = 0; i < back.streams.size(); ++i) {
      ASSERT_EQ(back.streams[i].accesses.size(), original.streams[i].accesses.size());
      for (std::size_t j = 0; j < back.streams[i].accesses.size(); ++j) {
        EXPECT_EQ(back.streams[i].accesses[j].page,
                  original.streams[i].accesses[j].page);
        EXPECT_EQ(back.streams[i].accesses[j].think,
                  original.streams[i].accesses[j].think);
      }
    }
  }
}

// The headline property: record -> replay produces a bit-identical run.
TEST(TraceWorkloadTest, ReplayEquivalence) {
  SystemConfig sys;
  sys.num_sms = 4;  // keep the recording small
  const PolicyConfig pol = presets::cppe();

  const auto original = make_benchmark("NW");
  UvmSystem direct(sys, pol, *original, 0.5);
  const RunResult a = direct.run();

  const Trace t =
      record_trace(*original, sys.num_sms * sys.warps_per_sm, pol.seed);
  TraceWorkload replay{Trace(t)};
  UvmSystem traced(sys, pol, replay, 0.5);
  const RunResult b = traced.run();

  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.driver.page_faults, b.driver.page_faults);
  EXPECT_EQ(a.driver.pages_migrated_in, b.driver.pages_migrated_in);
  EXPECT_EQ(a.driver.pages_evicted, b.driver.pages_evicted);
  EXPECT_EQ(a.gpu.accesses, b.gpu.accesses);
}

}  // namespace
}  // namespace uvmsim
