// MPIOFF_SAN unit tests: spec parsing, the fiber-aware race detector on a
// raw sim::Engine, reporter semantics (dedupe, cap, fail mode), stats
// counters, and determinism of report streams.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "san/san.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace {

/// Scoped sanitizer session for tests that drive the hooks manually (the
/// Cluster runner owns the session in production code).
struct Session {
  explicit Session(const std::string& spec) { san::begin_session(spec); }
  ~Session() { san::end_session(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
};

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

}  // namespace

// ------------------------------------------------------------ spec parsing --

TEST(SanSpec, EmptyAndZeroDisable) {
  EXPECT_FALSE(san::Options::parse("").enabled);
  EXPECT_FALSE(san::Options::parse("0").enabled);
}

TEST(SanSpec, BareOneEnablesEverythingReportOnly) {
  const san::Options o = san::Options::parse("1");
  EXPECT_TRUE(o.enabled);
  EXPECT_TRUE(o.race);
  EXPECT_TRUE(o.usage);
  EXPECT_FALSE(o.fail);
  EXPECT_EQ(o.max_reports, 64u);
}

TEST(SanSpec, KeysOverrideDefaults) {
  const san::Options o = san::Options::parse("1,race:0,usage:1,fail:1,max_reports:16");
  EXPECT_TRUE(o.enabled);
  EXPECT_FALSE(o.race);
  EXPECT_TRUE(o.usage);
  EXPECT_TRUE(o.fail);
  EXPECT_EQ(o.max_reports, 16u);
}

TEST(SanSpec, BadLeadTokenNamesTheRule) {
  try {
    (void)san::Options::parse("yes");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(contains(e.what(), "must start with '1'")) << e.what();
  }
}

TEST(SanSpec, UnknownKeyNamesTheVocabulary) {
  try {
    (void)san::Options::parse("1,zap:1");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(contains(e.what(), "unknown key 'zap'")) << e.what();
    EXPECT_TRUE(contains(e.what(), "race, usage, fail, max_reports")) << e.what();
  }
}

TEST(SanSpec, DuplicateKeyThrows) {
  try {
    (void)san::Options::parse("1,race:1,race:0");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(contains(e.what(), "duplicate key 'race'")) << e.what();
  }
}

TEST(SanSpec, MalformedTokenThrows) {
  EXPECT_THROW((void)san::Options::parse("1,race"), std::invalid_argument);
  EXPECT_THROW((void)san::Options::parse("1,:1"), std::invalid_argument);
  EXPECT_THROW((void)san::Options::parse("1,race:"), std::invalid_argument);
}

TEST(SanSpec, ZeroTakesNoKeys) {
  EXPECT_THROW((void)san::Options::parse("0,race:1"), std::invalid_argument);
}

TEST(SanSpec, BoolAndCountValuesValidated) {
  EXPECT_THROW((void)san::Options::parse("1,fail:2"), std::invalid_argument);
  EXPECT_THROW((void)san::Options::parse("1,max_reports:0"), std::invalid_argument);
  EXPECT_THROW((void)san::Options::parse("1,max_reports:lots"), std::invalid_argument);
}

// ---------------------------------------------------------- session gating --

TEST(SanSession, FlagsFollowTheSpec) {
  EXPECT_FALSE(san::on());
  EXPECT_FALSE(san::begin_session("0"));
  EXPECT_FALSE(san::on());
  {
    Session s("1,race:0");
    EXPECT_TRUE(san::on());
    EXPECT_FALSE(san::race_on());
    EXPECT_TRUE(san::usage_on());
  }
  EXPECT_FALSE(san::on());
}

TEST(SanSession, NestedSessionsJoinTheOuterOne) {
  Session outer("1");
  EXPECT_TRUE(san::begin_session("1,race:0"));  // nested: joins, no reset
  EXPECT_TRUE(san::race_on());                  // outer options still rule
  san::end_session();
  EXPECT_TRUE(san::on());  // outer session survives the nested close
}

// ------------------------------------------------------------ race detector --

namespace {

/// Two fibers write the same field with no synchronization edge between
/// them. Returns the report stream ("kind: message" per report).
std::vector<std::string> run_racy_engine() {
  Session s("1,usage:0");
  int x = 0;
  sim::Engine e;
  e.spawn("writer-a", [&] {
    sim::advance(sim::Time::from_us(1));
    x = 1;
    san::check_write(&x, sizeof(x), "test.racy-x");
  });
  e.spawn("writer-b", [&] {
    sim::advance(sim::Time::from_us(2));
    x = 2;
    san::check_write(&x, sizeof(x), "test.racy-x");
  });
  e.run();
  std::vector<std::string> out;
  for (const san::Report& r : san::reports()) out.push_back(r.kind + ": " + r.message);
  return out;
}

}  // namespace

TEST(SanRace, UnsyncedFiberWritesAreReported) {
  const std::vector<std::string> reps = run_racy_engine();
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_TRUE(contains(reps[0], "race: ")) << reps[0];
  EXPECT_TRUE(contains(reps[0], "test.racy-x")) << reps[0];
  EXPECT_TRUE(contains(reps[0], "writer-a")) << reps[0];
  EXPECT_TRUE(contains(reps[0], "writer-b")) << reps[0];
  EXPECT_TRUE(contains(reps[0], "no happens-before")) << reps[0];
}

TEST(SanRace, NotifierSignalOrdersTheAccesses) {
  Session s("1,usage:0");
  int x = 0;
  sim::Engine e;
  sim::Notifier n;
  e.spawn("producer", [&] {
    sim::advance(sim::Time::from_us(1));
    x = 1;
    san::check_write(&x, sizeof(x), "test.synced-x");
    n.signal();
  });
  e.spawn("consumer", [&] {
    n.wait_beyond(0);  // blocks until the producer's signal (wake edge)
    x = 2;
    san::check_write(&x, sizeof(x), "test.synced-x");
  });
  e.run();
  EXPECT_EQ(san::count("race"), 0u) << san::reports().front().message;
}

TEST(SanRace, ForkEdgeOrdersParentWritesBeforeChild) {
  Session s("1,usage:0");
  int x = 0;
  sim::Engine e;
  e.spawn("parent", [&] {
    x = 1;
    san::check_write(&x, sizeof(x), "test.fork-x");
    // The spawn itself is the HB edge: the child starts with our history.
    sim::Engine::current()->spawn("child", [&] {
      x = 2;
      san::check_write(&x, sizeof(x), "test.fork-x");
    });
  });
  e.run();
  EXPECT_EQ(san::count("race"), 0u);
}

TEST(SanRace, ReportStreamIsDeterministic) {
  const std::vector<std::string> a = run_racy_engine();
  const std::vector<std::string> b = run_racy_engine();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// --------------------------------------------------------------- reporter --

TEST(SanReporter, DedupesRepeatsAndCapsStoredReports) {
  std::vector<char> buf(32, 'x');
  Session s("1,race:0,max_reports:1");
  san::mpi_post_recv(0, 1, buf.data(), buf.size());
  san::check_read(buf.data(), 4, "cap.site-a");
  san::check_read(buf.data(), 4, "cap.site-a");  // identical message: deduped
  san::check_read(buf.data(), 4, "cap.site-b");  // distinct: counted, not stored
  EXPECT_EQ(san::reports().size(), 1u);          // cap
  EXPECT_EQ(san::stats().reports, 2u);           // dedupe counted once each
  EXPECT_EQ(san::count("read-inflight-recv"), 1u);
}

TEST(SanReporter, FailModeThrowsSanErrorWhichIsLogicError) {
  std::vector<char> buf(16, 'x');
  Session s("1,race:0,fail:1");
  san::mpi_post_recv(0, 1, buf.data(), buf.size());
  try {
    san::check_read(buf.data(), 4, "fail.site");
    FAIL() << "expected san::Error";
  } catch (const std::logic_error& e) {  // Error derives std::logic_error
    EXPECT_TRUE(contains(e.what(), "read-inflight-recv")) << e.what();
  }
}

TEST(SanReporter, EngineBlockMessageNamesTheCall) {
  const std::string m = san::engine_block_message("Test::wait");
  EXPECT_TRUE(contains(m, "blocking wait in offload-engine context (Test::wait)")) << m;
}

// ------------------------------------------------------------------- stats --

TEST(SanStats, CountersTrackTheWorkDone) {
  std::vector<char> buf(64, 'x');
  {
    Session s("1");
    san::mpi_post_send(0, 1, buf.data(), buf.size());  // register + checksum
    san::check_read(buf.data(), 8, "stats.read");      // reading a send buffer is legal
    san::mpi_complete(0, 1);                           // checksum verify
  }
  // Stats survive end_session() so the [stats] trailer can print them.
  const san::Stats& st = san::stats();
  EXPECT_EQ(st.buffer_regs, 1u);
  EXPECT_EQ(st.checksums, 2u);
  EXPECT_EQ(st.race_checks, 1u);
  EXPECT_EQ(st.reports, 0u);
}
