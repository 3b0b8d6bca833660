// Parsing-layer tests for the service front door: the JSON value layer
// (escaping, sorted keys, number round-trips, strict parse errors), the
// NDJSON job-spec reader (strict per-key validation, all-or-nothing
// streams), and npbrun's argument parser — including a seeded fuzz-style
// battery that feeds thousands of mutated flag strings through
// parse_npbrun_args and asserts the contract: malformed input is always
// rejected with a message, never crashes, and never yields a half-parsed
// config that would silently run the wrong experiment.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "msg/options.hpp"
#include "npb/registry.hpp"
#include "svc/cli.hpp"
#include "svc/jobspec.hpp"

namespace {

using npb::json::parse;
using npb::json::Value;
using npb::svc::CliOptions;
using npb::svc::parse_job_stream;
using npb::svc::parse_npbrun_args;

// ---------------------------------------------------------------------------
// JSON value layer

TEST(Json, EscapesStringsAndSortsKeys) {
  Value v = Value::object();
  v["zeta"] = "quote \" backslash \\ newline \n tab \t";
  v["alpha"] = 1;
  v["mid"] = Value::object();
  v["mid"]["b"] = true;
  v["mid"]["a"] = nullptr;
  EXPECT_EQ(v.dump(),
            "{\"alpha\":1,\"mid\":{\"a\":null,\"b\":true},"
            "\"zeta\":\"quote \\\" backslash \\\\ newline \\n tab \\t\"}");
}

TEST(Json, ControlCharactersBecomeUnicodeEscapes) {
  std::string out;
  npb::json::append_escaped(out, std::string("\x01\x1f\x7f", 3));
  // 0x7f is not a JSON control character; only 0x00..0x1f are escaped.
  EXPECT_EQ(out, "\\u0001\\u001f\x7f");
}

TEST(Json, NumbersRoundTripBitExactly) {
  const double cases[] = {0.0,       -0.0,     1.0 / 3.0,  -3247.8346520347386,
                          1.0e-300,  1.0e300,  5.0,        123456789.0,
                          0.1,       -0.1,     2.2250738585072014e-308};
  for (const double d : cases) {
    const std::string s = npb::json::number_to_string(d);
    const auto back = parse(s);
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(back->as_double(), d) << s;
  }
  EXPECT_EQ(npb::json::number_to_string(std::nan("")), "null");
  EXPECT_EQ(npb::json::number_to_string(HUGE_VAL), "null");
}

TEST(Json, ParseAcceptsNestedDocument) {
  const auto v = parse(
      R"({"a":[1,2.5,"x",true,null],"b":{"c":"\u0041\n"},"d":-7})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("a")->items().size(), 5u);
  EXPECT_EQ(v->find("a")->items()[1].as_double(), 2.5);
  EXPECT_EQ(v->find("b")->find("c")->as_string(), "A\n");
  EXPECT_EQ(v->find("d")->as_int(), -7);
  EXPECT_EQ(v->find("nope"), nullptr);
}

TEST(Json, ParseRejectsMalformedDocuments) {
  const char* bad[] = {"",       "{",       "[1,]",      "{\"a\":}",
                       "tru",    "01",      "1.2.3",     "\"unterminated",
                       "{}junk", "\"\\q\"", "{\"a\" 1}", "nan"};
  for (const char* s : bad) {
    std::string error;
    EXPECT_FALSE(parse(s, &error).has_value()) << s;
    EXPECT_FALSE(error.empty()) << s;
  }
}

TEST(Json, DumpParseRoundTripIsStable) {
  Value v = Value::object();
  v["name"] = "CG \"quoted\"";
  v["sums"] = Value::array();
  v["sums"].emplace_back(1.0 / 3.0);
  v["sums"].emplace_back(-0.0);
  v["n"] = 42;
  const std::string once = v.dump();
  const auto back = parse(once);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), once);
}

// ---------------------------------------------------------------------------
// NDJSON job specs

TEST(JobSpec, MinimalAndMaximalSpecsParse) {
  std::string error;
  const auto specs = parse_job_stream(
      "{\"benchmark\":\"cg\",\"class\":\"S\",\"threads\":2}\n"
      "# a comment, then a blank line, are both skipped\n"
      "\n"
      "{\"id\":\"big\",\"benchmark\":\"MG\",\"class\":\"S\",\"mode\":\"vec\","
      "\"threads\":3,\"schedule\":\"guided,2\",\"fused\":false,"
      "\"barrier\":\"spin\",\"align\":128,\"first_touch\":true,"
      "\"huge_pages\":false,\"faults\":[\"region:throw:2:1:0\"],"
      "\"watchdog_ms\":50,\"max_retries\":2,\"backoff_ms\":0,"
      "\"no_degrade\":true,\"warmup\":true}\n",
      &error);
  ASSERT_TRUE(specs.has_value()) << error;
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].id, "job-1");  // defaulted from the line number
  EXPECT_EQ((*specs)[0].benchmark, "cg");
  EXPECT_EQ((*specs)[0].cfg.threads, 2);
  const npb::svc::JobSpec& big = (*specs)[1];
  EXPECT_EQ(big.id, "big");
  EXPECT_EQ(big.cfg.mode, npb::Mode::Vec);
  EXPECT_EQ(big.cfg.schedule.kind, npb::Schedule::Kind::Guided);
  EXPECT_FALSE(big.cfg.fused);
  EXPECT_EQ(big.cfg.barrier, npb::BarrierKind::SpinSense);
  EXPECT_EQ(big.cfg.mem.alignment, 128u);
  ASSERT_EQ(big.cfg.fault.specs.size(), 1u);
  EXPECT_EQ(big.cfg.fault.max_retries, 2);
  EXPECT_FALSE(big.cfg.fault.allow_degraded);
}

TEST(JobSpec, StrictRejectionNamesTheProblem) {
  const struct {
    const char* line;
    const char* needle;
  } cases[] = {
      {"{\"class\":\"S\"}", "benchmark"},                      // missing
      {"{\"benchmark\":\"QQ\"}", "QQ"},                        // unknown name
      {"{\"benchmark\":\"cg\",\"turbo\":true}", "turbo"},      // unknown key
      {"{\"benchmark\":\"cg\",\"threads\":\"two\"}", "threads"},  // bad type
      {"{\"benchmark\":\"cg\",\"class\":\"Z\"}", "class"},     // bad value
      {"{\"benchmark\":\"cg\",\"mode\":\"warp\"}", "mode"},
      {"{\"benchmark\":\"cg\",\"mode\":\"msg\"}", "msg"},  // not schedulable
      {"{\"benchmark\":\"cg\",\"schedule\":\"fifo\"}", "schedule"},
      {"{\"benchmark\":\"cg\",\"faults\":[\"oops\"]}", "fault"},
      {"{\"benchmark\":\"cg\",\"threads\":-1}", "threads"},
      {"{\"benchmark\":\"cg\",\"threads\":4294967298}", "threads"},  // no wrap
      {"{\"benchmark\":\"cg\",\"max_retries\":2147483648}", "max_retries"},
      {"{\"benchmark\":\"cg\",\"runtime\":\"fibers\"}", "runtime"},
      {"[\"not an object\"]", "object"},
  };
  for (const auto& c : cases) {
    std::string error;
    const auto specs = parse_job_stream(c.line, &error);
    EXPECT_FALSE(specs.has_value()) << c.line;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << c.line << " -> " << error;
  }
}

TEST(JobSpec, RuntimeKeyAndIrregularBenchmarksParse) {
  std::string error;
  const auto specs = parse_job_stream(
      "{\"benchmark\":\"sort\",\"class\":\"S\",\"threads\":3,"
      "\"runtime\":\"steal\"}\n"
      "{\"benchmark\":\"GETRF\",\"runtime\":\"spmd\"}\n"
      "{\"benchmark\":\"cg\",\"runtime\":\"steal\"}\n",
      &error);
  ASSERT_TRUE(specs.has_value()) << error;
  ASSERT_EQ(specs->size(), 3u);
  EXPECT_EQ((*specs)[0].cfg.runtime, npb::Runtime::Steal);
  EXPECT_EQ((*specs)[1].cfg.runtime, npb::Runtime::Spmd);
  EXPECT_EQ((*specs)[2].cfg.runtime, npb::Runtime::Steal)
      << "regular NPBs accept (and ignore) the steal runtime";
}

TEST(JobSpec, StreamIsAllOrNothingWithLineNumbers) {
  std::string error;
  const auto specs = parse_job_stream(
      "{\"benchmark\":\"cg\"}\n"
      "{\"benchmark\":\"ep\"}\n"
      "{\"benchmark\":\"cg\",\"threads\":\"broken\"}\n",
      &error);
  EXPECT_FALSE(specs.has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// npbrun argument parsing

std::optional<CliOptions> parse_args(const std::vector<std::string>& args,
                                     std::string* error = nullptr) {
  std::vector<const char*> argv{"npbrun"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return parse_npbrun_args(static_cast<int>(argv.size()), argv.data(), error);
}

TEST(Cli, ValidFlagsLandInTheConfig) {
  const auto opts = parse_args({"CG", "--class=S", "--mode=vec", "--threads=3",
                                "--schedule=dynamic,64", "--fused=off",
                                "--barrier=spin", "--mem-align=128",
                                "--first-touch", "--fault-spec=region:throw:2:1:0",
                                "--watchdog-ms=50", "--max-retries=2",
                                "--backoff-ms=0", "--no-degrade", "--verbose"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->action, CliOptions::Action::RunBenchmarks);
  EXPECT_EQ(opts->which, "CG");
  EXPECT_EQ(opts->cfg.mode, npb::Mode::Vec);
  EXPECT_EQ(opts->cfg.threads, 3);
  EXPECT_EQ(opts->cfg.schedule.kind, npb::Schedule::Kind::Dynamic);
  EXPECT_EQ(opts->cfg.schedule.chunk, 64);
  EXPECT_FALSE(opts->cfg.fused);
  EXPECT_EQ(opts->cfg.barrier, npb::BarrierKind::SpinSense);
  EXPECT_EQ(opts->cfg.mem.alignment, 128u);
  ASSERT_EQ(opts->cfg.fault.specs.size(), 1u);
  EXPECT_EQ(opts->cfg.fault.watchdog_ms, 50);
  EXPECT_EQ(opts->cfg.fault.max_retries, 2);
  EXPECT_FALSE(opts->cfg.fault.allow_degraded);
  EXPECT_TRUE(opts->verbose);
}

TEST(Cli, MsgModeFlagsParse) {
  const auto opts = parse_args(
      {"ep", "--mode=msg", "--procs=4", "--threads=2", "--transport=shm"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->cfg.mode, npb::Mode::Msg);
  EXPECT_EQ(opts->cfg.msg.procs, 4);
  EXPECT_EQ(opts->cfg.msg.transport, npb::msg::TransportKind::Shm);
  EXPECT_EQ(opts->cfg.threads, 2);

  // Defaults: one shard over the in-process transport.
  const auto defaults = parse_args({"cg", "--mode=msg"});
  ASSERT_TRUE(defaults.has_value());
  EXPECT_EQ(defaults->cfg.msg.procs, 1);
  EXPECT_EQ(defaults->cfg.msg.transport, npb::msg::TransportKind::InProc);
}

TEST(Cli, RuntimeFlagAndIrregularBenchmarksParse) {
  const auto steal = parse_args({"sort", "--class=S", "--runtime=steal"});
  ASSERT_TRUE(steal.has_value());
  EXPECT_EQ(steal->which, "sort");
  EXPECT_EQ(steal->cfg.runtime, npb::Runtime::Steal);

  const auto spmd = parse_args({"KNN", "--runtime=spmd"});
  ASSERT_TRUE(spmd.has_value());
  EXPECT_EQ(spmd->cfg.runtime, npb::Runtime::Spmd);

  // Default is the SPMD personality; regular NPBs accept both spellings.
  const auto dflt = parse_args({"getrf"});
  ASSERT_TRUE(dflt.has_value());
  EXPECT_EQ(dflt->cfg.runtime, npb::Runtime::Spmd);
  EXPECT_TRUE(parse_args({"CG", "--runtime=steal"}).has_value());
}

TEST(Cli, ServeFlagsParse) {
  const auto opts = parse_args({"--serve=jobs.ndjson", "--pool=1,2,2,3",
                                "--queue-cap=8", "--service-report=out.json"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->action, CliOptions::Action::Serve);
  EXPECT_EQ(opts->serve_input, "jobs.ndjson");
  EXPECT_EQ(opts->pool_widths, (std::vector<int>{1, 2, 2, 3}));
  EXPECT_EQ(opts->queue_capacity, 8u);
  EXPECT_EQ(opts->service_report, "out.json");

  const auto stdin_mode = parse_args({"--serve"});
  ASSERT_TRUE(stdin_mode.has_value());
  EXPECT_TRUE(stdin_mode->serve_input.empty());
}

TEST(Cli, CkptFlagsParse) {
  const auto opts =
      parse_args({"CG", "--threads=2", "--ckpt-dir=ck", "--ckpt-every=3"});
  ASSERT_TRUE(opts.has_value());
  EXPECT_EQ(opts->cfg.ckpt.dir, "ck");
  EXPECT_EQ(opts->cfg.ckpt.every, 3);
  EXPECT_FALSE(opts->cfg.ckpt.resume);

  const auto resume =
      parse_args({"CG", "--threads=2", "--ckpt-dir=ck", "--resume"});
  ASSERT_TRUE(resume.has_value());
  EXPECT_TRUE(resume->cfg.ckpt.resume);
  EXPECT_TRUE(resume->cfg.ckpt.resume_path.empty());

  // --resume=PATH needs no --ckpt-dir: the explicit file is the load side.
  const auto from_path =
      parse_args({"CG", "--threads=2", "--resume=ck/CG-S.ckpt"});
  ASSERT_TRUE(from_path.has_value());
  EXPECT_TRUE(from_path->cfg.ckpt.resume);
  EXPECT_EQ(from_path->cfg.ckpt.resume_path, "ck/CG-S.ckpt");
}

TEST(Cli, ExitCodeTaxonomyIsPinned) {
  // External contract: README table, CI scripts, and wrappers key off these.
  EXPECT_EQ(npb::svc::kExitOk, 0);
  EXPECT_EQ(npb::svc::kExitVerifyFailed, 1);
  EXPECT_EQ(npb::svc::kExitUsage, 2);
  EXPECT_EQ(npb::svc::kExitUnrecoverable, 3);
  EXPECT_EQ(npb::svc::kExitInterrupted, 4);
}

TEST(Cli, CommaSeparatedFaultSpecsParseStrictly) {
  const auto opts = parse_args(
      {"CG", "--fault-spec=region:throw:2:1:0,barrier:delay(5):*:0:0",
       "--fault-spec=reduce:nan-poison:*:0:0"});
  ASSERT_TRUE(opts.has_value());
  ASSERT_EQ(opts->cfg.fault.specs.size(), 3u);
  EXPECT_EQ(opts->cfg.fault.specs[0].site, npb::fault::Site::Region);
  EXPECT_EQ(opts->cfg.fault.specs[1].site, npb::fault::Site::Barrier);
  EXPECT_EQ(opts->cfg.fault.specs[2].site, npb::fault::Site::Reduce);

  // One bad token poisons the whole flag: trailing comma, empty element,
  // or a malformed spec anywhere in the list.
  EXPECT_FALSE(parse_args({"CG", "--fault-spec=region:throw:2:1:0,"}));
  EXPECT_FALSE(parse_args({"CG", "--fault-spec=,region:throw:2:1:0"}));
  EXPECT_FALSE(parse_args({"CG", "--fault-spec=region:throw:2:1:0,bogus"}));
}

TEST(Cli, MalformedFlagsAreRejectedWithAMessage) {
  const std::vector<std::vector<std::string>> bad = {
      {"QQ"},                                  // unknown benchmark
      {"CG", "--class=Z"},                     // bad class
      {"CG", "--mode=warp"},                   // bad mode
      {"CG", "--threads=two"},                 // non-numeric
      {"CG", "--threads="},                    // empty value
      {"CG", "--threads=99999999999"},         // overlong digits
      {"CG", "--schedule=fifo"},               // bad schedule
      {"CG", "--fused=maybe"},                 // bad tristate
      {"CG", "--fault-spec=region:throw"},     // truncated fault spec
      {"CG", "--mem-align=3"},                 // not a power of two
      {"CG", "--frobnicate"},                  // unknown flag
      {"CG", "--barrier=turnstile"},           // bad barrier
      {"CG", "--procs=2"},                     // --procs without --mode=msg
      {"EP", "--transport=shm"},               // --transport without --mode=msg
      {"EP", "--mode=msg", "--procs=0"},       // shard count below 1
      {"EP", "--mode=msg", "--procs=17"},      // shard count over the shm cap
      {"EP", "--mode=msg", "--transport=tcp"}, // unknown transport
      {"BT", "--mode=msg"},                    // benchmark without a msg driver
      {"--serve", "--pool=1,x"},               // bad pool width
      {"--serve", "--pool="},                  // empty pool
      {"--serve", "--pool=64"},                // width over the cap
      {"CG", "--runtime=fibers"},              // unknown runtime
      {"CG", "--runtime="},                    // empty runtime
      {"EP", "--mode=msg", "--runtime=steal"}, // no task runtime under msg
      {"SORT", "--mode=msg"},                  // irr has no msg driver
      {"--serve", "--queue-cap=0"},            // below minimum
      {"--serve", "--threads=2"},              // run flag in serve mode
      {"CG", "--ckpt-dir="},                   // empty checkpoint dir
      {"CG", "--ckpt-every=2"},                // cadence without a dir
      {"CG", "--threads=2", "--ckpt-dir=ck", "--ckpt-every=0"},  // cadence < 1
      {"CG", "--threads=2", "--resume"},       // resume with nothing to load
      {"CG", "--resume="},                     // empty resume path
      {"CG", "--ckpt-dir=ck"},                 // ckpt on the serial path
      {"EP", "--mode=msg", "--threads=1", "--ckpt-dir=ck"},  // ckpt under msg
      {"SORT", "--threads=2", "--ckpt-dir=ck"},  // ckpt on irregular workload
      {"all", "--threads=2", "--ckpt-dir=ck", "--resume"},  // resume needs one
      {"CG", "--fault-spec=ckpt:throw:*:0:0"},   // ckpt site is corrupt-only
      {"CG", "--fault-spec=*:corrupt:*:0:0"},    // corrupt needs a named site
      {"CG", "--mode=msg", "--watchdog-ms=50"},  // shards have no watchdog
  };
  for (const auto& args : bad) {
    std::string error;
    const auto opts = parse_args(args, &error);
    EXPECT_FALSE(opts.has_value()) << args[0];
    EXPECT_FALSE(error.empty()) << args[0];
  }
}

// The fuzz battery: deterministic PRNG, no time or global entropy, so a
// failure reproduces from the printed iteration seed alone.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

std::string mutate(std::string s, std::uint64_t& state) {
  const int op = static_cast<int>(next_rand(state) % 5);
  switch (op) {
    case 0:  // truncate
      if (!s.empty()) s.resize(next_rand(state) % s.size());
      break;
    case 1:  // flip one byte to arbitrary garbage (NUL excluded: argv strings)
      if (!s.empty()) {
        char c = static_cast<char>(1 + next_rand(state) % 255);
        s[next_rand(state) % s.size()] = c;
      }
      break;
    case 2:  // duplicate the tail after '='
      s += s.substr(s.find('=') == std::string::npos ? 0 : s.find('='));
      break;
    case 3:  // inject a high-bit/UTF-8-ish byte
      s.insert(next_rand(state) % (s.size() + 1), 1,
               static_cast<char>(0x80 + next_rand(state) % 0x7f));
      break;
    default:  // blank the value entirely
      if (const auto eq = s.find('='); eq != std::string::npos)
        s.resize(eq + 1);
      break;
  }
  return s;
}

TEST(CliFuzz, MutatedFlagsNeverCrashAndNeverHalfParse) {
  const std::vector<std::string> seeds = {
      "--class=S",        "--mode=native",  "--threads=2",
      "--schedule=guided,2", "--fused=on",  "--barrier=spin",
      "--runtime=steal",
      "--mem-align=64",   "--fault-spec=region:throw:2:1:0",
      "--watchdog-ms=10", "--max-retries=3", "--backoff-ms=1",
      "--obs-report=o.json", "--serve=jobs", "--pool=1,2,3",
      "--queue-cap=4",    "--service-report=s.json",
      "--ckpt-dir=ck",    "--ckpt-every=2",  "--resume=ck/CG-S.ckpt",
      "--fault-spec=ckpt:corrupt:*:0:0,proc:kill:*:1:0",
  };
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    // 1-3 flags, each independently mutated, behind a valid or serve head.
    std::vector<std::string> args;
    if (next_rand(state) % 4 == 0) args.push_back("--serve");
    else args.push_back(next_rand(state) % 2 == 0 ? "CG" : "EP");
    const int nflags = 1 + static_cast<int>(next_rand(state) % 3);
    for (int i = 0; i < nflags; ++i)
      args.push_back(
          mutate(seeds[next_rand(state) % seeds.size()], state));

    std::string error;
    const auto opts = parse_args(args, &error);
    if (!opts.has_value()) {
      ++rejected;
      EXPECT_FALSE(error.empty())
          << "iter " << iter << ": rejected without a message";
      continue;
    }
    // Accepted mutants must be fully coherent — every accepted config is one
    // npbrun would genuinely run (benchmark known, mode/class in range).
    if (opts->action == CliOptions::Action::RunBenchmarks) {
      EXPECT_TRUE(opts->which == "all" || opts->which == "ALL" ||
                  npb::find_benchmark(opts->which) != nullptr)
          << "iter " << iter;
      EXPECT_GE(opts->cfg.threads, 0) << "iter " << iter;
    } else {
      EXPECT_FALSE(opts->pool_widths.empty()) << "iter " << iter;
      EXPECT_GE(opts->queue_capacity, 1u) << "iter " << iter;
    }
  }
  // The battery must actually exercise the rejection path, not accidentally
  // generate only valid flags.
  EXPECT_GT(rejected, 1000);
}

TEST(CliFuzz, MutatedJobSpecLinesNeverCrashTheStreamParser) {
  const std::string seed_line =
      "{\"id\":\"j\",\"benchmark\":\"cg\",\"class\":\"S\",\"threads\":2,"
      "\"schedule\":\"dynamic,8\",\"faults\":[\"region:throw:2:1:0\"]}";
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string line = seed_line;
    const int edits = 1 + static_cast<int>(next_rand(state) % 3);
    for (int i = 0; i < edits; ++i) line = mutate(line, state);
    std::string error;
    const auto specs = parse_job_stream(line, &error);
    if (!specs.has_value()) {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "iter " << iter;
    } else if (!specs->empty()) {
      EXPECT_NE(npb::find_benchmark((*specs)[0].benchmark), nullptr)
          << "iter " << iter;
    }
  }
  EXPECT_GT(rejected, 1000);
}

}  // namespace
