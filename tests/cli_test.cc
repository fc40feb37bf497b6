// The flag tables of agsc_train, agsc_serve and agsc_worker (tools/cli.h),
// parsed in-process: every entry's bounds and the message each kind of bad
// value gets, --help and --version, the rules over several flags, and the
// CLI defaults that differ from the config structs'.

#include "tools/cli.h"

#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/exit_codes.h"

namespace agsc::cli {
namespace {

enum class Binary { kTrain, kServe, kWorker };

struct Outcome {
  std::optional<int> exit;
  std::string out;
  std::string err;
  /// The first line of `err`: the reason a command line was refused.
  std::string Reason() const { return err.substr(0, err.find('\n')); }
};

Outcome ParseWith(FlagTable table, const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out;
  std::ostringstream err;
  Outcome outcome;
  outcome.exit = table.Parse(static_cast<int>(argv.size()), argv.data(), out, err);
  outcome.out = out.str();
  outcome.err = err.str();
  return outcome;
}

Outcome Cli(Binary binary, const std::vector<std::string>& args) {
  switch (binary) {
    case Binary::kTrain: {
      TrainArgs a;
      return ParseWith(TrainFlags(a), args);
    }
    case Binary::kServe: {
      ServeArgs a;
      return ParseWith(ServeFlags(a), args);
    }
    case Binary::kWorker:
      break;
  }
  WorkerArgs a;
  return ParseWith(WorkerFlags(a), args);
}

/// The entries of a binary's table. Their `set` targets are gone; only the
/// descriptions are read.
std::vector<Flag> Entries(Binary binary) {
  TrainArgs train;
  ServeArgs serve;
  WorkerArgs worker;
  switch (binary) {
    case Binary::kTrain:
      return TrainFlags(train).flags();
    case Binary::kServe:
      return ServeFlags(serve).flags();
    case Binary::kWorker:
      break;
  }
  return WorkerFlags(worker).flags();
}

/// Flags a command line needs beside `flag` for the binary's rules to hold.
std::vector<std::string> Companions(Binary binary, const std::string& flag) {
  static const std::map<std::string, std::vector<std::string>> train = {
      {"--resume", {"--checkpoint-dir", "ckpts"}},
      {"--checkpoint-every", {"--checkpoint-dir", "ckpts"}},
      {"--worker-binary", {"--proc-workers", "1"}},
      {"--remote-workers", {"--listen", "127.0.0.1:0"}},
      {"--listen", {"--remote-workers", "1"}},
      {"--port-file", {"--listen", "127.0.0.1:0", "--remote-workers", "1"}},
  };
  static const std::map<std::string, std::vector<std::string>> serve = {
      {"--watch", {"--snapshot-dir", "ckpts"}},
      {"--requests", {"--duration-sec", "1"}},
      {"--port-file", {"--listen", "127.0.0.1:0"}},
  };
  std::vector<std::string> args;
  if (binary == Binary::kServe) args = {"--snapshot", "policy.agsc"};
  const auto& extra = binary == Binary::kTrain ? train : serve;
  if (binary != Binary::kWorker && extra.contains(flag)) {
    const std::vector<std::string>& more = extra.at(flag);
    args.insert(args.end(), more.begin(), more.end());
  }
  return args;
}

std::string Exact(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

/// How today's messages word a kind's accepted values, built apart from the
/// table's own wording.
std::string Expected(const Flag& flag) {
  std::ostringstream out;
  switch (flag.kind) {
    case Flag::Kind::kInt:
      out << "integer in [" << static_cast<long long>(flag.lo) << ", "
          << static_cast<long long>(flag.hi) << "]";
      break;
    case Flag::Kind::kDouble:
      out << "number in [" << flag.lo << ", " << flag.hi << "]";
      break;
    case Flag::Kind::kUint64:
      out << "unsigned integer";
      break;
    case Flag::Kind::kChoice:
      for (size_t i = 0; i < flag.choices.size(); ++i) {
        out << (i == 0 ? "" : "|") << flag.choices[i];
      }
      break;
    default:
      break;
  }
  return out.str();
}

/// Values the entry accepts and values it refuses.
void Values(const Flag& flag, std::vector<std::string>& good,
            std::vector<std::string>& bad) {
  switch (flag.kind) {
    case Flag::Kind::kInt: {
      const auto lo = static_cast<long long>(flag.lo);
      const auto hi = static_cast<long long>(flag.hi);
      good = {std::to_string(lo), std::to_string(hi)};
      bad = {std::to_string(lo - 1), std::to_string(hi + 1), "12abc", ""};
      break;
    }
    case Flag::Kind::kDouble:
      good = {Exact(flag.lo), Exact(flag.hi)};
      bad = {Exact(flag.lo - 1), Exact(flag.hi + 1), "nan", "12abc", ""};
      break;
    case Flag::Kind::kUint64:
      good = {"0", "18446744073709551615"};
      bad = {"-1", "18446744073709551616", "12abc", ""};
      break;
    case Flag::Kind::kChoice:
      good = flag.choices;
      bad = {"12abc", ""};
      break;
    case Flag::Kind::kText:
      // Any text goes; an empty one reads as the flag not given.
      good = {"value", "12abc"};
      break;
    default:
      break;
  }
}

const Binary kBinaries[] = {Binary::kTrain, Binary::kServe, Binary::kWorker};

TEST(CliTest, EveryEntryTakesItsBoundsAndRefusesWhatIsOutside) {
  for (const Binary binary : kBinaries) {
    for (const Flag& flag : Entries(binary)) {
      if (flag.kind == Flag::Kind::kHelp || flag.kind == Flag::Kind::kVersion) {
        continue;
      }
      const std::vector<std::string> base = Companions(binary, flag.name);
      std::vector<std::string> good;
      std::vector<std::string> bad;
      Values(flag, good, bad);
      if (flag.kind == Flag::Kind::kSwitch) good = {""};
      for (const std::string& value : good) {
        std::vector<std::string> args = base;
        args.push_back(flag.name);
        if (flag.kind != Flag::Kind::kSwitch) args.push_back(value);
        const Outcome o = Cli(binary, args);
        EXPECT_FALSE(o.exit.has_value()) << flag.name << " '" << value << "': "
                                         << o.Reason();
      }
      for (const std::string& value : bad) {
        std::vector<std::string> args = base;
        args.insert(args.end(), {flag.name, value});
        const Outcome o = Cli(binary, args);
        EXPECT_EQ(o.exit, util::kExitUsage) << flag.name << " '" << value << "'";
        EXPECT_EQ(o.Reason(), "invalid value for " + flag.name + ": '" + value +
                                  "' (expected " + Expected(flag) + ")");
        EXPECT_EQ(o.out, "");
      }
      if (flag.kind != Flag::Kind::kSwitch) {
        std::vector<std::string> args = base;
        args.push_back(flag.name);
        const Outcome o = Cli(binary, args);
        EXPECT_EQ(o.exit, util::kExitUsage) << flag.name;
        EXPECT_EQ(o.Reason(), "missing value for " + flag.name);
        EXPECT_EQ(o.out, "");
      }
    }
  }
}

TEST(CliTest, MessagesKeepTheirWording) {
  EXPECT_EQ(Cli(Binary::kTrain, {"--iterations", "abc"}).Reason(),
            "invalid value for --iterations: 'abc' (expected integer in [0, "
            "1000000000])");
  EXPECT_EQ(Cli(Binary::kTrain, {"--height", "x"}).Reason(),
            "invalid value for --height: 'x' (expected number in [1e-06, 1e+06])");
  EXPECT_EQ(Cli(Binary::kTrain, {"--seed", "-5"}).Reason(),
            "invalid value for --seed: '-5' (expected unsigned integer)");
  EXPECT_EQ(Cli(Binary::kTrain, {"--campus", "x"}).Reason(),
            "invalid value for --campus: 'x' (expected purdue|ncsu)");
  EXPECT_EQ(Cli(Binary::kServe, {"--medium", "x"}).Reason(),
            "invalid value for --medium: 'x' (expected noma|tdma|ofdma)");
  EXPECT_EQ(Cli(Binary::kServe, {"--snapshot", "f", "--admission", "2"}).Reason(),
            "invalid value for --admission: '2' (expected integer in [0, 1])");
  EXPECT_EQ(Cli(Binary::kWorker, {"--worker-id", "-1"}).Reason(),
            "invalid value for --worker-id: '-1' (expected integer in [0, "
            "1048576])");
  EXPECT_EQ(Cli(Binary::kTrain, {"--pois"}).Reason(), "missing value for --pois");
}

TEST(CliTest, UnknownFlagIsRefused) {
  for (const Binary binary : kBinaries) {
    const Outcome o = Cli(binary, {"--no-such-flag"});
    EXPECT_EQ(o.exit, util::kExitUsage);
    EXPECT_EQ(o.Reason(), "unknown flag: --no-such-flag");
    EXPECT_EQ(o.out, "");
    // The help follows the reason on stderr.
    EXPECT_NE(o.err.find("usage: "), std::string::npos);
  }
}

TEST(CliTest, HelpNamesEveryEntry) {
  for (const Binary binary : kBinaries) {
    for (const std::string spelling : {"--help", "-h"}) {
      const Outcome o = Cli(binary, {spelling, "--no-such-flag"});
      EXPECT_EQ(o.exit, util::kExitOk);
      EXPECT_EQ(o.err, "");
      for (const Flag& flag : Entries(binary)) {
        std::string line = flag.name;
        if (!flag.alias.empty()) line += ", " + flag.alias;
        if (!flag.metavar.empty()) line += " " + flag.metavar;
        EXPECT_NE(o.out.find("  " + line + " "), std::string::npos) << line;
        EXPECT_NE(o.out.find(flag.help), std::string::npos) << flag.name;
      }
    }
  }
}

TEST(CliTest, VersionPrintsTheBuildAndSkipsTheRules) {
  const char* names[] = {"agsc_train ", "agsc_serve ", "agsc_worker "};
  for (const Binary binary : kBinaries) {
    for (const std::string spelling : {"--version", "--build-info"}) {
      // --version answers before any rule: agsc_serve needs no snapshot.
      const Outcome o = Cli(binary, {spelling});
      EXPECT_EQ(o.exit, util::kExitOk);
      EXPECT_EQ(o.out.rfind(names[static_cast<int>(binary)], 0), 0u) << o.out;
      EXPECT_NE(o.out.find("gemm-isa="), std::string::npos) << o.out;
      EXPECT_EQ(o.err, "");
    }
  }
  EXPECT_EQ(Cli(Binary::kTrain, {"--resume", "--version"}).exit, util::kExitOk);
}

struct RuleCase {
  Binary binary;
  std::vector<std::string> args;
  std::string message;
};

TEST(CliTest, RulesOverSeveralFlagsReturnUsage) {
  const std::string listen = "127.0.0.1:0";
  const RuleCase cases[] = {
      {Binary::kTrain, {"--resume"}, "--resume requires --checkpoint-dir"},
      {Binary::kTrain,
       {"--checkpoint-every", "1"},
       "--checkpoint-every requires --checkpoint-dir"},
      {Binary::kTrain,
       {"--worker-binary", "agsc_worker"},
       "--worker-binary requires --proc-workers"},
      // Remote workers are started elsewhere, so no binary applies either.
      {Binary::kTrain,
       {"--remote-workers", "2", "--listen", listen, "--worker-binary", "w"},
       "--worker-binary requires --proc-workers"},
      {Binary::kTrain,
       {"--proc-workers", "2", "--num-workers", "2"},
       "--proc-workers and --num-workers are mutually exclusive"},
      // Given at its default value, --num-workers still selects a mode.
      {Binary::kTrain,
       {"--num-workers", "1", "--proc-workers", "2"},
       "--proc-workers and --num-workers are mutually exclusive"},
      {Binary::kTrain,
       {"--remote-workers", "2", "--listen", listen, "--num-workers", "2"},
       "--remote-workers is mutually exclusive with --num-workers/--proc-workers"},
      {Binary::kTrain,
       {"--remote-workers", "2", "--listen", listen, "--proc-workers", "2"},
       "--remote-workers is mutually exclusive with --num-workers/--proc-workers"},
      {Binary::kTrain,
       {"--remote-workers", "2"},
       "--remote-workers requires --listen HOST:PORT"},
      {Binary::kTrain, {"--listen", listen}, "--listen requires --remote-workers W"},
      {Binary::kTrain, {"--port-file", "port"}, "--port-file requires --listen"},
      {Binary::kServe,
       {"--requests", "8"},
       "one of --snapshot or --snapshot-dir is required"},
      {Binary::kServe,
       {"--snapshot", "f", "--watch", "--requests", "8"},
       "--watch requires --snapshot-dir"},
      {Binary::kServe,
       {"--snapshot", "f", "--requests", "0"},
       "unbounded run: give --requests N or --duration-sec S"},
      {Binary::kServe,
       {"--snapshot", "f", "--port-file", "port"},
       "--port-file requires --listen"},
  };
  for (const RuleCase& c : cases) {
    const Outcome o = Cli(c.binary, c.args);
    EXPECT_EQ(o.exit, util::kExitUsage) << c.message;
    EXPECT_EQ(o.Reason(), c.message);
    EXPECT_EQ(o.out, "");
  }
  const RuleCase accepted[] = {
      {Binary::kTrain, {"--resume", "--checkpoint-dir", "ckpts"}, ""},
      {Binary::kTrain, {"--checkpoint-every", "1", "--checkpoint-dir", "d"},
       ""},
      {Binary::kTrain, {"--worker-binary", "w", "--proc-workers", "2"}, ""},
      {Binary::kTrain, {"--proc-workers", "2"}, ""},
      {Binary::kTrain,
       {"--remote-workers", "2", "--listen", listen, "--port-file", "port"},
       ""},
      {Binary::kServe, {"--snapshot-dir", "ckpts", "--watch"}, ""},
      // A listening server may run until a signal.
      {Binary::kServe,
       {"--snapshot", "f", "--requests", "0", "--listen", listen, "--port-file",
        "port"},
       ""},
  };
  for (const RuleCase& c : accepted) {
    EXPECT_FALSE(Cli(c.binary, c.args).exit.has_value()) << c.args[0];
  }
}

TEST(CliTest, FlagsSetTheConfigStructsWithTheCliDefaults) {
  TrainArgs train;
  FlagTable train_flags = TrainFlags(train);
  EXPECT_EQ(train.scenario.train.iterations, 30);  // TrainConfig says 100.
  const char* train_argv[] = {"agsc_train", "--campus",  "ncsu",   "--medium",
                              "ofdma",      "--env-naive", "--mappo", "--no-eoi",
                              "--seed",     "7",         "--height", "80.5",
                              "--num-workers", "3"};
  ASSERT_FALSE(train_flags
                   .Parse(static_cast<int>(std::size(train_argv)), train_argv)
                   .has_value());
  const Scenario& s = train.scenario;
  EXPECT_EQ(s.campus, map::CampusId::kNcsu);
  EXPECT_EQ(s.env.medium_access, env::MediumAccess::kOfdma);
  EXPECT_FALSE(s.env.use_spatial_index);
  EXPECT_TRUE(s.env.use_channel_batch);
  EXPECT_EQ(s.env.uav_height, 80.5);
  EXPECT_EQ(s.env.num_pois, env::EnvConfig{}.num_pois);
  EXPECT_EQ(s.train.base, core::BaseAlgo::kMappo);
  EXPECT_FALSE(s.train.use_eoi);
  EXPECT_TRUE(s.train.use_copo);
  EXPECT_EQ(s.train.seed, 7u);
  EXPECT_EQ(train.num_workers, 3);

  ServeArgs serve;
  FlagTable serve_flags = ServeFlags(serve);
  EXPECT_EQ(serve.dispatch.num_sessions, 4);  // DispatchConfig says 8.
  const char* serve_argv[] = {"agsc_serve",  "--snapshot",    "f",
                              "--admission", "0",             "--deadline-ms",
                              "7",           "--listen",      "127.0.0.1:0",
                              "--write-budget-ms", "9",       "--env-channel-scalar"};
  ASSERT_FALSE(serve_flags
                   .Parse(static_cast<int>(std::size(serve_argv)), serve_argv)
                   .has_value());
  EXPECT_FALSE(serve.dispatch.admission);
  EXPECT_EQ(serve.dispatch.deadline_ms, 7);
  EXPECT_EQ(serve.frontend.listen_address, "127.0.0.1:0");
  EXPECT_EQ(serve.frontend.write_timeout_ms, 9);
  EXPECT_FALSE(serve.scenario.env.use_channel_batch);
  EXPECT_EQ(serve.clients, 0);  // One per session, none with --listen.
}

}  // namespace
}  // namespace agsc::cli
