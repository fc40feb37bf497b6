// Command-line flags of agsc_train, agsc_serve and agsc_worker: one table
// per binary, each entry giving a flag's spelling, metavariable, range and
// target. The same table parses argv, prints --help and words every usage
// error.

#ifndef AGSC_TOOLS_CLI_H_
#define AGSC_TOOLS_CLI_H_

#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatch_server.h"
#include "core/hi_madrl.h"
#include "core/serve_protocol.h"
#include "env/config.h"
#include "map/campus.h"
#include "util/parse.h"

namespace agsc::cli {

/// One entry of a FlagTable.
struct Flag {
  enum class Kind { kSwitch, kInt, kDouble, kUint64, kText, kChoice, kHelp, kVersion };
  Kind kind = Kind::kSwitch;
  std::string name;     ///< Spelling, e.g. "--iterations".
  std::string alias;    ///< Second spelling ("-h"), or empty.
  std::string metavar;  ///< The value's name in --help; empty: no value.
  std::string help;     ///< One line of --help.
  /// The accepted values as errors and --help word them, e.g. "integer in
  /// [0, 10]"; empty when any value goes.
  std::string expected;
  double lo = 0.0;  ///< Inclusive bounds of kInt and kDouble.
  double hi = 0.0;
  std::vector<std::string> choices;  ///< kChoice spellings, in enum order.
  /// The target's value when registered; empty when that value is one the
  /// flag cannot set (a computed default such as "one per session").
  std::string default_value;
  /// Stores a value (switches get an empty one); false if it is refused.
  std::function<bool(const std::string&)> set;
};

class FlagTable {
 public:
  /// `notes` close --help: the exit codes, or what the binary is for.
  FlagTable(std::string program, std::string notes);

  /// A flag without a value that stores `value`.
  template <typename T>
  void Switch(std::string name, T* target, T value, std::string help) {
    Add(Flag::Kind::kSwitch, std::move(name), "", std::move(help)).set =
        [target, value](const std::string&) {
          *target = value;
          return true;
        };
  }

  template <typename T>
  void Int(std::string name, std::string metavar, int lo, int hi, T* target,
           std::string help) {
    Flag& f = Add(Flag::Kind::kInt, std::move(name), std::move(metavar),
                  std::move(help));
    f.expected = "integer in [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "]";
    f.lo = lo;
    f.hi = hi;
    if (*target >= lo && *target <= hi) {
      f.default_value = std::to_string(*target);
    }
    f.set = [lo, hi, target](const std::string& text) {
      int value = 0;
      if (!util::ParseIntInRange(text, lo, hi, &value)) return false;
      *target = static_cast<T>(value);
      return true;
    };
  }

  void Double(std::string name, std::string metavar, double lo, double hi,
              double* target, std::string help);
  void Uint64(std::string name, std::string metavar, uint64_t* target,
              std::string help);
  void Text(std::string name, std::string metavar, std::string* target,
            std::string help);

  /// A flag whose value is one of `choices`; the i-th sets
  /// `static_cast<E>(i)`.
  template <typename E>
  void Choice(std::string name, std::vector<std::string> choices, E* target,
              std::string help) {
    std::string spelled;
    for (const std::string& choice : choices) {
      spelled += (spelled.empty() ? "" : "|") + choice;
    }
    Flag& f = Add(Flag::Kind::kChoice, std::move(name), spelled,
                  std::move(help));
    f.expected = spelled;
    f.default_value = choices[static_cast<size_t>(*target)];
    f.set = [choices, target](const std::string& text) {
      for (size_t i = 0; i < choices.size(); ++i) {
        if (choices[i] == text) {
          *target = static_cast<E>(i);
          return true;
        }
      }
      return false;
    };
    f.choices = std::move(choices);
  }

  /// A rule over several flags, checked in order once every flag parsed:
  /// when `broken` holds, Parse refuses the command line with `message`.
  void Rule(std::string message, std::function<bool()> broken);

  /// Parses argv[1..argc). Returns the code main should exit with (0 after
  /// --help or --version, util::kExitUsage after an error, which goes to
  /// `err` followed by the help), or nullopt when the program should run.
  /// Writes to `out` only for --help and --version: agsc_worker's stdout is
  /// its frame pipe.
  std::optional<int> Parse(int argc, const char* const* argv,
                           std::ostream& out = std::cout,
                           std::ostream& err = std::cerr);

  void PrintHelp(std::ostream& out) const;
  const std::vector<Flag>& flags() const { return flags_; }

 private:
  Flag& Add(Flag::Kind kind, std::string name, std::string metavar,
           std::string help);

  std::string program_;
  std::string notes_;
  std::vector<Flag> flags_;
  std::vector<std::pair<std::string, std::function<bool()>>> rules_;
};

/// What the scenario flags, shared by agsc_train and agsc_serve, write: the
/// campus, the environment (fleet, channel, medium) and the algorithm fields
/// of a TrainConfig (plug-ins, base algorithm, seed).
struct Scenario {
  map::CampusId campus = map::CampusId::kPurdue;
  env::EnvConfig env;
  core::TrainConfig train;
};

struct TrainArgs {
  Scenario scenario;  ///< Also holds the TrainConfig fields flags set.
  int num_workers = 0;  ///< 0 = not given: TrainConfig's 1.
  int eval_episodes = 10;
  int remote_workers = 0;
  std::string port_file;
  std::string save_path;
  std::string load_path;
  std::string stats_csv;
  bool resume = false;
  int watchdog_sec = 0;
  bool render = false;
  bool quiet = false;
};

struct ServeArgs {
  Scenario scenario;
  core::DispatchConfig dispatch;
  core::ServeFrontend::Options frontend;  ///< listen_address is --listen.
  std::string snapshot_path;
  std::string snapshot_dir;
  bool watch = false;
  int watch_poll_ms = 200;
  int clients = 0;  ///< 0 = one per session (none with --listen).
  int requests = 64;
  int duration_sec = 0;
  std::string stats_json;
  std::string port_file;
  bool quiet = false;
};

struct WorkerArgs {
  int worker_id = 0;
  int incarnation = 0;
  std::string connect;
  int connect_timeout_ms = 10000;
  int connect_retries = 40;
};

/// Each binary's table. Flags write straight into `args`, which must
/// outlive the table; each function first sets the CLI defaults that differ
/// from the structs' (30 iterations, 4 sessions).
FlagTable TrainFlags(TrainArgs& args);
FlagTable ServeFlags(ServeArgs& args);
FlagTable WorkerFlags(WorkerArgs& args);

/// Writes `port` to `path` through a temp file renamed over it, so a poller
/// never reads partial content. False on an I/O error.
bool WritePortFile(const std::string& path, int port);

}  // namespace agsc::cli

#endif  // AGSC_TOOLS_CLI_H_
