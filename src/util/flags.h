#ifndef MBI_UTIL_FLAGS_H_
#define MBI_UTIL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace mbi {

/// Minimal command-line flag parser for the example and benchmark binaries.
///
/// Accepts `--name=value` and `--name value` forms plus bare `--name` for
/// booleans. Unknown flags abort with a usage message listing registered
/// flags, so typos in experiment parameters fail loudly instead of silently
/// running the default configuration.
class FlagParser {
 public:
  /// `description` is printed at the top of `--help` output.
  explicit FlagParser(std::string description);

  /// Registers flags. Each returns a pointer whose pointee is updated by
  /// Parse(); the pointee keeps `default_value` if the flag is absent.
  ///
  /// Numeric flags take the range their consumer accepts: Parse() rejects a
  /// value outside [min_value, max_value] (for doubles, (min_value,
  /// max_value] when `min_exclusive`) as a usage error, so a caller can
  /// narrow the value without a silent wrap or a failed check downstream.
  void AddInt64(const std::string& name, int64_t default_value,
                const std::string& help, int64_t* out,
                int64_t min_value = std::numeric_limits<int64_t>::min(),
                int64_t max_value = std::numeric_limits<int64_t>::max());
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help, double* out,
                 double min_value = -std::numeric_limits<double>::infinity(),
                 double max_value = std::numeric_limits<double>::infinity(),
                 bool min_exclusive = false);
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help, std::string* out);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help, bool* out);

  /// Parses argv. On `--help` prints usage and returns false (caller should
  /// exit 0). Exits 2 on malformed, out-of-range or unknown flags.
  bool Parse(int argc, char** argv);

 private:
  enum class Type { kInt64, kDouble, kString, kBool };
  struct Flag {
    Type type;
    std::string help;
    std::string default_text;
    void* target;
    // Accepted range of a numeric flag (kInt64 / kDouble only).
    int64_t int_min = 0;
    int64_t int_max = 0;
    double real_min = 0.0;
    double real_max = 0.0;
    bool real_min_exclusive = false;
  };

  void PrintUsage() const;
  void SetValue(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, Flag> flags_;
};

}  // namespace mbi

#endif  // MBI_UTIL_FLAGS_H_
