#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/macros.h"

namespace mbi {

FlagParser::FlagParser(std::string description)
    : description_(std::move(description)) {}

void FlagParser::AddInt64(const std::string& name, int64_t default_value,
                          const std::string& help, int64_t* out,
                          int64_t min_value, int64_t max_value) {
  *out = default_value;
  flags_[name] = {Type::kInt64, help, std::to_string(default_value), out,
                  min_value, max_value};
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help, double* out,
                           double min_value, double max_value,
                           bool min_exclusive) {
  *out = default_value;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", default_value);
  flags_[name] = {Type::kDouble, help, buffer, out, 0, 0, min_value, max_value,
                  min_exclusive};
}

void FlagParser::AddString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help, std::string* out) {
  *out = default_value;
  flags_[name] = {Type::kString, help, default_value, out};
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help, bool* out) {
  *out = default_value;
  flags_[name] = {Type::kBool, help, default_value ? "true" : "false", out};
}

void FlagParser::PrintUsage() const {
  std::fprintf(stderr, "%s\n\nFlags:\n", description_.c_str());
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%s (default %s)\n      %s\n", name.c_str(),
                 flag.default_text.c_str(), flag.help.c_str());
  }
}

void FlagParser::SetValue(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    std::fprintf(stderr, "Unknown flag --%s\n\n", name.c_str());
    PrintUsage();
    std::exit(2);
  }
  Flag& flag = it->second;
  char* end = nullptr;
  switch (flag.type) {
    case Type::kInt64: {
      errno = 0;
      int64_t parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "Flag --%s expects an integer, got '%s'\n",
                     name.c_str(), value.c_str());
        std::exit(2);
      }
      if (errno == ERANGE || parsed < flag.int_min || parsed > flag.int_max) {
        std::fprintf(stderr, "Flag --%s must be in [%lld, %lld], got '%s'\n",
                     name.c_str(), static_cast<long long>(flag.int_min),
                     static_cast<long long>(flag.int_max), value.c_str());
        std::exit(2);
      }
      *static_cast<int64_t*>(flag.target) = parsed;
      break;
    }
    case Type::kDouble: {
      double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "Flag --%s expects a number, got '%s'\n",
                     name.c_str(), value.c_str());
        std::exit(2);
      }
      // Written so that NaN fails every range.
      const bool above_min = flag.real_min_exclusive ? parsed > flag.real_min
                                                     : parsed >= flag.real_min;
      if (!above_min || !(parsed <= flag.real_max)) {
        std::fprintf(stderr, "Flag --%s must be in %c%g, %g], got '%s'\n",
                     name.c_str(), flag.real_min_exclusive ? '(' : '[',
                     flag.real_min, flag.real_max, value.c_str());
        std::exit(2);
      }
      *static_cast<double*>(flag.target) = parsed;
      break;
    }
    case Type::kString:
      *static_cast<std::string*>(flag.target) = value;
      break;
    case Type::kBool: {
      bool parsed;
      if (value == "true" || value == "1" || value.empty()) {
        parsed = true;
      } else if (value == "false" || value == "0") {
        parsed = false;
      } else {
        std::fprintf(stderr, "Flag --%s expects true/false, got '%s'\n",
                     name.c_str(), value.c_str());
        std::exit(2);
      }
      *static_cast<bool*>(flag.target) = parsed;
      break;
    }
  }
}

bool FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "Unexpected positional argument '%s'\n\n",
                   arg.c_str());
      PrintUsage();
      std::exit(2);
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      SetValue(body.substr(0, eq), body.substr(eq + 1));
      continue;
    }
    // `--name value` form, or bare boolean `--name`.
    auto it = flags_.find(body);
    if (it != flags_.end() && it->second.type == Type::kBool) {
      SetValue(body, "true");
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "Flag --%s is missing a value\n\n", body.c_str());
      PrintUsage();
      std::exit(2);
    }
    SetValue(body, argv[++i]);
  }
  return true;
}

}  // namespace mbi
