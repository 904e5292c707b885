// Command-line flag parsing shared by diffcd and diffc_client.

#ifndef DIFFC_TOOLS_FLAGS_H_
#define DIFFC_TOOLS_FLAGS_H_

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace diffc::tools {

// Matches `--name=VALUE` and stores VALUE.
inline bool ParseFlag(const std::string& arg, const std::string& name, std::string* out) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

// Matches `--name=N`. N must be a whole decimal integer in [min, max];
// anything else prints "<program>: bad value for --name" and exits 2.
inline bool ParseIntFlag(const char* program, const std::string& arg, const std::string& name,
                         long* out, long min = 0, long max = LONG_MAX) {
  std::string text;
  if (!ParseFlag(arg, name, &text)) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || v < min || v > max) {
    std::fprintf(stderr, "%s: bad value for --%s: '%s'\n", program, name.c_str(), text.c_str());
    std::exit(2);
  }
  *out = v;
  return true;
}

}  // namespace diffc::tools

#endif  // DIFFC_TOOLS_FLAGS_H_
