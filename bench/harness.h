// The harness every bench binary shares: its flags (ParseFlags), its JSON
// report (Json) and its shape checks (Report).
//
// A bench declares its flags as a table, fills `Report::json` with its
// results, states each paper-claim assertion once with Report::Check, and
// returns Report::Finish() from main.  Every report therefore carries the
// same envelope: "bench" (the binary's report name) and "shape_checks"
// (each check's verdict), which bench/check_regression gates on.

#ifndef OSKIT_BENCH_HARNESS_H_
#define OSKIT_BENCH_HARNESS_H_

#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <concepts>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/com/netselector.h"
#include "src/com/socket.h"

namespace oskit::bench {

// The p-quantile (0 <= p <= 1) of `sorted` by nearest rank, rounding the
// rank down; 0 for no samples.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

// Byte `i` of the deterministic data pattern named by `salt`: what the
// campaigns write and then check end to end.
inline uint8_t PatternByte(uint64_t salt, size_t i) {
  return static_cast<uint8_t>(salt * 131 + i * 29 + (i >> 9));
}

// The socket's SocketExt interface (a new reference), or null if it has
// none.
inline SocketExt* QueryExt(Socket* s) {
  void* extp = nullptr;
  if (!Ok(s->Query(SocketExt::kIid, &extp))) {
    return nullptr;
  }
  return static_cast<SocketExt*>(extp);
}

// One command-line flag.  "--name" takes the next argument as its value; a
// name without the leading dash is the (single, optional) positional
// argument.
struct Flag {
  const char* name;
  std::variant<int*, uint64_t*, const char**> target;
};

// Parses an unsigned number in base 0 (decimal, 0x hex, 0 octal) that must
// be all of `s` and at most `max`.
inline bool ParseNumber(const char* s, uint64_t max, uint64_t* out) {
  if (*s < '0' || *s > '9') {
    return false;  // empty, signed or space-led
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 0);
  if (errno != 0 || *end != '\0' || v > max) {
    return false;
  }
  *out = v;
  return true;
}

// Parses argv against `flags`.  An unknown flag, a missing value, a second
// positional argument or a number that is malformed, negative or out of
// range for its target prints the usage line and returns false; the bench
// then exits 2.
inline bool ParseFlags(int argc, char** argv,
                       std::initializer_list<Flag> flags) {
  auto usage = [&] {
    std::string line = std::string("usage: ") + argv[0];
    for (const Flag& f : flags) {
      bool text = std::holds_alternative<const char**>(f.target);
      line += std::string(" [") + f.name +
              (f.name[0] != '-' ? "]" : text ? " <value>]" : " N]");
    }
    std::fprintf(stderr, "%s\n", line.c_str());
    return false;
  };
  bool positional_seen = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      bool positional = f.name[0] != '-';
      if (positional ? !arg.starts_with("-") && !positional_seen
                     : arg == f.name) {
        flag = &f;
        break;
      }
    }
    if (flag == nullptr) {
      return usage();
    }
    if (flag->name[0] != '-') {
      positional_seen = true;
    } else if (++i == argc) {
      return usage();
    }
    uint64_t n = 0;
    if (auto* text = std::get_if<const char**>(&flag->target)) {
      **text = argv[i];
    } else if (auto* u64 = std::get_if<uint64_t*>(&flag->target)) {
      if (!ParseNumber(argv[i], UINT64_MAX, *u64)) {
        return usage();
      }
    } else if (ParseNumber(argv[i], INT_MAX, &n)) {
      *std::get<int*>(flag->target) = static_cast<int>(n);
    } else {
      return usage();
    }
  }
  return true;
}

// A JSON value that keeps insertion order.  Set() nests at each dot of its
// path ("latency_us.p99"); Put() takes its key literally, for counter names
// that themselves contain dots ("glue.send.sg_frames").  Integers are
// written exactly, doubles in the shortest form that reads back as the same
// double (null when not finite).
class Json {
 public:
  template <class T>
  Json& Set(std::string_view path, const T& value) {
    size_t dot = path.find('.');
    if (dot == std::string_view::npos) {
      return Put(path, value);
    }
    Member(path.substr(0, dot)).Set(path.substr(dot + 1), value);
    return *this;
  }

  template <class T>
  Json& Put(std::string_view key, const T& value) {
    Member(key) = Of(value);
    return *this;
  }

  // Appends `row` to the array member `key`, creating it.
  Json& Push(std::string_view key, Json row) {
    Json& array = Member(key);
    array.kind_ = kArray;
    array.members_.emplace_back("", std::move(row));
    return *this;
  }

  // Every (name, value) pair of `map` as a literal-keyed object.
  template <class Map>
  static Json Object(const Map& map) {
    Json object;
    for (const auto& [key, value] : map) {
      object.Put(key, value);
    }
    return object;
  }

  std::string Text(int indent = 0) const {
    if (kind_ == kScalar) {
      return text_;
    }
    std::string out(1, kind_ == kArray ? '[' : '{');
    for (size_t i = 0; i < members_.size(); ++i) {
      out += (i == 0 ? "\n" : ",\n") + std::string(indent + 2, ' ');
      if (kind_ == kObject) {
        out += Quote(members_[i].first) + ": ";
      }
      out += members_[i].second.Text(indent + 2);
    }
    if (!members_.empty()) {
      out += "\n" + std::string(indent, ' ');
    }
    return out + (kind_ == kArray ? ']' : '}');
  }

 private:
  enum Kind { kObject, kArray, kScalar };

  static Json Scalar(std::string text) {
    Json json;
    json.kind_ = kScalar;
    json.text_ = std::move(text);
    return json;
  }
  static Json Of(const Json& json) { return json; }
  static Json Of(bool b) { return Scalar(b ? "true" : "false"); }
  static Json Of(const char* s) { return Scalar(Quote(s)); }
  static Json Of(const std::string& s) { return Scalar(Quote(s)); }
  static Json Of(std::integral auto n) { return Scalar(std::to_string(n)); }
  static Json Of(double d) {
    char buf[32];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d);
    return Scalar(std::isfinite(d) ? std::string(buf, end) : "null");
  }

  static std::string Quote(std::string_view s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\u%04x", c);
        out += esc;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  Json& Member(std::string_view key) {
    for (auto& [name, value] : members_) {
      if (name == key) {
        return value;
      }
    }
    return members_.emplace_back(std::string(key), Json()).second;
  }

  Kind kind_ = kObject;
  std::string text_;  // a scalar, rendered
  std::vector<std::pair<std::string, Json>> members_;  // array items: ""
};

// A bench's shape checks and report.  `json` starts as {"bench": name};
// Finish() adds "shape_checks" and writes the file when a path was given.
class Report {
 public:
  Report(const char* bench, const char* json_path) : path_(json_path) {
    json.Set("bench", bench);
  }

  // Prints "  <name>: <detail>  PASS|FAIL" and records the verdict under
  // shape_checks.<name>; a name checked again (once per seed, say) keeps
  // the conjunction.
  __attribute__((format(printf, 4, 5))) void Check(const char* name, bool ok,
                                                   const char* detail, ...) {
    char buf[512];
    va_list args;
    va_start(args, detail);
    std::vsnprintf(buf, sizeof(buf), detail, args);
    va_end(args);
    std::printf("  %-13s %s  %s\n", (std::string(name) + ":").c_str(), buf,
                ok ? "PASS" : "FAIL");
    for (auto& [checked, verdict] : checks_) {
      if (checked == name) {
        verdict = verdict && ok;
        return;
      }
    }
    checks_.emplace_back(name, ok);
  }

  // True when every check so far passed.
  bool passed() const {
    for (const auto& [name, ok] : checks_) {
      if (!ok) {
        return false;
      }
    }
    return true;
  }

  // The exit status: 1 if a check failed or the report could not be
  // written, else 0.
  int Finish() {
    json.Set("shape_checks", Json::Object(checks_));
    if (path_ == nullptr) {
      return passed() ? 0 : 1;
    }
    std::FILE* f = std::fopen(path_, "w");
    bool wrote =
        f != nullptr && std::fputs((json.Text() + "\n").c_str(), f) >= 0;
    if (f == nullptr || std::fclose(f) != 0 || !wrote) {
      std::fprintf(stderr, "cannot write %s\n", path_);
      return 1;
    }
    std::printf("wrote %s\n", path_);
    return passed() ? 0 : 1;
  }

  Json json;

 private:
  const char* path_;
  std::vector<std::pair<std::string, bool>> checks_;
};

// One row of a campaign's evidence checklist: `what` held somewhere in the
// campaign if the counters named in `any_of` sum to nonzero.
struct Evidence {
  const char* what;
  std::vector<const char*> any_of;
};

// Prints the "<title>:" table, one row per item, and a
// "FAIL: aggregate: no evidence that <what>" line for each item whose
// counters sum to zero in `counters`.  Returns how many items lacked
// evidence.
inline int PrintChecklist(const std::string& title,
                          const std::map<std::string, uint64_t>& counters,
                          const std::vector<Evidence>& items) {
  int missing = 0;
  std::printf("\n%s:\n", title.c_str());
  for (const Evidence& item : items) {
    uint64_t sum = 0;
    for (const char* name : item.any_of) {
      auto it = counters.find(name);
      sum += it != counters.end() ? it->second : 0;
    }
    std::printf("  %-46s %12llu %s\n", item.what,
                static_cast<unsigned long long>(sum), sum != 0 ? "ok" : "MISSING");
    if (sum == 0) {
      std::printf("FAIL: aggregate: no evidence that %s\n", item.what);
      ++missing;
    }
  }
  return missing;
}

}  // namespace oskit::bench

#endif  // OSKIT_BENCH_HARNESS_H_
