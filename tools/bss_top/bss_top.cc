// bss_top — live viewer for `bss-status v1` heartbeat files.
//
// Reads a status artifact (written atomically via tmp+rename by explore(),
// the bench campaign drivers, or the leader_worker_pool soak) and renders
// a progress / worker / profile view; with `--follow` it re-reads on an
// interval and redraws until the producer reports state "complete".
// `--json` prints the raw document instead (after checking that it parses
// and carries the bss-status schema line), for scripting.
//
//   bss_top [--follow] [--interval-ms N] [--json] STATUS.json
//
// Exit status: 0 on a rendered (or, with --follow, completed) status file,
// 1 when the file is unreadable or not a bss-status v1 document, 2 on
// usage errors.
//
// Deliberately std-only (same policy as bss_lint): the monitor must build
// and run against nothing but the artifact format, so it keeps its own
// ~100-line JSON reader for the subset status files use instead of
// linking the project's canonical-JSON library.
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

// ------------------------------------------------------- minimal JSON
// Just enough parser for bss-status documents: objects, arrays, strings
// (with the escapes the canonical writer emits), integers, doubles, bools
// and null.  Any syntax error yields nullopt — the caller treats that as
// "not a status file", never as partial data (tmp+rename means a reader
// can't observe a half-written snapshot anyway).

struct Node {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  long long integer = 0;
  double number = 0;
  std::string string;
  std::vector<Node> array;
  std::map<std::string, Node> object;

  const Node* find(const std::string& key) const {
    const auto it = object.find(key);
    return it != object.end() ? &it->second : nullptr;
  }
  /// Integer view of a numeric node (doubles truncate; non-numbers -> 0).
  unsigned long long as_uint() const {
    if (kind == Kind::kInt && integer >= 0) {
      return static_cast<unsigned long long>(integer);
    }
    if (kind == Kind::kDouble && number >= 0) {
      return static_cast<unsigned long long>(number);
    }
    return 0;
  }
  double as_double() const {
    if (kind == Kind::kInt) return static_cast<double>(integer);
    return kind == Kind::kDouble ? number : 0;
  }
};

struct Parser {
  const char* p;
  const char* end;

  void skip_ws() {
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  bool literal(const char* text) {
    const std::size_t n = std::strlen(text);
    if (static_cast<std::size_t>(end - p) < n || std::strncmp(p, text, n)) {
      return false;
    }
    p += n;
    return true;
  }
  bool parse_string(std::string* out) {
    if (p == end || *p != '"') return false;
    ++p;
    out->clear();
    while (p != end && *p != '"') {
      char c = *p++;
      if (c == '\\') {
        if (p == end) return false;
        const char escape = *p++;
        switch (escape) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {  // status strings are ASCII; non-ASCII renders as '?'
            if (end - p < 4) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *p++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: return false;
        }
      }
      out->push_back(c);
    }
    if (p == end) return false;
    ++p;  // closing quote
    return true;
  }
  bool parse_value(Node* out) {
    skip_ws();
    if (p == end) return false;
    if (*p == '{') {
      ++p;
      out->kind = Node::Kind::kObject;
      skip_ws();
      if (p != end && *p == '}') { ++p; return true; }
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (p == end || *p != ':') return false;
        ++p;
        Node child;
        if (!parse_value(&child)) return false;
        out->object.emplace(std::move(key), std::move(child));
        skip_ws();
        if (p == end) return false;
        if (*p == ',') { ++p; continue; }
        if (*p == '}') { ++p; return true; }
        return false;
      }
    }
    if (*p == '[') {
      ++p;
      out->kind = Node::Kind::kArray;
      skip_ws();
      if (p != end && *p == ']') { ++p; return true; }
      for (;;) {
        Node child;
        if (!parse_value(&child)) return false;
        out->array.push_back(std::move(child));
        skip_ws();
        if (p == end) return false;
        if (*p == ',') { ++p; continue; }
        if (*p == ']') { ++p; return true; }
        return false;
      }
    }
    if (*p == '"') {
      out->kind = Node::Kind::kString;
      return parse_string(&out->string);
    }
    if (literal("true")) { out->kind = Node::Kind::kBool; out->boolean = true; return true; }
    if (literal("false")) { out->kind = Node::Kind::kBool; out->boolean = false; return true; }
    if (literal("null")) { out->kind = Node::Kind::kNull; return true; }
    // number
    const char* start = p;
    if (p != end && *p == '-') ++p;
    while (p != end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    bool floating = false;
    if (p != end && (*p == '.' || *p == 'e' || *p == 'E')) {
      floating = true;
      while (p != end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                          *p == '.' || *p == 'e' || *p == 'E' || *p == '+' ||
                          *p == '-')) {
        ++p;
      }
    }
    if (p == start) return false;
    const std::string token(start, p);
    char* parse_end = nullptr;
    if (floating) {
      out->kind = Node::Kind::kDouble;
      out->number = std::strtod(token.c_str(), &parse_end);
    } else {
      out->kind = Node::Kind::kInt;
      out->integer = std::strtoll(token.c_str(), &parse_end, 10);
    }
    return parse_end != nullptr && *parse_end == '\0';
  }
};

std::optional<Node> parse_document(const std::string& text) {
  Parser parser{text.data(), text.data() + text.size()};
  Node root;
  if (!parser.parse_value(&root)) return std::nullopt;
  parser.skip_ws();
  if (parser.p != parser.end) return std::nullopt;
  return root;
}

// ------------------------------------------------------------ rendering

std::string progress_bar(unsigned long long done, unsigned long long total) {
  constexpr int kWidth = 24;
  std::string bar;
  const int filled =
      total > 0 ? static_cast<int>(done * kWidth / total) : 0;
  for (int i = 0; i < kWidth; ++i) bar += i < filled ? '#' : '.';
  return bar;
}

std::string human_count(unsigned long long n) {
  char out[32];
  if (n >= 10'000'000ULL) {
    std::snprintf(out, sizeof(out), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 10'000ULL) {
    std::snprintf(out, sizeof(out), "%.1fk", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(out, sizeof(out), "%llu", n);
  }
  return out;
}

void render(const Node& root) {
  const Node* producer = root.find("producer");
  const Node* system = root.find("system");
  const Node* state = root.find("state");
  const Node* seq = root.find("seq");
  const Node* progress = root.find("progress");
  std::printf("%s", producer != nullptr ? producer->string.c_str() : "?");
  if (system != nullptr && !system->string.empty()) {
    std::printf("  %s", system->string.c_str());
  }
  std::printf("  [%s]  seq %llu\n",
              state != nullptr ? state->string.c_str() : "?",
              seq != nullptr ? seq->as_uint() : 0);
  if (progress != nullptr) {
    const auto count = [&](const char* key) {
      const Node* node = progress->find(key);
      return node != nullptr ? node->as_uint() : 0ULL;
    };
    const unsigned long long schedules = count("schedules");
    const unsigned long long max_schedules = count("max_schedules");
    if (max_schedules > 0) {
      std::printf("  schedules  %s / %s  [%s] %3.0f%%\n",
                  human_count(schedules).c_str(),
                  human_count(max_schedules).c_str(),
                  progress_bar(schedules, max_schedules).c_str(),
                  100.0 * static_cast<double>(schedules) /
                      static_cast<double>(max_schedules));
    } else {
      std::printf("  schedules  %s (unbounded)\n",
                  human_count(schedules).c_str());
    }
    std::printf("  violations %llu   frontier %llu   checkpoints %llu   "
                "passes %llu   jobs %llu\n",
                count("violations"), count("frontier"), count("checkpoints"),
                count("passes"), count("jobs"));
    const unsigned long long ppm = count("fingerprint_hit_rate_ppm");
    if (count("fingerprint_prunes") > 0 || ppm > 0) {
      std::printf("  fp-prunes  %s (hit rate %.1f%%)\n",
                  human_count(count("fingerprint_prunes")).c_str(),
                  static_cast<double>(ppm) / 10'000.0);
    }
  }
  if (const Node* timing = root.find("timing")) {
    const Node* rate = timing->find("schedules_per_second");
    const Node* window = timing->find("window_schedules_per_second");
    const Node* eta = timing->find("eta_seconds");
    const Node* elapsed = timing->find("elapsed_ms");
    const Node* ckpt_age = timing->find("checkpoint_age_ms");
    std::printf("  rate      ");
    if (rate != nullptr) std::printf(" %.0f/s cumulative", rate->as_double());
    if (window != nullptr) std::printf("  %.0f/s window", window->as_double());
    if (rate == nullptr && window == nullptr) std::printf(" n/a");
    std::printf("\n");
    if (elapsed != nullptr || eta != nullptr || ckpt_age != nullptr) {
      std::printf("  clock     ");
      if (elapsed != nullptr) {
        std::printf(" elapsed %.1fs",
                    static_cast<double>(elapsed->as_uint()) / 1e3);
      }
      // An upper bound, not an estimate: the time to the max_schedules
      // valve at the current rate; an exhaustive campaign ends sooner.
      if (eta != nullptr) std::printf("  cap in <= %.0fs", eta->as_double());
      if (ckpt_age != nullptr) {
        std::printf("  last checkpoint %.1fs ago",
                    static_cast<double>(ckpt_age->as_uint()) / 1e3);
      }
      std::printf("\n");
    }
  }
  if (const Node* workers = root.find("workers");
      workers != nullptr && !workers->array.empty()) {
    std::printf("  %-8s %-9s %9s %11s\n", "worker", "state", "steals",
                "schedules");
    for (const Node& row : workers->array) {
      const Node* state_node = row.find("state");
      const Node* worker_node = row.find("worker");
      const Node* steals = row.find("steals");
      const Node* schedules = row.find("schedules");
      std::printf("  %-8llu %-9s %9llu %11llu\n",
                  worker_node != nullptr ? worker_node->as_uint() : 0,
                  state_node != nullptr ? state_node->string.c_str() : "?",
                  steals != nullptr ? steals->as_uint() : 0,
                  schedules != nullptr ? schedules->as_uint() : 0);
    }
  }
  if (const Node* profile = root.find("profile");
      profile != nullptr && !profile->object.empty()) {
    std::printf("  %-18s %9s %11s\n", "phase", "calls", "ms");
    for (const auto& [phase, cell] : profile->object) {
      const Node* calls = cell.find("calls");
      const Node* ns = cell.find("ns");
      std::printf("  %-18s %9llu %11.1f\n", phase.c_str(),
                  calls != nullptr ? calls->as_uint() : 0,
                  ns != nullptr
                      ? static_cast<double>(ns->as_uint()) / 1e6
                      : 0.0);
    }
  }
}

// --------------------------------------------------------------- driver

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s [--follow] [--interval-ms N] [--json] STATUS.json\n"
               "  --follow         re-read and redraw until state is "
               "\"complete\"\n"
               "  --interval-ms N  follow poll interval (default 500)\n"
               "  --json           print the raw document (schema-checked) "
               "instead of the tables\n",
               program);
  return 2;
}

struct Snapshot {
  std::string text;
  Node root;
};

/// Reads and schema-checks one snapshot; diagnostics only when `verbose`
/// (the follow loop stays quiet between good reads — a campaign may create
/// the file a beat after the monitor starts).
std::optional<Snapshot> read_snapshot(const std::string& path, bool verbose) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (verbose) std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Snapshot snapshot;
  snapshot.text = buffer.str();
  auto parsed = parse_document(snapshot.text);
  if (!parsed.has_value() || parsed->kind != Node::Kind::kObject) {
    if (verbose) {
      std::fprintf(stderr, "%s: not a JSON object\n", path.c_str());
    }
    return std::nullopt;
  }
  const Node* schema = parsed->find("schema");
  if (schema == nullptr || schema->kind != Node::Kind::kString ||
      schema->string != "bss-status v1") {
    if (verbose) {
      std::fprintf(stderr, "%s: missing or unknown schema (want "
                   "\"bss-status v1\")\n", path.c_str());
    }
    return std::nullopt;
  }
  snapshot.root = std::move(*parsed);
  return snapshot;
}

bool is_complete(const Node& root) {
  const Node* state = root.find("state");
  return state != nullptr && state->string == "complete";
}

}  // namespace

int main(int argc, char** argv) {
  bool follow = false;
  bool json = false;
  long interval_ms = 500;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--follow") {
      follow = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      char* end = nullptr;
      interval_ms = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || interval_ms < 1) {
        return usage(argv[0]);
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  if (!follow) {
    const auto snapshot = read_snapshot(path, /*verbose=*/true);
    if (!snapshot.has_value()) return 1;
    if (json) {
      std::fputs(snapshot->text.c_str(), stdout);
    } else {
      render(snapshot->root);
    }
    return 0;
  }

  // Follow mode: poll until the producer says "complete".  A file that
  // does not exist yet is normal — the natural workflow launches bss_top
  // right after the campaign, a beat before its seq-0 write — so we wait
  // for it (with one notice).  A file that exists but is not a bss-status
  // document is a typo'd path or a foreign artifact: diagnose and exit 1
  // rather than spin forever looking healthy.
  bool first = true;
  bool announced_wait = false;
  unsigned long long last_seq = ~0ULL;
  for (;;) {
    if (first && !std::ifstream(path).good()) {
      if (!announced_wait) {
        std::fprintf(stderr, "bss_top: waiting for %s ...\n", path.c_str());
        announced_wait = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      continue;
    }
    const auto snapshot = read_snapshot(path, first);
    if (first && !snapshot.has_value()) return 1;
    first = false;
    if (snapshot.has_value()) {
      const Node* seq = snapshot->root.find("seq");
      const unsigned long long this_seq =
          seq != nullptr ? seq->as_uint() : 0;
      if (this_seq != last_seq) {
        last_seq = this_seq;
        if (json) {
          std::fputs(snapshot->text.c_str(), stdout);
          std::fflush(stdout);
        } else {
          std::printf("\033[2J\033[H");  // clear + home, top(1)-style
          render(snapshot->root);
          std::fflush(stdout);
        }
      }
      if (is_complete(snapshot->root)) return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
