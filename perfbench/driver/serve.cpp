// Workload "serve": a closed loop from this process against the shipped
// bflyd binary over its Unix socket.
//
// bflyd runs with a cache journal in a fresh directory, --engine-threads 1
// and fewer --max-inflight dispatchers (nproc/4) than the loop has
// connections (nproc/2), so cache hits queue behind cold computes exactly as
// Server::submit_frame admits them.  The seeded mix per connection:
//   80.0%  cache hits on a key pool warmed during set-up (all four compute
//          ops, their payload sizes);
//    7.0%  cold computes with unique keys, small and single-threaded
//          (B_5 sweep, B_8 census, and B_7/B_8 layouts while unused layout
//          keys last); each appends and fsyncs a cache-journal line;
//   11.5%  pings;  0.2% stats;  1.3% malformed frames.
// cold_p50_ms is taken over the sweep colds alone: sweep and census colds
// come half and half and differ in cost by half, so a median over both would
// sit in the gap between them and jump with the mix.  Every latency and the
// rate are taken per one-second window and reported as the windows' quiet
// quantile.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "common.hpp"
#include "layout/butterfly_layout.hpp"
#include "obs/json.hpp"
#include "packaging/hierarchical.hpp"
#include "routing/routing.hpp"
#include "serve/protocol.hpp"

extern char** environ;

namespace perfbench {
namespace {

using bfly::json::Value;

constexpr double kHitShare = 0.80;
constexpr double kColdShare = 0.07;
constexpr double kPingShare = 0.115;
constexpr double kStatsShare = 0.002;
constexpr double kBlockRequests = 2048.0;  ///< wall_s: seconds per block of requests
constexpr double kWindowSeconds = 1.0;     ///< length of a latency / rate window
constexpr std::size_t kMinWindows = 10;    ///< the untraced loop runs at least this many

/// A bflyd child process.  The destructor kills and reaps a daemon that was
/// not shut down cleanly, so no exit path leaves one behind.
class DaemonProcess {
 public:
  DaemonProcess(const Options& opt, const std::string& dir, std::size_t max_inflight,
                std::size_t cache_entries);
  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  const std::string& socket() const { return socket_; }
  const std::string& journal() const { return journal_; }
  pid_t pid() const { return pid_; }
  /// SIGTERM, then wait for the drain.  Returns the exit status (or -1 when
  /// it had to be killed) and leaves the daemon's stderr in *err.
  int terminate(std::string* err);

 private:
  std::string dir_;
  std::string socket_;
  std::string journal_;
  std::string err_path_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

DaemonProcess::DaemonProcess(const Options& opt, const std::string& dir,
                             std::size_t max_inflight, std::size_t cache_entries)
    : dir_(dir),
      socket_(dir + "/bflyd.sock"),
      journal_(dir + "/cache.jsonl"),
      err_path_(dir + "/bflyd.err") {
  std::filesystem::create_directories(dir);
  int out[2];
  if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
  const int err_fd = ::open(err_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, out[1], 1);
  posix_spawn_file_actions_adddup2(&fa, err_fd, 2);
  posix_spawn_file_actions_addclose(&fa, out[0]);
  const std::vector<std::string> args = {opt.bflyd,
                                         "--socket", socket_,
                                         "--cache", journal_,
                                         "--max-inflight", std::to_string(max_inflight),
                                         "--engine-threads", "1",
                                         "--queue-depth", "1024",
                                         "--cache-max-entries", std::to_string(cache_entries),
                                         "--default-deadline-ms", "60000",
                                         "--drain-ms", "20000"};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, opt.bflyd.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(out[1]);
  ::close(err_fd);
  out_fd_ = out[0];
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + opt.bflyd + ": " + std::strerror(rc));
  }
  // Readiness: the one stdout line "bflyd listening unix <path>".
  std::string line;
  const Clock::time_point t0 = Clock::now();
  while (line.find('\n') == std::string::npos) {
    pollfd p{out_fd_, POLLIN, 0};
    if (seconds_since(t0) > 30.0 || ::poll(&p, 1, 1000) < 0) break;
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  if (line.rfind("bflyd listening unix ", 0) != 0) {
    throw std::runtime_error("bflyd did not report listening: " + line);
  }
}

int DaemonProcess::terminate(std::string* err) {
  int status = 0;
  ::kill(pid_, SIGTERM);
  const Clock::time_point t0 = Clock::now();
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && seconds_since(t0) < 60.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  int code = -1;
  if (done == pid_) {
    code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  } else {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  pid_ = -1;
  std::ifstream in(err_path_);
  err->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  std::filesystem::remove_all(dir_);
  return code;
}

/// Blocking JSONL client over a Unix socket (the benchmark's own, so the
/// client side never changes with the library).
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("cannot connect to " + path);
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one frame and reads one response line; false on a dead socket.
  bool call(const std::string& frame, std::string* line) {
    std::string out = frame;
    out += '\n';
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[8192];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// The raw "result" bytes of a success envelope (the protocol splices the
/// result text last, verbatim).
std::string result_bytes(const std::string& line) {
  const std::size_t at = line.find(",\"result\":");
  if (at == std::string::npos || line.empty() || line.back() != '}') return {};
  return line.substr(at + 10, line.size() - at - 11);
}

struct PoolEntry {
  std::string frame;
  std::string key;
  std::string result;  ///< bytes the warm-up compute returned
};

/// Frames of the warmed hit pool: six keys per compute op, spanning their
/// payload sizes.  Census and sweep seeds come from the workload seed.
std::vector<std::string> pool_frames(u64 seed) {
  InputRng rng(stream_seed(seed, 1));
  std::vector<std::string> f;
  const int layout_nl[6][2] = {{5, 2}, {6, 4}, {7, 8}, {9, 2}, {10, 4}, {12, 2}};
  for (const auto& nl : layout_nl) {
    f.push_back("{\"op\":\"layout\",\"n\":" + std::to_string(nl[0]) +
                ",\"layers\":" + std::to_string(nl[1]) + "}");
  }
  for (const int n : {5, 6, 8, 9, 12, 14}) {
    f.push_back("{\"op\":\"packaging\",\"n\":" + std::to_string(n) + "}");
  }
  for (const int n : {4, 6, 8, 9, 10, 12}) {
    f.push_back("{\"op\":\"census\",\"n\":" + std::to_string(n) +
                ",\"packets\":" + std::to_string(20000 + 5000 * n) +
                ",\"seed\":" + std::to_string(rng.seed()) + "}");
  }
  for (const int n : {3, 4, 5, 6, 7, 8}) {
    char load[32];
    std::snprintf(load, sizeof(load), "%.2f", 0.1 + 0.15 * (n - 3));
    f.push_back("{\"op\":\"sweep\",\"n\":" + std::to_string(n) + ",\"offered_load\":" + load +
                ",\"cycles\":600,\"warmup_cycles\":60,\"seed\":" + std::to_string(rng.seed()) +
                "}");
  }
  return f;
}

/// Small-n layout keys outside the pool: the only way to make a layout
/// compute cold, and there are finitely many.
std::vector<std::string> cold_layout_frames(u64 seed) {
  std::vector<std::string> f;
  for (const int n : {7, 8}) {
    for (int layers = 2; layers <= 16; ++layers) {
      if (n == 7 && layers == 8) continue;  // in the pool
      f.push_back("{\"op\":\"layout\",\"n\":" + std::to_string(n) +
                  ",\"layers\":" + std::to_string(layers) + "}");
    }
  }
  InputRng rng(stream_seed(seed, 2));
  for (std::size_t i = f.size(); i > 1; --i) std::swap(f[i - 1], f[rng.below(i)]);
  return f;
}

std::string cold_sweep_frame(u64 seed) {
  return "{\"op\":\"sweep\",\"n\":5,\"offered_load\":0.5,\"cycles\":600,\"warmup_cycles\":60,"
         "\"seed\":" + std::to_string(seed) + "}";
}
std::string cold_census_frame(u64 seed) {
  return "{\"op\":\"census\",\"n\":8,\"packets\":20000,\"seed\":" + std::to_string(seed) + "}";
}

const char* const kMalformed[] = {
    "{\"op\":\"layout\",\"n\":99}",
    "this is not json",
    "{\"op\":\"frobnicate\"}",
    "{\"op\":\"census\",\"n\":8,\"packets\":100,\"sede\":3}",
};

enum class Kind { kHit, kCold, kPing, kStats, kBad };

/// Checks one response against what its request must produce.
bool response_ok(Kind kind, const std::string& line, const PoolEntry* hit, const Value& req,
                 std::string* why) {
  Value doc;
  try {
    doc = Value::parse(line);
  } catch (const std::exception&) {
    *why = "response does not parse";
    return false;
  }
  const Value* ok = doc.find("ok");
  if (ok == nullptr || ok->type() != Value::Type::kBool) {
    *why = "response has no ok flag";
    return false;
  }
  if (kind == Kind::kBad) {
    const Value* err = doc.find("error");
    const Value* code = err != nullptr ? err->find("code") : nullptr;
    if (ok->as_bool() || code == nullptr || !code->is_string() ||
        code->as_string() != "invalid_request") {
      *why = "malformed frame not answered invalid_request";
      return false;
    }
    return true;
  }
  if (!ok->as_bool()) {
    *why = "request failed: " + line.substr(0, 160);
    return false;
  }
  const Value* result = doc.find("result");
  if (result == nullptr || !result->is_object()) {
    *why = "response has no result object";
    return false;
  }
  const Value* cached = doc.find("cached");
  switch (kind) {
    case Kind::kHit:
      if (cached == nullptr || !cached->as_bool() || result_bytes(line) != hit->result ||
          doc.find("key") == nullptr || doc.find("key")->as_string() != hit->key) {
        *why = "cache hit bytes differ from warm-up";
        return false;
      }
      return true;
    case Kind::kPing:
      if (result->find("pong") == nullptr) {
        *why = "ping without pong";
        return false;
      }
      return true;
    case Kind::kStats:
      if (result->find("accepted") == nullptr) {
        *why = "stats without a ledger";
        return false;
      }
      return true;
    case Kind::kCold: {
      if (cached == nullptr || cached->as_bool()) {
        *why = "cold compute answered from cache";
        return false;
      }
      const std::string& op = req.at("op").as_string();
      const double n = req.at("n").as_double();
      bool good = true;
      if (op == "layout") {
        const double rows = std::ldexp(1.0, static_cast<int>(n));
        good = result->at("num_nodes").as_double() == (n + 1) * rows &&
               result->at("num_wires").as_double() == 2 * n * rows;
      } else if (op == "census") {
        good = result->at("packets").as_double() == req.at("packets").as_double();
      } else {
        const double load = req.at("offered_load").as_double();
        const double rows = std::ldexp(1.0, static_cast<int>(n));
        const double measured = req.at("cycles").as_double() - req.at("warmup_cycles").as_double();
        const double lat = result->at("avg_latency").as_double();
        good = result->at("delivered").as_double() > 0 && lat >= n &&
               result->at("throughput").as_double() <=
                   load + 6.0 * std::sqrt(load / (rows * measured)) + load * lat / measured;
      }
      if (!good) *why = op + " cold result violates its invariants";
      return good;
    }
    case Kind::kBad:
      break;
  }
  return true;
}

/// Samples and counts one connection's loop produced.
struct LoopStats {
  std::vector<double> hit_us;
  std::vector<double> cold_ms;  ///< sweep colds only: one cost class
  std::vector<double> ping_us;
  std::vector<std::uint32_t> hit_window;   ///< window index of each hit_us sample
  std::vector<std::uint32_t> cold_window;  ///< window index of each cold_ms sample
  std::vector<u64> per_window;             ///< requests completed per window
  std::vector<double> window_last;         ///< last completion in each window (s)
  std::vector<std::string> cold_frames;  ///< some cold sweep inputs sent (for probes)
  u64 hits = 0;
  u64 colds = 0;
  u64 bad = 0;
  u64 requests = 0;
  Ledger ledger;
};

void absorb(LoopStats& into, const LoopStats& s) {
  into.hit_us.insert(into.hit_us.end(), s.hit_us.begin(), s.hit_us.end());
  into.cold_ms.insert(into.cold_ms.end(), s.cold_ms.begin(), s.cold_ms.end());
  into.ping_us.insert(into.ping_us.end(), s.ping_us.begin(), s.ping_us.end());
  into.hit_window.insert(into.hit_window.end(), s.hit_window.begin(), s.hit_window.end());
  into.cold_window.insert(into.cold_window.end(), s.cold_window.begin(), s.cold_window.end());
  if (into.per_window.size() < s.per_window.size()) into.per_window.resize(s.per_window.size());
  if (into.window_last.size() < s.window_last.size()) {
    into.window_last.resize(s.window_last.size());
  }
  for (std::size_t w = 0; w < s.per_window.size(); ++w) {
    into.per_window[w] += s.per_window[w];
    into.window_last[w] = std::max(into.window_last[w], s.window_last[w]);
  }
  const std::size_t room = 96 - std::min<std::size_t>(96, into.cold_frames.size());
  into.cold_frames.insert(into.cold_frames.end(), s.cold_frames.begin(),
                          s.cold_frames.begin() +
                              static_cast<std::ptrdiff_t>(std::min(room, s.cold_frames.size())));
  into.hits += s.hits;
  into.colds += s.colds;
  into.bad += s.bad;
  into.requests += s.requests;
  into.ledger.merge(s.ledger);
}

struct Shared {
  const std::vector<PoolEntry>* pool = nullptr;
  const std::vector<std::string>* layout_cold = nullptr;
  std::atomic<std::size_t> layout_next{0};
  Clock::time_point origin;  ///< start of the measured loop
};

void client_loop(const std::string& socket, u64 seed, std::size_t conn, u64 first_index,
                 Clock::time_point deadline, Shared& shared, Tracer& tracer,
                 std::size_t span_cap, LoopStats& st) {
  Connection c(socket);
  InputRng rng(stream_seed(seed, (first_index << 8) + conn));
  std::string line;
  std::size_t spans = 0;
  for (u64 i = first_index; Clock::now() < deadline; ++i) {
    const double u = rng.uniform();
    Kind kind = Kind::kBad;
    std::string frame;
    const PoolEntry* hit = nullptr;
    bool timed_cold = false;  // cold_p50_ms covers the sweep colds alone
    if (u < kHitShare) {
      kind = Kind::kHit;
      hit = &(*shared.pool)[rng.below(shared.pool->size())];
      frame = hit->frame;
    } else if (u < kHitShare + kColdShare) {
      kind = Kind::kCold;
      const u64 pick = rng.below(20);
      const u64 unique = rng.seed();
      std::size_t layout = shared.layout_cold->size();
      if (pick == 0) layout = shared.layout_next.fetch_add(1);
      if (layout < shared.layout_cold->size()) {
        frame = (*shared.layout_cold)[layout];
      } else if (pick % 2 == 1) {
        frame = cold_sweep_frame(unique);
        timed_cold = true;
        if (st.cold_frames.size() < 32) st.cold_frames.push_back(frame);
      } else {
        frame = cold_census_frame(unique);
      }
    } else if (u < kHitShare + kColdShare + kPingShare) {
      kind = Kind::kPing;
      frame = "{\"op\":\"ping\"}";
    } else if (u < kHitShare + kColdShare + kPingShare + kStatsShare) {
      kind = Kind::kStats;
      frame = "{\"op\":\"stats\"}";
    } else {
      frame = kMalformed[rng.below(4)];
    }
    // The id makes each frame distinct on the wire; it never enters a key.
    if (kind != Kind::kBad) {
      frame.insert(1, "\"id\":\"" + std::to_string(conn) + "-" + std::to_string(i) + "\",");
    }
    const u64 span_id = spans < span_cap ? tracer.begin() : 0;
    const Clock::time_point t0 = Clock::now();
    const bool answered = c.call(frame, &line);
    const Clock::time_point t1 = Clock::now();
    if (spans < span_cap) {
      static const char* const names[] = {"serve.hit", "serve.cold", "serve.ping", "serve.stats",
                                          "serve.malformed"};
      tracer.record(names[static_cast<int>(kind)], span_id, 0, t0, t1, conn + 1, 1);
      ++spans;
    }
    const double us = seconds_between(t0, t1) * 1e6;
    const double done_s = seconds_between(shared.origin, t1);
    const auto window = static_cast<std::uint32_t>(done_s / kWindowSeconds);
    if (st.per_window.size() <= window) {
      st.per_window.resize(window + 1);
      st.window_last.resize(window + 1);
    }
    ++st.per_window[window];
    st.window_last[window] = done_s;
    ++st.requests;
    std::string why = "connection closed";
    bool good = answered;
    if (good) {
      try {
        Value req;
        if (kind == Kind::kCold) req = Value::parse(frame);
        good = response_ok(kind, line, hit, req, &why);
      } catch (const std::exception& e) {  // a member of the wrong type
        why = std::string("malformed response: ") + e.what();
        good = false;
      }
    }
    st.ledger.op(good, why);
    if (!answered) break;
    switch (kind) {
      case Kind::kHit:
        st.hit_us.push_back(us);
        st.hit_window.push_back(window);
        ++st.hits;
        break;
      case Kind::kCold:
        if (timed_cold) {
          st.cold_ms.push_back(us / 1e3);
          st.cold_window.push_back(window);
        }
        ++st.colds;
        break;
      case Kind::kPing:
        st.ping_us.push_back(us);
        break;
      case Kind::kBad:
        ++st.bad;
        break;
      case Kind::kStats:
        break;
    }
  }
}

/// Runs the closed loop on `connections` connections until `deadline`.
LoopStats run_loop(const std::string& socket, u64 seed, std::size_t connections,
                   u64 first_index, Clock::time_point deadline, Shared& shared, Tracer& tracer,
                   std::size_t span_cap) {
  std::vector<LoopStats> per(connections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        client_loop(socket, seed, c, first_index, deadline, shared, tracer, span_cap, per[c]);
      } catch (const std::exception& e) {
        per[c].ledger.check(false, std::string("client: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopStats all;
  for (const LoopStats& s : per) absorb(all, s);
  return all;
}

/// One set-up: spawn bflyd, wait for its listening line and first pong, and
/// warm the hit pool with one cold compute per key.
std::unique_ptr<DaemonProcess> set_up(const Options& opt, const std::string& dir,
                                      std::size_t max_inflight,
                                      const std::vector<std::string>& frames,
                                      std::vector<PoolEntry>* pool, Ledger& ledger) {
  auto d = std::make_unique<DaemonProcess>(opt, dir, max_inflight, frames.size() + 1024);
  Connection c(d->socket());
  std::string line;
  ledger.op(c.call("{\"op\":\"ping\"}", &line) && line.find("\"pong\":true") != std::string::npos,
            "first ping not answered");
  pool->clear();
  for (const std::string& f : frames) {
    const bool answered = c.call(f, &line);
    Value doc;
    bool good = answered;
    try {
      doc = Value::parse(line);
    } catch (const std::exception&) {
      good = false;
    }
    good = good && doc.find("ok") != nullptr && doc.at("ok").as_bool() &&
           !doc.at("cached").as_bool();
    ledger.op(good, "warm-up compute failed: " + f);
    pool->push_back({f, good ? doc.at("key").as_string() : "", result_bytes(line)});
  }
  return d;
}

/// Shuts a daemon down and checks the drain: exit 0 and a balanced final
/// ledger on stderr.
void shut_down(DaemonProcess& d, Ledger& ledger) {
  std::string err;
  const int code = d.terminate(&err);
  ledger.check(code == 0, "bflyd exited with " + std::to_string(code) + " after SIGTERM");
  ledger.check(err.find("bflyd: drained;") != std::string::npos, "bflyd did not report a drain");
}

double us_per_call(const std::function<void()>& body, std::size_t calls) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) body();
    batches.push_back(seconds_since(t0) * 1e6 / static_cast<double>(calls));
  }
  return median(batches);
}

/// In-process calls into the serve layer's public functions, and into the
/// engines under it, on the workload's own inputs.
void layer_probes(const std::vector<PoolEntry>& pool, const std::vector<std::string>& colds,
                  Tracer& tracer, Ledger& ledger, Metrics& metrics) {
  ScopedSpan root(tracer, "serve.layer_probes");
  std::vector<bfly::serve::Request> reqs;
  for (const PoolEntry& e : pool) reqs.push_back(bfly::serve::parse_request_line(e.frame));
  std::size_t k = 0;
  volatile std::size_t sink = 0;
  metrics.set("serve.parse_us", us_per_call([&] {
                sink = sink + bfly::serve::parse_request_line(pool[k++ % pool.size()].frame).n;
              }, 2000), "us");
  metrics.set("serve.key_us", us_per_call([&] {
                sink = sink + bfly::serve::request_key(reqs[k++ % reqs.size()]).size();
              }, 2000), "us");
  metrics.set("serve.envelope_us", us_per_call([&] {
                const PoolEntry& e = pool[k++ % pool.size()];
                sink = sink + bfly::serve::build_response_ok("0-0", e.key, true, e.result).size();
              }, 2000), "us");

  std::vector<double> compute_ms;
  double route_s = 0.0;
  double hops = 0.0;
  u64 delivered = 0;
  for (const std::string& f : colds) {
    const bfly::serve::Request r = bfly::serve::parse_request_line(f);
    ScopedSpan s(tracer, "serve.execute_request", root.id());
    const Value v = bfly::serve::execute_request(r, nullptr, 1);
    compute_ms.push_back(s.finish(1) * 1e3);
    ledger.op(v.is_object(), "in-process compute returned no object");
    if (r.op == bfly::serve::Op::kSweep) {
      ScopedSpan e(tracer, "routing.simulate_saturation", root.id());
      const bfly::SaturationPoint p = bfly::simulate_saturation(
          r.n, r.offered_load, r.cycles, r.seed, r.warmup_cycles, r.queue_capacity);
      route_s += e.finish(p.delivered);
      delivered += p.delivered;
      hops += static_cast<double>(p.delivered) * r.n;
    }
  }
  metrics.set("serve.compute_ms", median(compute_ms), "ms");
  metrics.set("routing.serial.delivered", static_cast<double>(delivered), "count");
  metrics.set("routing.serial.ns_per_hop", hops > 0 ? route_s * 1e9 / hops : 0.0, "ns");

  // Layout and packaging under the pool's layout / packaging keys.
  double plan_s = 0.0;
  double stream_s = 0.0;
  u64 wires = 0;
  double pack_s = 0.0;
  u64 plans = 0;
  for (const bfly::serve::Request& r : reqs) {
    if (r.op == bfly::serve::Op::kLayout) {
      bfly::ButterflyLayoutOptions o;
      o.layers = r.layers;
      ScopedSpan p(tracer, "layout.plan", root.id());
      const bfly::ButterflyLayoutPlan plan(bfly::ButterflyLayoutPlan::choose_parameters(r.n), o);
      plan_s += p.finish(1);
      ScopedSpan m(tracer, "layout.metrics", root.id());
      const bfly::LayoutMetrics lm = plan.metrics();
      stream_s += m.finish(lm.num_wires);
      wires += lm.num_wires;
    } else if (r.op == bfly::serve::Op::kPackaging) {
      bfly::ChipConstraints cc;
      cc.max_offchip_links = r.max_offchip_links;
      cc.chip_side = r.chip_side;
      ScopedSpan p(tracer, "packaging.plan_hierarchical", root.id());
      const bfly::HierarchicalPlan hp = bfly::plan_hierarchical(r.n, cc);
      pack_s += p.finish(hp.num_chips);
      ++plans;
    }
  }
  metrics.set("layout.wires", static_cast<double>(wires), "count");
  metrics.set("layout.plan_ms", plan_s * 1e3, "ms");
  metrics.set("layout.ns_per_wire", stream_s * 1e9 / static_cast<double>(wires), "ns");
  metrics.set("packaging.plans", static_cast<double>(plans), "count");
  metrics.set("packaging.plan_ms", pack_s * 1e3, "ms");
}

/// Quiet quantile over the loop's full windows of each window's percentile.
/// Only windows whose percentile has ten samples beyond it count (a stall of
/// the machine can starve one); the run fails when fewer than kMinWindows do.
double windowed_percentile(const std::vector<double>& v, const std::vector<std::uint32_t>& win,
                           std::size_t windows, double q, const std::string& name,
                           Metrics& metrics, Ledger& ledger) {
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (win[i] < windows) by_window[win[i]].push_back(v[i]);
  }
  std::vector<double> per;
  std::size_t fewest = v.size();
  for (const std::vector<double>& w : by_window) {
    std::size_t beyond = 0;
    const double value = percentile(w, q, &beyond);
    if (beyond < 10) continue;
    per.push_back(value);
    fewest = std::min(fewest, w.size());
  }
  ledger.check(per.size() >= kMinWindows,
               name + ": only " + std::to_string(per.size()) +
                   " windows have ten samples beyond the percentile");
  metrics.note_samples(name, v.size());
  metrics.note_samples(name + ".windows", per.size());
  metrics.note_samples(name + ".fewest_per_window", fewest);
  return quiet_quantile(per);
}

}  // namespace

void run_serve(const Options& opt, Tracer& tracer, Ledger& ledger, Metrics& metrics) {
  // Half the CPUs for connections and half of those for dispatchers: the
  // client, reader and dispatcher threads then fit in half the machine, so a
  // neighbour taking a core or two does not stall the pipeline.
  const std::size_t connections = std::max<std::size_t>(1, opt.nproc / 2);
  const std::size_t max_inflight = std::max<std::size_t>(1, connections / 2);
  const std::vector<std::string> frames = pool_frames(opt.seed);
  const std::vector<std::string> layout_cold = cold_layout_frames(opt.seed);

  std::vector<PoolEntry> pool;
  const std::unique_ptr<DaemonProcess> daemon =
      set_up(opt, "bflyd", max_inflight, frames, &pool, ledger);
  if (opt.setup_only) {
    metrics.set("setup_s", seconds_since(opt.process_start), "s");
    shut_down(*daemon, ledger);
    return;
  }

  Shared shared;
  shared.pool = &pool;
  shared.layout_cold = &layout_cold;
  Tracer off(false, opt.process_start);
  const Clock::time_point start = Clock::now();
  shared.origin = start;
  LoopStats all;
  double rps_untraced = 0.0;
  double rps_traced = 0.0;
  if (!opt.trace) {
    const double loop_seconds = std::max(opt.seconds, kMinWindows * kWindowSeconds);
    all = run_loop(daemon->socket(), opt.seed, connections, 0,
                   start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(loop_seconds)),
                   shared, off, 0);
  } else {
    // Alternating untraced and traced slices: trace.overhead is the ratio of
    // their per-request times.
    const auto slice = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(0.225 * opt.seconds));
    double untraced_s = 0.0;
    double traced_s = 0.0;
    u64 untraced_n = 0;
    u64 traced_n = 0;
    for (u64 k = 0; k < 4; ++k) {
      const bool traced_slice = k % 2 == 1;
      const Clock::time_point t0 = Clock::now();
      LoopStats s = run_loop(daemon->socket(), opt.seed, connections, k << 32, t0 + slice,
                             shared, traced_slice ? tracer : off, traced_slice ? 2500 : 0);
      (traced_slice ? traced_s : untraced_s) += seconds_since(t0);
      (traced_slice ? traced_n : untraced_n) += s.requests;
      absorb(all, s);
    }
    rps_untraced = static_cast<double>(untraced_n) / untraced_s;
    rps_traced = static_cast<double>(traced_n) / traced_s;
  }
  const double loop_s = seconds_since(start);
  ledger.merge(all.ledger);

  // Final ledger through the stats op, with every client idle.
  Value stats;
  {
    Connection c(daemon->socket());
    std::string line;
    ledger.check(c.call("{\"op\":\"stats\"}", &line), "final stats not answered");
    try {
      stats = Value::parse(line).at("result");
    } catch (const std::exception&) {
      ledger.check(false, "final stats does not parse");
    }
  }
  const auto stat = [&stats](const char* name) {
    const Value* v = stats.is_object() ? stats.find(name) : nullptr;
    return v != nullptr && v->is_number() ? v->as_u64() : ~u64{0};
  };
  // The stats request itself is accepted but not yet counted complete.
  ledger.check(stat("accepted") ==
                   stat("completed") + stat("cancelled") + stat("shed") + stat("failed") + 1,
               "final ledger not conserved");
  ledger.check(stat("cache_hits") == all.hits, "cache_hits differs from hits sent");
  ledger.check(stat("cache_misses") == all.colds + pool.size(),
               "cache_misses differs from cold computes sent");
  ledger.check(stat("coalesced") == 0 && stat("shed") == 0 && stat("cancelled") == 0,
               "requests were coalesced, shed or cancelled");
  ledger.check(stat("failed") == all.bad, "failed differs from malformed frames sent");
  const double journal_bytes =
      static_cast<double>(std::filesystem::file_size(daemon->journal()));
  const double rss_mb = vm_hwm_mb(std::to_string(daemon->pid()));
  shut_down(*daemon, ledger);

  if (opt.trace) {
    const double ping = median(all.ping_us);
    metrics.note_samples("serve.ping_rtt_us", all.ping_us.size());
    metrics.set("serve.ping_rtt_us", ping, "us");
    metrics.set("serve.hit_queue_us", median(all.hit_us) - ping, "us");
    layer_probes(pool, all.cold_frames, tracer, ledger, metrics);
    double compute_ms = 0.0;
    for (const Metrics::Entry& e : metrics.entries) {
      if (e.name == "serve.compute_ms") compute_ms = e.value;
    }
    metrics.set("serve.cold_overhead_ms", median(all.cold_ms) - compute_ms - ping / 1e3, "ms");
    metrics.set("serve.hits", static_cast<double>(stat("cache_hits")), "count");
    metrics.set("serve.misses", static_cast<double>(stat("cache_misses")), "count");
    metrics.set("serve.coalesced", static_cast<double>(stat("coalesced")), "count");
    metrics.set("serve.shed", static_cast<double>(stat("shed")), "count");
    metrics.set("serve.cancelled", static_cast<double>(stat("cancelled")), "count");
    metrics.set("serve.hit_ratio",
                static_cast<double>(stat("cache_hits")) /
                    static_cast<double>(stat("cache_hits") + stat("cache_misses")),
                "ratio");
    metrics.set("serve.journal_bytes", journal_bytes, "bytes");
    metrics.set("trace.overhead", rps_untraced / rps_traced, "ratio");
    return;
  }
  // Only windows the loop covered completely.
  const auto windows = static_cast<std::size_t>(loop_s / kWindowSeconds);
  // A window's rate: its completions over the time since the last
  // completion before it, which is exactly the span they fall in.
  std::vector<double> rates;
  double before = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const u64 done = w < all.per_window.size() ? all.per_window[w] : 0;
    rates.push_back(done == 0 ? 0.0 : static_cast<double>(done) / (all.window_last[w] - before));
    if (done > 0) before = all.window_last[w];
  }
  const double rate = quiet_quantile(rates, true);
  metrics.note_samples("req_per_s.windows", rates.size());
  metrics.set("wall_s", kBlockRequests / rate, "s");
  metrics.set("req_per_s", rate, "1/s");
  metrics.set("hit_p50_us", windowed_percentile(all.hit_us, all.hit_window, windows, 0.50,
                                                "hit_p50_us", metrics, ledger),
              "us");
  metrics.set("hit_p99_us", windowed_percentile(all.hit_us, all.hit_window, windows, 0.99,
                                                "hit_p99_us", metrics, ledger),
              "us");
  metrics.set("cold_p50_ms", windowed_percentile(all.cold_ms, all.cold_window, windows, 0.50,
                                                 "cold_p50_ms", metrics, ledger),
              "ms");
  metrics.set("peak_rss_mb", rss_mb, "MiB");
  metrics.set("ok_share", ledger.ok_share(), "share");
}

}  // namespace perfbench
