// Workload `service`: jamelectd started here on an ephemeral port with
// --workers=1 and a one-worker Monte-Carlo pool (JAMELECT_THREADS=1),
// driven by this file's own client over the documented NDJSON line
// protocol. Each round has three phases:
//   1. cold: one connection sends 10 unique-key sweeps (4096 trials at
//      n = 2^16, two per engine path) -- compute plus cache store;
//   2. warm: the same connection replays those keys in one write --
//      parse, key, lookup and the response, ten times;
//   3. mixed: two connections, closed loop, 40 requests each, every
//      tenth a fresh key (miss) and the rest earlier keys (hits).
// Each <path>_slots_per_s is the fastest cold request of that path
// (slots / client latency): per-request medians move with the VM's
// fast and slow phases, the best request does not. round_s is the
// fastest warm phase, the read path end to end with no compute in it.
// Every response is checked for its cache verdict and trace-id echo;
// round 0's cold and warm results are compared byte for byte with the
// same requests computed in-process on the sequential engine.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "jobs.hpp"
#include "service/sweep_runner.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kServiceN = 1u << 16;
constexpr std::size_t kServiceTrials = 4096;
constexpr std::size_t kCold = 10;       ///< per round, two per path
constexpr std::size_t kWarmup = 10;   ///< set-up sweeps, ~0.3 s
constexpr std::size_t kMixedPerConn = 40;
constexpr int kMixedConns = 2;

/// jamelectd as a child process in a directory of its own; stopped
/// (SIGTERM, then SIGKILL) and reaped, and its directory removed, by the
/// destructor.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& tag) {
    // One directory per daemon: a traced run starts several, and each
    // must only ever read its own "listening" line.
    static int started = 0;
    dir_ = opt.work_dir + "/" + tag + "-" + std::to_string(getpid()) + "-" +
           std::to_string(started++);
    const std::string log = dir_ + "/jamelectd.log";
    if (mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) return;
    const std::string exe = opt.bin_dir + "/jamelectd";
    const std::string flight = "--flight=" + dir_ + "/flight";
    // Built before fork: the child only calls async-signal-safe functions.
    // One pool worker (plus the service worker as caller); no manifest.
    std::vector<std::string> env = {"JAMELECT_THREADS=1",
                                    "JAMELECT_MANIFEST=0"};
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "JAMELECT_", 9) != 0) env.emplace_back(*e);
    }
    std::vector<char*> envp;
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    const char* argv[] = {exe.c_str(), "--port=0", "--workers=1",
                          flight.c_str(), nullptr};
    const auto t0 = Clock::now();
    pid_ = fork();
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0 || chdir(dir_.c_str()) != 0) _exit(127);
      dup2(fd, 1);
      dup2(fd, 2);
      execve(exe.c_str(), const_cast<char* const*>(argv), envp.data());
      _exit(127);
    }
    // Wait for "jamelectd listening on HOST:PORT".
    while (pid_ > 0 && seconds_since(t0) < 10.0) {
      std::ifstream in(log);
      std::string line;
      while (std::getline(in, line)) {
        const auto at = line.find("listening on ");
        if (at == std::string::npos) continue;
        const auto colon = line.find(':', at);
        port_ = std::atoi(line.c_str() + colon + 1);
      }
      if (port_ > 0) break;
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      usleep(200);
    }
    start_s_ = seconds_since(t0);
  }
  ~Daemon() {
    stop();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }
  /// Spawn to listening, seconds.
  [[nodiscard]] double start_s() const { return start_s_; }

 private:
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    for (int i = 0; i < 1000; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) return;
      usleep(10'000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }

  std::string dir_;
  pid_t pid_ = -1;
  int port_ = 0;
  double start_s_ = 0.0;
};

/// One persistent NDJSON connection.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string& line) {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char tmp[65536];
      const ssize_t n = recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// One sweep request of the benchmark's traffic.
struct Req {
  Path path = Path::kWide;
  std::uint64_t seed = 1;
};

/// Request seeds stay below 2^53: jamelectd parses integers beyond
/// int64 as doubles and truncates them, so larger seeds alias.
std::uint64_t request_seed(std::uint64_t seed, std::uint64_t a,
                           std::uint64_t b) {
  return mix_seed(seed, a, b) & ((std::uint64_t{1} << 53) - 1);
}

std::string params_json(const Req& r, int batch) {
  const jamelect::AdversarySpec adv = path_adversary(r.path, kServiceN);
  std::ostringstream os;
  os << "{\"protocol\":\"" << (r.path == Path::kLesu ? "lesu" : "lesk")
     << "\",\"engine\":\""
     << (r.path == Path::kHybrid   ? "hybrid"
         : r.path == Path::kCohort ? "cohort"
                                   : "aggregate")
     << "\",\"n\":" << kServiceN << ",\"eps\":" << kEps << ",\"adversary\":\""
     << adv.policy << "\",\"T\":" << kT << ",\"trials\":" << kServiceTrials
     << ",\"seed\":" << r.seed << ",\"max_slots\":" << kMaxSlots
     << ",\"batch\":" << batch << "}";
  return os.str();
}

std::string trace_id(std::uint64_t a, std::uint64_t b) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

/// The fields of a result line the benchmark reads, found by key.
struct Resp {
  bool ok = false;
  std::string cache, trace, result;
  double latency_us = 0.0;
  /// Echoed phases: admission, cache_probe, queue, compute, serialize.
  double timing_us[5] = {};
  double slots = 0.0;        ///< trials x mean slots
};

std::string str_field(const std::string& line, const std::string& key) {
  const std::string k = "\"" + key + "\":\"";
  const auto at = line.find(k);
  if (at == std::string::npos) return "";
  const auto end = line.find('"', at + k.size());
  return line.substr(at + k.size(), end - at - k.size());
}

double num_field(const std::string& line, const std::string& key,
                 std::size_t from = 0) {
  const std::string k = "\"" + key + "\":";
  const auto at = line.find(k, from);
  return at == std::string::npos ? -1.0
                                 : std::strtod(line.c_str() + at + k.size(),
                                               nullptr);
}

std::string request_line(const Req& r, const std::string& trace) {
  return "{\"op\":\"sweep\",\"trace\":\"" + trace +
         "\",\"wait\":true,\"params\":" + params_json(r, 64) + "}\n";
}

/// Reads lines up to the next result line and parses it into `resp`.
void read_result(Conn& conn, Resp& resp) {
  std::string in;
  for (;;) {
    if (!conn.read_line(in)) return;
    const std::string type = str_field(in, "type");
    if (type == "ack" || type == "heartbeat") continue;
    if (type != "result") return;
    break;
  }
  resp.cache = str_field(in, "cache");
  resp.trace = str_field(in, "trace");
  const char* phases[] = {"admission_us", "cache_probe_us", "queue_us",
                          "compute_us", "serialize_us"};
  for (int i = 0; i < 5; ++i) resp.timing_us[i] = num_field(in, phases[i]);
  const auto at = in.find("\"result\":");
  if (at == std::string::npos || in.back() != '}') return;
  resp.result = in.substr(at + 9, in.size() - at - 10);
  const auto slots_at = resp.result.find("\"slots\":{");
  resp.slots = static_cast<double>(kServiceTrials) *
               num_field(resp.result, "mean", slots_at);
  resp.ok = slots_at != std::string::npos;
}

/// One request, one result, timed at the client.
Resp sweep(Conn& conn, const Req& r, const std::string& trace) {
  Resp resp;
  const auto t0 = Clock::now();
  if (!conn.send_line(request_line(r, trace))) return resp;
  read_result(conn, resp);
  resp.latency_us = seconds_since(t0) * 1e6;
  return resp;
}

/// Client latency not spent in the daemon's echoed phases.
double transport_of(const Resp& r) {
  double phases = 0.0;
  for (double t : r.timing_us) phases += t;
  return r.latency_us - phases;
}

/// The same request computed in-process on the sequential engine,
/// serialized the way the protocol documents results.
std::string reference_result(const Req& r) {
  using namespace jamelect::service;
  SweepRequest req;
  req.protocol = r.path == Path::kLesu ? "lesu" : "lesk";
  req.engine = r.path == Path::kHybrid   ? "hybrid"
               : r.path == Path::kCohort ? "cohort"
                                         : "aggregate";
  req.n = kServiceN;
  req.eps = kEps;
  req.adversary = path_adversary(r.path, kServiceN).policy;
  req.T = kT;
  req.trials = kServiceTrials;
  req.seed = r.seed;
  req.max_slots = kMaxSlots;
  req.batch = 0;
  RunnerConfig runner;
  runner.mc_parallel = false;
  return mc_result_to_json(run_sweep(req, runner)).dump();
}

}  // namespace

bool run_service(const Options& opt, Result& result) {
  Daemon daemon(opt, "service");
  if (daemon.port() <= 0) {
    std::cerr << "perfbench: jamelectd did not start\n";
    return false;
  }
  Conn conn(daemon.port());
  if (!conn.ok()) return false;
  // Warm-up (part of set-up): two sweeps per path on keys no round uses.
  for (std::size_t i = 0; i < kWarmup; ++i) {
    const Req r{kPaths[i % kPaths.size()], request_seed(opt.seed, 7, i)};
    if (!sweep(conn, r, trace_id(7, i + 1)).ok) return false;
  }
  result.put("setup_s", setup_seconds(), "s", 1);

  std::vector<Req> stored;  // every key the cache holds, for hits
  std::vector<double> cold_us, hit_us, transport_us, warm_s, mixed_rps;
  std::vector<double> timing[5];
  std::vector<std::pair<Req, Resp>> sampled;
  std::vector<std::vector<double>> req_rate(kPaths.size());
  std::uint64_t fresh = 0;  // index of the next miss key
  const auto start = Clock::now();
  std::uint64_t round = 0;
  do {
    std::vector<Req> cold(kCold);
    std::uint64_t round_slots = 0;
    for (std::size_t i = 0; i < kCold; ++i) {
      cold[i] =
          Req{kPaths[i % kPaths.size()], request_seed(opt.seed, 1, fresh++)};
      const std::string tid = trace_id(round + 100, i + 1);
      const Resp resp = sweep(conn, cold[i], tid);
      result.check(resp.ok && resp.cache == "miss" && resp.trace == tid,
                   "cold sweep answered as a traced miss");
      cold_us.push_back(resp.latency_us);
      const auto pi = static_cast<std::size_t>(cold[i].path);
      req_rate[pi].push_back(resp.slots / (resp.latency_us * 1e-6));
      round_slots += static_cast<std::uint64_t>(resp.slots);
      for (int k = 0; k < 5; ++k) timing[k].push_back(resp.timing_us[k]);
      if (round == 0) sampled.emplace_back(cold[i], resp);
    }
    // Warm phase: the same keys again, sent in one write, so the time is
    // the daemon's read path rather than ten scheduler wake-ups.
    std::string burst;
    std::vector<std::string> tids(kCold);
    for (std::size_t i = 0; i < kCold; ++i) {
      tids[i] = trace_id(round + 200, i + 1);
      burst += request_line(cold[i], tids[i]);
    }
    std::vector<Resp> warm(kCold);
    const auto t_warm = Clock::now();
    if (conn.send_line(burst)) {
      for (Resp& resp : warm) read_result(conn, resp);
    }
    warm_s.push_back(seconds_since(t_warm));
    for (std::size_t i = 0; i < kCold; ++i) {
      result.check(warm[i].ok && warm[i].cache == "hit" &&
                       warm[i].trace == tids[i],
                   "warm sweep answered as a traced hit");
      if (round == 0) sampled.emplace_back(cold[i], warm[i]);
    }
    stored.insert(stored.end(), cold.begin(), cold.end());

    // Mixed phase: misses take pre-assigned fresh keys so the two
    // connections never race on one key.
    std::vector<Req> misses(kMixedConns * kMixedPerConn / 10);
    for (Req& m : misses) {
      m = Req{kPaths[fresh % kPaths.size()], request_seed(opt.seed, 1, fresh)};
      ++fresh;
    }
    std::vector<std::vector<char>> good(kMixedConns,
                                       std::vector<char>(kMixedPerConn, 0));
    std::vector<std::vector<Resp>> hits(kMixedConns);
    const auto t_mixed = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kMixedConns; ++c) {
      clients.emplace_back([&, c] {
        Conn own(daemon.port());
        Conn& cx = c == 0 ? conn : own;
        for (std::size_t j = 0; j < kMixedPerConn; ++j) {
          const bool miss = j % 10 == 9;
          const Req r =
              miss ? misses[static_cast<std::size_t>(c) * kMixedPerConn / 10 +
                            j / 10]
                   : stored[mix_seed(opt.seed, round, c * 1000 + j) %
                            stored.size()];
          const std::string tid = trace_id(round + 300 + c, j + 1);
          const Resp resp = sweep(cx, r, tid);
          good[c][j] = resp.ok && resp.trace == tid &&
                       resp.cache == (miss ? "miss" : "hit");
          if (!miss) hits[c].push_back(resp);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    mixed_rps.push_back(static_cast<double>(kMixedConns * kMixedPerConn) /
                        seconds_since(t_mixed));
    for (const auto& per_conn : good) {
      for (const char ok : per_conn) {
        result.check(ok != 0, "mixed sweep answered with the expected verdict");
      }
    }
    for (const auto& per_conn : hits) {
      for (const Resp& resp : per_conn) {
        hit_us.push_back(resp.latency_us);
        transport_us.push_back(transport_of(resp));
      }
    }
    stored.insert(stored.end(), misses.begin(), misses.end());
    if (round == 0) result.round_slots = round_slots;
    ++round;
  } while (seconds_since(start) < opt.seconds);

  // Byte-for-byte check of round 0 against in-process sequential runs.
  for (const auto& [req, resp] : sampled) {
    result.check(resp.result == reference_result(req),
                 "result bytes equal the in-process sequential run");
  }

  for (std::size_t pi = 0; pi < kPaths.size(); ++pi) {
    result.put(std::string(path_name(kPaths[pi])) + "_slots_per_s",
               quantile(req_rate[pi], 1.0), "slots/s", req_rate[pi].size());
  }
  result.put("round_s", quantile(warm_s, 0.0), "s", warm_s.size());

  // Per-layer figures of the same run (reported by traced runs).
  result.put("service.warm_p50_us", median(hit_us), "us", hit_us.size());
  result.put("service.warm_p99_us", quantile(hit_us, 0.99), "us",
             hit_us.size());
  result.put("service.cold_p50_ms", median(cold_us) / 1000.0, "ms",
             cold_us.size());
  result.put("service.cold_p99_ms", quantile(cold_us, 0.99) / 1000.0, "ms",
             cold_us.size());
  result.put("service.mixed_rps", median(mixed_rps), "req/s",
             mixed_rps.size());
  result.put("service.transport_us", median(transport_us), "us",
             transport_us.size());
  result.put("service.setup_ms", daemon.start_s() * 1000.0, "ms", 1);
  const char* names[] = {"admission", "cache_probe", "queue", "compute",
                         "serialize"};
  for (int k = 0; k < 5; ++k) {
    result.put(std::string("service.daemon.") + names[k] + "_us",
               mean(timing[k]), "us", timing[k].size());
  }
  return true;
}

}  // namespace perfbench
