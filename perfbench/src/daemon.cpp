// The daemon workload, verify_resident: an in-process flashmarkd
// (serve::Server) with its whole population resident, driven over its Unix
// socket by 3 closed-loop connections of one load-generator thread over 2
// workers — serve -> core -> flash do the work and the store only hits.
//
// The op list is fixed by (seed, seconds). Verifies walk whole rounds: each
// round is a seeded permutation of the population, and consecutive rounds
// keep two verifies of one die at least `gap` ops apart, so no two in-flight
// verifies share a die. With a gap above a small residency the same kind of
// order defeats the LRU, which is how the traced run replays the store's
// miss path.
#include <malloc.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "core/watermark.hpp"
#include "fleet/fleet.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "session/resumable.hpp"
#include "store/die_store.hpp"
#include "timing_hal.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace flashmark;

namespace {

/// Population imprint depth: the production recipe of bench/serve_bench.
constexpr std::uint32_t kPopulationNpe = 60'000;
/// Enroll depth of the session replay: the daemon default
/// (ServerConfig::default_npe).
constexpr std::uint32_t kEnrollNpe = 4'000;
constexpr std::uint32_t kDeadlineMs = 20'000;
constexpr std::size_t kConns = 3;
constexpr unsigned kWorkers = 2;
/// The store's miss path, replayed in the traced run: a residency of 8,
/// durable as Server::start configures it, under an order whose gap puts
/// more than 8 other dies between two pins of one die.
constexpr std::size_t kSpillResident = 8;
constexpr std::size_t kSpillGap = kSpillResident + 2;
constexpr std::size_t kSpillPins = 48;
constexpr std::size_t kSessionReplays = 3;

/// 1 200 verifies/s (a 4-vCPU host does 1 000-2 300). Every die is verified
/// once to warm up plus `rounds` times timed: 147 extra P/E cycles on a
/// 60 000-cycle imprint, far below the wear cliff (~1 000).
struct Plan {
  std::size_t rounds = 48;
  std::size_t dies = 0;

  explicit Plan(double seconds)
      : dies(std::max<std::size_t>(
            32, static_cast<std::size_t>(1'200.0 * seconds / 48.0))) {}
};

/// rounds+1 seeded permutations of `dies` back to back, with every die's
/// consecutive visits >= gap ops apart.
std::vector<std::uint32_t> verify_order(std::size_t dies, std::size_t rounds,
                                        std::size_t gap, std::uint64_t seed) {
  if (dies < 2 * gap)
    throw std::invalid_argument("verify_order: population under 2x gap");
  Rng rng(seed);
  std::vector<std::uint32_t> order, prev_pos(dies, 0), perm(dies);
  for (std::size_t r = 0; r <= rounds; ++r) {
    for (int attempt = 0;; ++attempt) {
      if (attempt == 100'000)
        throw std::runtime_error("verify_order: no valid permutation");
      for (std::size_t i = 0; i < dies; ++i)
        perm[i] = static_cast<std::uint32_t>(i);
      for (std::size_t i = dies - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.uniform_u64(i + 1)]);
      bool ok = true;
      for (std::size_t q = 0; r > 0 && q < gap && ok; ++q)
        ok = (dies - prev_pos[perm[q]]) + q >= gap;
      if (ok) break;
    }
    for (std::size_t i = 0; i < dies; ++i)
      prev_pos[perm[i]] = static_cast<std::uint32_t>(i);
    order.insert(order.end(), perm.begin(), perm.end());
  }
  return order;
}

/// The spec Server::spec_for journals for an enroll of `die` at `npe`.
WatermarkSpec die_spec(const serve::ServerConfig& cfg, std::size_t die,
                       std::uint32_t npe) {
  WatermarkSpec spec;
  spec.fields.manufacturer_id = cfg.manufacturer_id;
  spec.fields.die_id = static_cast<std::uint32_t>(die);
  spec.fields.speed_grade = cfg.speed_grade;
  spec.fields.status = TestStatus::kAccept;
  spec.fields.date_code = cfg.date_code;
  spec.key = cfg.key;
  spec.n_replicas = cfg.n_replicas;
  spec.npe = npe;
  spec.accelerated = true;
  spec.ecc = cfg.verify.ecc;
  spec.max_retries = cfg.verify.max_retries;
  return spec;
}

/// One verify, as the client saw it.
struct OpRec {
  std::uint64_t die = 0;
  bool ok = false;
  Clock::time_point send{}, recv{};
  std::string canon;  ///< the response, canonically rendered
};

std::string canon_response(const serve::Response& rs) {
  if (rs.status != serve::Status::kOk)
    return std::string("status=") + serve::to_string(rs.status);
  const WatermarkFields f = rs.fields.value_or(WatermarkFields{});
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s|%u|%u|%u|%u|%u|%s|%s|%llu|%u|%llu",
                to_string(rs.verdict), unsigned(f.manufacturer_id),
                unsigned(f.die_id), unsigned(f.speed_grade),
                unsigned(f.status), unsigned(f.date_code),
                exact(rs.zero_fraction).c_str(),
                exact(rs.replica_disagreement).c_str(),
                static_cast<unsigned long long>(rs.extract_ns),
                unsigned(rs.ecc_corrected),
                static_cast<unsigned long long>(rs.retries));
  return buf;
}

/// The output check of one verify.
bool response_ok(const serve::Request& rq, const serve::Response& rs) {
  return rs.status == serve::Status::kOk && rs.op == rq.op &&
         rs.request_id == rq.request_id && rs.verdict == Verdict::kGenuine &&
         rs.fields && rs.fields->die_id == rq.die;
}

/// The measured window of one drive() call.
struct Window {
  Clock::time_point t0{}, t1{};
  double process_cpu_ms = 0.0;  ///< all threads (daemon + load generator)
  double client_cpu_ms = 0.0;   ///< the load generator's thread only
  HostTicks h0, h1;

  double daemon_cpu_ms() const { return process_cpu_ms - client_cpu_ms; }
  double wall_s() const { return s_between(t0, t1); }
};

/// One client connection of the load generator.
struct Conn {
  int fd = -1;
  serve::FrameParser parser;
  std::size_t op = 0;  ///< index of the request in flight
  bool busy = false;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0)
      off += static_cast<std::size_t>(n);
    else if (n < 0 && errno != EINTR && errno != EAGAIN)
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
  }
}

/// Walk `ops` to the end over kConns closed-loop connections: each sends
/// the next request of the list as soon as its previous verdict arrived.
/// The load generator is this one thread, spinning over non-blocking
/// receives. A generator that slept between verdicts would halt its vCPU;
/// on a shared VM every halt-to-wake is hypervisor steal, which swamps the
/// latency being measured (a ping-pong over a pipe sees several times the
/// steal of a busy loop on the same host).
Window drive(const std::string& endpoint,
             const std::vector<serve::Request>& ops,
             std::vector<OpRec>& recs) {
  recs.assign(ops.size(), OpRec{});
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t c = 0; c < kConns; ++c) {
    auto conn = std::make_unique<Conn>();
    std::string err;
    conn->fd = serve::connect_endpoint(endpoint, &err);
    if (conn->fd < 0) throw std::runtime_error(err);
    conns.push_back(std::move(conn));
  }
  Window w;
  w.h0 = HostTicks::now();
  const double cpu0 = process_cpu_ms();
  const double client0 = thread_cpu_ms();
  w.t0 = Clock::now();
  std::size_t next = 0, in_flight = 0;
  char buf[4096];
  for (;;) {
    for (auto& c : conns) {
      if (c->busy || next == ops.size()) continue;
      c->op = next++;
      c->busy = true;
      ++in_flight;
      recs[c->op].die = ops[c->op].die;
      recs[c->op].send = Clock::now();
      send_all(c->fd, serve::encode_request_frame(ops[c->op]));
    }
    if (in_flight == 0) break;
    bool received = false;
    for (auto& c : conns) {
      if (!c->busy) continue;
      const ssize_t n = ::recv(c->fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n == 0) throw std::runtime_error("daemon closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          continue;
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
      received = true;
      c->parser.feed(buf, static_cast<std::size_t>(n));
      std::string body;
      const serve::FrameParser::State st = c->parser.next(&body);
      if (st == serve::FrameParser::State::kNeedMore) continue;
      const Clock::time_point now = Clock::now();
      std::optional<serve::Response> rs;
      if (st == serve::FrameParser::State::kFrame)
        rs = serve::decode_response_body(body);
      if (!rs) throw std::runtime_error("corrupt response frame");
      OpRec& r = recs[c->op];
      r.recv = now;
      r.ok = response_ok(ops[c->op], *rs);
      r.canon = canon_response(*rs);
      c->busy = false;
      --in_flight;
    }
    // Nothing arrived: let a runnable daemon thread on this vCPU go first.
    if (!received) sched_yield();
  }
  w.t1 = Clock::now();
  w.client_cpu_ms = thread_cpu_ms() - client0;
  w.process_cpu_ms = process_cpu_ms() - cpu0;
  w.h1 = HostTicks::now();
  return w;
}

/// What the traced HAL saw of one verify: created after the handler took
/// the die lock and pin, destroyed when verify_watermark returned.
struct CoreSpan {
  std::uint64_t die = 0;
  Clock::time_point begin{}, end{};
  HalTimes hal;
};

class SpanLog {
 public:
  void push(CoreSpan s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }
  std::vector<CoreSpan> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<CoreSpan> spans_;
};

/// Installed through ServerConfig::counterfeit_hal, which the daemon calls
/// after the die lock and pin: a timing decorator that never alters what
/// the die answers.
class TracedVerifyHal final : public TimingHal {
 public:
  TracedVerifyHal(FlashHal& inner, std::uint64_t die, SpanLog& log)
      : TimingHal(inner), log_(log) {
    span_.die = die;
    span_.begin = Clock::now();
  }
  ~TracedVerifyHal() override {
    span_.end = Clock::now();
    span_.hal = times();
    log_.push(span_);
  }
  TracedVerifyHal(const TracedVerifyHal&) = delete;
  TracedVerifyHal& operator=(const TracedVerifyHal&) = delete;

 private:
  SpanLog& log_;
  CoreSpan span_;
};

serve::ServerConfig make_config(const Plan& p, std::uint64_t master,
                                const std::string& dir, SpanLog* log) {
  serve::ServerConfig cfg;
  cfg.socket_path = dir + "/d.sock";
  cfg.data_dir = dir + "/data";
  cfg.workers = kWorkers;
  cfg.queue_capacity = 64;
  cfg.max_connections = 16;
  cfg.max_dies = p.dies;
  cfg.max_resident = p.dies;
  cfg.master_seed = master;
  cfg.max_deadline_ms = kDeadlineMs;
  // The production incoming-inspection recipe (bench/serve_bench).
  cfg.verify.t_pew = SimTime::us(30);
  cfg.verify.rounds = 3;
  cfg.verify.n_reads = 3;
  // Hamming(15,11): without it about one die in 2 500 reads unreadable on
  // some verifies of this recipe (seed 1, die 55: verifies 0 and 22 of 25)
  // — the detection rate lot_study measures, not a serving fault, and a
  // correct run must have zero failed verifies.
  cfg.verify.ecc = true;
  if (log)
    cfg.counterfeit_hal = [log](FlashHal& inner, std::uint64_t die) {
      return std::unique_ptr<FlashHal>(
          std::make_unique<TracedVerifyHal>(inner, die, *log));
    };
  return cfg;
}

store::DieStoreConfig population_store(const serve::ServerConfig& cfg,
                                       std::size_t max_resident) {
  store::DieStoreConfig sc;
  sc.dir = cfg.data_dir + "/dies";
  sc.device = cfg.device;
  sc.max_resident = max_resident;
  const std::uint64_t master = cfg.master_seed;
  sc.seed_of = [master](std::size_t die) {
    return fleet::derive_die_seed(master, die);
  };
  return sc;
}

/// Imprint the population straight into the daemon's store directory (the
/// daemon discovers the die files at start()), with the fast batch-wear
/// strategy like bench/serve_bench. The store spills as it goes, so set-up
/// never holds the population in memory: the run's peak RSS is the
/// daemon's own.
void populate(const serve::ServerConfig& cfg, std::size_t dies) {
  store::DieStoreConfig sc = population_store(cfg, 16);
  fs::create_directories(sc.dir);
  store::DieStore store(sc);
  fleet::FleetOptions fo;
  fo.threads = 3;
  const fleet::ImprintBatchResult r = fleet::imprint_batch(
      store, dies, cfg.segment,
      [&cfg](std::size_t die) {
        WatermarkSpec spec = die_spec(cfg, die, kPopulationNpe);
        spec.strategy = ImprintStrategy::kBatchWear;
        return spec;
      },
      fo);
  for (const auto& row : r.fleet.dies)
    if (row.failed)
      throw std::runtime_error("populate: die " + std::to_string(row.die) +
                               " failed to imprint");
  const IoStatus st = store.flush_all();
  if (!st.ok) throw std::runtime_error("populate: flush: " + st.error);
}

std::vector<serve::Request> verify_requests(
    const std::vector<std::uint32_t>& order, std::size_t begin,
    std::size_t end) {
  std::vector<serve::Request> ops;
  for (std::size_t i = begin; i < end; ++i) {
    serve::Request rq;
    rq.request_id = i + 1;
    rq.op = serve::Op::kVerify;
    rq.die = order[i];
    rq.deadline_ms = kDeadlineMs;
    ops.push_back(rq);
  }
  return ops;
}

/// One daemon with its population, set up and warmed.
struct Instance {
  std::string dir;
  serve::ServerConfig cfg;
  std::unique_ptr<serve::Server> server;
  double populate_s = 0.0;
  double start_s = 0.0;
  double warm_s = 0.0;
  std::vector<OpRec> warm;

  double setup_s() const { return populate_s + start_s + warm_s; }
};

Instance set_up(const Plan& p, std::uint64_t master,
                const std::vector<std::uint32_t>& order,
                const std::string& dir, SpanLog* log) {
  Instance in;
  in.dir = dir;
  remove_tree(dir);
  fs::create_directories(dir);
  in.cfg = make_config(p, master, dir, log);
  const Clock::time_point t0 = Clock::now();
  populate(in.cfg, p.dies);
  const Clock::time_point t1 = Clock::now();
  in.server = std::make_unique<serve::Server>(in.cfg);
  in.server->start();
  const Clock::time_point t2 = Clock::now();
  // Warm-up: round 0 of the order, so every die is resident before timing.
  drive(in.cfg.socket_path, verify_requests(order, 0, p.dies), in.warm);
  const Clock::time_point t3 = Clock::now();
  in.populate_s = s_between(t0, t1);
  in.start_s = s_between(t1, t2);
  in.warm_s = s_between(t2, t3);
  return in;
}

/// Drain the daemon (every dirty die reaches disk) and, unless the caller
/// still needs the data directory, remove it.
void tear_down(Instance& in, std::vector<std::string>& errors,
               bool keep_dir = false) {
  if (!in.server) return;
  in.server->request_drain();
  if (in.server->wait() != 0)
    errors.push_back("daemon drain did not flush every die");
  in.server.reset();
  // Hand the freed population back to the OS, so the next instance's peak
  // RSS is its own and not stacked on this one's allocator leftovers.
  malloc_trim(0);
  if (!keep_dir) remove_tree(in.dir);
}

/// The timed phase of one instance and what it measured.
struct Pass {
  std::vector<serve::Request> ops;
  std::vector<OpRec> recs;
  Window w;
  serve::ServerStats serve0, serve1;
  store::DieStoreStats store0, store1;
  std::string digest;
  std::uint64_t attempted = 0, failed = 0;

  std::vector<double> latency_ms() const {
    std::vector<double> v;
    for (const OpRec& r : recs) v.push_back(ms_between(r.send, r.recv));
    return v;
  }
  double hit_ratio() const {
    const double hits = double(store1.hits - store0.hits);
    const double pins = hits + double(store1.misses - store0.misses);
    return pins > 0 ? hits / pins : 0.0;
  }
};

Pass run_pass(const Plan& p, const std::vector<std::uint32_t>& order,
              Instance& in) {
  Pass pass;
  pass.ops = verify_requests(order, p.dies, order.size());
  pass.serve0 = in.server->stats();
  pass.store0 = in.server->store().stats();
  pass.w = drive(in.cfg.socket_path, pass.ops, pass.recs);
  pass.serve1 = in.server->stats();
  pass.store1 = in.server->store().stats();

  // Per-die sorted digest: verifies of one die are serialized by the die
  // lock, so the k-th verify of a die answers the same bytes on every run
  // whichever connection sent it.
  std::map<std::uint64_t, std::vector<std::string>> by_die;
  for (const auto* recs : {&in.warm, &pass.recs})
    for (const OpRec& r : *recs) {
      ++pass.attempted;
      if (!r.ok && ++pass.failed <= 5)
        std::printf("# failed verify of die %llu: %s\n",
                    static_cast<unsigned long long>(r.die), r.canon.c_str());
      by_die[r.die].push_back(r.canon);
    }
  Digest d;
  for (auto& [die, lines] : by_die) {
    std::sort(lines.begin(), lines.end());
    d.add("die " + std::to_string(die));
    for (const std::string& l : lines) d.add(l);
  }
  pass.digest = d.hex();
  return pass;
}

void print_pass(const char* tag, const Pass& pass) {
  const std::vector<double> v = pass.latency_ms();
  std::printf(
      "# %s: %zu verifies in %.3f s, %.1f verifies/s, p50 %.3f ms, p99 "
      "%.3f ms (%zu samples), daemon cpu %.3f ms/op, store hit ratio %.4f, "
      "digest %s\n",
      tag, v.size(), pass.w.wall_s(), double(v.size()) / pass.w.wall_s(),
      median(v), percentile(v, 99.0), v.size(),
      pass.w.daemon_cpu_ms() / double(v.size()), pass.hit_ratio(),
      pass.digest.c_str());
}

/// DieStore::pin replayed below the daemon, on the data directory it left:
/// the miss path at residency 8, durable like the daemon's store, over an
/// LRU-defeating order of the same population. Every pinned die is
/// verified (as the daemon does), which dirties it, so each timed pin loads
/// a v3 file and evicts a dirty die with an fsync'd save.
struct PinReplay {
  double pin_ms = 0.0;
  double loads_per_op = 0.0;
  double eviction_saves_per_op = 0.0;
};

PinReplay replay_spill_pins(const Plan& p, const serve::ServerConfig& cfg,
                            std::uint64_t seed) {
  store::DieStoreConfig sc = population_store(cfg, kSpillResident);
  sc.durable = true;
  store::DieStore store(sc);
  VerifyOptions vo = cfg.verify;
  vo.key = cfg.key;
  vo.n_replicas = cfg.n_replicas;
  const std::vector<std::uint32_t> order =
      verify_order(p.dies, 1, kSpillGap, seed);
  std::vector<double> ms;
  store::DieStoreStats s0{};
  for (std::size_t i = 0; i < kSpillResident + kSpillPins; ++i) {
    if (i == kSpillResident) s0 = store.stats();  // the store is full
    const Clock::time_point t0 = Clock::now();
    store::DieStore::PinnedDie pin = store.pin(order[i]);
    if (i >= kSpillResident) ms.push_back(ms_between(t0, Clock::now()));
    (void)verify_watermark(
        pin->hal(), pin->config().geometry.segment_base(cfg.segment), vo);
  }
  const store::DieStoreStats s1 = store.stats();
  PinReplay r;
  r.pin_ms = median(ms);
  r.loads_per_op = double(s1.loads - s0.loads) / double(kSpillPins);
  r.eviction_saves_per_op =
      double(s1.eviction_saves - s0.eviction_saves) / double(kSpillPins);
  return r;
}

/// Journaled enroll (session::run_imprint_session with the daemon's session
/// settings) against a plain imprint of the same die, on die ids past the
/// population.
void replay_sessions(const Plan& p, const serve::ServerConfig& cfg,
                     const std::string& dir, double* enroll_ms,
                     double* journal_ms) {
  std::vector<double> enroll, journal;
  for (std::size_t j = 0; j < kSessionReplays; ++j) {
    const std::size_t die = p.dies + j;
    const WatermarkSpec spec = die_spec(cfg, die, kEnrollNpe);
    const std::uint64_t seed = fleet::derive_die_seed(cfg.master_seed, die);
    Device dev(cfg.device, seed);
    const auto& g = dev.config().geometry;
    const Addr addr = g.segment_base(cfg.segment);
    const EncodedWatermark enc =
        encode_watermark(spec, g.segment_cells(cfg.segment));
    session::SessionConfig scfg;
    scfg.checkpoint_every = cfg.checkpoint_every;
    scfg.durable = true;
    scfg.accelerated = spec.accelerated;
    scfg.max_retries = spec.max_retries;
    const std::string sdir = dir + "/session-" + std::to_string(j);
    const Clock::time_point t0 = Clock::now();
    session::run_imprint_session(sdir, dev, addr, enc.segment_pattern,
                                 kEnrollNpe, scfg);
    const double session_ms = ms_between(t0, Clock::now());
    remove_tree(sdir);

    Device plain(cfg.device, seed);
    const Clock::time_point t1 = Clock::now();
    imprint_watermark(plain.hal(), addr, spec);
    const double plain_ms = ms_between(t1, Clock::now());
    enroll.push_back(session_ms);
    journal.push_back(session_ms - plain_ms);
  }
  *enroll_ms = median(enroll);
  *journal_ms = median(journal);
}

}  // namespace

Result run_verify_resident(const Args& args) {
  const Plan p(args.seconds);
  Result res;
  res.busy_threads = kWorkers + 1;  // + the load generator
  const std::uint64_t master = master_seed_of(args.seed);
  const std::vector<std::uint32_t> order =
      verify_order(p.dies, p.rounds, kConns + 1, master);
  std::printf("# verify_resident: %zu dies, %zu timed verifies/die over %zu "
              "connections, %u workers\n",
              p.dies, p.rounds, kConns, kWorkers);

  // Untraced pass. Trace-off runs set up kSetupRepeats times (setup_s is
  // the median) and time the last instance.
  std::vector<double> setup_s;
  Instance in;
  for (int s = 0; s < (args.trace ? 1 : kSetupRepeats); ++s) {
    tear_down(in, res.errors);
    in = set_up(p, master, order, "untraced", nullptr);
    setup_s.push_back(in.setup_s());
  }
  const Pass pass = run_pass(p, order, in);
  tear_down(in, res.errors);
  print_pass("untraced", pass);
  if (pass.hit_ratio() != 1.0)
    res.errors.push_back("store hit ratio " +
                         std::to_string(pass.hit_ratio()) +
                         ", must be 1: the population is not resident");
  check_reference(args, "verify_resident." + reference_key(args) + ".ref",
                  "digest " + pass.digest + "\nverifies " +
                      std::to_string(pass.ops.size()) + "\n",
                  res.errors);

  res.attempted = pass.attempted;
  res.failed = pass.failed;
  res.steal_pct = steal_pct(pass.w.h0, pass.w.h1);
  const std::vector<double> lat = pass.latency_ms();
  res.add(res.end_to_end, "setup_s", median(setup_s), "s");
  res.add(res.end_to_end, "latency_p50_ms", median(lat), "ms");
  res.add(res.end_to_end, "cpu_ms_per_op",
          pass.w.daemon_cpu_ms() / double(lat.size()), "ms");
  if (!args.trace) {
    res.add(res.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  // Traced pass: same seed, fresh instance, timing decorator installed.
  SpanLog log;
  Instance tin = set_up(p, master, order, "traced", &log);
  (void)log.take();  // warm-up spans
  const Pass tpass = run_pass(p, order, tin);
  const std::vector<CoreSpan> spans = log.take();
  tear_down(tin, res.errors, /*keep_dir=*/true);
  print_pass("traced", tpass);
  res.attempted += tpass.attempted;
  res.failed += tpass.failed;
  if (tpass.digest != pass.digest)
    res.errors.push_back("traced digest " + tpass.digest +
                         " differs from untraced " + pass.digest);

  // Match each timed verify to its core span: the hook sees the die, not
  // the request_id, so the k-th span of a die belongs to the k-th verify
  // sent for it (the order keeps verifies of one die apart; the time check
  // below proves it).
  std::map<std::uint64_t, std::vector<const OpRec*>> ops_by_die;
  for (const OpRec& r : tpass.recs) ops_by_die[r.die].push_back(&r);
  std::map<std::uint64_t, std::vector<const CoreSpan*>> spans_by_die;
  for (const CoreSpan& s : spans) spans_by_die[s.die].push_back(&s);
  std::vector<double> pre, post, core, self, erase, perase, program, read,
      cmds;
  for (auto& [die, ops] : ops_by_die) {
    std::vector<const CoreSpan*>& ss = spans_by_die[die];
    if (ss.size() != ops.size()) {
      res.errors.push_back("trace: die " + std::to_string(die) + " has " +
                           std::to_string(ss.size()) + " spans for " +
                           std::to_string(ops.size()) + " verifies");
      continue;
    }
    std::sort(ops.begin(), ops.end(),
              [](auto* a, auto* b) { return a->send < b->send; });
    std::sort(ss.begin(), ss.end(),
              [](auto* a, auto* b) { return a->begin < b->begin; });
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const OpRec& r = *ops[k];
      const CoreSpan& s = *ss[k];
      if (s.begin < r.send || s.end > r.recv) {
        res.errors.push_back("trace: span of die " + std::to_string(die) +
                             " outside its request");
        continue;
      }
      const double v = ms_between(s.begin, s.end);
      pre.push_back(ms_between(r.send, s.begin));
      post.push_back(ms_between(s.end, r.recv));
      core.push_back(v);
      self.push_back(v - s.hal.total_ms());
      erase.push_back(s.hal.erase_ms);
      perase.push_back(s.hal.partial_erase_ms);
      program.push_back(s.hal.program_ms);
      read.push_back(s.hal.read_ms);
      cmds.push_back(double(s.hal.cmds));
    }
  }

  // Replays below the daemon, on the data directory it left behind.
  const PinReplay pins = replay_spill_pins(p, tin.cfg, master);
  double enroll_ms = 0.0, journal_ms = 0.0;
  replay_sessions(p, tin.cfg, tin.dir, &enroll_ms, &journal_ms);
  remove_tree(tin.dir);

  const std::vector<double> tlat = tpass.latency_ms();
  auto& L = res.per_layer;
  res.add(L, "serve.pre_ms", median(pre), "ms");
  res.add(L, "serve.post_ms", median(post), "ms");
  res.add(L, "serve.shed",
          double(tpass.serve1.overloaded - tpass.serve0.overloaded), "count");
  res.add(L, "serve.failed", double(tpass.serve1.failed - tpass.serve0.failed),
          "count");
  res.add(L, "serve.start_s", tin.start_s, "s");
  res.add(L, "serve.verifies_per_s", double(lat.size()) / pass.w.wall_s(),
          "1/s");
  res.add(L, "serve.latency_p99_ms", percentile(lat, 99.0), "ms");
  res.add(L, "serve.latency_n", double(lat.size()), "count");
  res.add(L, "core.verify_ms", median(core), "ms");
  res.add(L, "core.self_ms", median(self), "ms");
  res.add(L, "flash.erase_ms", median(erase), "ms");
  res.add(L, "flash.partial_erase_ms", median(perase), "ms");
  res.add(L, "flash.program_ms", median(program), "ms");
  res.add(L, "flash.read_ms", median(read), "ms");
  res.add(L, "flash.cmds_per_op", median(cmds), "count");
  res.add(L, "store.hit_ratio", tpass.hit_ratio(), "ratio");
  res.add(L, "store.pin_ms", pins.pin_ms, "ms");
  res.add(L, "store.loads_per_op", pins.loads_per_op, "count");
  res.add(L, "store.eviction_saves_per_op", pins.eviction_saves_per_op,
          "count");
  res.add(L, "session.enroll_ms", enroll_ms, "ms");
  res.add(L, "session.journal_ms", journal_ms, "ms");
  res.add(L, "fleet.populate_s", tin.populate_s, "s");
  res.add(L, "trace.overhead_pct",
          100.0 * (median(tlat) - median(lat)) / median(lat), "%");
  res.add(res.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

}  // namespace perfbench
