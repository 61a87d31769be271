#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

double tv_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

}  // namespace

double process_cpu_ms() {
  timespec self{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &self);
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.tv_sec) * 1e3 +
         static_cast<double>(self.tv_nsec) / 1e6 + tv_ms(kids.ru_utime) +
         tv_ms(kids.ru_stime);
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

unsigned restrict_vcpus(unsigned n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  cpu_set_t use;
  CPU_ZERO(&use);
  unsigned taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &use);
      ++taken;
    }
  if (taken == 0 || sched_setaffinity(0, sizeof use, &use) != 0)
    return static_cast<unsigned>(CPU_COUNT(&allowed));
  return taken;
}

HostTicks HostTicks::now() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t v[8] = {};
  for (auto& x : v)
    if (!(in >> x)) return t;
  for (auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double steal_pct(const HostTicks& a, const HostTicks& b) {
  if (b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size())));
  return v[i - 1];
}

void Digest::add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  // Record separator, so ("ab","c") and ("a","bc") differ.
  h_ ^= 0xff;
  h_ *= 0x100000001b3ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string exact(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string reference_key(const Args& args) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "seed%llu-%gs",
                static_cast<unsigned long long>(args.seed), args.seconds);
  return buf;
}

void check_reference(const Args& args, const std::string& name,
                     const std::string& text,
                     std::vector<std::string>& errors) {
  if (args.seed != kDefaultSeed || args.reference_dir.empty()) return;
  const std::string path = args.reference_dir + "/" + name;
  if (args.write_reference) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.good()) errors.push_back("cannot write reference " + path);
    std::printf("# reference written: %s\n", name.c_str());
    return;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::printf("# reference: none kept for %s\n", name.c_str());
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  if (ss.str() != text) {
    errors.push_back("output differs from reference " + name);
    std::printf("# reference MISMATCH: %s\n", name.c_str());
  } else {
    std::printf("# reference matched: %s\n", name.c_str());
  }
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
