#include "probe.h"

#include <sched.h>

#include <cstring>
#include <string>
#include <unordered_map>

#include "spans.h"

namespace perfbench {

namespace {

struct Field {
  uint64_t number = 0;
  std::string text;
};

constexpr size_t kFrames = 4096;

}  // namespace

HostProbe::HostProbe() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  frames_.reserve(kFrames);
  for (size_t i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> frame(64 + next() % 900);
    for (uint8_t& byte : frame) byte = static_cast<uint8_t>(next());
    frames_.push_back(std::move(frame));
  }
}

namespace {

bool PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

double HostProbe::PinToFastestCpu() {
  double best_ns = 0;
  int best_cpu = -1;
  for (int cpu : cpus_) {
    if (!PinTo({cpu})) continue;
    const double ns = NsPerFrame();
    if (best_cpu < 0 || ns < best_ns) {
      best_ns = ns;
      best_cpu = cpu;
    }
  }
  if (best_cpu < 0) return NsPerFrame();
  PinTo({best_cpu});
  return best_ns;
}

void HostProbe::Unpin() {
  if (!cpus_.empty()) PinTo(cpus_);
}

double HostProbe::NsPerFrame(size_t frames) {
  // The first round only brings the probe's frames back into cache, so the
  // timed round does not depend on what the engine left there.
  Round(frames);
  const int64_t start = NowNs();
  Round(frames);
  return static_cast<double>(NowNs() - start) / frames;
}

void HostProbe::Round(size_t frames) {
  std::unordered_map<uint64_t, uint64_t> groups;
  std::vector<uint8_t> bytes;
  std::vector<Field> row, back;
  for (size_t i = 0; i < frames; ++i) {
    const std::vector<uint8_t>& frame = frames_[i % frames_.size()];
    uint32_t address = 0;
    uint16_t port = 0;
    std::memcpy(&address, frame.data() + 30, sizeof(address));
    std::memcpy(&port, frame.data() + 36, sizeof(port));
    row.clear();
    row.push_back({address, {}});
    row.push_back({port, {}});
    row.push_back({frame.size(), {}});
    row.push_back({0, std::string(reinterpret_cast<const char*>(
                                      frame.data() + 14),
                                  48)});
    bytes.clear();
    for (const Field& field : row) {
      const auto* raw = reinterpret_cast<const uint8_t*>(&field.number);
      bytes.insert(bytes.end(), raw, raw + sizeof(field.number));
      bytes.insert(bytes.end(), field.text.begin(), field.text.end());
    }
    back.clear();
    for (size_t at = 0; at + 8 <= bytes.size() && back.size() < 4; at += 8) {
      Field field;
      std::memcpy(&field.number, bytes.data() + at, sizeof(field.number));
      back.push_back(std::move(field));
    }
    groups[uint64_t{address} * 31 + port] += back[0].number;
    if (groups.size() > 4096) groups.clear();
    sink_ += back.size();
  }
}

}  // namespace perfbench
