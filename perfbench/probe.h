#ifndef GIGASCOPE_PERFBENCH_PROBE_H_
#define GIGASCOPE_PERFBENCH_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A fixed piece of work that measures how fast the host runs right now.
///
/// On a shared host the same engine pass can take twice as long from one
/// second to the next, because other tenants load the physical core. The
/// probe does the same kinds of work as the engine's per-packet path (read
/// header fields from a frame, build a row with a heap-allocated string,
/// serialise and parse it back, update a hash table) on frames generated
/// from a constant seed, with code that lives here and never changes with
/// the engine. Timing it next to each measured step gives a host-speed
/// factor that scales the step's time to a reference host speed.
class HostProbe {
 public:
  HostProbe();

  /// Runs the probe over `frames` frames and returns nanoseconds per frame.
  double NsPerFrame(size_t frames = kDefaultFrames);

  /// Probe cost per frame, in ns, of the reference host speed that
  /// normalised metrics are scaled to.
  static constexpr double kReferenceNsPerFrame = 150;
  /// How many times slower than the reference host the host runs when the
  /// probe takes `probe_ns` per frame.
  static double Slowdown(double probe_ns) {
    return probe_ns / kReferenceNsPerFrame;
  }
  static constexpr size_t kDefaultFrames = 512;

  /// Runs the probe on every CPU this process may use, pins the calling
  /// thread to the one where it ran fastest, and returns that probe time.
  /// On a host whose cores are shared with other tenants each CPU's speed
  /// changes by itself every few seconds, so measuring on the fastest CPU
  /// of the moment takes most of that noise out of the engine's timings.
  double PinToFastestCpu();

  /// Lets the calling thread run on every allowed CPU again. Call before
  /// creating threads, which inherit the creator's pinning.
  void Unpin();

 private:
  void Round(size_t frames);

  std::vector<std::vector<uint8_t>> frames_;
  std::vector<int> cpus_;  // CPUs in the process's affinity mask at start
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // GIGASCOPE_PERFBENCH_PROBE_H_
