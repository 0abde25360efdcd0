// pmps_bench: host time per verified sort on one named workload.
//
//   pmps_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <file>] [--git-sha <sha>]
//
// Every workload generates its seeded input sets, sets up once per set
// (engine or service construction plus one warm-up sort, which records the
// set's virtual time and output signature), then runs verified sorts for
// --seconds. A sort fails when verification fails, when its virtual time
// or signature differs from the recorded one, when it throws, or when the
// service reports it failed or cancelled; failed sorts are left out of the
// timings. With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 the run also repeats the sorts with spans on,
// calls each layer's public functions on inputs shaped like the
// workload's (the layer pass), and reports the per-layer metrics. See
// perfbench/README.md for the workloads and the layer → end-to-end map.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "ams/ams_sort.hpp"
#include "ams/level_config.hpp"
#include "coll/collectives.hpp"
#include "coll/send_plan.hpp"
#include "common/math.hpp"
#include "common/types.hpp"
#include "delivery/delivery.hpp"
#include "em/external_merge.hpp"
#include "em/io_executor.hpp"
#include "fastsort/fast_rank_sort.hpp"
#include "grouping/bucket_grouping.hpp"
#include "harness/runner.hpp"
#include "harness/verify.hpp"
#include "harness/workloads.hpp"
#include "net/comm.hpp"
#include "net/engine.hpp"
#include "rlm/rlm_sort.hpp"
#include "select/multiselect.hpp"
#include "seq/multiway_merge.hpp"
#include "seq/partition.hpp"
#include "seq/small_sort.hpp"
#include "svc/service.hpp"
#include "trace.hpp"

#ifndef PMPS_BENCH_COMPILER
#define PMPS_BENCH_COMPILER "unknown"
#endif
#ifndef PMPS_BENCH_BUILD_TYPE
#define PMPS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pmps;
using perfbench::Scope;
using perfbench::Span;
using perfbench::Tracer;

constexpr std::int64_t kHostTid = 1'000'000;  ///< tid of host-thread spans
constexpr int kOverpartition = 16;            ///< AmsConfig default b

struct Workload {
  const char* name;
  bool rlm;
  int levels;
  int p;
  std::int64_t n_per_pe;
  bool record100;
  bool spill;    ///< MemoryBudget = per-PE payload / 8, 64 KiB blocks
  bool service;  ///< closed loop of clients on one SortService
  /// Seeded input sets per run, and set-up repeats: setup_s is their
  /// median, virt_time_s their mean. RLM's simulated time varies by about
  /// ±7 % between seeds, so rlm-svc averages more (and smaller) sets.
  int sets;
};

constexpr Workload kWorkloads[] = {
    {"ams-inmem", false, 2, 256, 20000, false, false, false, 5},
    {"ams-highp", false, 3, 4096, 100, false, false, false, 5},
    {"ams-spill", false, 2, 32, 20000, true, true, false, 5},
    {"rlm-svc", true, 2, 256, 2000, false, false, true, 32},
};

struct Args {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU seconds (user plus system, all threads) of the whole process so far.
/// Unlike wall time it does not grow while the process waits for a CPU that
/// other work holds (nor, under paravirtual steal accounting, while the
/// hypervisor runs other guests), so the timed metrics are built on it.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

const char* backend_name(net::EngineBackend b) {
  switch (b) {
    case net::EngineBackend::kThreads: return "threads";
    case net::EngineBackend::kFibers: return "fibers";
    case net::EngineBackend::kAuto: return "auto";
  }
  return "?";
}

const char* io_mode_name(em::IoMode m) {
  switch (m) {
    case em::IoMode::kSync: return "sync";
    case em::IoMode::kAsync: return "async";
    case em::IoMode::kUring: return "uring";
  }
  return "?";
}

const char* state_name(svc::JobState s) {
  switch (s) {
    case svc::JobState::kQueued: return "queued";
    case svc::JobState::kRunning: return "running";
    case svc::JobState::kDone: return "done";
    case svc::JobState::kFailed: return "failed";
    case svc::JobState::kCancelled: return "cancelled";
  }
  return "?";
}

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// One seeded input set: every PE's share, generated by the harness.
template <typename T>
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<std::vector<T>> pe;
};

/// What rank 0 reports back from a sort program.
struct CheckBox {
  std::mutex mu;
  bool done = false;             ///< guarded by mu
  harness::SortCheck check;      ///< guarded by mu
};

/// Result of one sort as the benchmark observed it.
struct Outcome {
  std::string error;  ///< empty = the run itself succeeded
  double host_s = 0;
  double cpu_s = 0;   ///< process CPU seconds (standalone engine only)
  double virt_s = 0;
  std::uint64_t signature = 0;
  net::RunReport report;
  std::int64_t msgs_total = 0;  ///< summed over PEs (standalone engine only)
  em::SpillTotals spill;
};

/// Handles passed to the layer-pass bodies: where to record spans.
struct ProbeCtx {
  Tracer* tr;
  std::uint64_t group;
  std::uint64_t parent;
};

template <typename T>
class Bench {
 public:
  explicit Bench(const Args& a)
      : a_(a), w_(*a.w), ref_(static_cast<std::size_t>(a.w->sets)) {}

  int run() {
    generate_sets();
    set_up();
    const Window untraced = measure(a_.seconds);
    const double rss = peak_rss_mb();
    std::vector<Metric> metrics;
    if (!a_.trace) {
      metrics = end_to_end(untraced, rss);
    } else {
      Tracer tracer;
      tr_ = &tracer;
      const Window traced = measure(std::min(a_.seconds, 10.0));
      metrics = per_layer(untraced, traced);
      tr_ = nullptr;
      if (!a_.trace_out.empty() && !tracer.write_chrome(a_.trace_out))
        std::fprintf(stderr, "warning: cannot write %s\n",
                     a_.trace_out.c_str());
    }
    engine_.reset();
    service_.reset();
    print_result(untraced, metrics);
    return 0;
  }

 private:
  /// Samples of one measured interval.
  struct Window {
    std::vector<double> lat;     ///< host (wall) seconds per successful sort
    /// Process CPU seconds per successful sort. Service jobs overlap, so
    /// there one sample is one round of the closed loop: the CPU time
    /// between every clients-th completion, divided by the clients.
    std::vector<double> cpu_lat;
    std::vector<double> submit;  ///< host seconds per submit (service)
    std::vector<std::uint64_t> groups;  ///< span groups (traced only)
    double elems = 0;            ///< elements of successful sorts
    double wall = 0;             ///< interval length, seconds
    double cpu = 0;              ///< process CPU seconds in the interval
    svc::ServiceStats before, after;
  };

  std::int64_t n_total() const { return w_.n_per_pe * w_.p; }

  std::uint64_t set_seed(int k) const {
    return mix64(a_.seed * 0x9e3779b97f4a7c15ULL +
                 static_cast<std::uint64_t>(k));
  }

  // --- inputs --------------------------------------------------------------

  void generate_sets() {
    for (int k = 0; k < w_.sets; ++k) {
      const double t0 = now_s();
      auto in = std::make_shared<Inputs<T>>();
      in->seed = set_seed(k);
      in->pe.reserve(static_cast<std::size_t>(w_.p));
      for (int pe = 0; pe < w_.p; ++pe) {
        if constexpr (std::is_same_v<T, Record100>) {
          in->pe.push_back(
              harness::make_record_workload(pe, w_.p, w_.n_per_pe, in->seed));
        } else {
          in->pe.push_back(harness::make_workload(
              harness::Workload::kUniform, pe, w_.p, w_.n_per_pe, in->seed));
        }
      }
      gen_s_.push_back(now_s() - t0);
      sets_.push_back(std::move(in));
    }
  }

  // --- one sort -------------------------------------------------------------

  /// The per-rank program: copy this PE's input, sort it, verify it. Spans
  /// (traced runs only) cover each call into a layer.
  std::function<void(net::Comm&)> program(int k, em::MemoryBudget budget,
                                          std::shared_ptr<CheckBox> box,
                                          std::uint64_t group,
                                          std::uint64_t parent) const {
    std::shared_ptr<const Inputs<T>> in = sets_[static_cast<std::size_t>(k)];
    const Workload& w = w_;
    Tracer* tr = tr_;
    return [in, budget, box, group, parent, &w, tr](net::Comm& comm) {
      const int me = comm.rank();
      const auto& src = in->pe[static_cast<std::size_t>(me)];
      std::vector<T> data(src.begin(), src.end());
      std::uint64_t in_hash = 0;
      {
        Scope s(tr, "content_hash", "harness", group, parent, me);
        in_hash = harness::content_hash(std::span<const T>(data));
      }
      if (w.rlm) {
        Scope s(tr, "rlm_sort", "rlm", group, parent, me);
        rlm::RlmConfig c;
        c.levels = w.levels;
        c.seed = in->seed;
        c.budget = budget;
        rlm::rlm_sort(comm, data, c);
      } else {
        Scope s(tr, "ams_sort", "ams", group, parent, me);
        ams::AmsConfig c;
        c.levels = w.levels;
        c.seed = in->seed;
        c.budget = budget;
        ams::ams_sort(comm, data, c);
      }
      harness::SortCheck check;
      {
        Scope s(tr, "verify_sorted_output", "harness", group, parent, me);
        check = harness::verify_sorted_output(
            comm, std::span<const T>(data), in_hash,
            static_cast<std::int64_t>(src.size()));
      }
      if (me == 0) {
        std::lock_guard lock(box->mu);
        box->check = check;
        box->done = true;
      }
    };
  }

  /// Spill wiring exactly as the harness does it for a budgeted job: one
  /// shared spill file and (unless PMPS_EM_IO=sync) one I/O executor.
  std::shared_ptr<harness::SortJobState> spill_job() const {
    harness::RunConfig rc;
    rc.p = w_.p;
    rc.n_per_pe = w_.n_per_pe;
    rc.budget.bytes =
        w_.n_per_pe * static_cast<std::int64_t>(sizeof(T)) / 8;
    rc.budget.block_bytes = std::int64_t{1} << 16;
    return std::make_shared<harness::SortJobState>(rc);
  }

  /// One verified sort on a standalone engine.
  Outcome engine_sort(net::Engine& eng, int k, std::uint64_t group,
                      std::int64_t tid) {
    Outcome o;
    auto box = std::make_shared<CheckBox>();
    std::shared_ptr<harness::SortJobState> job;
    const double t0 = now_s();
    const double c0 = process_cpu_s();
    try {
      Scope root(tr_, "sort", "bench", group, 0, tid);
      em::MemoryBudget budget;
      if (w_.spill) {
        job = spill_job();
        budget = job->budget;
      }
      Scope run(tr_, "Engine::run", "net", group, root.id(), tid);
      eng.run(program(k, budget, box, group, run.id()));
    } catch (const std::exception& e) {
      o.error = std::string("threw: ") + e.what();
    }
    o.host_s = now_s() - t0;
    o.cpu_s = process_cpu_s() - c0;
    o.report = eng.report();
    for (int pe = 0; pe < w_.p; ++pe)
      o.msgs_total += eng.pe_context(pe).stats.messages_sent;
    if (job) o.spill = job->spill_stats.totals();
    finish(o, *box);
    return o;
  }

  /// One verified sort submitted to the service; waits for it.
  Outcome service_sort(svc::SortService& service, int k, std::uint64_t group,
                       std::int64_t tid, double* submit_s) {
    Outcome o;
    auto box = std::make_shared<CheckBox>();
    const double t0 = now_s();
    try {
      Scope root(tr_, "sort", "bench", group, 0, tid);
      const std::uint64_t wait_id = tr_ ? tr_->new_id() : 0;
      svc::JobSpec spec;
      spec.num_pes = w_.p;
      spec.machine = machine_;
      // Each set's job gets its own engine seed: RLM's simulated time
      // depends on it by several percent, and virt_time_s averages sets.
      spec.seed = sets_[static_cast<std::size_t>(k)]->seed;
      spec.name = w_.name;
      spec.program = program(k, em::MemoryBudget{}, box, group, wait_id);
      svc::JobHandle h;
      {
        Scope s(tr_, "SortService::submit", "svc", group, root.id(), tid);
        const double s0 = now_s();
        h = service.submit(std::move(spec));
        if (submit_s) *submit_s = now_s() - s0;
      }
      Scope s(tr_, "JobHandle::wait", "svc", group, root.id(), tid, wait_id);
      svc::JobResult r = h.wait();
      o.report = r.report;
      if (r.state != svc::JobState::kDone)
        o.error = std::string("service reported ") + state_name(r.state) +
                  ": " + r.error;
    } catch (const std::exception& e) {
      o.error = std::string("threw: ") + e.what();
    }
    o.host_s = now_s() - t0;
    finish(o, *box);
    return o;
  }

  void finish(Outcome& o, CheckBox& box) {
    o.virt_s = o.report.wall_time;
    std::lock_guard lock(box.mu);
    if (!o.error.empty()) return;
    if (!box.done || !box.check.ok())
      o.error = "output failed verification";
    else
      o.signature = box.check.out_signature;
  }

  /// Counts the sort and compares it with its set's recorded virtual time
  /// and signature (recording them on the set's first sort). Returns true
  /// when the sort counts as successful.
  bool judge(int k, Outcome& o) {
    std::lock_guard lock(mu_);
    ++attempted_;
    auto& ref = ref_[static_cast<std::size_t>(k)];
    if (o.error.empty()) {
      if (!ref) {
        ref = std::make_pair(o.virt_s, o.signature);
      } else if (std::memcmp(&ref->first, &o.virt_s, sizeof(double)) != 0 ||
                 ref->second != o.signature) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "virtual time %a / signature %016" PRIx64
                      " differ from recorded %a / %016" PRIx64,
                      o.virt_s, o.signature, ref->first, ref->second);
        o.error = buf;
      }
    }
    if (o.error.empty()) return true;
    if (++failed_ <= 5)
      std::fprintf(stderr, "FAIL %s set %d: %s\n", w_.name, k,
                   o.error.c_str());
    return false;
  }

  // --- set-up and measured intervals -----------------------------------------

  /// Set-up, repeated once per input set: construct the engine (or the
  /// service) and run one warm-up sort on that set, which records the
  /// set's reference virtual time and signature. The last one is kept.
  /// setup_s counts process CPU seconds; the wall time is kept beside it.
  void set_up() {
    for (int k = 0; k < w_.sets; ++k) {
      engine_.reset();
      service_.reset();
      const double t0 = now_s();
      const double c0 = process_cpu_s();
      Outcome o;
      if (w_.service) {
        service_ = std::make_unique<svc::SortService>();
        o = service_sort(*service_, k, 0, kHostTid, nullptr);
      } else {
        engine_ = std::make_unique<net::Engine>(w_.p, machine_, a_.seed);
        o = engine_sort(*engine_, k, 0, kHostTid);
      }
      setup_s_.push_back(process_cpu_s() - c0);
      setup_wall_s_.push_back(now_s() - t0);
      judge(k, o);
    }
  }

  /// Verified sorts for `seconds`: back to back on the engine, or as a
  /// closed loop of clients on the service. Traced when tr_ is set.
  Window measure(double seconds) {
    Tracer* tr = tr_;
    Window win;
    if (service_) win.before = service_->stats();
    const double start = now_s();
    const double cpu0 = process_cpu_s();
    const double deadline = start + seconds;
    if (!w_.service) {
      for (int it = 0; now_s() < deadline; ++it) {
        const int k = it % w_.sets;
        const std::uint64_t g = tr ? tr->new_id() : 0;
        Outcome o = engine_sort(*engine_, k, g, kHostTid);
        if (!judge(k, o)) continue;
        win.lat.push_back(o.host_s);
        win.cpu_lat.push_back(o.cpu_s);
        win.elems += static_cast<double>(n_total());
        if (tr) win.groups.push_back(g);
      }
    } else {
      // Closed loop: each client submits one job and waits for it.
      const int clients = num_clients();
      std::mutex wm;
      int in_window = 0;         // guarded by wm
      double window_cpu0 = cpu0;  // guarded by wm
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (int j = 0; now_s() < deadline; ++j) {
            const int k = (c + j * clients) % w_.sets;
            const std::uint64_t g = tr ? tr->new_id() : 0;
            double sub = 0;
            Outcome o = service_sort(*service_, k, g, kHostTid + 1 + c, &sub);
            if (!judge(k, o)) continue;
            std::lock_guard lock(wm);
            win.lat.push_back(o.host_s);
            if (++in_window == clients) {
              const double cpu = process_cpu_s();
              win.cpu_lat.push_back((cpu - window_cpu0) / clients);
              window_cpu0 = cpu;
              in_window = 0;
            }
            win.submit.push_back(sub);
            win.elems += static_cast<double>(n_total());
            if (tr) win.groups.push_back(g);
          }
        });
      }
      for (auto& t : threads) t.join();
      win.after = service_->stats();
    }
    win.wall = now_s() - start;
    win.cpu = process_cpu_s() - cpu0;
    return win;
  }

  int num_clients() const {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, std::min(4, hw));
  }

  // --- metrics --------------------------------------------------------------

  /// Highest percentile with at least ten samples beyond it: the 11th
  /// largest sample (the largest when there are fewer than 11), but never
  /// below the median, which it would be with fewer than 21 samples.
  static std::pair<double, double> tail(std::vector<double> v) {
    if (v.empty()) return {0, 0};
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n < 11) return {v.back(), 100.0};
    const double m = median(v);
    if (v[n - 11] < m) return {m, 50.0};
    return {v[n - 11], 100.0 * static_cast<double>(n - 10) /
                           static_cast<double>(n)};
  }

  /// Mean simulated sort time over the input sets.
  double virt_time_s() const {
    double sum = 0;
    int n = 0;
    for (const auto& r : ref_) {
      if (!r) continue;
      sum += r->first;
      ++n;
    }
    return n > 0 ? sum / n : 0;
  }

  std::vector<Metric> end_to_end(const Window& win, double rss) const {
    return {
        {"setup_s", median(setup_s_), "s"},
        {"sort_cpu_s_p50", median(win.cpu_lat), "s"},
        {"sort_cpu_s_tail", tail(win.cpu_lat).first, "s"},
        {"elems_per_cpu_s", win.cpu > 0 ? win.elems / win.cpu : 0, "1/s"},
        {"peak_rss_mb", rss, "MB"},
        {"virt_time_s", virt_time_s(), "s"},
    };
  }

  std::vector<Metric> per_layer(const Window& untraced, const Window& traced) {
    LayerPass pass = layer_pass();
    const std::vector<Span> spans = tr_->spans();
    std::vector<Metric> m;
    auto add = [&m](const char* name, double v, const char* unit) {
      m.push_back({name, v, unit});
    };
    auto probe = [&spans](const std::vector<std::uint64_t>& groups,
                          const char* name, double scale) {
      std::vector<double> v;
      for (auto g : groups) v.push_back(perfbench::span_wall(spans, g, name));
      return median(v) * scale;
    };

    // net: from the counted sort and the layer pass.
    const Outcome& c = pass.counted;
    const net::EngineStats& es = c.report.engine;
    add("net.spawn_ms", probe(pass.spawn, "Engine::run", 1e3), "ms");
    add("net.pingpong_us", probe(pass.pingpong, "pingpong", 1e6 / kPingPongs),
        "us");
    add("net.msgs_total", static_cast<double>(c.msgs_total), "count");
    add("net.msgs_max_pe", static_cast<double>(c.report.max_messages_sent),
        "count");
    add("net.ff_barriers", static_cast<double>(es.collective_fast_forwards),
        "count");
    add("net.count_tallies", static_cast<double>(es.count_tallies), "count");
    add("net.peak_stack_mb",
        static_cast<double>(es.peak_stack_bytes) / (1 << 20), "MB");
    add("net.mailbox_node_hwm",
        static_cast<double>(es.mailbox_nodes_total_high_water), "count");
    add("net.bytes_total", static_cast<double>(c.report.total_bytes_sent), "B");
    add("delivery.deliver_ms",
        probe(pass.deliver, "deliver", 1e3 / kCollReps), "ms");
    add("delivery.msgs_max_pe",
        static_cast<double>(c.report.phase_messages(net::Phase::kDataDelivery)),
        "count");

    // seq kernels: ns per element.
    add("seq.local_sort_ns", probe(pass.seq, "local_sort", pass.seq_scale),
        "ns");
    add("seq.classify_ns",
        probe(pass.seq, "partition_into_buckets", pass.seq_scale), "ns");
    add("seq.merge_ns", probe(pass.seq, "multiway_merge", pass.seq_scale),
        "ns");

    add("coll.barrier_us", probe(pass.barrier, "barrier", 1e6 / kSmallReps),
        "us");
    add("coll.allreduce_us",
        probe(pass.allreduce, "allreduce_add_one", 1e6 / kSmallReps), "us");
    add("coll.exchange_ms",
        probe(pass.exchange, "sparse_exchange", 1e3 / kCollReps), "ms");
    add("select.multiselect_ms",
        probe(pass.multiselect, "multiselect", 1e3 / kCollReps), "ms");
    add("fastsort.rank_select_ms",
        probe(pass.rank_select, "fast_rank_select", 1e3 / kCollReps), "ms");
    add("grouping.group_ms",
        probe(pass.grouping, "group_buckets_optimal", 1e3 / kGroupReps), "ms");

    // em: spill counters of the counted sort (zero without a budget).
    const em::SpillTotals& sp = c.spill;
    const double payload =
        static_cast<double>(n_total()) * static_cast<double>(sizeof(T));
    const double prefetches =
        static_cast<double>(sp.prefetch_hits + sp.prefetch_misses);
    add("em.write_amp", static_cast<double>(sp.bytes_written) / payload, "B/B");
    add("em.read_amp", static_cast<double>(sp.bytes_read) / payload, "B/B");
    add("em.merge_passes", static_cast<double>(sp.merge_passes), "count");
    add("em.prefetch_hit_ratio",
        prefetches > 0 ? static_cast<double>(sp.prefetch_hits) / prefetches
                       : 0,
        "ratio");
    add("em.coalesce_ratio",
        sp.writes_behind > 0 ? static_cast<double>(sp.write_coalesced) /
                                   static_cast<double>(sp.writes_behind)
                             : 0,
        "ratio");
    add("em.io_wait_pe_s", sp.io_wait_sec / w_.p, "s");
    add("em.inflight_hwm_mb",
        static_cast<double>(sp.inflight_hwm_bytes) / (1 << 20), "MB");
    add("em.external_sort_s", probe(pass.external_sort, "external_sort", 1),
        "s");

    // svc: closed-loop counters (zero without a service).
    const std::int64_t jobs = traced.after.submitted - traced.before.submitted;
    add("svc.submit_ms", median(traced.submit) * 1e3, "ms");
    add("svc.admission_batches_per_job",
        jobs > 0 ? static_cast<double>(traced.after.admission_batches -
                                       traced.before.admission_batches) /
                       static_cast<double>(jobs)
                 : 0,
        "ratio");
    add("svc.peak_in_flight", static_cast<double>(traced.after.peak_in_flight),
        "count");
    add("svc.serial_job_s", median(pass.serial_job_s), "s");

    // harness: generation (outside the timed interval) and verification
    // (inside it), per sort.
    std::vector<double> verify;
    for (auto g : traced.groups)
      verify.push_back(perfbench::span_wall(spans, g, "verify_sorted_output") +
                       perfbench::span_wall(spans, g, "content_hash"));
    add("harness.gen_s", median(gen_s_), "s");
    add("harness.verify_s", median(verify), "s");

    // virt: simulated phase maxima of the counted sort.
    add("virt.splitter_s", c.report.phase(net::Phase::kSplitterSelection), "s");
    add("virt.bucket_s", c.report.phase(net::Phase::kBucketProcessing), "s");
    add("virt.delivery_s", c.report.phase(net::Phase::kDataDelivery), "s");
    add("virt.local_sort_s", c.report.phase(net::Phase::kLocalSort), "s");

    // Wall-clock view of the untraced interval: what a caller waits, which
    // also grows with the host's other load.
    add("wall.setup_s", median(setup_wall_s_), "s");
    add("wall.sort_s_p50", median(untraced.lat), "s");
    add("wall.sort_s_tail", tail(untraced.lat).first, "s");
    add("wall.elems_per_s",
        untraced.wall > 0 ? untraced.elems / untraced.wall : 0, "1/s");
    add("wall.cpu_util", untraced.wall > 0 ? untraced.cpu / untraced.wall : 0,
        "ratio");

    // Tracing overhead and self time per layer.
    const double traced_p50 = median(traced.cpu_lat);
    add("trace.sort_cpu_s_p50", traced_p50, "s");
    add("trace.overhead_cpu_s", traced_p50 - median(untraced.cpu_lat), "s");
    const std::set<std::uint64_t> sort_groups(traced.groups.begin(),
                                              traced.groups.end());
    const auto sort_self = perfbench::self_times(spans, sort_groups);
    const double nsorts =
        std::max<double>(1, static_cast<double>(sort_groups.size()));
    for (const char* layer : {"bench", "net", "svc", "harness", "ams", "rlm"}) {
      auto it = sort_self.find(layer);
      m.push_back({std::string("sort.") + layer + "_self_ms",
                   it == sort_self.end() ? 0 : it->second / nsorts * 1e3,
                   "ms"});
    }
    const auto pass_self = perfbench::self_times(spans, pass.all_groups);
    for (const char* layer : {"net", "coll", "delivery", "seq", "select",
                              "fastsort", "grouping", "em"}) {
      auto it = pass_self.find(layer);
      m.push_back({std::string(layer) + ".self_ms",
                   it == pass_self.end() ? 0 : it->second * 1e3, "ms"});
    }
    return m;
  }

  // --- layer pass -----------------------------------------------------------

  static constexpr int kPingPongs = 1000;
  static constexpr int kSmallReps = 20;  ///< barriers / allreduces per probe
  static constexpr int kCollReps = 3;    ///< exchanges / selections per probe
  static constexpr int kGroupReps = 200;

  /// Span groups of each probe, plus the counted sort.
  struct LayerPass {
    std::vector<std::uint64_t> spawn, pingpong, barrier, allreduce, exchange,
        deliver, multiselect, rank_select, grouping, seq, external_sort;
    std::set<std::uint64_t> all_groups;
    std::vector<double> serial_job_s;
    double seq_scale = 0;  ///< 1e9 / elements per seq kernel call batch
    Outcome counted;       ///< a standalone sort whose counters are reported
  };

  std::uint64_t new_group(LayerPass& pass) {
    const std::uint64_t g = tr_->new_id();
    pass.all_groups.insert(g);
    return g;
  }

  /// Runs `body(comm, ctx)` on every PE of `eng` under a host span around
  /// Engine::run; the body opens its own spans around the layer calls.
  template <typename Body>
  std::uint64_t in_engine(net::Engine& eng, LayerPass& pass, Body body) {
    const std::uint64_t g = new_group(pass);
    Scope run(tr_, "Engine::run", "net", g, 0, kHostTid);
    const ProbeCtx ctx{tr_, g, run.id()};
    eng.run([&](net::Comm& comm) { body(comm, ctx); });
    return g;
  }

  /// Group count of the first recursion level (the r the probes use).
  int first_r() const {
    return ams::level_group_counts(w_.p, w_.levels, machine_.pes_per_node)[0];
  }

  LayerPass layer_pass() {
    LayerPass pass;
    // Counters come from one sort on a standalone engine. The service
    // workload has none, so its pass runs the same job (set 0, with that
    // set's engine seed) on an engine of its own three times, which also
    // gives svc.serial_job_s.
    std::unique_ptr<net::Engine> own;
    net::Engine* eng = engine_.get();
    if (!eng) {
      own = std::make_unique<net::Engine>(w_.p, machine_, sets_[0]->seed);
      eng = own.get();
    }
    for (int rep = 0; rep < (w_.service ? 3 : 1); ++rep) {
      Outcome o = engine_sort(*eng, 0, new_group(pass), kHostTid);
      if (!judge(0, o)) continue;
      if (w_.service) pass.serial_job_s.push_back(o.host_s);
      pass.counted = std::move(o);
    }

    const Inputs<T>& in = *sets_[0];
    const int p = w_.p;
    const int r = first_r();
    auto part = [&in, r](int pe, int j) {
      const auto& v = in.pe[static_cast<std::size_t>(pe)];
      const auto n = static_cast<std::int64_t>(v.size());
      const auto b = chunk_begin(n, r, j), e = chunk_begin(n, r, j + 1);
      return std::span<const T>(v.data() + b, static_cast<std::size_t>(e - b));
    };

    for (int rep = 0; rep < 5; ++rep) {
      const std::uint64_t g = new_group(pass);
      Scope s(tr_, "Engine::run", "net", g, 0, kHostTid);
      eng->run([](net::Comm&) {});
      pass.spawn.push_back(g);
    }
    pass.pingpong.push_back(in_engine(
        *eng, pass, [](net::Comm& comm, const ProbeCtx& cx) {
          const std::uint64_t tag = comm.next_tag_block();
          if (comm.rank() > 1) return;
          Scope s(cx.tr, "pingpong", "net", cx.group, cx.parent, comm.rank());
          for (int i = 0; i < kPingPongs; ++i) {
            const auto t = tag + static_cast<std::uint64_t>(i);
            if (comm.rank() == 0) {
              comm.send_one<std::uint64_t>(1, t, 1);
              (void)comm.recv_one<std::uint64_t>(1, t);
            } else {
              (void)comm.recv_one<std::uint64_t>(0, t);
              comm.send_one<std::uint64_t>(0, t, 1);
            }
          }
        }));
    pass.barrier.push_back(in_engine(
        *eng, pass, [](net::Comm& comm, const ProbeCtx& cx) {
          Scope s(cx.tr, "barrier", "coll", cx.group, cx.parent, comm.rank());
          for (int i = 0; i < kSmallReps; ++i) coll::barrier(comm);
        }));
    pass.allreduce.push_back(in_engine(
        *eng, pass, [](net::Comm& comm, const ProbeCtx& cx) {
          Scope s(cx.tr, "allreduce_add_one", "coll", cx.group, cx.parent,
                  comm.rank());
          for (int i = 0; i < kSmallReps; ++i)
            (void)coll::allreduce_add_one(comm, comm.rank());
        }));
    pass.exchange.push_back(in_engine(
        *eng, pass, [&](net::Comm& comm, const ProbeCtx& cx) {
          // One level's shape: r pieces to r groups.
          coll::SendPlan<T> plan;
          for (int j = 0; j < r; ++j)
            plan.add((comm.rank() + j * (p / r)) % p, part(comm.rank(), j));
          Scope s(cx.tr, "sparse_exchange", "coll", cx.group, cx.parent,
                  comm.rank());
          for (int i = 0; i < kCollReps; ++i)
            (void)coll::sparse_exchange(comm, plan);
        }));
    pass.deliver.push_back(in_engine(
        *eng, pass, [&](net::Comm& comm, const ProbeCtx& cx) {
          const auto& v = in.pe[static_cast<std::size_t>(comm.rank())];
          std::vector<std::int64_t> pieces;
          for (int j = 0; j < r; ++j)
            pieces.push_back(
                static_cast<std::int64_t>(part(comm.rank(), j).size()));
          Scope s(cx.tr, "deliver", "delivery", cx.group, cx.parent,
                  comm.rank());
          for (int i = 0; i < kCollReps; ++i)
            (void)delivery::deliver(comm, std::span<const T>(v), pieces,
                                    delivery::Algo::kSimple, in.seed);
        }));
    pass.multiselect.push_back(in_engine(
        *eng, pass, [&](net::Comm& comm, const ProbeCtx& cx) {
          std::vector<T> sorted = in.pe[static_cast<std::size_t>(comm.rank())];
          seq::local_sort(std::span<T>(sorted));
          std::vector<std::int64_t> ranks;
          for (int i = 1; i < r; ++i)
            ranks.push_back(chunk_begin(n_total(), r, i));
          Scope s(cx.tr, "multiselect", "select", cx.group, cx.parent,
                  comm.rank());
          for (int i = 0; i < kCollReps; ++i)
            (void)select::multiselect(comm, std::span<const T>(sorted), ranks);
        }));
    pass.rank_select.push_back(in_engine(
        *eng, pass, [&](net::Comm& comm, const ProbeCtx& cx) {
          // One level's sample: a·b·r elements spread over the PEs (§6).
          const double a = std::max(
              1.0, 1.6 * std::log10(static_cast<double>(n_total())));
          const std::int64_t buckets = std::int64_t{kOverpartition} * r;
          const std::int64_t per_pe = std::min<std::int64_t>(
              w_.n_per_pe,
              std::max<std::int64_t>(
                  1, static_cast<std::int64_t>(std::ceil(
                         a * static_cast<double>(buckets) / p))));
          const auto& v = in.pe[static_cast<std::size_t>(comm.rank())];
          std::span<const T> sample(v.data(), static_cast<std::size_t>(per_pe));
          const std::int64_t S = per_pe * p;
          std::vector<std::int64_t> want;
          for (std::int64_t j = 1; j < std::min(buckets, S); ++j)
            want.push_back(j * S / std::min(buckets, S));
          Scope s(cx.tr, "fast_rank_select", "fastsort", cx.group, cx.parent,
                  comm.rank());
          for (int i = 0; i < kCollReps; ++i)
            (void)fastsort::fast_rank_select(comm, sample, want);
        }));

    host_probes(pass, in, r);
    return pass;
  }

  /// Layer-pass probes that run on the host thread: the seq kernels, the
  /// bucket grouping, and (budgeted workloads) the external sort.
  void host_probes(LayerPass& pass, const Inputs<T>& in, int r) {
    // Splitters as one AMS level draws them: b·r buckets from a sample.
    const std::int64_t buckets = std::int64_t{kOverpartition} * r;
    std::vector<T> sample;
    for (std::int64_t i = 0; i < 4 * buckets; ++i)
      sample.push_back(
          in.pe[static_cast<std::size_t>(i % w_.p)]
               [static_cast<std::size_t>((i / w_.p) % w_.n_per_pe)]);
    std::sort(sample.begin(), sample.end());
    std::vector<TaggedKey<T>> splitters;
    std::vector<T> keys;
    for (std::int64_t j = 1; j < buckets; ++j) {
      const T& key = sample[static_cast<std::size_t>(j * 4)];
      splitters.push_back(TaggedKey<T>{key, 0, j});
      keys.push_back(key);
    }

    // Global bucket sizes of set 0 under those splitters.
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(buckets), 0);
    for (const auto& v : in.pe)
      for (const T& x : v)
        ++sizes[static_cast<std::size_t>(
            std::upper_bound(keys.begin(), keys.end(), x) - keys.begin())];
    {
      const std::uint64_t g = new_group(pass);
      Scope s(tr_, "group_buckets_optimal", "grouping", g, 0, kHostTid);
      for (int i = 0; i < kGroupReps; ++i)
        (void)grouping::group_buckets_optimal(
            std::span<const std::int64_t>(sizes), r);
      pass.grouping.push_back(g);
    }

    // Seq kernels on whole PE inputs, about 16 MiB of elements.
    const std::int64_t want = std::max<std::int64_t>(
        1, (std::int64_t{16} << 20) / static_cast<std::int64_t>(sizeof(T)));
    const int pes = static_cast<int>(std::min<std::int64_t>(
        w_.p, std::max<std::int64_t>(1, want / w_.n_per_pe)));
    pass.seq_scale = 1e9 / (static_cast<double>(pes) *
                            static_cast<double>(w_.n_per_pe));
    const seq::BucketClassifier<T> classifier(splitters);
    const std::uint64_t g = new_group(pass);
    pass.seq.push_back(g);
    std::vector<std::vector<T>> work(in.pe.begin(), in.pe.begin() + pes);
    {
      Scope s(tr_, "partition_into_buckets", "seq", g, 0, kHostTid);
      for (int pe = 0; pe < pes; ++pe)
        (void)seq::partition_into_buckets(
            std::span<const T>(work[static_cast<std::size_t>(pe)]), pe,
            classifier);
    }
    {
      Scope s(tr_, "local_sort", "seq", g, 0, kHostTid);
      for (auto& v : work) seq::local_sort(std::span<T>(v));
    }
    // Merge r sorted runs per PE, as one RLM level does.
    std::vector<std::vector<std::vector<T>>> runs(
        static_cast<std::size_t>(pes));
    for (int pe = 0; pe < pes; ++pe) {
      const auto& v = in.pe[static_cast<std::size_t>(pe)];
      const auto n = static_cast<std::int64_t>(v.size());
      for (int j = 0; j < r; ++j) {
        std::vector<T> run(v.begin() + chunk_begin(n, r, j),
                           v.begin() + chunk_begin(n, r, j + 1));
        seq::local_sort(std::span<T>(run));
        runs[static_cast<std::size_t>(pe)].push_back(std::move(run));
      }
    }
    {
      Scope s(tr_, "multiway_merge", "seq", g, 0, kHostTid);
      for (const auto& pr : runs) (void)seq::multiway_merge(pr);
    }

    if (!w_.spill) return;
    for (int rep = 0; rep < 3; ++rep) {
      auto job = spill_job();
      std::vector<T> data = in.pe[0];
      const std::uint64_t eg = new_group(pass);
      Scope s(tr_, "external_sort", "em", eg, 0, kHostTid);
      em::external_sort(data, job->budget);
      pass.external_sort.push_back(eg);
    }
  }

  // --- output ---------------------------------------------------------------

  void print_result(const Window& win, const std::vector<Metric>& metrics) {
    const auto [tail_v, tail_pct] = tail(win.cpu_lat);
    std::printf(
        "host {\"nproc\": %u, \"engine_backend\": \"%s\", "
        "\"engine_fiber_workers\": %d, \"em_io\": \"%s\", "
        "\"em_io_threads\": %d, \"io_uring\": %s, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\", \"git_sha\": \"%s\"}\n",
        std::thread::hardware_concurrency(),
        backend_name(net::resolve_engine_backend()),
        net::engine_fiber_workers(w_.p), io_mode_name(em::io_mode_from_env()),
        em::io_threads_from_env(), em::io_uring_available() ? "true" : "false",
        PMPS_BENCH_COMPILER, PMPS_BENCH_BUILD_TYPE, a_.git_sha.c_str());
    std::printf(
        "workload %s seed %" PRIu64 " trace %d: %zu timed sorts in %.3f s, "
        "cpu_util %.3f, wall p50 %.6f s, attempted %" PRId64
        ", failed %" PRId64
        ", fail_frac %.6g, sort_cpu_s_tail = p%.1f of %zu samples = %.6f s\n",
        w_.name, a_.seed, a_.trace ? 1 : 0, win.lat.size(), win.wall,
        win.wall > 0 ? win.cpu / win.wall : 0, median(win.lat),
        attempted_, failed_,
        attempted_ > 0 ? static_cast<double>(failed_) /
                             static_cast<double>(attempted_)
                       : 0,
        tail_pct, win.cpu_lat.size(), tail_v);
    for (const Metric& m : metrics)
      std::printf("  %-32s %.9g %s\n", m.name.c_str(), m.value, m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {",
                failed_ == 0 && !win.cpu_lat.empty() ? "true" : "false",
                attempted_, failed_);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

  const Args& a_;
  const Workload& w_;
  const net::MachineParams machine_ = net::MachineParams::supermuc_like();
  Tracer* tr_ = nullptr;  ///< set during the traced part only

  std::vector<std::shared_ptr<const Inputs<T>>> sets_;
  std::vector<double> gen_s_;
  std::vector<double> setup_s_;       ///< process CPU seconds per set-up
  std::vector<double> setup_wall_s_;  ///< wall seconds per set-up
  std::unique_ptr<net::Engine> engine_;
  std::unique_ptr<svc::SortService> service_;

  std::mutex mu_;
  /// Per input set: the recorded virtual time and output signature.
  std::vector<std::optional<std::pair<double, std::uint64_t>>>
      ref_;                      ///< guarded by mu_
  std::int64_t attempted_ = 0;   ///< guarded by mu_
  std::int64_t failed_ = 0;      ///< guarded by mu_
};

int usage(const char* why) {
  std::fprintf(stderr,
               "pmps_bench: %s\nusage: pmps_bench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--git-sha <sha>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, v) == 0) a.w = &w;
      if (!a.w) return usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.w) return usage("--workload is required");
  if (!(a.seconds > 0)) return usage("--seconds must be positive");
  if (a.w->record100) return Bench<Record100>(a).run();
  return Bench<std::uint64_t>(a).run();
}
