// Bounded model checking over DirectDrive schedules.
//
// A protocol state is a deterministic function of the *schedule*: the
// sequence of adversary choices (deliver pending message i / fire a timer /
// crash a process / inject a link fault).  The explorer searches schedules
// depth-first.  It builds the post-setup drive once per search and reaches
// every state it visits by restoring one working drive to that snapshot
// (DirectDrive::restore_from, which copies each process through its
// copy_state_from hook) and replaying the state's schedule; at each visited
// state it checks the safety monitors and the scenario's invariant.  A
// visited-state table, keyed by the state's digest (modelcheck/digest.hpp),
// keeps it from expanding one state once per schedule that reaches it.
// Restored and freshly built drives name messages and timers alike, so
// neither the sleep sets nor any result depends on which one ran.  The
// fuzzer samples random schedules instead, which scales to configurations
// the exhaustive search cannot cover.  Both report the first
// Agreement/Validity/Integrity or invariant violation found, together with
// the offending schedule, so failures are replayable.
//
// The explorer prunes reorderings of commuting actions with sleep sets
// (Godefroid's partial-order reduction).  Delivering a message to p and then
// one to q reaches the state the other order reaches, so once the subtree
// under the first order is searched, the second one need not be.  Each node
// carries a sleep set: the actions that an earlier sibling's subtree already
// covered and that commute with every action taken since.  A sleeping action
// is not taken, and a node whose every enabled action sleeps is cut off.  The
// search still reaches every state the plain DFS reaches within the depth
// bound, because commuting actions does not change a schedule's length.
//
// Actions are named by stable identities, not by their index, which shifts
// as the pool changes: a delivery by its Pending::seq, a timer fire by its
// owner, a crash by its victim.  A delivery touches its receiver, a timer
// fire its owner and a crash its victim.  Deliveries, timer fires and
// crashes that touch different processes are independent (they commute, and
// neither enables or disables the other), with two exceptions:
//   - a crash of p and a delivery sent by p, because a mid-step crash
//     discards p's undelivered messages;
//   - two crashes, because they share the crash budget.
// Every other pair is dependent, including any pair with a drop, duplicate
// or partition fault.
// The relation holds only for processes that act solely through their Env
// and never branch on Env::now() or on raw TimerId values: two commuted
// orders end in states that differ exactly in the drive's step counter, the
// sequence numbers of messages sent and the ids of timers armed.
//
// The table records each state the search expands, with its depth left and
// its sleep set.  A node whose state was already expanded with at least as
// much depth left and a sleep set that is a subset of the node's own is cut
// off: the expansions recorded for it took every action this node would
// take, at least as deep.  Otherwise the node is expanded again, and the
// entry keeps the larger depth left and the intersection of the sleep sets
// (Godefroid, LNCS 1032, ch. 6).  Entries name sleeping actions by content
// (kind, process and message), since seqs differ between the schedules that
// reach a state.  Every node is still replayed and checked before the table
// is consulted; only nodes with depth left are stored, and the table is
// freed when the search returns.
//
// The fuzzer shards its trace budget into fixed-size chunks and runs the
// chunks on an exec::ThreadPool.  A chunk builds the post-setup drive once
// and restores one working drive from it for every trace.  Each chunk draws
// from a private RNG seeded by splitmix64(seed, chunk_index), chunks
// strictly before the first violating chunk always run to completion, and
// results are reduced in chunk-index order — so the returned ExploreResult
// (including the violating schedule) is byte-identical for any `jobs`
// value.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ranges>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/parallel_sweep.hpp"
#include "modelcheck/digest.hpp"
#include "modelcheck/direct_drive.hpp"
#include "util/rng.hpp"

namespace twostep::modelcheck {

/// What the adversary is allowed to do, beyond ordering deliveries.
template <typename P>
struct Scenario {
  consensus::SystemConfig config;
  typename DirectDrive<P>::Factory factory;

  /// Applied to a freshly built drive: initial crashes, start_all,
  /// proposals.  A search or fuzz shard applies it once and restores the
  /// resulting drive for every node or trace.
  std::function<void(DirectDrive<P>&)> setup;

  /// Processes the explorer may additionally crash mid-run...
  std::vector<consensus::ProcessId> may_crash;
  /// ...up to this many of them (on top of crashes done by `setup`).
  int crash_budget = 0;
  /// Crashes drop the victim's undelivered messages (mid-step crash).
  bool mid_step_crashes = true;

  /// Whether timer-fire actions are explored (needed to reach slow paths).
  bool explore_timers = true;

  /// Link-fault actions the adversary may additionally take.  Faults are
  /// explicit schedule actions (not hidden rng draws), so a violating
  /// schedule that injects faults replays exactly and fuzzing stays
  /// byte-identical for any `jobs` value.  All-zero budgets (the default)
  /// leave the action space untouched.
  struct FaultBudget {
    int drops = 0;       ///< injected message drops
    int duplicates = 0;  ///< injected message duplications
    int partitions = 0;  ///< momentary partitions (all traffic of one process)
  };
  FaultBudget faults;

  /// Checked at every state the explorer visits and after every fuzz step,
  /// beside the safety monitors: returns a violation, or nothing.  Empty
  /// (the default) checks nothing.  The explorer skips the successors of a
  /// state whose digest it has expanded, so the invariant must depend only
  /// on what the digest covers (modelcheck/digest.hpp).
  std::function<std::optional<std::string>(const DirectDrive<P>&)> invariant;

  int max_depth = 48;
};

struct ExploreResult {
  /// Complete schedules examined.  Convention (shared by explore and fuzz):
  /// a schedule that exhibits a violation IS counted — it was examined, and
  /// "traces until violation" reads naturally as a 1-based count.
  long traces = 0;
  long steps = 0;         ///< total actions executed across all replays
  bool violation = false;
  std::string what;              ///< first violation, human-readable
  std::vector<int> schedule;     ///< the offending schedule (replayable)
  bool exhausted = false;        ///< true iff the whole space fit in budget
};

template <typename P>
class Explorer {
 public:
  using Drive = DirectDrive<P>;

  /// Exhaustive sleep-set DFS up to `max_traces` complete schedules: the
  /// leaves of the search, at max_depth, with no enabled action, with every
  /// enabled action asleep, or at a state the table already covers.
  static ExploreResult explore(const Scenario<P>& scenario, long max_traces = 20000) {
    ExploreResult result;
    const auto root = make_drive(scenario);
    const Baseline base = baseline(scenario, *root);
    Drive drive(scenario.config, scenario.factory);
    std::vector<int> schedule;  // the path to the node at `depth`
    // frames[d] is the path's node at depth d.  Frames are reused, so their
    // vectors keep their capacity for the whole search.
    std::vector<Frame> frames;
    Table table;
    std::vector<Digest> pending;       // message digests of the pool, by slot
    std::vector<std::uint64_t> names;  // the node's sleep set, by content
    std::size_t depth = 0;
    bool fresh = true;  // frames[depth] has not been visited yet
    for (;;) {
      if (frames.size() < depth + 2) frames.resize(depth + 2);
      Frame& frame = frames[depth];
      if (fresh) {
        fresh = false;
        if (result.traces >= max_traces) return result;  // budget: not exhausted
        drive.restore_from(*root);
        for (const int action : schedule) apply(scenario, drive, base, action);
        result.steps += static_cast<long>(schedule.size());
        if (auto what = violation(scenario, drive)) {
          ++result.traces;  // the violating schedule counts as examined
          result.violation = true;
          result.what = std::move(*what);
          result.schedule = schedule;
          return result;
        }
        frame.todo.clear();
        frame.next = 0;
        const int left = scenario.max_depth - static_cast<int>(depth);
        if (left > 0) {
          const Digest key = state_digest(drive, pending);
          names.clear();
          for (const Action& b : frame.sleep) names.push_back(b.name);
          std::sort(names.begin(), names.end());
          names.erase(std::unique(names.begin(), names.end()), names.end());
          if (table.expand(key, left, names)) {
            const Counts counts = count_actions(scenario, drive, base);
            for (int a = 0; a < counts.total(); ++a) {
              Action action = decode(scenario, drive, counts, a);
              action.name = name(action, pending);
              if (!asleep(frame.sleep, action)) frame.todo.push_back(action);
            }
          }
        }
        if (frame.todo.empty()) ++result.traces;
      }
      if (frame.next < frame.todo.size()) {
        // The child sleeps on what this node already sleeps on and on the
        // siblings searched before it, as far as they commute with its move.
        const Action& move = frame.todo[frame.next];
        Frame& child = frames[depth + 1];
        child.sleep.clear();
        for (const Action& b : frame.sleep)
          if (independent(move, b)) child.sleep.push_back(b);
        for (std::size_t i = 0; i < frame.next; ++i)
          if (independent(move, frame.todo[i])) child.sleep.push_back(frame.todo[i]);
        schedule.push_back(move.index);
        ++frame.next;
        ++depth;
        fresh = true;
      } else if (depth == 0) {
        break;
      } else {
        schedule.pop_back();
        --depth;
      }
    }
    result.exhausted = true;
    return result;
  }

  /// Traces per fuzz shard.  Small enough that `jobs` workers load-balance
  /// even on short runs, big enough to amortize the submit overhead.
  static constexpr int kFuzzChunkTraces = 32;

  /// Random schedule sampling: `traces` runs of up to `max_steps` actions,
  /// sharded across `jobs` worker threads (<= 0: all hardware threads).
  /// Deterministic for a fixed seed regardless of `jobs` — the reported
  /// violation is always the one in the lowest-index shard, even when a
  /// later shard hits first in wall time.
  static ExploreResult fuzz(const Scenario<P>& scenario, int traces, std::uint64_t seed,
                            int max_steps = 400, int jobs = 1) {
    ExploreResult result;
    if (traces <= 0) return result;
    const std::size_t chunks =
        (static_cast<std::size_t>(traces) + kFuzzChunkTraces - 1) / kFuzzChunkTraces;

    exec::FirstHit hit;
    exec::SweepOptions options;
    options.jobs = jobs;
    options.base_seed = seed;
    auto partials = exec::parallel_sweep<ExploreResult>(
        chunks,
        [&](const exec::SweepTask& task) {
          const int begin = static_cast<int>(task.index) * kFuzzChunkTraces;
          const int count = std::min(kFuzzChunkTraces, traces - begin);
          return fuzz_chunk(scenario, count, task.seed, max_steps, task.index, hit);
        },
        options);

    // Reduce in shard order, stopping at the first violating shard: shards
    // after it may have been cancelled at thread-count-dependent points, so
    // their partial counts must not leak into the result.
    for (ExploreResult& part : partials) {
      result.traces += part.traces;
      result.steps += part.steps;
      if (part.violation) {
        result.violation = true;
        result.what = std::move(part.what);
        result.schedule = std::move(part.schedule);
        break;
      }
    }
    return result;
  }

  /// Replays a schedule on a fresh drive (for debugging found violations).
  static std::unique_ptr<Drive> replay_schedule(const Scenario<P>& scenario,
                                                const std::vector<int>& schedule) {
    auto drive = make_drive(scenario);
    const Baseline base = baseline(scenario, *drive);
    for (const int action : schedule) {
      apply(scenario, *drive, base, action);
      if (!drive->monitor().safe()) break;
    }
    return drive;
  }

  /// The action space at a state is these ranges, in index order:
  ///   [0, pool)                     deliver pending message i
  ///   [pool, pool+T)                fire the oldest timer of the j-th
  ///                                 process that has armed timers
  ///   [pool+T, pool+T+C)            crash the j-th eligible victim
  ///   [.., +D)                      drop pending message i    (fault budget)
  ///   [.., +U)                      duplicate pending message i
  ///   [.., +Q)                      momentary partition of the j-th
  ///                                 non-crashed process
  /// Counts holds the size of each.
  struct Counts {
    int deliveries = 0;
    int timers = 0;
    int crashes = 0;
    int drops = 0;
    int duplicates = 0;
    int partitions = 0;
    [[nodiscard]] int total() const {
      return deliveries + timers + crashes + drops + duplicates + partitions;
    }
    friend bool operator==(const Counts&, const Counts&) = default;
  };

  /// The post-setup state's part in the action counts.
  struct Baseline {
    int up = 0;            ///< processes not crashed
    int may_crash_up = 0;  ///< members of may_crash not crashed
  };

  /// The Baseline of a post-setup drive.  Throws std::invalid_argument when
  /// may_crash names a process twice or a process outside the config.
  static Baseline baseline(const Scenario<P>& scenario, const Drive& drive) {
    Baseline base{drive.up(), 0};
    std::vector<bool> listed(static_cast<std::size_t>(drive.config().n), false);
    for (const consensus::ProcessId p : scenario.may_crash) {
      if (p < 0 || p >= drive.config().n || listed[static_cast<std::size_t>(p)])
        throw std::invalid_argument("Scenario: may_crash must list distinct processes");
      listed[static_cast<std::size_t>(p)] = true;
      if (!drive.crashed(p)) ++base.may_crash_up;
    }
    return base;
  }

  /// The action counts at a drive whose post-setup state had `base`, in
  /// O(1): every crash after setup is one of the explorer's, of a member of
  /// may_crash, and only those count against the crash budget.
  static Counts count_actions(const Scenario<P>& scenario, const Drive& drive,
                              const Baseline& base) {
    Counts c;
    const int pool = static_cast<int>(drive.pool().size());
    c.deliveries = pool;
    if (scenario.explore_timers) c.timers = drive.timers_ready();
    const int explorer_crashed = base.up - drive.up();
    if (explorer_crashed < scenario.crash_budget) c.crashes = base.may_crash_up - explorer_crashed;
    if (drive.injected_drops() < scenario.faults.drops) c.drops = pool;
    if (drive.injected_duplicates() < scenario.faults.duplicates) c.duplicates = pool;
    // Partitioning an empty pool would be a no-op.
    if (drive.injected_partitions() < scenario.faults.partitions && pool > 0)
      c.partitions = drive.up();
    return c;
  }

 private:
  /// The kind of an action: one per range of Counts, in index order.
  enum class Kind : std::uint8_t { kDeliver, kTimer, kCrash, kDrop, kDuplicate, kPartition };

  /// One enabled action, decoded from its index at one state.
  struct Action {
    Kind kind = Kind::kDeliver;
    int index = 0;  ///< its schedule entry at that state
    /// Deliver, drop and duplicate: the message's pool slot (at that state
    /// only), its Pending::seq and its sender.
    std::size_t slot = 0;
    std::uint64_t seq = 0;
    consensus::ProcessId sender = consensus::kNoProcess;
    /// The message's receiver; the timer's owner; the crash or partition
    /// victim.  With kind and seq, the action's identity across states.
    consensus::ProcessId process = consensus::kNoProcess;
    /// The action by content, the same on every path to the state: kind,
    /// process and message, never seq.  Set by explore only.
    std::uint64_t name = 0;
  };

  /// Action::name for `a`, decoded at a state whose pool has the message
  /// digests `pending`.
  [[nodiscard]] static std::uint64_t name(const Action& a, const std::vector<Digest>& pending) {
    Hasher h;
    h(static_cast<std::uint64_t>(a.kind));
    h(static_cast<std::uint64_t>(a.process));
    if (a.kind == Kind::kDeliver || a.kind == Kind::kDrop || a.kind == Kind::kDuplicate) {
      h(pending[a.slot].a);
      h(pending[a.slot].b);
    }
    return h.digest().a;
  }

  /// The visited-state table: for each state the search expanded, the most
  /// depth left it was expanded with and a sleep set by content names.  The
  /// names of all entries share one arena; an entry's set only shrinks, so
  /// it is rewritten in place.
  class Table {
   public:
    /// Whether a node at state `key` with `left` steps of depth left and the
    /// sleep set `sleep` (sorted, unique content names) must be expanded.
    /// It need not be when the state was expanded with at least as much
    /// depth left and a sleep set that is a subset of `sleep`.  Otherwise
    /// the entry keeps the larger depth left and the intersection.
    bool expand(const Digest& key, int left, const std::vector<std::uint64_t>& sleep) {
      const auto [it, inserted] = entries_.try_emplace(key);
      Entry& e = it->second;
      if (inserted) {
        e = Entry{static_cast<std::uint32_t>(names_.size()),
                  static_cast<std::uint32_t>(sleep.size()), left};
        names_.insert(names_.end(), sleep.begin(), sleep.end());
        return true;
      }
      const auto first = names_.begin() + e.offset;
      const auto last = first + e.count;
      if (e.left >= left && std::includes(sleep.begin(), sleep.end(), first, last)) return false;
      e.left = std::max(e.left, left);
      e.count = static_cast<std::uint32_t>(
          std::remove_if(first, last,
                         [&](std::uint64_t n) {
                           return !std::binary_search(sleep.begin(), sleep.end(), n);
                         }) -
          first);
      return true;
    }

   private:
    struct Entry {
      std::uint32_t offset = 0;  ///< the sleep set is names_[offset, offset + count)
      std::uint32_t count = 0;
      int left = 0;
    };
    struct Hash {
      std::size_t operator()(const Digest& d) const noexcept { return d.a; }
    };
    std::unordered_map<Digest, Entry, Hash> entries_;
    std::vector<std::uint64_t> names_;
  };

  /// The DFS node at one depth of the current path.
  struct Frame {
    std::vector<Action> sleep;  ///< covered by earlier siblings' subtrees
    std::vector<Action> todo;   ///< enabled and awake, in index order
    std::size_t next = 0;       ///< todo[next] is the next child
  };

  [[nodiscard]] static bool asleep(const std::vector<Action>& sleep, const Action& a) {
    return std::ranges::any_of(sleep, [&](const Action& b) {
      return a.kind == b.kind && a.seq == b.seq && a.process == b.process;
    });
  }

  /// The independence relation of the header comment.
  [[nodiscard]] static bool independent(const Action& a, const Action& b) {
    if (a.kind > b.kind) return independent(b, a);
    if (b.kind > Kind::kCrash) return false;   // a link fault
    if (a.kind == Kind::kCrash) return false;  // two crashes share the budget
    if (a.kind == Kind::kDeliver && b.kind == Kind::kCrash && a.sender == b.process)
      return false;  // the crash discards the message
    return a.process != b.process;
  }

  static std::unique_ptr<Drive> make_drive(const Scenario<P>& scenario) {
    auto drive = std::make_unique<Drive>(scenario.config, scenario.factory);
    if (scenario.setup) scenario.setup(*drive);
    return drive;
  }

  /// The first safety or invariant violation at the drive's state, if any.
  static std::optional<std::string> violation(const Scenario<P>& scenario, const Drive& drive) {
    if (!drive.monitor().safe()) return drive.monitor().violations().front();
    if (scenario.invariant) return scenario.invariant(drive);
    return std::nullopt;
  }

  /// One fuzz shard: `count` random traces from a private seed.  Abandons
  /// remaining traces only when a strictly lower shard has already found a
  /// violation (its own partial result is then discarded by the reducer).
  static ExploreResult fuzz_chunk(const Scenario<P>& scenario, int count, std::uint64_t seed,
                                  int max_steps, std::size_t index, exec::FirstHit& hit) {
    ExploreResult result;
    if (hit.obsolete(index)) return result;
    util::Rng rng{seed};
    const auto root = make_drive(scenario);
    const Baseline base = baseline(scenario, *root);
    Drive drive(scenario.config, scenario.factory);
    std::vector<int> schedule;
    schedule.reserve(static_cast<std::size_t>(std::max(max_steps, 0)));
    for (int t = 0; t < count; ++t) {
      if (hit.obsolete(index)) return result;
      drive.restore_from(*root);
      schedule.clear();
      for (int s = 0; s < max_steps; ++s) {
        const Counts counts = count_actions(scenario, drive, base);
        if (counts.total() == 0) break;
        const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(counts.total())));
        schedule.push_back(a);
        perform(scenario, drive, decode(scenario, drive, counts, a));
        ++result.steps;
        if (auto what = violation(scenario, drive)) {
          result.violation = true;
          result.what = std::move(*what);
          result.schedule = std::move(schedule);
          ++result.traces;
          hit.record(index);
          return result;
        }
      }
      ++result.traces;
    }
    return result;
  }

  /// The k-th (0-based) process in `candidates` that satisfies `eligible`.
  template <typename Range, typename Pred>
  static consensus::ProcessId nth(const Range& candidates, int k, Pred eligible) {
    for (const consensus::ProcessId p : candidates)
      if (eligible(p) && k-- == 0) return p;
    throw std::logic_error("Explorer: action count and lookup disagree");
  }

  static auto all_processes(const Drive& drive) {
    return std::views::iota(consensus::ProcessId{0}, drive.config().n);
  }

  static bool can_fire(const Drive& drive, consensus::ProcessId p) {
    return !drive.crashed(p) && drive.armed_timers(p) > 0;
  }

  /// The action with index `action` at the drive's state, whose ranges are
  /// `c`.  Allocates nothing.
  static Action decode(const Scenario<P>& scenario, const Drive& drive, const Counts& c,
                       int action) {
    if (action < 0 || action >= c.total())
      throw std::out_of_range("Explorer: stale action index");
    Action a;
    a.index = action;
    const auto up = [&](consensus::ProcessId p) { return !drive.crashed(p); };
    const auto message = [&](Kind kind, int slot) {
      const auto& m = drive.pool()[static_cast<std::size_t>(slot)];
      a.kind = kind;
      a.slot = static_cast<std::size_t>(slot);
      a.seq = m.seq;
      a.sender = m.from;
      a.process = m.to;
      return a;
    };
    if (action < c.deliveries) return message(Kind::kDeliver, action);
    action -= c.deliveries;
    if (action < c.timers) {
      a.kind = Kind::kTimer;
      a.process = nth(all_processes(drive), action,
                      [&](consensus::ProcessId p) { return can_fire(drive, p); });
      return a;
    }
    action -= c.timers;
    if (action < c.crashes) {
      a.kind = Kind::kCrash;
      a.process = nth(scenario.may_crash, action, up);
      return a;
    }
    action -= c.crashes;
    if (action < c.drops) return message(Kind::kDrop, action);
    action -= c.drops;
    if (action < c.duplicates) return message(Kind::kDuplicate, action);
    action -= c.duplicates;
    a.kind = Kind::kPartition;
    a.process = nth(all_processes(drive), action, up);
    return a;
  }

  static void perform(const Scenario<P>& scenario, Drive& drive, const Action& a) {
    switch (a.kind) {
      case Kind::kDeliver:
        drive.deliver_index(a.slot);
        return;
      case Kind::kTimer:
        drive.fire_next_timer(a.process);
        return;
      case Kind::kCrash:
        if (scenario.mid_step_crashes) {
          drive.crash_suppressing_outbox(a.process);
        } else {
          drive.crash(a.process);
        }
        return;
      case Kind::kDrop:
        drive.drop_index(a.slot);
        return;
      case Kind::kDuplicate:
        drive.duplicate_index(a.slot);
        return;
      case Kind::kPartition:
        drive.drop_all_for(a.process);
        return;
    }
  }

  static void apply(const Scenario<P>& scenario, Drive& drive, const Baseline& base,
                    int action) {
    perform(scenario, drive, decode(scenario, drive, count_actions(scenario, drive, base), action));
  }
};

}  // namespace twostep::modelcheck
