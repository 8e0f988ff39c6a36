#pragma once
// PolicyConfig: a declarative description of a complete scheduling policy —
// base scheduler, queue priority, starvation-queue knobs, and the engine-level
// maximum-runtime limit — plus the factory and the paper's named policy
// matrix (section 5.5).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/types.hpp"

namespace psched {

enum class PolicyKind {
  Fcfs,                 ///< strict queue, no backfilling
  Cplant,               ///< no-guarantee backfill + starvation queue
  Easy,                 ///< aggressive backfilling (head reservation)
  Depth,                ///< first-n-jobs reservations (between EASY and cons)
  Conservative,         ///< reservation for every job
  ConservativeDynamic,  ///< conservative, reservations replanned every event
};

struct PolicyConfig {
  PolicyKind kind = PolicyKind::Cplant;
  PriorityKind priority = PriorityKind::Fairshare;

  // CPlant-family knobs (ignored by other kinds).
  Time starvation_delay = hours(24);  ///< kNoTime disables the starvation queue
  bool bar_heavy_users = false;
  /// A user is "heavy" when their decayed usage exceeds this multiple of the
  /// mean positive usage. 4x bars only the genuinely dominant users, so the
  /// *.fair policies trim the worst starvation-queue abuse without gutting
  /// the queue (the paper's framing of a minor, mostly-transparent change).
  double heavy_user_factor = 4.0;

  /// Reservation depth for PolicyKind::Depth (ignored by other kinds).
  int reservation_depth = 4;

  /// Engine-level maximum contiguous runtime; kNoTime = unlimited.
  Time max_runtime = kNoTime;

  /// Display name; empty = derived ("cplant24.nomax.all" style).
  std::string name;

  /// The paper's naming scheme: <base><delay>.<max|nomax>.<all|fair> for the
  /// CPlant family, cons[dyn].<max|nomax> for the conservative family.
  std::string display_name() const;

  /// Injective encoding of every field (unlike display_name, which omits
  /// heavy_user_factor and can be overridden by `name`). Two configs have
  /// equal canonical keys iff they describe the same simulation — this is
  /// the campaign dedupe and journal key.
  std::string canonical_key() const;
};

/// Instantiate the scheduler described by `config` (max_runtime is applied by
/// the engine, not the scheduler). Throws std::invalid_argument on nonsense.
std::unique_ptr<Scheduler> make_scheduler(const PolicyConfig& config);

/// The nine named policies of paper section 5.5, in presentation order.
enum class PaperPolicy {
  Cplant24NomaxAll,   // baseline production scheduler
  Cplant72NomaxAll,   // 72 h before starvation-queue entry
  Cplant24NomaxFair,  // heavy users barred from the starvation queue
  Cplant24MaxAll,     // 72 h maximum runtime
  Cplant72MaxFair,    // all three minor changes combined
  ConsNomax,          // conservative backfilling, fairshare order
  ConsMax,            // conservative + 72 h maximum runtime
  ConsdynNomax,       // conservative with dynamic reservations
  ConsdynMax,         // dynamic + 72 h maximum runtime
};

PolicyConfig paper_policy(PaperPolicy policy);

/// Resolve a policy by name: any of the nine paper display names
/// ("cplant24.nomax.all", "consdyn.72max", ...) plus the extra spellings the
/// CLI accepts — "fcfs", "fcfs.fairshare", "easy", "easy.fairshare",
/// "noguarantee", "cons.fcfs", and "depthN" (N >= 1). Returns nullopt for an
/// unknown name. Shared by psched_run and the scenario spec parser so every
/// surface speaks the same vocabulary.
std::optional<PolicyConfig> policy_from_name(const std::string& name);

/// Figures 8-13 compare these five ("minor changes" group).
std::vector<PolicyConfig> minor_change_policies();
/// Figures 14-19 compare all nine.
std::vector<PolicyConfig> all_paper_policies();

}  // namespace psched
