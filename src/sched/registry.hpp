#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/registry.hpp"
#include "sched/scheduler.hpp"
#include "sched/spec.hpp"

/// \file registry.hpp
/// Descriptor-based scheduler registry. Every scheduler self-registers a
/// `SchedulerDesc` (see its .cpp under src/schedulers/) carrying its name,
/// aliases, tags, capability flags, declared parameters, and a factory
/// taking a typed key=value parameter map plus a seed. Consumers construct
/// schedulers from spec strings (`"ga?pop=64&gens=200"`, see sched/spec.hpp)
/// or enumerate the roster by tag, so experiment scenarios are data rather
/// than hand-maintained C++ name lists.
///
/// Standard tags:
///   table1        the paper's Table I set (17 schedulers)
///   benchmark     the 15 polynomial-time schedulers of Figs. 2 and 4
///   app-specific  the Section VII application-specific subset (6)
///   extension     algorithms beyond the paper's roster (8)
///   randomized    seed-sensitive schedulers (WBA, GA, SimAnneal, Ensemble)

namespace saga {

// ParamDesc (one declared spec parameter) now lives in common/spec.hpp,
// shared with the dataset registry.

/// Self-description one scheduler registers.
struct SchedulerDesc {
  std::string name;                   // canonical, paper spelling ("HEFT")
  std::vector<std::string> aliases;   // alternative spellings; lookup is
                                      // case-insensitive on top of these
  std::string summary;                // one-line algorithm description
  std::vector<std::string> tags;      // see the standard tags above
  bool randomized = false;            // construction consumes the seed
  bool exponential_time = false;      // oracle; excluded from benchmarking
  NetworkRequirements requirements;   // declared network-model restrictions
  std::vector<ParamDesc> params;      // accepted spec keys (besides `seed`)
  std::function<SchedulerPtr(const SchedulerParams&, std::uint64_t seed)> factory;

  [[nodiscard]] bool has_tag(std::string_view tag) const;
  [[nodiscard]] const ParamDesc* find_param(std::string_view key) const;
};

/// Enumeration order for SchedulerRegistry::names().
enum class NameOrder {
  kRegistration,   // Table I order, then extension registration order
  kLexicographic,  // byte-wise sorted (the historical benchmark-roster order)
};

/// Lookup/enumeration mechanics (add, find, resolve with "did you mean",
/// tags) are shared with the dataset registry via common/registry.hpp.
class SchedulerRegistry : public DescriptorRegistry<SchedulerDesc> {
 public:
  SchedulerRegistry() : DescriptorRegistry("scheduler", "saga list --tags") {}

  /// The process-wide registry; the built-in schedulers are registered on
  /// first access (see schedulers/register.cpp).
  [[nodiscard]] static SchedulerRegistry& instance();

  /// Registers a descriptor (see DescriptorRegistry::add); additionally
  /// tags randomized schedulers with "randomized".
  void add(SchedulerDesc desc);

  /// Canonical names carrying `tag` (all names when `tag` is empty).
  /// Returns an empty vector for an unknown tag.
  [[nodiscard]] std::vector<std::string> names(
      std::string_view tag = {}, NameOrder order = NameOrder::kRegistration) const;

  /// Constructs a scheduler from a parsed spec. Unknown names and unknown
  /// parameter keys throw std::invalid_argument naming the offender (with a
  /// nearest-name suggestion). A `seed=` spec parameter overrides `seed`.
  [[nodiscard]] SchedulerPtr make(const SchedulerSpec& spec, std::uint64_t seed) const;

  /// Parses `spec_string` and constructs (see sched/spec.hpp for the grammar).
  [[nodiscard]] SchedulerPtr make(std::string_view spec_string, std::uint64_t seed) const;
};

/// Registers the 26 built-in schedulers (defined in schedulers/register.cpp;
/// each descriptor lives in its scheduler's own .cpp). Called once by
/// SchedulerRegistry::instance().
void register_builtin_schedulers(SchedulerRegistry& registry);

/// ---- Thin compatibility shims over the registry ------------------------
/// These preserve the historical rosters bit for bit (including their
/// orderings, which seed the experiment drivers' per-cell RNG streams).

/// All Table I scheduler names, in the paper's order.
[[nodiscard]] const std::vector<std::string>& all_scheduler_names();

/// The 15 polynomial-time schedulers used in Figs. 2 and 4.
[[nodiscard]] const std::vector<std::string>& benchmark_scheduler_names();

/// The 6 schedulers of the application-specific study (Section VII).
[[nodiscard]] const std::vector<std::string>& app_specific_scheduler_names();

/// Extension schedulers beyond the paper's Table I.
[[nodiscard]] const std::vector<std::string>& extension_scheduler_names();

/// Constructs a scheduler from a name or spec string; randomized schedulers
/// get a fixed default seed. Equivalent to SchedulerRegistry::make.
[[nodiscard]] SchedulerPtr make_scheduler(const std::string& name);
[[nodiscard]] SchedulerPtr make_scheduler(const std::string& name, std::uint64_t seed);

/// Constructs the full benchmarking roster (15 schedulers).
[[nodiscard]] std::vector<SchedulerPtr> make_benchmark_schedulers();

}  // namespace saga
