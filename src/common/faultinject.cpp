#include "common/faultinject.hpp"

#include <cstdlib>

#include "common/log.hpp"

namespace bepi {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = [] {
    auto* inj = new FaultInjector();
    // Allow arming from the environment so any binary (CLI, benches) can
    // be driven without code changes.
    if (const char* spec = std::getenv("BEPI_FAULT_INJECT")) {
      // A rejected env spec is not fatal, but it must not look like a
      // drill that ran: say what was refused.
      const Status status = inj->Configure(spec);
      if (!status.ok()) {
        BEPI_LOG(Warning) << "BEPI_FAULT_INJECT ignored: "
                          << status.ToString();
      }
    }
    return inj;
  }();
  return *injector;
}

void FaultInjector::Arm(const std::string& site, index_t skip, index_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sites_.try_emplace(site);
  it->second.skip = skip;
  it->second.count = count;
  it->second.probability = -1.0;
  if (inserted) armed_count_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::ArmProbabilistic(const std::string& site,
                                     double probability, std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sites_.try_emplace(site);
  it->second.skip = 0;
  it->second.count = -1;
  it->second.probability = probability;
  it->second.rng = Rng(seed);
  if (inserted) armed_count_.fetch_add(1, std::memory_order_relaxed);
}

bool FaultInjector::ShouldFail(const std::string& site) {
  if (armed_count_.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  Site& s = it->second;
  ++s.hits;
  bool fire = false;
  if (s.probability >= 0.0) {
    fire = s.rng.Bernoulli(s.probability);
  } else if (s.hits > s.skip && (s.count < 0 || s.fired < s.count)) {
    fire = true;
  }
  if (fire) ++s.fired;
  return fire;
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sites_.erase(site) > 0) {
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

index_t FaultInjector::Hits(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

index_t FaultInjector::Fired(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

std::vector<std::string> FaultInjector::ArmedSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [name, site] : sites_) names.push_back(name);
  return names;
}

namespace {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(text.substr(begin));
      return parts;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

bool ParseIndex(const std::string& text, index_t* out) {
  try {
    std::size_t used = 0;
    *out = static_cast<index_t>(std::stoll(text, &used));
    return used == text.size();
  } catch (...) {
    return false;
  }
}

bool ParseDouble(const std::string& text, double* out) {
  try {
    std::size_t used = 0;
    *out = std::stod(text, &used);
    return used == text.size();
  } catch (...) {
    return false;
  }
}

bool IsKnownSite(const std::string& site) {
  for (const char* known : fault_sites::kAll) {
    if (site == known) return true;
  }
  return false;
}

}  // namespace

Status FaultInjector::Configure(const std::string& spec) {
  // One parsed entry; probability >= 0 selects probabilistic arming.
  struct Pending {
    std::string site;
    index_t skip = 0;
    index_t count = -1;
    double probability = -1.0;
    std::uint64_t seed = 0x5eed;
  };
  std::vector<Pending> pending;
  for (const std::string& entry : Split(spec, ',')) {
    if (entry.empty()) continue;
    Pending p;
    if (entry.find('@') != std::string::npos) {
      // SITE@probability[@seed]
      auto parts = Split(entry, '@');
      if (parts.size() < 2 || parts.size() > 3 || parts[0].empty() ||
          !ParseDouble(parts[1], &p.probability) || p.probability < 0.0 ||
          p.probability > 1.0) {
        return Status::InvalidArgument("bad fault spec entry: " + entry);
      }
      if (parts.size() == 3) {
        index_t s = 0;
        if (!ParseIndex(parts[2], &s) || s < 0) {
          return Status::InvalidArgument("bad fault spec seed: " + entry);
        }
        p.seed = static_cast<std::uint64_t>(s);
      }
      p.site = parts[0];
    } else {
      // SITE[:skip[:count]]
      auto parts = Split(entry, ':');
      if (parts.empty() || parts[0].empty() || parts.size() > 3 ||
          (parts.size() >= 2 &&
           (!ParseIndex(parts[1], &p.skip) || p.skip < 0)) ||
          (parts.size() == 3 && !ParseIndex(parts[2], &p.count))) {
        return Status::InvalidArgument("bad fault spec entry: " + entry);
      }
      p.site = parts[0];
    }
    if (!IsKnownSite(p.site)) {
      return Status::InvalidArgument("unknown fault site '" + p.site +
                                     "' in fault spec entry: " + entry);
    }
    pending.push_back(std::move(p));
  }
  for (const Pending& p : pending) {
    if (p.probability >= 0.0) {
      ArmProbabilistic(p.site, p.probability, p.seed);
    } else {
      Arm(p.site, p.skip, p.count);
    }
  }
  return Status::Ok();
}

}  // namespace bepi
