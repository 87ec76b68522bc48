// Run context plumbing: results, JSON rendering, traffic accounting and
// the update cycles' cache warm-up.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common/hash.hpp"
#include "phases.hpp"
#include "verify/portfolio.hpp"

namespace perfbench {

void Results::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

bool Results::has_metric(const std::string& name) const {
  return metrics_.count(name) != 0;
}

double Results::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Results::check(bool ok, const std::string& what) {
  if (!ok) check_failures_.push_back(what);
}

void Results::attempted(std::size_t n, std::size_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Results::record(const std::string& key, const std::string& json_value) {
  records_[key] = json_value;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void RunContext::mix_input_hash(std::uint64_t h) {
  safenn::Fnv1a64 f;
  f.update(&input_hash, sizeof(input_hash));
  f.update(&h, sizeof(h));
  input_hash = f.digest();
}

std::size_t RunContext::live_spans() const {
  return tracer.live() + update_tracer.live();
}

std::vector<Span> RunContext::all_spans() const {
  std::vector<Span> out = tracer.spans();
  const int base = static_cast<int>(out.size());
  for (Span s : update_tracer.spans()) {
    if (s.parent >= 0) s.parent += base;
    out.push_back(std::move(s));
  }
  return out;
}

void account_traffic(RunContext& ctx, const TrafficRun& run) {
  ctx.replay->fold(run.records, ctx.versions);
  // Refused or broken requests are failed operations; requests answered
  // with the safe fallback (shed, deadline) were served as designed and
  // count in serve_fail_frac instead.
  std::size_t refused = 0;
  for (const RequestRecord& rec : run.records) {
    if (rec.broken ||
        rec.outcome ==
            static_cast<std::uint8_t>(safenn::serve::ServeOutcome::kRejected)) {
      ++refused;
    }
  }
  ctx.results.attempted(run.records.size(), refused);
}

void warm_update_cache(RunContext& ctx) {
  namespace fs = std::filesystem;
  const std::string reg_dir = ctx.options.work_dir + "/registry";
  const std::string cache_dir = ctx.options.work_dir + "/vcache";
  ctx.cache.reset();
  ctx.registry.reset();
  fs::remove_all(reg_dir);
  fs::remove_all(cache_dir);
  ctx.registry = std::make_unique<safenn::registry::ModelRegistry>(reg_dir);
  ctx.cache = std::make_unique<safenn::verify::VerificationCache>(cache_dir);
  ctx.stored.clear();
  // Alpha is never retrained, so its verdicts are the ones cycles reuse.
  const Battery& b = ctx.fleet_battery;
  for (const BatteryQuery& q : b.queries) {
    if (q.net != kModelIds[0]) continue;
    const safenn::nn::Network& net = ctx.fleet.alpha.network;
    const safenn::verify::SafetyProperty prop = make_property(b, q);
    safenn::verify::PortfolioOptions po;
    po.time_limit_seconds = b.deadline_seconds;
    po.num_workers = 1;
    const safenn::verify::PortfolioResult r =
        safenn::verify::PortfolioVerifier(po, ctx.cache.get()).prove(net, prop);
    ctx.stored[safenn::verify::make_cache_key(net, prop).hex()] =
        StoredVerdict{r.verdict, r.upper_bound, r.has_value, r.max_value,
                      r.engine_name};
  }
}

}  // namespace perfbench
