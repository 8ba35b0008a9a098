// The paper's motivating SDI scenario (§1): a publish/subscribe
// notification system for small ads, built on the SubscriptionEngine. An
// example subscription: "Notify me of all new apartments within 30 miles
// from Newark, with a rent price between 400$ and 700$, having between 3
// and 5 rooms, and 2 baths." Events are concrete offers (points in
// attribute space) or range ads ("3 to 5 rooms, 1 or 2 baths, 600$-900$"),
// matched with enclosure / intersection queries over the subscription
// database.
#include <cmath>
#include <cstdio>
#include <vector>

#include "obs/metrics.h"
#include "sdi/subscription_engine.h"
#include "util/rng.h"

using namespace accl;

int main() {
  // Schema: the attributes of an apartment ad, in domain units.
  AttributeSchema schema;
  schema.AddAttribute("price", 0, 3000);        // $
  schema.AddAttribute("rooms", 0, 10);
  schema.AddAttribute("baths", 0, 5);
  schema.AddAttribute("surface", 0, 300);       // m^2
  schema.AddAttribute("distance", 0, 100);      // miles from center
  schema.AddAttribute("floor", 0, 30);
  schema.AddAttribute("year_built", 1900, 2030);
  schema.AddAttribute("parking", 0, 4);

  SubscriptionEngine engine(std::move(schema));

  // The paper's example subscription, verbatim.
  const SubscriptionId newark = engine.Subscribe({{"price", 400, 700},
                                                  {"rooms", 3, 5},
                                                  {"baths", 2, 2},
                                                  {"distance", 0, 30}});
  std::printf("registered the paper's example subscription (id %u)\n", newark);

  // Plus 100,000 synthetic subscribers with preference windows.
  Rng rng(2026);
  for (int i = 0; i < 100000; ++i) {
    const double price0 = rng.Uniform(200, 2200);
    const double rooms0 = rng.Uniform(0, 7);
    const double surface0 = rng.Uniform(20, 200);
    const double dist0 = rng.Uniform(0, 60);
    engine.Subscribe({{"price", price0, price0 + rng.Uniform(150, 500)},
                      {"rooms", rooms0, rooms0 + 2},
                      {"surface", surface0, surface0 + 80},
                      {"distance", dist0, dist0 + rng.Uniform(5, 30)}});
  }
  std::printf("subscription database: %zu subscriptions, %u attributes\n",
              engine.subscription_count(), engine.schema().dims());

  // Event stream: concrete offers.
  const size_t kEvents = 5000;
  std::vector<SubscriptionId> notify;
  bool newark_notified = false;
  for (size_t e = 0; e < kEvents; ++e) {
    Event offer;
    const bool ok = engine.MakePointEvent(
        {{"price", rng.Uniform(300, 2500)},
         {"rooms", std::floor(rng.Uniform(1, 7))},
         {"baths", std::floor(rng.Uniform(1, 3))},
         {"surface", rng.Uniform(25, 220)},
         {"distance", rng.Uniform(0, 80)},
         {"floor", std::floor(rng.Uniform(0, 25))},
         {"year_built", std::floor(rng.Uniform(1950, 2026))},
         {"parking", std::floor(rng.Uniform(0, 3))}},
        &offer);
    if (!ok) return 1;
    notify.clear();
    engine.Match(offer, &notify);
    for (SubscriptionId id : notify) newark_notified |= id == newark;
  }

  // Running statistics come from the engine's metrics registry: every
  // Match is one pipeline call, timed by accl_pipeline_batch_us.
  obs::MetricsRegistry& reg = engine.metrics();
  const double events =
      static_cast<double>(reg.GetCounter("accl_pipeline_events_total")->Value());
  const double verified = static_cast<double>(
      reg.GetCounter("accl_pipeline_objects_verified_total")->Value());
  const obs::Histogram* call_us = reg.GetHistogram("accl_pipeline_batch_us");
  std::printf("processed %.0f events\n", events);
  std::printf("  avg subscribers notified per event : %.1f\n",
              static_cast<double>(
                  reg.GetCounter("accl_pipeline_matches_total")->Value()) /
                  events);
  std::printf("  avg subscriptions verified         : %.0f of %zu (%.1f%%)\n",
              verified / events, engine.subscription_count(),
              100.0 * verified / events /
                  static_cast<double>(engine.subscription_count()));
  std::printf("  avg matching latency               : %.3f ms\n",
              static_cast<double>(call_us->Sum()) / 1000.0 /
                  static_cast<double>(call_us->Count()));
  std::printf("  clusters formed by adaptation      : %zu (%llu splits)\n",
              engine.index().cluster_count(),
              static_cast<unsigned long long>(
                  engine.index().reorg_stats().splits));
  std::printf("  paper-example subscription notified at least once: %s\n",
              newark_notified ? "yes" : "no");

  // A range ad matched under both policies.
  Event ad;
  if (!engine.MakeRangeEvent(
          {{"price", 600, 900}, {"rooms", 3, 5}, {"baths", 1, 2}}, &ad)) {
    return 1;
  }
  std::vector<SubscriptionId> loose, strict;
  engine.Match(ad, &loose, MatchPolicy::kIntersecting);
  engine.Match(ad, &strict, MatchPolicy::kCovering);
  std::printf("range ad \"3-5 rooms, 1-2 baths, 600$-900$\": %zu interested "
              "(intersecting), %zu fully covered\n",
              loose.size(), strict.size());
  return 0;
}
