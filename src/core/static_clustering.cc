#include "core/static_clustering.h"

#include <deque>

#include "core/clustering_function.h"
#include "util/check.h"

namespace accl {

namespace {

struct WorkItem {
  Signature sig;
  std::vector<uint32_t> members;  // indices into the dataset
  ClusterId parent = kNoCluster;
  uint32_t depth = 0;
};

}  // namespace

StaticClustering BuildStaticClustering(
    const Dataset& data, const std::vector<Query>& sample,
    const StaticClusteringOptions& options) {
  ACCL_CHECK(data.nd > 0);
  ACCL_CHECK(!sample.empty());
  const Dim nd = data.nd;
  const double S = static_cast<double>(sample.size());
  const CostModel model = CostModel::Make(
      options.scenario, nd, options.sys,
      static_cast<double>(nd) * options.division_factor *
          (options.division_factor + 1) / 2.0);

  StaticClustering result;
  std::deque<WorkItem> work;
  {
    WorkItem root;
    root.sig = Signature(nd);
    root.members.resize(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      root.members[i] = static_cast<uint32_t>(i);
    }
    work.push_back(std::move(root));
  }

  while (!work.empty()) {
    WorkItem item = std::move(work.front());
    work.pop_front();

    // Exact access frequency of this cluster over the sample.
    uint64_t q_c = 0;
    for (const Query& q : sample) q_c += item.sig.AdmitsQuery(q);
    const double p_c =
        item.parent == kNoCluster ? 1.0 : static_cast<double>(q_c) / S;

    // Candidate indicators: exact object counts and query frequencies.
    CandidateSet cs(item.sig, options.division_factor, 0.0);
    for (uint32_t mi : item.members) cs.AccountObject(data.box(mi), +1);
    if (item.depth < kStaticMaxDepth) {
      for (const Query& q : sample) {
        if (item.sig.AdmitsQuery(q)) cs.AccountQuery(q);
      }
    }

    // Greedy materialization, exactly the adaptive TryClusterSplit but with
    // measured probabilities (no priors, no observation windows).
    std::vector<WorkItem> children;
    if (item.depth < kStaticMaxDepth) {
      for (;;) {
        double best_beta = 0.0;
        size_t best = static_cast<size_t>(-1);
        for (size_t i = 0; i < cs.size(); ++i) {
          const CandidateSet::Candidate& cd = cs.at(i);
          if (cd.n < static_cast<double>(kMinSplitObjects)) continue;
          const double p_s = cd.q / S;
          if (p_s > kSplitProbabilityRatio * p_c) continue;
          const double beta = model.MaterializationBenefit(p_c, p_s, cd.n);
          if (beta <= kMinSplitBenefitMs) continue;
          if (beta > best_beta) {
            best_beta = beta;
            best = i;
          }
        }
        if (best == static_cast<size_t>(-1)) break;

        WorkItem child;
        child.sig = cs.MakeSignature(item.sig, best);
        child.depth = item.depth + 1;
        // Move matching members to the child; keep the rest.
        std::vector<uint32_t> stay;
        stay.reserve(item.members.size());
        for (uint32_t mi : item.members) {
          if (child.sig.MatchesObject(data.box(mi))) {
            child.members.push_back(mi);
            cs.AccountObject(data.box(mi), -1);
          } else {
            stay.push_back(mi);
          }
        }
        item.members.swap(stay);
        children.push_back(std::move(child));
      }
    }

    // Emit this cluster's image; children reference it by id.
    const ClusterId my_id = static_cast<ClusterId>(result.images.size());
    ClusterImage img;
    img.id = my_id;
    img.parent = item.parent;
    img.sig = item.sig;
    img.ids.reserve(item.members.size());
    img.coords.reserve(item.members.size() * 2 * static_cast<size_t>(nd));
    for (uint32_t mi : item.members) {
      img.ids.push_back(data.ids[mi]);
      const BoxView b = data.box(mi);
      img.coords.insert(img.coords.end(), b.data(),
                        b.data() + 2 * static_cast<size_t>(nd));
    }
    result.expected_query_ms +=
        model.ClusterTime(p_c, static_cast<double>(item.members.size()));
    result.images.push_back(std::move(img));

    for (WorkItem& ch : children) {
      ch.parent = my_id;
      work.push_back(std::move(ch));
    }
  }

  result.cluster_count = result.images.size();
  return result;
}

std::unique_ptr<AdaptiveIndex> BuildStaticIndex(
    const Dataset& data, const std::vector<Query>& sample,
    const StaticClusteringOptions& options, const AdaptiveConfig& cfg) {
  ACCL_CHECK(cfg.nd == data.nd);
  StaticClustering sc = BuildStaticClustering(data, sample, options);
  return AdaptiveIndex::FromImages(cfg, sc.images);
}

}  // namespace accl
