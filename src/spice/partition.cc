#include "spice/partition.h"

#include <algorithm>

#include "common/error.h"
#include "spice/stamp_pattern.h"

namespace fefet::spice {

BbdPartition::BbdPartition(const StampPattern& pattern,
                           std::vector<int> borderSeeds) {
  const int n = pattern.unknowns();
  const int nodes = pattern.nodeCount();
  const auto& rowPtr = pattern.rowPtr();
  const auto& colIdx = pattern.colIdx();
  partition_.n = n;

  std::vector<char> isBorder(static_cast<std::size_t>(n), 0);
  for (int seed : borderSeeds) {
    FEFET_REQUIRE(seed >= 0 && seed < n,
                  "BbdPartition: border seed row out of range");
    isBorder[static_cast<std::size_t>(seed)] = 1;
  }

  // Undirected adjacency (union pattern is not symmetric for source aux
  // rows).
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (std::size_t p = rowPtr[static_cast<std::size_t>(r)];
         p < rowPtr[static_cast<std::size_t>(r) + 1]; ++p) {
      const int c = static_cast<int>(colIdx[p]);
      if (c == r) continue;
      adj[static_cast<std::size_t>(r)].push_back(c);
      adj[static_cast<std::size_t>(c)].push_back(r);
    }
  }
  for (auto& nb : adj) {
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }

  // Promote aux rows adjacent to the border, to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int r = nodes; r < n; ++r) {
      if (isBorder[static_cast<std::size_t>(r)]) continue;
      for (int c : adj[static_cast<std::size_t>(r)]) {
        if (isBorder[static_cast<std::size_t>(c)]) {
          isBorder[static_cast<std::size_t>(r)] = 1;
          changed = true;
          break;
        }
      }
    }
  }

  for (int r = 0; r < n; ++r) {
    if (isBorder[static_cast<std::size_t>(r)]) {
      partition_.borderRows.push_back(r);
    }
  }

  // Connected components of the interior.
  std::vector<int> component(static_cast<std::size_t>(n), -1);
  std::vector<int> stack;
  int nComponents = 0;
  for (int r = 0; r < n; ++r) {
    if (isBorder[static_cast<std::size_t>(r)] ||
        component[static_cast<std::size_t>(r)] >= 0) {
      continue;
    }
    const int id = nComponents++;
    component[static_cast<std::size_t>(r)] = id;
    stack.push_back(r);
    partition_.blocks.emplace_back();
    while (!stack.empty()) {
      const int cur = stack.back();
      stack.pop_back();
      partition_.blocks.back().push_back(cur);
      for (int c : adj[static_cast<std::size_t>(cur)]) {
        if (!isBorder[static_cast<std::size_t>(c)] &&
            component[static_cast<std::size_t>(c)] < 0) {
          component[static_cast<std::size_t>(c)] = id;
          stack.push_back(c);
        }
      }
    }
  }

  for (const auto& block : partition_.blocks) {
    maxBlockRows_ = std::max(maxBlockRows_, static_cast<int>(block.size()));
  }
}

}  // namespace fefet::spice
