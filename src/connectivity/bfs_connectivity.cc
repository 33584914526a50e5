#include "connectivity/bfs_connectivity.h"

#include <deque>

#include "common/check.h"

namespace ddc {

void BfsConnectivity::EnsureVertices(int n) {
  while (num_vertices() < n) {
    adj_.emplace_back();
    label_.push_back(next_label_);
    comp_size_.push_back(1);
    ++next_label_;
  }
}

int BfsConnectivity::Relabel(int start, uint64_t label) {
  std::deque<int> frontier{start};
  const uint64_t old = label_[start];
  label_[start] = label;
  int count = 1;
  while (!frontier.empty()) {
    const int x = frontier.front();
    frontier.pop_front();
    for (const int y : adj_[x]) {
      if (label_[y] == old) {
        label_[y] = label;
        ++count;
        frontier.push_back(y);
      }
    }
  }
  return count;
}

void BfsConnectivity::AddEdge(int u, int v) {
  DDC_CHECK(u != v && u >= 0 && v >= 0 && u < num_vertices() &&
            v < num_vertices());
  DDC_CHECK(adj_[u].insert(v).second);
  adj_[v].insert(u);
  const uint64_t lu = label_[u], lv = label_[v];
  if (lu == lv) return;
  // Relabel the smaller component into the larger.
  if (comp_size_[lu] < comp_size_[lv]) {
    comp_size_[lv] += Relabel(u, lv);
  } else {
    comp_size_[lu] += Relabel(v, lu);
  }
}

void BfsConnectivity::RemoveEdge(int u, int v) {
  DDC_CHECK(adj_[u].erase(v) == 1);
  DDC_CHECK(adj_[v].erase(u) == 1);
  // Alternating BFS from both endpoints: whichever exhausts first is a
  // complete (possibly new) component; if the threads meet, no split.
  struct Thread {
    std::deque<int> frontier;
    std::unordered_set<int> seen;
    int other_start;
  };
  Thread a{{u}, {u}, v};
  Thread b{{v}, {v}, u};
  Thread* t[2] = {&a, &b};
  for (;;) {
    for (int k = 0; k < 2; ++k) {
      Thread& th = *t[k];
      if (th.frontier.empty()) {
        // th's side is a full component, split off. Relabel it (it is no
        // larger than the other side plus one BFS step; good enough).
        const uint64_t old = label_[k == 0 ? u : v];
        comp_size_.push_back(0);
        const uint64_t fresh = next_label_++;
        const int moved = Relabel(k == 0 ? u : v, fresh);
        comp_size_[fresh] = moved;
        comp_size_[old] -= moved;
        return;
      }
      const int x = th.frontier.front();
      th.frontier.pop_front();
      for (const int y : adj_[x]) {
        if (y == th.other_start) return;  // Still connected.
        if (th.seen.insert(y).second) th.frontier.push_back(y);
      }
    }
  }
}

bool BfsConnectivity::Connected(int u, int v) {
  return label_[u] == label_[v];
}

}  // namespace ddc
