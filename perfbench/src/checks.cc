#include "checks.h"

#include <algorithm>
#include <deque>

namespace perfbench {
namespace {

constexpr uint32_t kMagic = 0x31534455;  // "UDS1"

std::map<int, std::vector<int>> Adjacency(const EdgeSet& edges) {
  std::map<int, std::vector<int>> adj;
  for (const Edge& e : edges) adj[e.first].push_back(e.second);
  return adj;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

}  // namespace

EdgeSet Closure(const EdgeSet& edges) {
  const auto adj = Adjacency(edges);
  EdgeSet out;
  for (int source : Nodes(edges)) {
    std::set<int> seen;
    std::deque<int> queue;
    auto it = adj.find(source);
    if (it == adj.end()) continue;
    for (int next : it->second) {
      if (seen.insert(next).second) queue.push_back(next);
    }
    while (!queue.empty()) {
      const int node = queue.front();
      queue.pop_front();
      out.insert({source, node});
      auto jt = adj.find(node);
      if (jt == adj.end()) continue;
      for (int next : jt->second) {
        if (seen.insert(next).second) queue.push_back(next);
      }
    }
  }
  return out;
}

std::set<int> Nodes(const EdgeSet& edges) {
  std::set<int> nodes;
  for (const Edge& e : edges) {
    nodes.insert(e.first);
    nodes.insert(e.second);
  }
  return nodes;
}

std::map<Edge, int> Distances(const EdgeSet& edges) {
  const auto adj = Adjacency(edges);
  std::map<Edge, int> dist;
  for (int source : Nodes(edges)) {
    std::map<int, int> seen;
    std::deque<int> queue;
    auto it = adj.find(source);
    if (it == adj.end()) continue;
    for (int next : it->second) {
      if (seen.emplace(next, 1).second) queue.push_back(next);
    }
    while (!queue.empty()) {
      const int node = queue.front();
      queue.pop_front();
      const int d = seen[node];
      dist[{source, node}] = d;
      auto jt = adj.find(node);
      if (jt == adj.end()) continue;
      for (int next : jt->second) {
        if (seen.emplace(next, d + 1).second) queue.push_back(next);
      }
    }
  }
  return dist;
}

std::map<int, Outcome3> SolveGame(const EdgeSet& moves) {
  std::map<int, std::vector<int>> preds;
  std::map<int, int> open_moves;
  for (int node : Nodes(moves)) open_moves[node] = 0;
  for (const Edge& m : moves) {
    preds[m.second].push_back(m.first);
    ++open_moves[m.first];
  }
  std::map<int, Outcome3> result;
  std::deque<int> queue;
  for (const auto& [node, count] : open_moves) {
    if (count == 0) {
      result[node] = Outcome3::kLost;
      queue.push_back(node);
    }
  }
  while (!queue.empty()) {
    const int node = queue.front();
    queue.pop_front();
    const bool lost = result[node] == Outcome3::kLost;
    for (int p : preds[node]) {
      if (result.count(p) != 0) continue;
      if (lost) {
        result[p] = Outcome3::kWon;
        queue.push_back(p);
      } else if (--open_moves[p] == 0) {
        result[p] = Outcome3::kLost;
        queue.push_back(p);
      }
    }
  }
  for (const auto& entry : open_moves) {
    result.emplace(entry.first, Outcome3::kDrawn);
  }
  return result;
}

EdgeSet StripSinks(EdgeSet edges) {
  for (;;) {
    std::set<int> has_out;
    for (const Edge& e : edges) has_out.insert(e.first);
    EdgeSet kept;
    for (const Edge& e : edges) {
      if (has_out.count(e.second) != 0) kept.insert(e);
    }
    if (kept.size() == edges.size()) return edges;
    edges = std::move(kept);
  }
}

std::string EncodeSnapshot(const Relations& relations,
                           const std::map<uint32_t, uint32_t>& arity) {
  std::string out;
  uint32_t nonempty = 0;
  for (const auto& [pred, rows] : relations) nonempty += !rows.empty();
  PutU32(&out, kMagic);
  PutU32(&out, nonempty);
  for (const auto& [pred, rows] : relations) {
    if (rows.empty()) continue;
    Rows sorted = rows;
    std::sort(sorted.begin(), sorted.end());
    PutU32(&out, pred);
    PutU32(&out, arity.at(pred));
    PutU32(&out, static_cast<uint32_t>(sorted.size()));
    for (const auto& row : sorted) {
      for (uint32_t v : row) PutU32(&out, v);
    }
  }
  return out;
}

std::vector<std::string> SelfTestCheckers() {
  std::vector<std::string> failures;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) failures.push_back(what);
  };

  expect(Closure({{1, 2}, {2, 3}}) == EdgeSet{{1, 2}, {2, 3}, {1, 3}},
         "closure of the chain 1-2-3");
  expect(Closure({{1, 2}, {2, 1}}) ==
             EdgeSet{{1, 2}, {2, 1}, {1, 1}, {2, 2}},
         "closure of the 2-cycle");
  // Chain 0..3 with the bypass 0->2: 3 is reachable from 0 both ways.
  expect(Closure({{0, 1}, {1, 2}, {2, 3}, {0, 2}}).size() == 6,
         "closure of a chain with a bypass");

  const auto dist = Distances({{1, 2}, {2, 3}, {1, 3}, {3, 4}});
  expect(dist.at({1, 2}) == 1 && dist.at({1, 3}) == 1 &&
             dist.at({1, 4}) == 2 && dist.at({2, 4}) == 2 &&
             dist.count({4, 1}) == 0 && dist.size() == 6,
         "BFS distances");

  // Example 3.2 of the paper, a..g as 1..7: d and f win, e and g lose,
  // the cycle a-b-c is drawn.
  const auto game = SolveGame(
      {{2, 3}, {3, 1}, {1, 2}, {1, 4}, {4, 5}, {4, 6}, {6, 7}});
  expect(game.at(4) == Outcome3::kWon && game.at(6) == Outcome3::kWon &&
             game.at(5) == Outcome3::kLost && game.at(7) == Outcome3::kLost &&
             game.at(1) == Outcome3::kDrawn &&
             game.at(2) == Outcome3::kDrawn && game.at(3) == Outcome3::kDrawn,
         "retrograde solver on Example 3.2");
  // 1 -> 2 -> 3: 3 lost, 2 won, 1 lost.
  const auto line = SolveGame({{1, 2}, {2, 3}});
  expect(line.at(1) == Outcome3::kLost && line.at(2) == Outcome3::kWon &&
             line.at(3) == Outcome3::kLost,
         "retrograde solver on a line");

  expect(StripSinks({{1, 2}, {2, 3}}).empty(), "sink stripping a chain");
  expect(StripSinks({{1, 2}, {2, 3}, {1, 4}, {4, 1}}) ==
             EdgeSet{{1, 4}, {4, 1}},
         "sink stripping a chain hanging off a cycle");

  // {pred 2/1: rows 5, 3} is "UDS1", 1 relation, 2, 1, 2 rows, 3, 5.
  std::string bytes;
  for (uint32_t w : {kMagic, 1u, 2u, 1u, 2u, 3u, 5u}) PutU32(&bytes, w);
  Relations rel{{2u, {{5u}, {3u}}}, {7u, {}}};
  expect(EncodeSnapshot(rel, {{2u, 1u}, {7u, 2u}}) == bytes,
         "snapshot encoder");
  return failures;
}

}  // namespace perfbench
