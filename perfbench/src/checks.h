#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Reference computations the benchmark checks the program against. They
// share no code with the program: plain graph algorithms over integer
// node ids, and an encoder for the documented snapshot byte layout
// (Instance::SerializeSnapshot: u32 magic "UDS1", u32 relation count,
// then per relation u32 pred, u32 arity, u32 rows and the rows' values as
// u32 words, relations by ascending pred, rows in lexicographic order;
// all little endian).

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Edge = std::pair<int, int>;
using EdgeSet = std::set<Edge>;

/// Pairs (x, y) with a path of one or more edges from x to y (BFS from
/// every node).
EdgeSet Closure(const EdgeSet& edges);

/// Nodes that occur in some edge.
std::set<int> Nodes(const EdgeSet& edges);

/// Shortest path length for every reachable pair (x, y), path length >= 1.
std::map<Edge, int> Distances(const EdgeSet& edges);

enum class Outcome3 { kWon, kLost, kDrawn };
/// Retrograde analysis of the game "a player who cannot move loses": a
/// position with no moves is lost, one with a move to a lost position is
/// won, one whose moves all lead to won positions is lost; the rest are
/// drawn.
std::map<int, Outcome3> SolveGame(const EdgeSet& moves);

/// Repeatedly deletes every edge into a sink (a node without outgoing
/// edges) until no edge goes into a sink; returns the edges left.
EdgeSet StripSinks(EdgeSet edges);

/// Rows of one relation as raw value words.
using Rows = std::vector<std::vector<uint32_t>>;
/// pred id -> rows: the relations a snapshot holds.
using Relations = std::map<uint32_t, Rows>;

/// Encodes relations in the snapshot layout (rows are sorted here;
/// empty relations are left out, as the program does).
std::string EncodeSnapshot(const Relations& relations,
                           const std::map<uint32_t, uint32_t>& arity);

/// Runs every reference computation on small hand-checked inputs and
/// the encoder against a hand-built byte string; returns the failures.
std::vector<std::string> SelfTestCheckers();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
