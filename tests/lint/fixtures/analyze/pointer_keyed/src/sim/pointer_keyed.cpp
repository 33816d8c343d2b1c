// Known-bad fixture for the pointer-keyed-ordering rule: ordered
// containers keyed on addresses — iteration order becomes allocation
// order, which ASLR reshuffles per process.
#include <map>
#include <queue>
#include <set>
#include <vector>

struct Block;

int address_ordered(const Block* block) {
  // analyze-expect: pointer-keyed-ordering
  std::map<const Block*, int> first_seen;
  // analyze-expect: pointer-keyed-ordering
  std::set<Block*> frontier;
  // analyze-expect: pointer-keyed-ordering
  std::priority_queue<Block*, std::vector<Block*>, std::less<Block*>> heap;
  first_seen[block] = 1;
  return static_cast<int>(first_seen.size() + frontier.size() + heap.size());
}
