package ooc

import (
	"fmt"
	"math/rand"
	"strings"

	"oocphylo/internal/tree"
)

// Strategy picks which resident vector to evict on a miss — the paper's
// replacement strategies (§3.3). Touch is called on every vector access
// (hit or miss) so stateful policies can maintain recency/frequency
// bookkeeping; PickVictim chooses among the evictable resident items
// (pinned vectors are already excluded by the manager).
type Strategy interface {
	// Name identifies the policy in reports ("RAND", "LRU", ...).
	Name() string
	// Touch records an access to item.
	Touch(item int)
	// PickVictim returns the index *within candidates* of the item to
	// evict, given that `requested` is being faulted in. candidates is
	// never empty. requested is -1 when the eviction frees a slot for
	// the pool shrink of Manager.Resize rather than an incoming item.
	PickVictim(candidates []int, requested int) int
	// Reset clears policy state.
	Reset()
}

// StrategyByName instantiates one of the paper's four replacement
// strategies for n vectors by its case-insensitive name: random (alias
// rand), lru, lfu, or topological (alias topo) over tree t. seed drives
// only Random.
func StrategyByName(name string, n int, t *tree.Tree, seed int64) (Strategy, error) {
	switch strings.ToLower(name) {
	case "random", "rand":
		return NewRandom(rand.New(rand.NewSource(seed))), nil
	case "lru":
		return NewLRU(n), nil
	case "lfu":
		return NewLFU(n), nil
	case "topological", "topo":
		return NewTopological(t), nil
	}
	return nil, fmt.Errorf("ooc: unknown strategy %q", name)
}

// RandomStrategy evicts a uniformly random evictable vector — the
// paper's minimum-overhead policy, which its Figure 2 shows to perform
// on par with LRU and Topological.
type RandomStrategy struct {
	rng *rand.Rand
}

// NewRandom returns a Random strategy driven by the given source.
func NewRandom(rng *rand.Rand) *RandomStrategy { return &RandomStrategy{rng: rng} }

// Name implements Strategy.
func (s *RandomStrategy) Name() string { return "RAND" }

// Touch implements Strategy (no bookkeeping).
func (s *RandomStrategy) Touch(int) {}

// PickVictim implements Strategy.
func (s *RandomStrategy) PickVictim(candidates []int, _ int) int {
	return s.rng.Intn(len(candidates))
}

// Reset implements Strategy.
func (s *RandomStrategy) Reset() {}

// LRUStrategy evicts the least recently used vector. The paper notes an
// O(log n) search over timestamps; with one timestamp per item the
// linear scan over the (at most m) candidates below is semantically
// identical and simpler.
type LRUStrategy struct {
	stamp []int64
	now   int64
}

// NewLRU returns an LRU strategy for numItems vectors.
func NewLRU(numItems int) *LRUStrategy {
	return &LRUStrategy{stamp: make([]int64, numItems)}
}

// Name implements Strategy.
func (s *LRUStrategy) Name() string { return "LRU" }

// Touch implements Strategy.
func (s *LRUStrategy) Touch(item int) {
	s.now++
	s.stamp[item] = s.now
}

// PickVictim implements Strategy.
func (s *LRUStrategy) PickVictim(candidates []int, _ int) int {
	best := 0
	for i, it := range candidates {
		if s.stamp[it] < s.stamp[candidates[best]] {
			best = i
		}
	}
	return best
}

// Reset implements Strategy.
func (s *LRUStrategy) Reset() {
	for i := range s.stamp {
		s.stamp[i] = 0
	}
	s.now = 0
}

// LFUStrategy evicts the least frequently used vector (the paper's
// worst performer).
type LFUStrategy struct {
	freq []int64
}

// NewLFU returns an LFU strategy for numItems vectors.
func NewLFU(numItems int) *LFUStrategy {
	return &LFUStrategy{freq: make([]int64, numItems)}
}

// Name implements Strategy.
func (s *LFUStrategy) Name() string { return "LFU" }

// Touch implements Strategy.
func (s *LFUStrategy) Touch(item int) { s.freq[item]++ }

// PickVictim implements Strategy.
func (s *LFUStrategy) PickVictim(candidates []int, _ int) int {
	best := 0
	for i, it := range candidates {
		if s.freq[it] < s.freq[candidates[best]] {
			best = i
		}
	}
	return best
}

// Reset implements Strategy.
func (s *LFUStrategy) Reset() {
	for i := range s.freq {
		s.freq[i] = 0
	}
}

// TopologicalStrategy evicts the vector whose tree node is farthest (in
// node distance along the unique connecting path, §3.3) from the
// requested vector's node, on the rationale that the search will touch
// it again furthest in the future. It needs the tree to measure
// distances; the tree may be mutated by the search between accesses —
// distances are recomputed per eviction from current topology.
type TopologicalStrategy struct {
	t       *tree.Tree
	numTips int
}

// NewTopological returns a Topological strategy over t. Vector index vi
// corresponds to tree node vi + t.NumTips.
func NewTopological(t *tree.Tree) *TopologicalStrategy {
	return &TopologicalStrategy{t: t, numTips: t.NumTips}
}

// Name implements Strategy.
func (s *TopologicalStrategy) Name() string { return "Topological" }

// Touch implements Strategy (stateless).
func (s *TopologicalStrategy) Touch(int) {}

// PickVictim implements Strategy: one BFS from the requested node, then
// the farthest candidate wins.
func (s *TopologicalStrategy) PickVictim(candidates []int, requested int) int {
	if requested < 0 {
		// Pool shrink: no item is being faulted in. Measure from the
		// first candidate so the choice stays deterministic — the
		// candidate farthest from the rest of the resident set loses.
		requested = candidates[0]
	}
	node := s.t.Nodes[requested+s.numTips]
	dist := tree.NodeDistances(s.t, node)
	best, bestD := 0, -1
	for i, it := range candidates {
		d := dist[it+s.numTips]
		if d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Reset implements Strategy.
func (s *TopologicalStrategy) Reset() {}
