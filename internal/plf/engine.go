package plf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/obs"
	"oocphylo/internal/record"
	"oocphylo/internal/tree"
)

// Scaling constants (RAxML's scheme): whenever every entry of a
// pattern's block drops below minLikelihood the block is multiplied by
// 2^256 and the pattern's scale counter is incremented; the evaluation
// subtracts counter*ln(2^256) per pattern.
const (
	scalingExponent = 256
	logScaleFactor  = scalingExponent * 0.6931471805599453 // ln(2^256)
)

var (
	minLikelihood = math.Ldexp(1, -scalingExponent) // 2^-256
	scaleFactor   = math.Ldexp(1, scalingExponent)  // 2^256
)

// Stats counts the engine operations a workload performed; the paper's
// locality arguments (§4.2) are statements about these counters.
type Stats struct {
	// Newviews is the number of ancestral-vector (re)computations.
	Newviews int64
	// ClassMapsBuilt counts the newviews that built their node's class
	// map; the others reused the map of the node's last build (see
	// classify). Every newview under KernelGeneric builds one.
	ClassMapsBuilt int64
	// ClassesComputed sums, over those newviews, the site classes each
	// one computed: one per distinct (left-class, right-class) pair of
	// the node's patterns, or every pattern under KernelGeneric and at
	// nodes past the pair-table cap (see classify). ClassesComputed /
	// (Newviews × patterns) is the share of site-newviews computed.
	ClassesComputed int64
	// Evaluations is the number of log-likelihood evaluations.
	Evaluations int64
	// SumTables is the number of derivative sum-table constructions.
	SumTables int64
	// NewtonIters is the number of Newton-Raphson iterations performed
	// during branch-length optimisation.
	NewtonIters int64
	// Recoveries is the number of corrupted ancestral vectors the
	// engine healed by invalidating the node and recomputing its
	// subtree (the LvD recompute-vs-store tradeoff turned into a
	// fault-tolerance mechanism: any inner vector is a pure function
	// of its children, so corruption costs extra newviews, not the
	// run).
	Recoveries int64
	// PCacheHits / PCacheMisses count branch-length transition-matrix
	// cache lookups (see pcache.go); PCacheDrops counts wholesale
	// resets after the cache filled. All zero under KernelGeneric,
	// where the cache is disabled.
	PCacheHits, PCacheMisses, PCacheDrops int64
}

// Engine evaluates the PLF for one (tree, alignment, model) triple over
// a pluggable ancestral-vector store. It is not safe for concurrent use.
type Engine struct {
	T *tree.Tree
	M *model.Model
	P *bio.Patterns

	prov VectorProvider
	// orient is the vectors' validity (see Invalidate), mark its copy
	// at MarkOrientation, version the M.Version() they were computed at.
	orient, mark tree.Orientation
	version      uint64
	// plan is traverseThen's step buffer, reused so a warm traversal
	// allocates nothing.
	plan []tree.Step

	nPat, nCat, nStates int
	weights             []float64

	// maskList enumerates the distinct tip masks in the alignment;
	// tipCode[tip][pattern] indexes into it, and is the tip's class map
	// (see cls). tipInd holds the 0/1 indicator vector per mask.
	maskList []bio.StateMask
	tipCode  [][]int32
	tipInd   []float64 // len(maskList) * nStates

	// cls[vi][pattern] is inner vector vi's site class and ncls[vi] its
	// class count. The vector is held class-major: block c (nCat·k
	// entries) of its slot and scales[vi][c] belong to class c, computed
	// once at the class's first pattern; the slot's tail past ncls[vi]
	// blocks is never read, and when ncls[vi] < nPat its last word
	// carries the length of the store record, those blocks (package
	// record). A node's class at a site is the id of its children's
	// (class, class) pair there, so sites with equal classes have
	// bit-equal entries by construction. The newview that revalidates
	// the node builds or reuses the map (see classify); like scales, it
	// stays in RAM.
	cls  [][]int32
	ncls []int
	// pairGen/pairID are classify's direct (left-class, right-class)
	// table, sized at construction: an entry is live for the current
	// newview when its stamp equals gen, so no newview clears the table.
	// repL/repR receive, per class, the children's classes its kernel
	// reads.
	pairGen    []uint32
	pairID     []int32
	gen        uint32
	repL, repR []int32
	// A class map depends only on the children's maps, so a newview
	// reuses node vi's map when its children are the nodes of the map's
	// last build and neither child's map was built since. clsGen[vi] is
	// that build's generation (from builds, which only grows; a tip's is
	// 0, for a tip's map never changes) and clsKids[vi] its children's
	// node indices, {-1, -1} when the build left nothing to reuse (under
	// KernelGeneric or past the pair-table cap). nodeRepL/nodeRepR[vi]
	// keep the build's representatives, ncls[vi] entries each.
	clsGen             []uint64
	clsKids            [][2]int32
	builds             uint64
	nodeRepL, nodeRepR [][]int32

	// scales[vi][class] holds the per-class scaling counters for inner
	// vector vi (indexed like its blocks, through cls). Counters are 4
	// bytes/site/vector (~3% of vector memory) and stay in RAM; the
	// paper pages only the probability vectors themselves.
	scales [][]int32

	// linv[pattern] is the +I mixture's invariant-component likelihood:
	// the equilibrium probability mass of the states shared by every
	// taxon at that pattern (zero when the pattern cannot be constant).
	linv []float64

	// workers is the PLF kernel fan-out (see SetWorkers); pool is the
	// persistent goroutine pool serving it when workers > 1.
	workers int
	pool    *workerPool

	// c owns the active kernel set, the P-matrix cache and all numeric
	// scratch (see compute.go). kernelMode names the configured mode (see
	// SetKernel).
	c          *compute
	kernelMode string

	// Scratch, reused across steps.
	sumTabSc []int32   // nPat combined scale counters for the sum table
	siteBuf  []float64 // nPat*3 per-pattern values for deterministic reductions
	// Fixed-size pin scratch: demand fetches pin at most two vectors,
	// so the slices handed to the provider can be views of these
	// engine-owned arrays instead of per-call heap allocations.
	pinsL, pinsR, pinsP [2]int
	// fdfFn is the Newton objective OptimizeBranch hands to the solver,
	// bound once here so branch optimisation allocates nothing per call.
	fdfFn func(t float64) (d1, d2 float64)
	// nrD1/nrD2 are the derivatives OptimizeBranch's starting-point pass
	// produced at nrT from the sum table its Newton run then iterates
	// on, so fdfFn serves them whenever the solver asks at that t.
	nrT, nrD1, nrD2 float64

	Stats Stats
	// eobs holds the observability instruments (see obs.go); the zero
	// value means uninstrumented and costs one nil/bool check per site.
	eobs engineObs
	// span is the request-scoped tracing span SetContext found in its
	// context; traversal/evaluate child spans are emitted under it (nil
	// when untraced: one nil check per public call, no clock).
	span *obs.Span

	// ctx, when set, cancels traversals at the next step boundary (see
	// SetContext); safePoint, when set, runs between newview calls —
	// a caller's hook (see SetSafePoint).
	ctx       context.Context
	safePoint func() error
}

// VectorLength returns the number of elements per ancestral vector for
// an alignment with nPat patterns under model m — the paper's page size
// w (in float64 elements rather than bytes).
func VectorLength(m *model.Model, nPat int) int {
	return nPat * m.Cats() * m.States
}

// New builds an engine. The provider must have been sized with
// NumVectors() == t.NumInner() and VectorLen() == VectorLength(m, pats).
func New(t *tree.Tree, pats *bio.Patterns, m *model.Model, prov VectorProvider) (*Engine, error) {
	if t.NumTips != pats.NumTaxa() {
		return nil, fmt.Errorf("plf: tree has %d tips, alignment has %d taxa", t.NumTips, pats.NumTaxa())
	}
	if m.States != pats.Alphabet.States {
		return nil, fmt.Errorf("plf: model has %d states, alignment %d", m.States, pats.Alphabet.States)
	}
	e := &Engine{
		T: t, M: m, P: pats,
		prov:    prov,
		orient:  tree.NewOrientation(len(t.Nodes)),
		nPat:    pats.NumPatterns(),
		nCat:    m.Cats(),
		nStates: m.States,
	}
	if prov.NumVectors() < t.NumInner() {
		return nil, fmt.Errorf("plf: provider holds %d vectors, tree needs %d", prov.NumVectors(), t.NumInner())
	}
	if n := VectorLength(m, e.nPat); prov.VectorLen() != n {
		return nil, fmt.Errorf("plf: provider vector length %d, engine needs %d", prov.VectorLen(), n)
	}
	e.weights = make([]float64, e.nPat)
	for i, w := range pats.Weights {
		e.weights[i] = float64(w)
	}

	// Tip encoding: map each tree tip to its alignment row by name, then
	// index the distinct masks.
	maskIdx := make(map[bio.StateMask]int32)
	e.tipCode = make([][]int32, t.NumTips)
	for ti := 0; ti < t.NumTips; ti++ {
		ai := -1
		for r, name := range pats.Names {
			if name == t.Nodes[ti].Name {
				ai = r
				break
			}
		}
		if ai < 0 {
			return nil, fmt.Errorf("plf: tree tip %q missing from alignment", t.Nodes[ti].Name)
		}
		codes := make([]int32, e.nPat)
		for p, mask := range pats.Columns[ai] {
			id, ok := maskIdx[mask]
			if !ok {
				id = int32(len(e.maskList))
				maskIdx[mask] = id
				e.maskList = append(e.maskList, mask)
			}
			codes[p] = id
		}
		e.tipCode[ti] = codes
	}
	// 0/1 indicators per distinct mask.
	e.tipInd = make([]float64, len(e.maskList)*e.nStates)
	for mi, mask := range e.maskList {
		for s := 0; s < e.nStates; s++ {
			if mask&(1<<uint(s)) != 0 {
				e.tipInd[mi*e.nStates+s] = 1
			}
		}
	}

	e.scales = make([][]int32, t.NumInner())
	e.cls = make([][]int32, t.NumInner())
	e.ncls = make([]int, t.NumInner())
	for i := range e.scales {
		e.scales[i] = make([]int32, e.nPat)
		e.cls[i] = make([]int32, e.nPat)
	}
	e.repL = make([]int32, e.nPat)
	e.repR = make([]int32, e.nPat)
	e.clsGen = make([]uint64, t.NumInner())
	e.clsKids = make([][2]int32, t.NumInner())
	for i := range e.clsKids {
		e.clsKids[i] = [2]int32{-1, -1}
	}
	e.nodeRepL = make([][]int32, t.NumInner())
	e.nodeRepR = make([][]int32, t.NumInner())
	// Class counts are at most max(masks, patterns), so the pair table
	// never needs more entries than that squared.
	n := max(len(e.maskList), e.nPat)
	e.pairGen = make([]uint32, min(n*n, pairTableCap))
	e.pairID = make([]int32, len(e.pairGen))
	// Invariant-component likelihoods: intersect all taxa's masks per
	// pattern, then sum the equilibrium frequencies of the shared states.
	e.linv = make([]float64, e.nPat)
	for i := 0; i < e.nPat; i++ {
		shared := pats.Alphabet.AllStates()
		for row := range pats.Columns {
			shared &= pats.Columns[row][i]
		}
		if shared == 0 {
			continue
		}
		for s := 0; s < e.nStates; s++ {
			if shared&(1<<uint(s)) != 0 {
				e.linv[i] += m.Freqs[s]
			}
		}
	}
	e.sumTabSc = make([]int32, e.nPat)
	e.siteBuf = make([]float64, e.nPat*3)
	e.c = newCompute(e)
	e.fdfFn = func(t float64) (float64, float64) {
		e.Stats.NewtonIters++
		e.eobs.newtonIters.Inc()
		d1, d2 := e.nrD1, e.nrD2
		if t != e.nrT {
			_, d1, d2 = e.sumTableValues(t, false)
		}
		if d2 >= 0 {
			// Convex region: a raw Newton step would move away from the
			// maximum. Signal an unusable derivative so the solver takes
			// a damped step in the uphill direction of d1 instead (the
			// same guard RAxML's makenewz applies).
			return d1, math.NaN()
		}
		return d1, d2
	}
	if err := e.SetKernel(KernelAuto); err != nil {
		return nil, err
	}
	return e, nil
}

// Provider returns the vector provider the engine runs on.
func (e *Engine) Provider() VectorProvider { return e.prov }

// Invalidate marks the vectors of nodes stale (tips hold none). The
// engine is the one writer of vector validity: an inner node's
// orientation names the neighbor its vector points toward, nil when
// stale, and a pass recomputes just what it needs that is not valid its
// way. A pass orients what it computed; Invalidate, the mark/rollback
// pair and an unreadable vector make vectors stale, and so does a model
// edit (a new M.Version()) at the next pass, with no call of the caller's.
//
// A topology edit must invalidate every node whose adjacency set it
// changed: the planner sees an orientation naming a former neighbor,
// not a restored neighbor whose siblings changed. An SPR driver calls
// MarkOrientation after pruning, with every valid vector pointed at the
// edit site, and InvalidateChangedSinceMark when the move concludes: a
// vector that still matches the mark excludes the edit region and stays
// valid; one computed since holds a trial topology.
func (e *Engine) Invalidate(nodes ...*tree.Node) {
	for _, n := range nodes {
		if !n.IsTip() {
			e.orient[n.Index] = nil
		}
	}
}

// InvalidateAll marks every ancestral vector stale, forcing the next
// evaluation to run a full traversal.
func (e *Engine) InvalidateAll() { e.Invalidate(e.T.Nodes...) }

// MarkOrientation records the validity state for the next
// InvalidateChangedSinceMark, in a buffer the engine reuses.
func (e *Engine) MarkOrientation() { e.mark = append(e.mark[:0], e.orient...) }

// InvalidateChangedSinceMark makes stale every vector whose orientation
// has changed since the last MarkOrientation.
func (e *Engine) InvalidateChangedSinceMark() {
	for i, o := range e.mark {
		if e.orient[i] != o {
			e.Invalidate(e.T.Nodes[i])
		}
	}
}

// vi converts a tree node to its vector index.
func (e *Engine) vi(n *tree.Node) int { return n.Index - e.T.NumTips }

// buildTipSum fills dst[cat][maskID][s] = sum_j P_cat[s][j] * ind[j]:
// the per-category transition-weighted tip indicator lookup table
// (RAxML's tipVector precomputation).
func buildTipSum(e *Engine, dst, pmats []float64) {
	k := e.nStates
	k2 := k * k
	nm := len(e.maskList)
	for c := 0; c < e.nCat; c++ {
		p := pmats[c*k2 : (c+1)*k2]
		for mi := 0; mi < nm; mi++ {
			ind := e.tipInd[mi*k : (mi+1)*k]
			out := dst[(c*nm+mi)*k : (c*nm+mi+1)*k]
			for s := 0; s < k; s++ {
				acc := 0.0
				row := p[s*k : (s+1)*k]
				for j := 0; j < k; j++ {
					acc += row[j] * ind[j]
				}
				out[s] = acc
			}
		}
	}
}

// EnablePrefetch does nothing: every vector is read on demand. It
// stays for callers that still call it, the benchmark harness among them.
func (e *Engine) EnablePrefetch(bool) {}

// SetContext attaches ctx to the engine: traversals abort with an
// error wrapping ctx.Err() at the next step boundary once ctx is
// cancelled — no vector is left half-computed, so a cancelled run can
// still flush and checkpoint. The context is forwarded to the vector
// provider when it supports one (ooc.Manager does), cancelling the
// blocking edges of the I/O pipeline too. nil restores the default.
//
// The span ctx carries (obs.ContextWithSpan) attributes subsequent
// engine work: each traversal (plf.newviews), LogLikelihoodAt
// (plf.evaluate), sum table and corruption recovery is a child span
// under it, and the provider takes it from the same context, so
// fault-ins and evictions land in the same trace. A context without
// one, or nil, means untraced.
func (e *Engine) SetContext(ctx context.Context) {
	e.ctx = ctx
	e.span = obs.SpanFromContext(ctx)
	if p, ok := e.prov.(interface{ SetContext(context.Context) }); ok {
		p.SetContext(ctx)
	}
}

// Span returns the span SetContext found (nil when untraced), so a
// caller driving the engine can emit its own spans beside the engine's.
func (e *Engine) Span() *obs.Span { return e.span }

// SetSafePoint installs fn to run before every newview call — the
// point where the engine holds no vector address, so the hook may
// restructure the provider (resize the slot pool, say) or observe
// progress. A non-nil error from fn aborts the traversal. nil removes
// the hook.
func (e *Engine) SetSafePoint(fn func() error) { e.safePoint = fn }

// atSafePoint runs the cancellation check and the safe-point hook;
// called between newview calls, where no vector address is live.
func (e *Engine) atSafePoint() error {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return fmt.Errorf("plf: traversal interrupted: %w", err)
		}
	}
	if e.safePoint != nil {
		if err := e.safePoint(); err != nil {
			return fmt.Errorf("plf: safe-point hook: %w", err)
		}
	}
	return nil
}

// execute runs a traversal plan: one Felsenstein step per entry, in
// order, then records the resulting orientations.
func (e *Engine) execute(steps []tree.Step) error {
	var spanStart time.Time
	if e.span != nil && len(steps) > 0 {
		spanStart = time.Now()
	}
	for i := range steps {
		if err := e.atSafePoint(); err != nil {
			return err
		}
		if err := e.newview(&steps[i]); err != nil {
			return err
		}
	}
	tree.ApplyOrientation(e.orient, steps)
	if e.span != nil && len(steps) > 0 {
		e.span.EmitChild("plf.newviews", spanStart, time.Since(spanStart),
			obs.Attr{Key: "steps", Int: int64(len(steps))})
	}
	return nil
}

// newview computes the ancestral vector at s.Node from its two children
// across their connecting branches. Input resolution (transition
// matrices via the cache, tip tables, provider fetches with pinning)
// happens here on the calling goroutine; the per-pattern arithmetic is
// delegated to the active kernel set.
func (e *Engine) newview(s *tree.Step) error {
	e.Stats.Newviews++
	e.eobs.newviews.Inc()
	var nvStart time.Time
	if e.eobs.on {
		nvStart = time.Now()
	}
	cs := e.c
	a := &cs.nv
	*a = nvArgs{nm: len(e.maskList)}
	var entL, entR *pcEntry
	a.pmL, entL = pmatsFor(e, s.LeftEdge.Length, cs.pL)
	a.pmR, entR = pmatsFor(e, s.RightEdge.Length, cs.pR)

	leftTip, rightTip := s.Left.IsTip(), s.Right.IsTip()
	a.tipL, a.tipR = leftTip, rightTip
	pvi := e.vi(s.Node)
	var err error
	if leftTip {
		a.tsL = tipSumFor(e, entL, a.pmL, cs.tipSumL)
	} else {
		lvi := e.vi(s.Left)
		e.pinsL[0] = pvi
		np := 1
		if !rightTip {
			e.pinsL[1] = e.vi(s.Right)
			np = 2
		}
		a.xl, err = e.prov.Vector(lvi, false, e.pinsL[:np]...)
		if err != nil {
			return err
		}
		a.scl = e.scales[lvi]
	}
	if rightTip {
		a.tsR = tipSumFor(e, entR, a.pmR, cs.tipSumR)
	} else {
		rvi := e.vi(s.Right)
		e.pinsR[0] = pvi
		np := 1
		if !leftTip {
			e.pinsR[1] = e.vi(s.Left)
			np = 2
		}
		a.xr, err = e.prov.Vector(rvi, false, e.pinsR[:np]...)
		if err != nil {
			return err
		}
		a.scr = e.scales[rvi]
	}
	np := 0
	if !leftTip {
		e.pinsP[np] = e.vi(s.Left)
		np++
	}
	if !rightTip {
		e.pinsP[np] = e.vi(s.Right)
		np++
	}
	a.xp, err = e.prov.Vector(pvi, true, e.pinsP[:np]...)
	if err != nil {
		return err
	}
	a.scp = e.scales[pvi]

	a.cl, a.cr = e.classify(pvi, s.Left, s.Right)
	e.Stats.ClassesComputed += int64(len(a.cl))
	e.eobs.classes.Add(int64(len(a.cl)))
	cs.kern.prepareNewview(e, a)
	e.parallelFor(len(a.cl), cs.nvBody)
	if n := len(a.cl); n < e.nPat {
		// The class blocks are all of the vector a store needs to keep:
		// mark the parent's slot as a record of that prefix.
		record.Stamp(a.xp, e.recordLen(n))
	}
	if e.eobs.on {
		e.eobs.newviewLat.Observe(time.Since(nvStart).Seconds())
	}
	return nil
}

// recordLen is the length of a vector's first ncls class blocks: its
// store record. With ncls below the pattern count it never reaches the
// slot's last word, where record.Stamp puts the length.
func (e *Engine) recordLen(ncls int) int { return ncls * e.nCat * e.nStates }

// pairTableCap bounds classify's direct pair table (entries, 8 bytes
// each: 2 MiB). A node whose children's class counts multiply past the
// table declares every pattern its own class. Such nodes sit near the root of
// wide alignments, where almost every pair is distinct and a lookup in
// a table that size costs about what recomputing the site does: on the
// 1288 × 1200 benchmark dataset 73 of 1286 nodes pass the cap, the
// computed share of site-newviews goes from 17.6 % to 18.4 %, and a
// full traversal runs no slower than with an uncapped table.
const pairTableCap = 1 << 18

// classMap returns node n's class map and class count: a tip's mask
// codes over the alignment's distinct masks, an inner node's cls.
func (e *Engine) classMap(n *tree.Node) ([]int32, int) {
	if n.IsTip() {
		return e.tipCode[n.Index], len(e.maskList)
	}
	vi := e.vi(n)
	return e.cls[vi], e.ncls[vi]
}

// classGen is node n's class-map build generation: 0 for a tip.
func (e *Engine) classGen(n *tree.Node) uint64 {
	if n.IsTip() {
		return 0
	}
	return e.clsGen[e.vi(n)]
}

// classify makes inner vector pvi's class map the one its children l
// and r give it and returns, per class to compute, the children's
// classes its block is computed from (a tip child's mask code, an inner
// child's block index). Classes are numbered in order of first pattern.
// The map of the last build is kept when l and r are the children it
// was built from and neither has been rebuilt since (see clsGen); else
// it is rebuilt through the pair table. KernelGeneric classifies with
// the identity map and never reuses one — every pattern its own class,
// computed from the children's maps directly — which keeps it the
// repeat-free arithmetic every other mode must match bit-for-bit.
func (e *Engine) classify(pvi int, l, r *tree.Node) (cl, cr []int32) {
	kids := [2]int32{int32(l.Index), int32(r.Index)}
	if g := e.clsGen[pvi]; e.kernelMode != KernelGeneric && e.clsKids[pvi] == kids &&
		e.classGen(l) < g && e.classGen(r) < g {
		return e.nodeRepL[pvi], e.nodeRepR[pvi]
	}
	e.Stats.ClassMapsBuilt++
	e.eobs.classMaps.Inc()
	e.builds++
	e.clsGen[pvi] = e.builds
	e.clsKids[pvi] = [2]int32{-1, -1}
	ml, nl := e.classMap(l)
	mr, nr := e.classMap(r)
	out := e.cls[pvi]
	if e.kernelMode == KernelGeneric || nl*nr > len(e.pairGen) {
		for i := range out {
			out[i] = int32(i)
		}
		e.ncls[pvi] = e.nPat
		return ml, mr
	}
	e.gen++
	if e.gen == 0 {
		clear(e.pairGen)
		e.gen = 1
	}
	gen, stamp, id := e.gen, e.pairGen, e.pairID
	n := int32(0)
	for i, c := range ml {
		key := int(c)*nr + int(mr[i])
		if stamp[key] != gen {
			stamp[key] = gen
			id[key] = n
			e.repL[n], e.repR[n] = c, mr[i]
			n++
		}
		out[i] = id[key]
	}
	e.ncls[pvi] = int(n)
	e.clsKids[pvi] = kids
	e.nodeRepL[pvi] = resized(e.nodeRepL[pvi], int(n))
	e.nodeRepR[pvi] = resized(e.nodeRepR[pvi], int(n))
	copy(e.nodeRepL[pvi], e.repL)
	copy(e.nodeRepR[pvi], e.repR)
	return e.nodeRepL[pvi], e.nodeRepR[pvi]
}

// resized returns s[:n], in a new array of exactly n entries when s
// cannot hold them: a node's representative lists grow only to its
// largest class count.
func resized(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// failedVector extracts the vector index from an unreadable-vector
// error (corrupt, transient I/O, remote circuit open). Matching is
// structural — any error with a FailedVector() int method, e.g.
// *ooc.VectorReadError — so the engine does not depend on a concrete
// store implementation: the bytes are gone, but the recompute identity
// re-derives them exactly.
func failedVector(err error) (int, bool) {
	var fe interface{ FailedVector() int }
	if errors.As(err, &fe) {
		return fe.FailedVector(), true
	}
	return -1, false
}

// recoverCorruption turns a corrupt or unreadable vector read into a
// recompute: the node owning the vector is marked invalid so the next
// traversal plan rebuilds it from its children (which recurses if a
// child is itself corrupt, unreadable or invalid). Returns false when
// err names no vector or the vector is out of range — the caller then
// surfaces err as fatal.
func (e *Engine) recoverCorruption(err error) bool {
	vi, ok := failedVector(err)
	if !ok || vi < 0 || vi >= e.T.NumInner() {
		return false
	}
	e.Invalidate(e.T.Nodes[vi+e.T.NumTips])
	e.Stats.Recoveries++
	e.eobs.recoveries.Inc()
	if e.span != nil {
		// Zero-length marker: the cost shows up as the extra newviews
		// that follow, the marker shows *why* they happened.
		e.span.EmitChild("plf.recovery", time.Now(), 0, obs.Attr{Key: "vid", Int: int64(vi)})
	}
	return true
}

// recoveryBudget is the per-call cap on recoveries. It bounds
// pathological stores that corrupt every read: each recovery
// invalidates at least one node and a clean recompute re-validates it,
// so a healthy store converges well within 2·inner+8 attempts.
func (e *Engine) recoveryBudget() int { return 2*e.T.NumInner() + 8 }

// traverseThen runs the partial traversal edge needs, then read (nil
// for none), which reads the two endpoint vectors. This is the engine's
// one recovery loop: a vector that is corrupt, or unreadable (transient
// I/O, remote circuit open), in either phase is invalidated and
// the plan rebuilt, recomputing the lost subtree from its children
// instead of failing the call. The engine never asks where a vector
// lives; a store that cannot serve one says so by failing the read.
// Every planned pass starts here, and so does a model edit's
// invalidation.
func (e *Engine) traverseThen(edge *tree.Edge, read func() error) error {
	if v := e.M.Version(); v != e.version {
		e.InvalidateAll()
		e.version = v
	}
	budget := e.recoveryBudget()
	for attempts := 0; ; attempts++ {
		e.plan = tree.AppendEdgeTraversal(e.plan[:0], edge, e.orient)
		err := e.execute(e.plan)
		if err == nil && read != nil {
			err = read()
		}
		if err == nil || attempts >= budget || !e.recoverCorruption(err) {
			return err
		}
	}
}

// Traverse makes the vectors at both endpoints of edge valid and
// oriented toward each other, doing only the work the current
// orientation state requires, and recovering unreadable vectors as
// traverseThen does.
func (e *Engine) Traverse(edge *tree.Edge) error { return e.traverseThen(edge, nil) }

// FullTraversal recomputes every ancestral vector oriented toward edge,
// regardless of current validity (the paper's -f z workload building
// block).
func (e *Engine) FullTraversal(edge *tree.Edge) error {
	e.InvalidateAll()
	return e.Traverse(edge)
}

// LogLikelihoodAt returns the log-likelihood evaluated at the given
// branch, running whatever partial traversal is needed first. An
// endpoint vector the evaluation cannot read is recomputed like any
// other (see traverseThen).
func (e *Engine) LogLikelihoodAt(edge *tree.Edge) (float64, error) {
	var spanStart time.Time
	if e.span != nil {
		spanStart = time.Now()
	}
	var lnl float64
	err := e.traverseThen(edge, func() (err error) {
		lnl, err = e.evaluate(edge)
		return err
	})
	if err != nil {
		return 0, err
	}
	if e.span != nil {
		e.span.EmitChild("plf.evaluate", spanStart, time.Since(spanStart),
			obs.Attr{Key: "edge", Int: int64(edge.Index)})
	}
	return lnl, nil
}

// LogLikelihood evaluates at the tree's first branch.
func (e *Engine) LogLikelihood() (float64, error) {
	return e.LogLikelihoodAt(e.T.Edges[0])
}

// mixInvariant folds the +I mixture into a per-pattern log-likelihood:
// given lnGamma = ln of the variable-component likelihood (already
// scale-corrected, possibly astronomically small), it returns
// ln((1-p)·e^lnGamma + p·linv) evaluated stably via log-sum-exp.
func mixInvariant(lnGamma, p, linv float64) float64 {
	lnA := math.Log1p(-p) + lnGamma
	if linv <= 0 {
		return lnA
	}
	lnB := math.Log(p) + math.Log(linv)
	hi, lo := lnA, lnB
	if lnB > lnA {
		hi, lo = lnB, lnA
	}
	return hi + math.Log1p(math.Exp(lo-hi))
}

// gammaWeight returns the posterior weight of the variable (Γ)
// component in the +I mixture for a pattern with the given
// log-likelihood parts — the q in d lnL/dt = q · (f'/f)_Γ.
func gammaWeight(lnGamma, p, linv float64) float64 {
	if p <= 0 {
		return 1
	}
	lnA := math.Log1p(-p) + lnGamma
	if linv <= 0 {
		return 1
	}
	lnB := math.Log(p) + math.Log(linv)
	return 1 / (1 + math.Exp(lnB-lnA))
}

// evaluate computes the log-likelihood at edge without any traversal;
// both endpoint vectors must already be valid toward each other. Input
// resolution happens here; the per-pattern arithmetic is delegated to
// the active kernel set.
func (e *Engine) evaluate(edge *tree.Edge) (float64, error) {
	e.Stats.Evaluations++
	e.eobs.evaluations.Inc()
	var evStart time.Time
	if e.eobs.on {
		evStart = time.Now()
	}
	cs := e.c
	a := &cs.ev
	*a = evArgs{nm: len(e.maskList)}
	p, q := edge.N[0], edge.N[1]
	// Prefer the tip on the q side so the P matrix is applied across the
	// edge onto q's data.
	if p.IsTip() && !q.IsTip() {
		p, q = q, p
	}
	var entQ *pcEntry
	a.pmQ, entQ = pmatsFor(e, edge.Length, cs.pR)

	a.cp, _ = e.classMap(p)
	a.cq, _ = e.classMap(q)
	a.tipP, a.tipQ = p.IsTip(), q.IsTip()
	var err error
	if q.IsTip() {
		a.tsQ = tipSumFor(e, entQ, a.pmQ, cs.tipSumR)
	} else {
		qvi := e.vi(q)
		np := 0
		if !p.IsTip() {
			e.pinsR[0] = e.vi(p)
			np = 1
		}
		a.xq, err = e.prov.Vector(qvi, false, e.pinsR[:np]...)
		if err != nil {
			return 0, err
		}
		a.scq = e.scales[qvi]
	}
	if !p.IsTip() {
		pvi := e.vi(p)
		np := 0
		if !q.IsTip() {
			e.pinsL[0] = e.vi(q)
			np = 1
		}
		a.xp, err = e.prov.Vector(pvi, false, e.pinsL[:np]...)
		if err != nil {
			return 0, err
		}
		a.scp = e.scales[pvi]
	}

	// Workers fill per-pattern contributions into siteBuf; the final
	// summation runs sequentially in pattern order, so the result is
	// bit-identical for any worker count.
	a.contrib = e.siteBuf[:e.nPat]
	e.parallelFor(e.nPat, cs.evBody)
	lnl := 0.0
	for _, c := range a.contrib {
		lnl += c
	}
	if e.eobs.on {
		e.eobs.evalLat.Observe(time.Since(evStart).Seconds())
	}
	return lnl, nil
}
